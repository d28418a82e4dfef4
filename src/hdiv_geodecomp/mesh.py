"""Exact rational simplicial meshes: builtins, refinement, JSON round trip.

One rule builds every structured mesh, the Kuhn paths of the unit n-cube: the
cube builtins place them at integer offsets, and refine, in any dimension,
splits each cell into the Kuhn paths of its half-grid (Freudenthal's rule).

A Mesh is valid by construction: every way of building one, replace() too,
runs validate_mesh once, which raises MeshError for a nonconforming partition.

Cells are stored as sorted global vertex tuples.  The label order of every
sub-simplex then agrees with the global sorted order in each incident cell,
so restrictions of Bernstein polynomials can be compared across cells index
by index, and edge tangents computed inside a cell coincide with the ones
computed from the global vertex table.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .simplex import (
    Frame,
    Simplex,
    SingularGeometryError,
    SubSimplexId,
    integer_gradients,
    max_normalized,
)

Coordinate = tuple[Fraction, ...]

BUILTIN_MESH_NAMES = (
    "unit_interval_<m>",
    "two_triangles",
    "criss_cross",
    "two_tets",
    "cube_freudenthal",
    "fichera_coarse",
    "refine(<name>)",
)


class MeshError(ValueError):
    """Raised for inputs that are not conforming simplicial partitions."""


def _cell_index(value) -> int:
    """A vertex index as an int: anything with __index__ but a bool, so a
    float is rejected rather than truncated."""
    if isinstance(value, bool):
        raise MeshError(f"cell index {value!r} is a bool, not an integer")
    try:
        return operator.index(value)
    except TypeError:
        raise MeshError(f"cell index {value!r} is not an integer") from None


@dataclass(frozen=True)
class Mesh:
    """A conforming partition with exact rational vertex coordinates."""

    dim: int
    vertices: tuple[Coordinate, ...]
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        pts = tuple(tuple(Fraction(x) for x in p) for p in self.vertices)
        object.__setattr__(self, "vertices", pts)
        cells = tuple(tuple(sorted(map(_cell_index, c))) for c in self.cells)
        object.__setattr__(self, "cells", cells)
        n = self.dim
        if n < 1:
            raise MeshError("meshes start at dimension 1")
        if any(len(p) != n for p in pts):
            raise MeshError("vertex width differs from the mesh dimension")
        if not cells:
            raise MeshError("a mesh needs at least one cell")
        for c in cells:
            if len(c) != n + 1 or len(set(c)) != n + 1:
                raise MeshError(f"cell {c} needs {n + 1} distinct vertices")
            if c[0] < 0 or c[-1] >= len(pts):
                raise MeshError(f"cell {c} references a missing vertex")
        if len(set(cells)) != len(cells):
            raise MeshError("duplicate cell")
        validate_mesh(self)

    @cached_property
    def cell_simplices(self) -> tuple[Simplex, ...]:
        out = []
        for c in self.cells:
            try:
                out.append(Simplex(tuple(self.vertices[i] for i in c)))
            except SingularGeometryError as exc:
                raise MeshError(f"cell {c} is degenerate") from exc
        return tuple(out)

    @cached_property
    def _site_tables(self) -> tuple[dict[int, tuple], dict[tuple, tuple[int, ...]]]:
        by_dim: dict[int, set] = {ell: set() for ell in range(self.dim + 1)}
        incident: dict[tuple, list[int]] = {}
        for ci, c in enumerate(self.cells):
            for ell in range(self.dim + 1):
                for comb_ in itertools.combinations(c, ell + 1):
                    by_dim[ell].add(comb_)
                    incident.setdefault(comb_, []).append(ci)
        sites = {ell: tuple(sorted(vals)) for ell, vals in by_dim.items()}
        return sites, {g: tuple(cs) for g, cs in incident.items()}

    def sub_simplices(self, ell: int) -> tuple[tuple[int, ...], ...]:
        """All ℓ-dimensional sites of the partition, lexicographically."""
        if not 0 <= ell <= self.dim:
            raise ValueError(f"sub-simplex dimension {ell} outside 0..{self.dim}")
        return self._site_tables[0][ell]

    def cells_containing(self, site: tuple[int, ...]) -> tuple[int, ...]:
        return self._site_tables[1].get(tuple(site), ())

    @cached_property
    def facet_cells(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return {g: self.cells_containing(g) for g in self.sub_simplices(self.dim - 1)}

    @cached_property
    def interior_facets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(g for g, cs in sorted(self.facet_cells.items()) if len(cs) == 2)

    def local_site(self, cell_index: int, site: tuple[int, ...]) -> SubSimplexId:
        """The cell-local labels of a global site, order preserved."""
        cell = self.cells[cell_index]
        try:
            positions = tuple(cell.index(g) for g in site)
        except ValueError:
            raise MeshError(f"site {site} is not part of cell {cell}") from None
        return SubSimplexId(positions, self.dim)

    def global_site(self, cell_index: int, f: SubSimplexId) -> tuple[int, ...]:
        cell = self.cells[cell_index]
        return tuple(cell[i] for i in f.indices)

    @cached_property
    def _frame_cache(self) -> dict:
        return {}

    def frame_vectors(self, site: tuple[int, ...]) -> tuple[tuple, tuple]:
        """Mesh-shared tangents and normals of one site.

        Tangents are the max-normalized edge vectors from the first vertex in
        global order; they coincide with the element-local ones because cell
        labels are sorted.  Normals are a primitive integer basis of the
        orthogonal complement of the tangent span, the same from every
        incident cell by construction.
        """
        site = tuple(site)
        hit = self._frame_cache.get(site)
        if hit is not None:
            return hit
        base = self.vertices[site[0]]
        tangents = tuple(
            max_normalized(tuple(b - a for a, b in zip(base, self.vertices[g])))
            for g in site[1:]
        )
        normals = tuple(
            tuple(row) for row in linalg.nullspace(tangents, cols=self.dim)
        )
        self._frame_cache[site] = (tangents, normals)
        return tangents, normals

    def global_frame(self, cell_index: int, f: SubSimplexId) -> Frame:
        """The shared frame of f's global site, attached to cell-local labels."""
        tangents, normals = self.frame_vectors(self.global_site(cell_index, f))
        return Frame(f, tangents, normals, "edge_tangents_face_normals")

    @cached_property
    def _normal_cache(self) -> dict:
        return {}

    def facet_normal(self, facet: tuple[int, ...]) -> tuple[Fraction, ...]:
        """The chosen normal of a facet: outward from the lowest incident cell."""
        facet = tuple(facet)
        hit = self._normal_cache.get(facet)
        if hit is not None:
            return hit
        cells = self.facet_cells.get(facet)
        if not cells:
            raise MeshError(f"{facet} is not a facet of this mesh")
        owner = min(cells)
        local = self.local_site(owner, facet)
        missing = local.complement_labels()[0]
        grads, _ = integer_gradients(self.cell_simplices[owner])
        # ∇λ of the opposite vertex points into the cell; the shared normal
        # is the outward one.
        normal = self._normal_cache[facet] = max_normalized(tuple(-x for x in grads[missing]))
        return normal


def _barycentric_of_point(simplex: Simplex, point: Coordinate) -> list[int]:
    """The point's barycentric coordinates, all scaled by one positive
    integer: their signs are the coordinates' signs.

    λ_i(p) = [i = 0] + ∇λ_i·(p − v₀), read from the cached integer
    gradients G / d with p − v₀ = N / s as integers, so d·s·λ_i(p) =
    [i = 0]·d·s + G_i·N.
    """
    grads, den = integer_gradients(simplex)
    offset, scale = linalg.integer_form(x - y for x, y in zip(point, simplex.vertices[0]))
    return [int(i == 0) * den * scale + sum(g * x for g, x in zip(row, offset)) for i, row in enumerate(grads)]


def validate_mesh(mesh: Mesh) -> None:
    """Reject duplicate vertices, degenerate cells, bad incidence, folds, hanging nodes.

    Facets must belong to one or two cells, the two cells of an interior
    facet must lie on opposite sides of it, and no vertex may land inside
    the closed hull of a cell it is not a vertex of; together these catch
    the usual ways a vertex-indexed partition fails to be conforming.
    Two cells that overlap without sharing a vertex, such as the two
    triangles of a hexagram, still pass.
    """
    if len(set(mesh.vertices)) != len(mesh.vertices):
        raise MeshError("two vertices share the same coordinates")
    _ = mesh.cell_simplices
    for facet, cells in mesh.facet_cells.items():
        if len(cells) > 2:
            raise MeshError(f"facet {facet} is shared by {len(cells)} cells")
    for facet in mesh.interior_facets:
        c1, c2 = mesh.facet_cells[facet]
        (apex1,) = set(mesh.cells[c1]) - set(facet)
        (apex2,) = set(mesh.cells[c2]) - set(facet)
        # The barycentric coordinate of c1's apex vanishes on the facet, so
        # its sign at c2's apex tells the side of the facet c2 lies on.
        coords = _barycentric_of_point(mesh.cell_simplices[c1], mesh.vertices[apex2])
        if coords[mesh.cells[c1].index(apex1)] >= 0:
            raise MeshError(
                f"cells {mesh.cells[c1]} and {mesh.cells[c2]} lie on the same side "
                f"of facet {facet}: folded mesh"
            )
    for ci, cell in enumerate(mesh.cells):
        simplex = mesh.cell_simplices[ci]
        members = set(cell)
        # The closed hull lies in the closed bounding box, so a vertex outside
        # the box cannot be in the cell and needs no barycentric solve.
        box = [(min(axis), max(axis)) for axis in zip(*simplex.vertices)]
        for vi, point in enumerate(mesh.vertices):
            if vi in members:
                continue
            if any(x < lo or x > hi for x, (lo, hi) in zip(point, box)):
                continue
            coords = _barycentric_of_point(simplex, point)
            if all(x >= 0 for x in coords):
                raise MeshError(
                    f"vertex {vi} lies inside cell {cell}: hanging node"
                )


def _unit_interval(m: int) -> Mesh:
    if m < 1:
        raise MeshError("unit_interval needs at least one cell")
    verts = [(Fraction(j, m),) for j in range(m + 1)]
    return Mesh(1, tuple(verts), tuple((j, j + 1) for j in range(m)))


def _two_triangles() -> Mesh:
    verts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    return Mesh(2, tuple(verts), ((0, 1, 2), (1, 2, 3)))


def _criss_cross() -> Mesh:
    verts = [(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))]
    return Mesh(2, tuple(verts), ((0, 1, 4), (0, 2, 4), (1, 3, 4), (2, 3, 4)))


def _two_tets() -> Mesh:
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    return Mesh(3, tuple(verts), ((0, 1, 2, 3), (1, 2, 3, 4)))


def _kuhn_paths(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """The n! Kuhn simplices of the unit n-cube, one per axis permutation:
    each walks from the origin to the far corner one unit vector at a time."""
    return [
        tuple(tuple(int(a in perm[:m]) for a in range(n)) for m in range(n + 1))
        for perm in itertools.permutations(range(n))
    ]


def _kuhn_cubes(points: list[tuple[int, ...]], offsets) -> Mesh:
    """Kuhn cubes at integer offsets over lattice points numbered in order.
    Translated copies match along shared cube faces: the union is conforming."""
    index = {p: i for i, p in enumerate(points)}
    n = len(points[0])
    cells = [
        tuple(index[tuple(o + x for o, x in zip(offset, p))] for p in path)
        for offset in offsets
        for path in _kuhn_paths(n)
    ]
    return Mesh(n, points, cells)


def _cube_freudenthal() -> Mesh:
    return _kuhn_cubes(list(itertools.product((0, 1), repeat=3)), [(0, 0, 0)])


def _fichera_coarse() -> Mesh:
    """Seven Kuhn cubes tiling [0,2]³ minus the far corner cube."""
    points = [p for p in itertools.product((0, 1, 2), repeat=3) if p != (2, 2, 2)]
    offsets = [o for o in itertools.product((0, 1), repeat=3) if o != (1, 1, 1)]
    return _kuhn_cubes(points, offsets)


@functools.cache
def _freudenthal_children(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The 2^n children of the reference simplex 1 ≥ y₁ ≥ … ≥ yₙ ≥ 0: the Kuhn
    paths of its half-grid.  In doubled coordinates the point with i twos and
    j − i ones is (i, j), the midpoint of local vertices i and j (vertex i if
    i = j).  Corner children come first in vertex order, then the rest; each
    is a sorted tuple of pairs, and the rest are in lexicographic order."""
    children = []
    for offset in itertools.product((0, 1), repeat=n):
        for path in _kuhn_paths(n):
            points = [tuple(o + x for o, x in zip(offset, p)) for p in path]
            if all(a >= b for p in points for a, b in zip((2,) + p, p + (0,))):
                pairs = ((p.count(2), n - p.count(0)) for p in points)
                children.append(tuple(sorted(pairs)))
    return tuple(sorted(children, key=lambda c: (all(i != j for i, j in c), c)))


def refine(mesh: Mesh) -> Mesh:
    """One sweep of Freudenthal refinement (Bey, Numer. Math. 2000) with exact
    rational edge midpoints: each n-simplex splits into the 2^n Kuhn simplices
    of its half-grid.  Intervals halve; triangles give three corner copies and
    the middle triangle of midpoints; tetrahedra give four corner copies and
    four tetrahedra from the interior octahedron, cut along the diagonal
    between the midpoints of edges 02 and 13."""
    n = mesh.dim
    verts = list(mesh.vertices)
    midpoint: dict[tuple[int, int], int] = {}
    children: list[tuple[int, ...]] = []
    for cell in mesh.cells:
        point = {(i, i): v for i, v in enumerate(cell)}
        for i, j in itertools.combinations(range(n + 1), 2):
            a, b = cell[i], cell[j]
            if (a, b) not in midpoint:
                verts.append(tuple((x + y) / 2 for x, y in zip(verts[a], verts[b])))
                midpoint[a, b] = len(verts) - 1
            point[i, j] = midpoint[a, b]
        children += [tuple(point[p] for p in c) for c in _freudenthal_children(n)]
    return Mesh(n, tuple(verts), tuple(children))


def builtin_mesh(name: str) -> Mesh:
    """Look up a named mesh; refine(...) wrappers nest."""
    text = name.strip()
    if text.startswith("refine(") and text.endswith(")"):
        return refine(builtin_mesh(text[len("refine(") : -1]))
    if text.startswith("unit_interval_"):
        suffix = text[len("unit_interval_") :]
        if not suffix.isdigit():
            raise MeshError(f"bad interval cell count in {name!r}")
        return _unit_interval(int(suffix))
    table = {
        "two_triangles": _two_triangles,
        "criss_cross": _criss_cross,
        "two_tets": _two_tets,
        "cube_freudenthal": _cube_freudenthal,
        "fichera_coarse": _fichera_coarse,
    }
    if text not in table:
        raise MeshError(
            f"unknown mesh {name!r}; builtins: {', '.join(BUILTIN_MESH_NAMES)}"
        )
    return table[text]()


def save_mesh(mesh: Mesh, path) -> None:
    data = {
        "dim": mesh.dim,
        "vertices": [
            [[x.numerator, x.denominator] for x in p] for p in mesh.vertices
        ],
        "cells": [list(c) for c in mesh.cells],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
        handle.write("\n")


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # floats and booleans are rejected, not truncated
        raise TypeError(f"{what} {json.dumps(value)} is not an integer")
    return value


def load_mesh(path) -> Mesh:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        verts = [
            tuple(Fraction(_json_int(a, "numerator"), _json_int(b, "denominator")) for a, b in p)
            for p in data["vertices"]
        ]
        cells = [[_json_int(i, "cell index") for i in c] for c in data["cells"]]
        return Mesh(_json_int(data["dim"], "dim"), verts, cells)
    except MeshError:
        raise
    except OSError as exc:
        raise MeshError(f"cannot read mesh file {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise MeshError(f"malformed mesh file {path}: {exc}") from exc


def resolve_mesh(spec: str) -> Mesh:
    """A builtin name, or a path to a mesh JSON file."""
    if os.path.exists(spec):
        return load_mesh(spec)
    return builtin_mesh(spec)
