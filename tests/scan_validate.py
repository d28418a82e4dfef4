"""validate_mesh as it was before the integer sweep, as a reference for
mesh.validate_mesh.

It reads each barycentric solve from the Fraction offset p − v₀, and it
tests every cell against every vertex with Fraction box comparisons, in
cell order and then vertex order, so the first error it raises names the
first offending cell and the lowest vertex inside it.  Its cost is cells x
vertices, so it suits meshes of a few hundred cells.
"""

from __future__ import annotations

from hdiv_geodecomp import linalg
from hdiv_geodecomp.mesh import Mesh, MeshError
from hdiv_geodecomp.simplex import Simplex, integer_gradients


def _barycentric_of_point(simplex: Simplex, point) -> list[int]:
    """The point's barycentric coordinates, all scaled by one positive
    integer, from the Fraction offset p − v₀."""
    grads, den = integer_gradients(simplex)
    offset, scale = linalg.integer_form(x - y for x, y in zip(point, simplex.vertices[0]))
    return [int(i == 0) * den * scale + sum(g * x for g, x in zip(row, offset)) for i, row in enumerate(grads)]


def scan_validate_mesh(mesh: Mesh) -> None:
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
        coords = _barycentric_of_point(mesh.cell_simplices[c1], mesh.vertices[apex2])
        if coords[mesh.cells[c1].index(apex1)] >= 0:
            raise MeshError(
                f"cells {mesh.cells[c1]} and {mesh.cells[c2]} lie on the same side "
                f"of facet {facet}: folded mesh"
            )
    for ci, cell in enumerate(mesh.cells):
        simplex = mesh.cell_simplices[ci]
        members = set(cell)
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
