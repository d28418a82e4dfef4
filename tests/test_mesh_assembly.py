"""Builtin meshes, refinement, global assembly, conformity, div image, inf-sup."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdiv_geodecomp import assembly, bernstein as bn, cli, linalg, mesh as mesh_module, tensors
from hdiv_geodecomp.assembly import (
    AssemblyError,
    GlobalSpace,
    assemble,
    check_conformity,
    check_dims,
    check_div_onto,
    face_dim_formula,
    flip_facet_orientation,
    infsup_constant,
    infsup_sweep,
    lagrange_dim_formula,
)
from hdiv_geodecomp.checks import FAIL, PASS, SKIPPED
from hdiv_geodecomp.dofs import (
    FACEWISE,
    GLOBAL,
    INTERIOR,
    DoFTerm,
    build_dofs,
    certify_unisolvence,
    dof_matrix,
    site_blocks,
)
from hdiv_geodecomp.mesh import (
    Mesh,
    MeshError,
    builtin_mesh,
    load_mesh,
    refine,
    resolve_mesh,
    save_mesh,
)
from hdiv_geodecomp.simplex import build_frame, enumerate_subsimplices, reference_simplex
from hdiv_geodecomp.spaces import Family, decompose, div_rows, site_rows

from conftest import rational_rows
from dense_div_onto import dense_div_onto_rank, dense_div_onto_rows
from dense_infsup import cell_pencil, condensed_cells, dense_infsup, member_coefficients
from scan_validate import scan_validate_mesh


# ---------------------------------------------------------------- meshes


def _hanging_node_mesh() -> Mesh:
    # fine pair glued to one coarse triangle along its left edge
    return Mesh(
        2,
        ((0, 0), (2, 0), (0, 2), (0, 1), (-1, 0), (-1, 2)),
        ((0, 1, 2), (0, 3, 4), (2, 3, 5)),
    )


def test_builtin_mesh_inventories():
    # name -> (dim, vertices, cells, interior facets, boundary facets)
    expected = {
        "unit_interval_4": (1, 5, 4, 3, 2),
        "two_triangles": (2, 4, 2, 1, 4),
        "criss_cross": (2, 5, 4, 4, 4),
        "two_tets": (3, 5, 2, 1, 6),
        "cube_freudenthal": (3, 8, 6, 6, 12),
        "fichera_coarse": (3, 26, 42, 60, 48),
    }
    for name, (dim, nv, nc, ni, nb) in expected.items():
        m = builtin_mesh(name)
        got = (
            m.dim,
            len(m.vertices),
            len(m.cells),
            len(m.interior_facets),
            sum(len(cs) == 1 for cs in m.facet_cells.values()),
        )
        assert got == (dim, nv, nc, ni, nb), name


def _four_simplex() -> Mesh:
    return Mesh(4, reference_simplex(4).vertices, ((0, 1, 2, 3, 4),))


def _kuhn_4cube() -> Mesh:
    return mesh_module._kuhn_cubes(list(itertools.product((0, 1), repeat=4)), [(0, 0, 0, 0)])


def test_refinement_counts_and_volume_conservation():
    cases = [
        (builtin_mesh("two_triangles"), 4),
        (builtin_mesh("two_tets"), 8),
        (builtin_mesh("unit_interval_2"), 2),
        (_four_simplex(), 16),
    ]
    for m, children in cases:
        fine = refine(m)
        assert len(fine.cells) == children * len(m.cells)
        coarse_vol = sum(s.volume() for s in m.cell_simplices)
        assert sum(s.volume() for s in fine.cell_simplices) == coarse_vol
    assert len({s.volume() for s in refine(_four_simplex()).cell_simplices}) == 1
    assert len(builtin_mesh("refine(refine(two_triangles))").cells) == 32
    cube = _kuhn_4cube()
    assert len(cube.cells) == 24
    fine = refine(cube)
    assert len(fine.cells) == 384
    assert sum(s.volume() for s in fine.cell_simplices) == 1


# sha256 of (dim, vertices, cells), vertex and cell order included.  The
# golden reports cannot pin the order: their exact witnesses do not depend on it.
# The refined digests pin refine's lexicographic vertex numbering.
MESH_DIGESTS = {
    "unit_interval_3": "0a8ee5ca06cc7618f8d73ee9b384f52a6f9bbe7704b2bcaf3ef99d9665123f57",
    "refine(unit_interval_3)": "143a6f9e29fba80fc3f24080cdc6b4d44b1a9657341c197adbd3ebe0fc195475",
    "refine(refine(unit_interval_3))": "3eacd4ff2359d7be3a72ddc8a2054163ebac0aefd678d691d055ba4028e14f08",
    "two_triangles": "91160bc43930a221239b04262e9cc93551309bd015d010f0cb5827d679831eb1",
    "refine(two_triangles)": "d8c8d37bb0c1e1f813ec89dbb3a8c4e3184bd4765aa72d4c9b1a3805772e8ceb",
    "refine(refine(two_triangles))": "48bab465c704b19800547d17fdc1a50b11ae307dec56b3341c35aa05a9dc035a",
    "criss_cross": "ad0053d969a5534804b6964a062ee067fa2c83acc138ad803c6c3580d8c8041a",
    "refine(criss_cross)": "af7dc987666a12039cb6800f4dde308ee292e226f7a35bead7604a12df1f2bad",
    "refine(refine(criss_cross))": "d4df6c0374036d4d31c707a98f23386023c9fd6b4421b19ab3ce3db65f03df65",
    "two_tets": "ada03acab8460d9ef1981684c903d8c2554d61372f45da76ab9424371d0ea2fb",
    "refine(two_tets)": "b9e2e94025ee14dd5ab994207473861fef64f9def762e64e308e554126737153",
    "refine(refine(two_tets))": "d29b8aa09d17bfd7d91121118c6a2a87ba078a1f6713dd756de49032dc35d53e",
    "cube_freudenthal": "9137256779c1f8e83c0df0fd2a73d03cc58ceb139b7b8fff2efa565ee9d8afb5",
    "refine(cube_freudenthal)": "5989550da2629251baa02560d3c6f59f58c287669dfc1f4f5bd6c79044bbd022",
    "refine(refine(cube_freudenthal))": "5f9a25b5b070b9a5b31429813adc5f86a101465097e27ea9e1fdad7490073eaa",
    "fichera_coarse": "1441aa60f99a77da82e10303600aceddf194914790dc06b938795494e37365bc",
    "refine(fichera_coarse)": "423b39d1000170589399ec84d1e8d38fc3e4d312f75bcb9009600c6ee9976f75",
}


def test_builtin_and_refined_meshes_are_pinned_vertex_for_vertex():
    for name, expected in MESH_DIGESTS.items():
        m = builtin_mesh(name)
        data = [
            m.dim,
            [[[x.numerator, x.denominator] for x in p] for p in m.vertices],
            [list(c) for c in m.cells],
        ]
        text = json.dumps(data, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == expected, name


def _freudenthal_point_sets(m: Mesh) -> list[frozenset]:
    """Per child, in refine's cell order, its point set: the Freudenthal
    children of each cell in the cell's sorted local order."""
    out = []
    for cell in m.cells:
        pts = [m.vertices[i] for i in cell]
        for child in mesh_module._freudenthal_children(m.dim):
            out.append(frozenset(tuple((a + b) / 2 for a, b in zip(pts[i], pts[j])) for i, j in child))
    return out


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["unit_interval_3", "two_triangles", "criss_cross", "two_tets", "cube_freudenthal", "refine(two_tets)"]),
    st.randoms(use_true_random=False),
)
def test_refine_numbers_its_vertices_lexicographically(name, rng):
    # Any numbering of the coarse vertices: refine cuts each cell in its
    # sorted local order, whatever the order of its output numbering.
    coarse = builtin_mesh(name)
    perm = list(range(len(coarse.vertices)))
    rng.shuffle(perm)
    shuffled = Mesh(coarse.dim, [coarse.vertices[i] for i in perm], [[perm.index(i) for i in c] for c in coarse.cells])
    for m in (coarse, shuffled):
        fine = refine(m)
        assert list(fine.vertices) == sorted(fine.vertices)
        assert [frozenset(fine.vertices[i] for i in c) for c in fine.cells] == _freudenthal_point_sets(m)


@pytest.mark.parametrize("name, cells, classes", [
    ("refine(two_tets)", 16, 10),
    ("refine(refine(two_tets))", 128, 12),
    ("refine(cube_freudenthal)", 48, 6),
    ("refine(refine(cube_freudenthal))", 384, 6),
    ("refine(criss_cross)", 16, 4),
    ("refine(fichera_coarse)", 336, 6),
    ("refine(kuhn 4-cube)", 384, 24),
])
def test_refined_meshes_keep_few_congruence_classes(name, cells, classes):
    # Freudenthal refinement in a consistent vertex order has n! classes
    # at every level of a Kuhn mesh (Bey, Numer. Math. 2000); two_tets is
    # not one, and its count settles at 12 from the second level.
    m = refine(_kuhn_4cube()) if name == "refine(kuhn 4-cube)" else builtin_mesh(name)
    assert len(m.cells) == cells
    assert len(set(m.cell_class)) == classes
    for ci, first in enumerate(m.cell_class):
        assert first <= ci and m.cell_class[first] == first
        edges = [tuple(m.cell_simplices[c].edge_vector(0, j) for j in range(1, m.dim + 1)) for c in (ci, first)]
        assert edges[0] == edges[1]


def test_face_space_on_the_refined_4_simplex():
    space = assemble(refine(_four_simplex()), "face", 2, -1)
    dims = check_dims(space)
    assert dims.status == PASS
    assert dims.witness["assembled"] == dims.witness["formula"] == 760
    assert check_conformity(space).status == PASS
    assert check_div_onto(space).status == PASS


def test_refined_two_triangles_facet_split():
    fine = refine(builtin_mesh("two_triangles"))
    assert len(fine.vertices) == 9
    assert len(fine.interior_facets) == 8
    assert sum(len(cs) == 1 for cs in fine.facet_cells.values()) == 8


def test_builtin_name_parsing_errors():
    with pytest.raises(MeshError):
        builtin_mesh("no_such_mesh")
    with pytest.raises(MeshError):
        builtin_mesh("unit_interval_0")
    with pytest.raises(MeshError):
        builtin_mesh("refine(")


def test_mesh_json_roundtrip(tmp_path):
    m = Mesh(
        2,
        [(0, 0), (1, 0), (Fraction(1, 3), Fraction(2, 7)), (1, 1)],
        [(0, 1, 2), (1, 2, 3)],
    )
    path = tmp_path / "mesh.json"
    save_mesh(m, path)
    back = load_mesh(path)
    assert back.dim == m.dim
    assert back.vertices == m.vertices
    assert back.cells == m.cells
    assert back.vertices[2][0] == Fraction(1, 3)
    assert resolve_mesh(str(path)).cells == m.cells
    assert resolve_mesh("two_triangles").cells == builtin_mesh("two_triangles").cells


@pytest.mark.parametrize("index", [0.9, 0.0, True, "0", Fraction(0)])
def test_mesh_rejects_cell_indices_that_are_not_integers(index):
    # A float used to be truncated: (0.9, 1, 2) built the cell (0, 1, 2).
    with pytest.raises(MeshError, match="cell index"):
        Mesh(2, [(0, 0), (1, 0), (0, 1)], [(index, 1, 2)])


def test_mesh_accepts_cell_indices_with_index():
    class Index:
        def __index__(self):
            return 0

    assert Mesh(2, [(0, 0), (1, 0), (0, 1)], [(Index(), 2, 1)]).cells == ((0, 1, 2),)


def test_validate_mesh_rejects_bad_input():
    with pytest.raises(MeshError, match="share the same coordinates"):
        # coincident vertices
        Mesh(1, [(0,), (0,), (1,)], [(0, 2), (1, 2)])
    with pytest.raises(MeshError, match=r"cell \(0, 1, 2\) is degenerate"):
        # flat triangle
        Mesh(2, [(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])
    with pytest.raises(MeshError, match="shared by 3 cells"):
        # vertex 1 sits on three segments
        Mesh(1, [(0,), (1,), (2,), (3,)], [(0, 1), (1, 2), (1, 3)])
    # The hanging vertex lies on the edge x = 0 of the coarse cell, which is
    # also the boundary of that cell's bounding box.
    with pytest.raises(MeshError, match=r"vertex 3 lies inside cell \(0, 1, 2\): hanging node"):
        _hanging_node_mesh()
    # Folded pairs: both cells on the same side of their shared facet, and no
    # vertex inside the other cell, so only the opposite-side test sees them.
    with pytest.raises(MeshError, match=r"facet \(0, 1\): folded"):
        Mesh(
            2, [(0, 0), (1, 0), (0, 1), (Fraction(1, 2), 2)], [(0, 1, 2), (0, 1, 3)]
        )
    with pytest.raises(MeshError, match=r"facet \(0, 1, 2\): folded"):
        Mesh(
            3,
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2)],
            [(0, 1, 2, 3), (0, 1, 2, 4)],
        )


def test_validate_mesh_checks_each_instance_once(monkeypatch, tmp_path):
    solves = Counter()
    solve = mesh_module._barycentric_of_point

    def counted(*args):
        solves["n"] += 1
        return solve(*args)

    monkeypatch.setattr(mesh_module, "_barycentric_of_point", counted)
    # Construction validates once.
    m = Mesh(2, ((0, 0), (1, 0), (0, 1), (1, 1)), ((0, 1, 2), (1, 2, 3)))
    first = solves["n"]
    assert first > 0
    # Neither assemble nor a CLI run on the built mesh validates it again.
    assemble(m, "face", 1, -1)
    monkeypatch.setattr(cli, "resolve_mesh", lambda spec: m)
    argv = ["all", "--family", "face", "--degree", "1", "--mesh", "two_triangles",
            "--out", str(tmp_path / "all.json")]
    assert cli.run(argv) == 0
    assert solves["n"] == first
    # A mesh rebuilt from another mesh's fields is validated again, and so
    # is one that _replace builds.
    Mesh(*m)
    assert solves["n"] == 2 * first
    m._replace()
    assert solves["n"] == 3 * first
    # Nonconforming partitions cannot be constructed at all.
    with pytest.raises(MeshError, match="hanging node"):
        _hanging_node_mesh()
    with pytest.raises(MeshError, match="folded mesh"):
        Mesh(2, ((0, 0), (1, 0), (0, 1), (Fraction(1, 2), 2)), ((0, 1, 2), (0, 1, 3)))


def _verdicts(dim, vertices, cells) -> tuple[str | None, str | None]:
    """The error, or None, of building a Mesh (the sweep) and of the
    reference scan on the same unvalidated fields."""

    def verdict(check):
        try:
            check()
        except MeshError as exc:
            return str(exc)
        return None

    pts = tuple(tuple(Fraction(x) for x in p) for p in vertices)
    raw = tuple.__new__(Mesh, (dim, pts, tuple(tuple(sorted(c)) for c in cells)))
    return verdict(lambda: Mesh(dim, vertices, cells)), verdict(lambda: scan_validate_mesh(raw))


_BUILTIN_NAMES = (
    "unit_interval_1",
    "unit_interval_5",
    "two_triangles",
    "criss_cross",
    "two_tets",
    "cube_freudenthal",
    "fichera_coarse",
)


@pytest.mark.parametrize("name", [*_BUILTIN_NAMES, *(f"refine({n})" for n in _BUILTIN_NAMES)])
def test_sweep_and_scan_accept_every_builtin_mesh(name):
    m = resolve_mesh(name)
    assert _verdicts(m.dim, m.vertices, m.cells) == (None, None)


def _perturbed(name: str, seed: int, free_vertex: bool):
    """A builtin mesh with its vertices moved by seeded rational offsets of
    up to half the shortest axis step, and, if asked, one more vertex
    at a seeded point of a grid of 16 steps per axis over the mesh's box,
    referenced by no cell: on a grid that fine the point often lands on a
    cell's edge or facet, or on a vertex."""
    m = resolve_mesh(name)
    rng = random.Random(seed)
    step = min(abs(a - b) for p in m.vertices for q in m.vertices for a, b in zip(p, q) if a != b)
    verts = [
        tuple(x + step * Fraction(rng.randint(-3, 3), rng.choice((6, 8, 12))) for x in p)
        for p in m.vertices
    ]
    if free_vertex:
        box = [(min(axis), max(axis)) for axis in zip(*m.vertices)]
        verts.append(tuple(lo + (hi - lo) * Fraction(rng.randint(0, 16), 16) for lo, hi in box))
    return m.dim, verts, m.cells


@pytest.mark.parametrize("free_vertex", [False, True], ids=["moved", "moved_plus_free_vertex"])
@pytest.mark.parametrize("name", ["refine(refine(criss_cross))", "refine(two_tets)", "refine(cube_freudenthal)"])
def test_sweep_and_scan_agree_on_seeded_perturbed_meshes(name, free_vertex):
    verdicts = [_verdicts(*_perturbed(name, seed, free_vertex)) for seed in range(12)]
    for sweep, scan in verdicts:
        assert sweep == scan
    if free_vertex:
        assert any(sweep and sweep.endswith("hanging node") for sweep, _ in verdicts)


def _affine(points, scale, shift):
    """The points moved far into negative coordinates, with a different
    denominator on each axis."""
    return [tuple(Fraction(x) * s + t for x, s, t in zip(p, scale, shift)) for p in points]


_TRIANGLE = [(0, 0), (2, 0), (0, 2)]
_FAR_TRIANGLE = [(2, 0), (2, 2), (0, 2)]
_TET = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
_FAR_TET = [(1, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
_SKEW = ((Fraction(2, 3), Fraction(5, 7)), (Fraction(-9, 5), Fraction(-11, 3)))
_SKEW3 = ((Fraction(2, 3), Fraction(5, 7), Fraction(3, 11)), (Fraction(-9, 5), -4, Fraction(-11, 3)))


@pytest.mark.parametrize(
    "dim, corners, free, skew, expected",
    [
        # On the hypotenuse, inside the box; on the leg x = 0, which is the
        # first-axis start of the sweep window.
        (2, _TRIANGLE, [(1, 1)], _SKEW, "vertex 3 lies inside cell (0, 1, 2): hanging node"),
        (2, _TRIANGLE, [(0, Fraction(1, 3))], _SKEW, "vertex 3 lies inside cell (0, 1, 2): hanging node"),
        (2, _TRIANGLE, [(2, 0)], _SKEW, "two vertices share the same coordinates"),
        # On the legs x = 2 and y = 2, the far ends of the box on each axis.
        (2, _FAR_TRIANGLE, [(2, 1)], _SKEW, "vertex 3 lies inside cell (0, 1, 2): hanging node"),
        (2, _FAR_TRIANGLE, [(1, 2)], _SKEW, "vertex 3 lies inside cell (0, 1, 2): hanging node"),
        # The box corner off the hull, and a point past the window's end.
        (2, _TRIANGLE, [(2, 2)], _SKEW, None),
        (2, _TRIANGLE, [(Fraction(201, 100), 0)], _SKEW, None),
        # Two vertices in one cell, the later index first along the sweep:
        # the error names the lower index.
        (2, _TRIANGLE, [(Fraction(3, 2), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))], _SKEW,
         "vertex 3 lies inside cell (0, 1, 2): hanging node"),
        # On an edge of the tetrahedron, inside a facet off the box's
        # faces, inside the facet z = 0 on the box's face, and at the box's
        # far corner (1, 1, 1), outside the hull.
        (3, _TET, [(Fraction(1, 2), Fraction(1, 2), 0)], _SKEW3,
         "vertex 4 lies inside cell (0, 1, 2, 3): hanging node"),
        (3, _TET, [(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))], _SKEW3,
         "vertex 4 lies inside cell (0, 1, 2, 3): hanging node"),
        (3, _TET, [(Fraction(1, 4), Fraction(1, 5), 0)], _SKEW3,
         "vertex 4 lies inside cell (0, 1, 2, 3): hanging node"),
        (3, _TET, [(1, 1, 1)], _SKEW3, None),
        # Inside the facets x = 1, y = 1 and z = 1, the box's far faces.
        (3, _FAR_TET, [(1, Fraction(3, 4), Fraction(3, 4))], _SKEW3,
         "vertex 4 lies inside cell (0, 1, 2, 3): hanging node"),
        (3, _FAR_TET, [(Fraction(3, 4), 1, Fraction(3, 4))], _SKEW3,
         "vertex 4 lies inside cell (0, 1, 2, 3): hanging node"),
        (3, _FAR_TET, [(Fraction(3, 4), Fraction(3, 4), 1)], _SKEW3,
         "vertex 4 lies inside cell (0, 1, 2, 3): hanging node"),
        (3, _TET, [(1, 1, 0), (0, 1, 1), (Fraction(1, 2), 0, Fraction(1, 2) + Fraction(1, 10**9))], _SKEW3,
         None),
        (1, [(0,), (1,)], [(Fraction(1, 3),)], ((Fraction(3, 7),), (Fraction(-5, 2),)),
         "vertex 2 lies inside cell (0, 1): hanging node"),
    ],
    ids=[
        "on_edge", "on_window_start", "duplicate", "on_window_end", "on_far_y_edge",
        "box_corner", "past_window", "lowest_index", "on_tet_edge", "on_tet_facet",
        "on_box_facet", "tet_box_corner", "on_far_x_facet", "on_far_y_facet",
        "on_far_z_facet", "near_facet", "interval",
    ],
)
def test_sweep_and_scan_agree_on_planted_vertices(dim, corners, free, skew, expected):
    verts = _affine(corners + free, *skew)
    assert all(x < 0 for p in verts for x in p)
    cell = tuple(range(dim + 1))
    assert _verdicts(dim, verts, [cell]) == (expected, expected)


def test_sweep_names_the_first_offending_cell():
    # Two cells of the fine pair each hold a free vertex; the second cell's
    # vertex comes first along the sweep, and has the lower index.
    verts = [(0, 0), (2, 0), (0, 2), (-2, 0), (-2, 2), (-1, Fraction(1, 2)), (1, Fraction(1, 2))]
    cells = [(0, 1, 2), (0, 2, 3), (2, 3, 4)]
    expected = "vertex 6 lies inside cell (0, 1, 2): hanging node"
    assert _verdicts(2, verts, cells) == (expected, expected)


def test_sweep_finds_a_vertex_inside_a_later_class_mate():
    # Gradients are taken once per class, from its first cell; a mate
    # reads them from its own base vertex, so a vertex at its centroid is
    # found in it.
    m = refine(builtin_mesh("cube_freudenthal"))
    victim = len(m.cells) - 1
    assert m.cell_class[victim] < victim
    centroid = tuple(sum(axis) / len(axis) for axis in zip(*(m.vertices[vi] for vi in m.cells[victim])))
    expected = f"vertex {len(m.vertices)} lies inside cell {m.cells[victim]}: hanging node"
    assert _verdicts(3, [*m.vertices, centroid], m.cells) == (expected, expected)


def test_facet_normals_are_computed_once_per_facet():
    # n_F is the one normal of the facet's mesh frame: a primitive integer
    # vector, cached per facet, parallel to each incident cell's element
    # normal, and attached unchanged to either cell's local labels.
    m = builtin_mesh("fichera_coarse")
    for facet in m.sub_simplices(m.dim - 1):
        tangents, normals = m.frame_vectors(facet)
        assert m.frame_vectors(list(facet))[1] is normals
        (normal,) = normals
        assert all(type(x) is int for x in normal) and gcd(*normal) == 1
        assert all(tensors.dot(t, normal) == 0 for t in tangents)
        for ci in m.facet_cells[facet]:
            local = m.local_site(ci, facet)
            assert m.global_frame(ci, local).normals == normals
            (element,) = build_frame(m.cell_simplices[ci], local).normals
            assert linalg.rank([element, normal]) == 1


def test_shared_facet_normal_and_frames_are_cell_independent():
    m = builtin_mesh("two_triangles")
    facet = m.interior_facets[0]
    assert facet == (1, 2)
    assert m.frame_vectors(facet)[1] == ((1, 1),)
    c1, c2 = m.facet_cells[facet]
    f1 = m.global_frame(c1, m.local_site(c1, facet))
    f2 = m.global_frame(c2, m.local_site(c2, facet))
    assert f1.tangents == f2.tangents
    assert f1.normals == f2.normals


@pytest.mark.parametrize("name, family, degree, k, pairs", [
    ("fichera_coarse", Family.TRACELESS, 2, 0, 36),
    ("fichera_coarse", Family.FACE, 2, -1, 36),
    ("refine(criss_cross)", Family.SYMMETRIC, 3, 0, 12),
])
def test_translated_cells_build_equal_dofs(name, family, degree, k, pairs):
    # Every direction comes from a mesh frame, which reads vertex
    # differences only, so a cell's DoFs cannot depend on its neighbours:
    # two cells with equal vertex differences in sorted local order build
    # equal functionals.
    m = builtin_mesh(name)
    space = assemble(m, family, degree, k)
    first: dict[tuple, int] = {}
    compared = 0
    for ci, simplex in enumerate(m.cell_simplices):
        key = tuple(simplex.edge_vector(0, j) for j in range(1, m.dim + 1))
        c0 = first.setdefault(key, ci)
        if c0 != ci:
            compared += 1
            assert space.cell_dofs[ci].functionals == space.cell_dofs[c0].functionals, (m.cells[c0], m.cells[ci])
    assert compared == pairs


def test_cell_certificates_hold_under_the_mesh_shared_frames():
    # Assembly builds each cell's DoFs on the mesh-shared frames, whose
    # normals are a nullspace basis, not the element frame's facet
    # gradients: each cell system must stay unisolvent under them.
    m = builtin_mesh("two_tets")
    assert any(
        m.global_frame(ci, f).normals != build_frame(simplex, f).normals
        for ci, simplex in enumerate(m.cell_simplices)
        for ell in range(m.dim)
        for f in enumerate_subsimplices(m.dim, ell)
    )
    for family, r, k in [(Family.FACE, 2, 1), (Family.TRACELESS, 2, 0), (Family.SYMMETRIC, 3, 0)]:
        space = assemble(m, family, r, k)
        for ci, simplex in enumerate(m.cell_simplices):
            cert = certify_unisolvence(dofs=space.cell_dofs[ci])
            assert cert.status == PASS, (family, ci, cert.witness)
            element = certify_unisolvence(dofs=build_dofs(family, simplex, r, k))
            assert cert.witness["pivot_hash"] != element.witness["pivot_hash"]


def test_local_and_global_site_roundtrip():
    m = builtin_mesh("criss_cross")
    for ci in range(len(m.cells)):
        for ell in range(m.dim):
            for gsite in m.sub_simplices(ell):
                if ci not in m.cells_containing(gsite):
                    continue
                loc = m.local_site(ci, gsite)
                assert m.global_site(ci, loc) == gsite


# ---------------------------------------------------------------- dimensions


def test_assembled_dims_match_displayed_examples():
    m = builtin_mesh("two_triangles")
    assert assemble(m, "face", 2, -1).dim == 21
    assert assemble(m, "face", 3, 0).dim == 34
    assert face_dim_formula(m, 2, -1) == 21
    assert face_dim_formula(m, 3, 0) == 34


def test_lagrange_dimension_formula_across_meshes():
    for name in ["unit_interval_3", "two_triangles", "criss_cross", "two_tets", "cube_freudenthal"]:
        m = builtin_mesh(name)
        for r in (1, 2, 3):
            space = assemble(m, Family.LAGRANGE, r)
            assert space.dim == lagrange_dim_formula(m, r)
            assert check_dims(space).status == PASS


def test_vector_dimension_formula_continuity_sweep():
    m = builtin_mesh("two_tets")
    for k in (-1, 0, 1):
        space = assemble(m, "face", 3, k)
        assert space.dim == face_dim_formula(m, 3, k)
        assert check_dims(space).status == PASS
    # raising the continuity order glues more, so dimensions must not grow
    dims = [assemble(m, "face", 3, k).dim for k in (-1, 0, 1)]
    assert dims == sorted(dims, reverse=True)


def _layout_dim(mesh: Mesh, family: str, degree: int, k: int) -> int:
    """Assembled dimension counted from the reference-cell DoF layout: global
    functionals once per site, facewise ones once per facet, interior ones
    once per cell."""
    n = mesh.dim
    functionals = build_dofs(Family(family), reference_simplex(n), degree, k).functionals
    global_by_dim = Counter(nf.site.dim for nf in functionals if nf.scope == GLOBAL)
    facewise = sum(nf.scope == FACEWISE for nf in functionals)
    interior = sum(nf.scope == INTERIOR for nf in functionals)
    total = len(mesh.cells) * interior
    for ell, count in global_by_dim.items():
        per_site, rest = divmod(count, comb(n + 1, ell + 1))
        assert rest == 0, f"uneven global layout on {ell}-sites"
        total += len(mesh.sub_simplices(ell)) * per_site
    per_facet, rest = divmod(facewise, n + 1)
    assert rest == 0, "uneven facewise layout"
    return total + len(mesh.sub_simplices(n - 1)) * per_facet


@pytest.mark.parametrize(
    "name, family, degree, k, expected",
    [
        ("two_triangles", "traceless", 2, 0, 28),
        ("two_triangles", "symmetric", 4, 0, 78),
        ("criss_cross", "traceless", 3, 0, 83),
        ("criss_cross", "symmetric", 3, 0, 83),
        ("two_tets", "traceless", 2, 0, 127),
        ("two_tets", "symmetric", 3, 1, 189),
        ("two_tets", "symmetric", 4, 0, 357),
    ],
)
def test_matrix_dims_match_reference_layout_count(name, family, degree, k, expected):
    m = builtin_mesh(name)
    assert assemble(m, family, degree, k).dim == _layout_dim(m, family, degree, k) == expected


def test_matrix_dims_reported_without_formula():
    m = builtin_mesh("two_triangles")
    res = check_dims(assemble(m, "traceless", 2, 0))
    assert res.status == PASS
    assert res.witness["formula"] is None
    assert res.witness["assembled"] == 28


# ---------------------------------------------------------------- identification


def test_interior_dofs_stay_cell_private():
    space = assemble(builtin_mesh("criss_cross"), "face", 2, -1)
    owners: dict[int, int] = {}
    for table in space.local_to_global:
        for g in table:
            owners[g] = owners.get(g, 0) + 1
    for g, key in enumerate(space.keys):
        if key[0] == INTERIOR:
            assert owners[g] == 1
        else:
            facet = key[2]
            assert owners[g] == len(space.mesh.cells_containing(facet))


def test_shared_dof_multiplicity_matches_incidence():
    space = assemble(builtin_mesh("two_tets"), "traceless", 2, 0)
    counts: dict[int, int] = {}
    for table in space.local_to_global:
        for g in table:
            counts[g] = counts.get(g, 0) + 1
    for g, key in enumerate(space.keys):
        if key[0] == INTERIOR:
            continue
        owner = key[2] if key[2] is not None else key[1]
        assert counts[g] == len(space.mesh.cells_containing(owner))


def test_scopes_and_interior_split_read_the_key_layout():
    space = assemble(builtin_mesh("two_tets"), "traceless", 2, 0)
    labels = {INTERIOR: "interior", FACEWISE: "facewise", GLOBAL: "shared"}
    assert space.scopes == tuple(labels[key[0]] for key in space.keys)
    assert set(space.scopes) == set(labels.values())
    for ci, (l2g, (inner, outer)) in enumerate(zip(space.local_to_global, space.interior_split)):
        assert sorted(inner + outer) == list(range(len(l2g)))
        assert inner == sorted(inner) and outer == sorted(outer)
        assert [space.keys[l2g[i]] for i in inner] == [(INTERIOR, ci, seq) for seq in range(len(inner))]
        assert all(space.keys[l2g[i]][0] != INTERIOR for i in outer)
    # One column per lattice point and div component on every cell.
    assert space.dim_q == sum(len(space.div_rows(ci)[0][0]) for ci in range(len(space.mesh.cells)))


def test_dual_coefficients_invert_the_dof_matrix():
    space = assemble(builtin_mesh("two_triangles"), "face", 1, -1)
    for ci in range(2):
        mat = dof_matrix(space.cell_dofs[ci], space.cell_basis(ci))
        dual, d = space.dual_coefficients(ci)
        assert space.dual_coefficients(ci) is space._dual_cache[space.classes[ci]][0]
        assert all(type(x) is int for row in dual for x in row)
        assert d > 0 and gcd(d, *(x for row in dual for x in row)) == 1
        n = len(mat)
        rational = rational_rows(mat)
        prod = [
            [sum(rational[i][j] * Fraction(dual[j][k], d) for j in range(n)) for k in range(n)]
            for i in range(n)
        ]
        assert prod == [
            [Fraction(int(i == k)) for k in range(n)] for i in range(n)
        ]


@pytest.mark.parametrize(
    "name,family,degree,k",
    [
        ("criss_cross", "face", 3, 0),
        ("criss_cross", "traceless", 3, 0),
        ("criss_cross", "symmetric", 3, 0),
        ("criss_cross", "lagrange", 3, None),
        ("two_tets", "face", 2, 1),
        ("two_tets", "traceless", 2, 0),
        ("two_tets", "symmetric", 2, 1),
        ("two_tets", "lagrange", 3, None),
    ],
)
def test_site_block_dual_equals_dense_inverse(name, family, degree, k):
    space = assemble(builtin_mesh(name), family, degree, k)
    for ci in range(len(space.mesh.cells)):
        mat = dof_matrix(space.cell_dofs[ci], space.cell_basis(ci))
        dual, d = space.dual_coefficients(ci)
        assert [[Fraction(x, d) for x in row] for row in dual] == rational_rows(linalg.invert(rational_rows(mat)))


def test_each_cell_is_decomposed_once():
    # build_dofs (through bubble_space) and cell_basis must share one cache
    # key: the first cell of each congruence class.
    decompose.cache_clear()
    space = assemble(builtin_mesh("refine(two_tets)"), "traceless", 2, 0)
    for ci in range(len(space.mesh.cells)):
        space.dual_coefficients(ci)
    assert len(space.mesh.cells) == 16
    assert decompose.cache_info().misses == len(set(space.mesh.cell_class)) == 10


def _fresh_dual(m: Mesh, ci: int, family, degree, k):
    """Cell ci's dual built from its own simplex alone, shared by nothing."""
    simplex = m.cell_simplices[ci]
    dofs = build_dofs(family, simplex, degree, k, frames=functools.partial(m.global_frame, ci))
    mat = dof_matrix(dofs, decompose(family, simplex, degree))
    return rational_rows(linalg.invert(rational_rows(mat)))


@pytest.mark.parametrize("order_b, shared", [((0, 1, 2), True), ((2, 1, 0), False), ((1, 2, 0), False)])
@pytest.mark.parametrize("family, degree, k", [(Family.FACE, 2, -1), (Family.SYMMETRIC, 3, 0)])
def test_translates_in_another_local_order_never_share_an_entry(order_b, shared, family, degree, k):
    # Triangle b is triangle a moved by (2, 0); its vertices are numbered
    # in order_b, so its sorted local order is a's only for (0, 1, 2).
    a = [(0, 0), (1, 0), (0, 1)]
    b = [(x + 2, y) for x, y in a]
    m = Mesh(2, a + [b[i] for i in order_b], ((0, 1, 2), (3, 4, 5)))
    space = assemble(m, family, degree, k)
    assembly._build_cell_duals(space)
    assert (m.cell_class[1] == 0) is shared
    assert (space.cell_dofs[1].functionals is space.cell_dofs[0].functionals) is shared
    assert space.classes == ((0, 0) if shared else (0, 1))
    assert sorted(space._dual_cache) == sorted(set(space.classes))
    fresh = [_fresh_dual(m, ci, family, degree, k) for ci in range(2)]
    # Sharing across another local order would be wrong: the duals differ.
    assert (fresh[0] == fresh[1]) is shared
    for ci in range(2):
        dual, d = space.dual_coefficients(ci)
        assert [[Fraction(x, d) for x in row] for row in dual] == fresh[ci]


@pytest.mark.parametrize(
    "facet, victim, victim_first", [((0, 3), 4, True), ((3, 6), 6, False)], ids=["first_of_its_class", "later_in_its_class"]
)
def test_a_flipped_cell_gets_an_entry_of_its_own(facet, victim, victim_first):
    # The victim's functionals differ from its class's, so it is a class of
    # its own; its class-mates keep one class and one entry, the unbroken
    # one, under the first of them: when the victim was the first cell of
    # the class, the mates elect a new one.
    m = builtin_mesh("refine(criss_cross)")
    assert len(m.cells) == 16 and len(set(m.cell_class)) == 4
    assert max(m.facet_cells[facet]) == victim and (m.cell_class[victim] == victim) is victim_first
    space = assemble(m, "symmetric", 3, 0)
    broken = flip_facet_orientation(space, facet)
    res = check_conformity(broken)
    assert res.status == FAIL
    assert facet in {tuple(v["site"]) for v in res.witness["violations"]}
    assert len(res.witness["violations"]) == 6
    assert check_conformity(space).status == PASS
    assert space.classes == m.cell_class
    mates = [ci for ci, first in enumerate(m.cell_class) if first == m.cell_class[victim] and ci != victim]
    assert len(mates) == 3
    assert broken.classes[victim] == victim
    assert all(broken.classes[ci] == mates[0] for ci in mates)
    assert [c for ci, c in enumerate(broken.classes) if ci not in mates and ci != victim] == [
        c for ci, c in enumerate(m.cell_class) if ci not in mates and ci != victim
    ]
    assert sorted(broken._dual_cache) == sorted(set(broken.classes))
    assert len(broken._dual_cache) == len(set(m.cell_class)) + 1
    assert broken._dual_cache[victim] != broken._dual_cache[mates[0]]
    assert broken._dual_cache[mates[0]] == space._dual_cache[m.cell_class[victim]]
    layout, _ = assembly._float_inputs(broken)
    assert len(layout[4]) == len(set(m.cell_class)) + 1


def test_a_flipped_space_decomposes_no_cell_again(monkeypatch):
    # A decomposition depends on geometry alone, so cell_basis decomposes
    # the first cell of each congruence class, even where classes splits
    # one: with cell 4, the first of its class, flipped, its mates elect
    # cell 5 and reuse cell 4's decomposition.  On one CPU, so that every
    # decompose runs in this process.
    monkeypatch.setattr(assembly.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    space = assemble(builtin_mesh("refine(criss_cross)"), "symmetric", 3, 0)
    assert check_conformity(space).status == PASS
    broken = flip_facet_orientation(space, (0, 3))
    assert broken.classes[5] == 5 and broken.mesh.cell_class[5] == 4
    misses = decompose.cache_info().misses
    assert check_conformity(broken).status == FAIL
    assert decompose.cache_info().misses == misses


def test_a_planted_div_cut_reaches_every_cell_of_its_class():
    # An entry planted on a class stands for every cell of the class: a
    # target column cut from it is cut from each cell's column block.
    space = assemble(builtin_mesh("refine(two_tets)"), "traceless", 2, 0)
    m = space.mesh
    assembly._build_cell_duals(space)
    assert len(space._dual_cache) == len(set(space.classes)) == 10
    first = max(set(space.classes), key=space.classes.count)
    size = space.classes.count(first)
    assert size == 4
    entry = space._dual_cache[first]
    _zero_div_columns(space, first, {0})
    assert space._dual_cache[first] is not entry and len(space._dual_cache) == 10
    res = check_div_onto(space)
    assert res.witness["rank"] == dense_div_onto_rank(space) == space.dim_q - size
    layout, _ = assembly._float_inputs(space)
    assert len(layout[4]) == len(set(m.cell_class))


def _with_cell_functionals(space, cell_index, functionals) -> GlobalSpace:
    cell_dofs = list(space.cell_dofs)
    cell_dofs[cell_index] = cell_dofs[cell_index]._replace(functionals=tuple(functionals))
    return GlobalSpace(
        space.mesh,
        space.family,
        space.degree,
        space.continuity_order,
        tuple(cell_dofs),
        space.local_to_global,
        space.keys,
    )


def test_dual_rejects_a_functional_planted_above_the_site_blocks():
    space = assemble(builtin_mesh("criss_cross"), "face", 2, -1)
    functionals = list(space.cell_dofs[0].functionals)
    basis = space.cell_basis(0)
    i, nf = next((i, nf) for i, nf in enumerate(functionals) if nf.site.dim == 1)
    tangential = next(
        m for m in basis.members
        if m.provenance.sub_simplex == nf.site and m.provenance.component == "tangential"
    )
    functionals[i] = nf._replace(terms=(DoFTerm(nf.terms[0].weight, tangential.coeff),))
    broken = _with_cell_functionals(space, 0, functionals)
    label = "f" + "".join(map(str, nf.site.indices))
    with pytest.raises(AssemblyError, match=f"functional at {label} does not annihilate member block interior"):
        broken.dual_coefficients(0)


def test_dual_rejects_a_singular_site_block():
    space = assemble(builtin_mesh("criss_cross"), "face", 2, -1)
    functionals = list(space.cell_dofs[0].functionals)
    assert functionals[0].site == functionals[1].site
    functionals[1] = functionals[0]
    broken = _with_cell_functionals(space, 0, functionals)
    with pytest.raises(AssemblyError, match="singular DoF matrix: diagonal block f0 of size 2 is singular"):
        broken.dual_coefficients(0)


def test_assemble_validates_the_mesh():
    # assemble takes a Mesh, which is validated when it is built, so the
    # hanging-node mesh never reaches it.
    with pytest.raises(MeshError):
        assemble(_hanging_node_mesh(), "face", 1, -1)


# ---------------------------------------------------------------- conformity


# (mesh, family, degree, k, (traces_compared, extra_sites) with samples=1)
BASE_CASES = [
    ("two_triangles", "lagrange", 2, None, (9, 0)),
    ("two_triangles", "face", 2, -1, (21, 0)),
    ("two_triangles", "face", 3, 0, (34, 2)),
    ("two_triangles", "traceless", 2, 0, (28, 2)),
    ("two_triangles", "symmetric", 3, 0, (50, 3)),
    ("criss_cross", "face", 2, -1, (84, 0)),
    ("criss_cross", "symmetric", 3, 0, (200, 9)),
    ("two_tets", "lagrange", 2, None, (14, 0)),
    ("two_tets", "face", 2, 0, (48, 3)),
    ("two_tets", "traceless", 2, 0, (127, 3)),
    ("two_tets", "symmetric", 2, 1, (87, 7)),
    ("cube_freudenthal", "face", 2, -1, (324, 0)),
]


@pytest.mark.parametrize(
    "name,family,degree,k,counts", BASE_CASES, ids=["-".join(map(str, case[:4])) for case in BASE_CASES]
)
def test_conformity_exact_on_base_meshes(name, family, degree, k, counts):
    space = assemble(builtin_mesh(name), family, degree, k)
    res = check_conformity(space, samples=1)
    assert res.status == PASS, res.witness["violations"][:3]
    assert res.witness["violations"] == []
    assert res.witness["interior_facets"] == len(space.mesh.interior_facets)
    assert res.witness["sample_points"] == res.witness["interior_facets"]
    assert (res.witness["traces_compared"], res.witness["extra_sites"]) == counts
    if family in ("traceless", "symmetric") or (family == "face" and k >= 0):
        assert res.witness["extra_sites"] > 0


def test_conformity_exact_on_refined_two_triangles():
    fine = refine(builtin_mesh("two_triangles"))
    for family, degree, k in [("face", 2, -1), ("traceless", 2, 0), ("symmetric", 3, 0)]:
        res = check_conformity(assemble(fine, family, degree, k), samples=1)
        assert res.status == PASS


def test_flipped_facet_is_detected():
    m = builtin_mesh("two_triangles")
    for family, degree, k in [("face", 2, -1), ("traceless", 2, 0), ("symmetric", 3, 0)]:
        space = assemble(m, family, degree, k)
        broken = flip_facet_orientation(space)
        res = check_conformity(broken, samples=1)
        assert res.status == FAIL
        assert res.witness["violations"]
        flagged = {tuple(v["site"]) for v in res.witness["violations"]}
        assert tuple(m.interior_facets[0]) in flagged


def _plain_violations(space: GlobalSpace, samples: int, seed: int) -> list[dict]:
    """check_conformity's violation list, every row of every global DoF of
    the cells at a site compared entry by entry by cross-multiplication and
    every sample point evaluated in Fractions; a DoF that a cell's map of
    nonzero rows leaves out has a zero row there."""
    rng = random.Random(seed)
    out = []
    for kind, site, contraction in assembly._statements(space):
        cells = space.mesh.cells_containing(site)
        ids = sorted(set().union(*(space.local_to_global[c] for c in cells)))
        sparse = assembly._shared_site_rows(space, site, contraction, {})
        (width,) = {len(row) for rows, _ in sparse for row in rows.values()}
        per_cell = [([rows.get(g, [0] * width) for g in ids], den) for rows, den in sparse]
        (rows_a, d_a), *others = per_cell
        for rows_b, d_b in others:
            for g, a, b in zip(ids, rows_a, rows_b):
                differ = [e for e, (x, y) in enumerate(zip(a, b)) if x * d_b != y * d_a]
                if differ:
                    e = differ[0]
                    delta = Fraction(a[e], d_a) - Fraction(b[e], d_b)
                    out.append({"check": kind, "site": list(site), "global_index": g, "coefficient": e, "delta": str(delta)})
        if kind != "normal_trace":
            continue
        (rows_a, d_a), (rows_b, d_b) = per_cell
        lattice = bn.lattice(len(site), space.degree)
        width = len(rows_a[0]) // len(lattice)
        for _ in range(samples):
            weights = [rng.randint(1, 997) for _ in site]
            monomials = [prod(w**e for w, e in zip(weights, alpha)) for alpha in lattice]

            def value(row, den):
                return [sum(Fraction(row[i * width + w], den) * m for i, m in enumerate(monomials)) for w in range(width)]

            for g, a, b in zip(ids, rows_a, rows_b):
                if value(a, d_a) != value(b, d_b):
                    out.append({"check": "normal_trace_sample", "site": list(site), "global_index": g, "coefficient": -1, "delta": "point mismatch"})
    return out


@pytest.mark.parametrize(
    "name,family,degree,k",
    [
        ("two_triangles", "face", 2, -1),
        ("two_triangles", "traceless", 2, 0),
        ("two_triangles", "symmetric", 3, 0),
        ("two_tets", "face", 2, -1),
        ("refine(two_tets)", "traceless", 2, 0),
    ],
)
def test_conformity_violations_match_plain_cross_multiplication(name, family, degree, k):
    space = assemble(resolve_mesh(name), family, degree, k)
    for candidate, broken in ((space, False), (flip_facet_orientation(space), True)):
        res = check_conformity(candidate, samples=2, seed=3)
        assert res.witness["violations"] == _plain_violations(candidate, 2, 3)
        assert bool(res.witness["violations"]) == broken


def test_cell_rows_combine_member_rows_through_the_dual():
    space = assemble(builtin_mesh("criss_cross"), "symmetric", 3, 0)
    for ci in range(len(space.mesh.cells)):
        dual, d = space.dual_coefficients(ci)
        div_rows, d_div = space.div_rows(ci)
        ints, den = assembly.cell_rows(space, ci, dict(enumerate(div_rows)), d_div)
        for i, row in enumerate(ints):
            expected = [
                sum(Fraction(dual[j][i], d) * Fraction(r[a], d_div) for j, r in enumerate(div_rows))
                for a in range(len(row))
            ]
            assert [Fraction(x, den) for x in row] == expected
        # the members left out are those whose sub-simplex is not in the
        # site, and their rows are zero there
        basis = space.cell_basis(ci)
        for site in enumerate_subsimplices(2, 1):
            kept, d_kept = site_rows(basis, site, tensors.FLATTEN)
            assert set(kept) == {
                j for j, m in enumerate(basis.members) if site.contains(m.provenance.sub_simplex)
            }
            zero = [0] * len(next(iter(kept.values())))
            rows = {j: kept.get(j, zero) for j in range(len(basis.members))}
            full, d_full = assembly.cell_rows(space, ci, rows, d_kept)
            assert any(map(any, full))
            assert assembly.cell_rows(space, ci, kept, d_kept) == (full, d_full)


def test_row_kernels_build_no_fractions_once_the_duals_are_cached(monkeypatch):
    # Div rows and shared site rows are integer work over per-cell
    # geometry, bases, duals and statements that are already built; a
    # Fraction made here would mean rational arithmetic came back into a
    # row kernel.
    space = assemble(builtin_mesh("two_tets"), "traceless", 2, 0)
    for ci in range(len(space.mesh.cells)):
        space.dual_coefficients(ci)
    statements = assembly._statements(space)
    built = Counter()
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built["Fraction"] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    # The cached div rows were built with the duals; build them again here.
    cells = range(len(space.mesh.cells))
    rebuilt = [div_rows(space.cell_basis(ci), space.mesh.cell_simplices[ci]) for ci in cells]
    for _, site, contraction in statements:
        assembly._shared_site_rows(space, site, contraction, {})
    monkeypatch.undo()
    assert rebuilt == [space.div_rows(ci) for ci in cells]
    assert {kind for kind, _, _ in statements} == {"normal_trace", "value_at_vertex"}
    assert built["Fraction"] == 0


def test_site_block_inverse_builds_no_fractions(monkeypatch):
    # Built DoF matrices and the inverses of their site blocks are integer
    # rows over per-row denominators, which the block inverse reads
    # directly: a Fraction made here would mean a rational round trip.
    systems = []
    for name, family, degree, k in [
        ("two_tets", "traceless", 2, 0),
        ("two_tets", "symmetric", 2, 1),
        ("criss_cross", "face", 3, 0),
    ]:
        space = assemble(builtin_mesh(name), family, degree, k)
        for ci in range(len(space.mesh.cells)):
            dofs, basis = space.cell_dofs[ci], space.cell_basis(ci)
            mat = dof_matrix(dofs, basis)
            systems.append((mat, site_blocks(dofs, basis, mat)))
    built = Counter()
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built["Fraction"] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    inverses = [linalg.invert_block_lower(mat, blocks) for mat, blocks in systems]
    monkeypatch.undo()
    assert built["Fraction"] == 0
    assert len(inverses) == 8 and all(d > 0 for _, d in inverses)


def _flip_shared_functional(space: GlobalSpace, site: tuple[int, ...]) -> GlobalSpace:
    """Negate the direction of the first global functional at a shared site
    in one cell, keeping the identification table."""
    mesh = space.mesh
    victim = max(mesh.cells_containing(site))
    functionals = list(space.cell_dofs[victim].functionals)
    i = next(
        i for i, nf in enumerate(functionals)
        if nf.scope == GLOBAL and mesh.global_site(victim, nf.site) == site
    )
    (term,) = functionals[i].terms
    functionals[i] = functionals[i]._replace(
        terms=(DoFTerm(term.weight, assembly._negate_direction(term.direction)),)
    )
    cell_dofs = list(space.cell_dofs)
    cell_dofs[victim] = cell_dofs[victim]._replace(functionals=tuple(functionals))
    # _replace builds a new space, with empty dual and div caches.
    return space._replace(cell_dofs=tuple(cell_dofs))


@pytest.mark.parametrize(
    "name,family,degree,k,site,kind",
    [
        ("two_triangles", "face", 3, 0, (1,), "value_at_vertex"),
        ("two_tets", "face", 2, 1, (1, 2), "normal_component"),
        ("two_tets", "symmetric", 2, 1, (1, 2), "normal_component"),
        ("two_triangles", "symmetric", 3, 0, (1, 2), "normal_normal"),
    ],
    ids=["two_triangles-face-3-0", "two_tets-face-2-1", "two_tets-symmetric-2-1", "two_triangles-symmetric-3-0"],
)
def test_flipped_shared_functional_is_detected(name, family, degree, k, site, kind):
    space = assemble(builtin_mesh(name), family, degree, k)
    assert len(space.mesh.cells_containing(site)) == 2
    res = check_conformity(_flip_shared_functional(space, site), samples=1)
    assert res.status == FAIL
    assert (kind, site) in {(v["check"], tuple(v["site"])) for v in res.witness["violations"]}


def test_flip_rejects_scalar_family_and_boundary_only_meshes():
    space = assemble(builtin_mesh("two_triangles"), "lagrange", 2)
    with pytest.raises(ValueError):
        flip_facet_orientation(space)


# ---------------------------------------------------------------- div image


def test_div_onto_at_threshold_degrees():
    m = builtin_mesh("two_triangles")
    for family, degree, k in [("face", 2, -1), ("face", 2, 0), ("traceless", 2, 0), ("symmetric", 3, 0)]:
        res = check_div_onto(assemble(m, family, degree, k))
        assert res.status == PASS
        assert res.witness["deficit"] == 0


def _plant_div_rows(space: GlobalSpace, cell: int, rows, den: int) -> None:
    """Plant the cache entry of the cell's class with its true dual and the
    given div rows, so every later reader of div_rows on the class sees
    them."""
    space._dual_cache[space.classes[cell]] = space.dual_coefficients(cell), (rows, den)


def _zero_div_columns(space: GlobalSpace, cell: int, columns) -> None:
    """Zero target columns of the member div rows of one cell's class in
    the space's cache."""
    rows, den = space.div_rows(cell)
    _plant_div_rows(space, cell, [[0 if j in columns else x for j, x in enumerate(row)] for row in rows], den)


def _zero_div_members(space: GlobalSpace, cell: int, members) -> None:
    rows, den = space.div_rows(cell)
    _plant_div_rows(space, cell, [[0] * len(row) if j in members else row for j, row in enumerate(rows)], den)


def test_div_onto_rank_drops_by_one_per_zeroed_target_column():
    space = assemble(builtin_mesh("two_tets"), "traceless", 2, 0)
    res = check_div_onto(space)
    assert res.status == PASS
    rows = dense_div_onto_rows(space)
    assert linalg.rank(rows) == res.witness["rank"] == res.witness["dim_q"] == len(rows[0])
    qdim_cell = len(rows[0]) // len(space.mesh.cells)
    for col in range(len(rows[0])):
        cut = [row[:col] + [0] + row[col + 1:] for row in rows]
        assert linalg.rank(cut) == res.witness["rank"] - 1, col
        # The same cut made in the cell's div rows, read by the cellwise rank.
        zeroed = assemble(builtin_mesh("two_tets"), "traceless", 2, 0)
        _zero_div_columns(zeroed, col // qdim_cell, {col % qdim_cell})
        assert check_div_onto(zeroed).witness["deficit"] == 1, col


DIV_ONTO_CASES = [
    # (mesh, family, degree, k): at and below each family's degree threshold.
    ("unit_interval_3", "face", 1, -1),
    ("unit_interval_3", "face", 2, -1),
    ("two_triangles", "face", 1, -1),
    ("two_triangles", "face", 2, 0),
    ("two_triangles", "traceless", 2, 0),
    ("two_triangles", "symmetric", 2, 0),
    ("two_triangles", "symmetric", 3, 0),
    ("criss_cross", "face", 2, -1),
    ("criss_cross", "traceless", 3, 0),
    ("criss_cross", "symmetric", 3, 0),
    ("two_tets", "face", 1, -1),
    ("two_tets", "face", 2, 0),
    ("two_tets", "traceless", 2, 0),
    ("two_tets", "symmetric", 3, 1),
    ("cube_freudenthal", "face", 1, -1),
    ("cube_freudenthal", "traceless", 2, 0),
    ("cube_freudenthal", "symmetric", 2, 0),
]


@pytest.mark.parametrize("name,family,degree,k", DIV_ONTO_CASES, ids=["-".join(map(str, c)) for c in DIV_ONTO_CASES])
def test_div_onto_matches_the_dense_rank(name, family, degree, k):
    space = assemble(builtin_mesh(name), family, degree, k)
    if family == "face" and degree == 1:
        # No interior DoF: every cell's interior kernel is its whole block.
        assert not any(key[0] == INTERIOR for key in space.keys)
    res = check_div_onto(space)
    assert res.witness["rank"] == dense_div_onto_rank(space)
    assert res.status == (SKIPPED if degree < res.witness["degree_threshold"] else PASS)
    # Seeded cuts: 1-2 target columns zeroed in 1-2 cells' div rows.
    rng = random.Random(f"{name}-{family}-{degree}-{k}")
    for cell in rng.sample(range(len(space.mesh.cells)), min(2, len(space.mesh.cells))):
        width = len(space.div_rows(cell)[0][0])
        _zero_div_columns(space, cell, set(rng.sample(range(width), min(2, width))))
    cut = check_div_onto(space)
    assert cut.witness["rank"] == dense_div_onto_rank(space)
    assert cut.witness["deficit"] > 0


def test_div_onto_fails_when_one_cell_keeps_only_its_bubbles():
    space = assemble(builtin_mesh("two_tets"), "traceless", 2, 0)
    members = space.cell_basis(0).members
    bubbles = {j for j, m in enumerate(members) if m.provenance.component == "tangential"}
    assert len(bubbles) == 12
    # One bubble's div row zeroed: the remaining functions make up for it.
    _zero_div_members(space, 0, {min(bubbles)})
    res = check_div_onto(space)
    assert res.status == PASS
    assert res.witness["rank"] == dense_div_onto_rank(space) == 24
    # Every other member's div row zeroed: the bubbles' div image on the
    # cell misses the rigid (RT) fields, 4 dimensions in 3D.
    space = assemble(builtin_mesh("two_tets"), "traceless", 2, 0)
    _zero_div_members(space, 0, set(range(len(members))) - bubbles)
    res = check_div_onto(space)
    assert res.status == FAIL
    assert res.witness["deficit"] == res.witness["dim_q"] - dense_div_onto_rank(space) == 4


def test_div_onto_below_threshold_is_recorded_not_asserted():
    res = check_div_onto(assemble(builtin_mesh("two_triangles"), "symmetric", 2, 0))
    assert res.status == SKIPPED
    assert res.witness["degree_threshold"] == 3
    assert res.witness["rank"] <= res.witness["dim_q"]


def test_div_checks_reject_scalar_family():
    space = assemble(builtin_mesh("two_triangles"), "lagrange", 1)
    with pytest.raises(ValueError):
        check_div_onto(space)
    with pytest.raises(ValueError):
        infsup_constant(space)


# ---------------------------------------------------------------- inf-sup


def test_infsup_constant_positive_without_kernel():
    space = assemble(builtin_mesh("two_triangles"), "face", 2, -1)
    res = infsup_constant(space)
    assert res.status == PASS
    assert 0.5 < res.witness["beta"] <= 1.0
    assert res.witness["discarded_modes"] == 0


# beta recorded from the unreduced pencil: the dense target mass matrix and a
# generalized symmetric eigensolver.  The Cholesky reduction is exact algebra,
# so only rounding may move it.
UNREDUCED_BETA = [
    ("two_triangles", "face", 2, -1, False, 0.9805806756909203),
    ("two_triangles", "symmetric", 2, 0, False, 0.9722777449355713),
    ("criss_cross", "symmetric", 3, 0, False, 0.9672890050809878),
    ("two_tets", "traceless", 2, 0, True, 0.9900896529189374),
]


@pytest.mark.parametrize(
    "name,family,degree,k,refined,beta",
    UNREDUCED_BETA,
    ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}{'-refined' if c[4] else ''}" for c in UNREDUCED_BETA],
)
def test_infsup_beta_matches_the_unreduced_pencil(name, family, degree, k, refined, beta):
    mesh = builtin_mesh(name)
    res = infsup_constant(assemble(refine(mesh) if refined else mesh, family, degree, k))
    assert res.witness["discarded_modes"] == 0
    assert res.witness["beta"] == pytest.approx(beta, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "name,family,degree,k,refined",
    [c[:5] for c in UNREDUCED_BETA] + [("cube_freudenthal", "traceless", 2, 0, True)],
    ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}{'-refined' if c[4] else ''}" for c in UNREDUCED_BETA]
    + ["cube_freudenthal-traceless-2-0-refined"],
)
def test_infsup_condensed_solve_matches_the_dense_pencil(name, family, degree, k, refined):
    mesh = builtin_mesh(name)
    space = assemble(refine(mesh) if refined else mesh, family, degree, k)
    beta, discarded = dense_infsup(space)
    res = infsup_constant(space)
    assert res.witness["discarded_modes"] == discarded == 0
    assert res.witness["beta"] == pytest.approx(beta, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "name,family,degree,k",
    [("criss_cross", "face", 2, -1), ("refine(two_tets)", "traceless", 2, 0), ("two_triangles", "symmetric", 3, 0)],
    ids=["criss_cross-face-2--1", "refine_two_tets-traceless-2-0", "two_triangles-symmetric-3-0"],
)
def test_float_records_carry_the_fraction_member_coefficients(name, family, degree, k):
    # The records read each member's coefficient from the basis's integer
    # table by its id; the reference reads every member's Fractions.
    # Each cell reads its class's record, which must carry the members of
    # the cell's own decomposition.
    space = assemble(resolve_mesh(name), family, degree, k)
    layout, records = assembly._float_inputs(space)
    records = list(records)
    assert len(records) == len(layout[4]) == len(set(space.mesh.cell_class))
    assert len(layout[3]) == len(space.mesh.cells)
    for ci, simplex in enumerate(space.mesh.cell_simplices):
        _, betas, coefficients, _, _ = records[layout[3][ci]]
        members = decompose(space.family, simplex, space.degree).members
        assert betas == [m.beta for m in members]
        assert coefficients == member_coefficients(members), ci


@pytest.mark.parametrize(
    "name,family,degree,k",
    [("criss_cross", "face", 2, -1), ("two_tets", "traceless", 2, 0), ("refine(two_tets)", "traceless", 2, 0)],
)
def test_cell_pencils_are_the_local_products_in_interior_first_order(name, family, degree, k):
    # One pencil per class, read by each cell through its class index.
    # Reordering indexes the finished products, so every entry is the one
    # the cell's own local order gives, bit for bit.  refine(two_tets) has
    # 10 classes for 16 cells.
    import numpy as np

    space = assemble(resolve_mesh(name), family, degree, k)
    layout, records = assembly._float_inputs(space)
    of_class = layout[3]
    masses, couplings = assembly._cell_pencils(layout, records)
    assert masses.shape[0] == couplings.shape[0] == len(set(space.classes)) == max(of_class) + 1
    for ci, (inner, outer) in enumerate(space.interior_split):
        mass, coupling = cell_pencil(space, ci)
        order = inner + outer
        assert np.array_equal(masses[of_class[ci]], mass[np.ix_(order, order)])
        assert np.array_equal(couplings[of_class[ci]], coupling[:, order])


def test_condensation_runs_once_per_class():
    space = assemble(refine(builtin_mesh("cube_freudenthal")), "traceless", 2, 0)
    rows, of_class, sigma, c_hat, diag_blocks = assembly._condense_cells(*assembly._float_inputs(space))
    assert len(rows) == len(of_class) == 48
    assert len(sigma) == len(c_hat) == len(diag_blocks) == 6
    assert sorted(set(of_class.tolist())) == list(range(6))


@pytest.mark.parametrize(
    "name,family,degree,k", [("refine(two_tets)", "traceless", 2, 0), ("refine(criss_cross)", "symmetric", 3, 0)]
)
def test_class_condensation_is_the_per_cell_condensation_bit_for_bit(name, family, degree, k):
    # Each class goes through the numpy operations that each of its cells
    # went through alone, on equal inputs, so the blocks are equal exactly.
    import numpy as np

    space = assemble(resolve_mesh(name), family, degree, k)
    _, of_class, *blocks = assembly._condense_cells(*assembly._float_inputs(space))
    assert len(set(of_class.tolist())) < len(of_class)
    for block, reference in zip(blocks, condensed_cells(space), strict=True):
        assert np.array_equal(block[of_class], reference)


@pytest.mark.parametrize(
    "name,family,degree,k",
    [("two_triangles", "face", 2, -1), ("refine(two_tets)", "traceless", 2, 0)],
)
@pytest.mark.parametrize("victim", [0, 1])
def test_infsup_fails_with_an_error_on_a_singular_mass_matrix(monkeypatch, name, family, degree, k, victim):
    # Without its value Gram matrix, cell `victim` contributes only the div
    # Gram matrix, so V is singular on the div-free fields.
    true_pairs = assembly._coeff_pair_matrix
    calls = []

    def zeroed(members):
        calls.append(None)
        pairs = true_pairs(members)
        return pairs * 0 if len(calls) == victim + 1 else pairs

    monkeypatch.setattr(assembly, "_coeff_pair_matrix", zeroed)
    res = infsup_constant(assemble(resolve_mesh(name), family, degree, k))
    assert res.status == FAIL
    assert set(res.witness) == {"error"}
    assert res.witness["error"].startswith("singular mass matrix")


def test_infsup_orders_shared_dofs_for_a_narrow_envelope():
    space = assemble(refine(builtin_mesh("cube_freudenthal")), "traceless", 2, 0)
    cell_dofs = [
        [g for g in l2g if space.keys[g][0] != INTERIOR] for l2g in space.local_to_global
    ]
    compact = {g: i for i, g in enumerate(sorted({g for dofs in cell_dofs for g in dofs}))}
    cell_dofs = [[compact[g] for g in dofs] for dofs in cell_dofs]
    order = assembly._reverse_cuthill_mckee(cell_dofs, len(compact))
    assert sorted(order) == list(range(len(compact)))
    rank = {g: i for i, g in enumerate(order)}

    def profile(position):
        first = {}
        for dofs in cell_dofs:
            lo = min(position[g] for g in dofs)
            for g in dofs:
                first[position[g]] = min(first.get(position[g], lo), lo)
        return sum(i - f for i, f in first.items())

    assert profile(rank) < profile({g: g for g in compact.values()}) / 2


@pytest.mark.parametrize("cut", [1, 2])
@pytest.mark.parametrize(
    "name,family,degree,k",
    [("two_triangles", "face", 2, -1), ("two_tets", "traceless", 2, 0)],
    ids=["two_triangles-face-2--1", "two_tets-traceless-2-0"],
)
def test_infsup_discards_one_kernel_mode_per_zeroed_target_column(name, family, degree, k, cut):
    space = assemble(builtin_mesh(name), family, degree, k)
    assert infsup_constant(space).witness["discarded_modes"] == 0
    # Cell 0's div image misses its first `cut` target coordinates, so the
    # coupling loses `cut` ranks and the pencil gains `cut` zero eigenvalues.
    rows, den = space.div_rows(0)
    _plant_div_rows(space, 0, [[0] * cut + row[cut:] for row in rows], den)
    res = infsup_constant(space)
    assert res.status == FAIL
    beta, discarded = dense_infsup(space)
    assert res.witness["discarded_modes"] == discarded == cut
    assert res.witness["beta"] == pytest.approx(beta, rel=1e-12, abs=0)


def test_infsup_sweep_two_levels():
    base = builtin_mesh("two_triangles")
    res = infsup_sweep([base, refine(base)], "face", 2, -1)
    assert res.status == PASS
    assert len(res.witness["betas"]) == 2
    assert all(b > 0 for b in res.witness["betas"])
    assert res.witness["drift"] < 0.2


def test_infsup_sweep_below_threshold_is_skipped():
    base = builtin_mesh("two_triangles")
    res = infsup_sweep([base, refine(base)], "symmetric", 2, 0)
    assert res.status == SKIPPED
    assert all(b > 0 for b in res.witness["betas"])
