"""Metamorphic invariance: relabelled, affinely mapped meshes certify alike.

A vertex relabelling and an invertible rational affine map change every
coordinate, every sorted cell tuple and every frame vector, yet the assembled
dimension, the dimension and div-onto witnesses, the conformity verdict and
the unisolvence certificate of a cell must come out the same.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdiv_geodecomp import linalg
from hdiv_geodecomp.assembly import assemble, check_conformity, check_dims, check_div_onto
from hdiv_geodecomp.dofs import certify_unisolvence
from hdiv_geodecomp.mesh import Mesh, builtin_mesh
from hdiv_geodecomp.spaces import Family

# (mesh, family, degree, k): one vector and one matrix family per dimension,
# each at a degree where div-onto is claimed rather than skipped.
CASES = [
    ("two_triangles", Family.TRACELESS, 2, 0),
    ("criss_cross", Family.SYMMETRIC, 3, 0),
    ("two_tets", Family.FACE, 2, 0),
]

_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def relabelled_affine_image(draw, name):
    """A builtin mesh under a vertex permutation and a rational affine map."""
    mesh = builtin_mesh(name)
    n = mesh.dim
    matrix = draw(
        st.lists(st.lists(_small, min_size=n, max_size=n), min_size=n, max_size=n).filter(
            lambda a: linalg.det(a) != 0
        )
    )
    offset = draw(st.lists(_small, min_size=n, max_size=n))
    perm = draw(st.permutations(range(len(mesh.vertices))))
    vertices = [None] * len(mesh.vertices)
    for old, point in enumerate(mesh.vertices):
        vertices[perm[old]] = tuple(
            sum((a * x for a, x in zip(row, point)), Fraction(0)) + b
            for row, b in zip(matrix, offset)
        )
    cells = [tuple(perm[i] for i in cell) for cell in mesh.cells]
    return Mesh(n, vertices, cells), perm


def _invariants(mesh, family, degree, k, cell_index):
    space = assemble(mesh, family, degree, k)
    cert = certify_unisolvence(family, mesh.cell_simplices[cell_index], degree, k)
    return {
        "dim": space.dim,
        "dims": check_dims(space).witness,
        "div_onto": check_div_onto(space).witness,
        "conformity": check_conformity(space).status,
        "unisolvence": cert.status,
        "block_sizes": cert.witness["block_sizes"],
    }


@cache
def _reference(name, family, degree, k):
    return _invariants(builtin_mesh(name), family, degree, k, 0)


@pytest.mark.parametrize("name,family,degree,k", CASES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_certificates_invariant_under_relabelling_and_affine_maps(name, family, degree, k, data):
    mesh, perm = data.draw(relabelled_affine_image(name))
    # The mapped copy of cell 0, wherever sorting placed it.
    moved = tuple(sorted(perm[i] for i in builtin_mesh(name).cells[0]))
    got = _invariants(mesh, family, degree, k, mesh.cells.index(moved))
    assert got == _reference(name, family, degree, k)
