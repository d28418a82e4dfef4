"""Sub-simplex enumeration, barycentric gradients, and frame orthogonality."""

from __future__ import annotations

import random
from dataclasses import make_dataclass
from fractions import Fraction
from math import comb

import pytest

from hdiv_geodecomp import bernstein as bn
from hdiv_geodecomp import linalg
from hdiv_geodecomp.dofs import build_dofs
from hdiv_geodecomp.simplex import (
    Simplex,
    SingularGeometryError,
    SubSimplexId,
    barycentric_gradients,
    build_frame,
    dot,
    enumerate_subsimplices,
    reference_simplex,
)
from hdiv_geodecomp.spaces import decompose
from hdiv_geodecomp.tensors import Family

from conftest import random_simplex


def test_enumerate_edges_of_triangle():
    got = [f.indices for f in enumerate_subsimplices(2, 1)]
    assert got == [(0, 1), (0, 2), (1, 2)]


def test_enumerate_vertices_of_tet():
    got = [f.indices for f in enumerate_subsimplices(3, 0)]
    assert got == [(0,), (1,), (2,), (3,)]


def test_enumerate_counts():
    assert len(enumerate_subsimplices(3, 2)) == 4
    for n in range(1, 5):
        for ell in range(n + 1):
            assert len(enumerate_subsimplices(n, ell)) == comb(n + 1, ell + 1)


def test_enumerate_dimension_out_of_range():
    with pytest.raises(ValueError):
        enumerate_subsimplices(2, 3)
    with pytest.raises(ValueError):
        enumerate_subsimplices(2, -1)


def test_faces_containing():
    f = SubSimplexId((0, 1), 3)
    faces = [g.indices for g in f.faces_containing()]
    assert faces == [(0, 1, 3), (0, 1, 2)]
    for g in f.faces_containing():
        assert g.contains(f)


def test_reference_triangle_gradient():
    tri = reference_simplex(2)
    grads = barycentric_gradients(tri)
    assert grads[0] == (Fraction(-1), Fraction(-1))
    assert grads[1] == (Fraction(1), Fraction(0))
    assert grads[2] == (Fraction(0), Fraction(1))


def test_gradient_edge_pairing_random():
    rng = random.Random(4)
    for n in (2, 3, 4):
        simp = random_simplex(rng, n)
        grads = barycentric_gradients(simp)
        for i in range(n + 1):
            for j in range(n + 1):
                edge = simp.edge_vector(i, j)
                for ell in range(n + 1):
                    expected = int(j == ell) - int(i == ell)
                    assert dot(edge, grads[ell]) == expected


def test_gradients_sum_to_zero():
    rng = random.Random(9)
    for n in (2, 3):
        simp = random_simplex(rng, n)
        grads = barycentric_gradients(simp)
        total = [sum(g[d] for g in grads) for d in range(n)]
        assert all(x == 0 for x in total)


def test_degenerate_simplex_rejected():
    with pytest.raises(SingularGeometryError):
        Simplex(((0, 0), (1, 1), (2, 2)))


def test_volume_of_reference_simplices():
    assert reference_simplex(2).volume() == Fraction(1, 2)
    assert reference_simplex(3).volume() == Fraction(1, 6)


def test_edge_frame_in_three_dimensions():
    rng = random.Random(14)
    simp = random_simplex(rng, 3)
    frame = build_frame(simp, SubSimplexId((1, 3), 3))
    assert len(frame.tangents) == 1
    assert len(frame.normals) == 2
    for t in frame.tangents:
        for m in frame.normals:
            assert dot(t, m) == 0


def test_frame_extreme_dimensions():
    simp = reference_simplex(3)
    full = build_frame(simp, SubSimplexId((0, 1, 2, 3), 3))
    assert len(full.tangents) == 3 and len(full.normals) == 0
    vertex = build_frame(simp, SubSimplexId((2,), 3))
    assert len(vertex.tangents) == 0 and len(vertex.normals) == 3


def test_frames_span_and_orthogonality():
    rng = random.Random(23)
    for n in (2, 3):
        simp = random_simplex(rng, n)
        for ell in range(n + 1):
            for f in enumerate_subsimplices(n, ell):
                frame = build_frame(simp, f)
                assert len(frame.tangents) == ell
                assert len(frame.normals) == n - ell
                assert linalg.rank(list(frame.tangents + frame.normals)) == n
                for t in frame.tangents:
                    for m in frame.normals:
                        assert dot(t, m) == 0
                for vec in frame.tangents + frame.normals:
                    assert max(abs(x) for x in vec) == 1


def test_vertex_normals_follow_convention():
    simp = reference_simplex(2)
    vertex = SubSimplexId((0,), 2)
    gradient_based = build_frame(simp, vertex)
    grads = barycentric_gradients(simp)
    assert gradient_based.normals == (grads[1], grads[2])


def test_normals_are_scaled_face_gradients():
    # Normal i of a frame must be parallel to ∇λ_i, which vanishes on F_i ⊇ f.
    rng = random.Random(40)
    simp = random_simplex(rng, 3)
    f = SubSimplexId((0, 2), 3)
    frame = build_frame(simp, f)
    grads = barycentric_gradients(simp)
    for label, normal in zip(f.complement_labels(), frame.normals):
        assert linalg.rank([list(normal), list(grads[label])]) == 1


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return type(exc)


def test_records_keep_dataclass_equality_hash_and_repr():
    """The records that were frozen dataclasses hash, compare and print as
    a frozen dataclass of the same fields did, and stay unassignable."""
    simplex = reference_simplex(2)
    f = SubSimplexId((0, 2), 2)
    assert repr(f) == "SubSimplexId(indices=(0, 2), parent_dim=2)"
    records = [
        f,
        simplex,
        build_frame(simplex, f),
        decompose(Family.TRACELESS, simplex, 1).members[0],
        build_dofs(Family.FACE, 2, 1, -1).functionals[0].terms[0],
    ]
    for record in records:
        fields = tuple(getattr(record, name) for name in record._fields)
        mirror = make_dataclass(type(record).__name__, record._fields, frozen=True)(*fields)
        assert repr(record) == repr(mirror)
        assert _hash_or_error(record) == _hash_or_error(fields) == _hash_or_error(mirror)
        assert record == type(record)(*fields)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], fields[0])
        with pytest.raises(AttributeError):
            record.extra = 1
    # A DoF term holds a polynomial, which compares by value across
    # degrees and so is not hashable.
    poly = records[-1].weight
    mirror = make_dataclass("BernsteinPoly", ("domain", "degree", "coeffs"), eq=False)(poly.domain, poly.degree, poly.coeffs)
    assert repr(poly) == repr(mirror)
    assert poly == bn.elevate(poly, poly.degree + 1)
    assert _hash_or_error(poly) is TypeError
    with pytest.raises(AttributeError):
        poly.degree = 0
