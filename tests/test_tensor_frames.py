"""The family table, tangent-normal splits of the constrained matrix
spaces, and rigid fields."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hdiv_geodecomp import linalg, spaces, tensors
from hdiv_geodecomp.dofs import resolve_continuity_order
from hdiv_geodecomp.simplex import (
    SubSimplexId,
    barycentric_gradients,
    build_frame,
    enumerate_subsimplices,
    reference_simplex,
)
from hdiv_geodecomp.tensors import Family

from conftest import random_simplex, sym


def test_sym_of_outer_product():
    u, v = (1, 2, 3), (4, 5, 6)
    s = sym(tensors.outer(u, v))
    assert s == tuple(zip(*s))
    direct = tensors.mat_scale(
        tensors.mat_add(tensors.outer(u, v), tensors.outer(v, u)), Fraction(1, 2)
    )
    assert s == direct


def test_family_facts_match_the_paper():
    """Each family's facts for n = 1..4, written out per family: the value
    space (vectors, traceless or symmetric matrices), the components of a
    divergence, the continuity orders k (the least continuous, -1 for the
    facet-moment face layout, is the default), the lowest degree of the DoF
    system, and the lowest degrees of the claims that div maps the bubbles
    onto the complement of 1, RT or RM and the assembled space onto the
    discontinuous P_{r-1}: k + 2 (1 at k = -1), and n + 1 for symmetric."""
    for n in range(1, 5):
        table = {
            Family.FACE: (n, 1, range(-1, n - 1), 1, 2, {k: 1 if k == -1 else k + 2 for k in range(-1, n - 1)}),
            Family.TRACELESS: (n * n - 1, n, range(0, n - 1), 2, 2, {k: k + 2 for k in range(0, n - 1)}),
            Family.SYMMETRIC: (n * (n + 1) // 2, n, range(0, n - 1), 2, 3, {k: n + 1 for k in range(0, n - 1)}),
        }
        for family, (dim, width, orders, degree, image_degree, onto_degree) in table.items():
            assert family.constrained_dim(n) == dim
            assert family.div_width(n) == width
            assert family.k_range(n) == orders
            assert family.min_degree == degree
            assert family.div_image_min_degree == image_degree
            assert {k: family.div_onto_min_degree(n, k) for k in orders} == onto_degree
            with pytest.raises(ValueError):
                resolve_continuity_order(family, n, degree - 1, None)
            if orders:
                assert resolve_continuity_order(family, n, degree, None) == orders[0]
            else:
                with pytest.raises(ValueError):
                    resolve_continuity_order(family, n, degree, None)
        # The scalar family has one value component, no continuity order
        # and no divergence.
        assert Family.LAGRANGE.constrained_dim(n) == 1
        assert Family.LAGRANGE.min_degree == 1
        assert resolve_continuity_order(Family.LAGRANGE, n, 1, None) is None
        with pytest.raises(ValueError):
            Family.LAGRANGE.k_range(n)
        with pytest.raises(ValueError):
            Family.LAGRANGE.div_width(n)
        with pytest.raises(ValueError):
            Family.LAGRANGE.div_onto_min_degree(n, 0)
    with pytest.raises(ValueError):
        Family.LAGRANGE.div_image_min_degree
    assert Family("vector") is Family.FACE
    f = SubSimplexId((0, 1), 2)
    with pytest.raises(ValueError):
        tensors.tn_split(f, build_frame(reference_simplex(2), f), Family.LAGRANGE)
    assert spaces.Family is tensors.Family


def _split(simp, labels, space):
    f = SubSimplexId(tuple(labels), simp.dim)
    frame = build_frame(simp, f)
    return tensors.tn_split(f, frame, space), f, frame


def test_traceless_face_split_dimensions():
    rng = random.Random(3)
    simp = random_simplex(rng, 3)
    split, _, _ = _split(simp, (0, 1, 2), Family.TRACELESS)
    assert len(split.tangential_basis) == 5
    assert len(split.normal_basis) == 3
    flat = [tensors.flatten(b) for b in split.tangential_basis + split.normal_basis]
    assert linalg.rank(flat) == 8


def test_symmetric_edge_split_dimensions():
    rng = random.Random(4)
    simp = random_simplex(rng, 3)
    split, _, _ = _split(simp, (1, 2), Family.SYMMETRIC)
    assert len(split.tangential_basis) == 1
    assert len(split.normal_basis) == 5
    flat = [tensors.flatten(b) for b in split.tangential_basis + split.normal_basis]
    assert linalg.rank(flat) == 6


def test_vector_split_dimensions():
    rng = random.Random(5)
    simp = random_simplex(rng, 2)
    for ell in range(3):
        for f in enumerate_subsimplices(2, ell):
            frame = build_frame(simp, f)
            split = tensors.tn_split(f, frame, Family.FACE)
            assert len(split.tangential_basis) == ell
            assert len(split.normal_basis) == 2 - ell


@pytest.mark.parametrize("space", [Family.FACE, Family.TRACELESS, Family.SYMMETRIC])
def test_split_is_direct_sum_of_the_constrained_space(space):
    rng = random.Random(6)
    for n in (2, 3):
        simp = random_simplex(rng, n)
        for ell in range(n + 1):
            for f in enumerate_subsimplices(n, ell):
                frame = build_frame(simp, f)
                split = tensors.tn_split(f, frame, space)
                tan = [tensors.flatten(b) for b in split.tangential_basis]
                nor = [tensors.flatten(b) for b in split.normal_basis]
                assert len(tan) + len(nor) == space.constrained_dim(n)
                assert linalg.rank(tan + nor) == space.constrained_dim(n)
                if space is Family.TRACELESS:
                    for b in split.tangential_basis + split.normal_basis:
                        assert tensors.trace(b) == 0
                if space is Family.SYMMETRIC:
                    for b in split.tangential_basis + split.normal_basis:
                        assert b == tuple(zip(*b))


@pytest.mark.parametrize("space", [Family.TRACELESS, Family.SYMMETRIC])
def test_tangential_elements_annihilate_containing_face_normals(space):
    rng = random.Random(7)
    for n in (2, 3):
        simp = random_simplex(rng, n)
        grads = barycentric_gradients(simp)
        for ell in range(n + 1):
            for f in enumerate_subsimplices(n, ell):
                frame = build_frame(simp, f)
                split = tensors.tn_split(f, frame, space)
                for missing in f.complement_labels():
                    face_normal = grads[missing]
                    for b in split.tangential_basis:
                        assert all(x == 0 for x in tensors.mat_vec(b, face_normal))


def test_symmetric_mixed_normal_trace_is_half_of_plain_tensor():
    rng = random.Random(8)
    simp = random_simplex(rng, 3)
    f = SubSimplexId((0, 1), 3)
    frame = build_frame(simp, f)
    grads = barycentric_gradients(simp)
    for t in frame.tangents:
        for m in frame.normals:
            mixed = sym(tensors.outer(t, m))
            plain = tensors.outer(t, m)
            for missing in f.complement_labels():
                n_f = grads[missing]
                left = tuple(2 * x for x in tensors.mat_vec(mixed, n_f))
                assert left == tensors.mat_vec(plain, n_f)


def test_traceless_gradient_basis_duality():
    rng = random.Random(11)
    for n in (2, 3):
        simp = random_simplex(rng, n)
        result = tensors.traceless_gradient_basis(simp)
        count = (n + 1) * (n - 1)
        assert len(result.basis) == count == len(result.dual)
        for b in result.basis:
            assert tensors.trace(b) == 0
        for p, row in enumerate(result.pairing):
            for q, value in enumerate(row):
                assert value == int(p == q)


def test_traceless_gradient_index_pairs_avoid_successor():
    simp = reference_simplex(3)
    result = tensors.traceless_gradient_basis(simp)
    for i, j in result.index_pairs:
        assert j != i and j != (i + 1) % 4


def test_rigid_spaces_dimensions():
    for n in (2, 3):
        rt, rm = tensors.rigid_spaces(n)
        assert len(rt) == n + 1
        assert len(rm) == n * (n + 1) // 2
    _, rm3 = tensors.rigid_spaces(3)
    assert len(rm3) == 6


def test_rigid_motions_have_skew_jacobian():
    _, rm = tensors.rigid_spaces(3)
    for field in rm:
        assert sym(field.matrix) == tensors.mat_scale(tensors.identity(3), 0)


def test_translations_and_scaling_kernel_of_dev_grad():
    # ker(dev ∘ jacobian) over affine fields must coincide with RT.
    for n in (2, 3):
        rt, _ = tensors.rigid_spaces(n)
        rows = []
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * (n * n + n)
                row[i * n + j] += 1
                if i == j:
                    for d in range(n):
                        row[d * n + d] -= Fraction(1, n)
                rows.append(row)
        kernel = linalg.nullspace(rows)
        rt_params = [
            [x for row in field.matrix for x in row] + list(field.offset) for field in rt
        ]
        assert linalg.rank(kernel) == linalg.rank(rt_params) == linalg.rank(kernel + rt_params)
