"""Moment functionals, unisolvence certificates, quotients, and facet merges."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdiv_geodecomp import bernstein as bn
from hdiv_geodecomp import dofs as dofmod
from hdiv_geodecomp import linalg, tensors
from hdiv_geodecomp.checks import FAIL, PASS
from hdiv_geodecomp.dofs import (
    FACEWISE,
    GLOBAL,
    INTERIOR,
    MOD_P0,
    MOD_P1,
    build_dofs,
    certify_unisolvence,
    dof_matrix,
    merge_face_dofs,
    quotient_face_space,
    tangential_polynomial_fields,
)
from hdiv_geodecomp.simplex import SubSimplexId, build_frame, enumerate_subsimplices, reference_simplex
from hdiv_geodecomp.spaces import Family, decompose

from conftest import merge_all_faces, random_simplex, rational_rows
from polynomial_reference import evaluate


# ---------------------------------------------------------------- sizes


def test_lagrange_interval_nodal_matrix_is_identity():
    dofs = build_dofs(Family.LAGRANGE, 1, 1, None)
    basis = decompose(Family.LAGRANGE, reference_simplex(1), 1)
    assert rational_rows(dof_matrix(dofs, basis)) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def test_certificate_sizes_match_space_dimensions():
    cases = [
        (Family.FACE, 2, 2, -1, 12),
        (Family.FACE, 3, 3, 1, 60),
        (Family.FACE, 3, 2, -1, 30),
        (Family.SYMMETRIC, 2, 2, 0, 18),
        (Family.SYMMETRIC, 2, 3, 0, 30),
        (Family.TRACELESS, 3, 2, 0, 80),
    ]
    for family, n, r, k, size in cases:
        cert = certify_unisolvence(family, n, r, k)
        assert cert.witness["size"] == size == family.constrained_dim(n) * comb(n + r, n)
        assert cert.status == PASS, (family, n, r, k, cert.witness)


def test_traceless_tet_quadratic_vertex_layout():
    dofs = build_dofs(Family.TRACELESS, 3, 2, 0)
    for v in enumerate_subsimplices(3, 0):
        at_v = [nf for nf in dofs.functionals if nf.site == v]
        assert len(at_v) == 8
        assert all(nf.scope == GLOBAL for nf in at_v)


def test_stenberg_vector_vertices_carry_three_point_values():
    dofs = build_dofs(Family.FACE, 3, 2, 0)
    for v in enumerate_subsimplices(3, 0):
        at_v = [nf for nf in dofs.functionals if nf.site == v]
        assert len(at_v) == 3
        assert all(nf.scope == GLOBAL for nf in at_v)


def _scope_counts(dofs):
    out = {GLOBAL: 0, FACEWISE: 0, INTERIOR: 0}
    for nf in dofs.functionals:
        out[nf.scope] += 1
    return out


@pytest.mark.parametrize("n,r,k", [(2, 3, -1), (2, 3, 0), (3, 2, 0), (3, 4, 1)])
def test_vector_scope_counts_match_closed_forms(n, r, k):
    dofs = build_dofs(Family.FACE, n, r, k)
    counts = _scope_counts(dofs)
    global_expected = sum(
        comb(n + 1, ell + 1) * (n - ell) * comb(r - 1, ell) for ell in range(k + 1)
    )
    facewise_expected = sum(
        comb(n + 1, ell + 1) * (n - ell) * comb(r - 1, ell) for ell in range(k + 1, n)
    )
    bubble_expected = sum(
        comb(n + 1, ell + 1) * ell * comb(r - 1, ell) for ell in range(1, n + 1)
    )
    assert counts[GLOBAL] == global_expected
    assert counts[FACEWISE] == facewise_expected
    assert counts[INTERIOR] == bubble_expected
    assert dofs.count == n * comb(n + r, n)


@pytest.mark.parametrize("n,r,k", [(2, 3, 0), (3, 3, 0), (3, 3, 1)])
def test_symmetric_scope_counts_match_closed_forms(n, r, k):
    dofs = build_dofs(Family.SYMMETRIC, n, r, k)
    counts = _scope_counts(dofs)
    normal_dim = lambda ell: ell * (n - ell) + (n - ell) * (n - ell + 1) // 2
    global_expected = sum(
        comb(n + 1, ell + 1) * normal_dim(ell) * comb(r - 1, ell)
        for ell in range(k + 1)
    ) + sum(
        comb(n + 1, ell + 1) * (n - ell) * (n - ell + 1) // 2 * comb(r - 1, ell)
        for ell in range(k + 1, n)
    )
    facewise_expected = sum(
        comb(n + 1, ell + 1) * ell * (n - ell) * comb(r - 1, ell)
        for ell in range(k + 1, n)
    )
    assert counts[GLOBAL] == global_expected
    assert counts[FACEWISE] == facewise_expected
    assert dofs.count == (n * (n + 1) // 2) * comb(n + r, n)


# ------------------------------------------------------- unisolvence sweep


def _admissible():
    for n in (1, 2, 3):
        for r in (1, 2, 3, 4):
            yield Family.LAGRANGE, n, r, None
            for k in range(-1, n - 1):
                yield Family.FACE, n, r, k
            if n >= 2 and r >= 2:
                for k in range(0, n - 1):
                    yield Family.TRACELESS, n, r, k
                    yield Family.SYMMETRIC, n, r, k


def test_unisolvence_sweep_all_admissible_parameters():
    for family, n, r, k in _admissible():
        cert = certify_unisolvence(family, n, r, k)
        assert cert.status == PASS, (family.value, n, r, k, cert.witness)
        assert cert.witness["size"] == family.constrained_dim(n) * comb(n + r, n)
        assert cert.witness["method"] == "site_blocks"
        assert "failure" not in cert.witness


def test_certificates_on_random_simplices():
    rng = random.Random(29)
    for family, n, r, k in [
        (Family.FACE, 2, 2, 0),
        (Family.TRACELESS, 2, 3, 0),
        (Family.SYMMETRIC, 3, 2, 1),
        (Family.FACE, 3, 2, -1),
    ]:
        cert = certify_unisolvence(family, random_simplex(rng, n), r, k)
        assert cert.status == PASS, (family.value, n, r, k, cert.witness)


def test_dense_and_blocked_paths_agree():
    for family, n, r, k in [(Family.FACE, 2, 2, 0), (Family.SYMMETRIC, 2, 2, 0)]:
        blocked = certify_unisolvence(family, n, r, k)
        matrix = dof_matrix(build_dofs(family, n, r, k), decompose(family, reference_simplex(n), r))
        rank, _ = linalg.echelon_data(rational_rows(matrix))
        assert blocked.status == PASS
        assert rank == blocked.witness["size"] == len(matrix) == len(matrix[0])


def test_vector_face_matrix_has_nonzero_determinant():
    dofs = build_dofs(Family.FACE, 2, 2, -1)
    basis = decompose(Family.FACE, reference_simplex(2), 2)
    assert linalg.det(rational_rows(dof_matrix(dofs, basis))) != 0


def test_pivot_hash_is_reproducible():
    a = certify_unisolvence(Family.FACE, 2, 3, 0)
    b = certify_unisolvence(Family.FACE, 2, 3, 0)
    assert a.witness["pivot_hash"] == b.witness["pivot_hash"]
    assert a.witness["pivot_hash"] != certify_unisolvence(Family.FACE, 2, 2, 0).witness["pivot_hash"]


def test_certificate_fails_on_a_repeated_functional():
    """Negative control: a DoF set whose last interior moment repeats the
    one before it is not unisolvent: its interior block is rank deficient
    by one, with and without merged facets."""
    dofs = build_dofs(Family.TRACELESS, 2, 3, 0)
    *rest, last = dofs.functionals
    repeated = dofs._replace(functionals=(*rest, rest[-1]))
    assert rest[-1].scope == last.scope == INTERIOR
    cert = certify_unisolvence(dofs=repeated)
    size = dofs.count
    interior = dict(cert.witness["block_sizes"])["interior"]
    assert cert.status == FAIL
    assert cert.name == "unisolvence[traceless n=2 r=3 k=0]"
    assert cert.witness["failure"] == {"block": "interior", "rank": interior - 1, "size": interior}
    assert cert.witness["size"] == size
    merged = merge_all_faces(dofs)
    cert = certify_unisolvence(dofs=merged._replace(functionals=(*merged.functionals[:-1], merged.functionals[-2])))
    interior = dict(cert.witness["block_sizes"])["interior"]
    assert cert.status == FAIL and cert.witness["method"] == "site_blocks"
    assert cert.witness["failure"] == {"block": "interior", "rank": interior - 1, "size": interior}


def test_certificate_fails_on_a_singular_symmetric_interior_block(monkeypatch):
    """Negative control of the Gram path: the interior block with its last
    row and column repeating the ones before it stays symmetric, so it is
    eliminated on its upper triangle until the zero pivot, then by the dense
    pass, and the certificate keeps the dense elimination's failure and
    digest."""
    dofs = build_dofs(Family.TRACELESS, 2, 3, 0)
    basis = decompose(Family.TRACELESS, reference_simplex(2), 3)
    matrix = dof_matrix(dofs, basis)
    label, rows, cols = dofmod.site_blocks(dofs, basis, matrix)[-1]
    assert label == "interior"
    planted = linalg.IntegerRows([list(row) for row in matrix], list(matrix.denominators))
    planted[rows[-1]] = list(planted[rows[-2]])
    planted.denominators[rows[-1]] = planted.denominators[rows[-2]]
    for row in planted:
        row[cols[-1]] = row[cols[-2]]
    block, scales = dofmod._block_rows(planted, rows, cols)
    m = len(block)
    assert all(block[i][j] * scales[j] == block[j][i] * scales[i] for i in range(m) for j in range(m))
    assert linalg._gram_pivots([list(row) for row in block], scales) is None
    monkeypatch.setattr(dofmod, "dof_matrix", lambda dofs, basis: planted)
    cert = certify_unisolvence(dofs=dofs)
    assert cert.status == FAIL
    assert cert.witness["failure"] == {"block": "interior", "rank": m - 1, "size": m}
    assert cert.witness["pivot_hash"] == "6a7c868c1a88bb81ab98a93420f123edcdabf776580d6ef7aabdfc6369b958f8"


# ------------------------------------------------------------ sparsity


def test_boundary_functionals_annihilate_tangential_members():
    simp = reference_simplex(2)
    dofs = build_dofs(Family.FACE, simp, 3, 0)
    basis = decompose(Family.FACE, simp, 3)
    matrix = dof_matrix(dofs, basis)
    for i, nf in enumerate(dofs.functionals):
        if nf.scope == INTERIOR:
            continue
        for j, member in enumerate(basis.members):
            if member.provenance.component == "tangential":
                assert matrix[i][j] == 0


def test_lower_site_functionals_annihilate_disjoint_equal_dim_members():
    simp = reference_simplex(3)
    dofs = build_dofs(Family.SYMMETRIC, simp, 2, 0)
    basis = decompose(Family.SYMMETRIC, simp, 2)
    matrix = dof_matrix(dofs, basis)
    for i, nf in enumerate(dofs.functionals):
        if nf.scope == INTERIOR:
            continue
        for j, member in enumerate(basis.members):
            f = member.provenance.sub_simplex
            if f.dim >= nf.site.dim and f != nf.site and f.dim < 3:
                assert matrix[i][j] == 0, (nf.site.indices, f.indices)


def test_vertex_point_values_equal_evaluations():
    simp = reference_simplex(2)
    dofs = build_dofs(Family.SYMMETRIC, simp, 2, 0)
    basis = decompose(Family.SYMMETRIC, simp, 2)
    v = SubSimplexId((1,), 2)
    coords = (Fraction(0), Fraction(1), Fraction(0))
    matrix = dof_matrix(dofs, basis)
    for i, nf in enumerate(dofs.functionals):
        if nf.site != v:
            continue
        direction = nf.terms[0].direction
        for j, member in enumerate(basis.members):
            expected = evaluate(member.scalar, coords) * tensors.frobenius(
                member.coeff, direction
            )
            assert Fraction(matrix[i][j], matrix.denominators[i]) == expected


def _tangent_normal_pairs(simplex, site, face):
    n_face = build_frame(simplex, face).normals[0]
    return [tensors.outer(t, n_face) for t in build_frame(simplex, site).tangents]


def test_symmetric_facewise_directions_are_tangent_normal_pairs():
    simp = reference_simplex(3)
    dofs = build_dofs(Family.SYMMETRIC, simp, 2, 0)
    facewise = [nf for nf in dofs.functionals if nf.scope == FACEWISE]
    assert facewise
    for nf in facewise:
        pairs = _tangent_normal_pairs(simp, nf.site, nf.face)
        for term in nf.terms:
            assert term.direction in pairs


# ----------------------------------------------------------- validation


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_dofs(Family.FACE, 2, 2, -2)
    with pytest.raises(ValueError):
        build_dofs(Family.FACE, 2, 2, 1)
    with pytest.raises(ValueError):
        build_dofs(Family.TRACELESS, 2, 2, -1)
    with pytest.raises(ValueError):
        build_dofs(Family.TRACELESS, 2, 1, 0)
    with pytest.raises(ValueError):
        build_dofs(Family.SYMMETRIC, 3, 1, 0)
    with pytest.raises(ValueError):
        build_dofs(Family.FACE, 2, 0, -1)
    with pytest.raises(ValueError):
        build_dofs(Family.LAGRANGE, 2, 2, 0)
    with pytest.raises(ValueError, match="symmetric elements need dimension >= 2, got 1"):
        build_dofs(Family.SYMMETRIC, 1, 2, 0)


def test_dof_matrix_rejects_mismatched_basis():
    dofs = build_dofs(Family.FACE, 2, 2, -1)
    with pytest.raises(ValueError):
        dof_matrix(dofs, decompose(Family.FACE, reference_simplex(2), 3))
    with pytest.raises(ValueError):
        dof_matrix(dofs, decompose(Family.SYMMETRIC, reference_simplex(2), 2))


# ------------------------------------------------------------- quotient


def test_quotient_face_space_example_dims():
    F = SubSimplexId((0, 1, 2), 3)
    q = quotient_face_space(F, 2, 0, MOD_P0)
    assert len(q.complement) == 2
    assert len(q.fixed_part) == 1
    assert len(q.full_basis) == 3


def test_quotient_with_no_continuity_spans_full_face_space():
    # with continuity order -1 the bubble collection is all of P_r(F)
    F = SubSimplexId((0, 1, 2), 3)
    r = 3
    q = quotient_face_space(F, r, -1, MOD_P0)
    assert len(q.full_basis) == comb(r + 2, 2)
    vectors = [bn.coeff_vector(p, r) for p in q.full_basis]
    assert linalg.rank(vectors) == comb(r + 2, 2)


def test_quotient_complement_is_exactly_orthogonal():
    F = SubSimplexId((0, 1, 2), 3)
    for mode, fixed_dim in [(MOD_P0, 1), (MOD_P1, 3)]:
        q = quotient_face_space(F, 4, 0, mode)
        assert len(q.fixed_part) == fixed_dim
        for p in q.complement:
            for fixed in q.fixed_part:
                assert bn.integrate(bn.multiply(p, fixed), F) == 0


def test_quotient_degree_preconditions():
    F = SubSimplexId((0, 1, 2), 3)
    with pytest.raises(ValueError):
        quotient_face_space(F, 1, 0, MOD_P0)
    with pytest.raises(ValueError):
        quotient_face_space(F, 3, 1, MOD_P1)  # k = dim F - 1 needs r >= k+3
    quotient_face_space(F, 4, 1, MOD_P1)
    with pytest.raises(ValueError):
        quotient_face_space(F, 2, 0, "mod_P2")


# --------------------------------------------------------------- merges


def test_vector_merge_collapses_to_plain_facet_moments():
    dofs = build_dofs(Family.FACE, 3, 2, -1)
    F = SubSimplexId((0, 1, 2), 3)
    merged = merge_face_dofs(dofs, F)
    assert len(merged.added) == comb(2 + 2, 2) == 6
    assert len(merged.removed) == 6
    assert merged.span_check.status == PASS
    assert all(nf.site == F and nf.scope == FACEWISE for nf in merged.added)
    assert merged.dofs.count == dofs.count


def test_merge_then_certify_keeps_size_and_invertibility():
    # Every facet merged, and each facet merged alone: the sites above k
    # of the merged facets form one "merged" site block.
    for family, n, r, k in [
        (Family.FACE, 2, 2, -1),
        (Family.FACE, 2, 2, 0),
        (Family.FACE, 3, 2, -1),
        (Family.FACE, 3, 2, 0),
        (Family.FACE, 3, 3, 1),
        (Family.TRACELESS, 2, 3, 0),
        (Family.SYMMETRIC, 2, 2, 0),
        (Family.SYMMETRIC, 3, 3, 0),
    ]:
        dofs = build_dofs(family, n, r, k)
        merges = [merge_all_faces(dofs)]
        merges += [merge_face_dofs(dofs, F).dofs for F in enumerate_subsimplices(n, n - 1)]
        for merged in merges:
            assert merged.count == dofs.count
            cert = certify_unisolvence(dofs=merged)
            assert cert.witness["method"] == "site_blocks"
            assert cert.status == PASS, (family.value, merged.merged_faces, cert.witness)
            assert cert.witness["size"] == dofs.count
            assert "merged" in dict(cert.witness["block_sizes"])


def test_site_blocks_of_a_merged_set_reject_a_planted_upper_entry():
    dofs = merge_all_faces(build_dofs(Family.FACE, 2, 2, 0))
    basis = decompose(Family.FACE, reference_simplex(2), 2)
    matrix = dof_matrix(dofs, basis)
    blocks = {label: (rows, cols) for label, rows, cols in dofmod.site_blocks(dofs, basis, matrix)}
    matrix[blocks["merged"][0][0]][blocks["interior"][1][0]] = 1
    with pytest.raises(dofmod.SiteBlockError, match="functional at merged does not annihilate member block interior"):
        dofmod.site_blocks(dofs, basis, matrix)


@pytest.mark.parametrize(
    "family,n,r,k",
    [(Family.FACE, 2, 3, -1), (Family.FACE, 3, 2, 0), (Family.SYMMETRIC, 3, 3, 0)],
)
def test_block_inverse_of_a_merged_set_is_the_dense_inverse(family, n, r, k):
    # What GlobalSpace.dual_coefficients relies on: the site-block inverse
    # of a merged set is the exact inverse.
    simp = random_simplex(random.Random(31 + n), n)
    dofs = merge_all_faces(build_dofs(family, simp, r, k))
    basis = decompose(family, simp, r)
    matrix = dof_matrix(dofs, basis)
    inverse, d = linalg.invert_block_lower(matrix, dofmod.site_blocks(dofs, basis, matrix))
    assert [[Fraction(x, d) for x in row] for row in inverse] == rational_rows(linalg.invert(rational_rows(matrix)))


def test_symmetric_merge_uses_facet_tangent_fields():
    dofs = build_dofs(Family.SYMMETRIC, 3, 3, 0)
    F = SubSimplexId((0, 1, 3), 3)
    merged = merge_face_dofs(dofs, F)
    assert len(merged.added) == 8  # replaces 3 edges x 2 + face x 2 moments
    assert merged.span_check.status == PASS
    pairs = _tangent_normal_pairs(reference_simplex(3), F, F)
    for nf in merged.added:
        assert all(t.direction in pairs for t in nf.terms)


@pytest.mark.parametrize(
    "n,r,expected",
    [(3, 2, 3), (3, 3, 8), (2, 3, 2)],
)
def test_tangential_field_counts(n, r, expected):
    simp = reference_simplex(n)
    F = enumerate_subsimplices(n, n - 1)[0]
    fields = tangential_polynomial_fields(simp, F, r - 2)
    assert len(fields) == expected


def test_tangential_fields_have_low_degree_chart_pairing():
    # q . x, written in the edge chart of the facet, must drop one degree
    simp = reference_simplex(3)
    F = SubSimplexId((0, 1, 2), 3)
    r = 3
    fields = tangential_polynomial_fields(simp, F, r - 2)
    lower = [bn.coeff_vector(m, r) for m in bn.monomial_basis(F, r - 1)]
    for weights in fields:
        paired = bn.zero(F)
        for pos, w in enumerate(weights):
            chart = bn.barycentric(F, F.indices[pos + 1])
            paired = paired + bn.multiply(w, chart)
        stack = lower + [bn.coeff_vector(paired, r)]
        assert linalg.rank(stack) == linalg.rank(lower)


def test_merge_validation():
    dofs = build_dofs(Family.FACE, 2, 2, 0)
    edge = SubSimplexId((0, 1), 2)
    with pytest.raises(ValueError):
        merge_face_dofs(dofs, SubSimplexId((0,), 2))
    merged = merge_face_dofs(dofs, edge).dofs
    with pytest.raises(ValueError):
        merge_face_dofs(merged, edge)
    with pytest.raises(ValueError):
        merge_face_dofs(build_dofs(Family.SYMMETRIC, 3, 2, 1), SubSimplexId((0, 1, 2), 3))
    with pytest.raises(ValueError):
        merge_face_dofs(build_dofs(Family.LAGRANGE, 2, 2, None), edge)


@pytest.mark.parametrize(
    "family,n,r,k",
    [(Family.FACE, 3, 2, -1), (Family.FACE, 2, 3, 0), (Family.TRACELESS, 2, 3, 0), (Family.SYMMETRIC, 3, 3, 0)],
)
def test_merge_reads_the_frames_hook(family, n, r, k):
    # A hook that negates one facet's normal: the functionals the merge
    # adds on that facet carry the negated normal.
    simplex = reference_simplex(n)
    F = enumerate_subsimplices(n, n - 1)[1]

    def frames(f):
        frame = build_frame(simplex, f)
        if f == F:
            frame = frame._replace(normals=tuple(tuple(-x for x in v) for v in frame.normals))
        return frame

    frame = frames(F)
    n_face = frame.normals[0]
    if family is Family.FACE:
        directions = [n_face]
    elif family is Family.TRACELESS:
        directions = [tensors.outer(e, n_face) for e in tensors.identity(n)]
    else:
        directions = [tensors.outer(t, n_face) for t in frame.tangents]
    dofs = build_dofs(family, simplex, r, k, frames=frames)
    merged = merge_face_dofs(dofs, F, frames=frames)
    assert merged.span_check.status == PASS
    assert all(t.direction in directions for nf in merged.added for t in nf.terms)
    assert certify_unisolvence(dofs=merged.dofs).status == PASS
    # Without the hook the merge reads the element frame's opposite normal.
    assert not any(t.direction in directions for nf in merge_face_dofs(dofs, F).added for t in nf.terms)


def test_merged_sets_stay_grouped_by_site():
    dofs = merge_all_faces(build_dofs(Family.FACE, 3, 2, -1))
    dims = [nf.site.dim for nf in dofs.functionals]
    assert dims == sorted(dims)


# --------------------------------------------------------- moment table


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 5) for r in range(5)])
def test_moment_table_matches_bernstein_integrals(n, r):
    # Every site, every member monomial of degree r and every weight monomial
    # of degree <= r (the DoF weights' degrees among them): the closed-form
    # entry against restrict, multiply and integrate on Bernstein polynomials.
    table = dofmod.moment_table(n, r)
    zeros = nonzeros = 0
    for ell in range(n + 1):
        for site in enumerate_subsimplices(n, ell):
            for beta in bn.lattice(n + 1, r):
                restricted = bn.restrict(bn.monomial(bn.full_domain(n), beta), site)
                supported = all(b == 0 or i in site.indices for i, b in enumerate(beta))
                for degree in range(r + 1):
                    for alpha in bn.lattice(ell + 1, degree):
                        value = table.entry(site, beta, alpha)
                        reference = bn.integrate(bn.multiply(restricted, bn.monomial(site, alpha)), site)
                        assert value == reference
                        assert bool(value) == supported
                        zeros += not value
                        nonzeros += bool(value)
    assert zeros or r == 0
    assert nonzeros
    assert dofmod.moment_table(n, r) is table


@pytest.mark.parametrize("n,r", [(2, 3), (3, 4)])
def test_moment_table_restricts_each_member_once_per_site(n, r, monkeypatch):
    # Every site g, member monomial β and weight monomial α of degree <= r,
    # against restrict, multiply and integrate; bn.restrict still runs, once
    # per (g, β) however many weights follow.
    full = bn.full_domain(n)
    restrict = bn.restrict
    calls = []

    def counted(p, g):
        calls.append((g.indices, *p.coeffs))
        return restrict(p, g)

    monkeypatch.setattr(bn, "restrict", counted)
    table = dofmod.MomentTable(n, r)
    members = []
    for ell in range(n + 1):
        for g in enumerate_subsimplices(n, ell):
            for beta in bn.lattice(n + 1, r):
                members.append((g.indices, beta))
                for degree in range(r + 1):
                    for alpha in bn.lattice(ell + 1, degree):
                        oracle = bn.integrate(bn.multiply(restrict(bn.monomial(full, beta), g), bn.monomial(g, alpha)), g)
                        assert table.entry(g, beta, alpha) == oracle
    assert calls == members


def test_moment_table_rejects_members_of_another_degree():
    site = SubSimplexId((0, 1), 2)
    with pytest.raises(ValueError):
        dofmod.moment_table(2, 2).integral(site, (1, 1, 1), bn.one(site))


def _reference_entry(nf, member):
    """N(phi) term by term from Bernstein integrals and Fraction pairings."""
    total = Fraction(0)
    for term in nf.terms:
        direction = term.direction
        if isinstance(direction[0], tuple):
            pairing = tensors.frobenius(member.coeff, direction)
        else:
            pairing = tensors.dot(member.coeff, direction)
        restricted = bn.restrict(member.scalar, nf.site)
        total += pairing * bn.integrate(bn.multiply(restricted, term.weight), nf.site)
    return total


@pytest.mark.parametrize(
    "family,n,r,k",
    [
        (Family.FACE, 2, 3, 0),
        (Family.FACE, 3, 2, 0),
        (Family.TRACELESS, 3, 3, 0),
        (Family.SYMMETRIC, 2, 3, 0),
        (Family.SYMMETRIC, 3, 2, 0),
        (Family.SYMMETRIC, 3, 3, 0),
    ],
)
def test_dof_matrix_of_merged_sets_matches_entrywise_reference(family, n, r, k):
    rng = random.Random(80 + n)
    simp = random_simplex(rng, n)
    merged = merge_all_faces(build_dofs(family, simp, r, k))
    non_monomial = [nf for nf in merged.functionals if any(len(t.weight.coeffs) > 1 for t in nf.terms)]
    assert non_monomial
    if family is Family.SYMMETRIC and n == 3:
        assert any(len(nf.terms) > 1 for nf in merged.functionals)
    basis = decompose(family, simp, r)
    matrix = dof_matrix(merged, basis)
    for nf, row in zip(merged.functionals, rational_rows(matrix)):
        assert row == [_reference_entry(nf, m) for m in basis.members]


# (family, n, degree, k, merged): small enough to compare every entry.
_INTEGER_FORM_CASES = [
    (Family.FACE, 2, 2, -1, False),
    (Family.FACE, 2, 2, -1, True),
    (Family.FACE, 2, 3, 0, True),
    (Family.FACE, 3, 2, -1, True),
    (Family.TRACELESS, 2, 2, 0, False),
    (Family.TRACELESS, 2, 3, 0, True),
    (Family.SYMMETRIC, 2, 2, 0, False),
    (Family.SYMMETRIC, 2, 3, 0, True),
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_INTEGER_FORM_CASES), st.randoms(use_true_random=False))
def test_dof_matrix_rows_are_integers_over_their_least_denominators(case, rng):
    family, n, r, k, merged = case
    simp = random_simplex(rng, n)
    dofs = build_dofs(family, simp, r, k)
    if merged:
        dofs = merge_all_faces(dofs)
    basis = decompose(family, simp, r)
    matrix = dof_matrix(dofs, basis)
    assert len(matrix) == len(matrix.denominators) == dofs.count
    for nf, row, d in zip(dofs.functionals, matrix, matrix.denominators):
        assert all(type(x) is int for x in row)
        assert type(d) is int and d > 0
        assert gcd(d, *row) == 1
        assert [Fraction(x, d) for x in row] == [_reference_entry(nf, m) for m in basis.members]


@pytest.mark.parametrize(
    "family,n,r,k,pivot_hash,block_sizes",
    [
        (
            Family.FACE, 2, 2, 0,
            "0d322f4cc33eba0572909eafe303163d7358cee731eafc1dd765eb67eed12051",
            [["f0", 2], ["f1", 2], ["f2", 2], ["merged", 3], ["interior", 3]],
        ),
        (
            Family.TRACELESS, 2, 3, 0,
            "2a2aa7011ef77a14984ce69e036740d7a8d2d0612b51cb8efacf8c3967ec2da5",
            [["f0", 3], ["f1", 3], ["f2", 3], ["merged", 12], ["interior", 9]],
        ),
        (
            Family.SYMMETRIC, 3, 3, 0,
            "0f345b0fef81abb368f18dec1c8947b54340635774e10a21ab4a61d671bb8b17",
            [["f0", 6], ["f1", 6], ["f2", 6], ["f3", 6], ["merged", 72], ["interior", 24]],
        ),
    ],
)
def test_dense_certificate_of_merged_sets_keeps_its_pivot_hash(family, n, r, k, pivot_hash, block_sizes):
    # The site-block digest and block list of three merged sets.  The name
    # is that of the dense certificate these digests replaced, kept so the
    # test ids stay.
    cert = certify_unisolvence(dofs=merge_all_faces(build_dofs(family, n, r, k)))
    assert cert.witness["method"] == "site_blocks" and cert.status == PASS
    assert cert.witness["block_sizes"] == block_sizes
    assert cert.witness["pivot_hash"] == pivot_hash


def test_site_blocks_reject_a_planted_upper_entry():
    dofs = build_dofs(Family.FACE, 2, 2, -1)
    basis = decompose(Family.FACE, reference_simplex(2), 2)
    matrix = dof_matrix(dofs, basis)
    blocks = dofmod.site_blocks(dofs, basis, matrix)
    (_, first_rows, _), (_, _, last_cols) = blocks[0], blocks[-1]
    matrix[first_rows[0]][last_cols[0]] = 1
    with pytest.raises(dofmod.SiteBlockError, match="functional at f0 does not annihilate member block interior"):
        dofmod.site_blocks(dofs, basis, matrix)
