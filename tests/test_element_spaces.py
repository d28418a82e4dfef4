"""Geometric decompositions, normal traces, bubbles, and div images."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdiv_geodecomp import bernstein as bn
from hdiv_geodecomp import linalg, spaces, tensors
from hdiv_geodecomp.checks import FAIL, PASS, SKIPPED
from hdiv_geodecomp.simplex import SubSimplexId, enumerate_subsimplices, reference_simplex
from hdiv_geodecomp.spaces import Family

from conftest import random_simplex
from polynomial_reference import bubble, derivative


def _flat_matrix(basis):
    """Coefficients of each member over lattice × value components, as
    integer rows over one denominator (which a rank does not read)."""
    rows, _ = spaces.site_rows(basis, bn.full_domain(basis.n), tensors.FLATTEN)
    return [rows[j] for j in range(len(basis.members))]


def _one_member_basis(member, n):
    return spaces.SpaceBasis(Family.FACE, n, sum(member.beta), (member,))


def test_lagrange_triangle_cubic_counts():
    simp = reference_simplex(2)
    basis = spaces.decompose(Family.LAGRANGE, simp, 3)
    assert len(basis.members) == 10 == comb(5, 2)
    per_dim = {0: 0, 1: 0, 2: 0}
    for m in basis.members:
        per_dim[m.provenance.sub_simplex.dim] += 1
    assert per_dim == {0: 3, 1: 6, 2: 1}


def test_vector_tet_quadratic_count():
    simp = reference_simplex(3)
    basis = spaces.decompose(Family.FACE, simp, 2)
    assert len(basis.members) == 30 == 3 * comb(5, 3)


def test_symmetric_triangle_quadratic_count():
    simp = reference_simplex(2)
    basis = spaces.decompose(Family.SYMMETRIC, simp, 2)
    assert len(basis.members) == 18 == 3 * comb(4, 2)


def test_decompose_rejects_degree_zero():
    with pytest.raises(ValueError):
        spaces.decompose(Family.LAGRANGE, reference_simplex(2), 0)


@pytest.mark.parametrize(
    "family,n,r",
    [
        (Family.LAGRANGE, 2, 3),
        (Family.FACE, 2, 2),
        (Family.TRACELESS, 2, 2),
        (Family.TRACELESS, 3, 2),
        (Family.SYMMETRIC, 2, 3),
        (Family.SYMMETRIC, 3, 2),
    ],
)
def test_decompose_spans_lattice_space(family, n, r):
    rng = random.Random(17)
    simp = random_simplex(rng, n)
    basis = spaces.decompose(family, simp, r)
    reference = spaces.lattice_basis(family, simp, r)
    a, b = _flat_matrix(basis), _flat_matrix(reference)
    assert linalg.rank(a) == linalg.rank(b) == linalg.rank(a + b)


def test_lagrange_members_vanish_on_lower_subsimplices():
    # Restriction of a member sited at f must vanish on every e of dimension
    # at most dim f except f itself: this is the block triangular structure.
    simp = reference_simplex(2)
    basis = spaces.decompose(Family.LAGRANGE, simp, 3)
    subs = [f for ell in range(3) for f in enumerate_subsimplices(2, ell)]
    for m in basis.members:
        f = m.provenance.sub_simplex
        for e in subs:
            if e == f or e.dim > f.dim:
                continue
            assert bn.restrict(m.scalar, e).is_zero()


def test_trace_of_tangential_members_is_zero():
    rng = random.Random(18)
    for family in (Family.FACE, Family.TRACELESS, Family.SYMMETRIC):
        simp = random_simplex(rng, 2)
        basis = spaces.decompose(family, simp, 2)
        for facet in enumerate_subsimplices(2, 1):
            normal = spaces.facet_normal(simp, facet)
            for m in basis.members:
                if m.provenance.component != "tangential":
                    continue
                traced = spaces.trace_div(m, facet, normal)
                polys = traced if isinstance(traced, tuple) else (traced,)
                assert all(p.is_zero() for p in polys)


def test_trace_vanishes_off_site():
    rng = random.Random(19)
    simp = random_simplex(rng, 3)
    basis = spaces.decompose(Family.FACE, simp, 2)
    for facet in enumerate_subsimplices(3, 2):
        normal = spaces.facet_normal(simp, facet)
        for m in basis.members:
            if facet.contains(m.provenance.sub_simplex):
                continue
            traced = spaces.trace_div(m, facet, normal)
            assert traced.is_zero()


def test_trace_of_constant_normal_field():
    simp = reference_simplex(2)
    facet = SubSimplexId((1, 2), 2)
    normal = spaces.facet_normal(simp, facet)
    member = spaces.ShapeFunction(
        (0, 0, 0), tuple(normal), spaces.Provenance(facet, "lattice")
    )
    traced = spaces.trace_div(member, facet, normal)
    expected = tensors.dot(normal, normal)
    assert traced == bn.constant(facet, expected)


def test_trace_requires_facet():
    simp = reference_simplex(3)
    member = spaces.decompose(Family.FACE, simp, 2).members[0]
    with pytest.raises(ValueError):
        spaces.trace_div(member, SubSimplexId((0, 1), 3), (1, 0, 0))


def test_vector_bubble_dimensions():
    simp = reference_simplex(2)
    bubbles = spaces.bubble_space(Family.FACE, simp, 2)
    assert len(bubbles.members) == 3
    # Same count from the trace side: dim P_r(T;R^2) minus one trace per edge.
    assert len(bubbles.members) == 2 * comb(4, 2) - 3 * comb(3, 1)
    assert len(spaces.bubble_space(Family.FACE, simp, 1).members) == 0
    assert len(spaces.bubble_space(Family.FACE, simp, 0).members) == 0


def test_traceless_bubble_dimension_tet():
    simp = reference_simplex(3)
    bubbles = spaces.bubble_space(Family.TRACELESS, simp, 2)
    expected = sum(
        comb(4, ell + 1) * (ell * (3 - ell) + ell * ell - 1) * comb(1, ell)
        for ell in range(1, 4)
    )
    assert len(bubbles.members) == expected == 12


def test_bubble_space_rejects_lagrange():
    with pytest.raises(ValueError):
        spaces.bubble_space(Family.LAGRANGE, reference_simplex(2), 2)


@pytest.mark.parametrize(
    "family,n,r",
    [
        (Family.FACE, 2, 2),
        (Family.FACE, 2, 3),
        (Family.FACE, 3, 2),
        (Family.TRACELESS, 2, 2),
        (Family.TRACELESS, 3, 2),
        (Family.SYMMETRIC, 2, 2),
        (Family.SYMMETRIC, 2, 3),
        (Family.SYMMETRIC, 3, 2),
    ],
)
def test_bubble_characterization_passes(family, n, r):
    rng = random.Random(100 * n + r)
    simp = random_simplex(rng, n)
    result = spaces.verify_bubble_characterization(family, simp, r)
    assert result.status == PASS, result.witness


def test_bubble_characterization_fails_when_a_bubble_is_swapped_for_a_normal_member(monkeypatch):
    simp = reference_simplex(3)
    basis = spaces.decompose(Family.TRACELESS, simp, 2)
    normal = next(m for m in basis.members if m.provenance.component == "normal")
    true_bubbles = spaces.bubble_space

    def swapped(family, simplex, degree, frame_convention):
        bubbles = true_bubbles(family, simplex, degree, frame_convention)
        return replace(bubbles, members=(normal,) + bubbles.members[1:])

    monkeypatch.setattr(spaces, "bubble_space", swapped)
    result = spaces.verify_bubble_characterization(Family.TRACELESS, simp, 2)
    assert result.status == FAIL
    assert result.witness["identity"] == "ker(tr_div) == bubble span"
    assert result.witness["nonzero_traces"] >= 1


def test_bubble_characterization_fails_when_bubble_space_drops_a_member(monkeypatch):
    # Every remaining bubble still has zero traces; only the partition of the
    # certified basis into bubbles and normal members catches the gap.
    simp = reference_simplex(3)
    true_bubbles = spaces.bubble_space

    def dropped(family, simplex, degree, frame_convention):
        bubbles = true_bubbles(family, simplex, degree, frame_convention)
        return replace(bubbles, members=bubbles.members[1:])

    monkeypatch.setattr(spaces, "bubble_space", dropped)
    result = spaces.verify_bubble_characterization(Family.TRACELESS, simp, 2)
    assert result.status == FAIL
    assert result.witness["identity"] == "ker(tr_div) == bubble span"
    assert result.witness["same_members"] is False
    assert result.witness["nonzero_traces"] == 0
    assert result.witness["bubble_dim"] == result.witness["tangential_members"] - 1


def test_bubble_characterization_fails_when_a_normal_direction_is_labelled_tangential(monkeypatch):
    # The partition still matches and decompose still certifies a basis, so
    # only the zero-trace check on the bubbles can catch the mislabelling.
    original = tensors.tn_split

    def mislabelled(f, frame, space):
        split = original(f, frame, space)
        if f.indices != (0, 1):
            return split
        t, nrm = split.tangential_basis, split.normal_basis
        return replace(split, tangential_basis=nrm[:1] + t[1:], normal_basis=t[:1] + nrm[1:])

    spaces.decompose.cache_clear()
    monkeypatch.setattr(tensors, "tn_split", mislabelled)
    try:
        result = spaces.verify_bubble_characterization(Family.TRACELESS, reference_simplex(3), 2)
    finally:
        spaces.decompose.cache_clear()
    assert result.status == FAIL
    assert result.witness["identity"] == "ker(tr_div) == bubble span"
    assert result.witness["same_members"] is True
    assert result.witness["nonzero_traces"] >= 1


def test_bubble_characterization_below_threshold():
    simp = reference_simplex(2)
    result = spaces.verify_bubble_characterization(Family.FACE, simp, 1)
    assert result.status == SKIPPED


def test_divergence_of_position_field():
    simp = reference_simplex(2)
    domain = bn.full_domain(2)
    components = []
    for d in range(2):
        poly = bn.zero(domain)
        for i in range(3):
            poly = poly + simp.vertices[i][d] * bn.barycentric(domain, i)
        components.append(poly)
    # div = Σ_d ∂_d (component d), each term a directional derivative.
    partials = [
        derivative(comp, e, simp) for comp, e in zip(components, tensors.identity(2))
    ]
    assert partials[0] + partials[1] == bn.constant(domain, 2)


def test_divergence_of_interior_bubble_has_zero_mean():
    rng = random.Random(20)
    simp = random_simplex(rng, 2)
    cell = SubSimplexId((0, 1, 2), 2)
    member = spaces.ShapeFunction(
        (1, 1, 1), (Fraction(2), Fraction(-3)), spaces.Provenance(cell, "tangential")
    )
    image = derivative(member.scalar, member.coeff, simp)
    assert bn.integrate(image, cell) == 0


@pytest.mark.parametrize(
    "family,n,r",
    [
        (Family.FACE, 2, 2),
        (Family.TRACELESS, 2, 2),
        (Family.SYMMETRIC, 2, 3),
    ],
)
def test_bubble_div_orthogonal_to_rigid_fields(family, n, r):
    rng = random.Random(50 + n)
    simp = random_simplex(rng, n)
    bubbles = spaces.bubble_space(family, simp, r)
    cell = SubSimplexId(tuple(range(n + 1)), n)
    for m in bubbles.members:
        rows = m.coeff if isinstance(m.coeff[0], tuple) else (m.coeff,)
        image_polys = [derivative(m.scalar, row, simp) for row in rows]
        for q_polys in spaces.div_codim_fields(family, simp):
            pairing = bn.zero(bn.full_domain(n))
            for a, b in zip(image_polys, q_polys):
                pairing = pairing + a * b
            assert bn.integrate(pairing, cell) == 0


def test_div_image_ranks_match_quotients():
    simp = reference_simplex(2)
    vec = spaces.verify_div_image(Family.FACE, simp, 2)
    assert vec.status == PASS and vec.witness["rank"] == 2
    tls = spaces.verify_div_image(Family.TRACELESS, simp, 2)
    assert tls.status == PASS and tls.witness["rank"] == 3
    symm = spaces.verify_div_image(Family.SYMMETRIC, simp, 3)
    assert symm.status == PASS and symm.witness["rank"] == 9


def test_div_image_thresholds():
    simp = reference_simplex(2)
    assert spaces.verify_div_image(Family.FACE, simp, 1).status == SKIPPED
    assert spaces.verify_div_image(Family.SYMMETRIC, simp, 2).status == SKIPPED


def test_div_image_tet_cases():
    rng = random.Random(60)
    simp = random_simplex(rng, 3)
    for family, r in ((Family.FACE, 2), (Family.TRACELESS, 2)):
        result = spaces.verify_div_image(family, simp, r)
        assert result.status == PASS, result.witness


def test_flat_layout_component_fastest():
    simp = reference_simplex(2)
    domain = bn.full_domain(2)
    member = spaces.ShapeFunction(
        (1, 0, 0), (Fraction(3), Fraction(5)), spaces.Provenance(domain, "lattice")
    )
    rows, den = spaces.site_rows(_one_member_basis(member, 2), domain, tensors.FLATTEN)
    assert den == 1
    flat = rows[0]
    keys = bn.lattice(3, 1)
    pos = keys.index((1, 0, 0))
    assert flat[2 * pos] == 3 and flat[2 * pos + 1] == 5
    assert sum(1 for x in flat if x) == 2


def _admissible_decompositions():
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            yield Family.LAGRANGE, n, r
            yield Family.FACE, n, r
            if n >= 2:
                yield Family.TRACELESS, n, r
                yield Family.SYMMETRIC, n, r


def test_rank_by_monomial_equals_dense_flat_rank():
    for family, n, r in _admissible_decompositions():
        basis = spaces.decompose(family, reference_simplex(n), r)
        expected = family.constrained_dim(n) * bn.space_dim(n, r)
        assert spaces._rank_by_monomial(basis) == expected
        assert linalg.rank(_flat_matrix(basis)) == expected, (family, n, r)


def test_decompose_detects_a_repeated_normal_direction(monkeypatch):
    original = tensors.tn_split

    def repeated(f, frame, space):
        split = original(f, frame, space)
        if f.indices != (0,):
            return split
        normals = split.normal_basis
        return replace(split, normal_basis=normals[:-1] + normals[:1])

    spaces.decompose.cache_clear()
    monkeypatch.setattr(tensors, "tn_split", repeated)
    try:
        with pytest.raises(AssertionError, match="is not a basis"):
            spaces.decompose(Family.TRACELESS, reference_simplex(2), 2)
    finally:
        spaces.decompose.cache_clear()


def test_decompose_detects_a_repeated_direction_on_an_edge(monkeypatch):
    # At r=3 the edge (0,1) carries two β that share one coefficient set,
    # which _rank_by_monomial ranks once: the deficit must still count.
    original = tensors.tn_split

    def repeated(f, frame, space):
        split = original(f, frame, space)
        if f.indices != (0, 1):
            return split
        normals = split.normal_basis
        return replace(split, normal_basis=normals[:-1] + normals[:1])

    spaces.decompose.cache_clear()
    monkeypatch.setattr(tensors, "tn_split", repeated)
    try:
        with pytest.raises(AssertionError, match="is not a basis"):
            spaces.decompose(Family.TRACELESS, reference_simplex(2), 3)
    finally:
        spaces.decompose.cache_clear()


@pytest.mark.parametrize("family", list(Family))
def test_member_scalars_are_bubbles_times_site_monomials(family):
    # decompose writes each β directly; the reference multiplies b_f by
    # the site monomials λ^α as polynomials.  Each sub-simplex carries one
    # member per β and value-space direction, in lattice order of α.
    for n in range(1, 5):
        full = bn.full_domain(n)
        for r in range(1, 5):
            basis = spaces.decompose(family, reference_simplex(n), r)
            expected = [
                (f, bn.multiply(bubble(f), bn.extend(mono, full)))
                for ell in range(n + 1)
                for f in enumerate_subsimplices(n, ell)
                for mono in bn.monomial_basis(f, r - ell - 1)
                for _ in range(family.constrained_dim(n))
            ]
            assert [(m.provenance.sub_simplex, m.scalar) for m in basis.members] == expected, (n, r)


def test_div_image_pass_keeps_its_witness_keys():
    result = spaces.verify_div_image(Family.TRACELESS, reference_simplex(2), 3)
    assert result.status == PASS
    assert set(result.witness) == {"rank", "expected", "codim", "bubble_dim"}


def test_div_image_fails_on_a_field_div_bubbles_is_not_orthogonal_to(monkeypatch):
    def shifted(family, simplex):
        # same count as the true codim fields, so the rank comparison still passes
        return [(bn.barycentric(bn.full_domain(simplex.dim), 0),)]

    monkeypatch.setattr(spaces, "div_codim_fields", shifted)
    result = spaces.verify_div_image(Family.FACE, reference_simplex(2), 2)
    assert result.status == FAIL
    assert result.witness["rank"] == result.witness["expected"]
    assert result.witness["non_orthogonal_pairs"] > 0


def test_decompose_rejects_a_non_traceless_direction(monkeypatch):
    original = tensors.tn_split

    def widened(f, frame, space):
        split = original(f, frame, space)
        if f.indices != (0,):
            return split
        # the identity is independent of the traceless directions, so only
        # the membership check on the coefficients can catch it
        return replace(split, normal_basis=split.normal_basis[:-1] + (tensors.identity(2),))

    spaces.decompose.cache_clear()
    monkeypatch.setattr(tensors, "tn_split", widened)
    try:
        with pytest.raises(AssertionError, match="is not a traceless value"):
            spaces.decompose(Family.TRACELESS, reference_simplex(2), 2)
    finally:
        spaces.decompose.cache_clear()


# ------------------------------------------- row kernels against polynomials


def _fractions(draw, count):
    return tuple(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5))) for _ in range(count))


@st.composite
def monomial_members(draw):
    """(simplex, member λ^β·cC, a site) with a vector or matrix C and a
    nonzero rational c folded into the coefficient; the site need not
    contain supp β."""
    n = draw(st.integers(1, 3))
    degree = draw(st.integers(1, 3))
    simp = random_simplex(random.Random(draw(st.integers(0, 10**6))), n)
    beta = draw(st.sampled_from(bn.lattice(n + 1, degree)))
    c = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 5)))
    if draw(st.booleans()):
        coeff = tuple(c * x for x in _fractions(draw, n))
    else:
        coeff = tensors.mat_scale(tuple(_fractions(draw, n) for _ in range(n)), c)
    member = spaces.ShapeFunction(beta, coeff, spaces.Provenance(bn.full_domain(n), "lattice"))
    labels = draw(st.sets(st.integers(0, n), min_size=1))
    return simp, member, SubSimplexId(tuple(sorted(labels)), n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(monomial_members(), st.data())
def test_site_row_matches_restricted_coefficients(case, data):
    simp, member, site = case
    if data.draw(st.booleans()):
        contract, contraction = tensors.flatten, tensors.FLATTEN
    else:
        normal = _fractions(data.draw, simp.dim)
        contract = partial(tensors.contract_normal, normal=normal)
        contraction = tensors.normal_contraction(normal)
    r = member.scalar.degree
    scalars = bn.coeff_vector(bn.restrict(member.scalar, site), r)
    expected = [s * w for s in scalars for w in contract(member.coeff)]
    rows, den = spaces.site_rows(_one_member_basis(member, simp.dim), site, contraction)
    # a member left out restricts to zero
    assert [Fraction(x, den) for x in rows.get(0, [0] * len(expected))] == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(monomial_members())
def test_div_row_matches_derivative_coefficients(case):
    simp, member, _ = case
    rows = member.coeff if isinstance(member.coeff[0], tuple) else (member.coeff,)
    r = member.scalar.degree
    vectors = [bn.coeff_vector(derivative(member.scalar, row, simp), r - 1) for row in rows]
    expected = [v[k] for k in range(len(vectors[0])) for v in vectors]
    (row,), den = spaces.div_rows(_one_member_basis(member, simp.dim), simp)
    assert [Fraction(x, den) for x in row] == expected
