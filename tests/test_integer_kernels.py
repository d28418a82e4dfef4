"""The integer per-cell kernels against Fraction references of the same formulas.

Gradients, tangent-normal splits, site-block inverses, trace rows and div
rows are computed on integers over one denominator.  Each reference below
is the Fraction arithmetic those kernels replace, kept here so the integer
forms are checked against an independent computation of the same values.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hdiv_geodecomp import assembly, linalg, spaces, tensors
from hdiv_geodecomp import bernstein as bn
from hdiv_geodecomp.simplex import Frame, SubSimplexId, dot, enumerate_subsimplices, integer_gradients
from hdiv_geodecomp.spaces import Family

from conftest import random_simplex, rational_rows, sym
from polynomial_reference import contract_normal


def _rationals():
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


# ------------------------------------------------------------- references


def _reference_gradients(simplex):
    """∇λ_i from the interpolation system λ_i(v_j) = δ_ij, by Fraction
    Gauss-Jordan elimination on [V | I], V's rows (v_j, 1)."""
    n = simplex.dim
    rows = [list(v) + [Fraction(1)] + [Fraction(int(i == j)) for j in range(n + 1)] for i, v in enumerate(simplex.vertices)]
    for c in range(n + 1):
        p = next(i for i in range(c, n + 1) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n + 1):
            if i != c and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[c])]
    # Column i of V⁻¹ holds the coefficients of λ_i; its first n entries are ∇λ_i.
    return [[rows[d][n + 1 + i] for d in range(n)] for i in range(n + 1)]


def _reference_corrected(u, v, direction, norm):
    weight = dot(u, v) / norm
    return tensors.mat_add(tensors.outer(u, v), tensors.mat_scale(direction, -weight))


def _reference_tn_split(f, frame, space):
    n, ell = f.parent_dim, f.dim
    tans, nors = frame.tangents, frame.normals
    if space is Family.FACE:
        return tans, nors
    if space is Family.TRACELESS:
        t = tans[0] if ell >= 1 else nors[0]
        direction, norm = tensors.outer(t, t), dot(t, t)
        if ell == 0:
            normal = [
                _reference_corrected(nors[i], nors[j], direction, norm)
                for i in range(n)
                for j in range(n)
                if (i, j) != (0, 0)
            ]
            return (), tuple(normal)
        tangential = [tensors.outer(m, t) for m in nors for t in tans]
        tangential += [
            _reference_corrected(tans[i], tans[j], direction, norm)
            for i in range(ell)
            for j in range(ell)
            if (i, j) != (0, 0)
        ]
        normal = [tensors.outer(t, m) for t in tans for m in nors]
        normal += [
            _reference_corrected(nors[i], nors[j], direction, norm)
            for i in range(n - ell)
            for j in range(n - ell)
        ]
        return tuple(tangential), tuple(normal)
    tangential = [sym(tensors.outer(tans[i], tans[j])) for i in range(ell) for j in range(i, ell)]
    normal = [sym(tensors.outer(t, m)) for t in tans for m in nors]
    normal += [
        sym(tensors.outer(nors[i], nors[j]))
        for i in range(n - ell)
        for j in range(i, n - ell)
    ]
    return tuple(tangential), tuple(normal)


def _reference_site_row(member, site, contract):
    ((beta, c),) = member.scalar.coeffs.items()
    weights = contract(member.coeff)
    labels = member.scalar.domain.indices
    relabelled = tuple(beta[labels.index(i)] for i in site.indices)
    positions = bn.lattice_position(len(site.indices), sum(beta))
    row = [Fraction(0)] * (len(positions) * len(weights))
    if sum(relabelled) == sum(beta):
        start = positions[relabelled] * len(weights)
        row[start:start + len(weights)] = [c * w for w in weights]
    return row


def _reference_div_row(member, grads):
    ((beta, c),) = member.scalar.coeffs.items()
    rows = member.coeff if isinstance(member.coeff[0], tuple) else (member.coeff,)
    positions = bn.lattice_position(len(beta), sum(beta) - 1)
    out = [Fraction(0)] * (len(positions) * len(rows))
    for k, b in enumerate(beta):
        if b:
            start = positions[beta[:k] + (b - 1,) + beta[k + 1:]] * len(rows)
            out[start:start + len(rows)] = [c * b * dot(row, grads[k]) for row in rows]
    return out


# ------------------------------------------------------------- gradients


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 10**6))
def test_integer_gradients_are_the_solved_gradients_over_their_least_denominator(n, seed):
    simplex = random_simplex(random.Random(seed), n)
    rows, den = integer_gradients(simplex)
    assert den > 0
    assert linalg.integer_form(x for row in _reference_gradients(simplex) for x in row)[1] == den
    assert [[Fraction(x, den) for x in row] for row in rows] == _reference_gradients(simplex)


# ------------------------------------------------------------- tn_split


@pytest.mark.parametrize("n,ell", [(n, ell) for n in (2, 3) for ell in range(n + 1)])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_tn_split_equals_the_fraction_reference(n, ell, data):
    vector = st.tuples(*[_rationals()] * n).filter(any)
    f = SubSimplexId(tuple(range(ell + 1)), n)
    frame = Frame(
        f,
        tuple(data.draw(vector) for _ in range(ell)),
        tuple(data.draw(vector) for _ in range(n - ell)),
    )
    for space in (Family.FACE, Family.TRACELESS, Family.SYMMETRIC):
        split = tensors.tn_split(f, frame, space)
        assert (split.tangential_basis, split.normal_basis) == _reference_tn_split(f, frame, space)
        for value in split.tangential_basis + split.normal_basis:
            assert all(isinstance(x, Fraction) for x in tensors.flatten(value))


# ------------------------------------------------------------- invert


@st.composite
def square_matrices(draw):
    """Rational square matrices with many exact zeros."""
    m = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Fraction(0)), _rationals())
    return [[draw(entry) for _ in range(m)] for _ in range(m)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(square_matrices())
def test_fraction_free_invert_is_the_exact_inverse(a):
    assume(linalg.det(a) != 0)
    rows = linalg.invert(a)
    # Integer rows, each over its least positive denominator.
    assert all(d > 0 and gcd(d, *row) == 1 for row, d in zip(rows, rows.denominators))
    assert all(type(x) is int for row in rows for x in row)
    inv = rational_rows(rows)
    m = len(a)
    eye = [[int(i == j) for j in range(m)] for i in range(m)]
    assert [[sum(inv[i][k] * a[k][j] for k in range(m)) for j in range(m)] for i in range(m)] == eye
    assert [[sum(a[i][k] * inv[k][j] for k in range(m)) for j in range(m)] for i in range(m)] == eye
    # The integer inverse of the scaled matrix over one denominator: A' (N / d) == I.
    flat, _ = linalg.integer_form(x for row in a for x in row)
    ints = [flat[i * m:(i + 1) * m] for i in range(m)]
    n_ints, d = linalg.invert(ints).over_one_denominator()
    assert d > 0 and gcd(d, *(x for row in n_ints for x in row)) == 1
    assert [[sum(ints[i][k] * n_ints[k][j] for k in range(m)) for j in range(m)] for i in range(m)] == [
        [d * x for x in row] for row in eye
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(square_matrices(), st.data())
def test_fraction_free_invert_rejects_a_singular_matrix(a, data):
    m = len(a)
    # the last row becomes a rational combination of the others (zero if m == 1)
    weights = [data.draw(_rationals()) for _ in range(m - 1)]
    a[-1] = [sum((w * row[j] for w, row in zip(weights, a)), Fraction(0)) for j in range(m)]
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert(a)
    flat, _ = linalg.integer_form(x for row in a for x in row)
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert([flat[i * m:(i + 1) * m] for i in range(m)])


# ------------------------------------------------------------- row kernels


_ROW_CASES = [
    (Family.FACE, 2, 2),
    (Family.TRACELESS, 2, 2),
    (Family.SYMMETRIC, 2, 3),
    (Family.FACE, 3, 2),
    (Family.TRACELESS, 3, 2),
    (Family.SYMMETRIC, 3, 2),
]


def _contractions(n: int, matrix: bool, rng: random.Random):
    """(Fraction contract, integer Contraction) pairs of the kinds the
    conformity statements use: the whole value, a normal component and,
    for matrices, a normal-normal component."""

    def vector():
        while True:
            v = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n))
            if any(v):
                return v

    normal, left, right = vector(), vector(), vector()
    out = [
        (tensors.flatten, tensors.FLATTEN),
        (partial(contract_normal, normal=normal), tensors.normal_contraction(normal)),
    ]
    if matrix:
        out.append((
            partial(assembly._contract_normal_normal, left=left, right=right),
            assembly._normal_normal_contraction(left, right),
        ))
    return out


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(_ROW_CASES), st.integers(0, 10**6))
def test_integer_site_and_div_rows_match_the_fraction_reference(case, seed):
    family, n, r = case
    rng = random.Random(seed)
    simplex = random_simplex(rng, n)
    basis = spaces.decompose(family, simplex, r)
    rows, den = spaces.div_rows(basis, simplex)
    grads = _reference_gradients(simplex)
    assert [[Fraction(x, den) for x in row] for row in rows] == [
        _reference_div_row(m, grads) for m in basis.members
    ]
    matrix = family is not Family.FACE
    for contract, contraction in _contractions(n, matrix, rng):
        for ell in range(n + 1):
            for site in enumerate_subsimplices(n, ell):
                rows, den = spaces.site_rows(basis, site, contraction)
                for j, m in enumerate(basis.members):
                    expected = _reference_site_row(m, site, contract)
                    if j not in rows:
                        assert not any(expected)
                        continue
                    assert [Fraction(x, den) for x in rows[j]] == expected
