"""Bernstein-form algebra: products, elevation, bubbles, exact integrals."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from numpy.polynomial.legendre import leggauss

from hdiv_geodecomp import bernstein as bn
from hdiv_geodecomp.simplex import SubSimplexId, reference_simplex

from conftest import random_simplex
from polynomial_reference import bubble, derivative, evaluate

TRI = bn.full_domain(2)
TET = bn.full_domain(3)


def random_poly(rng, domain, degree):
    coeffs = {
        alpha: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for alpha in bn.lattice(len(domain.indices), degree)
    }
    return bn.BernsteinPoly(domain, degree, coeffs)


def random_barycentric(rng, width):
    raw = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(width)]
    total = sum(raw)
    return [x / total for x in raw]


def test_multiply_two_coordinates():
    p = bn.barycentric(TRI, 0) * bn.barycentric(TRI, 1)
    assert p.coeffs == {(1, 1, 0): Fraction(1)}
    assert p.degree == 2


def test_multiply_by_unit_is_identity_up_to_degree():
    rng = random.Random(2)
    p = random_poly(rng, TRI, 3)
    assert p * bn.one(TRI) == p


def test_multiply_by_unity_sum_equals_elevation():
    rng = random.Random(3)
    p = random_poly(rng, TRI, 2)
    unity = bn.barycentric(TRI, 0) + bn.barycentric(TRI, 1) + bn.barycentric(TRI, 2)
    assert (unity * p).coeffs == bn.elevate(p, 3).coeffs


def test_elevate_on_edge_hand_oracle():
    edge = SubSimplexId((0, 1), 1)
    lifted = bn.elevate(bn.barycentric(edge, 0), 2)
    assert lifted.coeffs == {(2, 0): Fraction(1), (1, 1): Fraction(1)}


def test_elevate_zero_and_downward_error():
    assert bn.elevate(bn.zero(TRI), 4).is_zero()
    with pytest.raises(ValueError):
        bn.elevate(bn.elevate(bn.one(TRI), 2), 1)


def test_elevate_preserves_point_values():
    rng = random.Random(5)
    p = random_poly(rng, TET, 2)
    lifted = bn.elevate(p, 5)
    for _ in range(5):
        x = random_barycentric(rng, 4)
        assert evaluate(lifted, x) == evaluate(p, x)


def test_partition_of_unity():
    rng = random.Random(6)
    lifted = bn.elevate(bn.one(TRI), 4)
    for _ in range(5):
        x = random_barycentric(rng, 3)
        assert evaluate(lifted, x) == 1


def test_bubble_polynomials():
    edge = bubble(SubSimplexId((0, 1), 2))
    assert edge.degree == 2 and edge.coeffs == {(1, 1, 0): Fraction(1)}
    vertex = bubble(SubSimplexId((2,), 2))
    assert vertex.degree == 1 and vertex.coeffs == {(0, 0, 1): Fraction(1)}
    cell = bubble(SubSimplexId((0, 1, 2), 2))
    assert cell.coeffs == {(1, 1, 1): Fraction(1)}


def test_bubble_vanishes_off_its_simplex():
    for n in (2, 3):
        domain = bn.full_domain(n)
        for ell in range(n):
            for f in [s for s in _all_subs(n) if s.dim == ell]:
                b = bubble(f)
                for e in _all_subs(n):
                    restricted = bn.restrict(b, e)
                    if e.contains(f):
                        assert not restricted.is_zero()
                    else:
                        assert restricted.is_zero()


def _all_subs(n):
    out = []
    for ell in range(n + 1):
        out.extend(SubSimplexId(c, n) for c in itertools.combinations(range(n + 1), ell + 1))
    return out


def test_restrict_on_own_simplex():
    f = SubSimplexId((0, 1), 2)
    b = bubble(f)
    restricted = bn.restrict(b, f)
    assert restricted.coeffs == {(1, 1): Fraction(1)}


def test_restrict_requires_containment():
    p = bn.barycentric(SubSimplexId((0, 1), 3), 0)
    with pytest.raises(ValueError):
        bn.restrict(p, SubSimplexId((2, 3), 3))


def test_extend_restrict_round_trip():
    rng = random.Random(8)
    f = SubSimplexId((0, 2, 3), 3)
    p = random_poly(rng, f, 3)
    extended = bn.extend(p, TET)
    assert bn.restrict(extended, f) == p
    assert bn.extend(bn.zero(f), TET).is_zero()


def test_integral_of_one_is_the_measure():
    assert bn.integrate(bn.one(TRI), TRI) == 1


def test_edge_product_integral():
    edge = SubSimplexId((0, 1), 2)
    p = bubble(edge)
    assert bn.integrate(p, edge) == Fraction(1, 6)


def test_vertex_integral_is_point_value():
    rng = random.Random(10)
    p = random_poly(rng, TRI, 3)
    for i in range(3):
        got = bn.integrate(p, SubSimplexId((i,), 2))
        point = [Fraction(int(k == i)) for k in range(3)]
        assert got == evaluate(p, point)


def _gauss_mean(alpha, points=12):
    """Mean of λ^α over the unit simplex via iterated Gauss rules."""
    ell = len(alpha) - 1
    if ell == 0:
        return 1.0
    nodes, weights = leggauss(points)

    def level(depth, used):
        hi = 1.0 - used
        acc = 0.0
        for t, w in zip(nodes, weights):
            u = 0.5 * hi * (t + 1.0)
            f = u ** alpha[depth]
            if depth == ell:
                f *= (hi - u) ** alpha[0]
            else:
                f *= level(depth + 1, used + u)
            acc += w * f
        return acc * 0.5 * hi

    return level(1, 0.0) * factorial(ell)


def test_integration_formula_against_quadrature():
    rng = random.Random(77)
    for _ in range(100):
        ell = rng.randint(1, 3)
        degree = rng.randint(0, 8)
        cuts = sorted(rng.randint(0, degree) for _ in range(ell))
        alpha = []
        prev = 0
        for c in cuts + [degree]:
            alpha.append(c - prev)
            prev = c
        alpha = tuple(alpha)
        f = SubSimplexId(tuple(range(ell + 1)), ell)
        exact = bn.integrate(bn.monomial(f, alpha), f)
        approx = _gauss_mean(alpha)
        assert abs(float(exact) - approx) <= 1e-12 * max(1.0, abs(approx))


def test_derivative_directional_pairing():
    rng = random.Random(12)
    for n in (2, 3):
        simp = random_simplex(rng, n)
        domain = bn.full_domain(n)
        for i in range(n + 1):
            for j in range(n + 1):
                direction = simp.edge_vector(i, j)
                for ell in range(n + 1):
                    d = derivative(bn.barycentric(domain, ell), direction, simp)
                    expected = int(j == ell) - int(i == ell)
                    if expected == 0:
                        assert d.is_zero()
                    else:
                        assert d == bn.constant(domain, expected)


def test_derivative_of_constant_is_zero():
    simp = reference_simplex(3)
    assert derivative(bn.constant(TET, 7), (1, 2, 3), simp).is_zero()


def test_derivative_leibniz():
    rng = random.Random(13)
    simp = random_simplex(rng, 2)
    p = random_poly(rng, TRI, 2)
    q = random_poly(rng, TRI, 3)
    direction = (Fraction(1, 3), Fraction(-2, 5))
    left = derivative(p * q, direction, simp)
    right = derivative(p, direction, simp) * q + p * derivative(q, direction, simp)
    assert left == right


def test_derivative_requires_full_domain():
    simp = reference_simplex(2)
    edge_poly = bn.barycentric(SubSimplexId((0, 1), 2), 0)
    with pytest.raises(ValueError):
        derivative(edge_poly, (1, 0), simp)


def test_space_dimensions():
    for ell in range(4):
        for r in range(5):
            assert bn.space_dim(ell, r) == comb(r + ell, ell)
            assert len(bn.lattice(ell + 1, r)) == comb(r + ell, ell)
    assert bn.space_dim(2, -1) == 0


def test_lattice_is_lexicographic():
    keys = bn.lattice(3, 2)
    assert keys == sorted(keys)
    assert keys[0] == (0, 0, 2) and keys[-1] == (2, 0, 0)


def test_coeff_vector_round_trip():
    rng = random.Random(14)
    p = random_poly(rng, TRI, 1)
    vec = bn.coeff_vector(p, 3)
    assert len(vec) == bn.space_dim(2, 3)
    rebuilt = bn.BernsteinPoly(TRI, 3, dict(zip(bn.lattice(3, 3), vec)))
    assert rebuilt == p


def test_equality_across_degrees():
    lam0 = bn.barycentric(TRI, 0)
    assert bn.elevate(lam0, 3) == lam0
    assert lam0 != bn.barycentric(TRI, 1)
