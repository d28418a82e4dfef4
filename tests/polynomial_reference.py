"""Polynomial references the tests compare the package's integer kernels
with: point values, bubbles, directional derivatives and normal traces of
Bernstein-form polynomials, built term by term from their definitions, and
the plain monomial × direction basis of each element space."""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Sequence

from hdiv_geodecomp import bernstein as bn
from hdiv_geodecomp import tensors
from hdiv_geodecomp.spaces import Provenance, ShapeFunction, SpaceBasis
from hdiv_geodecomp.simplex import Simplex, SubSimplexId, barycentric_gradients, build_frame, dot
from hdiv_geodecomp.tensors import Family


def evaluate(p: bn.BernsteinPoly, barycentric: Sequence) -> Fraction:
    """Value at a point given by barycentric weights for the domain labels."""
    point = [Fraction(x) for x in barycentric]
    if len(point) != len(p.domain.indices):
        raise ValueError("barycentric point length mismatch")
    total = Fraction(0)
    for alpha, c in p.coeffs.items():
        total += c * prod((point[k] ** a for k, a in enumerate(alpha)), start=Fraction(1))
    return total


def bubble(f: SubSimplexId) -> bn.BernsteinPoly:
    """b_f = product of the barycentric coordinates of f, on the full simplex."""
    domain = bn.full_domain(f.parent_dim)
    out = bn.one(domain)
    for label in f.indices:
        out = bn.multiply(out, bn.barycentric(domain, label))
    return out


def derivative(p: bn.BernsteinPoly, direction: Sequence, simplex: Simplex) -> bn.BernsteinPoly:
    """Directional derivative d·∇p, exact; degree drops by one."""
    n = simplex.dim
    if p.domain.indices != tuple(range(n + 1)):
        raise ValueError("derivatives require a polynomial on the full simplex")
    d = [Fraction(x) for x in direction]
    slopes = [dot(d, g) for g in barycentric_gradients(simplex)]
    if p.degree == 0:
        return bn.zero(p.domain)
    out: dict[tuple[int, ...], Fraction] = {}
    for alpha, c in p.coeffs.items():
        for k, a in enumerate(alpha):
            if a == 0 or slopes[k] == 0:
                continue
            key = tuple(x - int(i == k) for i, x in enumerate(alpha))
            out[key] = out.get(key, Fraction(0)) + c * a * slopes[k]
    return bn.BernsteinPoly(p.domain, p.degree - 1, out)


def contract_normal(value, normal: Sequence) -> tuple[Fraction, ...]:
    """Components of the normal contraction in Fractions: A n for a matrix,
    (v·n,) for a vector.  A one-component value (scalar, or a vector in one
    dimension) is returned as is, so the sign of a 1D normal never enters.
    The reference for tensors.normal_contraction."""
    if value and isinstance(value[0], tuple):
        return tensors.mat_vec(value, normal)
    if len(value) == 1:
        return (value[0],)
    return (dot(value, normal),)


def trace_div(member: ShapeFunction, facet: SubSimplexId, normal: Sequence):
    """Normal trace on a facet: (coeff ∘ n_F) scaled by the restricted scalar.

    Returns one polynomial on the facet for vector coefficients, and a tuple
    of n polynomials (the components of coeff·n_F) for matrix coefficients.
    """
    if facet.dim != facet.parent_dim - 1:
        raise ValueError("normal traces are defined on facets only")
    restricted = bn.restrict(member.scalar, facet)
    traced = tuple(restricted * c for c in contract_normal(member.coeff, normal))
    return traced if isinstance(member.coeff[0], tuple) else traced[0]


def lattice_basis(family: Family, simplex: Simplex, degree: int) -> SpaceBasis:
    """The plain monomial × constrained-direction basis of the same space
    that spaces.decompose splits geometrically."""
    n = simplex.dim
    full = bn.full_domain(n)
    if family is Family.LAGRANGE:
        directions: Sequence = [(Fraction(1),)]
    elif family is Family.FACE:
        directions = tensors.identity(n)
    else:
        split = tensors.tn_split(full, build_frame(simplex, full), family)
        directions = list(split.tangential_basis + split.normal_basis)
    members = [
        ShapeFunction(beta, c, Provenance(full, "lattice"))
        for beta in bn.lattice(n + 1, degree)
        for c in directions
    ]
    return SpaceBasis(family, n, degree, tuple(members))
