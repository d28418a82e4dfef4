"""Exact polynomial algebra in homogeneous barycentric monomial form.

A polynomial is stored as a map from lattice multi-indices α (all of one
degree r, aligned with the vertex labels of its domain sub-simplex) to
rational coefficients of λ^α.  Keeping the form homogeneous makes products
plain convolutions and makes equality at a common degree coefficient-wise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, prod
from typing import Mapping, Sequence

from .records import Record
from .simplex import SubSimplexId

MultiIndex = tuple[int, ...]


def full_domain(n: int) -> SubSimplexId:
    return SubSimplexId(tuple(range(n + 1)), n)


def lattice(num_labels: int, degree: int) -> list[MultiIndex]:
    """All multi-indices of the given degree, lexicographically ascending."""
    if num_labels == 1:
        return [(degree,)]
    out = []
    for head in range(degree + 1):
        out.extend((head, *rest) for rest in lattice(num_labels - 1, degree - head))
    return out


@cache
def lattice_position(num_labels: int, degree: int) -> dict[MultiIndex, int]:
    """Position of each multi-index in lattice(num_labels, degree); shared, read-only."""
    return {alpha: k for k, alpha in enumerate(lattice(num_labels, degree))}


def space_dim(dim_f: int, degree: int) -> int:
    """dim ℙ_degree on a sub-simplex of dimension dim_f."""
    if degree < 0:
        return 0
    return comb(degree + dim_f, dim_f)


class BernsteinPoly(Record):
    """Homogeneous polynomial of one degree on one sub-simplex domain.

    Equal polynomials may differ in degree, so it is not hashable.  It is
    not a tuple either, so one polynomial is told apart from a tuple of
    them, one per component, by isinstance.
    """

    __slots__ = ("domain", "degree", "coeffs")

    def __init__(self, domain: SubSimplexId, degree: int, coeffs: Mapping[MultiIndex, Fraction]):
        width = len(domain.indices)
        clean = {}
        for alpha, c in coeffs.items():
            value = c if isinstance(c, Fraction) else Fraction(c)
            if value == 0:
                continue
            if len(alpha) != width or any(a < 0 for a in alpha) or sum(alpha) != degree:
                raise ValueError(f"multi-index {alpha} invalid for degree {degree}")
            clean[tuple(alpha)] = value
        init = object.__setattr__
        init(self, "domain", domain)
        init(self, "degree", degree)
        init(self, "coeffs", clean)

    def __repr__(self) -> str:
        return f"BernsteinPoly(domain={self.domain!r}, degree={self.degree!r}, coeffs={self.coeffs!r})"

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, BernsteinPoly):
            return NotImplemented
        if self.domain != other.domain:
            return False
        r = max(self.degree, other.degree)
        return elevate(self, r).coeffs == elevate(other, r).coeffs

    __hash__ = None

    def __add__(self, other: "BernsteinPoly") -> "BernsteinPoly":
        if self.domain != other.domain:
            raise ValueError("domain mismatch")
        r = max(self.degree, other.degree)
        a, b = elevate(self, r), elevate(other, r)
        out = dict(a.coeffs)
        for alpha, c in b.coeffs.items():
            out[alpha] = out.get(alpha, Fraction(0)) + c
        return BernsteinPoly(self.domain, r, out)

    def __neg__(self) -> "BernsteinPoly":
        return BernsteinPoly(self.domain, self.degree, {a: -c for a, c in self.coeffs.items()})

    def __sub__(self, other: "BernsteinPoly") -> "BernsteinPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BernsteinPoly):
            return multiply(self, other)
        return BernsteinPoly(
            self.domain, self.degree, {a: c * Fraction(other) for a, c in self.coeffs.items()}
        )

    __rmul__ = __mul__


def zero(domain: SubSimplexId, degree: int = 0) -> BernsteinPoly:
    return BernsteinPoly(domain, degree, {})


def constant(domain: SubSimplexId, value) -> BernsteinPoly:
    width = len(domain.indices)
    return BernsteinPoly(domain, 0, {(0,) * width: Fraction(value)})


def one(domain: SubSimplexId) -> BernsteinPoly:
    return constant(domain, 1)


def monomial(domain: SubSimplexId, alpha: Sequence[int], coeff=1) -> BernsteinPoly:
    alpha = tuple(alpha)
    return BernsteinPoly(domain, sum(alpha), {alpha: Fraction(coeff)})


def barycentric(domain: SubSimplexId, label: int) -> BernsteinPoly:
    """λ_label as a degree-1 polynomial on the domain."""
    if label not in domain.indices:
        raise ValueError(f"label {label} not in domain {domain.indices}")
    pos = domain.indices.index(label)
    alpha = tuple(int(k == pos) for k in range(len(domain.indices)))
    return monomial(domain, alpha)


def monomial_basis(domain: SubSimplexId, degree: int) -> list[BernsteinPoly]:
    return [monomial(domain, alpha) for alpha in lattice(len(domain.indices), degree)]


def multiply(p: BernsteinPoly, q: BernsteinPoly) -> BernsteinPoly:
    if p.domain != q.domain:
        raise ValueError("domain mismatch")
    out: dict[MultiIndex, Fraction] = {}
    for a, ca in p.coeffs.items():
        for b, cb in q.coeffs.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return BernsteinPoly(p.domain, p.degree + q.degree, out)


def elevate(p: BernsteinPoly, target_degree: int) -> BernsteinPoly:
    """Same polynomial rewritten at a higher homogeneous degree."""
    if target_degree < p.degree:
        raise ValueError(f"cannot elevate degree {p.degree} down to {target_degree}")
    width = len(p.domain.indices)
    unity = BernsteinPoly(p.domain, 1, {tuple(int(k == i) for k in range(width)): Fraction(1) for i in range(width)})
    out = p
    for _ in range(target_degree - p.degree):
        out = multiply(out, unity)
    return out


def restrict(p: BernsteinPoly, f: SubSimplexId) -> BernsteinPoly:
    """Set λ_i = 0 for labels i outside f; the result lives on f."""
    if not p.domain.contains(f):
        raise ValueError(f"{f.indices} is not a sub-simplex of the domain {p.domain.indices}")
    positions = [p.domain.indices.index(i) for i in f.indices]
    keep = set(positions)
    out: dict[MultiIndex, Fraction] = {}
    for alpha, c in p.coeffs.items():
        if any(a and k not in keep for k, a in enumerate(alpha)):
            continue
        out[tuple(alpha[k] for k in positions)] = c
    return BernsteinPoly(f, p.degree, out)


def extend(p: BernsteinPoly, target: SubSimplexId) -> BernsteinPoly:
    """Reinterpret multi-indices on a larger vertex set (zeros elsewhere)."""
    if not target.contains(p.domain):
        raise ValueError("target does not contain the polynomial's domain")
    positions = [target.indices.index(i) for i in p.domain.indices]
    width = len(target.indices)
    out: dict[MultiIndex, Fraction] = {}
    for alpha, c in p.coeffs.items():
        key = [0] * width
        for k, a in enumerate(alpha):
            key[positions[k]] = a
        out[tuple(key)] = c
    return BernsteinPoly(target, p.degree, out)


def moment(alpha: MultiIndex, ell: int) -> Fraction:
    """∫_f λ^α ds / |f| = ℓ! α! / (|α|+ℓ)! on an ℓ-dimensional sub-simplex f,
    α indexed by the labels of f (the Dirichlet formula).  On a vertex
    (ℓ = 0) this is 1, point evaluation."""
    return Fraction(factorial(ell) * prod(map(factorial, alpha)), factorial(sum(alpha) + ell))


def integrate(p: BernsteinPoly, f: SubSimplexId) -> Fraction:
    """∫_f p ds / |f|, exact: the integral with the measure divided out.

    Each monomial contributes its coefficient times moment(α, ℓ).  The
    polynomial is restricted to f first, so coefficients supported off f
    drop out, matching the zero set of the barycentric coordinates.
    """
    restricted = p if p.domain == f else restrict(p, f)
    ell = f.dim
    total = Fraction(0)
    for alpha, c in restricted.coeffs.items():
        total += c * moment(alpha, ell)
    return total


def coeff_vector(p: BernsteinPoly, degree: int) -> list[Fraction]:
    """Coefficients over the full lattice of the given degree, lex order."""
    q = elevate(p, degree)
    keys = lattice(len(p.domain.indices), degree)
    return [q.coeffs.get(alpha, Fraction(0)) for alpha in keys]
