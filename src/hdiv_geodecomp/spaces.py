"""Shape-function spaces, their sub-simplex decompositions, traces, and div.

Every basis member is one scalar monomial c·λ^β times one constant
coefficient (a vector or a matrix from the tagged constrained space), so
its traces and divergence are relabellings of β, and ranks of whole spaces
reduce to exact integer elimination on coefficient vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from typing import Sequence

from . import bernstein as bn
from . import linalg, tensors
from .checks import FAIL, PASS, SKIPPED, CheckResult
from .simplex import Simplex, SubSimplexId, barycentric_gradients, build_frame, dot, enumerate_subsimplices, max_normalized
from .tensors import AffineField, SpaceTag


# Input spellings accepted for a family besides its value.
FAMILY_ALIASES = {"vector": "face"}


class Family(Enum):
    LAGRANGE = "lagrange"
    FACE = "face"
    TRACELESS = "traceless"
    SYMMETRIC = "symmetric"

    @classmethod
    def _missing_(cls, value):
        alias = FAMILY_ALIASES.get(value)
        return None if alias is None else cls(alias)

    @property
    def space_tag(self) -> SpaceTag | None:
        if self is Family.LAGRANGE:
            return None
        if self is Family.FACE:
            return SpaceTag.VECTOR
        if self is Family.TRACELESS:
            return SpaceTag.TRACELESS
        return SpaceTag.SYMMETRIC

    def constrained_dim(self, n: int) -> int:
        tag = self.space_tag
        return 1 if tag is None else tag.dim(n)


@dataclass(frozen=True)
class Provenance:
    sub_simplex: SubSimplexId
    component: str  # "tangential" | "normal" | "lattice"


@dataclass(frozen=True)
class ShapeFunction:
    """scalar(x) · coeff, with the coefficient constant over the simplex."""

    scalar: bn.BernsteinPoly
    coeff: tuple
    provenance: Provenance

    @property
    def monomial(self) -> tuple[bn.MultiIndex, Fraction]:
        """(β, c) of a scalar c·λ^β; raises ValueError on any other scalar."""
        ((beta, c),) = self.scalar.coeffs.items()
        return beta, c


def site_row(member: ShapeFunction, site: SubSimplexId, contract) -> list[Fraction]:
    """The member restricted to a site, its coefficient contracted, over the
    site's lattice × the components of contract(coeff), component fastest.
    Restriction keeps the entries of β at the site's labels: zero unless
    supp β ⊆ site, else c·λ^β relabelled, at one lattice position."""
    beta, c = member.monomial
    weights = contract(member.coeff)
    labels = member.scalar.domain.indices
    relabelled = tuple(beta[labels.index(i)] for i in site.indices)
    positions = bn.lattice_position(len(site.indices), sum(beta))
    row = [Fraction(0)] * (len(positions) * len(weights))
    if sum(relabelled) == sum(beta):
        start = positions[relabelled] * len(weights)
        row[start:start + len(weights)] = [c * w for w in weights]
    return row


@dataclass(frozen=True)
class SpaceBasis:
    family: Family
    n: int
    degree: int
    members: tuple[ShapeFunction, ...]


def _scalar_coeff() -> tuple:
    return (Fraction(1),)


@cache
def decompose(family: Family, simplex: Simplex, degree: int, frame_convention: str = "edge_tangents_face_normals") -> SpaceBasis:
    """Sub-simplex decomposition of ℙ_degree(T; family space).

    Members are b_f · (monomial on f) · (tangential or normal direction),
    grouped by sub-simplex.  Each member scalar is certified to be exactly
    λ^β with supp β = f and each coefficient a value of the family space,
    so full exact rank certifies a basis and the direct sum.  Members with
    different β have disjoint support, so that rank is the sum over β of
    the rank of the coefficients sharing λ^β.
    """
    if degree < 1:
        raise ValueError("decompositions start at degree 1")
    n = simplex.dim
    tag = family.space_tag
    members: list[ShapeFunction] = []
    for ell in range(n + 1):
        for f in enumerate_subsimplices(n, ell):
            lattice_dim = bn.space_dim(ell, degree - ell - 1)
            if lattice_dim == 0:
                continue
            bubble_poly = bn.bubble(f)
            scalars = [
                bn.multiply(bubble_poly, bn.extend(mono, bubble_poly.domain))
                for mono in bn.monomial_basis(f, degree - ell - 1)
            ]
            if tag is None:
                members.extend(
                    ShapeFunction(s, _scalar_coeff(), Provenance(f, "lattice"))
                    for s in scalars
                )
                continue
            frame = build_frame(simplex, f, frame_convention)
            split = tensors.tn_split(f, frame, tag)
            for s in scalars:
                members.extend(
                    ShapeFunction(s, c, Provenance(f, "tangential"))
                    for c in split.tangential_basis
                )
                members.extend(
                    ShapeFunction(s, c, Provenance(f, "normal"))
                    for c in split.normal_basis
                )
    expected = family.constrained_dim(n) * bn.space_dim(n, degree)
    if len(members) != expected or _rank_by_monomial(members, tag) != expected:
        raise AssertionError(
            f"decomposition of {family.value} n={n} r={degree} is not a basis"
        )
    return SpaceBasis(family, n, degree, tuple(members))


def _is_value(coeff: tuple, tag: SpaceTag | None) -> bool:
    """Whether a constant coefficient lies in the family's value space."""
    if tag is SpaceTag.TRACELESS:
        return tensors.trace(coeff) == 0
    return tag is not SpaceTag.SYMMETRIC or coeff == tensors.sym(coeff)


def _rank_by_monomial(members: Sequence[ShapeFunction], tag: SpaceTag | None) -> int:
    """Exact rank of members whose scalars are exactly λ^β supported exactly
    on their sub-simplices (so a member vanishes on every site that does not
    contain its sub-simplex) and whose coefficients lie in the value space."""
    by_monomial: dict[tuple, list[tuple]] = {}
    values: dict[tuple, tuple] = {}
    for m in members:
        site = m.provenance.sub_simplex.indices
        values.setdefault(m.coeff, site)
        if len(m.scalar.coeffs) != 1:
            raise AssertionError(f"member scalar at {site} is not a monomial")
        beta, c = m.monomial
        if c != 1:
            raise AssertionError(f"member scalar at {site} has coefficient {c}, not 1")
        if tuple(i for i, e in zip(m.scalar.domain.indices, beta) if e) != site:
            raise AssertionError(f"member scalar at {site} is not supported exactly on it")
        by_monomial.setdefault(beta, []).append(tensors.flatten(m.coeff))
    for coeff, site in values.items():
        if not _is_value(coeff, tag):
            raise AssertionError(f"member coefficient at {site} is not a {tag.value} value")
    return sum(linalg.rank(rows) for rows in by_monomial.values())


def lattice_basis(family: Family, simplex: Simplex, degree: int) -> SpaceBasis:
    """The plain monomial × constrained-direction basis of the same space."""
    n = simplex.dim
    tag = family.space_tag
    domain = bn.full_domain(n)
    full = SubSimplexId(tuple(range(n + 1)), n)
    if tag is None:
        directions: Sequence = [_scalar_coeff()]
    elif tag is SpaceTag.VECTOR:
        directions = tensors.identity(n)
    else:
        frame = build_frame(simplex, full)
        split = tensors.tn_split(full, frame, tag)
        directions = list(split.tangential_basis + split.normal_basis)
    members = [
        ShapeFunction(mono, c, Provenance(full, "lattice"))
        for mono in bn.monomial_basis(domain, degree)
        for c in directions
    ]
    return SpaceBasis(family, n, degree, tuple(members))


def facet_normal(simplex: Simplex, facet: SubSimplexId):
    """Scaled normal of a facet: the gradient of its missing coordinate."""
    if facet.dim != simplex.dim - 1:
        raise ValueError("normal traces are defined on facets only")
    missing = facet.complement_labels()[0]
    return max_normalized(barycentric_gradients(simplex)[missing])


def trace_div(member: ShapeFunction, facet: SubSimplexId, normal: Sequence):
    """Normal trace on a facet: (coeff ∘ n_F) scaled by the restricted scalar.

    Returns one polynomial on the facet for vector coefficients, and a tuple
    of n polynomials (the components of coeff·n_F) for matrix coefficients.
    """
    if facet.dim != facet.parent_dim - 1:
        raise ValueError("normal traces are defined on facets only")
    restricted = bn.restrict(member.scalar, facet)
    traced = tuple(restricted * c for c in tensors.contract_normal(member.coeff, normal))
    return traced if isinstance(member.coeff[0], tuple) else traced[0]


def bubble_space(family: Family, simplex: Simplex, degree: int, frame_convention: str = "edge_tangents_face_normals") -> SpaceBasis:
    """Tangential members on positive-dimensional sub-simplices: ker(tr^div)."""
    if family is Family.LAGRANGE:
        raise ValueError("bubble spaces are defined for the vector/matrix families")
    if degree < 2:
        return SpaceBasis(family, simplex.dim, max(degree, 0), ())
    basis = decompose(family, simplex, degree, frame_convention)
    members = tuple(
        m
        for m in basis.members
        if m.provenance.component == "tangential" and m.provenance.sub_simplex.dim >= 1
    )
    return SpaceBasis(family, simplex.dim, degree, members)


def affine_field_polys(field: AffineField, simplex: Simplex) -> tuple[bn.BernsteinPoly, ...]:
    """Degree-1 Bernstein form of an affine field by vertex interpolation."""
    n = simplex.dim
    domain = bn.full_domain(n)
    values = [field(v) for v in simplex.vertices]
    comps = []
    for d in range(n):
        poly = bn.zero(domain, 1)
        for i in range(n + 1):
            poly = poly + values[i][d] * bn.barycentric(domain, i)
        comps.append(poly)
    return tuple(comps)


def div_row(member: ShapeFunction, simplex: Simplex) -> list[Fraction]:
    """div of one member over the lattice one degree below it, component
    fastest: div(c·λ^β·C) = Σ_k c·β_k·λ^(β−e_k)·(C∇λ_k), row-wise for a
    matrix C."""
    beta, c = member.monomial
    rows = member.coeff if isinstance(member.coeff[0], tuple) else (member.coeff,)
    grads = barycentric_gradients(simplex)
    positions = bn.lattice_position(len(beta), sum(beta) - 1)
    out = [Fraction(0)] * (len(positions) * len(rows))
    for k, b in enumerate(beta):
        if b:
            start = positions[beta[:k] + (b - 1,) + beta[k + 1:]] * len(rows)
            out[start:start + len(rows)] = [c * b * dot(row, grads[k]) for row in rows]
    return out


def div_codim_fields(family: Family, simplex: Simplex) -> list[tuple[bn.BernsteinPoly, ...]]:
    """The fields div(bubbles) are orthogonal to: 1, RT, or RM."""
    n = simplex.dim
    if family.space_tag is SpaceTag.VECTOR:
        return [(bn.one(bn.full_domain(n)),)]
    rt, rm = tensors.rigid_spaces(n)
    fields = rt if family is Family.TRACELESS else rm
    return [affine_field_polys(f, simplex) for f in fields]


_DIV_IMAGE_MIN_DEGREE = {
    Family.FACE: 2,
    Family.TRACELESS: 2,
    Family.SYMMETRIC: 3,
}


def verify_bubble_characterization(family: Family, simplex: Simplex, degree: int, frame_convention: str = "edge_tangents_face_normals") -> CheckResult:
    """Check 𝔹 = ker(tr^div) and injectivity of the trace on normal members.

    decompose certifies its tangential and normal members as a basis, so
    𝔹 = ker(tr^div) follows from three exact facts: the bubbles are the
    tangential members, their facet traces vanish, and the normal members'
    traces are independent."""
    name = f"bubble_characterization[{family.value},n={simplex.dim},r={degree}]"
    if family is Family.LAGRANGE:
        raise ValueError("bubble spaces are defined for the vector/matrix families")
    if degree < 2:
        return CheckResult(name, SKIPPED, {"reason": f"degree {degree} below 2"})
    basis = decompose(family, simplex, degree, frame_convention)
    normal_traces = [
        (facet, partial(tensors.contract_normal, normal=facet_normal(simplex, facet)))
        for facet in enumerate_subsimplices(simplex.dim, simplex.dim - 1)
    ]

    def stacked_trace(member: ShapeFunction) -> list[Fraction]:
        return [x for facet, contract in normal_traces for x in site_row(member, facet, contract)]

    bubbles = bubble_space(family, simplex, degree, frame_convention).members
    tangential = tuple(m for m in basis.members if m.provenance.component != "normal")
    nonzero_traces = sum(1 for m in bubbles if any(stacked_trace(m)))
    if bubbles != tangential or nonzero_traces:
        return CheckResult(name, FAIL, {
            "bubble_dim": len(bubbles),
            "tangential_members": len(tangential),
            "same_members": bubbles == tangential,
            "nonzero_traces": nonzero_traces,
            "identity": "ker(tr_div) == bubble span",
        })
    normal_members = [m for m in basis.members if m.provenance.component == "normal"]
    trace_rank = linalg.rank([stacked_trace(m) for m in normal_members])
    if trace_rank != len(normal_members):
        return CheckResult(name, FAIL, {
            "identity": "trace injective on normal members",
            "normal_members": len(normal_members),
            "trace_rank": trace_rank,
        })
    return CheckResult(name, PASS, {"bubble_dim": len(bubbles), "normal_members": len(normal_members)})


def verify_div_image(family: Family, simplex: Simplex, degree: int, frame_convention: str = "edge_tangents_face_normals") -> CheckResult:
    """Check rank(div 𝔹) = dim ℙ_{r−1}(target) − codim for the family, and
    that div 𝔹 is exactly L2-orthogonal to the codim fields (1, RT or RM),
    so the image is the orthogonal complement of those fields."""
    name = f"div_image[{family.value},n={simplex.dim},r={degree}]"
    if family is Family.LAGRANGE:
        raise ValueError("div images are defined for the vector/matrix families")
    threshold = _DIV_IMAGE_MIN_DEGREE[family]
    if degree < threshold:
        return CheckResult(
            name, SKIPPED, {"reason": f"degree {degree} below {threshold}"}
        )
    n = simplex.dim
    bubbles = bubble_space(family, simplex, degree, frame_convention)
    rows = [div_row(m, simplex) for m in bubbles.members]
    got = linalg.rank(rows)
    fields = div_codim_fields(family, simplex)
    codim = len(fields)
    expected = family.space_tag.div_width(n) * bn.space_dim(n, degree - 1) - codim
    witness = {"rank": got, "expected": expected, "codim": codim, "bubble_dim": len(bubbles.members)}
    if got != expected:
        return CheckResult(name, FAIL, witness)
    # ∫ div(b)·q over the simplex is linear in the lattice row of div(b).
    domain = bn.full_domain(n)
    monos = bn.monomial_basis(domain, degree - 1)
    non_orthogonal = 0
    for field in fields:
        weights = [bn.integrate(bn.multiply(mono, comp), domain) for mono in monos for comp in field]
        non_orthogonal += sum(1 for row in rows if tensors.dot(row, weights))
    if non_orthogonal:
        witness["non_orthogonal_pairs"] = non_orthogonal
        return CheckResult(name, FAIL, witness)
    return CheckResult(name, PASS, witness)
