"""Shape-function spaces, their sub-simplex decompositions, traces, and div.

Every basis member is one scalar monomial λ^β on the full simplex times
one constant coefficient (a vector or a matrix from the family's value
space), and is stored as that exponent and coefficient.  Its traces and
divergence are read off β, and ranks of whole spaces reduce to exact
integer elimination on coefficient vectors.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple, Sequence

from . import bernstein as bn
from . import linalg, tensors
from .checks import FAIL, PASS, SKIPPED, CheckResult
from .records import Record
from .simplex import Simplex, SubSimplexId, build_frame, dot, enumerate_subsimplices, integer_gradients
from .tensors import AffineField, Family


class Provenance(NamedTuple):
    sub_simplex: SubSimplexId
    component: str  # "tangential" | "normal" | "lattice"


class ShapeFunction(NamedTuple):
    """λ^beta · coeff on the full simplex, beta indexed by the vertex labels
    and the coefficient constant over the simplex."""

    beta: bn.MultiIndex
    coeff: tuple
    provenance: Provenance

    @property
    def scalar(self) -> bn.BernsteinPoly:
        return bn.monomial(bn.full_domain(len(self.beta) - 1), self.beta)


class IntegerCoefficients(NamedTuple):
    """The member coefficients of a basis as integer tensors over one
    denominator: member j's coefficient is values[ids[j]] / den entrywise.
    Members that share one coefficient object (the members of one
    sub-simplex direction across β) share one value, so per-coefficient
    work is keyed by that index."""

    values: tuple
    ids: tuple[int, ...]
    den: int


class SpaceBasis(Record, namedtuple("SpaceBasis", "family n degree members")):
    """A basis of one family's degree-r space on an n-simplex: family, n,
    degree, and members, a tuple of ShapeFunction."""

    @cached_property
    def coefficients(self) -> IntegerCoefficients:
        """Computed once per basis; decompose caches its basis per cell."""
        index: dict[int, int] = {}
        distinct = []
        ids = []
        for m in self.members:
            i = index.get(id(m.coeff))
            if i is None:
                i = index[id(m.coeff)] = len(distinct)
                distinct.append(m.coeff)
            ids.append(i)
        values, den = tensors.integer_values(distinct)
        return IntegerCoefficients(tuple(values), tuple(ids), den)

    @cached_property
    def supports(self) -> tuple[frozenset[int], ...]:
        """The labels of supp β of each member: a member restricts to zero
        on every site not containing them."""
        return tuple(frozenset(label for label, b in enumerate(m.beta) if b) for m in self.members)


def site_row(member: ShapeFunction, site: SubSimplexId, weights: Sequence[int]) -> list[int]:
    """The member restricted to a site, over the site's lattice × the
    components of its contracted coefficient, component fastest.  weights
    are those components, as site_rows hands them over.  Restriction keeps
    the entries of β at the site's labels: zero unless supp β ⊆ site, else
    the weights at one lattice position."""
    beta = member.beta
    restricted = tuple(beta[i] for i in site.indices)
    positions = bn.lattice_position(len(site.indices), sum(beta))
    row = [0] * (len(positions) * len(weights))
    if sum(restricted) == sum(beta):
        start = positions[restricted] * len(weights)
        row[start:start + len(weights)] = weights
    return row


def site_rows(basis: SpaceBasis, site: SubSimplexId, contraction: tensors.Contraction) -> tuple[dict[int, list[int]], int]:
    """The rows of the members that do not vanish on a site, by member
    position, as integers over one denominator: the coefficient
    denominator times the contraction's.  Members left out restrict to
    zero.  Each distinct coefficient is contracted once."""
    coeffs = basis.coefficients
    labels = set(site.indices)
    contracted: dict[int, tuple] = {}
    rows = {}
    for j, (m, support) in enumerate(zip(basis.members, basis.supports)):
        if not support <= labels:
            continue
        i = coeffs.ids[j]
        weights = contracted.get(i)
        if weights is None:
            weights = contracted[i] = tuple(contraction.apply(coeffs.values[i]))
        rows[j] = site_row(m, site, weights)
    return rows, coeffs.den * contraction.den


def _scalar_coeff() -> tuple:
    return (Fraction(1),)


def _bubble_exponent(f: SubSimplexId, alpha: bn.MultiIndex) -> bn.MultiIndex:
    """β of b_f·λ^α: 1 + α on the labels of f, 0 elsewhere."""
    beta = [0] * (f.parent_dim + 1)
    for label, a in zip(f.indices, alpha):
        beta[label] = 1 + a
    return tuple(beta)


@cache
def decompose(family: Family, simplex: Simplex, degree: int) -> SpaceBasis:
    """Sub-simplex decomposition of ℙ_degree(T; family space).

    Members are b_f · (monomial on f) · (tangential or normal direction),
    grouped by sub-simplex; the directions come from simplex.build_frame at
    f.  b_f·λ^α is the one monomial λ^β with β = 1 + α on the labels of f
    and 0 elsewhere, so supp β = f and members are written as β directly.
    Each coefficient is certified to be a value of the family space, so
    full exact rank certifies a basis and the direct sum.  Members with
    different β are independent monomials, so that rank is the sum over β
    of the rank of the coefficients sharing λ^β.
    """
    if degree < 1:
        raise ValueError("decompositions start at degree 1")
    n = simplex.dim
    members: list[ShapeFunction] = []
    for ell in range(n + 1):
        for f in enumerate_subsimplices(n, ell):
            if degree - ell - 1 < 0:
                continue
            betas = [_bubble_exponent(f, alpha) for alpha in bn.lattice(ell + 1, degree - ell - 1)]
            if family is Family.LAGRANGE:
                members.extend(
                    ShapeFunction(beta, _scalar_coeff(), Provenance(f, "lattice"))
                    for beta in betas
                )
                continue
            frame = build_frame(simplex, f)
            split = tensors.tn_split(f, frame, family)
            for beta in betas:
                members.extend(
                    ShapeFunction(beta, c, Provenance(f, "tangential"))
                    for c in split.tangential_basis
                )
                members.extend(
                    ShapeFunction(beta, c, Provenance(f, "normal"))
                    for c in split.normal_basis
                )
    basis = SpaceBasis(family, n, degree, tuple(members))
    expected = family.constrained_dim(n) * bn.space_dim(n, degree)
    if len(members) != expected or _rank_by_monomial(basis) != expected:
        raise AssertionError(
            f"decomposition of {family.value} n={n} r={degree} is not a basis"
        )
    return basis


def _is_value(coeff: tuple, family: Family) -> bool:
    """Whether a constant coefficient (rational or integer) lies in the
    family's value space."""
    if family is Family.TRACELESS:
        return tensors.trace(coeff) == 0
    return family is not Family.SYMMETRIC or all(
        x == coeff[j][i] for i, row in enumerate(coeff) for j, x in enumerate(row)
    )


def _rank_by_monomial(basis: SpaceBasis) -> int:
    """Exact rank of the members, the sum over β of the rank of the
    coefficients sharing λ^β, after certifying that every coefficient lies
    in the value space.  The coefficients are read from the basis's
    integer table.  decompose gives every β on a sub-simplex the same
    coefficient objects, so each distinct tuple of coefficient ids is
    ranked once and counted once per β that holds it."""
    coeffs = basis.coefficients
    sites: dict[int, tuple] = {}
    by_monomial: dict[tuple, list[int]] = {}
    for m, i in zip(basis.members, coeffs.ids):
        sites.setdefault(i, m.provenance.sub_simplex.indices)
        by_monomial.setdefault(m.beta, []).append(i)
    for i, site in sites.items():
        if not _is_value(coeffs.values[i], basis.family):
            raise AssertionError(f"member coefficient at {site} is not a {basis.family.value} value")
    betas_per_set = Counter(tuple(ids) for ids in by_monomial.values())
    return sum(
        count * linalg.rank([tensors.flatten(coeffs.values[i]) for i in ids])
        for ids, count in betas_per_set.items()
    )


def bubble_space(family: Family, simplex: Simplex, degree: int) -> SpaceBasis:
    """Tangential members on positive-dimensional sub-simplices: ker(tr^div)."""
    if family is Family.LAGRANGE:
        raise ValueError("bubble spaces are defined for the vector/matrix families")
    if degree < 2:
        return SpaceBasis(family, simplex.dim, max(degree, 0), ())
    basis = decompose(family, simplex, degree)
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


def div_row(member: ShapeFunction, weights: Sequence[Sequence[int]]) -> list[int]:
    """div of one member over the lattice one degree below it, component
    fastest: div(λ^β·C) = Σ_k β_k·λ^(β−e_k)·(C∇λ_k), row-wise for a matrix
    C.  weights[k] are the components of C∇λ_k, as div_rows hands them
    over."""
    beta = member.beta
    width = len(weights[0])
    positions = bn.lattice_position(len(beta), sum(beta) - 1)
    out = [0] * (len(positions) * width)
    for k, b in enumerate(beta):
        if b:
            start = positions[beta[:k] + (b - 1,) + beta[k + 1:]] * width
            out[start:start + width] = [b * w for w in weights[k]]
    return out


def div_rows(basis: SpaceBasis, simplex: Simplex) -> tuple[list[list[int]], int]:
    """div of every member, by member position, as integer rows over one
    denominator: the coefficient denominator times the gradient
    denominator.  Each distinct coefficient meets each gradient once."""
    coeffs = basis.coefficients
    grads, grad_den = integer_gradients(simplex)
    contracted = [
        [tuple(dot(row, g) for row in (v if isinstance(v[0], tuple) else (v,))) for g in grads]
        for v in coeffs.values
    ]
    rows = [div_row(m, contracted[i]) for m, i in zip(basis.members, coeffs.ids)]
    return rows, coeffs.den * grad_den


def div_codim_fields(family: Family, simplex: Simplex) -> list[tuple[bn.BernsteinPoly, ...]]:
    """The fields div(bubbles) are orthogonal to: 1, RT, or RM."""
    n = simplex.dim
    if family is Family.FACE:
        return [(bn.one(bn.full_domain(n)),)]
    rt, rm = tensors.rigid_spaces(n)
    fields = rt if family is Family.TRACELESS else rm
    return [affine_field_polys(f, simplex) for f in fields]


def verify_bubble_characterization(family: Family, simplex: Simplex, degree: int) -> CheckResult:
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
    basis = decompose(family, simplex, degree)
    facets = [
        (facet, tensors.normal_contraction(build_frame(simplex, facet).normals[0]))
        for facet in enumerate_subsimplices(simplex.dim, simplex.dim - 1)
    ]
    # A normal trace has one component per component of a divergence.
    zero = [0] * (bn.space_dim(simplex.dim - 1, degree) * family.div_width(simplex.dim))

    def stacked_traces(space: SpaceBasis) -> list[list[int]]:
        # A facet's rows share one denominator, which neither the zero
        # test nor the rank reads.
        per_facet = [site_rows(space, facet, contraction)[0] for facet, contraction in facets]
        return [
            [x for rows in per_facet for x in rows.get(j, zero)]
            for j in range(len(space.members))
        ]

    bubble_basis = bubble_space(family, simplex, degree)
    bubbles = bubble_basis.members
    tangential = tuple(m for m in basis.members if m.provenance.component != "normal")
    nonzero_traces = sum(1 for row in stacked_traces(bubble_basis) if any(row))
    if bubbles != tangential or nonzero_traces:
        return CheckResult(name, FAIL, {
            "bubble_dim": len(bubbles),
            "tangential_members": len(tangential),
            "same_members": bubbles == tangential,
            "nonzero_traces": nonzero_traces,
            "identity": "ker(tr_div) == bubble span",
        })
    normal_members = tuple(m for m in basis.members if m.provenance.component == "normal")
    trace_rank = linalg.rank(stacked_traces(basis._replace(members=normal_members)))
    if trace_rank != len(normal_members):
        return CheckResult(name, FAIL, {
            "identity": "trace injective on normal members",
            "normal_members": len(normal_members),
            "trace_rank": trace_rank,
        })
    return CheckResult(name, PASS, {"bubble_dim": len(bubbles), "normal_members": len(normal_members)})


def verify_div_image(family: Family, simplex: Simplex, degree: int) -> CheckResult:
    """Check rank(div 𝔹) = dim ℙ_{r−1}(target) − codim for the family, and
    that div 𝔹 is exactly L2-orthogonal to the codim fields (1, RT or RM),
    so the image is the orthogonal complement of those fields."""
    name = f"div_image[{family.value},n={simplex.dim},r={degree}]"
    threshold = family.div_image_min_degree
    if degree < threshold:
        return CheckResult(
            name, SKIPPED, {"reason": f"degree {degree} below {threshold}"}
        )
    n = simplex.dim
    bubbles = bubble_space(family, simplex, degree)
    rows, _ = div_rows(bubbles, simplex)
    got = linalg.rank(rows)
    fields = div_codim_fields(family, simplex)
    codim = len(fields)
    expected = family.div_width(n) * bn.space_dim(n, degree - 1) - codim
    witness = {"rank": got, "expected": expected, "codim": codim, "bubble_dim": len(bubbles.members)}
    if got != expected:
        return CheckResult(name, FAIL, witness)
    # ∫ div(b)·q over the simplex is linear in the lattice row of div(b);
    # scaling the weights to integers keeps which pairings are zero.
    domain = bn.full_domain(n)
    monos = bn.monomial_basis(domain, degree - 1)
    non_orthogonal = 0
    for field in fields:
        weights, _ = linalg.integer_form(
            bn.integrate(bn.multiply(mono, comp), domain) for mono in monos for comp in field
        )
        non_orthogonal += sum(1 for row in rows if tensors.dot(row, weights))
    if non_orthogonal:
        witness["non_orthogonal_pairs"] = non_orthogonal
        return CheckResult(name, FAIL, witness)
    return CheckResult(name, PASS, witness)
