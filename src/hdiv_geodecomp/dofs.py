"""Degree-of-freedom families for the decomposed element spaces.

A functional is a sum of terms, each pairing the field with one constant
direction and integrating against one weight polynomial on the functional's
site.  Point values at vertices are the same formula: the integral over a
zero-dimensional site is evaluation.  All values are exact rationals with
the site measure divided out, so the DoF matrix of a basis is a rational
matrix whose invertibility settles unisolvence.  It is built and read as
integer rows, each over its least positive denominator.  certify_unisolvence
settles it by exact elimination, one diagonal site block at a time (the
sites above k of merged facets form one block), and returns the CheckResult
a report prints, its witness carrying the pivot hashes of
linalg.echelon_data.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import gcd, lcm
from operator import add
from typing import NamedTuple

from . import bernstein as bn
from . import linalg, tensors
from .checks import FAIL, PASS, CheckResult
from .records import Record
from .simplex import (
    Simplex,
    SubSimplexId,
    build_frame,
    enumerate_subsimplices,
    reference_simplex,
)
from .spaces import SpaceBasis, bubble_space, decompose
from .tensors import Family

GLOBAL = "global_on_f"
FACEWISE = "facewise_on_F"
INTERIOR = "interior"

MOD_P0 = "mod_P0"
MOD_P1 = "mod_P1"


class DoFTerm(NamedTuple):
    weight: bn.BernsteinPoly  # lives on the functional's site
    direction: tuple  # vector or matrix


class DoFFunctional(Record, namedtuple("DoFFunctional", "site terms scope face")):
    """The sum of its terms (a tuple of DoFTerm) on one site.  scope is
    GLOBAL, FACEWISE or INTERIOR; face is the facet F of a facewise
    functional and None otherwise."""

    __slots__ = ()

    def __new__(cls, site: SubSimplexId, terms: tuple[DoFTerm, ...], scope: str, face: SubSimplexId | None = None):
        if (scope == FACEWISE) != (face is not None):
            raise ValueError("facewise functionals carry their facet, others none")
        for term in terms:
            if term.weight.domain != site:
                raise ValueError("weight polynomial must live on the site")
        return tuple.__new__(cls, (site, terms, scope, face))


def _moment(site, weight, direction, scope, face=None):
    return DoFFunctional(site, (DoFTerm(weight, direction),), scope, face)


class MomentTable:
    """Geometry-free moments of the member monomials of one degree on the n-simplex.

    entry(g, β, α) = ∫_g restrict(λ^β, g) λ^α ds / |g| for a member monomial
    λ^β on the full simplex and a weight monomial λ^α on the site g.  It is
    zero unless supp β ⊆ g (λ^β restricts to zero on g), and otherwise the
    closed form bn.moment(γ, ℓ) = ℓ!·γ! / (|γ|+ℓ)!, with ℓ = dim g and γ the
    exponent of the restricted monomial plus α.  It depends on the labels
    alone, not on the vertices, so one table serves every cell of a mesh.
    Entries are computed on first use; their number is bounded by the
    sites, member monomials and weight monomials of (n, degree).
    """

    def __init__(self, n: int, degree: int):
        self.domain = bn.full_domain(n)
        self.degree = degree
        self._entries: dict[tuple, Fraction] = {}

    def entry(self, site: SubSimplexId, beta: bn.MultiIndex, alpha: bn.MultiIndex) -> Fraction:
        key = (site.indices, beta, alpha)
        value = self._entries.get(key)
        if value is None:
            restricted = bn.restrict(bn.monomial(self.domain, beta), site)
            if restricted.is_zero():
                value = Fraction(0)
            else:
                (beta_g,) = restricted.coeffs
                value = bn.moment(tuple(map(add, beta_g, alpha)), site.dim)
            self._entries[key] = value
        return value

    def integral(self, site: SubSimplexId, beta: bn.MultiIndex, weight: bn.BernsteinPoly) -> Fraction | int:
        """∫_site restrict(λ^β, site) · weight / |site|, linear over the weight's entries."""
        if len(beta) != len(self.domain.indices) or sum(beta) != self.degree:
            raise ValueError("member monomial does not belong to this moment table")
        total = 0
        for alpha, c_alpha in weight.coeffs.items():
            moment = self.entry(site, beta, alpha)
            if moment:
                term = moment if c_alpha == 1 else c_alpha * moment
                total = total + term if total else term
        return total


@lru_cache(maxsize=8)
def moment_table(n: int, degree: int) -> MomentTable:
    return MomentTable(n, degree)


def _functional_rows(functionals, basis: SpaceBasis) -> linalg.IntegerRows:
    """N_i(phi_j) for every functional and member, measure divided out.

    Each member is λ^β times its coefficient, so a term contributes
    moment × pairing.  The moment comes from the geometry-free table, once
    per term and distinct β supported on the functional's site (the others
    are zero; the supported β are found once per site).  The pairing comes
    from one table over the basis's distinct integer coefficients and the
    distinct term directions, the directions told apart by identity and
    scaled to integers once, and is the Frobenius product for matrix
    values, else the dot product.  A row accumulates numerator × pairing
    in integers, one vector per moment denominator, and is returned over
    its least positive denominator.
    """
    table = moment_table(basis.n, basis.degree)
    coeffs = basis.coefficients
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for j, (m, coeff) in enumerate(zip(basis.members, coeffs.ids)):
        groups.setdefault(m.beta, []).append((j, coeff))
    direction_ids: dict[int, int] = {}
    distinct = []
    term_directions = []
    for nf in functionals:
        ids = []
        for t in nf.terms:
            d = direction_ids.get(id(t.direction))
            if d is None:
                d = direction_ids[id(t.direction)] = len(distinct)
                distinct.append(t.direction)
            ids.append(d)
        term_directions.append(ids)
    directions, direction_den = tensors.integer_values(distinct)
    pair = tensors.frobenius if directions and isinstance(directions[0][0], tuple) else tensors.dot
    # pairing[d][c], computed on first use: a functional pairs only with
    # the coefficients of members supported on its site.
    pairing = [[None] * len(coeffs.values) for _ in directions]
    scale = coeffs.den * direction_den
    width = len(basis.members)
    live_at: dict[SubSimplexId, list] = {}
    rows, dens = [], []
    for nf, ids in zip(functionals, term_directions):
        live = live_at.get(nf.site)
        if live is None:
            site = set(nf.site.indices)
            live = live_at[nf.site] = [
                (beta, cols) for beta, cols in groups.items() if basis.supports[cols[0][0]] <= site
            ]
        by_den: dict[int, list[int]] = {}
        for term, d in zip(nf.terms, ids):
            pairs = pairing[d]
            direction = directions[d]
            for beta, cols in live:
                moment = table.integral(nf.site, beta, term.weight)
                if not moment:
                    continue
                acc = by_den.get(moment.denominator)
                if acc is None:
                    acc = by_den[moment.denominator] = [0] * width
                p = moment.numerator
                for j, coeff in cols:
                    x = pairs[coeff]
                    if x is None:
                        x = pairs[coeff] = pair(coeffs.values[coeff], direction)
                    if x:
                        acc[j] += p * x
        if len(by_den) == 1:
            ((den, row),) = by_den.items()
        else:
            den = lcm(*by_den)
            row = [0] * width
            for q, acc in by_den.items():
                f = den // q
                for j, x in enumerate(acc):
                    if x:
                        row[j] += f * x
        den *= scale
        g = gcd(den, *row)
        rows.append([x // g for x in row] if g > 1 else row)
        dens.append(den // g)
    return linalg.IntegerRows(rows, dens)


class DoFSet(NamedTuple):
    family: Family
    simplex: Simplex
    degree: int
    continuity_order: int | None  # k; None for the scalar family
    functionals: tuple[DoFFunctional, ...]
    merged_faces: tuple[SubSimplexId, ...] = ()

    @property
    def count(self) -> int:
        return len(self.functionals)


def _validate_params(family: Family, n: int, degree: int, k: int | None) -> None:
    if degree < family.min_degree:
        raise ValueError(f"{family.value} DoFs need degree >= {family.min_degree}, got {degree}")
    if family is Family.LAGRANGE and k is None:
        return
    orders = family.k_range(n)
    if not orders:  # the matrix families in dimension 1
        raise ValueError(f"{family.value} elements need dimension >= 2, got {n}")
    if k not in orders:
        raise ValueError(
            f"continuity order {k} outside [{orders.start}, {orders.stop - 1}] for {family.value} in dimension {n}"
        )


def resolve_continuity_order(family: Family, n: int, degree: int, k: int | None) -> int | None:
    """The admissible continuity order for (family, n, degree), or ValueError.

    An omitted order defaults to the least continuous admissible one: -1 for
    the vector (face) family, 0 for the matrix families, none for the scalar
    family.
    """
    if k is None and family is not Family.LAGRANGE:
        k = family.k_range(n).start
    _validate_params(family, n, degree, k)
    return k


def build_dofs(family: Family, simplex: Simplex | int, degree: int, continuity_order: int | None, frames=None) -> DoFSet:
    """The moment functionals of one element, grouped by site, interior last.

    Boundary sites of dimension at most the continuity order carry globally
    oriented moments; higher-dimensional boundary sites carry one moment set
    per containing facet (plus, for symmetric values, global normal-normal
    moments); the interior block pairs against the div bubble space.

    Directions come from the frame of each site, simplex.build_frame unless
    frames, a function of the site, overrides it; facewise directions on a
    facet F pair with n_F, the one normal of F's frame.  Mesh assembly
    passes the mesh-shared frames, so that two cells meeting at a site emit
    identical functionals.
    """
    if isinstance(simplex, int):
        simplex = reference_simplex(simplex)
    if frames is None:
        frames = partial(build_frame, simplex)
    n = simplex.dim
    k = continuity_order
    _validate_params(family, n, degree, k)
    vector = family is Family.FACE
    units = tensors.identity(n)
    out: list[DoFFunctional] = []
    traceless_facewise: dict[SubSimplexId, list] = {}  # shared by a facet's sub-sites

    for ell in range(n):
        for f in enumerate_subsimplices(n, ell):
            monos = bn.monomial_basis(f, degree - ell - 1)
            if not monos:
                continue
            if family is Family.LAGRANGE:
                out.extend(_moment(f, m, (Fraction(1),), GLOBAL) for m in monos)
                continue
            frame = frames(f)
            if ell == 0 and not vector:
                # A basis of the whole constrained space at the vertex.
                directions = tensors.tn_split(f, frame, family).normal_basis
                out.extend(_moment(f, m, d, GLOBAL) for m in monos for d in directions)
                continue
            # Each direction is built once per site and shared by its
            # monomials, so the DoF matrix pairs it once.
            if ell <= k:
                if vector:
                    directions = frame.normals
                elif family is Family.TRACELESS:
                    directions = [tensors.outer(e, nrm) for nrm in frame.normals for e in units]
                else:
                    directions = _symmetric_global_directions(frame)
                out.extend(_moment(f, m, d, GLOBAL) for m in monos for d in directions)
                continue
            if family is Family.SYMMETRIC:
                nn = frame.normals
                directions = [
                    tensors.outer(nn[j], nn[i])
                    for i in range(len(nn))
                    for j in range(i, len(nn))
                ]
                out.extend(_moment(f, m, d, GLOBAL) for m in monos for d in directions)
            for face in f.faces_containing():
                n_face = frames(face).normals[0]
                if vector:
                    directions = [n_face]
                elif family is Family.TRACELESS:
                    directions = traceless_facewise.get(face)
                    if directions is None:
                        directions = traceless_facewise[face] = [tensors.outer(e, n_face) for e in units]
                else:
                    directions = [tensors.outer(t, n_face) for t in frame.tangents]
                out.extend(_moment(f, m, d, FACEWISE, face) for m in monos for d in directions)

    full = bn.full_domain(n)
    if family is Family.LAGRANGE:
        out.extend(
            _moment(full, m, (Fraction(1),), INTERIOR)
            for m in bn.monomial_basis(full, degree - n - 1)
        )
    else:
        for b in bubble_space(family, simplex, degree).members:
            out.append(_moment(full, b.scalar, b.coeff, INTERIOR))

    dofs = DoFSet(family, simplex, degree, k, tuple(out))
    expected = family.constrained_dim(n) * bn.space_dim(n, degree)
    if dofs.count != expected:
        raise AssertionError(
            f"DoF count {dofs.count} != space dimension {expected} for "
            f"{family.value} n={n} r={degree} k={k}"
        )
    return dofs


def _symmetric_global_directions(frame) -> list[tuple]:
    """Independent global directions on a low-dimensional site, symmetric values.

    Pairing with every ambient direction would duplicate the two mixed
    normal-normal moments of a symmetric field, so the directions mirror the
    normal component basis: every tangent against every normal, and normal
    pairs taken once with the second index at least the first.
    """
    out = []
    for j, nrm in enumerate(frame.normals):
        out.extend(tensors.outer(t, nrm) for t in frame.tangents)
        out.extend(tensors.outer(frame.normals[i], nrm) for i in range(j + 1))
    return out


def dof_matrix(dofs: DoFSet, basis: SpaceBasis) -> linalg.IntegerRows:
    """Square matrix N_i(phi_j) of the functionals against the basis, as
    integer rows over their least positive denominators."""
    if basis.family is not dofs.family or basis.n != dofs.simplex.dim or basis.degree != dofs.degree:
        raise ValueError("DoF set and basis describe different spaces")
    if dofs.count != len(basis.members):
        raise ValueError(
            f"count mismatch: {dofs.count} functionals vs {len(basis.members)} members"
        )
    return _functional_rows(dofs.functionals, basis)


def _block_label(dofs: DoFSet, site: SubSimplexId, interior: bool) -> str:
    """The block of a functional or member at site: "interior", "merged"
    for the sites above k inside merged facets, or "f" and its labels."""
    if interior:
        return "interior"
    if any(F.contains(site) for F in dofs.merged_faces) and site.dim > dofs.continuity_order:
        return "merged"
    return "f" + "".join(str(i) for i in site.indices)


def _row_blocks(dofs: DoFSet) -> dict[str, list[int]]:
    """Functional indices by block label, in first-appearance order."""
    blocks: dict[str, list[int]] = {}
    for idx, nf in enumerate(dofs.functionals):
        blocks.setdefault(_block_label(dofs, nf.site, nf.scope == INTERIOR), []).append(idx)
    return blocks


def _column_blocks(dofs: DoFSet, basis: SpaceBasis, labels) -> dict[str, list[int]] | None:
    """Member indices grouped under the row blocks' labels, in their order;
    None if a member falls in no row block.

    Boundary blocks take the non-tangential members of their own sites; the
    interior block takes every tangential member plus whatever sits on the
    full simplex.  Tangential members vanish under every boundary functional,
    which is what makes the blocked elimination equivalent to the dense one.
    """
    placed: dict[str, list[int]] = {label: [] for label in labels}
    for col, member in enumerate(basis.members):
        f = member.provenance.sub_simplex
        interior = member.provenance.component == "tangential" or f.dim == f.parent_dim
        cols = placed.get(_block_label(dofs, f, interior))
        if cols is None:
            return None
        cols.append(col)
    return placed


class SiteBlockError(AssertionError):
    """The DoF matrix is not block lower-triangular over its site blocks."""


def site_blocks(dofs: DoFSet, basis: SpaceBasis, matrix) -> list[tuple[str, list[int], list[int]]]:
    """(label, rows, columns) of each site block, in functional order.

    The blocks are returned only after checking that they tile the matrix
    and that every block above the diagonal is exactly zero, so the matrix
    is block lower-triangular: invertible iff every diagonal block is.
    """
    rows = _row_blocks(dofs)
    cols = _column_blocks(dofs, basis, rows)
    if cols is None or [len(r) for r in rows.values()] != [len(c) for c in cols.values()]:
        raise SiteBlockError("site blocks do not tile the DoF matrix")
    blocks = [(label, rows[label], cols[label]) for label in rows]
    for bi, (row_label, row_idx, _) in enumerate(blocks):
        for col_label, _, col_idx in blocks[bi + 1 :]:
            for i in row_idx:
                row = matrix[i]
                if any(row[j] for j in col_idx):
                    raise SiteBlockError(
                        f"functional at {row_label} does not annihilate "
                        f"member block {col_label}"
                    )
    return blocks


def _block_rows(matrix: linalg.IntegerRows, row_idx, col_idx) -> list[list[int]]:
    """The rows of one block, each divided by its gcd with the row's
    denominator: the integers integer_form makes of the rational block row."""
    out = []
    for i in row_idx:
        part = [matrix[i][j] for j in col_idx]
        g = gcd(matrix.denominators[i], *part)
        out.append([x // g for x in part] if g > 1 else part)
    return out


def certify_unisolvence(
    family: Family | None = None,
    simplex: Simplex | int | None = None,
    degree: int | None = None,
    continuity_order: int | None = None,
    dofs: DoFSet | None = None,
) -> CheckResult:
    """Exact invertibility certificate for the DoF matrix of one element.

    The matrix is eliminated one diagonal site block at a time, after
    site_blocks has checked that every block above the diagonal is exactly
    zero; the sites above k of merged facets form one block.  The witness
    records the matrix size, the method, the block sizes, a digest of the
    blocks' pivot hashes and, on failure, the first rank-deficient block.
    """
    if dofs is None:
        if family is None or simplex is None or degree is None:
            raise ValueError("pass either a DoF set or (family, simplex, degree, k)")
        dofs = build_dofs(family, simplex, degree, continuity_order)
    basis = decompose(dofs.family, dofs.simplex, dofs.degree)
    matrix = dof_matrix(dofs, basis)
    size = len(matrix)
    failure = None
    block_sizes = []
    digest = linalg.sha256()
    for label, row_idx, col_idx in site_blocks(dofs, basis, matrix):
        rank, block_hash = linalg.echelon_data(_block_rows(matrix, row_idx, col_idx))
        digest.update(f"{label}:{block_hash};".encode())
        block_sizes.append([label, len(row_idx)])
        if rank != len(row_idx):
            failure = {"block": label, "rank": rank, "size": len(row_idx)}
            break
    witness = {"size": size, "method": "site_blocks", "block_sizes": block_sizes, "pivot_hash": digest.hexdigest()}
    if failure is not None:
        witness["failure"] = failure
    return CheckResult(
        name=f"unisolvence[{dofs.family.value} n={dofs.simplex.dim} r={dofs.degree} k={dofs.continuity_order}]",
        status=PASS if failure is None else FAIL,
        witness=witness,
    )


def _bubble_on(domain: SubSimplexId, f: SubSimplexId) -> bn.BernsteinPoly:
    alpha = tuple(int(label in f.indices) for label in domain.indices)
    return bn.monomial(domain, alpha)


def _face_bubble_collection(F: SubSimplexId, degree: int, k: int) -> list[bn.BernsteinPoly]:
    """b_f * P_{degree-l-1}(f) over the sub-simplices of F of dimension > k."""
    out = []
    for ell in range(k + 1, F.dim + 1):
        for labels in combinations(F.indices, ell + 1):
            f = SubSimplexId(labels, F.parent_dim)
            b = _bubble_on(F, f)
            out.extend(
                bn.multiply(b, bn.extend(m, F)) for m in bn.monomial_basis(f, degree - ell - 1)
            )
    return out


class QuotientFaceSpace(NamedTuple):
    face: SubSimplexId
    degree: int
    continuity_order: int
    mode: str
    complement: tuple[bn.BernsteinPoly, ...]  # orthogonal to the fixed part
    fixed_part: tuple[bn.BernsteinPoly, ...]  # P_0 or P_1 on the face

    @property
    def full_basis(self) -> tuple[bn.BernsteinPoly, ...]:
        return self.complement + self.fixed_part


def quotient_face_space(F: SubSimplexId, degree: int, continuity_order: int, mode: str) -> QuotientFaceSpace:
    """Orthogonal complement of P_s inside the facet bubble collection, plus P_s.

    The collection spans the facet polynomials not reachable by moments on
    sub-simplices of dimension at most the continuity order; splitting off
    P_s exactly (rational Gram solve) and re-adjoining it yields the weight
    space of the merged facet moment.  Unisolvence of the associated scalar
    moment set is certified by exact rank before returning.
    """
    if mode not in (MOD_P0, MOD_P1):
        raise ValueError(f"unknown quotient mode {mode!r}")
    k = continuity_order
    dim_F = F.dim
    if not -1 <= k <= dim_F - 1:
        raise ValueError(f"continuity order {k} outside [-1, {dim_F - 1}]")
    s = 0 if mode == MOD_P0 else 1
    min_degree = k + 3 if (mode == MOD_P1 and k == dim_F - 1) else k + 2
    if degree < min_degree:
        raise ValueError(
            f"{mode} quotient on a {dim_F}-face needs degree >= {min_degree}, got {degree}"
        )

    bubbles = _face_bubble_collection(F, degree, k)
    if s == 0:
        fixed = [bn.one(F)]
    else:
        fixed = [bn.barycentric(F, label) for label in F.indices]
    gram = [[bn.integrate(bn.multiply(q, b), F) for b in bubbles] for q in fixed]
    if linalg.rank(gram) != len(fixed):
        raise AssertionError(f"P_{s} is not resolved by the bubble collection on {F.indices}")
    combos = linalg.nullspace(gram, cols=len(bubbles))
    complement = []
    for combo in combos:
        poly = bn.zero(F)
        for c, b in zip(combo, bubbles):
            if c:
                poly = poly + c * b
        complement.append(poly)

    _certify_face_moments(F, degree, k, tuple(complement) + tuple(fixed))
    return QuotientFaceSpace(F, degree, k, mode, tuple(complement), tuple(fixed))


def _certify_face_moments(F: SubSimplexId, degree: int, k: int, face_weights) -> None:
    """Exact-rank unisolvence of low moments plus facet moments on P_degree(F)."""
    columns = bn.monomial_basis(F, degree)
    rows = []
    for ell in range(k + 1):
        for labels in combinations(F.indices, ell + 1):
            f = SubSimplexId(labels, F.parent_dim)
            for m in bn.monomial_basis(f, degree - ell - 1):
                rows.append(
                    [bn.integrate(bn.multiply(bn.restrict(v, f), m), f) for v in columns]
                )
    for w in face_weights:
        rows.append([bn.integrate(bn.multiply(v, w), F) for v in columns])
    if len(rows) != len(columns) or linalg.rank(rows) != len(columns):
        raise AssertionError(
            f"face moment system on {F.indices} is not unisolvent "
            f"(degree {degree}, continuity order {k})"
        )


def tangential_polynomial_fields(simplex: Simplex, F: SubSimplexId, degree: int) -> list[tuple]:
    """Facet-tangent fields q of degree `degree`+1 with q.x of degree `degree`+1.

    Fields are returned as per-tangent scalar weights against the facet frame
    tangents.  In the frame's edge chart the position coordinates are the
    barycentric functions of the non-base vertices, so the degree condition
    on q.x is a rational rank computation with no geometry in it.
    """
    r1 = degree + 1  # component degree of the field
    frame = build_frame(simplex, F)
    monos = bn.monomial_basis(F, r1)
    elevated = [bn.coeff_vector(m, r1 + 1) for m in monos]
    annihilator = linalg.nullspace(elevated, cols=bn.space_dim(F.dim, r1 + 1))
    candidates = []
    for t_pos in range(len(frame.tangents)):
        chart = bn.barycentric(F, F.indices[t_pos + 1])
        for m in monos:
            candidates.append((t_pos, m, bn.coeff_vector(bn.multiply(m, chart), r1 + 1)))
    constraint = [
        [tensors.dot(vec, z) for _, _, vec in candidates] for z in annihilator
    ]
    combos = linalg.nullspace(constraint, cols=len(candidates))
    fields = []
    for combo in combos:
        weights = [bn.zero(F) for _ in frame.tangents]
        for c, (t_pos, m, _) in zip(combo, candidates):
            if c:
                weights[t_pos] = weights[t_pos] + c * m
        fields.append(tuple(weights))
    return fields


class MergedFaceDoFs(NamedTuple):
    dofs: DoFSet
    face: SubSimplexId
    removed: tuple[DoFFunctional, ...]
    added: tuple[DoFFunctional, ...]
    span_check: CheckResult


def merge_face_dofs(dofs: DoFSet, F: SubSimplexId) -> MergedFaceDoFs:
    """Replace the per-sub-simplex facewise moments on one facet.

    Vector moments collapse to plain facet moments (full P_r for the least
    continuous variant, the quotient weights otherwise), traceless moments to
    the quotient weights in every ambient direction, and the symmetric mixed
    moments to facet-tangential polynomial fields paired with the facet
    normal.  Span equality against the retained functionals on the facet is
    asserted by exact rank before the new set is returned.
    """
    family = dofs.family
    simplex = dofs.simplex
    n = simplex.dim
    if F.dim != n - 1 or F.parent_dim != n:
        raise ValueError("merging happens on one facet of the element")
    if family is Family.LAGRANGE:
        raise ValueError("the scalar family has no facewise functionals")
    if F in dofs.merged_faces:
        raise ValueError(f"facet {F.indices} already merged")
    old = tuple(nf for nf in dofs.functionals if nf.scope == FACEWISE and nf.face == F)
    if not old:
        raise ValueError(f"no facewise functionals on facet {F.indices}")
    k = dofs.continuity_order
    r = dofs.degree
    frame = build_frame(simplex, F)
    n_face = frame.normals[0]

    added: list[DoFFunctional] = []
    if family is Family.FACE:
        if k == -1:
            weights = bn.monomial_basis(F, r)
        else:
            weights = quotient_face_space(F, r, k, MOD_P0).full_basis
        added = [_moment(F, w, n_face, FACEWISE, F) for w in weights]
    elif family is Family.TRACELESS:
        weights = quotient_face_space(F, r, k, MOD_P1).full_basis
        directions = [tensors.outer(e, n_face) for e in tensors.identity(n)]
        added = [_moment(F, w, d, FACEWISE, F) for w in weights for d in directions]
    else:
        if k != 0:
            raise ValueError("the symmetric merge is stated for continuity order 0")
        directions = [tensors.outer(t, n_face) for t in frame.tangents]
        for field in tangential_polynomial_fields(simplex, F, r - 2):
            terms = tuple(
                DoFTerm(w, d)
                for w, d in zip(field, directions)
                if not w.is_zero()
            )
            added.append(DoFFunctional(F, terms, FACEWISE, F))

    if len(added) != len(old):
        raise AssertionError(
            f"merged facet set has {len(added)} functionals, expected {len(old)}"
        )
    check = _span_equality_on_facet(dofs, F, old, tuple(added))
    if check.status != PASS:
        raise AssertionError(f"merged facet moments change the span: {check.witness}")

    kept = [nf for nf in dofs.functionals if not (nf.scope == FACEWISE and nf.face == F)]
    combined = kept + added
    combined.sort(key=lambda nf: (nf.site.dim, nf.site.indices))
    merged = dofs._replace(
        functionals=tuple(combined),
        merged_faces=dofs.merged_faces + (F,),
    )
    return MergedFaceDoFs(merged, F, old, tuple(added), check)


def _span_equality_on_facet(dofs: DoFSet, F: SubSimplexId, old, new) -> CheckResult:
    """rank(context+old) == rank(context+new) == rank(all) on the element space."""
    context = [
        nf
        for nf in dofs.functionals
        if nf.scope == GLOBAL and F.contains(nf.site)
    ]
    basis = decompose(dofs.family, dofs.simplex, dofs.degree)

    def rows(functionals):
        return _functional_rows(functionals, basis)

    base = rows(context)
    old_rows = rows(old)
    new_rows = rows(new)
    rank_old = linalg.rank(base + old_rows)
    rank_new = linalg.rank(base + new_rows)
    rank_all = linalg.rank(base + old_rows + new_rows)
    status = PASS if rank_old == rank_new == rank_all else FAIL
    return CheckResult(
        f"facet_merge_span[{dofs.family.value},f={''.join(map(str, F.indices))}]",
        status,
        {
            "rank_with_old": rank_old,
            "rank_with_new": rank_new,
            "rank_with_both": rank_all,
            "context": len(context),
            "facewise": len(old),
        },
    )
