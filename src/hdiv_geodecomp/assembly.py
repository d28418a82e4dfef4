"""Mesh-level assembly of the decomposed element spaces.

Every cell builds its DoF set with mesh-shared frame vectors, so a
functional attached to a shared site comes out literally identical from
each incident cell and global identification reduces to exact key matching,
with no sign or scaling bookkeeping.  Basis functions are recovered cellwise
from the exact inverse of the local DoF matrix, which re-certifies local
unisolvence as a side effect.  Continuity across interior facets is a
statement about Bernstein coefficients and is checked exactly; discrete
inf-sup constants are the one place floating point enters.
"""

from __future__ import annotations

import contextlib
import marshal
import os
import random
import signal
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain, repeat
from math import comb, lcm, prod, sqrt
from operator import add, mul
from typing import NoReturn

from . import bernstein as bn
from . import linalg, tensors
from .checks import FAIL, PASS, SKIPPED, CheckResult
from .dofs import (
    FACEWISE,
    GLOBAL,
    INTERIOR,
    DoFTerm,
    SiteBlockError,
    build_dofs,
    dof_matrix,
    site_blocks,
)
from .mesh import Mesh
from .records import Record
from .spaces import decompose, div_rows, site_rows
from .tensors import Family

# Eigenvalues of the inf-sup pencil below this are counted as kernel modes.
KERNEL_THRESHOLD = 1e-10


class AssemblyError(ValueError):
    """Raised when a mesh and a DoF family cannot be stitched together."""


class GlobalSpace(Record, namedtuple("GlobalSpace", "mesh family degree continuity_order cell_dofs local_to_global keys")):
    """An assembled space: per-cell DoF sets plus the identification table.

    keys[g] is the hashable identity of global DoF g; local_to_global[c][i]
    is the global index of cell c's i-th functional; cell_dofs[c] is cell
    c's DoFSet.  Cell dual bases and cell div rows are computed on demand
    and cached per instance, outside the fields.
    """

    @property
    def dim(self) -> int:
        return len(self.keys)

    @cached_property
    def _dual_cache(self) -> dict:
        return {}

    @cached_property
    def _div_cache(self) -> dict:
        return {}

    @cached_property
    def scopes(self) -> tuple[str, ...]:
        """The scope of each global DoF: "interior" (private to one cell),
        "facewise" (a moment on one facet) or "shared" (a global moment on a
        site and every cell around it)."""
        labels = {INTERIOR: "interior", FACEWISE: "facewise", GLOBAL: "shared"}
        return tuple(labels[key[0]] for key in self.keys)

    @cached_property
    def interior_split(self) -> tuple[tuple[list[int], list[int]], ...]:
        """Per cell, the local indices of its interior DoFs and of the rest,
        which it may share with its neighbours, each in local order."""
        interior = [scope == "interior" for scope in self.scopes]
        return tuple(
            ([i for i, g in enumerate(l2g) if interior[g]], [i for i, g in enumerate(l2g) if not interior[g]])
            for l2g in self.local_to_global
        )

    @cached_property
    def dim_q(self) -> int:
        """Dimension of the discontinuous div target: the degree r-1 lattice
        of every cell, one copy per component of a divergence."""
        n = self.mesh.dim
        return self.family.div_width(n) * bn.space_dim(n, self.degree - 1) * len(self.mesh.cells)

    @property
    def label(self) -> str:
        """The space as check names spell it."""
        return (
            f"{self.family.value} n={self.mesh.dim} r={self.degree} "
            f"k={self.continuity_order} cells={len(self.mesh.cells)}"
        )

    def cell_basis(self, cell_index: int):
        return decompose(self.family, self.mesh.cell_simplices[cell_index], self.degree)

    def dual_coefficients(self, cell_index: int) -> tuple[list[list[int]], int]:
        """Exact inverse of the cell DoF matrix as an integer matrix N over
        the least positive denominator d: column i of N / d is the i-th dual
        basis function expanded over the cell's decomposition members.

        The matrix is block lower-triangular over its site blocks, so the
        inverse is one small inverse per site plus block forward substitution.
        """
        hit = self._dual_cache.get(cell_index)
        if hit is not None:
            return hit
        dofs = self.cell_dofs[cell_index]
        basis = self.cell_basis(cell_index)
        mat = dof_matrix(dofs, basis)
        cell = self.mesh.cells[cell_index]
        try:
            blocks = site_blocks(dofs, basis, mat)
        except SiteBlockError as exc:
            raise AssemblyError(f"cell {cell}: {exc}") from exc
        try:
            inv = linalg.invert_block_lower(mat, blocks)
        except linalg.SingularMatrixError as exc:
            raise AssemblyError(f"cell {cell} has a singular DoF matrix: {exc}") from exc
        self._dual_cache[cell_index] = inv
        return inv

    def div_rows(self, cell_index: int) -> tuple[list[list[int]], int]:
        """Per member of the cell basis, its div over the degree r-1 lattice,
        component fastest: integer rows over one denominator."""
        hit = self._div_cache.get(cell_index)
        if hit is None:
            simplex = self.mesh.cell_simplices[cell_index]
            hit = self._div_cache[cell_index] = div_rows(self.cell_basis(cell_index), simplex)
        return hit


def _weight_alpha(functional) -> tuple[int, ...]:
    (term,) = functional.terms
    items = list(term.weight.coeffs.items())
    if len(items) != 1 or items[0][1] != 1:
        raise AssemblyError("shared functionals must carry plain monomial weights")
    return items[0][0]


def assemble(mesh: Mesh, family: Family | str, degree: int, continuity_order: int | None = None) -> GlobalSpace:
    """Build per-cell DoF sets with shared directions and identify them.

    Functionals of global scope are merged across every cell containing
    their site; facewise functionals across the one or two cells containing
    their facet; interior moments stay cell-private.  The multiplicity of
    every merged DoF is checked against the incidence tables.
    """
    family = Family(family)
    key_index: dict[tuple, int] = {}
    expected_copies: list[int] = []
    seen_copies: list[int] = []
    cell_dofs = []
    tables = []
    for ci in range(len(mesh.cells)):
        dofs = build_dofs(
            family,
            mesh.cell_simplices[ci],
            degree,
            continuity_order,
            frames=partial(mesh.global_frame, ci),
        )
        l2g = []
        interior_seq = 0
        for nf in dofs.functionals:
            if nf.scope == INTERIOR:
                key = (INTERIOR, ci, interior_seq)
                interior_seq += 1
                copies = 1
            else:
                gsite = mesh.global_site(ci, nf.site)
                gface = mesh.global_site(ci, nf.face) if nf.face is not None else None
                key = (nf.scope, gsite, gface, _weight_alpha(nf), nf.terms[0].direction)
                owner = gface if gface is not None else gsite
                copies = len(mesh.cells_containing(owner))
            idx = key_index.get(key)
            if idx is None:
                idx = len(key_index)
                key_index[key] = idx
                expected_copies.append(copies)
                seen_copies.append(0)
            seen_copies[idx] += 1
            l2g.append(idx)
        if len(set(l2g)) != len(l2g):
            raise AssemblyError(f"cell {mesh.cells[ci]} repeats a global DoF key")
        cell_dofs.append(dofs)
        tables.append(tuple(l2g))
    bad = [i for i, (e, s) in enumerate(zip(expected_copies, seen_copies)) if e != s]
    if bad:
        raise AssemblyError(
            f"{len(bad)} global DoFs missing copies from incident cells; first: "
            f"{list(key_index)[bad[0]]}"
        )
    return GlobalSpace(
        mesh,
        family,
        degree,
        continuity_order,
        tuple(cell_dofs),
        tuple(tables),
        tuple(key_index),
    )


def lagrange_dim_formula(mesh: Mesh, degree: int) -> int:
    """Scalar continuous space: one lattice block per site of every dimension."""
    return sum(
        len(mesh.sub_simplices(ell)) * comb(degree - 1, ell)
        for ell in range(mesh.dim + 1)
    )


def face_dim_formula(mesh: Mesh, degree: int, continuity_order: int) -> int:
    """Normal-continuity vector space: shared low-dimensional normal moments,
    one facewise block per facet, and the div-bubble block per cell."""
    n, r, k = mesh.dim, degree, continuity_order
    shared = sum(
        len(mesh.sub_simplices(ell)) * (n - ell) * comb(r - 1, ell)
        for ell in range(0, k + 1)
    )
    per_facet = sum(comb(n, ell + 1) * comb(r - 1, ell) for ell in range(k + 1, n))
    per_cell = sum(comb(n + 1, ell + 1) * ell * comb(r - 1, ell) for ell in range(1, n + 1))
    return (
        shared
        + len(mesh.sub_simplices(n - 1)) * per_facet
        + len(mesh.cells) * per_cell
    )


def check_dims(space: GlobalSpace) -> CheckResult:
    """Compare the assembled dimension with the closed-form count, where one
    exists (scalar and vector families)."""
    family = space.family
    formula: int | None = None
    if family is Family.LAGRANGE:
        formula = lagrange_dim_formula(space.mesh, space.degree)
    elif family is Family.FACE:
        formula = face_dim_formula(space.mesh, space.degree, space.continuity_order)
    ok = formula is None or formula == space.dim
    return CheckResult(
        name=f"dims[{space.label}]",
        status=PASS if ok else FAIL,
        witness={"assembled": space.dim, "formula": formula},
    )


# ---------------------------------------------------------------------------
# assembled rows and conformity


def cell_rows(space: GlobalSpace, cell_index: int, member_rows: dict[int, list[int]], den: int) -> tuple[list[list[int]], int]:
    """Rows of the cell's assembled basis functions from rows of its members.

    member_rows maps a member index j to its integer row, read over den;
    members left out have a zero row.  Row i is sum_j dual[j][i] *
    member_rows[j], returned as integer rows over one positive denominator,
    the dual's times den.  Only members with a nonzero row enter the sum.
    """
    dual, d_dual = space.dual_coefficients(cell_index)
    support = [j for j, row in member_rows.items() if any(row)]
    if not support:
        width = max(map(len, member_rows.values()))
        return [[0] * width for _ in space.local_to_global[cell_index]], 1
    coeffs = list(zip(*(dual[j] for j in support)))
    return linalg._int_matmul(coeffs, [member_rows[j] for j in support]), d_dual * den


def _contract_normal_normal(coeff, left, right) -> tuple:
    return (tensors.dot(left, tensors.mat_vec(coeff, right)),)


def _normal_normal_contraction(left, right) -> tensors.Contraction:
    """The normal-normal component left·C·right, read on integers."""
    lints, lden = linalg.integer_form(left)
    rints, rden = linalg.integer_form(right)
    return tensors.Contraction(partial(_contract_normal_normal, left=lints, right=rints), lden * rden)


def _statements(space: GlobalSpace) -> list[tuple[str, tuple[int, ...], tensors.Contraction]]:
    """Every continuity claim as (kind, global site, contraction), in report
    order: the trace on each interior facet (the value, for the scalar
    family), then with a nonnegative continuity order the whole value at
    shared vertices, normal components on shared sites up to the order, and
    for symmetric values the normal-normal component on shared sites above it.
    """
    mesh = space.mesh
    family = space.family
    out = []
    for facet in mesh.interior_facets:
        if family is Family.LAGRANGE:
            out.append(("normal_trace", facet, tensors.FLATTEN))
        else:
            (normal,) = mesh.frame_vectors(facet)[1]
            out.append(("normal_trace", facet, tensors.normal_contraction(normal)))
    k = space.continuity_order if space.continuity_order is not None else -1
    if family is Family.LAGRANGE or k < 0:
        return out
    nn_top = mesh.dim - 1 if family is Family.SYMMETRIC else -1
    for ell in range(0, max(k, nn_top) + 1):
        for gsite in mesh.sub_simplices(ell):
            if len(mesh.cells_containing(gsite)) < 2:
                continue
            _, normals = mesh.frame_vectors(gsite)
            if ell == 0:
                out.append(("value_at_vertex", gsite, tensors.FLATTEN))
            elif ell <= k:
                out.extend(
                    ("normal_component", gsite, tensors.normal_contraction(nrm))
                    for nrm in normals
                )
            elif family is Family.SYMMETRIC:
                out.extend(
                    ("normal_normal", gsite, _normal_normal_contraction(normals[a], normals[b]))
                    for a in range(len(normals))
                    for b in range(a, len(normals))
                )
    return out


def _shared_site_rows(space: GlobalSpace, site: tuple[int, ...], contraction: tensors.Contraction):
    """Per cell sharing a site, the contracted restrictions of its basis
    functions to it: a map from global DoF to integer row, holding the
    nonzero rows only, and one denominator."""
    mesh = space.mesh
    per_cell = []
    for c in mesh.cells_containing(site):
        member_rows, member_den = site_rows(space.cell_basis(c), mesh.local_site(c, site), contraction)
        ints, den = cell_rows(space, c, member_rows, member_den)
        per_cell.append(({g: row for g, row in zip(space.local_to_global[c], ints) if any(row)}, den))
    return per_cell


def _scaled(row: list[int], factor: int) -> list[int]:
    return row if factor == 1 else [x * factor for x in row]


def _jumps(per_cell):
    """(global DoF, first differing entry, difference) of each cell's rows
    against the first cell's, in global DoF order; a DoF missing from a
    cell's map has a zero row there.  Rows on both sides are brought over
    the lcm of their denominators and compared as lists; a row that
    differs is searched by cross-multiplication."""
    (rows_a, d_a), *others = per_cell
    for rows_b, d_b in others:
        common = lcm(d_a, d_b)
        f_a, f_b = common // d_a, common // d_b
        for g in sorted(rows_a.keys() | rows_b.keys()):
            a, b = rows_a.get(g), rows_b.get(g)
            if a is not None and b is not None and _scaled(a, f_a) == _scaled(b, f_b):
                continue
            for entry, (x, y) in enumerate(zip(a or repeat(0), b or repeat(0))):
                if x * d_b != y * d_a:
                    yield g, entry, Fraction(x, d_a) - Fraction(y, d_b)
                    break


def _evaluate(row: list[int], monomials: list[int]) -> list[int]:
    """Sum over the site lattice of a (lattice x component) row, weighted."""
    width = len(row) // len(monomials)
    return [sum(map(mul, row[w::width], monomials)) for w in range(width)]


def check_conformity(space: GlobalSpace, samples: int = 2, seed: int = 0) -> CheckResult:
    """Exact continuity of every assembled basis function.

    Each continuity statement restricts the basis functions of every cell
    sharing its site, contracts them, and compares Bernstein coefficients
    exactly against the first such cell.  On interior facets random rational
    points provide a redundant sampled guard.
    """
    mesh = space.mesh
    rng = random.Random(seed)
    violations: list[dict] = []
    facets_checked = 0
    traces_compared = 0
    points_checked = 0
    extra_sites: set[tuple[int, ...]] = set()

    def record(kind, site, g, entry, delta):
        violations.append(
            {
                "check": kind,
                "site": list(site),
                "global_index": g,
                "coefficient": entry,
                "delta": str(delta),
            }
        )

    for kind, site, contraction in _statements(space):
        per_cell = _shared_site_rows(space, site, contraction)
        for g, entry, delta in _jumps(per_cell):
            record(kind, site, g, entry, delta)
        if kind != "normal_trace":
            extra_sites.add(site)
            continue
        facets_checked += 1
        # Every global DoF of the two cells counts, zero rows included.
        traces_compared += len(set().union(*(space.local_to_global[c] for c in mesh.cells_containing(site))))
        # At weights w the point is w / sum(w), so every lattice monomial
        # carries the same factor sum(w)^degree, which equality ignores.
        lattice_keys = bn.lattice(len(site), space.degree)
        (rows_a, d_a), (rows_b, d_b) = per_cell
        # A DoF whose rows are zero on both sides evaluates to zero on both.
        zero = [0] * max(map(len, chain(rows_a.values(), rows_b.values())), default=0)
        live = [(g, rows_a.get(g, zero), rows_b.get(g, zero)) for g in sorted(rows_a.keys() | rows_b.keys())]
        for _ in range(samples):
            weights = [rng.randint(1, 997) for _ in site]
            monomials = [prod(w**e for w, e in zip(weights, alpha)) for alpha in lattice_keys]
            points_checked += 1
            for g, a, b in live:
                va = _evaluate(a, monomials)
                vb = _evaluate(b, monomials)
                if any(x * d_b != y * d_a for x, y in zip(va, vb)):
                    record("normal_trace_sample", site, g, -1, "point mismatch")

    status = PASS if not violations else FAIL
    return CheckResult(
        name=f"conformity[{space.label}]",
        status=status,
        witness={
            "interior_facets": facets_checked,
            "traces_compared": traces_compared,
            "sample_points": points_checked,
            "extra_sites": len(extra_sites),
            "violations": violations,
        },
    )


def _negate_direction(direction):
    if direction and isinstance(direction[0], tuple):
        return tuple(tuple(-x for x in row) for row in direction)
    return tuple(-x for x in direction)


def flip_facet_orientation(space: GlobalSpace, facet: tuple[int, ...] | None = None) -> GlobalSpace:
    """A deliberately broken copy for the negative control.

    One cell keeps the identification table but builds its facewise
    functionals on one interior facet against the opposite normal, so its
    dual basis no longer matches the neighbor across that facet and the
    conformity check must flag it.
    """
    if space.family is Family.LAGRANGE:
        raise ValueError("the scalar family has no facet-oriented functionals")
    mesh = space.mesh
    if facet is None:
        if not mesh.interior_facets:
            raise ValueError("mesh has no interior facet to corrupt")
        facet = mesh.interior_facets[0]
    victim = max(mesh.facet_cells[tuple(facet)])
    f_loc = mesh.local_site(victim, tuple(facet))
    flipped = []
    hits = 0
    for nf in space.cell_dofs[victim].functionals:
        if nf.scope == FACEWISE and nf.face == f_loc:
            (term,) = nf.terms
            flipped.append(
                nf._replace(terms=(DoFTerm(term.weight, _negate_direction(term.direction)),))
            )
            hits += 1
        else:
            flipped.append(nf)
    if hits == 0:
        raise ValueError(f"no facewise functionals live on facet {facet}")
    new_dofs = list(space.cell_dofs)
    new_dofs[victim] = space.cell_dofs[victim]._replace(functionals=tuple(flipped))
    return space._replace(cell_dofs=tuple(new_dofs))


# ---------------------------------------------------------------------------
# div image and inf-sup


def _div_onto_rank(space: GlobalSpace) -> int:
    """Exact rank of the global div map D: one row per global basis
    function, its div over the degree r-1 lattice of every cell, one
    column block q_T per cell.

    Interior basis functions live on one cell, so their rows I_T are zero
    outside block T.  Let K_T be a basis of the right kernel of I_T (all of
    q_T when T has no interior DoF) and C_T a complement.  In the column
    basis [C_T | K_T] of block T, I_T has full column rank r_T = q_T -
    dim K_T on C_T and is zero on K_T, so the interior rows clear C_T from
    every other row without touching K_T.  Hence rank D = sum_T r_T +
    rank M, where M holds each shared basis function's block segments
    projected on K_T (s_T K_T), and M is eliminated sparse.  The global
    rows are never formed.
    """
    interior_rank = 0
    shared: dict[int, dict[int, int]] = {}
    offset = 0
    for ci, l2g in enumerate(space.local_to_global):
        # Column block ci keeps the cell's own denominators: scaling a
        # block of columns by a nonzero constant leaves the rank unchanged.
        member_rows, _ = space.div_rows(ci)
        # Row i: the coefficients of basis function i over the members.
        coeffs = list(zip(*space.dual_coefficients(ci)[0]))
        inner, outer = space.interior_split[ci]
        q_cell = len(member_rows[0])
        interior = linalg._int_matmul([coeffs[i] for i in inner], member_rows)
        kernel = linalg.nullspace(interior, cols=q_cell)
        interior_rank += q_cell - len(kernel)
        if kernel:
            projected = linalg._int_matmul(member_rows, [list(col) for col in zip(*kernel)])
            segments = linalg._int_matmul([coeffs[i] for i in outer], projected)
            for i, segment in zip(outer, segments):
                row = shared.setdefault(l2g[i], {})
                for j, x in enumerate(segment, offset):
                    if x:
                        row[j] = x
        offset += len(kernel)
    return interior_rank + linalg.sparse_rank(shared.values())


def check_div_onto(space: GlobalSpace) -> CheckResult:
    """Exact rank of the global div map against the discontinuous target,
    cell by cell through each cell's interior kernel (_div_onto_rank).

    Below the family's degree threshold the result is recorded but flagged
    as skipped rather than failed: the surjectivity claim is only made from
    the threshold up.
    """
    threshold = space.family.div_onto_min_degree(space.mesh.dim, space.continuity_order)
    rank = _div_onto_rank(space)
    deficit = space.dim_q - rank
    if space.degree < threshold:
        status = SKIPPED
    else:
        status = PASS if deficit == 0 else FAIL
    return CheckResult(
        name=f"div_onto[{space.label}]",
        status=status,
        witness={
            "rank": rank,
            "dim_q": space.dim_q,
            "deficit": deficit,
            "degree_threshold": threshold,
        },
    )


@cache
def _moment_gram(labels: int, degree: int, dim: int) -> tuple[tuple[float, ...], ...]:
    """Normalized pairwise integrals of the monomial lattice on a dim-simplex."""
    keys = bn.lattice(labels, degree)
    return tuple(tuple(float(bn.moment(tuple(map(add, a, b)), dim)) for b in keys) for a in keys)


def _float_rows(ints, den):
    """Integer rows over den as floats: int / int is correctly rounded, as
    float(Fraction(x, den)) is, and unlike a float array of the integers it
    cannot overflow."""
    import numpy as np

    return np.array([[x / den for x in row] for row in ints])


def _member_coefficients(members) -> tuple[list[list[int]], int]:
    """Each member's flattened coefficient as an integer row, all over one
    least denominator."""
    ints, den = linalg.integer_form(x for m in members for x in tensors.flatten(m.coeff))
    size = len(ints) // len(members)
    return [ints[i:i + size] for i in range(0, len(ints), size)], den


def _coeff_pair_matrix(coefficients):
    arr = _float_rows(*coefficients)
    return arr @ arr.T


def _float_inputs(space: GlobalSpace):
    """The exact inputs of the float inf-sup step as builtins that marshal
    writes: a layout record and an iterator of one record per cell.

    The layout is (n, r, div width, space.interior_split, and per cell the
    global indices of its other DoFs).  Cell c's record is (its volume as
    (numerator, denominator), its members' exponents β, their coefficients
    (_member_coefficients), its div rows and its dual coefficients), the
    last three as integer rows over one denominator.  Each cell's record is
    collected when the iterator reaches it.
    """
    mesh = space.mesh
    n = mesh.dim
    splits = space.interior_split
    shared = [[l2g[i] for i in outer] for l2g, (_, outer) in zip(space.local_to_global, splits)]

    def cells():
        for ci in range(len(mesh.cells)):
            vol = mesh.cell_simplices[ci].volume()
            members = space.cell_basis(ci).members
            yield (
                (vol.numerator, vol.denominator),
                [m.beta for m in members],
                _member_coefficients(members),
                space.div_rows(ci),
                space.dual_coefficients(ci),
            )

    return (n, space.degree, space.family.div_width(n), splits, shared), cells()


def _cell_pencils(layout, cells):
    """Per cell, the graph-norm mass V_T and the scaled div coupling C_T on
    the cell's own DoFs, interior DoFs first (the layout's interior split),
    stored in one (ncells, ndofs, ndofs) and one (ncells, q, ndofs) array,
    from the records of _float_inputs.

    V_T is the value plus div Gram matrix of the cell's basis functions and
    C_T = sqrt(|T|) (L^T ⊗ I) times their div rows, with W = L L^T the
    lattice Gram matrix of degree r-1, so that C_T^T C_T is their div Gram
    matrix and the target mass drops out of the pencil.  Each product is
    formed in local order and then indexed into interior-first order, so
    every entry is the one the local order gives, bit for bit.
    """
    import numpy as np

    n, r, width, splits, _ = layout
    qlat = bn.space_dim(n, r - 1)
    w_val = np.array(_moment_gram(n + 1, r, n))
    chol_t = np.linalg.cholesky(np.array(_moment_gram(n + 1, r - 1, n))).T
    positions = bn.lattice_position(n + 1, r)
    orders = [inner + outer for inner, outer in splits]
    ndofs = len(orders[0])
    masses = np.empty((len(orders), ndofs, ndofs))
    couplings = np.empty((len(orders), width * qlat, ndofs))
    for ci, (order, cell) in enumerate(zip(orders, cells, strict=True)):
        (num, den), betas, coefficients, div, dual = cell
        vol = num / den
        # Every member scalar is λ^β, so the scalar Gram matrix is the
        # lattice Gram matrix at the β's.
        at = [positions[beta] for beta in betas]
        gram_val = _coeff_pair_matrix(coefficients) * w_val[np.ix_(at, at)]
        ndiv = _float_rows(*div).reshape(len(betas), qlat, width)
        b_cell = np.empty((width * qlat, len(betas)))
        for comp in range(width):
            b_cell[comp::width, :] = chol_t @ ndiv[:, :, comp].T
        dual = _float_rows(*dual)
        mass = dual.T @ (vol * (gram_val + b_cell.T @ b_cell)) @ dual
        masses[ci] = mass[np.ix_(order, order)]
        couplings[ci] = (sqrt(vol) * (b_cell @ dual))[:, order]
    return masses, couplings


def _reverse_cuthill_mckee(cell_dofs, n: int) -> list[int]:
    """The n DoFs in reverse Cuthill-McKee order, two DoFs adjacent when a
    cell holds both, neighbours taken by increasing cell count (George and
    Liu, Computer Solution of Large Sparse Positive Definite Systems, §4.3).

    Each component starts from a pseudo-peripheral DoF: the last DoF reached
    from its previous start, while that lengthens the search.
    """
    cells_of: list[list[int]] = [[] for _ in range(n)]
    for c, dofs in enumerate(cell_dofs):
        for g in dofs:
            cells_of[g].append(c)
    degree = [len(cs) for cs in cells_of]

    def cuthill_mckee(root):
        order, levels = [root], [0]
        seen = {root}
        expanded = set()
        for g, level in zip(order, levels):
            fresh = []
            for c in cells_of[g]:
                if c not in expanded:
                    expanded.add(c)
                    for h in cell_dofs[c]:
                        if h not in seen:
                            seen.add(h)
                            fresh.append(h)
            fresh.sort(key=degree.__getitem__)
            order.extend(fresh)
            levels.extend([level + 1] * len(fresh))
        return order, levels[-1]

    out: list[int] = []
    placed = [False] * n
    for start in sorted(range(n), key=degree.__getitem__):
        if placed[start]:
            continue
        order, depth = cuthill_mckee(start)
        while True:
            far, far_depth = cuthill_mckee(order[-1])
            if far_depth <= depth:
                break
            order, depth = far, far_depth
        for g in order:
            placed[g] = True
        out.extend(order)
    return out[::-1]


_BAND_BLOCK = 128  # rows per block of the envelope Cholesky
_SCHUR_PANEL = 512  # rows of S per product while accumulating Y^T Y


def _condense_cells(layout, cells):
    """Eliminate every cell's interior DoFs from its pencil (static
    condensation, Guyan, AIAA J. 3, 1965), batched over the cells, from the
    records of _float_inputs.

    With i the cell's interior DoFs, b the rest and V_ii = R R^T, returns
    rows[c] (cell c's other DoFs, numbered 0..n_b-1 over the mesh in reverse
    Cuthill-McKee order), the cellwise Schur complements V_bb - V_bi V_ii^-1
    V_ib, the condensed couplings C_b - C_i V_ii^-1 V_ib and the diagonal
    blocks C_i V_ii^-1 C_i^T, all from W_b = R^-1 V_ib and W_c = R^-1 C_i^T.
    """
    import numpy as np

    # Each cell's pencil comes interior first; its other DoFs are numbered
    # over the mesh.
    v, c = _cell_pencils(layout, cells)
    compact: dict[int, int] = {}
    cell_b = [[compact.setdefault(g, len(compact)) for g in shared] for shared in layout[4]]
    rank_of = np.empty(len(compact), dtype=np.int64)
    rank_of[_reverse_cuthill_mckee(cell_b, len(compact))] = np.arange(len(compact))
    rows = rank_of[np.array(cell_b, dtype=np.int64)]
    ni = v.shape[1] - rows.shape[1]
    lower = np.linalg.cholesky(v[:, :ni, :ni])
    w_b = np.linalg.solve(lower, v[:, :ni, ni:])
    w_c = np.linalg.solve(lower, c[:, :, :ni].transpose(0, 2, 1))
    sigma = v[:, ni:, ni:] - w_b.transpose(0, 2, 1) @ w_b
    c_hat = c[:, :, ni:] - w_c.transpose(0, 2, 1) @ w_b
    return rows, sigma, c_hat, w_c.transpose(0, 2, 1) @ w_c


def _envelope_cholesky_solve(rows, cell_mats, rhs, top) -> None:
    """Factor Σ = L L^T, assembled from cell_mats[c] on the indices rows[c],
    and overwrite rhs with L^-1 rhs; top[q] is the first nonzero row of
    column q of rhs, nondecreasing in q (George and Liu, Computer Solution
    of Large Sparse Positive Definite Systems, 1981, ch. 4).

    Σ's lower triangle is kept by blocks of rows: block I holds rows r0..r1
    and columns c0[I]..r1, c0[I] a block boundary at or before the first
    nonzero column of its rows.  Cholesky fill stays in that envelope, and
    each block row costs matrix products against the blocks it reaches:
    L_IJ = (Σ_IJ - L_I,<J L_J,<J^T) L_JJ^-T, then L_II from Σ_II - L_I,<I
    L_I,<I^T.  Rows r0..r1 of L^-1 rhs are nonzero only in the columns whose
    top lies above r1.  numpy's Cholesky raises LinAlgError on a diagonal
    block that is not positive definite.
    """
    import numpy as np

    n = rhs.shape[0]
    nb = _BAND_BLOCK
    nblocks = -(-n // nb)
    first = np.full(n, n, dtype=np.int64)
    np.minimum.at(first, rows.ravel(), np.repeat(rows.min(axis=1), rows.shape[1]))
    bounds = [min(I * nb, n) for I in range(nblocks + 1)]
    c0 = np.array([first[bounds[I]:bounds[I + 1]].min() // nb * nb for I in range(nblocks)], dtype=np.int64)
    widths = np.array(bounds[1:]) - c0
    offsets = np.concatenate([[0], np.cumsum(widths * np.diff(bounds))])
    p = np.broadcast_to(rows[:, :, None], cell_mats.shape)
    q = np.broadcast_to(rows[:, None, :], cell_mats.shape)
    lower = p >= q
    p, q = p[lower], q[lower]
    blk = p // nb
    pos = offsets[blk] + (p - blk * nb) * widths[blk] + q - c0[blk]
    envelope = np.bincount(pos, weights=cell_mats[lower], minlength=int(offsets[-1]))

    def block(I):
        return envelope[offsets[I]:offsets[I + 1]].reshape(bounds[I + 1] - bounds[I], widths[I])

    inv_diag = []
    for I in range(nblocks):
        r0, r1, base = bounds[I], bounds[I + 1], int(c0[I])
        row = block(I)
        for J in range(base // nb, I):
            j0, j1 = bounds[J] - base, bounds[J + 1] - base
            lo = max(base, int(c0[J]))
            if lo < bounds[J]:
                row[:, j0:j1] -= row[:, lo - base:j0] @ block(J)[:, lo - c0[J]:bounds[J] - c0[J]].T
            row[:, j0:j1] = row[:, j0:j1] @ inv_diag[J].T
        left = row[:, :r0 - base]
        inv_diag.append(np.linalg.inv(np.linalg.cholesky(row[:, r0 - base:] - left @ left.T)))
        m = np.searchsorted(top, r1)
        rhs[r0:r1, :m] = inv_diag[I] @ (rhs[r0:r1, :m] - left @ rhs[base:r0, :m])


def _condensed_schur(layout, cells):
    """S = C V^-1 C^T of the inf-sup pencil, without forming V, from the
    records of _float_inputs.

    Interior DoFs couple only inside their cell, so eliminating them cell by
    cell gives S = C_i V_ii^-1 C_i^T + Ĉ Σ^-1 Ĉ^T: the first term is block
    diagonal over the cells, Σ = V_bb - V_bi V_ii^-1 V_ib is assembled from
    the cellwise Schur complements and Ĉ = C_b - C_i V_ii^-1 V_ib keeps the
    sparsity of C_b.  With Σ = L L^T from the envelope Cholesky, the second
    term is Y^T Y, Y = L^-1 Ĉ^T.

    The rows of S come by cell, in the order of each cell's first row in
    Σ: a symmetric permutation, so the spectrum is unchanged, under which
    the columns of Ĉ^T have nondecreasing first nonzero rows.  Only the lower
    triangle of S is filled, which is all eigvalsh reads.
    """
    import numpy as np

    rows, sigma, c_hat, diag_blocks = _condense_cells(layout, cells)
    ncells, qdim = c_hat.shape[:2]
    dim_q = qdim * ncells
    cell_first = rows.min(axis=1)
    by_first = np.argsort(cell_first, kind="stable")
    slot = np.empty(ncells, dtype=np.int64)
    slot[by_first] = np.arange(ncells)
    columns = slot[:, None] * qdim + np.arange(qdim)
    top = np.repeat(cell_first[by_first], qdim)
    y = np.zeros((int(rows.max()) + 1, dim_q))
    y[rows[:, :, None], columns[:, None, :]] = c_hat.transpose(0, 2, 1)
    _envelope_cholesky_solve(rows, sigma, y, top)
    schur = np.zeros((dim_q, dim_q))
    schur[columns[:, :, None], columns[:, None, :]] = diag_blocks
    # Lower triangle of Y^T Y by panels of rows of S; rows of Y above the
    # panel's first top contribute nothing.
    for p0 in range(0, dim_q, _SCHUR_PANEL):
        p1 = min(p0 + _SCHUR_PANEL, dim_q)
        schur[p0:p1, :p1] += y[top[p0]:, p0:p1].T @ y[top[p0]:, :p1]
    return schur


def _float_infsup(layout, cells) -> tuple:
    """The numpy step of infsup_constant, on the records of _float_inputs:
    (beta, discarded eigenvalues, None), or (None, None, the text of
    numpy's LinAlgError) when a mass matrix is not positive definite."""
    import numpy as np

    try:
        eigs = np.linalg.eigvalsh(_condensed_schur(layout, cells))
    except np.linalg.LinAlgError as exc:
        return None, None, str(exc)
    kept = eigs[eigs > KERNEL_THRESHOLD]
    beta = sqrt(float(kept.min())) if kept.size else 0.0
    return beta, int(eigs.size - kept.size), None


def _serve(inputs_fd: int, reply_fd: int) -> NoReturn:
    """The life of an InfsupWorker's child: import numpy, read the layout
    and then one record per cell of its interior split with marshal.load,
    each decoded when _cell_pencils reaches it, and write back
    _float_infsup of them.  The parent streams the records while it builds
    the cell duals, so the child builds each cell's pencil while the parent
    builds the next dual, and condenses and solves after the last record.
    It ends in os._exit, so none of the parent's cleanup runs twice, and
    exits quietly (EOFError) when the pipe closes before every record
    arrived, as when the parent stops early."""
    code = 1
    try:
        import numpy  # noqa: F401  (loaded while the parent runs the exact units)

        with open(inputs_fd, "rb") as inputs:

            def record():
                # The bytes of a record's marshal.dumps come in one read;
                # marshal.load of the record itself reads item by item.
                return marshal.loads(marshal.load(inputs))

            layout = record()
            reply = _float_infsup(layout, (record() for _ in layout[3]))
        with open(reply_fd, "wb") as out:
            out.write(marshal.dumps(reply))
        code = 0
    except EOFError:
        code = 0
    except BaseException:  # whatever is raised, the child ends in os._exit
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


# Bytes the records' pipe holds: every record of a 16-cell tetrahedral
# mesh (about 700 KB), so the parent streams them without waiting while the
# child is still importing numpy.  1 MiB is Linux's default pipe-max-size.
_PIPE_BYTES = 1 << 20


class InfsupWorker:
    """A forked child that runs the float step of one inf-sup constant.

    Forked when a run starts, the child imports numpy while the parent
    runs the exact units, so the parent never loads numpy.  stream writes
    the records of _float_inputs to a pipe, one value after another (each
    as the bytes of its marshal.dumps), each cell's as soon as its dual is
    built, so the child reduces the cells while the parent goes on with
    its exact units.  reply returns the reply of _float_infsup, computed
    there on exactly the inputs the parent would use.  The pipe is widened
    to _PIPE_BYTES where fcntl.F_SETPIPE_SZ allows; elsewhere a full pipe
    only makes the parent wait for the child.  The parent calls close on
    every path.
    """

    def __init__(self):
        inputs_r, inputs_w = os.pipe()
        reply_r, reply_w = os.pipe()
        with contextlib.suppress(ImportError, AttributeError, OSError):
            import fcntl

            fcntl.fcntl(inputs_w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        self.pid = os.fork()
        if self.pid == 0:
            os.close(inputs_w)
            os.close(reply_r)
            _serve(inputs_r, reply_w)
        os.close(inputs_r)
        os.close(reply_w)
        self._inputs = open(inputs_w, "wb")
        self._replies = open(reply_r, "rb")
        self._streamed = False
        self._status: int | None = None

    def stream(self, space: GlobalSpace) -> None:
        """Send the records of _float_inputs(space), unless they have been
        sent: the cell duals are built in cell order, and each cell's
        record goes as soon as its dual exists.  The pipe is closed
        afterwards on every path, so a child short of records exits rather
        than wait."""
        if self._streamed:
            return
        self._streamed = True
        try:
            layout, cells = _float_inputs(space)
            for record in chain((layout,), cells):
                marshal.dump(marshal.dumps(record), self._inputs)
                self._inputs.flush()
        except BrokenPipeError:
            pass  # the child stopped reading; reply reports its exit status
        finally:
            with contextlib.suppress(BrokenPipeError):
                self._inputs.close()

    def reply(self) -> tuple:
        """_float_infsup of the streamed records, computed in the child.  A
        child that exits without a reply raises RuntimeError."""
        reply = self._replies.read()
        status = self._reap()
        if status != 0 or not reply:
            raise RuntimeError(f"the inf-sup worker exited with status {status} and no result")
        return marshal.loads(reply)

    def close(self) -> None:
        """Stop the child, unless reply has reaped it, and reap it."""
        if self._status is None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        with contextlib.suppress(BrokenPipeError):
            self._inputs.close()
        self._replies.close()
        self._status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self._status


def infsup_constant(space: GlobalSpace, worker: InfsupWorker | None = None) -> CheckResult:
    """Discrete inf-sup constant of the div pairing, floating point.

    beta^2 is the smallest eigenvalue of the pencil (C V^-1 C^T, Q), with V
    the graph-norm mass (value plus div), C the div coupling and Q the
    discontinuous target mass, |T| (W ⊗ I) on cell T.  With W = L L^T the
    pencil reduces to a plain symmetric matrix whose coupling rows on T are
    sqrt(|T|) (L^T ⊗ I) times the div rows (Golub and Van Loan, Matrix
    Computations, §8.7); their Gram matrix is the cell's div Gram matrix.
    C V^-1 C^T is built by static condensation and an envelope Cholesky, never
    as a dense dim_v x dim_v solve (see _condensed_schur).
    Eigenvalues under KERNEL_THRESHOLD are discarded and counted, since
    none are expected at or above the degree threshold.  The exact inputs
    are collected here without numpy (_float_inputs); the float step
    (_float_infsup) runs in the worker when one is given, on the records
    it streamed earlier or streams now, else here, where numpy is imported
    on its first use.
    """
    name = f"infsup[{space.label}]"
    threshold = space.family.div_onto_min_degree(space.mesh.dim, space.continuity_order)
    if worker is None:
        beta, discarded, error = _float_infsup(*_float_inputs(space))
    else:
        worker.stream(space)
        beta, discarded, error = worker.reply()
    if error is not None:
        return CheckResult(name, FAIL, {"error": f"singular mass matrix: {error}"})
    if space.degree < threshold:
        status = SKIPPED
    else:
        status = PASS if beta > 0 and discarded == 0 else FAIL
    return CheckResult(
        name=name,
        status=status,
        witness={
            "beta": beta,
            "dim_v": space.dim,
            "dim_q": space.dim_q,
            "discarded_modes": discarded,
            "kernel_threshold": KERNEL_THRESHOLD,
            "degree_threshold": threshold,
        },
    )


def infsup_sweep(meshes, family: Family | str, degree: int, continuity_order: int, drift_tolerance: float = 0.2) -> CheckResult:
    """Inf-sup constants over a refinement sequence plus a drift bound.

    The stability claim is h-uniformity; at desk scale the proxy is that the
    constant stays positive and moves by less than the tolerated fraction of
    its largest value across the levels.
    """
    results = []
    for mesh in meshes:
        space = assemble(mesh, family, degree, continuity_order)
        results.append(infsup_constant(space))
    betas = [res.witness.get("beta", 0.0) for res in results]
    drift = (max(betas) - min(betas)) / max(betas) if betas and max(betas) > 0 else 1.0
    all_pass = all(res.status == PASS for res in results)
    skipped = any(res.status == SKIPPED for res in results)
    if skipped:
        status = SKIPPED
    else:
        status = PASS if all_pass and drift < drift_tolerance else FAIL
    return CheckResult(
        name=f"infsup_sweep[{Family(family).value} r={degree} k={continuity_order} levels={len(betas)}]",
        status=status,
        witness={
            "betas": betas,
            "drift": drift,
            "drift_tolerance": drift_tolerance,
            "levels": [len(m.cells) for m in meshes],
            "per_level": [res.witness for res in results],
        },
    )
