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

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod, sqrt

import numpy as np
from scipy import linalg as scipy_linalg

from . import bernstein as bn
from . import linalg, tensors
from .checks import FAIL, PASS, SKIPPED, CheckResult
from .dofs import (
    FACEWISE,
    INTERIOR,
    DoFSet,
    DoFTerm,
    MixedDirection,
    SiteBlockError,
    build_dofs,
    dof_matrix,
    site_blocks,
)
from .mesh import Mesh, validate_mesh
from .spaces import Family, decompose, div_row
from .tensors import SpaceTag


class AssemblyError(ValueError):
    """Raised when a mesh and a DoF family cannot be stitched together."""


@dataclass(frozen=True)
class GlobalSpace:
    """An assembled space: per-cell DoF sets plus the identification table.

    keys[g] is the hashable identity of global DoF g; local_to_global[c][i]
    is the global index of cell c's i-th functional.  Cell dual bases and
    cell div rows are computed on demand and cached.
    """

    mesh: Mesh
    family: Family
    degree: int
    continuity_order: int | None
    cell_dofs: tuple[DoFSet, ...]
    local_to_global: tuple[tuple[int, ...], ...]
    keys: tuple[tuple, ...]
    _dual_cache: dict = field(default_factory=dict, compare=False, repr=False)
    _div_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.keys)

    def cell_basis(self, cell_index: int):
        return decompose(
            self.family, self.mesh.cell_simplices[cell_index], self.degree
        )

    def dual_coefficients(self, cell_index: int) -> list[list[Fraction]]:
        """Exact inverse of the cell DoF matrix: column i is the i-th dual
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

    def div_rows(self, cell_index: int) -> list[list[Fraction]]:
        """Per member of the cell basis: div over the degree r-1 lattice."""
        hit = self._div_cache.get(cell_index)
        if hit is None:
            hit = self._div_cache[cell_index] = _cell_div_rows(self, cell_index)
        return hit

    def local_index(self, cell_index: int) -> dict[int, int]:
        return {g: i for i, g in enumerate(self.local_to_global[cell_index])}


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
    if isinstance(family, str):
        family = Family(family)
    validate_mesh(mesh)
    key_index: dict[tuple, int] = {}
    expected_copies: list[int] = []
    seen_copies: list[int] = []
    cell_dofs = []
    tables = []
    for ci in range(len(mesh.cells)):
        simplex = mesh.cell_simplices[ci]

        def shared_frame(f, ci=ci):
            return mesh.global_frame(ci, f)

        def shared_facet_normal(face, ci=ci):
            return mesh.facet_normal(mesh.global_site(ci, face))

        dofs = build_dofs(
            family,
            simplex,
            degree,
            continuity_order,
            frames=shared_frame,
            facet_normals=shared_facet_normal,
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
    elif family.space_tag is SpaceTag.VECTOR:
        formula = face_dim_formula(space.mesh, space.degree, space.continuity_order)
    ok = formula is None or formula == space.dim
    return CheckResult(
        name=f"dims[{family.value} n={space.mesh.dim} r={space.degree} "
        f"k={space.continuity_order} cells={len(space.mesh.cells)}]",
        status=PASS if ok else FAIL,
        witness={"assembled": space.dim, "formula": formula},
    )


# ---------------------------------------------------------------------------
# trace extraction


def _contract_normal_normal(coeff, left, right) -> tuple:
    return (tensors.dot(left, tensors.mat_vec(coeff, right)),)


def _member_site_rows(space: GlobalSpace, cell_index: int, local_site, contract) -> list[list[Fraction]]:
    """Per decomposition member: restriction to the site, contracted to
    components, flattened over site lattice x component (component fastest)."""
    basis = space.cell_basis(cell_index)
    rows = []
    for m in basis.members:
        weights = contract(m.coeff)
        svec = bn.coeff_vector(bn.restrict(m.scalar, local_site), space.degree)
        rows.append([s * w for s in svec for w in weights])
    return rows


def _global_site_rows(space: GlobalSpace, cell_index: int, local_site, contract, global_ids) -> dict[int, list[Fraction]]:
    """The same contracted restrictions for assembled basis functions."""
    member_rows = _member_site_rows(space, cell_index, local_site, contract)
    width = len(member_rows[0]) if member_rows else 0
    dual = space.dual_coefficients(cell_index)
    local_of = space.local_index(cell_index)
    out = {}
    for g in global_ids:
        i = local_of.get(g)
        if i is None:
            out[g] = [Fraction(0)] * width
            continue
        row = [Fraction(0)] * width
        for j, member_row in enumerate(member_rows):
            c = dual[j][i]
            if not c:
                continue
            for w in range(width):
                if member_row[w]:
                    row[w] += c * member_row[w]
        out[g] = row
    return out


def _random_barycentric(rng: random.Random, labels: int) -> tuple[Fraction, ...]:
    raw = [Fraction(rng.randint(1, 997), 1000) for _ in range(labels)]
    total = sum(raw)
    return tuple(x / total for x in raw)


def _eval_rows(row: list[Fraction], lattice_keys, point) -> list[Fraction]:
    """Evaluate a flattened (lattice x component) row at a barycentric point."""
    width = len(row) // len(lattice_keys) if lattice_keys else 0
    values = [Fraction(0)] * width
    for a, alpha in enumerate(lattice_keys):
        mono = prod(
            (point[t] ** e for t, e in enumerate(alpha)), start=Fraction(1)
        )
        if mono == 0:
            continue
        for w in range(width):
            if row[a * width + w]:
                values[w] += row[a * width + w] * mono
    return values


def _jump_violation(rows_a, rows_b, global_ids):
    for g in global_ids:
        a, b = rows_a[g], rows_b[g]
        for idx, (x, y) in enumerate(zip(a, b)):
            if x != y:
                yield g, idx, x - y
                break


def check_conformity(space: GlobalSpace, samples: int = 2, seed: int = 0) -> CheckResult:
    """Exact continuity of every assembled basis function.

    Across each interior facet the full normal trace (or the full value, for
    the scalar family) must agree coefficient by coefficient in Bernstein
    form; random rational points provide a redundant sampled guard.  With a
    positive continuity order the extra shared pieces are checked as well:
    whole values at vertices, normal components on shared sites up to the
    continuity order, and for symmetric values the normal-normal component
    on every shared site above it.
    """
    mesh = space.mesh
    family = space.family
    rng = random.Random(seed)
    violations: list[dict] = []
    facets_checked = 0
    traces_compared = 0
    points_checked = 0

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

    for facet in mesh.interior_facets:
        c1, c2 = mesh.facet_cells[facet]
        normal = mesh.facet_normal(facet)
        if family is Family.LAGRANGE:
            contract = tensors.flatten
        else:
            def contract(coeff, normal=normal):
                return tensors.contract_normal(coeff, normal)

        ids = sorted(set(space.local_to_global[c1]) | set(space.local_to_global[c2]))
        rows1 = _global_site_rows(space, c1, mesh.local_site(c1, facet), contract, ids)
        rows2 = _global_site_rows(space, c2, mesh.local_site(c2, facet), contract, ids)
        facets_checked += 1
        traces_compared += len(ids)
        for g, entry, delta in _jump_violation(rows1, rows2, ids):
            record("normal_trace", facet, g, entry, delta)
        lattice_keys = bn.lattice(len(facet), space.degree)
        for _ in range(samples):
            point = _random_barycentric(rng, len(facet))
            points_checked += 1
            for g in ids:
                va = _eval_rows(rows1[g], lattice_keys, point)
                vb = _eval_rows(rows2[g], lattice_keys, point)
                if va != vb:
                    record("normal_trace_sample", facet, g, -1, "point mismatch")

    k = space.continuity_order if space.continuity_order is not None else -1
    extra_sites = 0
    if family is not Family.LAGRANGE and k >= 0:
        nn_top = mesh.dim - 1 if family is Family.SYMMETRIC else -1
        for ell in range(0, max(k, nn_top) + 1):
            for gsite in mesh.sub_simplices(ell):
                cells = mesh.cells_containing(gsite)
                if len(cells) < 2:
                    continue
                contracts: list[tuple[str, object]] = []
                _, normals = mesh.frame_vectors(gsite)
                if ell <= k:
                    if ell == 0:
                        contracts.append(("value_at_vertex", tensors.flatten))
                    else:
                        for nrm in normals:
                            def with_normal(coeff, nrm=nrm):
                                return tensors.contract_normal(coeff, nrm)

                            contracts.append(("normal_component", with_normal))
                elif family is Family.SYMMETRIC:
                    for a in range(len(normals)):
                        for b in range(a, len(normals)):
                            def with_pair(coeff, na=normals[a], nb=normals[b]):
                                return _contract_normal_normal(coeff, na, nb)

                            contracts.append(("normal_normal", with_pair))
                if not contracts:
                    continue
                extra_sites += 1
                ids = sorted(set().union(*(space.local_to_global[c] for c in cells)))
                for kind, contract in contracts:
                    per_cell = [
                        _global_site_rows(
                            space, c, mesh.local_site(c, gsite), contract, ids
                        )
                        for c in cells
                    ]
                    for other in per_cell[1:]:
                        for g, entry, delta in _jump_violation(per_cell[0], other, ids):
                            record(kind, gsite, g, entry, delta)

    status = PASS if not violations else FAIL
    return CheckResult(
        name=f"conformity[{family.value} n={mesh.dim} r={space.degree} "
        f"k={space.continuity_order} cells={len(mesh.cells)}]",
        status=status,
        witness={
            "interior_facets": facets_checked,
            "traces_compared": traces_compared,
            "sample_points": points_checked,
            "extra_sites": extra_sites,
            "violations": violations,
        },
    )


def _negate_direction(direction):
    if isinstance(direction, MixedDirection):
        return MixedDirection(direction.tangent, tuple(-x for x in direction.normal))
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
                replace(nf, terms=(DoFTerm(term.weight, _negate_direction(term.direction)),))
            )
            hits += 1
        else:
            flipped.append(nf)
    if hits == 0:
        raise ValueError(f"no facewise functionals live on facet {facet}")
    new_dofs = list(space.cell_dofs)
    new_dofs[victim] = replace(space.cell_dofs[victim], functionals=tuple(flipped))
    return GlobalSpace(
        mesh,
        space.family,
        space.degree,
        space.continuity_order,
        tuple(new_dofs),
        space.local_to_global,
        space.keys,
    )


# ---------------------------------------------------------------------------
# div image and inf-sup


def _div_threshold(family: Family, n: int, k: int | None) -> int:
    """Smallest degree at which the piecewise div image is claimed onto."""
    if family.space_tag is SpaceTag.VECTOR:
        return 1 if k == -1 else k + 2
    if family is Family.TRACELESS:
        return k + 2
    if family is Family.SYMMETRIC:
        return n + 1
    raise ValueError("the scalar family has no div image to check")


def _cell_div_rows(space: GlobalSpace, cell_index: int) -> list[list[Fraction]]:
    """Per member: div expanded over the degree r-1 lattice, component fastest."""
    simplex = space.mesh.cell_simplices[cell_index]
    return [div_row(m, simplex, space.degree - 1) for m in space.cell_basis(cell_index).members]


def check_div_onto(space: GlobalSpace) -> CheckResult:
    """Exact rank of the global div map against the discontinuous target.

    Below the family's degree threshold the result is recorded but flagged
    as skipped rather than failed: the surjectivity claim is only made from
    the threshold up.
    """
    family = space.family
    if family is Family.LAGRANGE:
        raise ValueError("the scalar family has no div image to check")
    mesh = space.mesh
    n, r = mesh.dim, space.degree
    qdim_cell = family.space_tag.div_width(n) * bn.space_dim(n, r - 1)
    dim_q = qdim_cell * len(mesh.cells)
    rows = [[Fraction(0)] * dim_q for _ in range(space.dim)]
    for ci in range(len(mesh.cells)):
        div_rows = space.div_rows(ci)
        dual = space.dual_coefficients(ci)
        offset = ci * qdim_cell
        for i, g in enumerate(space.local_to_global[ci]):
            target = rows[g]
            for j, member_row in enumerate(div_rows):
                c = dual[j][i]
                if not c:
                    continue
                for a, x in enumerate(member_row):
                    if x:
                        target[offset + a] += c * x
    rank = linalg.rank(rows)
    deficit = dim_q - rank
    threshold = _div_threshold(family, n, space.continuity_order)
    if r < threshold:
        status = SKIPPED
    else:
        status = PASS if deficit == 0 else FAIL
    return CheckResult(
        name=f"div_onto[{family.value} n={n} r={r} k={space.continuity_order} "
        f"cells={len(mesh.cells)}]",
        status=status,
        witness={
            "rank": rank,
            "dim_q": dim_q,
            "deficit": deficit,
            "degree_threshold": threshold,
        },
    )


@cache
def _moment_gram(labels: int, degree: int, dim: int) -> tuple[tuple[float, ...], ...]:
    """Normalized pairwise integrals of the monomial lattice on a dim-simplex."""
    keys = bn.lattice(labels, degree)
    scale = factorial(dim)
    rows = []
    for a in keys:
        row = []
        for b in keys:
            g = [x + y for x, y in zip(a, b)]
            row.append(
                float(
                    Fraction(
                        scale * prod(factorial(e) for e in g),
                        factorial(sum(g) + dim),
                    )
                )
            )
        rows.append(tuple(row))
    return tuple(rows)


def _coeff_pair_matrix(members) -> np.ndarray:
    parts = [tensors.flatten(m.coeff) for m in members]
    arr = np.array([[float(x) for x in p] for p in parts])
    return arr @ arr.T


def infsup_constant(space: GlobalSpace, kernel_threshold: float = 1e-10) -> CheckResult:
    """Discrete inf-sup constant of the div pairing, floating point.

    beta^2 is the smallest eigenvalue of the Schur pencil built from the
    graph-norm mass matrix (value plus div), the discontinuous target mass,
    and the coupling; eigenvalues under the kernel threshold are discarded
    and counted, since none are expected at or above the degree threshold.
    """
    family = space.family
    if family is Family.LAGRANGE:
        raise ValueError("the scalar family has no div pairing")
    mesh = space.mesh
    n, r = mesh.dim, space.degree
    width = family.space_tag.div_width(n)
    qlat = bn.space_dim(n, r - 1)
    qdim_cell = width * qlat
    dim_q = qdim_cell * len(mesh.cells)
    big_v = np.zeros((space.dim, space.dim))
    big_q = np.zeros((dim_q, dim_q))
    coupling = np.zeros((dim_q, space.dim))
    w_val = np.array(_moment_gram(n + 1, r, n))
    w_div = np.array(_moment_gram(n + 1, r - 1, n))
    for ci in range(len(mesh.cells)):
        simplex = mesh.cell_simplices[ci]
        vol = float(simplex.volume())
        basis = space.cell_basis(ci)
        members = basis.members
        scal = np.array(
            [[float(x) for x in bn.coeff_vector(m.scalar, r)] for m in members]
        )
        gram_val = _coeff_pair_matrix(members) * (scal @ w_val @ scal.T)
        div_rows = space.div_rows(ci)
        ndiv = np.array([[float(x) for x in row] for row in div_rows])
        ndiv = ndiv.reshape(len(members), qlat, width)
        gram_div = np.zeros_like(gram_val)
        b_cell = np.zeros((qdim_cell, len(members)))
        for comp in range(width):
            slab = ndiv[:, :, comp]
            gram_div += slab @ w_div @ slab.T
            b_cell[comp::width, :] = w_div @ slab.T
        dual = np.array(
            [[float(x) for x in row] for row in space.dual_coefficients(ci)]
        )
        gidx = np.array(space.local_to_global[ci])
        local_v = dual.T @ (vol * (gram_val + gram_div)) @ dual
        big_v[np.ix_(gidx, gidx)] += local_v
        sl = slice(ci * qdim_cell, (ci + 1) * qdim_cell)
        coupling[sl, gidx] += vol * (b_cell @ dual)
        big_q[sl, sl] = vol * np.kron(w_div, np.eye(width))
    try:
        schur = coupling @ np.linalg.solve(big_v, coupling.T)
        eigs = scipy_linalg.eigh(schur, big_q, eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        return CheckResult(
            name=_infsup_name(space),
            status=FAIL,
            witness={"error": f"singular mass matrix: {exc}"},
        )
    eigs = np.asarray(eigs)
    kept = eigs[eigs > kernel_threshold]
    discarded = int(eigs.size - kept.size)
    beta = sqrt(float(kept.min())) if kept.size else 0.0
    threshold = _div_threshold(family, n, space.continuity_order)
    if r < threshold:
        status = SKIPPED
    else:
        status = PASS if beta > 0 and discarded == 0 else FAIL
    return CheckResult(
        name=_infsup_name(space),
        status=status,
        witness={
            "beta": beta,
            "dim_v": space.dim,
            "dim_q": dim_q,
            "discarded_modes": discarded,
            "kernel_threshold": kernel_threshold,
            "degree_threshold": threshold,
        },
    )


def _infsup_name(space: GlobalSpace) -> str:
    return (
        f"infsup[{space.family.value} n={space.mesh.dim} r={space.degree} "
        f"k={space.continuity_order} cells={len(space.mesh.cells)}]"
    )


def infsup_sweep(meshes, family: Family | str, degree: int, continuity_order: int, drift_tolerance: float = 0.2, kernel_threshold: float = 1e-10) -> CheckResult:
    """Inf-sup constants over a refinement sequence plus a drift bound.

    The stability claim is h-uniformity; at desk scale the proxy is that the
    constant stays positive and moves by less than the tolerated fraction of
    its largest value across the levels.
    """
    results = []
    for mesh in meshes:
        space = assemble(mesh, family, degree, continuity_order)
        results.append(infsup_constant(space, kernel_threshold))
    betas = [res.witness.get("beta", 0.0) for res in results]
    drift = (max(betas) - min(betas)) / max(betas) if betas and max(betas) > 0 else 1.0
    all_pass = all(res.status == PASS for res in results)
    skipped = any(res.status == SKIPPED for res in results)
    if skipped:
        status = SKIPPED
    else:
        status = PASS if all_pass and drift < drift_tolerance else FAIL
    fam = family if isinstance(family, str) else family.value
    return CheckResult(
        name=f"infsup_sweep[{fam} r={degree} k={continuity_order} levels={len(betas)}]",
        status=status,
        witness={
            "betas": betas,
            "drift": drift,
            "drift_tolerance": drift_tolerance,
            "levels": [len(m.cells) for m in meshes],
            "per_level": [res.witness for res in results],
        },
    )
