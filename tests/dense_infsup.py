"""The inf-sup pencil solved densely, as a reference for the condensed
solve in assembly.infsup_constant.

It assembles the full graph-norm mass V (dim_v x dim_v) and coupling C
(dim_q x dim_v), forms S = C V^-1 C^T with one dense solve and returns beta
and the number of eigenvalues of S at or under the kernel threshold.  Its
memory grows as dim_v^2, so it suits meshes of tens of cells.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, sqrt

import numpy as np

from hdiv_geodecomp import bernstein as bn
from hdiv_geodecomp import tensors
from hdiv_geodecomp.assembly import (
    KERNEL_THRESHOLD,
    GlobalSpace,
    _coeff_pair_matrix,
    _moment_gram,
)


def member_coefficients(members) -> tuple[list[list[int]], int]:
    """Each member's flattened coefficient, read as Fractions, as an
    integer row, all over one least denominator: the reference for the
    member coefficients of the float records, which the package reads from
    the basis's integer coefficients instead."""
    rows = [[Fraction(x) for x in tensors.flatten(m.coeff)] for m in members]
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows], den


def cell_pencil(space: GlobalSpace, ci: int):
    """Cell ci's graph-norm mass and scaled div coupling on its DoFs in
    local order."""
    mesh = space.mesh
    n, r = mesh.dim, space.degree
    width = space.family.div_width(n)
    qlat = bn.space_dim(n, r - 1)
    w_val = np.array(_moment_gram(n + 1, r, n))
    chol_t = np.linalg.cholesky(np.array(_moment_gram(n + 1, r - 1, n))).T
    positions = bn.lattice_position(n + 1, r)
    vol = float(mesh.cell_simplices[ci].volume())
    members = space.cell_basis(ci).members
    at = [positions[m.beta] for m in members]
    gram_val = _coeff_pair_matrix(member_coefficients(members)) * w_val[np.ix_(at, at)]
    rows, den = space.div_rows(ci)
    ndiv = np.array([[x / den for x in row] for row in rows])
    ndiv = ndiv.reshape(len(members), qlat, width)
    b_cell = np.empty((width * qlat, len(members)))
    for comp in range(width):
        b_cell[comp::width, :] = chol_t @ ndiv[:, :, comp].T
    ints, d = space.dual_coefficients(ci)
    dual = np.array([[x / d for x in row] for row in ints])
    return dual.T @ (vol * (gram_val + b_cell.T @ b_cell)) @ dual, sqrt(vol) * (b_cell @ dual)


def dense_infsup(space: GlobalSpace) -> tuple[float, int]:
    big_v = np.zeros((space.dim, space.dim))
    coupling = np.zeros((space.dim_q, space.dim))
    qdim_cell = space.dim_q // len(space.mesh.cells)
    for ci, l2g in enumerate(space.local_to_global):
        mass, cell_coupling = cell_pencil(space, ci)
        gidx = np.array(l2g)
        big_v[np.ix_(gidx, gidx)] += mass
        coupling[ci * qdim_cell:(ci + 1) * qdim_cell, gidx] += cell_coupling
    eigs = np.linalg.eigvalsh(coupling @ np.linalg.solve(big_v, coupling.T))
    kept = eigs[eigs > KERNEL_THRESHOLD]
    beta = sqrt(float(kept.min())) if kept.size else 0.0
    return beta, int(eigs.size - kept.size)


def condensed_cells(space: GlobalSpace):
    """Every cell's own pencil in interior-first order, condensed by one
    batched elimination over the cells: the reference for
    assembly._condense_cells, which condenses once per class.  Returns the
    per-cell Σ_T, Ĉ_T and D_T."""
    pencils = [cell_pencil(space, ci) for ci in range(len(space.mesh.cells))]
    orders = [inner + outer for inner, outer in space.interior_split]
    v = np.array([mass[np.ix_(order, order)] for (mass, _), order in zip(pencils, orders)])
    c = np.array([coupling[:, order] for (_, coupling), order in zip(pencils, orders)])
    ni = len(space.interior_split[0][0])
    lower = np.linalg.cholesky(v[:, :ni, :ni])
    w_b = np.linalg.solve(lower, v[:, :ni, ni:])
    w_c = np.linalg.solve(lower, c[:, :, :ni].transpose(0, 2, 1))
    sigma = v[:, ni:, ni:] - w_b.transpose(0, 2, 1) @ w_b
    return sigma, c[:, :, ni:] - w_c.transpose(0, 2, 1) @ w_b, w_c.transpose(0, 2, 1) @ w_c
