"""The inf-sup pencil solved densely, as a reference for the condensed
solve in assembly.infsup_constant.

It assembles the full graph-norm mass V (dim_v x dim_v) and coupling C
(dim_q x dim_v), forms S = C V^-1 C^T with one dense solve and returns beta
and the number of eigenvalues of S at or under the kernel threshold.  Its
memory grows as dim_v^2, so it suits meshes of tens of cells.
"""

from __future__ import annotations

from math import sqrt

import numpy as np

from hdiv_geodecomp import bernstein as bn
from hdiv_geodecomp.assembly import (
    KERNEL_THRESHOLD,
    GlobalSpace,
    _coeff_pair_matrix,
    _member_coefficients,
    _moment_gram,
)


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
    gram_val = _coeff_pair_matrix(_member_coefficients(members)) * w_val[np.ix_(at, at)]
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
