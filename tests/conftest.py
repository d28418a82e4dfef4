from __future__ import annotations

import random
from fractions import Fraction

from hdiv_geodecomp.dofs import FACEWISE, DoFSet, merge_face_dofs
from hdiv_geodecomp.simplex import Simplex, SingularGeometryError, enumerate_subsimplices, reference_simplex


def random_simplex(rng: random.Random, n: int) -> Simplex:
    """Reference simplex with random rational vertex perturbations."""
    while True:
        pts = []
        for v in reference_simplex(n).vertices:
            pts.append(tuple(x + Fraction(rng.randint(-2, 2), rng.randint(3, 7)) for x in v))
        try:
            return Simplex(tuple(pts))
        except SingularGeometryError:
            continue


def rational_rows(matrix) -> list[list[Fraction]]:
    """Integer rows over per-row denominators (a DoF matrix, or the result
    of an exact solve) read as the rationals they stand for."""
    return [[Fraction(x, d) for x in row] for row, d in zip(matrix, matrix.denominators)]


def merge_all_faces(dofs: DoFSet) -> DoFSet:
    """Apply the facet merge on every facet that carries facewise moments."""
    out = dofs
    for F in enumerate_subsimplices(dofs.simplex.dim, dofs.simplex.dim - 1):
        if any(nf.scope == FACEWISE and nf.face == F for nf in out.functionals):
            out = merge_face_dofs(out, F).dofs
    return out


def sym(a):
    """The symmetric part (A + Aᵀ)/2 of a square matrix, exact."""
    n = len(a)
    return tuple(tuple(Fraction(a[i][j] + a[j][i], 2) for j in range(n)) for i in range(n))


__all__ = ["merge_all_faces", "random_simplex", "rational_rows", "sym"]
