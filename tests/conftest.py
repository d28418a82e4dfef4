from __future__ import annotations

import random
from fractions import Fraction

from hdiv_geodecomp.simplex import Simplex, SingularGeometryError, reference_simplex


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


__all__ = ["random_simplex", "rational_rows"]
