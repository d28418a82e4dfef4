"""Seeded perturbed 2D meshes for the suite_2d_perturbed workload.

The generator is independent of the package under test: it refines the
criss-cross square itself, moves interior vertices by small rational
offsets, and rejects folded cells itself, because the package's
``validate_mesh`` accepts folded meshes and cannot be trusted to catch one.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction


class FoldError(ValueError):
    """A perturbation flipped or flattened a cell."""


def criss_cross():
    """The unit square cut along both diagonals: 5 vertices, 4 cells."""
    half = Fraction(1, 2)
    verts = [(Fraction(x), Fraction(y)) for x, y in ((0, 0), (1, 0), (0, 1), (1, 1))]
    verts.append((half, half))
    return verts, [(0, 1, 4), (0, 2, 4), (1, 3, 4), (2, 3, 4)]


def refine(verts, cells):
    """One red refinement sweep, in the package's child and midpoint order."""
    verts = list(verts)
    midpoint: dict[tuple[int, int], int] = {}

    def mid(a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            verts.append(tuple((x + y) / 2 for x, y in zip(verts[a], verts[b])))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    children = []
    for a, b, c in cells:
        ab, ac, bc = mid(a, b), mid(a, c), mid(b, c)
        children += [(a, ab, ac), (b, ab, bc), (c, ac, bc), (ab, ac, bc)]
    return verts, [tuple(sorted(c)) for c in children]


def structured_mesh(refinements: int):
    verts, cells = criss_cross()
    for _ in range(refinements):
        verts, cells = refine(verts, cells)
    return verts, cells


def _cell_edges(cells):
    for c in cells:
        for i in range(3):
            for j in range(i + 1, 3):
                yield c[i], c[j]


def boundary_vertices(cells) -> set[int]:
    """Vertices of edges that belong to exactly one cell."""
    return {v for edge, k in Counter(_cell_edges(cells)).items() if k == 1 for v in edge}


def signed_area(verts, cell) -> Fraction:
    """Twice the signed area of a triangle, in the cell's vertex order."""
    (x0, y0), (x1, y1), (x2, y2) = (verts[i] for i in cell)
    return (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)


def check_no_folds(original, perturbed, cells) -> None:
    """Raise FoldError if any cell's signed area changed sign or vanished."""
    for cell in cells:
        before = signed_area(original, cell)
        after = signed_area(perturbed, cell)
        if before == 0 or after == 0 or (before > 0) != (after > 0):
            raise FoldError(f"cell {cell} folds: signed area {before} -> {after}")


# Offsets are (h/8)·p/8 with p odd, so every moved coordinate has the same
# denominator whatever the seed, and with it the cost of exact arithmetic.
_STEPS = tuple(p for p in range(-7, 8) if p % 2)


def perturb(verts, cells, seed: int):
    """Move every interior vertex by at most h/8 in the max norm.

    h is the shortest edge of the mesh in the max norm.  Each interior
    vertex gets its own offset pair, drawn without replacement; a draw in
    which two cells are still translates of each other is drawn again.
    """
    h = min(max(abs(a - b) for a, b in zip(verts[i], verts[j])) for i, j in set(_cell_edges(cells)))
    fixed = boundary_vertices(cells)
    interior = [vi for vi in range(len(verts)) if vi not in fixed]
    pairs = [(px, py) for px in _STEPS for py in _STEPS]
    rng = random.Random(seed)
    while True:
        offsets = dict(zip(interior, rng.sample(pairs, len(interior))))
        out = []
        for vi, point in enumerate(verts):
            step = offsets.get(vi, (0, 0))
            out.append(tuple(x + h / 64 * p for x, p in zip(point, step)))
        check_no_folds(verts, out, cells)
        if distinct_shapes(out, cells) == len(cells):
            return out


def perturbed_mesh(refinements: int, seed: int):
    verts, cells = structured_mesh(refinements)
    return perturb(verts, cells, seed), cells


def mesh_json(verts, cells) -> str:
    """The package's mesh JSON format: coordinates as [numerator, denominator]."""
    data = {
        "dim": 2,
        "vertices": [[[x.numerator, x.denominator] for x in p] for p in verts],
        "cells": [list(c) for c in cells],
    }
    return json.dumps(data) + "\n"


def distinct_shapes(verts, cells) -> int:
    """The number of cells that differ up to translation."""
    shapes = set()
    for cell in cells:
        pts = sorted(verts[i] for i in cell)
        shapes.add(tuple(tuple(a - b for a, b in zip(p, pts[0])) for p in pts))
    return len(shapes)


def mesh_properties(verts, cells) -> dict:
    """Input properties recorded with each run."""
    return {
        "cells": len(cells),
        "vertices": len(verts),
        "distinct_shapes": distinct_shapes(verts, cells),
        "max_denominator": max(x.denominator for p in verts for x in p),
    }
