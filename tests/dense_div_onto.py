"""The global div map as one dense integer matrix, as a reference for the
cellwise rank in assembly.check_div_onto.

dense_div_onto_rows builds one row per global basis function: its div over
the degree r-1 lattice of every cell, one column block per cell.  Its rank
by linalg.rank is the rank check_div_onto must report.  The matrix holds
dim_v x dim_q Python ints, so it suits meshes of tens of cells.
"""

from __future__ import annotations

from hdiv_geodecomp import bernstein as bn
from hdiv_geodecomp import linalg
from hdiv_geodecomp.assembly import GlobalSpace, cell_rows


def dense_div_onto_rows(space: GlobalSpace) -> list[list[int]]:
    mesh = space.mesh
    qdim_cell = space.family.div_width(mesh.dim) * bn.space_dim(mesh.dim, space.degree - 1)
    rows = [[0] * (qdim_cell * len(mesh.cells)) for _ in range(space.dim)]
    for ci in range(len(mesh.cells)):
        # Column block ci keeps the cell's own denominator: scaling a block
        # of columns by a nonzero constant leaves the rank unchanged.
        member_rows, den = space.div_rows(ci)
        ints, _ = cell_rows(space, ci, dict(enumerate(member_rows)), den)
        offset = ci * qdim_cell
        for g, row in zip(space.local_to_global[ci], ints):
            rows[g][offset:offset + qdim_cell] = row
    return rows


def dense_div_onto_rank(space: GlobalSpace) -> int:
    return linalg.rank(dense_div_onto_rows(space))
