"""Exact rational linear algebra: rank, nullspace, solve, inverse, determinant.

All routines are deterministic.  Elimination is fraction-free over integer
rows (each input row is scaled by the lcm of its denominators, which never
changes rank or kernel), with cross-multiplication updates and per-row
content reduction to keep entries small.  integer_form is the one place
rationals become integers over a common denominator.  Exact square solves
return IntegerRows, the form DoF matrices are built in: integer rows, each
over its least positive denominator.  invert_block_lower takes a matrix in
that form and returns its inverse as an integer matrix over one
denominator.

rank keeps only the nonzero entries of each row and hands them to
sparse_rank, which picks pivots in Markowitz order (fewest nonzeros),
because the matrices it sees (stacked spans, the reduced global div map)
are sparse and only the count of pivots is read.  sparse_rank eliminates
along the shorter side, transposing a matrix with more nonzero rows than
nonzero columns, since rank A = rank Aᵀ; callers that build a sparse
matrix directly pass its rows to it without a dense form.

Dense rows have one forward elimination, _echelon_int, fraction-free in
the sense of Bareiss (Math. Comp. 1968): pivots in first-nonzero column
order, each row below a pivot cross-multiplied by the pivot and its own
entry in the pivot column, and per-row content reduction.
The decomposition certificate counts its pivots to rank the small dense
coefficient sets of each monomial.  echelon_data hashes its pivots, and
the pivot hashes in reports are taken from that order.  nullspace,
solve_many and invert follow it with one back pass, _back_substitute, and
read their results in integers: the kernel vectors, whose basis (and so
the frame and quotient directions built from it) is fixed by that pivot
order, and the solution rows, which do not depend on it.

echelon_data also has a Gram path, _gram_pivots, for a square block whose
rows are positive scales s_i times the rows of an exactly symmetric matrix
M, as a DoF matrix's interior block is: its functionals are moments
against the bubble space itself.  The block is eliminated on its upper
triangle only, about half the work, and while every pivot is positive its
pivots are _echelon_int's.  Three facts make them so.  The scales are
positive, so every row _echelon_int holds at step k is a positive multiple
of the same row of M's k-th Schur complement.  While the pivots stay
positive nothing is swapped: the first nonzero of column k is the pivot.
And content reduction maps every positive multiple of a row to one
primitive row, so the pivot (the reduced row's entry, or the raw entry of
a row never updated, on both paths) is the same.  A block that is not
symmetric once the scales are undone, or whose pivot is ever zero or
negative, goes to _echelon_int from scratch; nullspace, solve_many and
invert never take the Gram path.

det keeps its own Bareiss elimination, dividing exactly by the previous
pivot: _echelon_int divides each updated row by its content, so its pivots
do not multiply to the determinant that Simplex needs exactly, for its
degeneracy test and for volume.  One routine could serve both once an
elimination tracks its row scales, as site-block determinants would.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

# CPython's builtin SHA-256 digests the pivot text without loading
# OpenSSL's libcrypto, which importing hashlib does (about 3.5 MB of
# resident memory).  dofs imports sha256 from here.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

Scalar = Fraction | int
RowSeq = Sequence[Sequence[Scalar]]


class SingularMatrixError(ValueError):
    """Raised when a solve/invert hits a rank-deficient square matrix."""


def integer_form(values: Iterable[Scalar]) -> tuple[list[int], int]:
    """Integers N and the least positive d with values == N / d entrywise.

    Entries are ints or Fractions; their numerator and denominator are
    read directly, and a Fraction is always in lowest terms, so
    gcd(d, *N) == 1.
    """
    values = list(values)
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _int_rows(mat: RowSeq) -> list[list[int]]:
    return [integer_form(row)[0] for row in mat]


def _reduce_content(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _echelon_int(rows: list[list[int]]) -> list[tuple[int, int]]:
    """Reduce in place to row echelon form; return pivots as (row, col)."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots = []
    pr = 0
    for c in range(ncols):
        if pr == m:
            break
        sel = next((i for i in range(pr, m) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[pr], rows[sel] = rows[sel], rows[pr]
        piv = rows[pr][c]
        rp_tail = rows[pr][c:]
        for i in range(pr + 1, m):
            x = rows[i][c]
            if x == 0:
                continue
            # Entries left of c are already zero below the pivot region.
            tail = [piv * a - x * b for a, b in zip(rows[i][c:], rp_tail)]
            rows[i] = [0] * c + _reduce_content(tail)
        pivots.append((pr, c))
        pr += 1
    return pivots


def _back_substitute(rows: list[list[int]], pivots: list[tuple[int, int]]) -> None:
    """Clear each pivot column above its pivot, in place, on rows that
    _echelon_int left in echelon form.

    Pivots are taken last first, so a pivot row is already clear in every
    later pivot column when it is used.  Each row holding the column is
    cross-multiplied over the gcd of the two entries and divided by its
    content, as in the forward pass.  Afterwards pivot row i is nonzero in
    pivot column i only, besides the non-pivot columns.
    """
    for pr, pc in reversed(pivots):
        pivot_row = rows[pr]
        piv = pivot_row[pc]
        support = [j for j in range(pc, len(pivot_row)) if pivot_row[j]]
        for i in range(pr):
            row = rows[i]
            x = row[pc]
            if not x:
                continue
            g = gcd(piv, x)
            a, b = piv // g, x // g
            row = [a * y for y in row] if a != 1 else row
            for j in support:
                row[j] -= b * pivot_row[j]
            rows[i] = _reduce_content(row)


def _gram_pivots(rows: list[list[int]], scales: list[int]) -> list[int] | None:
    """_echelon_int's pivot values on a scaled symmetric block, from its
    upper triangle; None for any other block, or at a pivot that is not
    positive.

    Row i of rows is scales[i] > 0 times row i of a matrix M, and M must be
    square and exactly symmetric.  Row i is kept from column i on, as t_i
    times the upper part of row i of M's Schur complement, with t_i a
    positive rational held as num[i] / den[i].  At step k the complement is
    symmetric, so row i's entry in column k is t_i / t_k times the pivot
    row's entry x in column i: row i becomes q·piv·row_i − p·x·row_k over
    the gcd of the two multipliers, p / q = t_i / t_k, and is divided by its
    content.  A pivot is the pivot row's entry in its own column, content
    reduced if the row was ever updated and the raw entry if not.
    """
    m = len(rows)
    if any(len(row) != m for row in rows):
        return None
    for i, row in enumerate(rows):
        s = scales[i]
        for j in range(i + 1, m):
            if row[j] * scales[j] != rows[j][i] * s:
                return None
    upper = [row[i:] for i, row in enumerate(rows)]
    num, den = list(scales), [1] * m
    pivots = []
    for k in range(m):
        pivot_row = upper[k]
        piv = pivot_row[0]
        if piv <= 0:
            return None
        pivots.append(piv)
        for off in range(1, m - k):
            x = pivot_row[off]
            if not x:
                continue
            i = k + off
            a, b = den[i] * num[k] * piv, num[i] * den[k] * x
            g = gcd(a, b)
            a, b = a // g, b // g
            new = [a * y - b * z for y, z in zip(upper[i], pivot_row[off:])]
            c = gcd(*new)
            if not c:  # row i's pivot will be zero
                return None
            upper[i] = [y // c for y in new] if c > 1 else new
            # Row i is now a / c times t_i times the new complement row.
            t_num, t_den = num[i] * a, den[i] * c
            g = gcd(t_num, t_den)
            num[i], den[i] = t_num // g, t_den // g
    return pivots


def echelon_data(mat: RowSeq, scales: Sequence[int] | None = None) -> tuple[int, str]:
    """Rank and pivot hash of the dense elimination: sha256 of the shape
    and each step's pivot column and value, for rank certificates.

    scales, if given, are positive integers with row i of mat equal to
    scales[i] times row i of a matrix M.  When M is square and exactly
    symmetric the block is first eliminated on its upper triangle
    (_gram_pivots); if every pivot there is positive, as for the Gram
    matrix of independent vectors, they are _echelon_int's pivots (see the
    module docstring), so the rank and hash are the same.  Any other block
    goes to _echelon_int from scratch.
    """
    forms = [integer_form(row) for row in mat]
    rows = [ints for ints, _ in forms]
    shape = f"{len(rows)}x{len(rows[0]) if rows else 0}"
    gram = None if scales is None else _gram_pivots(rows, [s * d for s, (_, d) in zip(scales, forms)])
    if gram is not None:
        pivots = list(enumerate(gram))
    else:
        pivots = [(c, rows[r][c]) for r, c in _echelon_int(rows)]
    text = ",".join(f"{step}:{c}:{value}" for step, (c, value) in enumerate(pivots))
    return len(pivots), sha256(f"{shape};{text}".encode()).hexdigest()


def _coprime(row: dict[int, int]) -> dict[int, int]:
    """A sparse integer row divided by its content."""
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _sparse_int_row(row: Sequence[Scalar]) -> dict[int, int]:
    """Nonzero entries of the row scaled to integers, by column."""
    cols = [j for j, x in enumerate(row) if x]
    ints, _ = integer_form(row[j] for j in cols)
    return dict(zip(cols, ints))


def rank(mat: RowSeq) -> int:
    """Exact rank: each row scaled to integers and kept by its nonzero
    entries, then sparse_rank."""
    return sparse_rank(_sparse_int_row(row) for row in mat)


def sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Exact rank of integer rows given as {column: nonzero entry}: the
    number of pivots of _markowitz_pivots."""
    return sum(1 for _ in _markowitz_pivots(rows))


def _markowitz_pivots(rows: Iterable[dict[int, int]]) -> Iterator[tuple[int, int]]:
    """The pivots (row key, column) of a fraction-free elimination of
    integer rows given as {column: nonzero entry}, in the order taken, on
    the side eliminated.

    rank A = rank Aᵀ, so the shorter side is eliminated: when the nonzero
    rows outnumber the nonzero columns, the sparse rows are transposed
    first, and the dependent rows of a tall matrix are never reduced to
    zero one pivot at a time.  Each step takes the remaining row with the
    fewest nonzeros and, in it, the column held by the fewest remaining
    rows (Markowitz order), so a pivot disturbs as few rows and creates as
    little fill as the greedy choice allows.  Ties go to the lowest row
    key.  The rows wait in a min-heap of (nonzeros, key); a row is pushed
    again when its count changes, and entries that no longer match their
    row are skipped.  Every row holding the pivot column is updated by
    cross multiplication and reduced to coprime entries.
    """
    rows = {i: _coprime(row) for i, row in enumerate(rows) if row}
    columns: dict[int, dict[int, int]] = {}
    for i, row in rows.items():
        for j, x in row.items():
            columns.setdefault(j, {})[i] = x
    if len(rows) > len(columns):
        rows, columns = {j: _coprime(col) for j, col in sorted(columns.items())}, rows
    holders = {j: set(col) for j, col in columns.items()}  # column -> remaining rows nonzero there
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    while rows:
        size, p = heapq.heappop(heap)
        if len(rows.get(p, ())) != size:
            continue
        pivot_row = rows.pop(p)
        c = min(pivot_row, key=lambda j: len(holders[j]))
        for j in pivot_row:
            holders[j].discard(p)
        yield p, c
        piv = pivot_row[c]
        for i in sorted(holders[c]):
            row = rows[i]
            g = gcd(piv, row[c])
            a, b = piv // g, row[c] // g
            new = {j: a * x for j, x in row.items()}
            for j, y in pivot_row.items():
                x = new.get(j, 0) - b * y
                if x:
                    new[j] = x
                else:
                    del new[j]
            for j in row.keys() - new.keys():
                holders[j].discard(i)
            for j in new.keys() - row.keys():
                holders[j].add(i)
            if new:
                if len(new) != len(row):
                    heapq.heappush(heap, (len(new), i))
                rows[i] = _coprime(new)
            else:
                del rows[i]


def nullspace(mat: RowSeq, cols: int | None = None) -> list[list[int]]:
    """Basis of the right kernel, one primitive vector per free column.

    After elimination and back substitution each pivot row reads
    row[pc] x_pc + sum over free columns row[fc] x_fc = 0, so the vector of
    free column fc is x_fc = L, x_pc = -row[fc] (L / row[pc]) with L the
    lcm of the pivots involved, and zero elsewhere: integers throughout,
    divided by their gcd and signed so the leading entry is positive.
    """
    rows = _int_rows(mat)
    if cols is None:
        if not rows:
            raise ValueError("cols is required for a matrix with no rows")
        cols = len(rows[0])
    pivots = _echelon_int(rows)
    _back_substitute(rows, pivots)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in range(cols):
        if fc in pivot_cols:
            continue
        held = [(rows[pr][fc], rows[pr][pc], pc) for pr, pc in pivots if rows[pr][fc]]
        scale = lcm(*(piv for _, piv, _ in held))
        x = [0] * cols
        x[fc] = scale
        for y, piv, pc in held:
            x[pc] = -y * (scale // piv)
        g = gcd(*x)
        if next(y for y in x if y) < 0:
            g = -g
        basis.append([y // g for y in x])
    return basis


class IntegerRows(list):
    """Rows of integers, row i over its own least positive denominator: the
    rational entry (i, j) is self[i][j] / self.denominators[i], and
    gcd(denominators[i], *self[i]) == 1."""

    def __init__(self, rows: list[list[int]], denominators: list[int]):
        super().__init__(rows)
        self.denominators = denominators

    def over_one_denominator(self) -> tuple[list[list[int]], int]:
        """The same matrix as integers N over the least positive d, row i
        scaled by d / denominators[i]; gcd(d, *N) == 1 follows row by row."""
        d = lcm(*self.denominators)
        return [row if e == d else [x * (d // e) for x in row] for row, e in zip(self, self.denominators)], d


def solve_many(mat: RowSeq, rhs: RowSeq) -> IntegerRows:
    """Solve A X = B exactly for square A, with B given by rows; returns
    the rows of X.

    Each row of [A | B] is scaled to integers, [S A | S B], and brought to
    echelon form; A is singular unless the pivots fall in its columns
    0..m-1.  Back substitution then leaves the left block diagonal, D, and
    row i of X is row i of the right block over D_ii, divided by their gcd
    (sign included) so the denominator is the least positive one.  No
    Fraction is built.
    """
    m = len(mat)
    if any(len(row) != m for row in mat):
        raise ValueError("matrix must be square")
    if len(rhs) != m:
        raise ValueError("right-hand side length mismatch")
    rows = _int_rows([[*x, *y] for x, y in zip(mat, rhs)])
    pivots = _echelon_int(rows)
    if [c for _, c in pivots] != list(range(m)):
        raise SingularMatrixError(f"matrix of size {m} is rank deficient")
    _back_substitute(rows, pivots)
    out, dens = [], []
    for i, row in enumerate(rows):
        x = row[m:]
        g = gcd(row[i], *x)
        if row[i] < 0:
            g = -g
        out.append(x if g == 1 else [y // g for y in x])
        dens.append(row[i] // g)
    return IntegerRows(out, dens)


def invert(mat: RowSeq) -> IntegerRows:
    """Exact inverse: the rows solve_many returns for A X = I."""
    m = len(mat)
    return solve_many(mat, [[int(i == j) for j in range(m)] for i in range(m)])


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    width = len(b[0]) if b else 0
    # The nonzeros of each row of b, found once for every row of a.
    b_nonzeros = [[(j, y) for j, y in enumerate(b_row) if y] for b_row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, nonzeros in zip(row, b_nonzeros):
            if x:
                for j, y in nonzeros:
                    acc[j] += x * y
        out.append(acc)
    return out


def invert_block_lower(mat: IntegerRows, blocks: Sequence[tuple[str, Sequence[int], Sequence[int]]]) -> tuple[list[list[int]], int]:
    """Exact inverse of a square matrix that is block lower-triangular
    once its columns are grouped, as an integer matrix N over the least
    positive denominator d (so gcd(d, *N) == 1).

    The matrix is brought over the lcm of its row denominators once.
    blocks lists (label, row indices, column indices) in elimination order;
    the index sets tile the matrix and mat[rows_i][cols_j] is zero for
    every j > i, which the caller certifies.  Each diagonal block is
    inverted with invert and its rows brought over one denominator; the
    blocks below the diagonal follow by block forward substitution,
    X_ij = -A_ii^-1 sum_{j <= k < i} A_ik X_kj, in integer arithmetic over
    one denominator per block, skipping zero blocks.  Row c of N belongs to
    column c of mat, as for invert.
    """
    ints, den = mat.over_one_denominator()  # mat == ints / den

    def block(i: int, k: int) -> list[list[int]]:
        return [[ints[r][c] for c in blocks[k][2]] for r in blocks[i][1]]

    lower = {}
    for i in range(len(blocks)):
        for k in range(i):
            part = block(i, k)
            if any(any(row) for row in part):
                lower[i, k] = part
    diagonal = []
    for i, (label, rows, _) in enumerate(blocks):
        try:
            diagonal.append(invert(block(i, i)).over_one_denominator())
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"diagonal block {label} of size {len(rows)} is singular"
            ) from exc

    columns = []
    for j in range(len(blocks)):
        # Block column j of ints^-1, each block as (integer matrix, denominator).
        column = {j: diagonal[j]}
        for i in range(j + 1, len(blocks)):
            terms = [(lower[i, k], column[k]) for k in range(j, i) if (i, k) in lower and k in column]
            if not terms:
                continue
            common = lcm(*(d for _, (_, d) in terms))
            acc = [[0] * len(blocks[j][1]) for _ in blocks[i][1]]
            for a_ik, (x_kj, d) in terms:
                f = common // d
                for acc_row, row in zip(acc, _int_matmul(a_ik, x_kj)):
                    for c, y in enumerate(row):
                        acc_row[c] += f * y
            inv_i, d_i = diagonal[i]
            x_ij = [[-y for y in row] for row in _int_matmul(inv_i, acc)]
            d_ij = d_i * common
            g = gcd(d_ij, *(y for row in x_ij for y in row))
            column[i] = ([[y // g for y in row] for row in x_ij], d_ij // g)
        columns.append(column)

    # mat^-1 == den * ints^-1; bring every block over one denominator.
    d_out = lcm(*(d for column in columns for _, d in column.values()))
    m = len(ints)
    out = [[0] * m for _ in range(m)]
    for j, column in enumerate(columns):
        # Rows of mat in block j index the columns of the inverse.
        for i, (x, d) in column.items():
            f = den * (d_out // d)
            for r, row in zip(blocks[i][2], x):
                target = out[r]
                for c, y in zip(blocks[j][1], row):
                    if y:
                        target[c] = f * y
    g = gcd(d_out, *(y for row in out for y in row))
    if g > 1:
        out = [[y // g for y in row] for row in out]
    return out, d_out // g


def det(mat: RowSeq) -> Fraction:
    """Determinant by the Bareiss fraction-free scheme."""
    m = len(mat)
    if any(len(row) != m for row in mat):
        raise ValueError("matrix must be square")
    if m == 0:
        return Fraction(1)
    rows = []
    scale = 1
    for row in mat:
        ints, s = integer_form(row)
        scale *= s
        rows.append(ints)
    sign = 1
    prev = 1
    for k in range(m - 1):
        if rows[k][k] == 0:
            sel = next((i for i in range(k + 1, m) if rows[i][k] != 0), None)
            if sel is None:
                return Fraction(0)
            rows[k], rows[sel] = rows[sel], rows[k]
            sign = -sign
        for i in range(k + 1, m):
            rik = rows[i][k]
            rkk = rows[k][k]
            row_i = rows[i]
            row_k = rows[k]
            for j in range(k + 1, m):
                row_i[j] = (rkk * row_i[j] - rik * row_k[j]) // prev
            row_i[k] = 0
        prev = rows[k][k]
    return Fraction(sign * rows[m - 1][m - 1], scale)

