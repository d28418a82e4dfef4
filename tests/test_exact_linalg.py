"""Exact rank / nullspace / solve behaviour on known matrices."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdiv_geodecomp import dofs as dofmod
from hdiv_geodecomp import linalg
from hdiv_geodecomp.spaces import Family, decompose

from conftest import random_simplex, rational_rows


def random_rational_matrix(rng, rows, cols):
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
        for _ in range(rows)
    ]


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_rank_identity():
    eye = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert linalg.rank(eye) == 3


def test_rank_dependent_rows():
    assert linalg.rank([[1, 2], [2, 4]]) == 1


@pytest.mark.parametrize("target_rank", [1, 5, 12, 20])
def test_rank_of_constructed_product(target_rank):
    # A 20×r times r×20 product has rank exactly r with probability one;
    # the seeds below were checked to avoid the degenerate cases.
    rng = random.Random(1000 + target_rank)
    left = random_rational_matrix(rng, 20, target_rank)
    right = random_rational_matrix(rng, target_rank, 20)
    assert linalg.rank(matmul(left, right)) == target_rank


def test_rank_transpose_matches():
    rng = random.Random(7)
    for _ in range(10):
        m = random_rational_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        mt = [list(col) for col in zip(*m)]
        assert linalg.rank(m) == linalg.rank(mt)


def test_nullspace_of_sum_constraint():
    basis = linalg.nullspace([[1, 1]])
    assert len(basis) == 1
    assert basis[0] in ([Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)])


def test_nullspace_rank_nullity_and_membership():
    rng = random.Random(21)
    for _ in range(10):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = random_rational_matrix(rng, rows, cols)
        kernel = linalg.nullspace(m)
        assert len(kernel) == cols - linalg.rank(m)
        for vec in kernel:
            image = [sum(m[i][j] * vec[j] for j in range(cols)) for i in range(rows)]
            assert all(x == 0 for x in image)


def test_nullspace_of_empty_matrix_is_full_space():
    kernel = linalg.nullspace([], cols=3)
    assert len(kernel) == 3
    assert linalg.rank(kernel) == 3


def test_solve_round_trip():
    rng = random.Random(3)
    m = 6
    a = random_rational_matrix(rng, m, m)
    x = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(m)]
    b = [sum(a[i][j] * x[j] for j in range(m)) for i in range(m)]
    # B by rows, two right-hand sides: A X = [b | 2b] has the rows (x_i, 2 x_i).
    rows = linalg.solve_many(a, [[y, 2 * y] for y in b])
    assert all(d > 0 and gcd(d, *row) == 1 for row, d in zip(rows, rows.denominators))
    assert rational_rows(rows) == [[y, 2 * y] for y in x]


def test_solve_singular_raises():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve_many([[1, 2], [2, 4]], [[1], [1]])


def test_invert_gives_identity():
    rng = random.Random(5)
    a = random_rational_matrix(rng, 5, 5)
    inv = rational_rows(linalg.invert(a))
    prod = matmul(a, inv)
    eye = [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]
    assert prod == eye


def test_det_triangular_and_product_rule():
    upper = [[2, 5, 1], [0, 3, 7], [0, 0, Fraction(1, 2)]]
    assert linalg.det(upper) == 3
    rng = random.Random(11)
    a = random_rational_matrix(rng, 4, 4)
    b = random_rational_matrix(rng, 4, 4)
    assert linalg.det(matmul(a, b)) == linalg.det(a) * linalg.det(b)


def test_det_singular_is_zero():
    assert linalg.det([[1, 2], [2, 4]]) == 0


def test_subspace_equal_cases():
    e1, e2 = [1, 0, 0], [0, 1, 0]
    # two spans are equal iff each rank equals the rank of their union
    b = [[1, 1, 0], [1, -1, 0]]
    assert linalg.rank([e1, e2]) == linalg.rank(b) == linalg.rank([e1, e2, *b])
    assert not linalg.rank([e1]) == linalg.rank([e2]) == linalg.rank([e1, e2])
    assert linalg.rank([e1, e2]) == linalg.rank([e1, e2]) == linalg.rank([e1, e2, e1, e2])


def test_echelon_trace_is_reproducible():
    rng = random.Random(13)
    m = random_rational_matrix(rng, 6, 9)
    rank, pivot_hash = linalg.echelon_data(m)
    assert linalg.echelon_data([list(row) for row in m]) == (rank, pivot_hash)
    assert rank == linalg.rank(m)


_entries = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def rank_test_matrices(draw):
    """Random or planted rank-r matrices, tall or wide, with duplicate,
    scaled and zero rows mixed in.  Some are much taller than wide, with
    many planted dependent rows, and some carry zero columns."""
    cols = draw(st.integers(1, 9))
    tall = draw(st.booleans())
    rows = draw(st.integers(cols + 1, 4 * cols + 4)) if tall else draw(st.integers(0, 9))
    if tall or draw(st.booleans()):
        r = draw(st.integers(0, min(rows, cols)))
        left = draw(st.lists(st.lists(_entries, min_size=r, max_size=r), min_size=rows, max_size=rows))
        right = draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols), min_size=r, max_size=r))
        mat = [[sum((a * b for a, b in zip(row, col)), 0) for col in zip(*right)] if r else [0] * cols
               for row in left]
    else:
        mat = draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for pick in draw(st.lists(st.integers(-1, max(rows - 1, 0)), max_size=3)):
        if pick < 0 or not rows:
            mat.append([0] * cols)
        else:
            scale = draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))
            mat.append([scale * x for x in mat[pick]])
    for j in draw(st.lists(st.integers(0, cols), max_size=2)):
        mat = [row[:j] + [0] + row[j:] for row in mat]
    order = draw(st.permutations(range(len(mat))))
    return [mat[i] for i in order]


@settings(max_examples=100, deadline=None)
@given(rank_test_matrices())
def test_sparse_rank_matches_dense_echelon_rank(mat):
    dense, _ = linalg.echelon_data(mat)
    assert linalg.rank(mat) == dense
    assert linalg.rank([list(col) for col in zip(*mat)]) == dense
    # The sparse core alone, on integer rows that are not reduced to coprime.
    scaled = [{j: 6 * x for j, x in enumerate(linalg.integer_form(row)[0]) if x} for row in mat]
    assert linalg.sparse_rank(scaled) == dense


def _markowitz_reference(rows):
    """The Markowitz pivot order by a scan of every remaining row per step:
    min over the key-ordered dict takes the lowest key among ties."""
    rows = {i: linalg._coprime(row) for i, row in enumerate(rows) if row}
    columns = {}
    for i, row in rows.items():
        for j, x in row.items():
            columns.setdefault(j, {})[i] = x
    if len(rows) > len(columns):
        rows, columns = {j: linalg._coprime(col) for j, col in sorted(columns.items())}, rows
    holders = {j: set(col) for j, col in columns.items()}
    pivots = []
    while rows:
        p = min(rows, key=lambda i: len(rows[i]))
        pivot_row = rows.pop(p)
        c = min(pivot_row, key=lambda j: len(holders[j]))
        for j in pivot_row:
            holders[j].discard(p)
        pivots.append((p, c))
        for i in sorted(holders[c]):
            row = rows[i]
            g = gcd(pivot_row[c], row[c])
            a, b = pivot_row[c] // g, row[c] // g
            # Keys keep the order of row, then the fill in pivot row order:
            # the column choice breaks ties by that order.
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
                rows[i] = linalg._coprime(new)
            else:
                del rows[i]
    return pivots


@settings(max_examples=100, deadline=None)
@given(rank_test_matrices())
def test_markowitz_heap_keeps_the_scan_pivot_order(mat):
    rows = [linalg._sparse_int_row(row) for row in mat]
    assert list(linalg._markowitz_pivots(rows)) == _markowitz_reference(rows)


def test_markowitz_heap_keeps_the_scan_pivot_order_on_a_sparse_matrix():
    # Many rows tie on their count at every step, and updates both grow
    # and shrink rows.
    rng = random.Random(5)
    rows = [{j: rng.choice([-2, -1, 1, 3]) for j in rng.sample(range(60), rng.randint(1, 5))} for _ in range(50)]
    pivots = list(linalg._markowitz_pivots(rows))
    assert pivots == _markowitz_reference(rows)
    assert len(pivots) == linalg.echelon_data([[row.get(j, 0) for j in range(60)] for row in rows])[0]


def test_builtin_sha256_matches_hashlib():
    import hashlib

    # The digests run on CPython's builtin module, never on OpenSSL's.
    assert linalg.sha256.__module__ in ("_sha2", "_sha256")
    assert linalg.sha256(b"abc").hexdigest() == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    for text in ["", "3x3;0:0:1,1:1:-2,2:2:7", "f0:" + "ab" * 64 + ";" * 1000]:
        assert linalg.sha256(text.encode()).hexdigest() == hashlib.sha256(text.encode()).hexdigest()
    digest = linalg.sha256()
    for part in ["e01:", "0" * 64, ";"]:
        digest.update(part.encode())
    assert digest.hexdigest() == hashlib.sha256(("e01:" + "0" * 64 + ";").encode()).hexdigest()


def _rref(mat, cols):
    """Reduced row echelon form in Fractions, pivots in first-nonzero
    column order: (nonzero rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    for c in range(cols):
        sel = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        p = len(pivots)
        rows[p], rows[sel] = rows[sel], rows[p]
        rows[p] = [x / rows[p][c] for x in rows[p]]
        for i in range(len(rows)):
            if i != p and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[p])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _primitive(vec):
    """Coprime integers with a positive leading entry, as Fractions."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    lead = next(x for x in ints if x)
    sign = 1 if lead > 0 else -1
    return [Fraction(sign * x // g) for x in ints]


def _kernel_oracle(mat, cols):
    """The kernel vector of each free column from the Fraction RREF: 1 in
    the free column, minus the column of R in the pivot columns."""
    reduced, pivots = _rref(mat, cols)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        x = [Fraction(0)] * cols
        x[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            x[pc] = -row[fc]
        basis.append(_primitive(x))
    return basis


@settings(max_examples=150, deadline=None)
@given(rank_test_matrices())
def test_nullspace_matches_a_fraction_rref_oracle(mat):
    cols = len(mat[0]) if mat else 3
    kernel = linalg.nullspace(mat, cols=cols)
    assert kernel == _kernel_oracle(mat, cols)
    assert all(type(x) is int for vec in kernel for x in vec)


def _gauss_solve(a, b):
    """X with A X = B by Fraction Gauss elimination and back substitution,
    or None when a column of A has no pivot."""
    m = len(a)
    rows = [[Fraction(x) for x in ra + rb] for ra, rb in zip(a, b)]
    for c in range(m):
        sel = next((i for i in range(c, m) if rows[i][c]), None)
        if sel is None:
            return None
        rows[c], rows[sel] = rows[sel], rows[c]
        for i in range(c + 1, m):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    x = [None] * m
    for i in reversed(range(m)):
        acc = rows[i][m:]
        for j in range(i + 1, m):
            acc = [s - rows[i][j] * t for s, t in zip(acc, x[j])]
        x[i] = [s / rows[i][i] for s in acc]
    return x


@st.composite
def square_systems(draw):
    """(A, B) with A square, planted rank (full or deficient), duplicated
    and zero rows or a zero column mixed in, and B of zero to four columns."""
    m = draw(st.integers(0, 7))
    r = draw(st.integers(0, m))
    left = draw(st.lists(st.lists(_entries, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(_entries, min_size=m, max_size=m), min_size=r, max_size=r))
    a = [[sum((x * y for x, y in zip(row, col)), 0) for col in zip(*right)] if r else [0] * m for row in left]
    if m and draw(st.booleans()):
        a = draw(st.lists(st.lists(_entries, min_size=m, max_size=m), min_size=m, max_size=m))
    if m > 1 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.permutations(range(m)))[:2]
        a[i] = list(a[j]) if draw(st.booleans()) else [0] * m
    if m and draw(st.integers(0, 3)) == 0:
        j = draw(st.integers(0, m - 1))
        a = [row[:j] + [0] + row[j + 1:] for row in a]
    k = draw(st.integers(0, 4))
    b = draw(st.lists(st.lists(_entries, min_size=k, max_size=k), min_size=m, max_size=m))
    return a, b


@settings(max_examples=150, deadline=None)
@given(square_systems())
def test_solve_many_matches_fraction_gauss_elimination(system):
    a, b = system
    want = _gauss_solve(a, b)
    if want is None:
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve_many(a, b)
        return
    got = linalg.solve_many(a, b)
    assert all(d > 0 and gcd(d, *row) == 1 for row, d in zip(got, got.denominators))
    assert rational_rows(got) == want


@pytest.mark.parametrize("b", [[[1], [3]], [[0, 1], [5, 2]], [[2], [4]]])
def test_solve_many_rejects_a_singular_matrix_whose_missing_pivot_lands_in_b(b):
    # [A | B] has a pivot in a column of B when B is not in the range of A,
    # and none at all in A's second column: A is singular either way.
    with pytest.raises(linalg.SingularMatrixError, match="matrix of size 2 is rank deficient"):
        linalg.solve_many([[1, 2], [2, 4]], b)


def test_reduce_content_divides_by_the_row_gcd():
    assert linalg._reduce_content([0, -6, 4, 0]) == [0, -3, 2, 0]
    coprime = [3, 0, -5]
    assert linalg._reduce_content(coprime) is coprime
    zero = [0, 0]
    assert linalg._reduce_content(zero) is zero


@st.composite
def block_lower_systems(draw):
    """(matrix, blocks) for invert_block_lower: block lower-triangular once
    rows and columns are grouped (the groups are scattered by random
    permutations), some blocks below the diagonal zero and some not, and
    strictly diagonally dominant, hence invertible, diagonal blocks."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    starts = [sum(sizes[:b]) for b in range(len(sizes))]
    m = sum(sizes)
    dense = [[0] * m for _ in range(m)]
    for b, (start, size) in enumerate(zip(starts, sizes)):
        span = range(start, start + size)
        for c in range(b):
            if draw(st.booleans()):
                for i in span:
                    for j in range(starts[c], starts[c] + sizes[c]):
                        dense[i][j] = draw(_entries)
        for i in span:
            for j in span:
                dense[i][j] = draw(_entries)
            margin = draw(st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6))
            off = sum(abs(dense[i][j]) for j in span if j != i)
            dense[i][i] = draw(st.sampled_from([1, -1])) * (off + margin)
    rows = draw(st.permutations(range(m)))
    cols = draw(st.permutations(range(m)))
    mat = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            mat[rows[i]][cols[j]] = dense[i][j]
    blocks = [
        (f"b{b}", [rows[i] for i in range(start, start + size)], [cols[j] for j in range(start, start + size)])
        for b, (start, size) in enumerate(zip(starts, sizes))
    ]
    return mat, blocks


def _integer_rows(mat) -> linalg.IntegerRows:
    """The rows as integers, each over its least positive denominator."""
    forms = [linalg.integer_form(row) for row in mat]
    return linalg.IntegerRows([ints for ints, _ in forms], [d for _, d in forms])


@settings(max_examples=100, deadline=None)
@given(block_lower_systems())
def test_block_lower_inverse_is_the_exact_inverse_over_its_least_denominator(system):
    mat, blocks = system
    ints, d = linalg.invert_block_lower(_integer_rows(mat), blocks)
    inverse = rational_rows(linalg.invert(mat))
    assert d > 0
    assert all(type(x) is int for row in ints for x in row)
    assert gcd(d, *(x for row in ints for x in row)) == 1
    assert [[Fraction(x, d) for x in row] for row in ints] == inverse


@settings(max_examples=50, deadline=None)
@given(block_lower_systems(), st.data())
def test_block_lower_inverse_names_a_singular_diagonal_block(system, data):
    mat, blocks = system
    label, rows, cols = data.draw(st.sampled_from(blocks))
    for c in cols:
        mat[rows[0]][c] = 0
    with pytest.raises(linalg.SingularMatrixError, match=f"diagonal block {label} of size {len(rows)} is singular"):
        linalg.invert_block_lower(_integer_rows(mat), blocks)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**300), 2**300), st.integers(1, 2**300))
def test_int_division_is_the_correctly_rounded_fraction(x, d):
    # infsup_constant converts the integer cell duals with x / d
    assert x / d == float(Fraction(x, d))


# ------------------------------------------------------------ Gram path


def _scaled_gram(rng, m, rank=None):
    """D·G with G = AᵀA for a random integer A of the given rank (full by
    default) and D a random positive row scaling; returns (rows, D)."""
    rank = m if rank is None else rank
    while True:
        a = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(rank + 2)]
        if rank < m:
            # The last columns repeat sums of the first ones: rank A <= rank.
            for row in a:
                for j in range(rank, m):
                    row[j] = row[j - rank] + row[(j + 1) % rank]
        if linalg.rank(a) == rank:
            break
    g = [[sum(row[i] * row[j] for row in a) for j in range(m)] for i in range(m)]
    scales = [rng.randint(1, 12) for _ in range(m)]
    return [[d * x for x in row] for d, row in zip(scales, g)], scales


def _dense_data(rows):
    return linalg.echelon_data([list(row) for row in rows])


@pytest.mark.parametrize("m", range(1, 41))
def test_gram_path_keeps_the_dense_rank_and_pivot_hash(m):
    rows, scales = _scaled_gram(random.Random(1000 + m), m)
    assert linalg._gram_pivots([list(row) for row in rows], scales) is not None
    got = linalg.echelon_data(rows, scales)
    assert got == _dense_data(rows)
    assert got[0] == m


def test_gram_path_reads_rational_rows_over_their_denominators():
    # Row i of mat is scales[i] times row i of G / 7: integer_form scales
    # each row by 7, and so must the Gram path's row scales.
    rows, scales = _scaled_gram(random.Random(7), 9)
    mat = [[Fraction(x, 7) for x in row] for row in rows]
    assert linalg._gram_pivots([list(row) for row in rows], scales) is not None
    assert linalg.echelon_data(mat, scales) == _dense_data(rows)


# The elements of the golden reports (tests/golden) in dimensions 2 and 3:
# (family, n, degree, k).
_GOLDEN_ELEMENTS = [
    ("face", 2, 2, -1),
    ("symmetric", 2, 3, 0),
    ("face", 3, 2, 1),
    ("traceless", 3, 2, 0),
    ("symmetric", 3, 2, 1),
    ("traceless", 3, 3, 1),
]


def _interior_block(family, simplex, degree, k):
    dofs = dofmod.build_dofs(Family(family), simplex, degree, k)
    basis = decompose(dofs.family, dofs.simplex, degree)
    matrix = dofmod.dof_matrix(dofs, basis)
    ((_, rows, cols),) = [b for b in dofmod.site_blocks(dofs, basis, matrix) if b[0] == "interior"]
    return dofmod._block_rows(matrix, rows, cols)


@pytest.mark.parametrize("family,n,degree,k", _GOLDEN_ELEMENTS)
def test_gram_path_takes_every_golden_interior_block(family, n, degree, k):
    for simplex in (n, random_simplex(random.Random(n * 10 + degree), n)):
        rows, scales = _interior_block(family, simplex, degree, k)
        assert linalg._gram_pivots([list(row) for row in rows], scales) is not None
        got = linalg.echelon_data(rows, scales)
        assert got == _dense_data(rows)
        assert got[0] == len(rows)


def _falls_back(rows, scales):
    """The Gram path declines the block, and echelon_data still returns
    the dense elimination's rank and hash."""
    assert linalg._gram_pivots([list(row) for row in rows], scales) is None
    got = linalg.echelon_data(rows, scales)
    assert got == _dense_data(rows)
    return got


def test_gram_path_falls_back_on_one_asymmetric_entry():
    rows, scales = _scaled_gram(random.Random(3), 8)
    rows[2][5] += scales[2]
    assert _falls_back(rows, scales)[0] == 8


def test_gram_path_falls_back_on_a_zero_leading_entry():
    # Symmetric and invertible, but the dense pass swaps rows at step 0.
    rows = [[0, 2, 1], [2, 3, 0], [1, 0, 5]]
    assert _falls_back(rows, [1, 1, 1])[0] == 3
    scaled = [[3 * x for x in rows[0]], rows[1], [2 * x for x in rows[2]]]
    assert _falls_back(scaled, [3, 1, 2])[0] == 3


def test_gram_path_falls_back_on_an_indefinite_block():
    # AᵀJA with J = diag(1, ..., 1, -1): symmetric, invertible, first pivot
    # positive and a later one negative.
    rng = random.Random(5)
    m = 7
    while True:
        a = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        j = [1] * (m - 1) + [-1]
        g = [[sum(s * row[p] * row[q] for s, row in zip(j, a)) for q in range(m)] for p in range(m)]
        if linalg.rank(g) == m and g[0][0] > 0:
            break
    assert _falls_back(g, [1] * m)[0] == m


def test_gram_path_falls_back_on_a_singular_gram_block():
    rows, scales = _scaled_gram(random.Random(11), 9, rank=6)
    assert _falls_back(rows, scales)[0] == 6


def test_gram_path_falls_back_on_a_wide_block():
    rows, scales = _scaled_gram(random.Random(13), 5)
    assert _falls_back([row + [1] for row in rows], scales)[0] == 5
