"""Constrained matrix spaces and their tangent-normal decompositions.

Matrices act on face normals through their second tensor slot:
(u ⊗ v)·n = u (v·n).  A basis element is "tangential" at a sub-simplex f
when that contraction vanishes for the normals of every face containing f,
which is what lets the tangential pieces become bubbles downstream.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Callable, NamedTuple, Sequence

from . import linalg
from .simplex import Frame, Simplex, SubSimplexId, barycentric_gradients, dot

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


# Input spellings accepted for a family besides its value.
FAMILY_ALIASES = {"vector": "face"}


class Family(Enum):
    """An element family: its value space and the continuity orders and
    degrees for which each claim about it is stated.  Every per-family fact
    the package reads is read here."""

    LAGRANGE = "lagrange"
    FACE = "face"
    TRACELESS = "traceless"
    SYMMETRIC = "symmetric"

    @classmethod
    def _missing_(cls, value):
        alias = FAMILY_ALIASES.get(value)
        return None if alias is None else cls(alias)

    def constrained_dim(self, n: int) -> int:
        """Dimension of the value space: scalars, vectors, traceless or
        symmetric n x n matrices."""
        if self is Family.LAGRANGE:
            return 1
        if self is Family.FACE:
            return n
        if self is Family.TRACELESS:
            return n * n - 1
        return n * (n + 1) // 2

    def div_width(self, n: int) -> int:
        """Components of a divergence: scalar for vectors, row-wise for matrices."""
        self._require_div()
        return 1 if self is Family.FACE else n

    def k_range(self, n: int) -> range:
        """The continuity orders the element is stated for, the least
        continuous one (the default) first: -1..n-2 for face, -1 being the
        plain facet-moment layout, and 0..n-2 for the matrix families."""
        if self is Family.LAGRANGE:
            raise ValueError("the scalar family carries no continuity order")
        return range(-1 if self is Family.FACE else 0, n - 1)

    @property
    def min_degree(self) -> int:
        """Lowest degree of the DoF system: the matrix families take a
        basis of the whole value space at each vertex, from degree 2."""
        return 1 if self in (Family.LAGRANGE, Family.FACE) else 2

    @property
    def div_image_min_degree(self) -> int:
        """Lowest degree at which div of the bubbles is claimed to be the
        L2-complement of the constants, RT or RM in P_{r-1}."""
        self._require_div()
        return 3 if self is Family.SYMMETRIC else 2

    def div_onto_min_degree(self, n: int, k: int) -> int:
        """Lowest degree at which the piecewise div of the assembled space
        is claimed onto: k + 2 (1 for the facet-moment face layout k = -1),
        and n + 1 for symmetric matrices."""
        self._require_div()
        if self is Family.SYMMETRIC:
            return n + 1
        return 1 if k == -1 else k + 2

    def _require_div(self) -> None:
        if self is Family.LAGRANGE:
            raise ValueError("the scalar family has no divergence")


def outer(u: Sequence, v: Sequence) -> Mat:
    """Exact u ⊗ v; integer inputs give integers."""
    return tuple(tuple(a * b for b in v) for a in u)


def trace(a: Mat) -> Fraction:
    _require_square(a)
    return sum(a[i][i] for i in range(len(a)))


def _require_square(a: Mat) -> None:
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix must be square")


def mat_vec(a: Mat, x: Sequence) -> Vec:
    return tuple(dot(row, x) for row in a)


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Mat, c) -> Mat:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def frobenius(a: Mat, b: Mat) -> Fraction:
    """Exact entrywise pairing; integer inputs give an integer."""
    return sum(map(mul, chain.from_iterable(a), chain.from_iterable(b)))


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def flatten(value) -> tuple[Fraction, ...]:
    """Components of a vector or (row-major) matrix value."""
    if value and isinstance(value[0], tuple):
        return tuple(x for row in value for x in row)
    return tuple(value)


def integer_values(values) -> tuple[list, int]:
    """Vectors or matrices rewritten as integer tensors of the same shape
    over one common denominator, the least one."""
    flat, den = linalg.integer_form(x for v in values for x in flatten(v))
    entries = iter(flat)
    out = []
    for v in values:
        if v and isinstance(v[0], tuple):
            out.append(tuple(tuple(next(entries) for _ in row) for row in v))
        else:
            out.append(tuple(next(entries) for _ in v))
    return out, den


class Contraction(NamedTuple):
    """A linear map from coefficient values to components, applied to
    integers: the components of a coefficient C / d, C an integer tensor,
    are the integers apply(C) over d · den."""

    apply: Callable
    den: int = 1


FLATTEN = Contraction(flatten)


def normal_contraction(normal: Sequence) -> Contraction:
    """The normal contraction against a rational normal n = N / den, N
    integers: the components A n of a matrix A, (v·n,) of a vector v.  A
    one-component value (scalar, or a vector in one dimension) is kept as
    is, so the sign of a 1D normal never enters."""
    ints, den = linalg.integer_form(normal)
    ints = tuple(ints)

    def apply(value):
        if value and isinstance(value[0], tuple):
            return mat_vec(value, ints)
        if len(value) == 1:
            return (value[0] * den,)
        return (dot(value, ints),)

    return Contraction(apply, den)


class TnSplit(NamedTuple):
    """Tangential/normal basis of a constrained space at one sub-simplex."""

    sub_simplex: SubSimplexId
    family: Family
    tangential_basis: tuple
    normal_basis: tuple


def _integer_vectors(vectors) -> list[tuple[tuple[int, ...], int]]:
    """Each frame vector as (integer vector, denominator)."""
    out = []
    for v in vectors:
        ints, den = linalg.integer_form(v)
        out.append((tuple(ints), den))
    return out


def _over(ints, den: int) -> Mat:
    """An integer matrix over a denominator as rationals, one per entry."""
    return tuple(tuple(Fraction(x, den) for x in row) for row in ints)


def _outer(u, v) -> Mat:
    (a, da), (b, db) = u, v
    return _over(outer(a, b), da * db)


def _sym_outer(u, v) -> Mat:
    (a, da), (b, db) = u, v
    ab = outer(a, b)
    return _over(tuple(tuple(x + y for x, y in zip(row, col)) for row, col in zip(ab, zip(*ab))), 2 * da * db)


def _corrected(u, v, t) -> Mat:
    """u⊗v − (u·v)/|t|² t⊗t, which is traceless, over du·dv·|t'|² for the
    integer t' of t: the t denominators cancel."""
    (a, da), (b, db), (c, _) = u, v, t
    weight = dot(a, b)
    norm = dot(c, c)
    ab = outer(a, b)
    cc = outer(c, c)
    return _over(
        tuple(tuple(x * norm - weight * y for x, y in zip(r1, r2)) for r1, r2 in zip(ab, cc)),
        da * db * norm,
    )


def tn_split(f: SubSimplexId, frame: Frame, family: Family) -> TnSplit:
    """Split the family's value space into tangential and normal parts at f.

    Tangential elements have zero contraction with every face normal of
    faces containing f; for the constrained spaces the diagonal blocks are
    corrected along t₁⊗t₁ (n₁⊗n₁ at vertices, where no tangent exists) to
    restore the trace or symmetry constraint, scaled by the exact squared
    length of the correction direction since frames are not unit vectors.
    Each frame vector is scaled to integers once; every element is built
    in integers over its own denominator and read as one rational per entry.
    """
    if frame.sub_simplex != f:
        raise ValueError("frame does not belong to this sub-simplex")
    n = f.parent_dim
    ell = f.dim
    if family is Family.FACE:
        return TnSplit(f, family, frame.tangents, frame.normals)
    tans = _integer_vectors(frame.tangents)
    nors = _integer_vectors(frame.normals)
    if family is Family.TRACELESS:
        if ell >= 1:
            direction = tans[0]
            tangential = [_outer(m, t) for m in nors for t in tans]
            tangential += [
                _corrected(tans[i], tans[j], direction)
                for i in range(ell)
                for j in range(ell)
                if (i, j) != (0, 0)
            ]
            normal = [_outer(t, m) for t in tans for m in nors]
            normal += [
                _corrected(nors[i], nors[j], direction)
                for i in range(n - ell)
                for j in range(n - ell)
            ]
        else:
            tangential = []
            normal = [
                _corrected(nors[i], nors[j], nors[0])
                for i in range(n)
                for j in range(n)
                if (i, j) != (0, 0)
            ]
        return TnSplit(f, family, tuple(tangential), tuple(normal))
    if family is Family.SYMMETRIC:
        tangential = [
            _sym_outer(tans[i], tans[j])
            for i in range(ell)
            for j in range(i, ell)
        ]
        normal = [_sym_outer(t, m) for t in tans for m in nors]
        normal += [
            _sym_outer(nors[i], nors[j])
            for i in range(n - ell)
            for j in range(i, n - ell)
        ]
        return TnSplit(f, family, tuple(tangential), tuple(normal))
    raise ValueError(f"unsupported family {family!r}")


class TracelessGradientBasis(NamedTuple):
    """Gradient-aligned basis of the traceless matrices, with its dual."""

    index_pairs: tuple[tuple[int, int], ...]
    basis: tuple[Mat, ...]
    dual: tuple[Mat, ...]
    pairing: tuple[tuple[Fraction, ...], ...]


def traceless_gradient_basis(simplex: Simplex) -> TracelessGradientBasis:
    """Basis {∇λ_i ⊗ t_{i+1,j}} of the traceless matrices and its dual.

    Index pairs run over i = 0..n and j outside {i, i+1}, successor read
    cyclically over the n+1 vertex labels.  The duals are t_{j,i} ⊗ ∇λ_j
    shifted by I/n; the Frobenius pairing matrix is returned so callers can
    assert it is the identity.
    """
    n = simplex.dim
    grads = barycentric_gradients(simplex)
    eye_over_n = mat_scale(identity(n), Fraction(1, n))
    pairs = []
    basis = []
    dual = []
    for i in range(n + 1):
        succ = (i + 1) % (n + 1)
        for j in range(n + 1):
            if j in (i, succ):
                continue
            pairs.append((i, j))
            basis.append(outer(grads[i], simplex.edge_vector(succ, j)))
            dual.append(mat_add(outer(simplex.edge_vector(j, i), grads[j]), eye_over_n))
    pairing = tuple(tuple(frobenius(d, b) for b in basis) for d in dual)
    return TracelessGradientBasis(tuple(pairs), tuple(basis), tuple(dual), pairing)


class AffineField(NamedTuple):
    """Vector field x ↦ A x + b with rational coefficients."""

    matrix: Mat
    offset: Vec

    def __call__(self, x: Sequence) -> Vec:
        moved = mat_vec(self.matrix, x)
        return tuple(m + o for m, o in zip(moved, self.offset))


def _field_from_params(n: int, params: Sequence[Fraction]) -> AffineField:
    mat = tuple(tuple(params[i * n + j] for j in range(n)) for i in range(n))
    return AffineField(mat, tuple(params[n * n :]))


def rigid_spaces(n: int) -> tuple[list[AffineField], list[AffineField]]:
    """(RT, RM): scalings-plus-translations, and the rigid motions.

    RT = {a x + b} with scalar a.  RM is computed, not assumed: it is the
    exact kernel of the symmetrized jacobian on affine fields, which comes
    out as {b + W x, W skew} of dimension n(n+1)/2.
    """
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    zero_mat = tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n))
    rt = [AffineField(zero_mat, e) for e in identity(n)]
    rt.append(AffineField(identity(n), tuple(Fraction(0) for _ in range(n))))
    # Rows: upper-triangular entries of (A + Aᵀ)/2; columns: (A row-major, b).
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [Fraction(0)] * (n * n + n)
            row[i * n + j] += Fraction(1, 2)
            row[j * n + i] += Fraction(1, 2)
            rows.append(row)
    rm = [_field_from_params(n, ker) for ker in linalg.nullspace(rows)]
    return rt, rm
