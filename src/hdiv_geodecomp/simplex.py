"""Simplex combinatorics, barycentric gradients, and tangent-normal frames."""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cache
from math import factorial, gcd
from operator import mul
from typing import NamedTuple, Sequence

from . import linalg
from .records import Record

Vector = tuple[Fraction, ...]


class SingularGeometryError(ValueError):
    """Raised for affinely dependent vertex sets."""


def _as_point(coords: Sequence) -> Vector:
    return tuple(Fraction(x) for x in coords)


class SubSimplexId(Record, namedtuple("SubSimplexId", "indices parent_dim")):
    """A sub-simplex of an n-simplex, named by its vertex labels."""

    __slots__ = ()

    def __new__(cls, indices: tuple[int, ...], parent_dim: int):
        if not indices or any(i < 0 or i > parent_dim for i in indices):
            raise ValueError(f"labels {indices} outside 0..{parent_dim}")
        if list(indices) != sorted(set(indices)):
            raise ValueError(f"labels {indices} must be strictly increasing")
        return tuple.__new__(cls, (indices, parent_dim))

    @property
    def dim(self) -> int:
        return len(self.indices) - 1

    def complement_labels(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.parent_dim + 1) if i not in self.indices)

    def contains(self, other: "SubSimplexId") -> bool:
        return set(other.indices) <= set(self.indices)

    def faces_containing(self) -> tuple["SubSimplexId", ...]:
        """The facets F_i ⊇ f; one for each label i outside f."""
        n = self.parent_dim
        out = []
        for i in self.complement_labels():
            rest = tuple(j for j in range(n + 1) if j != i)
            out.append(SubSimplexId(rest, n))
        return tuple(out)


def enumerate_subsimplices(n: int, ell: int) -> list[SubSimplexId]:
    """All C(n+1, ℓ+1) sub-simplices of dimension ℓ, lexicographically."""
    if not 0 <= ell <= n:
        raise ValueError(f"sub-simplex dimension {ell} outside 0..{n}")
    return [SubSimplexId(c, n) for c in itertools.combinations(range(n + 1), ell + 1)]


class Simplex(Record, namedtuple("Simplex", "vertices")):
    """A nondegenerate n-simplex with exact rational vertex coordinates."""

    __slots__ = ()

    def __new__(cls, vertices: Sequence[Sequence]):
        pts = tuple(_as_point(v) for v in vertices)
        n = len(pts) - 1
        if n < 1 or any(len(p) != n for p in pts):
            raise ValueError("need n+1 vertices with n coordinates each")
        edges = [[pts[j][d] - pts[0][d] for d in range(n)] for j in range(1, n + 1)]
        if linalg.det(edges) == 0:
            raise SingularGeometryError("vertices are affinely dependent")
        return tuple.__new__(cls, (pts,))

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def edge_vector(self, i: int, j: int) -> Vector:
        """The vector t_{i,j} from vertex i to vertex j."""
        vi, vj = self.vertices[i], self.vertices[j]
        return tuple(b - a for a, b in zip(vi, vj))

    def volume(self) -> Fraction:
        n = self.dim
        edges = [list(self.edge_vector(0, j)) for j in range(1, n + 1)]
        return abs(linalg.det(edges)) / factorial(n)


def reference_simplex(n: int) -> Simplex:
    pts = [tuple(Fraction(0) for _ in range(n))]
    for d in range(n):
        pts.append(tuple(Fraction(int(i == d)) for i in range(n)))
    return Simplex(tuple(pts))


@cache
def integer_gradients(simplex: Simplex) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Gradients ∇λ₀..∇λ_n as integer rows G over one positive denominator
    d, the least one, so ∇λ_i == G[i] / d.

    With the edge vectors e_j = v_j − v₀ as the rows of E = E' / s, E' an
    integer matrix, ∇λ_j·e_i = δ_ij makes ∇λ_j (j ≥ 1) column j of E⁻¹,
    that is s times row j of (E'ᵀ)⁻¹; and ∇λ₀ = −Σ_j ∇λ_j.  E' is
    invertible because Simplex rejects affinely dependent vertices.
    """
    n = simplex.dim
    flat, s = linalg.integer_form(x for j in range(1, n + 1) for x in simplex.edge_vector(0, j))
    inverse = linalg.invert([flat[k::n] for k in range(n)])
    cols, den = inverse.over_one_denominator()
    grads = [[s * x for x in col] for col in cols]
    grads.insert(0, [-sum(col) for col in zip(*grads)])
    g = gcd(den, *(x for row in grads for x in row))
    return tuple(tuple(x // g for x in row) for row in grads), den // g


@cache
def barycentric_gradients(simplex: Simplex) -> tuple[Vector, ...]:
    """Gradients ∇λ₀..∇λ_n of the barycentric coordinates, exact: the
    rationals of integer_gradients."""
    rows, den = integer_gradients(simplex)
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def max_normalized(vec: Sequence[Fraction]) -> Vector:
    """Rescale so the largest-magnitude entry is ±1, keeping direction."""
    ints, _ = linalg.integer_form(vec)
    top = max(abs(x) for x in ints)
    if top == 0:
        raise ValueError("cannot normalize the zero vector")
    return tuple(Fraction(x, top) for x in ints)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Exact dot product; integer inputs give an integer."""
    return sum(map(mul, a, b))


class Frame(NamedTuple):
    """Tangent and normal spanning vectors attached to one sub-simplex."""

    sub_simplex: SubSimplexId
    tangents: tuple[Vector, ...]
    normals: tuple[Vector, ...]


def build_frame(simplex: Simplex, f: SubSimplexId) -> Frame:
    """Frame for f: ℓ edge tangents within f, n−ℓ normals indexed by f*.

    This is the one frame convention, named edge_tangents_face_normals in
    reports: the tangents are the edges from f's first vertex, the normals
    the facet normals ∇λ_i for i outside f.  Every ∇λ_i with i outside f is
    orthogonal to the span of f's edges, so the normal group is exactly
    orthogonal to the tangent group without any extra projection.  Vectors
    are max-entry normalized to stay rational.
    """
    n = simplex.dim
    if f.parent_dim != n:
        raise ValueError("sub-simplex does not belong to this simplex")
    idx = f.indices
    tangents = [max_normalized(simplex.edge_vector(idx[0], idx[i])) for i in range(1, len(idx))]
    grads, _ = integer_gradients(simplex)
    normals = [max_normalized(grads[i]) for i in f.complement_labels()]
    return Frame(f, tuple(tangents), tuple(normals))
