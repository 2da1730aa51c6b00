"""Exact dense linear algebra over Q and Q(i).

Matrices hold Scalar entries; rank, kernel, and solve clear the rows to
one integer array over one denominator (:func:`excalg.tensor.cleared_ints`,
with a trailing (re, im) axis over Q(i)) and take the certified kernel of
:mod:`excalg.intlin`, which alone knows how a Q(i) system is eliminated.
Subspaces are canonicalized to reduced row echelon form, so subspace
equality is plain syntactic equality of bases.

Everything here is immutable-after-construction and pure; results never
alias their inputs.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence

from . import intlin
from .scalar import ONE, ZERO, Scalar, rand_scalar, sc
from .tensor import cleared_ints, scalar_rows

Vector = List[Scalar]


def vec(values: Iterable) -> Vector:
    return [sc(v) for v in values]


def zero_vec(n: int) -> Vector:
    return [ZERO] * n


def unit_vec(n: int, j: int) -> Vector:
    v = [ZERO] * n
    v[j] = ONE
    return v


def vec_add(a: Sequence[Scalar], b: Sequence[Scalar]) -> Vector:
    return [x + y for x, y in zip(a, b)]

def vec_sub(a: Sequence[Scalar], b: Sequence[Scalar]) -> Vector:
    return [x - y for x, y in zip(a, b)]

def vec_scale(c: Scalar, a: Sequence[Scalar]) -> Vector:
    return [c * x for x in a]


def vec_dot(a: Sequence[Scalar], b: Sequence[Scalar]) -> Scalar:
    total = ZERO
    for x, y in zip(a, b):
        if x.is_zero() or y.is_zero():
            continue
        total = total + x * y
    return total


def is_zero_vec(a: Sequence[Scalar]) -> bool:
    return all(x.is_zero() for x in a)


class Matrix:
    """A rectangular grid of Scalars."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [[sc(x) for x in row] for row in entries]
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged matrix")
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([unit_vec(n, j) for j in range(n)])

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Matrix":
        cols = [list(c) for c in cols]
        return Matrix([[c[i] for c in cols] for i in range(len(cols[0]))])

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return list(self.entries[i])

    def col(self, j: int) -> Vector:
        return [self.entries[i][j] for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in row) for row in self.entries
        )
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    # -- algebra -----------------------------------------------------------

    def transpose(self) -> "Matrix":
        return Matrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [vec_add(r, s) for r, s in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(
            [vec_sub(r, s) for r, s in zip(self.entries, other.entries)]
        )

    def scale(self, c) -> "Matrix":
        c = sc(c)
        return Matrix([[c * x for x in row] for row in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose().entries
        return Matrix(
            [[vec_dot(row, col) for col in ot] for row in self.entries]
        )

    def apply(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [vec_dot(row, v) for row in self.entries]

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.entries)

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        work = [list(r) for r in self.entries]
        n = self.rows
        det = ONE
        for c in range(n):
            piv = next((r for r in range(c, n) if not work[r][c].is_zero()), None)
            if piv is None:
                return ZERO
            if piv != c:
                work[c], work[piv] = work[piv], work[c]
                det = -det
            det = det * work[c][c]
            inv = work[c][c].inverse()
            work[c] = [inv * x for x in work[c]]
            for r in range(c + 1, n):
                f = work[r][c]
                if f.is_zero():
                    continue
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
        return det

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = [list(r) + unit_vec(n, i) for i, r in enumerate(self.entries)]
        reduced, pivots = _rref(aug)
        if len(pivots) < n or any(p >= n for p in pivots):
            raise ValueError("singular matrix")
        return Matrix([row[n:] for row in reduced])


def rank(m: Matrix) -> int:
    """Row rank over the field, exact."""
    _, pivots = _rref([list(r) for r in m.entries])
    return len(pivots)


def kernel(m: Matrix) -> "Subspace":
    """Canonical echelon basis of the right kernel of m.

    One certified kernel of the column-reversed matrix: its vectors, one
    per free column f, are 1 at f, vanish at the other free columns and are
    nonzero only at pivots before f.  Read backwards they are already in
    reduced row echelon form, each with its pivot at its first nonzero
    entry."""
    n = m.cols
    ints, _ = cleared_ints((x for row in m.entries for x in row), (m.rows, n))
    k, den = intlin.kernel_array(ints[:, ::-1], n)
    basis = scalar_rows(k[::-1, ::-1], den)
    return Subspace._echelon(n, basis, [next(j for j, x in enumerate(v) if x) for v in basis])


def solve(m: Matrix, rhs: Sequence[Scalar]) -> Optional[Vector]:
    """One exact solution of m x = rhs, or None when inconsistent."""
    rhs = [sc(x) for x in rhs]
    if len(rhs) != m.rows:
        raise ValueError("shape mismatch")
    aug = [list(r) + [b] for r, b in zip(m.entries, rhs)]
    reduced, pivots = _rref(aug)
    n = m.cols
    if any(p == n for p in pivots):
        return None
    x = zero_vec(n)
    for r, p in enumerate(pivots):
        x[p] = reduced[r][n]
    return x


def random_invertible(
    n: int, seed: int, height: int = 5, field: str = "rational"
) -> Matrix:
    """A deterministic pseudo-random invertible n x n matrix.

    Entries have numerator and denominator bounded by ``height``; the matrix
    is resampled until it has full rank, so the result is reproducible from
    the seed alone.
    """
    if n < 1:
        raise ValueError("n must be positive")
    gaussian = field.lower() in ("gaussian", "qi", "q(i)")
    rng = random.Random(seed)
    while True:
        m = Matrix(
            [
                [rand_scalar(rng, height, gaussian) for _ in range(n)]
                for _ in range(n)
            ]
        )
        if rank(m) == n:
            return m


def _rref(rows: List[List[Scalar]]) -> tuple[List[List[Scalar]], List[int]]:
    """Reduced row echelon form; returns the nonzero rows and the pivots.

    The rows are cleared to integers over one denominator, Gaussian
    integers when some entry is in Q(i), and read off their certified
    kernel (:func:`excalg.intlin.int_rref`)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    ints, _ = cleared_ints((x for row in rows for x in row), (len(rows), ncols))
    return intlin.int_rref(ints, ncols)


class Subspace:
    """A linear subspace given by its reduced-row-echelon basis.

    The echelon basis is the canonical representative: two Subspaces are
    equal iff their bases coincide entrywise.
    """

    __slots__ = ("ambient", "basis", "_pivots")

    def __init__(self, ambient: int, spanning: Sequence[Sequence]):
        rows = [[sc(x) for x in v] for v in spanning]
        for v in rows:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        reduced, pivots = _rref(rows)
        self.ambient = ambient
        self.basis = reduced
        self._pivots = pivots

    @staticmethod
    def _echelon(ambient: int, basis: List[Vector], pivots: List[int]) -> "Subspace":
        """A Subspace from a basis already in reduced row echelon form."""
        s = object.__new__(Subspace)
        s.ambient, s.basis, s._pivots = ambient, basis, pivots
        return s

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, [])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[Scalar]) -> bool:
        v = [sc(x) for x in v]
        for r, p in enumerate(self._pivots):
            f = v[p]
            if not f.is_zero():
                v = [x - f * y for x, y in zip(v, self.basis[r])]
        return is_zero_vec(v)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace(self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        # null space of the stacked dual description: x in both spans
        # <=> x = B1^T a = B2^T b; solve [B1^T | -B2^T] null space.
        n = self.ambient
        d1, d2 = self.dim, other.dim
        if d1 == 0 or d2 == 0:
            return Subspace.zero(n)
        cols = d1 + d2
        ent = [[ZERO] * cols for _ in range(n)]
        for j, v in enumerate(self.basis):
            for i in range(n):
                ent[i][j] = v[i]
        for j, v in enumerate(other.basis):
            for i in range(n):
                ent[i][d1 + j] = -v[i]
        ker = kernel(Matrix(ent))
        spans = []
        for w in ker.basis:
            x = zero_vec(n)
            for j, v in enumerate(self.basis):
                if not w[j].is_zero():
                    x = vec_add(x, vec_scale(w[j], v))
            spans.append(x)
        return Subspace(n, spans)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def gram_matrix(bilinear: Matrix, vectors: Sequence[Sequence[Scalar]]) -> Matrix:
    """Gram matrix of a bilinear form restricted to the given vectors."""
    vs = [list(v) for v in vectors]
    return Matrix(
        [[vec_dot(u, bilinear.apply(w)) for w in vs] for u in vs]
    )

