"""Sparse exact structure tensors: the bilinear product of an algebra given
by structure constants over Q or Q(i).

The tensor keeps the constants once, as flat integer cells over one common
denominator den: for each nonzero c_ij^k the pair i * dim + j, the output k
and den * c_ij^k, sorted by the key (i * dim + j) * dim + k.  The checks of
:mod:`excalg.liealg` (skew, Jacobi, Killing, Leibniz) are array joins over
these arrays.

Vectors that are multiplied are cleared: a vector is the triple (re, im,
den) of integer tuples over one positive denominator, im None when every
coordinate is rational, reduced so that gcd(den, *re, *im) = 1.  Equal
vectors are then equal triples.  A Scalar is the same triple in dimension
one, (x, y, d), so :func:`cleared` builds a vector from Scalars by scaling
their integers to the lcm of their d, :func:`reduced` builds one from
integer sums and :func:`vec_scalars` reads one back.
The product (:meth:`StructureTensor.sums`) adds up den c_ij^k x_i y_j in
Python integers (exact at any size, so no overflow bound is needed).  Both
of its loops walk the rows (j, k, c) of rational constants and read the
dense coordinate tuples, skipping zeros: the rational loop takes two
rational vectors, and the Gaussian loop every other pair of operands,
(a + bi)(p + qi) per term.  A Gaussian tensor runs them on its real and
imaginary parts.  The product of two cleared vectors is those sums over
den dx dy, reduced by one gcd.  The Scalar product clears its inputs and
reads the sums back as the same canonical Scalars that Scalar arithmetic
gives.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement
from math import gcd, lcm
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .scalar import ZERO, Scalar, _make, sc


class StructureTensor:
    """c_ij^k as sorted flat integer cells over one common denominator den.

    `pair` holds i * dim + j and `out` holds k, both int64 and in increasing
    order of (pair, out).  `val` holds den * c_ij^k, nonzero, as one column
    (re) for a rational tensor and two (re, im) over Q(i): int64 when every
    value fits, else Python integers.  `biggest` is the largest absolute
    value.  The view the product loops read, ``rows[i]`` of (j, k, c), is
    built from the arrays on first use.  A Gaussian tensor keeps it on its
    two rational ``parts``."""

    def __init__(self, dim: int, entries: Iterable[Tuple[int, int, int, Scalar]]):
        """Build from (i, j, k, c_ij^k) entries, at most one per (i, j, k);
        zero constants are dropped."""
        keys, constants = [], []
        for i, j, k, c in entries:
            if c:
                keys.append((i * dim + j) * dim + k)
                constants.append(c)
        values, den = cleared_ints(constants, (len(constants),))
        keys = np.array(keys, dtype=np.int64)
        order = np.argsort(keys)
        self._fill(dim, den, keys[order], values[order])

    @classmethod
    def from_cells(cls, dim: int, den: int, keys: np.ndarray, values: np.ndarray):
        """Build from integer cells without passing through Scalars: keys
        (i * dim + j) * dim + k in increasing order and the nonzero values
        den * c_ij^k, one per key (rational) or one (re, im) row per key."""
        t = cls.__new__(cls)
        t._fill(dim, den, keys, values)
        return t

    def _fill(self, dim: int, den: int, keys: np.ndarray, values: np.ndarray):
        values = values if values.ndim == 2 else values[:, None]
        self.biggest = biggest(values)
        if values.dtype == object and self.biggest < 1 << 63:
            values = values.astype(np.int64)
        self.dim, self.den, self.rational = dim, den, values.shape[1] == 1
        self.pair, self.out, self.val = keys // dim, keys % dim, values

    def dense(self) -> np.ndarray:
        """The cells as one dense array [i, j, k, c] = den * c_ij^k, c the
        columns of `val`: (re,), or (re, im) over Q(i)."""
        out = np.zeros((self.dim ** 2, self.dim, self.val.shape[1]), dtype=self.val.dtype)
        out[self.pair, self.out] = self.val
        return out.reshape((self.dim,) * 3 + self.val.shape[1:])

    @cached_property
    def parts(self) -> List["StructureTensor"]:
        """[A, B], the rational tensors over den with c_ij^k = A_ij^k + i B_ij^k."""
        key = self.pair * self.dim + self.out
        return [StructureTensor.from_cells(self.dim, self.den, key[v != 0], v[v != 0]) for v in self.val.T]

    @cached_property
    def rows(self) -> List[tuple]:
        """rows[i] = ((j, k, c), ...) of a rational tensor, in key order: the
        view the product loops read."""
        starts = np.searchsorted(self.pair // self.dim, np.arange(self.dim + 1)).tolist()
        entries = list(zip((self.pair % self.dim).tolist(), self.out.tolist(), self.val[:, 0].tolist()))
        return [tuple(entries[a:b]) for a, b in zip(starts, starts[1:])]

    def sums(self, x: Vec, y: Vec) -> Tuple[List[int], Optional[List[int]]]:
        """(re, im) of sum_ijk den c_ij^k x_i y_j e_k for the integer parts
        of two cleared vectors (their denominators are not read), im None
        when the tensor and both vectors are rational.  A Gaussian tensor A
        + iB sums its parts, A(x, y) + i B(x, y)."""
        if not self.rational:
            (ar, ai), (br, bi) = (t.sums(x, y) for t in self.parts)
            if ai is None:
                return ar, br
            return [u - v for u, v in zip(ar, bi)], [u + v for u, v in zip(ai, br)]
        re = [0] * self.dim
        (xr, xi, _), (yr, yi, _) = x, y
        if xi is None and yi is None:
            # the rational loop; the Gaussian loop would spend four
            # products on the zero imaginary parts of every term
            for row, a in zip(self.rows, xr):
                if a:
                    for j, k, c in row:
                        b = yr[j]
                        if b:
                            re[k] += c * a * b
            return re, None
        # the Gaussian loop: (a + bi)(p + qi) times the constant c
        im, zero = [0] * self.dim, (0,) * self.dim
        xi, yi = xi or zero, yi or zero
        for row, a, b in zip(self.rows, xr, xi):
            if a or b:
                for j, k, c in row:
                    p, q = yr[j], yi[j]
                    if p or q:
                        re[k] += c * (a * p - b * q)
                        im[k] += c * (a * q + b * p)
        return re, im

    def vec_product(self, x: Vec, y: Vec) -> Vec:
        """The cleared vector of x * y: the sums over den dx dy, reduced."""
        return reduced(*self.sums(x, y), self.den * x[2] * y[2])

    def product(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> List[Scalar]:
        """The coordinates of x * y, i.e. sum_ijk c_ij^k x_i y_j e_k, for
        Scalar coordinates: cleared, summed and read back."""
        x, y = cleared(x), cleared(y)
        return vec_scalars(*self.sums(x, y), self.den * x[2] * y[2])


Vec = Tuple[Tuple[int, ...], Optional[Tuple[int, ...]], int]


def cleared(values: Sequence[Scalar]) -> Vec:
    """The cleared vector (re, im, den) of Scalar coordinates: den the lcm
    of their denominators (a zero's is 1), which leaves gcd(den, *re, *im)
    = 1."""
    den = lcm(*{s.d for s in values})
    if den == 1:  # integer vectors (units, lattice points) need no division
        re = tuple([s.x for s in values])
    else:
        re = tuple([s.x * (den // s.d) for s in values])
    if any([s.y for s in values]):
        return re, tuple([s.y * (den // s.d) for s in values]), den
    return re, None, den


def reduced(re: Sequence[int], im: Optional[Sequence[int]], den: int) -> Vec:
    """The cleared vector of (re + im i) / den, for den > 0: divided by
    gcd(den, *re, *im), with im None when it is zero."""
    if im is not None and not any(im):
        im = None
    g = gcd(den, *re) if im is None else gcd(den, *re, *im)
    if g == 1:
        return tuple(re), None if im is None else tuple(im), den
    return (tuple(v // g for v in re), None if im is None else tuple(v // g for v in im),
            den // g)


def vec_scalars(re: Sequence[int], im: Optional[Sequence[int]], den: int) -> List[Scalar]:
    """The Scalar coordinates (re + im i) / den; zeros are the shared ZERO."""
    if im is None:
        return [_make(v, 0, den) if v else ZERO for v in re]
    return [_make(u, v, den) if u or v else ZERO for u, v in zip(re, im)]


class Element:
    """An element of an algebra with a structure tensor (``algebra.tensor``,
    ``algebra.dim``), kept as one cleared vector ``vec`` = (re, im, den).
    Sums, scalings, equality and hashing read only the integers, and
    equal elements of one algebra have equal vectors.  ``coords``, the
    Scalar coordinates, is built on first read.  Immutable."""

    __slots__ = ("algebra", "vec", "_coords")

    def __init__(self, algebra, coords: Sequence):
        cs = tuple(sc(c) for c in coords)
        if len(cs) != algebra.dim:
            raise ValueError("coordinate length mismatch")
        _set_algebra(self, algebra)
        _set_vec(self, cleared(cs))
        _set_coords(self, None)

    @classmethod
    def _of(cls, algebra, vec: Vec):
        """The element with the cleared vector vec, which must be reduced."""
        e = _new(cls)
        _set_algebra(e, algebra)
        _set_vec(e, vec)
        _set_coords(e, None)
        return e

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coords(self) -> tuple:
        if self._coords is None:
            _set_coords(self, tuple(vec_scalars(*self.vec)))
        return self._coords

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        (xr, xi, dx), (yr, yi, dy) = self.vec, other.vec
        den = lcm(dx, dy)
        a, b = den // dx, sign * (den // dy)
        im = None
        if xi is not None or yi is not None:
            zero = (0,) * len(xr)
            im = [a * u + b * v for u, v in zip(xi or zero, yi or zero)]
        return self._of(self.algebra, reduced([a * u + b * v for u, v in zip(xr, yr)], im, den))

    def scale(self, c):
        re, im, den = self.vec
        c = sc(c)
        p, q, m = c.x, c.y, c.d
        if im is None and not q:
            return self._of(self.algebra, reduced([p * a for a in re], None, den * m))
        im = im or (0,) * len(re)
        return self._of(self.algebra, reduced(
            [p * a - q * b for a, b in zip(re, im)], [p * b + q * a for a, b in zip(re, im)], den * m
        ))

    def is_zero(self) -> bool:
        return self.vec[1] is None and not any(self.vec[0])

    def __eq__(self, other):
        return type(other) is type(self) and self.algebra is other.algebra and self.vec == other.vec

    def __hash__(self):
        return hash((self.algebra, self.vec))

    def __repr__(self):
        return f"{type(self).__name__}(algebra={self.algebra!r}, coords={self.coords!r})"


_new = object.__new__
_set_algebra = Element.algebra.__set__
_set_vec = Element.vec.__set__
_set_coords = Element._coords.__set__


def scalar_of(row: Sequence[int], den: int) -> Scalar:
    """The Scalar (re + im i) / den of an integer cell row (re,) or (re, im)."""
    if not any(row):
        return ZERO
    return _make(row[0], row[1] if len(row) > 1 else 0, den)


def int_array(values) -> np.ndarray:
    """Integers as an int64 array, or as an object array of Python
    integers when one does not fit."""
    if isinstance(values, np.ndarray):
        return values
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def biggest(x: np.ndarray) -> int:
    """The largest absolute entry of an integer array, 0 when empty."""
    return max(int(x.max()), -int(x.min())) if x.size else 0


def cleared_ints(values: Iterable[Scalar], shape: Tuple[int, ...]) -> Tuple[np.ndarray, int]:
    """(A, den) with A an integer array of the given shape and values[k] ==
    A.flat[k] / den, den the lcm of the denominators; a trailing (re, im)
    axis is added only when some value is Gaussian.  The one dense clearing
    of Scalars, from the nonzero values that :func:`_cleared`, the sparse
    per-vector form, clears."""
    values = list(values)
    nz, den, rational = _cleared(values)
    cells = int_array([c[1:] for c in nz]).reshape(len(nz), 2)
    a = np.zeros((len(values), 2), dtype=cells.dtype)
    a[[k for k, _, _ in nz]] = cells
    return a[:, 0].reshape(shape) if rational else a.reshape(shape + (2,)), den


def scalar_rows(x: np.ndarray, den: int) -> List[List[Scalar]]:
    """The rows of x / den as Scalars: x an integer array [t, n], or [t, n, c]
    with c the columns (re,), or (re, im) over Q(i)."""
    if x.ndim == 3:
        return [[scalar_of(c, den) for c in row] for row in x.tolist()]
    return [vec_scalars(row, None, den) for row in x.tolist()]


def lattice(dim: int, degree: int) -> Iterator[Tuple[int, ...]]:
    """The C(dim + degree - 1, degree) integer points alpha >= 0 with
    |alpha| = degree, ordered by the basis indices they add up (2 e_0,
    e_0 + e_1, ...).  They are unisolvent (Chung and Yao, SIAM J. Numer.
    Anal. 14, 1977): a map homogeneous of degree d_k in each argument x_k
    vanishes identically iff it vanishes with each x_k on lattice(dim, d_k)."""
    for picks in combinations_with_replacement(range(dim), degree):
        alpha = [0] * dim
        for i in picks:
            alpha[i] += 1
        yield tuple(alpha)


def _cleared(v: Sequence[Scalar]):
    """(nonzero coordinates as (index, re, im) integers, their common
    denominator, whether every coordinate is rational)."""
    nz = [(i, s) for i, s in enumerate(v) if s.x or s.y]
    den = lcm(1, *(s.d for _, s in nz))
    out = [(i, s.x * (den // s.d), s.y * (den // s.d)) for i, s in nz]
    return out, den, all(not s.y for _, s in nz)
