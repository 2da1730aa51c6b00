"""Sparse exact structure tensors: the bilinear product of an algebra given
by structure constants over Q or Q(i).

The tensor keeps the constants once, as flat integer cells over one common
denominator den: for each nonzero c_ij^k the pair i * dim + j, the output k
and den * c_ij^k, sorted by the key (i * dim + j) * dim + k.  The checks of
:mod:`excalg.liealg` (skew, Jacobi, Killing, Leibniz) are array joins over
these arrays.  A product clears the denominators of each input with one lcm,
sums c_ij^k x_i y_j in Python integers (exact at any size, so no overflow
bound is needed) and divides once per output coordinate.  The results are
the same canonical Scalars that Scalar arithmetic gives.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .scalar import _Q, _Q0, ZERO, Scalar, _make


class StructureTensor:
    """c_ij^k as sorted flat integer cells over one common denominator den.

    `pair` holds i * dim + j and `out` holds k, both int64 and in increasing
    order of (pair, out).  `val` holds den * c_ij^k, nonzero, as one column
    (re) for a rational tensor and two (re, im) over Q(i): int64 when every
    value fits, else Python integers.  `biggest` is the largest absolute
    value.  The nested view ``cells[i][j]``, a tuple of (k, re, im), is built
    from the arrays on first use, for the pure-Python product loops."""

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

    @cached_property
    def cells(self) -> List[List[tuple]]:
        """cells[i][j] = ((k, re, im), ...): the nested view the product
        loops read."""
        d, n = self.dim, len(self.out)
        re = self.val[:, 0].tolist()
        im = [0] * n if self.rational else self.val[:, 1].tolist()
        entries = list(zip(self.out.tolist(), re, im))
        pair = self.pair.tolist()
        bounds = np.flatnonzero(np.diff(self.pair, prepend=-1)).tolist() + [n]
        cells = [[()] * d for _ in range(d)]
        for a, b in zip(bounds, bounds[1:]):
            i, j = divmod(pair[a], d)
            cells[i][j] = tuple(entries[a:b])
        return cells

    def product(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> List[Scalar]:
        """The coordinates of x * y, i.e. sum_ijk c_ij^k x_i y_j e_k."""
        xs, dx, x_rat = _cleared(x)
        ys, dy, y_rat = _cleared(y)
        den = self.den * dx * dy
        re = [0] * self.dim
        cells = self.cells
        if self.rational and x_rat and y_rat:
            for i, a, _ in xs:
                row = cells[i]
                for j, b, _ in ys:
                    ab = a * b
                    for k, c, _ in row[j]:
                        re[k] += ab * c
            return [_make(_Q(v, den), _Q0) if v else ZERO for v in re]
        im = [0] * self.dim
        for i, a, b in xs:
            row = cells[i]
            for j, c, e in ys:
                # (a + bi)(c + ei) = p + qi, then times each constant r + si
                p = a * c - b * e
                q = a * e + b * c
                for k, r, s in row[j]:
                    re[k] += p * r - q * s
                    im[k] += p * s + q * r
        return [
            _make(_Q(u, den), _Q(v, den)) if u or v else ZERO
            for u, v in zip(re, im)
        ]


def scalar_of(row: Sequence[int], den: int) -> Scalar:
    """The Scalar (re + im i) / den of an integer cell row (re,) or (re, im)."""
    if not any(row):
        return ZERO
    return _make(_Q(row[0], den), _Q(row[1], den) if len(row) > 1 else _Q0)


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


def _scaled(q, den: int) -> int:
    return q.numerator * (den // q.denominator)


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
    """The rows of x / den as Scalars: x an integer array [t, n], or [t, n, 2]
    of (re, im) over Q(i)."""
    if x.ndim == 3:
        return [[scalar_of(c, den) for c in row] for row in x.tolist()]
    return [[_make(_Q(v, den), _Q0) if v else ZERO for v in row] for row in x.tolist()]


def _cleared(v: Sequence[Scalar]):
    """(nonzero coordinates as (index, re, im) integers, their common
    denominator, whether every coordinate is rational)."""
    nz = [(i, s.re, s.im) for i, s in enumerate(v) if s.re or s.im]
    den = lcm(1, *(q.denominator for _, re, im in nz for q in (re, im)))
    out = [(i, _scaled(re, den), _scaled(im, den)) for i, re, im in nz]
    return out, den, all(not im for _, _, im in out)
