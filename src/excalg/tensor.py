"""Sparse exact structure tensors: the bilinear product of an algebra given
by structure constants over Q or Q(i).

The tensor keeps, for each basis pair (i, j) with a nonzero product, the
integer triples (k, re, im) of den * c_ij^k, where den is one common
denominator of all constants.  A product clears the denominators of each
input with one lcm, sums c_ij^k x_i y_j in Python integers (exact at any
size, so no overflow bound is needed) and divides once per output
coordinate.  The results are the same canonical Scalars that Scalar
arithmetic gives.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .scalar import _Q, _Q0, ZERO, Scalar, _make


class StructureTensor:
    """c_ij^k as sparse integer cells over one common denominator: cells[i][j]
    is a tuple of (k, re, im) with c_ij^k = (re + im i) / den."""

    __slots__ = ("dim", "den", "cells", "rational")

    def __init__(self, dim: int, entries: Iterable[Tuple[int, int, int, Scalar]]):
        """Build from (i, j, k, c_ij^k) entries; zero constants are dropped."""
        rows = [dict() for _ in range(dim)]
        for i, j, k, c in entries:
            if c:
                rows[i].setdefault(j, []).append((k, c))
        constants = [c for row in rows for cell in row.values() for _, c in cell]
        den = lcm(1, *(q.denominator for c in constants for q in (c.re, c.im)))
        self.dim = dim
        self.den = den
        self.rational = all(not c.im for c in constants)
        self.cells = []
        for i, row in enumerate(rows):
            # each row is dropped once cleared, so the Scalar and the integer
            # cells never coexist in full (49,440 constants for e8)
            self.cells.append([
                tuple((k, _scaled(c.re, den), _scaled(c.im, den)) for k, c in row.get(j, ()))
                for j in range(dim)
            ])
            rows[i] = None

    @classmethod
    def from_cells(cls, dim: int, den: int, keys: np.ndarray, values: Sequence[int]):
        """Build from rational integer cells without passing through
        Scalars: keys (i * dim + j) * dim + k in increasing order and the
        nonzero values den * c_ij^k."""
        t = cls.__new__(cls)
        t.dim, t.den, t.rational = dim, den, True
        t.cells = [[()] * dim for _ in range(dim)]
        cells = list(zip((keys % dim).tolist(), values, [0] * len(values)))
        pair = keys // dim
        bounds = np.flatnonzero(np.diff(pair, prepend=-1)).tolist() + [len(cells)]
        pair = pair.tolist()
        for a, b in zip(bounds, bounds[1:]):
            i, j = divmod(pair[a], dim)
            t.cells[i][j] = tuple(cells[a:b])
        return t

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


def _scaled(q, den: int) -> int:
    return q.numerator * (den // q.denominator)


def rational_ints(values: Iterable[Scalar]) -> Tuple[List[int], int]:
    """(nums, den) with values[k] == nums[k] / den, den the lcm of the
    denominators; raises ValueError on a Gaussian entry."""
    qs = []
    for v in values:
        if v.im:
            raise ValueError("integer fast path requires rational entries")
        qs.append(v.re)
    den = lcm(1, *(q.denominator for q in qs))
    return [_scaled(q, den) for q in qs], den


def _cleared(v: Sequence[Scalar]):
    """(nonzero coordinates as (index, re, im) integers, their common
    denominator, whether every coordinate is rational)."""
    nz = [(i, s.re, s.im) for i, s in enumerate(v) if s.re or s.im]
    den = lcm(1, *(q.denominator for _, re, im in nz for q in (re, im)))
    out = [(i, _scaled(re, den), _scaled(im, den)) for i, re, im in nz]
    return out, den, all(not im for _, _, im in out)
