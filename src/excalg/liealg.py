"""Finite-dimensional algebras by structure constants.

Covers derivation algebras as exact kernels of the Leibniz system, Jacobi
verification (on every triple, certified from a generating set or by a
scan, or sampled), stabilizer subalgebras of trivectors inside gl_n,
weights of a designated commuting family checked on a given eigenbasis,
and Cartan matrix extraction from an abstract root list.

The skew check, the Leibniz system, the Jacobi verification and the
Killing form are array joins over the flat integer cells of the structure
tensor (den * c, one column over Q).  One Leibniz system u1(xy) = u2(x) y
+ x u3(y) serves der(A), with u1 = u2 = u3, and tri(A) of
:mod:`excalg.magicsquare`; its rows are integers from the start, and
duplicate rows (the (j, i) rows of a commutative product) are dropped
before the certified kernel.  The Jacobi residual is summed in int64 when
a bound on every partial sum stays below 2**63, and in Python integers
otherwise, so it is exact over Q and Q(i) at any size.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import forms as fm
from . import intlin
from .linalg import (
    Matrix,
    is_zero_vec,
    kernel,
    rank,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from .scalar import ONE, ZERO, Scalar, sc
from .tensor import StructureTensor, _cleared, cleared_ints, scalar_of, scalar_rows


BracketTable = Dict[Tuple[int, int], Dict[int, Scalar]]


class SCAlgebra:
    """An algebra given by a sparse bracket tensor c(i,j) -> vector.

    With the skew flag the table must satisfy c(i,j) = -c(j,i); a designated
    Cartan family (coordinate vectors of commuting elements) may be attached
    for weight decompositions.

    The integer structure tensor is the one thing the algebra stores: every
    check and product reads its cells.  A bracket given as a dict
    {(i, j): {k: c_ij^k}} is turned into cells at construction and not
    kept.  ``bracket`` is a read-only :class:`BracketView` of the cells,
    which builds the Scalar dict of a pair when the pair is read.
    ``matrices``, the family of a commutator closure, is kept as given: a
    list of Matrix, or an integer array [n, r, c] ([n, r, c, 2] of (re, im)
    over Q(i)) with its denominator, whose Matrix view is built on first
    read.
    """

    def __init__(
        self,
        dim: int,
        bracket: Union[BracketTable, StructureTensor],
        skew: bool = True,
        unital: bool = False,
        cartan: Optional[List[List[Scalar]]] = None,
        matrices: Union[None, List[Matrix], Tuple[np.ndarray, int]] = None,
        name: str = "",
    ):
        self.dim = dim
        if not isinstance(bracket, StructureTensor):
            bracket = StructureTensor(dim, (
                (i, j, k, sc(v)) for (i, j), comp in bracket.items() for k, v in comp.items()
            ))
        self.tensor = bracket
        self.skew = skew
        self.unital = unital
        if isinstance(matrices, tuple):
            self._matrix_ints = matrices
        else:
            self.matrices = matrices
        self.name = name
        if skew:
            self._check_skew()
        self.cartan = None
        if cartan is not None:
            self.cartan = [[sc(x) for x in h] for h in cartan]
            self._check_cartan_commutes()

    def _check_skew(self):
        """c(i,j) = -c(j,i): the cells (b, a, m, v), sorted once, cancel the
        cells (a, b, m, v), summed in a dtype that holds 2 * biggest.  Where
        that first fails, the smaller key (a*d + b)*d + m has a <= b."""
        t, d = self.tensor, self.dim
        keys, swapped = t.pair * d + t.out, (t.pair % d * d + t.pair // d) * d + t.out
        val, order = t.val.astype(intlin.int_dtype(2 * t.biggest), copy=False), np.argsort(swapped)
        bad = np.flatnonzero((keys != swapped[order]) | (val + val[order] != 0).any(axis=1))
        if bad.size:
            key = min(keys[bad[0]], swapped[order[bad[0]]])
            raise ValueError(f"bracket not skew at ({key // (d * d)},{key // d % d},{key % d})")

    def _check_cartan_commutes(self):
        for a, b in itertools.combinations(self.cartan, 2):
            if not is_zero_vec(self.bracket_coords(a, b)):
                raise ValueError("designated Cartan elements do not commute")

    # -- evaluation -------------------------------------------------------

    def basis_bracket(self, i: int, j: int) -> Dict[int, Scalar]:
        return self.bracket.get((i, j), {})

    def basis_product(self, i: int, j: int) -> List[Scalar]:
        out = zero_vec(self.dim)
        for k, v in self.basis_bracket(i, j).items():
            out[k] = v
        return out

    @cached_property
    def matrices(self) -> List[Matrix]:
        """The Matrix view of the integer matrix family, built on first read."""
        ints, den = self._matrix_ints
        n, r, c = ints.shape[:3]
        rows = scalar_rows(ints.reshape((n, r * c) + ints.shape[3:]), den)
        return [Matrix([row[a * c:(a + 1) * c] for a in range(r)]) for row in rows]

    @cached_property
    def bracket(self) -> "BracketView":
        """The Scalar view {(i, j): {k: c_ij^k}} of the tensor's cells."""
        return BracketView(self.tensor)

    def bracket_coords(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> List[Scalar]:
        return self.tensor.product(x, y)

    def ad_matrix(self, x: Sequence[Scalar]) -> Matrix:
        cols = [self.bracket_coords(x, unit_vec(self.dim, j)) for j in range(self.dim)]
        return Matrix.from_cols(cols)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """{"dim", "skew", "entries"}: one entry [i, j, coefficients] per
        pair with a nonzero cell, in increasing order, with d "p/q" strings
        read off the cells; the zeros are one shared "0/1"."""
        d, zero, entries = self.dim, str(ZERO), []
        (pairs, starts, _), (out, codes, constants) = self.bracket._pairs, self.bracket._cells
        text = [str(c) for c in constants]
        for n, p in enumerate(pairs):
            row = [zero] * d
            for c in range(starts[n], starts[n + 1]):
                row[out[c]] = text[codes[c]]
            entries.append([*divmod(p, d), row])
        return {"dim": d, "skew": self.skew, "entries": entries}

    @staticmethod
    def from_json(data: dict) -> "SCAlgebra":
        """Parse the to_json format; a payload that breaks its schema, lists
        a pair twice, or whose dim exceeds 2^16, raises ValueError.  Every
        coefficient but the canonical zero "0/1" is parsed, and the nonzero
        ones become the cells of the tensor.  The Jacobi check takes O(dim)
        numpy steps (a second or so per 10^4), and a file that lists no
        entries declares its dim for free."""
        if not isinstance(data, dict):
            raise ValueError("structure constants must be a JSON object")
        d, entries = data.get("dim"), data.get("entries")
        if type(d) is not int or not 0 < d <= 1 << 16 or not isinstance(entries, list):
            raise ValueError("need an integer 'dim' from 1 to 65536 and a list 'entries'")
        zero, seen, parsed = str(ZERO), set(), {}

        def cells():
            for entry in entries:
                if not (isinstance(entry, list) and len(entry) == 3):
                    raise ValueError(f"entry {entry!r} is not [i, j, coefficients]")
                i, j, coeffs = entry
                if type(i) is not int or type(j) is not int or not (0 <= i < d and 0 <= j < d):
                    raise ValueError(f"index pair ({i!r}, {j!r}) is outside range({d})")
                if not (isinstance(coeffs, list) and len(coeffs) == d):
                    raise ValueError(f"entry ({i}, {j}) needs {d} coefficient strings")
                if i * d + j in seen:
                    raise ValueError(f"entry ({i}, {j}) is listed twice")
                seen.add(i * d + j)
                # a coefficient equal to "0/1" is a string; the rest are checked
                for k in itertools.compress(range(d), map(operator.ne, coeffs, itertools.repeat(zero))):
                    c = coeffs[k]
                    if not isinstance(c, str):
                        raise ValueError(f"entry ({i}, {j}) needs {d} coefficient strings")
                    if c not in parsed:
                        parsed[c] = Scalar.parse(c)
                    yield i, j, k, parsed[c]

        return SCAlgebra(d, StructureTensor(d, cells()), skew=data.get("skew", True))

    def __repr__(self):
        return f"SCAlgebra({self.name or ''} dim={self.dim})"


class BracketView(Mapping):
    """The read-only Scalar view {(i, j): {k: c_ij^k}} of a structure tensor.

    Its keys are the pairs (i, j) with a nonzero cell, in increasing order.
    Reading a pair builds its {k: Scalar} dict from the pair's cells, and
    the view keeps no dict.  It keeps 8-byte integer arrays, built on first
    use: the pairs that occur, where their cells start and where each row
    i starts among them, so that a lookup is one bisection within a row,
    and for each cell its output and the number of its constant among the
    distinct constants, which are the only Scalars kept."""

    def __init__(self, tensor: StructureTensor):
        self._t = tensor

    @cached_property
    def _pairs(self) -> Tuple[array, array, array]:
        """(the pairs i*d + j that occur; the position of the first cell of
        each, then the number of cells; the position among the pairs of
        the first pair of each row i, then the number of pairs)."""
        t = self._t
        first = np.flatnonzero(np.diff(t.pair, prepend=-1))
        pairs = t.pair[first]
        rows = np.searchsorted(pairs, np.arange(t.dim + 1) * t.dim)
        return _int64s(pairs), _int64s(np.append(first, len(t.pair))), _int64s(rows)

    @cached_property
    def _cells(self) -> Tuple[array, array, List[Scalar]]:
        """(the output of each cell, the number of its constant, the
        distinct constants)."""
        t, number = self._t, {}
        codes = array("q", [number.setdefault(v, len(number)) for v in zip(*t.val.T.tolist())])
        return _int64s(t.out), codes, [scalar_of(v, t.den) for v in number]

    def __getitem__(self, key) -> Dict[int, Scalar]:
        (pairs, starts, rows), d = self._pairs, self._t.dim
        try:
            i, j = key
            i, j = operator.index(i), operator.index(j)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        p = i * d + j
        n = bisect_left(pairs, p, rows[i], rows[i + 1]) if 0 <= i < d and 0 <= j < d else len(pairs)
        if n == len(pairs) or pairs[n] != p:
            raise KeyError(key)
        out, codes, constants = self._cells
        lo, hi = starts[n], starts[n + 1]
        if hi - lo == 1:  # most pairs: e8 has 49,440 cells on 44,064 pairs
            return {out[lo]: constants[codes[lo]]}
        return dict(zip(out[lo:hi], map(constants.__getitem__, codes[lo:hi])))

    def __iter__(self):
        d = self._t.dim
        return (divmod(p, d) for p in self._pairs[0])

    def __len__(self) -> int:
        return len(self._pairs[0])


def _int64s(x: np.ndarray) -> array:
    return array("q", x.astype(np.int64).tobytes())


def commutator_closure_algebra(
    matrices: Union[List[Matrix], np.ndarray], name: str = "", cartan=None, den: int = 1,
    gaussian: bool = False,
) -> SCAlgebra:
    """Express pairwise commutators of a commutator-closed matrix family in
    its own span and return the structure-constant algebra.

    The family is a list of Matrix, cleared to integers over one
    denominator (with a trailing (re, im) axis over Q(i)), or an integer
    array [n, ..., r, c] of numerators over den whose middle axes index
    diagonal blocks, with a trailing (re, im) axis when gaussian.  The
    algebra keeps the family: the list, or an array without block axes
    with den, for its ``matrices`` view.  The commutators are formed as
    integer products, solved for at once and certified on every entry by
    :func:`excalg.intlin.span_coordinates` (over Q or Q(i)), and the
    bracket is built as integer cells."""
    n = len(matrices)
    if n == 0:
        return SCAlgebra(0, {}, skew=True, matrices=[], name=name, cartan=cartan)
    ints, tail = matrices, (2,) if gaussian else ()
    kept = (ints, den) if isinstance(ints, np.ndarray) and ints.ndim == 3 + len(tail) else None
    if not isinstance(matrices, np.ndarray):
        entries = [x for m in matrices for row in m.entries for x in row]
        ints, den = cleared_ints(entries, (n, matrices[0].rows, matrices[0].cols))
        kept, tail = matrices, ints.shape[3:]
    family = ints.reshape((n, -1) + tail)
    comms = [_product(ints[i], ints[i + 1:], tail) - _product(ints[i + 1:], ints[i], tail) for i in range(n)]
    solved = intlin.span_coordinates(family, np.concatenate(comms).reshape((-1,) + family.shape[1:]))
    if solved is None:
        raise ValueError("matrix family is not closed under commutators")
    # ints holds den * M_i and comms den^2 [M_i, M_j], so c_ij^k = x / (scale * den)
    x, scale = solved
    x = x if tail else x[..., None]
    if not x[..., 1:].any():  # a Q(i) family may still close over Q
        x = x[..., :1]
    i, j = np.triu_indices(n, 1)
    r, k = np.nonzero(x.any(axis=2))
    keys = np.concatenate(((i[r] * n + j[r]) * n + k, (j[r] * n + i[r]) * n + k))
    order = np.argsort(keys)
    vals = np.concatenate((x[r, k], -x[r, k]))[order]
    g = math.gcd(scale * den, *vals.ravel().tolist())
    tensor = StructureTensor.from_cells(n, scale * den // g, keys[order], vals // g)
    return SCAlgebra(n, tensor, skew=True, matrices=kept, name=name, cartan=cartan)


def _product(a: np.ndarray, b: np.ndarray, tail: tuple) -> np.ndarray:
    """a @ b of integer matrices (stacks broadcast), exactly; with tail (2,)
    the last axis holds (re, im) and the product is over Q(i)."""
    if not tail:
        return intlin.checked_int_matmul(a, b)
    (ar, ai), (br, bi) = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    mul = intlin.checked_int_matmul
    return np.stack((mul(ar, br) - mul(ai, bi), mul(ar, bi) + mul(ai, br)), axis=-1)


# -- derivations ------------------------------------------------------------------


def derivations(algebra, name: str = "") -> SCAlgebra:
    """The Lie algebra of derivations of a finite algebra with a structure
    tensor: the exact kernel of the Leibniz system on End, with commutator
    bracket.  The output always satisfies the Jacobi identity (checked).
    """
    d = algebra.dim
    units = [{(a, b): ONE} for a in range(d) for b in range(d)]
    k, den = leibniz_kernel(algebra.tensor, [(e, e, e) for e in units], ints=True)
    out = commutator_closure_algebra(
        k.reshape((len(k), d, d) + k.shape[2:]), name=name or "der", den=den, gaussian=k.ndim == 3
    )
    report = jacobi_check(out, mode="full")
    if not report.passed:
        raise AssertionError("derivation algebra failed the Jacobi identity")
    return out


SparseMatrix = Dict[Tuple[int, int], Scalar]


def leibniz_kernel(
    t: StructureTensor,
    unknowns: Sequence[Tuple[SparseMatrix, SparseMatrix, SparseMatrix]],
    ints: bool = False,
):
    """The echelon basis, as in ``kernel(...).basis``, of the x for which
    (U1, U2, U3) = sum_u x_u (A_u, B_u, C_u) satisfies U1(e_i e_j) =
    U2(e_i) e_j + e_i U3(e_j); each unknown gives its three matrices as
    {(row, col): value} maps.

    Row (i, j, l) holds sum_m c_ij^m A_u[l,m] - sum_a B_u[a,i] c_aj^l -
    sum_b C_u[b,j] c_ib^l at u, joined from the integer cells of the tensor
    and the matrix entries over one common denominator, so the kernel is
    unchanged.  An entry sums at most 3d products below 2 * max^2 (int64
    when 6 d max^2 < 2**63, else Python integers).  Duplicate rows, such as
    the (j, i) rows of a commutative product when B_u = C_u, are dropped.
    The certified integer kernel of the column-reversed matrix, over Q or
    Q(i) (:func:`excalg.intlin.kernel_array`), gives the basis.
    With ints it is returned as one integer array over the common
    denominator, (K, den), the vector k being K[k] / den (K[k, :, 0] + i
    K[k, :, 1] over Q(i)).

    The matrix entries enter as (re, im) rows, the cells of a rational
    tensor as one column.  A real constant c scales both parts, c (re + im
    i) = c re + (c im) i, so :func:`_mul` broadcasts the one column over the
    two and every row entry is still an exact Gaussian integer."""
    d, n = t.dim, len(unknowns)
    at = [(s, u, p, q) for u, mats in enumerate(unknowns) for s, m in enumerate(mats) for p, q in m]
    cleared = _cleared([x for mats in unknowns for m in mats for x in m.values()])[0]
    cells = _Cells(t, max([0] + [abs(x) for _, re, im in cleared for x in (re, im)]))
    dtype = cells.val.dtype
    ci, cj, cm, cval = cells.pair // d, cells.col, cells.out, cells.val
    slot, u, p, q = np.array([at[k] for k, _, _ in cleared], dtype=np.int64).reshape(-1, 4).T
    val = np.array([f[1:] for f in cleared], dtype=dtype).reshape(-1, 2)
    keys, vals = [], []
    for s, (key, cell_key) in enumerate(((q, cm), (p, ci), (p, cj))):
        # A_u[l, m] meets the cells (i, j, m), B_u[a, i] the cells (a, j, l)
        # and C_u[b, j] the cells (i, b, l)
        mine = np.flatnonzero(slot == s)
        mine = mine[np.argsort(key[mine])]
        own, f = _span(key[mine], cell_key, cell_key + 1)
        f = mine[f]
        i, j, l = ((ci[own], cj[own], p[f]), (q[f], cj[own], cm[own]), (ci[own], q[f], cm[own]))[s]
        keys.append(((i * d + j) * d + l) * n + u[f])
        vals.append(_mul(cval[own], val[f]) * (1 if s == 0 else -1))
    keys, sums = _summed(np.concatenate(keys), np.concatenate(vals))
    nonzero = (sums != 0).any(axis=1)
    keys, sums = keys[nonzero], sums[nonzero]
    bounds = np.flatnonzero(np.diff(keys // n, prepend=-1)).tolist() + [len(keys)]
    cols, re, im = (keys % n).tolist(), sums[:, 0].tolist(), sums[:, 1].tolist()
    rows = dict.fromkeys(
        (tuple(cols[a:b]), tuple(re[a:b]), tuple(im[a:b])) for a, b in zip(bounds, bounds[1:])
    )
    a = np.zeros((len(rows), n, 2) if any(im) else (len(rows), n), dtype=dtype)
    for r, (cs, xs, ys) in enumerate(rows):
        a[r, [n - 1 - c for c in cs]] = list(zip(xs, ys)) if a.ndim == 3 else xs
    k, den = intlin.kernel_array(a, n)
    k = k[::-1, ::-1]
    return (k, den) if ints else scalar_rows(k, den)


# -- Jacobi verification ------------------------------------------------------------


@dataclass
class JacobiReport:
    passed: bool
    checked: int
    witness: Optional[tuple] = None  # (i, j, k, coordinate values)


def _jacobi_witness(g: SCAlgebra, i: int, j: int, k: int) -> Optional[list]:
    ei, ej, ek = (unit_vec(g.dim, t) for t in (i, j, k))
    s = g.bracket_coords(g.bracket_coords(ei, ej), ek)
    s = vec_add(s, g.bracket_coords(g.bracket_coords(ej, ek), ei))
    s = vec_add(s, g.bracket_coords(g.bracket_coords(ek, ei), ej))
    return None if is_zero_vec(s) else s


def jacobi_check(
    g: SCAlgebra,
    mode: str = "full",
    samples: int = 100000,
    seed: int = 0,
) -> JacobiReport:
    """Verify the Jacobi identity on all basis triples (full) or on seeded
    random triples (sampled).  Reports the first failing triple, if any:
    the lexicographically first in full mode, the first drawn in sampled
    mode, with its residual read off the same integer sums.

    Full mode first tries a certificate.  The x for which ad x is a
    derivation form a subalgebra N (Humphreys, §1.3), so when every
    element of a generating set S of basis indices lies in N, the identity
    holds on all d^3 triples.  :func:`_generators` picks S by peeling, and
    :meth:`_Cells.is_derivation` checks each ad s exactly.  When the joins
    of S would cost more than the scan, or some ad s is not a derivation,
    the scan over every triple i < j < k decides (:func:`_scan`), so a
    failure always carries the scan's witness.  ``checked`` counts the
    basis triples the verdict covers: d^3 on a pass, and on a failure the
    triples up to the end of the witness's first index."""
    if not g.skew:
        raise ValueError("jacobi_check requires the skew flag")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled mode needs at least one sample, got {samples}")
    d = g.dim
    if d == 0:
        return JacobiReport(True, 0)
    cells = _Cells(g.tensor)
    den = g.tensor.den ** 2
    if mode == "full":
        chosen = _generators(cells)
        if chosen is not None and all(cells.is_derivation(s) for s in chosen):
            return JacobiReport(True, d ** 3)
        return _scan(cells, den)
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        ii, jj, kk = (rng.integers(0, d, size=samples) for _ in range(3))
        terms = [cells.triple_term(*t) for t in ((ii, jj, kk), (jj, kk, ii), (kk, ii, jj))]
        bad = _first_nonzero(*(np.concatenate(part) for part in zip(*terms)), d, den)
        if bad is None:
            return JacobiReport(True, samples)
        return JacobiReport(False, samples, (*(int(x[bad[0]]) for x in (ii, jj, kk)), bad[1]))
    raise ValueError(f"unknown mode {mode!r}")


def _scan(cells: "_Cells", den: int) -> JacobiReport:
    """The exhaustive check, row by row: the first i whose triples i < j < k
    leave a nonzero residual gives the lexicographically first failing
    triple and its residual divided by den."""
    d = cells.d
    for i in range(d):
        bad = _first_nonzero(*cells.row_residual(i), d, den)
        if bad is not None:
            return JacobiReport(False, (i + 1) * d * d, (i, *divmod(bad[0], d), bad[1]))
    return JacobiReport(True, d ** 3)


def _generators(cells: "_Cells") -> Optional[List[int]]:
    """A set S of basis indices that generates the algebra, or None when the
    derivation joins of S would have more terms than the scan.

    Each step takes the unreached s that the next peel would reach from
    most often (pairs (s, r), r reached, with one lone output neither
    reached nor s), the cheapest join on ties, and then peels
    (:meth:`_Cells.generated`)."""
    costs, budget, spent = cells.join_terms, cells.scan_terms, 0
    (a, b, group), m = cells.upper_pairs, cells.out[cells.upper]
    reached, chosen = np.zeros(cells.d, dtype=bool), []
    while not reached.all():
        s = np.where(reached[a], b, a)  # in a pair with one index reached, the other
        lone = np.bincount(group[~reached[m] & (m != s[group])], minlength=len(a)) == 1
        score = np.bincount(s[lone & (reached[a] != reached[b])], minlength=cells.d)
        s = int(np.lexsort((costs, -score, reached))[0])  # unreached first
        spent += costs[s]
        if spent > budget:
            return None
        chosen.append(s)
        reached[s] = True
        reached = cells.generated(reached)
    return chosen


class _Cells:
    """The flat cell arrays of a structure tensor, shared: pair a*d + b, its
    b, output m and the values C[a,b,m] (numbers over Q, (re, im) rows over
    Q(i)), Python integers only when a join needs them.  The indexes the
    Jacobi joins read (the cells with a < b and their pairs, and for the
    scan those cells sorted by output) are built on first use, so a check
    that the certificate settles never sorts cells by output.

    With T[a,b,c,l] = sum_m C[a,b,m] C[m,c,l], the coefficient of e_l in
    [[e_a, e_b], e_c], the Jacobi residual of (a, b, c) is T[a,b,c] +
    T[b,c,a] + T[c,a,b]: at most 3d products per entry, each below
    2 * max^2 in absolute value, so int64 is exact when 6 d max^2 < 2**63;
    otherwise the values are Python integers.  The Leibniz rows have the
    same bound with max taken over the matrix entries too (`other`)."""

    def __init__(self, t: StructureTensor, other: int = 0):
        d = self.d = t.dim
        self.pair, self.out, self.col, val = t.pair, t.out, t.pair % d, t.val[:, 0] if t.rational else t.val
        self.val = val.astype(intlin.int_dtype(6 * d * max(t.biggest, other) ** 2), copy=False)

    @cached_property
    def upper(self) -> np.ndarray:
        """The positions of the cells (a, b, m) with a < b, in key order."""
        return np.flatnonzero(self.pair // self.d < self.pair % self.d)

    @cached_property
    def upper_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """a and b of each pair a < b with a cell, and each upper cell's pair."""
        p = self.pair[self.upper]
        new = np.diff(p, prepend=-1) != 0
        return p[new] // self.d, p[new] % self.d, np.cumsum(new) - 1

    @cached_property
    def upper_by_out(self) -> Tuple[np.ndarray, np.ndarray]:
        """The upper cells sorted by m*d*d + a*d + b, and those keys."""
        d = self.d
        by_out = self.out[self.upper] * d * d + self.pair[self.upper]
        order = np.argsort(by_out)
        return self.upper[order], by_out[order]

    def generated(self, reached: np.ndarray) -> np.ndarray:
        """The indices reached from the mask reached by peeling.

        e_t is reached when, for some reached a < b, t is the one output
        cell of [e_a, e_b] that is not yet reached.  The stored cells are
        nonzero, so c_ab^t e_t is [e_a, e_b] minus multiples of reached
        elements, and every subalgebra that holds the reached elements
        holds e_t.  So when all d are reached, the starting set generates
        the algebra.  The peel is exact over Q and Q(i) and needs no prime
        and no elimination; peeling from a mask that is already closed
        returns it unchanged."""
        (a, b, group), m = self.upper_pairs, self.out[self.upper]
        reached = reached.copy()
        while True:
            pending = (reached[a] & reached[b])[group] & ~reached[m]
            lone = pending & (np.bincount(group[pending], minlength=len(a))[group] == 1)
            if not lone.any():
                return reached
            reached[m[lone]] = True

    @cached_property
    def join_terms(self) -> np.ndarray:
        """The number of join terms of :meth:`derivation_residual` for every
        s, from the cell counts alone: the upper cells with output m times
        the cells (s, m, l), and the cells of row m for each cell (s, x, m)."""
        d, a, b = self.d, self.pair // self.d, self.pair % self.d
        upper, row = np.bincount(self.out[self.upper], minlength=d), np.bincount(a, minlength=d)
        return np.bincount(a, weights=upper[b] + row[self.out], minlength=d).astype(np.int64)

    @property
    def scan_terms(self) -> float:
        """About the number of join terms of the scan: the three terms of a
        triple a < b < c appear in the joins of a, b and c, so a third of
        all d joins (which also cover the triples with a repeated index)."""
        return self.join_terms.sum() / 3

    def derivation_residual(self, s: int):
        """Keys (j*d + k)*d + l and values of the terms of R_s[j,k,l] =
        [s,[j,k]] - [[s,j],k] - [j,[s,k]] for j < k, the coefficient of e_l.

        R_s is alternating in (j, k) for a skew bracket, so these pairs
        decide whether ad s is a derivation.  The first term joins the
        upper cells (j, k, m) with the cells (s, m, l).  The other two join
        each cell (s, x, m) with the cells (m, y, l): with [j, [s, k]] =
        -[[s, k], j] the product C[s,x,m] C[m,y,l] enters at (x, y, l)
        negated when x < y and at (y, x, l) when x > y; x = y contributes
        zero.  An entry sums at most 3d products, the scan's bound."""
        d, col, out, val, u = self.d, self.col, self.out, self.val, self.upper
        rows = np.searchsorted(self.pair, np.arange(d + 1) * d)  # the first cell of each row, then the end
        st = np.searchsorted(self.pair, s * d + np.arange(d + 1))  # the bounds of the pairs (s, b)
        jk, m, c = self.pair[u] * d, out[u], val[u]  # the pair (s, m) for each upper cell (j, k, m)
        own, f = _ranges(st[m], st[m + 1])
        keys, vals = jk[own] + out[f], _mul(c[own], val[f])
        x, m, c = (a[st[0]:st[d]] for a in (col, out, val))  # the cells (s, x, m)
        own, g = _ranges(rows[m], rows[m + 1])
        x, y = x[own], col[g]
        return (
            np.concatenate((keys, (np.minimum(x, y) * d + np.maximum(x, y)) * d + out[g])),
            np.concatenate((vals, _mul(np.sign(x - y), _mul(c[own], val[g])))),
        )

    def is_derivation(self, s: int) -> bool:
        """True when ad e_s is a derivation: R_s vanishes on every key."""
        return _first_nonzero(*self.derivation_residual(s)) is None

    def row_residual(self, i: int):
        """Keys (j*d + k)*d + l and values of the terms of R[i,j,k,l] for
        i < j < k.

        A skew bracket makes the residual alternating in (i, j, k), so these
        triples decide all d^3, and the lexicographically first failing
        triple is among them.  Row i's cells (i, s, m) with s > i meet row
        m's cells (m, t, l) with t > i: in T[i,s,t,l] at (s, t, l) when
        t > s, and in T[s,i,t,l] = -C[i,s,m] C[m,t,l] at (t, s, l) when
        t < s.  The third term T[j,k,i,l] = -sum_m C[j,k,m] C[i,m,l] joins
        row i's cells (i, m, l) with the cells (j, k, m), i < j < k."""
        d, pair, out, val = self.d, self.pair, self.out, self.val
        lo, mid, hi = np.searchsorted(pair, [i * d, i * d + i + 1, i * d + d])
        e = np.arange(mid, hi)
        s, m = self.col[e], out[e]
        own, f = _span(pair, m * d + i + 1, m * d + d)
        s, t = s[own], self.col[f]
        keys = (np.minimum(s, t) * d + np.maximum(s, t)) * d + out[f]
        vals = _mul(np.sign(t - s), _mul(val[e[own]], val[f]))
        e = np.arange(lo, hi)
        m = self.col[e]
        upper, upper_key = self.upper_by_out
        own, f = _span(upper_key, m * d * d + (i + 1) * d, (m + 1) * d * d)
        c, e = upper[f], e[own]
        return (
            np.concatenate((keys, pair[c] * d + out[e])),
            np.concatenate((vals, -_mul(val[c], val[e]))),
        )

    def triple_term(self, a, b, c):
        """Keys n*d + l and values of the terms of T[a_n, b_n, c_n, l]."""
        d = self.d
        own, e = _span(self.pair, a * d + b, a * d + b + 1)
        q = self.out[e] * d + c[own]
        own2, f = _span(self.pair, q, q + 1)
        return own[own2] * d + self.out[f], _mul(self.val[e[own2]], self.val[f])


def _span(keys: np.ndarray, lo, hi):
    """(n, position) for every position of a sorted key in [lo[n], hi[n])."""
    return _ranges(np.searchsorted(keys, lo), np.searchsorted(keys, hi))


def _ranges(lo: np.ndarray, hi: np.ndarray):
    """(n, position) for every position in [lo[n], hi[n])."""
    counts = hi - lo
    owner = np.repeat(np.arange(len(lo)), counts)
    return owner, np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise products of cell values: numbers (1-D) for rationals, (re,
    im) rows for Gaussian integers.  A number scales both parts of a row."""
    if x.ndim == 1 or y.ndim == 1:
        return (x[:, None] if x.ndim < y.ndim else x) * (y[:, None] if y.ndim < x.ndim else y)
    return np.stack(
        (x[:, 0] * y[:, 0] - x[:, 1] * y[:, 1], x[:, 0] * y[:, 1] + x[:, 1] * y[:, 0]),
        axis=1,
    )


def _summed(keys: np.ndarray, vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct keys (>= 0) in increasing order and the sums of their
    values (numbers or rows), one row per key.  int64 numbers in [lo, hi]
    with (max key + 1) 2^b passing intlin.int_dtype, b the bits of hi - lo,
    take one sort of key 2^b + value - lo (int32 below 2^31) and cumulative
    sums at the key ends, exact modulo 2^64, so exact under the caller's
    bound on each sum; other values a stable argsort and reduceat."""
    vals = vals if vals.ndim == 2 else vals[:, None]
    if vals.dtype == np.int64 and vals.shape[1] == 1 and len(keys):
        lo = int(vals.min())
        bits = (int(vals.max()) - lo).bit_length()
        bound = (int(keys.max()) + 1) << bits
        if intlin.int_dtype(bound) is np.int64:
            packed = ((keys << bits) + (vals[:, 0] - lo)).astype(np.int32 if bound < 1 << 31 else np.int64)
            packed.sort()
            keys = packed >> bits
            ends = np.append(np.flatnonzero(keys[1:] != keys[:-1]), len(keys) - 1)
            sums = np.cumsum((packed & ((1 << bits) - 1)).astype(np.int64))[ends] + lo * (ends + 1)
            return keys[ends].astype(np.int64), np.diff(sums, prepend=0)[:, None]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.add.reduceat(vals[order], starts, axis=0)


def _first_nonzero(keys: np.ndarray, vals: np.ndarray, d: int = 1, den: int = 1):
    """The smallest n = key // d for which some key n*d + l has a nonzero
    sum of values, and the vector of the sums at n*d + l, l < d, divided by
    den; None when every sum vanishes."""
    keys, sums = _summed(keys, vals)
    bad = np.flatnonzero((sums != 0).any(axis=1))
    if not bad.size:
        return None
    n = int(keys[bad[0]]) // d
    lo, hi = np.searchsorted(keys, [n * d, n * d + d])
    at = dict(zip((keys[lo:hi] % d).tolist(), sums[lo:hi].tolist()))
    return n, [scalar_of(at[l], den) if l in at else ZERO for l in range(d)]


def _killing_join(t: StructureTensor) -> np.ndarray:
    """K[i,j] = sum_ab C[i,a,b] C[j,b,a] for the integer-scaled bracket
    C = den * c, as a d x d array of value rows: the cells (i, a, b) joined
    with the cells (j, b, a) on the key a*d + b, read off the counts and
    starts of the latter's keys.  The products are int64 when (columns) *
    max^2 < 2**63, and the sums when the most terms of one entry times the
    largest |product| is below 2**63; otherwise they are Python integers."""
    d, val = t.dim, t.val[:, 0] if t.rational else t.val
    left, right = t.pair % d * d + t.out, t.out * d + t.pair % d
    order, count = np.argsort(right), np.bincount(right, minlength=d * d)
    starts = np.cumsum(count) - count
    own, f = _ranges(starts[left], starts[left] + count[left])
    del left, right, count, starts  # so the sums below do not add to the peak
    f = order[f]
    x, y = val[own], val[f]
    if intlin.int_dtype(t.val.shape[1] * t.biggest ** 2) is object:
        x, y = x.astype(object), y.astype(object)
    products = _mul(x, y)
    keys = t.pair[own] // d * d + t.pair[f] // d
    if intlin.int_dtype(int(np.bincount(keys, minlength=1).max()) * intlin.biggest(products)) is object:
        products = products.astype(object)
    keys, sums = _summed(keys, products)
    k = np.zeros((d * d, t.val.shape[1]), dtype=sums.dtype)
    k[keys] = sums
    return k.reshape(d, d, -1)


def killing_nondegenerate(g: SCAlgebra) -> bool:
    """True when the Killing form has an empty (verified) kernel, over Q or
    over Q(i)."""
    k = _killing_join(g.tensor)
    return not len(intlin.kernel_array(k[:, :, 0] if g.tensor.rational else k, g.dim)[0])


def derived_dimension(g: SCAlgebra) -> int:
    """Dimension of the span of all basis brackets, exact: the rank of the
    distinct cell rows of the tensor, each divided by the gcd of its
    entries, by the certified modular path over Q or over Q(i)."""
    t = g.tensor
    out, vals = t.out.tolist(), [tuple(v) for v in t.val.tolist()]
    bounds = np.flatnonzero(np.diff(t.pair, prepend=-1)).tolist() + [len(out)]
    rows = {}
    for a, b in zip(bounds, bounds[1:]):
        div = math.gcd(*(x for v in vals[a:b] for x in v))
        div = -div if vals[a] < (0,) * len(vals[a]) else div
        rows[tuple((k, tuple(x // div for x in v)) for k, v in zip(out[a:b], vals[a:b]))] = None
    if not rows:
        return 0
    at = tuple(np.array([(r, k) for r, cell in enumerate(rows) for k, _ in cell]).T)
    # a row divided by its gcd is at most t.biggest in absolute value
    m = np.zeros((len(rows), g.dim, t.val.shape[1]), dtype=intlin.int_dtype(t.biggest))
    m[at] = np.array([v for cell in rows for _, v in cell], dtype=object).reshape(-1, t.val.shape[1])
    return g.dim - len(intlin.kernel_array(m[:, :, 0] if t.rational else m, g.dim)[0])


# -- stabilizers in gl_n ----------------------------------------------------------


def stabilizer_in_gl(n: int, form: fm.KForm) -> SCAlgebra:
    """The annihilator subalgebra { X in gl_n : X . form = 0 } with
    commutator bracket."""
    from .threeform import action_matrix

    ker = kernel(action_matrix(n, form))
    matrices = [
        Matrix([[v[a * n + b] for b in range(n)] for a in range(n)])
        for v in ker.basis
    ]
    return commutator_closure_algebra(matrices, name="stab")


# -- weight decompositions -----------------------------------------------------------


@dataclass
class ModuleRep:
    """A representation by explicit matrices, one per algebra basis element."""

    dim: int
    matrices: List[Matrix]


def adjoint_module(g: SCAlgebra) -> ModuleRep:
    return ModuleRep(
        g.dim, [g.ad_matrix(unit_vec(g.dim, i)) for i in range(g.dim)]
    )


def weight_decomposition(
    g: SCAlgebra, module: ModuleRep, eigenbasis: Sequence[Sequence[Scalar]]
) -> List[Tuple[tuple, int]]:
    """Weights of the designated Cartan family on a module, checked on a
    given eigenbasis; returns (weight tuple, multiplicity) pairs sorted by
    weight.

    The basis must have rank module.dim, and h b = lambda(h) b must hold
    exactly for each Cartan element h and basis vector b; otherwise
    ValueError.  Nothing is searched: the check is the certificate.
    """
    if g.cartan is None:
        raise ValueError("algebra carries no designated Cartan")
    n = module.dim
    basis = [[sc(x) for x in b] for b in eigenbasis]
    if len(basis) != n or any(len(b) != n for b in basis) or rank(Matrix(basis)) != n:
        raise ValueError(f"eigenbasis does not have rank {n}")
    h_mats = [
        sum((module.matrices[i].scale(c) for i, c in enumerate(h) if c), Matrix.zero(n, n))
        for h in g.cartan
    ]
    counts: Dict[tuple, int] = {}
    for b in basis:
        lead = next(k for k, x in enumerate(b) if x)
        weight = []
        for hm in h_mats:
            img = hm.apply(b)
            lam = img[lead] / b[lead]
            if img != vec_scale(lam, b):
                raise ValueError("basis vector is not a Cartan eigenvector")
            weight.append(lam)
        counts[tuple(weight)] = counts.get(tuple(weight), 0) + 1
    return sorted(counts.items(), key=lambda t: tuple(str(x) for x in t[0]))


# -- Cartan matrices from roots ---------------------------------------------------


def cartan_matrix_from_roots(roots: Sequence[tuple]) -> Matrix:
    """Cartan matrix of a finite root list closed under negation.

    Simple roots are the indecomposable positive roots for a generic linear
    functional; pairings come from root strings, so no inner product is
    assumed on the coordinates.
    """
    root_set = {tuple(sc(x) for x in r) for r in roots}
    if not root_set:
        raise ValueError("empty root list")
    for r in root_set:
        if not any(r) or tuple(-x for x in r) not in root_set:
            raise ValueError("root list not nonzero and closed under negation")
    dim = len(next(iter(root_set)))

    def f(n, r):
        return sum((sc(n ** k) * x for k, x in enumerate(r)), ZERO)

    # f(n, r) is a nonzero polynomial in n of degree below dim for each root
    # r, so at most |roots| (dim - 1) values of n make some f(n, r) vanish
    n = next(n for n in range(1, len(root_set) * (dim - 1) + 2)
             if all(f(n, r) for r in root_set))
    positives = {r for r in root_set if (v := f(n, r)).x > 0 or (not v.x and v.y > 0)}
    # r is a sum of two positive roots iff r - p is positive for some p != r
    simple = sorted(
        (r for r in positives if not any(
            tuple(x - y for x, y in zip(r, p)) in positives for p in positives if p != r)),
        key=lambda r: tuple(str(x) for x in r),
    )
    return Matrix([
        [sc(2) if a == b else sc(string_pairing(a, b, root_set)) for b in simple] for a in simple
    ])


def string_pairing(alpha: tuple, beta: tuple, root_set) -> int:
    """p - q for the beta-string alpha - p beta, ..., alpha + q beta through
    alpha inside root_set."""

    def steps(delta):
        n, cur = 0, tuple(x + y for x, y in zip(alpha, delta))
        while cur in root_set:
            n, cur = n + 1, tuple(x + y for x, y in zip(cur, delta))
        return n

    return steps(tuple(-y for y in beta)) - steps(beta)

