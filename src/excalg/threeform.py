"""Invariants and orbit classification of trivectors in up to seven
variables.

The classifier works with invariants only (support rank, the rank of the
associated quadratic form, the six-variable quartic, a degree-seven
semi-invariant, and a linear-divisor test); it never builds a normalizing
change of basis, which may require field extensions.

Every invariant is computed from the coefficients of w cleared once to an
integer vector: cached index and sign tables read integer matrices off it
(see _table), and the invariants are exact integer products of those
matrices over a power of the common denominator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Tuple

import numpy as np

from . import forms as fm
from . import intlin
from .forms import KForm
from .linalg import Matrix, Subspace, kernel
from .scalar import ZERO, Scalar, sc
from .tensor import biggest, cleared_ints, scalar_of, scalar_rows

ZERO_LABEL = "ZERO"
RANK3_DECOMPOSABLE = "RANK3_DECOMPOSABLE"
RANK5 = "RANK5"
RANK6_GENERIC = "RANK6_GENERIC"
RANK6_TANGENT = "RANK6_TANGENT"
W1, W2, W3, W4, W5 = "W1", "W2", "W3", "W4", "W5"

# canonical rank-seven representatives
def representative(label: str) -> KForm:
    reps = {
        W1: "e[1,2,5]+e[1,3,6]+e[1,4,7]",
        W2: "e[1,2,5]+e[1,3,6]+e[1,4,7]+e[2,3,4]",
        W3: "e[1,2,5]+e[2,3,6]+e[3,4,7]",
        W4: "e[1,2,5]+e[1,4,7]+e[3,4,6]+e[3,2,7]",
        W5: "e[1,2,5]+e[1,3,6]+e[1,4,7]+e[2,3,4]+e[5,6,7]",
    }
    if label in reps:
        return fm.parse_form(reps[label], 7)
    if label == RANK6_GENERIC:
        return fm.parse_form("e[1,2,3]+e[4,5,6]", 6)
    if label == RANK6_TANGENT:
        return fm.parse_form("e[1,2,4]+e[1,3,5]+e[2,3,6]", 6)
    if label == RANK5:
        return fm.parse_form("e[1,2,3]+e[1,4,5]", 5)
    if label == RANK3_DECOMPOSABLE:
        return fm.parse_form("e[1,2,3]", 3)
    raise ValueError(f"no canonical representative for {label!r}")


@dataclass(eq=False)
class QuadForm:
    """A symmetric bilinear form by its Gram matrix ints / den: ints an
    integer array [n, n], or [n, n, 2] of (re, im) over Q(i)."""

    n: int
    ints: np.ndarray
    den: int

    @cached_property
    def gram(self) -> Matrix:
        return Matrix(scalar_rows(self.ints, self.den))

    @property
    def rank(self) -> int:
        return self.n - len(intlin.kernel_array(self.ints, self.n)[0])


@lru_cache(maxsize=None)
def _table(n: int, k: int, name) -> tuple:
    """An index and sign table that reads a matrix off the coefficient
    vector x of a k-form w in n variables (x[r] at the r-th sorted k-tuple),
    as (shape, pos, src, sign): entry pos of the flattened matrix is sign *
    x[src], and every other entry is zero.  Built on first use.

    - "contraction" [S, j]: coefficient j of e_S -| w over the sorted
      (k-1)-tuples S, the rows that forms.support spans;
    - "divisor" [J, j]: coefficient J of e^j ^ w over the sorted (k+1)-tuples;
    - "action" [t, a n + b]: coefficient t of E_ab . w, in which each index a
      of a term is replaced by b;
    - (p, q), p + q = n - k, the complement rule [P, Q] over the sorted p-
      and q-tuples: the top coefficient of e^P ^ e^Q ^ w, sign(P + Q + T) *
      w[T] with T = {1..n} - P - Q, and zero when P and Q overlap."""
    def tuples(d: int) -> list:
        return list(itertools.combinations(range(1, n + 1), d))

    src = {t: r for r, t in enumerate(tuples(k))}

    def packed(rows: list, cols: int, cells) -> tuple:
        """cells: (row tuple, column, source k-tuple, sign); zero signs dropped."""
        at = {t: r for r, t in enumerate(rows)}
        a = np.array([(at[r] * cols + c, src[t], s) for r, c, t, s in cells if s], dtype=np.int64)
        return ((len(rows), cols),) + tuple(a.reshape(-1, 3).T)

    sort = fm._sort_with_sign
    if name == "contraction":
        return packed(tuples(k - 1), n, (
            (t[:p] + t[p + 1:], j - 1, t, (-1) ** p) for t in src for p, j in enumerate(t)))
    if name == "divisor":
        return packed(tuples(k + 1), n, (
            (J, j - 1, J[:p] + J[p + 1:], (-1) ** p) for J in tuples(k + 1) for p, j in enumerate(J)))
    if name == "action":
        return packed(tuples(k), n * n, (
            (u, (a - 1) * n + b - 1, t, s) for t in src for p, a in enumerate(t)
            for b in range(1, n + 1) for u, s in [sort(t[:p] + (b,) + t[p + 1:])]))
    p, q = name
    full = set(range(1, n + 1))
    return packed(tuples(p), len(tuples(q)), (
        (P, c, T, sort(P + Q + T)[1]) for P in tuples(p) for c, Q in enumerate(tuples(q))
        for T in [tuple(sorted(full - set(P + Q)))] if len(T) == k))


def _cleared_form(w: KForm, n: Optional[int] = None) -> Tuple[np.ndarray, int]:
    """(x, den): the coefficients of w over the sorted k-tuples in n
    variables (w.n by default), cleared by tensor.cleared_ints."""
    tuples = list(itertools.combinations(range(1, (n or w.n) + 1), w.k))
    return cleared_ints([w.terms.get(t, ZERO) for t in tuples], (len(tuples),))


def _matrix(x: np.ndarray, n: int, k: int, name) -> np.ndarray:
    """The integer matrix that _table(n, k, name) reads off x, with x's
    dtype and trailing (re, im) axis."""
    shape, pos, src, sign = _table(n, k, name)
    out = np.zeros((shape[0] * shape[1],) + x.shape[1:], dtype=x.dtype)
    out[pos] = x[src] * sign.reshape(sign.shape + (1,) * (x.ndim - 1))
    return out.reshape(shape + x.shape[1:])


def _kernel(x: np.ndarray, n: int, k: int, name: str) -> np.ndarray:
    """The kernel vectors, as rows over one denominator, of the matrix that
    _table(n, k, name) reads off x, by the certified kernel."""
    m = _matrix(x, n, k, name)
    return intlin.kernel_array(m, m.shape[1])[0]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for integer matrices, or Gaussian ones [.., .., 2], exactly: in
    int64 while 2 * inner * max|a| * max|b| fits, else in Python integers."""
    dtype = intlin.int_dtype(2 * a.shape[1] * biggest(a) * biggest(b))
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    if a.ndim == 2:
        return a @ b
    (ar, ai), (br, bi) = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    return np.stack((ar @ br - ai @ bi, ar @ bi + ai @ br), axis=-1)


def _scalar(v, den: int) -> Scalar:
    """The Scalar v / den of an integer or an (re, im) pair."""
    return scalar_of(np.reshape(v, -1).tolist(), den)


def _quad_form(x: np.ndarray, den: int) -> QuadForm:
    """q_of from the cleared coefficients of a trivector in seven variables:
    with C the contraction matrix (column a is e_a -| w) and M the (2, 2)
    complement matrix, the Gram matrix is C^T M C / den^3."""
    c, m = (_matrix(x, 7, 3, name) for name in ("contraction", (2, 2)))
    return QuadForm(7, _mul(_mul(c.swapaxes(0, 1), m), c), den ** 3)


def q_of(w: KForm) -> QuadForm:
    """The quadratic form v -> (v -| w)^2 ^ w in seven variables, under the
    volume identification e^{1..7} -> 1.  The Gram entry (a, b) is the top
    coefficient of (e_a -| w) ^ (e_b -| w) ^ w, the polarization
    (q(u+v) - q(u) - q(v)) / 2."""
    if w.k != 3 or w.n != 7:
        raise ValueError("q_of expects a trivector in seven variables")
    return _quad_form(*_cleared_form(w))


def _psi(x: np.ndarray) -> np.ndarray:
    """den^2 psi from the cleared coefficients of a trivector in six
    variables: u_i is the top coefficient of e^i ^ (v -| w) ^ w, so psi is
    H C, with H the (1, 2) complement matrix and C the contraction matrix
    (column a is e_a -| w)."""
    return _mul(_matrix(x, 6, 3, (1, 2)), _matrix(x, 6, 3, "contraction"))


def _quartic(x: np.ndarray) -> np.ndarray:
    """6 den^4 lambda_quartic: tr((H C)^2), an integer or an (re, im) pair."""
    m = _psi(x)
    return _mul(m, m).diagonal(axis1=0, axis2=1).sum(axis=-1)


def _cleared_six(w: KForm) -> Tuple[np.ndarray, int]:
    if w.k != 3 or w.n != 6:
        raise ValueError("psi expects a trivector in six variables")
    return _cleared_form(w)


def psi(w: KForm) -> Matrix:
    """The 6x6 matrix of v -> u where (v -| w) ^ w = u -| e^{123456}."""
    x, den = _cleared_six(w)
    return Matrix(scalar_rows(_psi(x), den ** 2))


def lambda_quartic(w: KForm) -> Scalar:
    """The degree-four invariant tr(Psi o Psi) / 6 in six variables; it
    vanishes exactly off the open orbit."""
    x, den = _cleared_six(w)
    return _scalar(_quartic(x), 6 * den ** 4)


def action_matrix(n: int, w: KForm) -> Matrix:
    """Matrix of gl_n acting infinitesimally on w: rows are indexed by
    k-tuples, columns by the n^2 elementary matrices E_ab."""
    x, den = _cleared_form(w, n)
    return Matrix(scalar_rows(_matrix(x, n, w.k, "action"), den))


def stabilizer_dim(w: KForm) -> int:
    """dim { X in gl_n : X . w = 0 } for the linearized pullback action."""
    return len(_kernel(_cleared_form(w)[0], w.n, w.k, "action"))


def linear_divisor_dim(w: KForm) -> int:
    """Dimension of { alpha in V* : alpha ^ w = 0 }."""
    return len(_kernel(_cleared_form(w)[0], w.n, w.k, "divisor"))


@dataclass
class OrbitRecord:
    support_rank: int
    q_rank: Optional[int] = None
    stab_dim: Optional[int] = None
    lambda_is_zero: Optional[bool] = None
    i7_is_zero: Optional[bool] = None


@dataclass
class OrbitLabel:
    n: int
    label: str
    record: OrbitRecord

    def to_json(self) -> dict:
        rec = self.record
        return {
            "n": self.n,
            "label": self.label,
            "support_rank": rec.support_rank,
            "q_rank": rec.q_rank,
            "stab_dim": rec.stab_dim,
            "lambda_is_zero": rec.lambda_is_zero,
            "i7_is_zero": rec.i7_is_zero,
        }


def classify(w: KForm, with_stabilizer: bool = False) -> OrbitLabel:
    """Complete GL-orbit classification of trivectors for n <= 7.

    Support rank r separates the degenerate strata; r = 6 splits by the
    quartic, and r = 7 by the rank of the associated quadratic form, with
    the two rank-one cases separated by the existence of a linear divisor.
    The label is constant on GL-orbits.
    """
    if w.k != 3:
        raise ValueError("classify expects trivectors")
    if w.n > 7:
        raise ValueError("classification implemented for n <= 7 only")
    x, den = _cleared_form(w)
    kern = _kernel(x, w.n, 3, "contraction")
    r = w.n - len(kern)
    rec = OrbitRecord(r)
    if with_stabilizer:
        rec.stab_dim = len(_kernel(x, w.n, 3, "action"))
    if r in (0, 3, 5):
        return OrbitLabel(w.n, {0: ZERO_LABEL, 3: RANK3_DECOMPOSABLE, 5: RANK5}[r], rec)
    if r == 6:
        if w.n == 7:
            # v0 spans {v : v -| w = 0}; for the first i with v0_i != 0, w is
            # pulled back from its restriction to span{e_j : j != i} along
            # v0, so the six-variable form left by dropping e_i has w's type
            i = 1 + int(np.flatnonzero((kern[0] != 0).reshape(7, -1).any(axis=1))[0])
            x = x[[i not in t for t in itertools.combinations(range(1, 8), 3)]]
        rec.lambda_is_zero = not np.any(_quartic(x))
        return OrbitLabel(w.n, RANK6_TANGENT if rec.lambda_is_zero else RANK6_GENERIC, rec)
    if r == 7:
        qr = _quad_form(x, den).rank
        rec.q_rank = qr
        if qr == 7:
            rec.i7_is_zero = False
            return OrbitLabel(w.n, W5, rec)
        rec.i7_is_zero = True
        if qr == 4:
            return OrbitLabel(w.n, W4, rec)
        if qr == 2:
            return OrbitLabel(w.n, W3, rec)
        if qr == 1:
            # the closed rank-one orbit consists of forms with a linear
            # divisor; the stabilizer dimensions 28 vs 21 confirm the split
            has_divisor = len(_kernel(x, 7, 3, "divisor")) > 0
            return OrbitLabel(w.n, W1 if has_divisor else W2, rec)
        raise AssertionError(f"unexpected q-rank {qr} at support rank 7")
    raise AssertionError(f"impossible support rank {r} for a trivector")


# -- degree seven semi-invariant ------------------------------------------------


def degree7_invariant(w: KForm) -> Scalar:
    """The degree-seven semi-invariant of a trivector in seven variables,
    I7 = sum_cd q_cd tr(W_c W_d), with q the Gram matrix of q_of and W_c the
    endomorphism whose entry (a, b) is the top coefficient of e^c ^ (E_ab .
    w) ^ w: row c of N A, with N the (1, 3) complement matrix and A the
    action matrix, read as a 7 x 7 matrix.  On cleared coefficients this is
    one integer sum over den^7.

    Its vanishing locus is the closure of the orbit below the open one;
    the overall normalization is a fixed convention of this package.
    """
    if w.k != 3 or w.n != 7:
        raise ValueError("degree7_invariant expects a trivector in 7 variables")
    x, den = _cleared_form(w)
    na = _mul(_matrix(x, 7, 3, (1, 3)), _matrix(x, 7, 3, "action"))
    tail = na.shape[2:]
    # column (a, b) of the right factor holds W_d[b, a], so entry (c, d) of
    # the product is tr(W_c W_d)
    swapped = na.reshape((7, 7, 7) + tail).swapaxes(1, 2).reshape(na.shape)
    traces = _mul(na, swapped.swapaxes(0, 1))
    gram = _quad_form(x, den).ints
    return _scalar(_mul(gram.reshape((1, 49) + tail), traces.reshape((49, 1) + tail)), den ** 7)


# -- six-variable decomposition oracle ---------------------------------------------


def split_search_six(w: KForm) -> List[Tuple[frozenset, frozenset]]:
    """Brute search: splittings {1..6} = S + S^c with w a sum of two
    decomposable pieces supported on S and S^c."""
    if w.n != 6 or w.k != 3:
        raise ValueError("expects a trivector in six variables")
    hits = []
    seen = set()
    for s in itertools.combinations(range(1, 7), 3):
        sset = frozenset(s)
        cset = frozenset(range(1, 7)) - sset
        key = frozenset((sset, cset))
        if key in seen:
            continue
        seen.add(key)
        part1 = {idx: c for idx, c in w.terms.items() if set(idx) <= sset}
        part2 = {idx: c for idx, c in w.terms.items() if set(idx) <= cset}
        if len(part1) + len(part2) != len(w.terms):
            continue
        f1 = KForm(3, 6, part1)
        f2 = KForm(3, 6, part2)
        if f1.is_zero() or f2.is_zero():
            continue
        if fm.form_rank(f1) == 3 and fm.form_rank(f2) == 3:
            hits.append((sset, cset))
    return hits


def _scalar_sqrt(z: Scalar) -> Optional[Scalar]:
    """Exact square root in Q(i) when it exists (rational case plus the
    purely imaginary construction)."""
    import math

    if z.is_zero():
        return ZERO

    def qsqrt(num, den):
        """sqrt(num / den) for den > 0 when it is rational: num den is then
        a square."""
        if num < 0:
            return None
        r = math.isqrt(num * den)
        return Scalar.rational(r, den) if r * r == num * den else None

    x, y, d = z.x, z.y, z.d
    if z.is_rational():
        r = qsqrt(x, d)
        if r is not None:
            return r
        r = qsqrt(-x, d)
        if r is not None:
            # sqrt(-c) = i sqrt(c)
            from .scalar import I as _I

            return _I * r
        return None
    # (a+bi)^2 = z: solve a^2 = (|z| + re)/2 with |z| rational
    m = qsqrt(x * x + y * y, d * d)
    if m is None:
        return None
    a2 = (m + Scalar.rational(x, d)) / sc(2)
    a = qsqrt(a2.x, a2.d)
    if a is None or a.is_zero():
        return None
    b = Scalar.rational(y, d) / (sc(2) * a)
    cand = Scalar.gaussian(a, b)
    return cand if cand * cand == z else None


def decompose_generic_six(w: KForm) -> Tuple[Subspace, Subspace]:
    """The unique unordered pair of 3-dimensional dual subspaces carrying
    the two decomposable summands of an open-orbit trivector in six
    variables.  Requires the quartic to be a perfect square in the field,
    which holds for pullbacks of a split representative."""
    lam = lambda_quartic(w)
    if lam.is_zero():
        raise ValueError("form is not in the open orbit")
    s = _scalar_sqrt(lam)
    if s is None:
        raise ValueError("quartic is not a square over Q(i)")
    m = psi(w)
    eig_plus = kernel(m - Matrix.identity(6).scale(s))
    eig_minus = kernel(m + Matrix.identity(6).scale(s))
    if eig_plus.dim != 3 or eig_minus.dim != 3:
        raise AssertionError("eigenspace split failed")
    # dual supports: annihilators of the eigenspaces
    def annihilator(space: Subspace) -> Subspace:
        return kernel(Matrix([list(v) for v in space.basis]))

    return annihilator(eig_minus), annihilator(eig_plus)


# -- the orbit poset ------------------------------------------------------------


@dataclass(frozen=True)
class HasseEntry:
    label: str
    dim: int
    covers: tuple  # labels of orbits immediately below


def hasse_data() -> List[HasseEntry]:
    """The closure order of the trivector orbits in seven variables, with
    orbit dimensions; arrows point from an orbit to the next smaller ones
    in its closure."""
    return [
        HasseEntry(W5, 35, (W4,)),
        HasseEntry(W4, 34, (W3,)),
        HasseEntry(W3, 31, (W2, RANK6_GENERIC)),
        HasseEntry(W2, 28, (W1,)),
        HasseEntry(RANK6_GENERIC, 26, (RANK6_TANGENT,)),
        HasseEntry(W1, 21, (RANK5,)),
        HasseEntry(RANK6_TANGENT, 25, (RANK5,)),
        HasseEntry(RANK5, 20, (RANK3_DECOMPOSABLE,)),
        HasseEntry(RANK3_DECOMPOSABLE, 13, (ZERO_LABEL,)),
        HasseEntry(ZERO_LABEL, 0, ()),
    ]
