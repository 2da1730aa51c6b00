"""Invariants and orbit classification of trivectors in up to seven
variables.

The classifier works with invariants only (support rank, the rank of the
associated quadratic form, the six-variable quartic, a degree-seven
semi-invariant, and a linear-divisor test); it never builds a normalizing
change of basis, which may require field extensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import forms as fm
from . import intlin
from .forms import KForm
from .linalg import Matrix, Subspace, kernel, unit_vec, zero_vec
from .scalar import ZERO, Scalar, sc
from .tensor import biggest, cleared_ints, scalar_rows

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
def _tables(n: int, k: int) -> Dict[str, tuple]:
    """Index and sign tables that read matrices off the coefficient vector
    x of a k-form w in n variables (x[r] at the r-th sorted k-tuple), each
    (shape, pos, src, sign): entry pos of the flattened matrix is sign *
    x[src], and every other entry is zero.

    - contraction [S, j]: coefficient j of e_S -| w over the sorted
      (k-1)-tuples S, the rows that forms.support spans;
    - divisor [J, j]: coefficient J of e^j ^ w over the sorted (k+1)-tuples;
    - action [t, a n + b]: coefficient t of E_ab . w, in which each index a
      of a term is replaced by b;
    - wedge [jk, lm], for trivectors in seven variables: the top coefficient
      of e^jk ^ e^lm ^ w, +-w[{1..7} - jk - lm]."""
    lower, middle, upper = (list(itertools.combinations(range(1, n + 1), d)) for d in (k - 1, k, k + 1))
    src = {t: r for r, t in enumerate(middle)}

    def packed(rows: list, cols: int, cells) -> tuple:
        """cells: (row tuple, column, source k-tuple, sign); zero signs dropped."""
        at = {t: r for r, t in enumerate(rows)}
        a = np.array([(at[r] * cols + c, src[t], s) for r, c, t, s in cells if s], dtype=np.int64)
        return ((len(rows), cols),) + tuple(a.reshape(-1, 3).T)

    sort = fm._sort_with_sign
    tables = {
        "contraction": packed(lower, n, (
            (t[:p] + t[p + 1:], j - 1, t, (-1) ** p) for t in middle for p, j in enumerate(t))),
        "divisor": packed(upper, n, (
            (J, j - 1, J[:p] + J[p + 1:], (-1) ** p) for J in upper for p, j in enumerate(J))),
        "action": packed(middle, n * n, (
            (u, (a - 1) * n + b - 1, t, s) for t in middle for p, a in enumerate(t)
            for b in range(1, n + 1) for u, s in [sort(t[:p] + (b,) + t[p + 1:])])),
    }
    if (n, k) == (7, 3):
        tables["wedge"] = packed(lower, 21, (
            (S, c, u, sort(S + T + u)[1]) for S in lower for c, T in enumerate(lower)
            for u in [tuple(sorted(set(range(1, 8)) - set(S + T)))] if len(u) == 3))
    return tables


def _cleared_form(w: KForm, n: Optional[int] = None) -> Tuple[np.ndarray, int]:
    """(x, den): the coefficients of w over the sorted k-tuples in n
    variables (w.n by default), cleared by tensor.cleared_ints."""
    tuples = list(itertools.combinations(range(1, (n or w.n) + 1), w.k))
    return cleared_ints([w.terms.get(t, ZERO) for t in tuples], (len(tuples),))


def _matrix(x: np.ndarray, n: int, k: int, name: str) -> np.ndarray:
    """The integer matrix that table `name` of _tables(n, k) reads off x,
    with x's dtype and trailing (re, im) axis."""
    shape, pos, src, sign = _tables(n, k)[name]
    out = np.zeros((shape[0] * shape[1],) + x.shape[1:], dtype=x.dtype)
    out[pos] = x[src] * sign.reshape(sign.shape + (1,) * (x.ndim - 1))
    return out.reshape(shape + x.shape[1:])


def _nullity(x: np.ndarray, n: int, k: int, name: str) -> int:
    """The kernel dimension of the matrix that table `name` of _tables(n,
    k) reads off x, by the certified kernel."""
    m = _matrix(x, n, k, name)
    return len(intlin.kernel_array(m, m.shape[1])[0])


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for integer matrices, or Gaussian ones [.., .., 2]."""
    if a.ndim == 2:
        return a @ b
    (ar, ai), (br, bi) = np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)
    return np.stack((ar @ br - ai @ bi, ar @ bi + ai @ br), axis=-1)


def _quad_form(x: np.ndarray, den: int) -> QuadForm:
    """q_of from the cleared coefficients of a trivector in seven variables:
    with C the contraction matrix (column a is e_a -| w) and M the wedge
    matrix, the Gram matrix is C^T M C / den^3, int64 while the bound of
    its 21 * 21 products of three Gaussian entries fits."""
    dtype = intlin.int_dtype(4 * 21 * 21 * biggest(x) ** 3)
    c, m = (_matrix(x, 7, 3, name).astype(dtype) for name in ("contraction", "wedge"))
    return QuadForm(7, _mul(_mul(c.swapaxes(0, 1), m), c), den ** 3)


def q_of(w: KForm) -> QuadForm:
    """The quadratic form v -> (v -| w)^2 ^ w in seven variables, under the
    volume identification e^{1..7} -> 1.  The Gram entry (a, b) is the top
    coefficient of (e_a -| w) ^ (e_b -| w) ^ w, the polarization
    (q(u+v) - q(u) - q(v)) / 2."""
    if w.k != 3 or w.n != 7:
        raise ValueError("q_of expects a trivector in seven variables")
    return _quad_form(*_cleared_form(w))


def psi(w: KForm) -> Matrix:
    """The 6x6 matrix of v -> u where (v -| w) ^ w = u -| e^{123456}."""
    if w.k != 3 or w.n != 6:
        raise ValueError("psi expects a trivector in six variables")
    top = KForm.basis(range(1, 7), 6)
    # u -| e^{1..6}: basis vector e_j contracts to a signed basis 5-form
    cols = []
    for j in range(6):
        five = fm.wedge(fm.contract(unit_vec(6, j), w), w)
        u = zero_vec(6)
        for idx, c in five.terms.items():
            (miss,) = tuple(i for i in range(1, 7) if i not in idx)
            sign = fm.contract_basis(miss, top).coefficient(idx)
            u[miss - 1] = c / sign
        cols.append(u)
    return Matrix.from_cols(cols)


def lambda_quartic(w: KForm) -> Scalar:
    """The degree-four invariant tr(Psi o Psi) / 6 in six variables; it
    vanishes exactly off the open orbit."""
    m = psi(w)
    m2 = m @ m
    tr = ZERO
    for i in range(6):
        tr = tr + m2[i, i]
    return tr / sc(6)


def action_matrix(n: int, w: KForm) -> Matrix:
    """Matrix of gl_n acting infinitesimally on w: rows are indexed by
    k-tuples, columns by the n^2 elementary matrices E_ab."""
    x, den = _cleared_form(w, n)
    return Matrix(scalar_rows(_matrix(x, n, w.k, "action"), den))


def stabilizer_dim(w: KForm) -> int:
    """dim { X in gl_n : X . w = 0 } for the linearized pullback action."""
    return _nullity(_cleared_form(w)[0], w.n, w.k, "action")


def linear_divisor_dim(w: KForm) -> int:
    """Dimension of { alpha in V* : alpha ^ w = 0 }."""
    return _nullity(_cleared_form(w)[0], w.n, w.k, "divisor")


def restrict_to_support(w: KForm) -> KForm:
    """Express the form inside its support, as a trivector in r = rank(w)
    variables."""
    sup = fm.support(w)
    r, n = sup.dim, w.n
    # the echelon basis and the unit vectors off its pivots span the dual
    # space; rows: the new dual basis in old coordinates
    pivots = {next(j for j, c in enumerate(v) if c) for v in sup.basis}
    b = Matrix(sup.basis + [unit_vec(n, j) for j in range(n) if j not in pivots])
    moved = fm.pullback(b.inverse(), w)
    # after the change of coordinates all indices lie in 1..r
    for idx in moved.terms:
        if any(i > r for i in idx):
            raise AssertionError("support restriction failed")
    return KForm(3, r, {idx: c for idx, c in moved.terms.items()})


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
    r = w.n - _nullity(x, w.n, 3, "contraction")
    rec = OrbitRecord(r)
    if with_stabilizer:
        rec.stab_dim = _nullity(x, w.n, 3, "action")
    if r in (0, 3, 5):
        return OrbitLabel(w.n, {0: ZERO_LABEL, 3: RANK3_DECOMPOSABLE, 5: RANK5}[r], rec)
    if r == 6:
        inner = restrict_to_support(w) if w.n != 6 else w
        lam = lambda_quartic(inner)
        rec.lambda_is_zero = lam.is_zero()
        return OrbitLabel(w.n, RANK6_TANGENT if lam.is_zero() else RANK6_GENERIC, rec)
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
            has_divisor = _nullity(x, 7, 3, "divisor") > 0
            return OrbitLabel(w.n, W1 if has_divisor else W2, rec)
        raise AssertionError(f"unexpected q-rank {qr} at support rank 7")
    raise AssertionError(f"impossible support rank {r} for a trivector")


# -- degree seven semi-invariant ------------------------------------------------


def _nu_from_four_form(four: KForm) -> Dict[tuple, Scalar]:
    """Solve (nu -| e^{1..7}) = four for a trivector nu, coefficientwise."""
    top = KForm.basis(range(1, 8), 7)
    out: Dict[tuple, Scalar] = {}
    for idx4, c in four.terms.items():
        tri = tuple(i for i in range(1, 8) if i not in idx4)
        contracted = top
        for i in tri:
            contracted = fm.contract_basis(i, contracted)
        sign = contracted.coefficient(idx4)
        out[tri] = c / sign
    return out


def degree7_invariant(w: KForm) -> Scalar:
    """The degree-seven semi-invariant of a trivector in seven variables,
    via the chain: quadratic endomorphism-valued map, transpose through
    End of the trivector space, trace contraction, and pairing with the
    polarized quadratic form.

    Its vanishing locus is the closure of the orbit below the open one;
    the overall normalization is a fixed convention of this package.
    """
    if w.k != 3 or w.n != 7:
        raise ValueError("degree7_invariant expects a trivector in 7 variables")
    tuples = list(itertools.combinations(range(1, 8), 3))
    # derivation action of E_ba on basis trivectors, tabulated once
    w_of = {t: w.terms.get(t, ZERO) for t in tuples}

    def omega_on_acted(a: int, b: int, t: tuple) -> Scalar:
        # omega evaluated on E_ab . e_t (vector action replaces b by a)
        total = ZERO
        for pos, i in enumerate(t):
            if i == b:
                new = t[:pos] + (a,) + t[pos + 1 :]
                srt, sign = fm._sort_with_sign(new)
                if sign == 0:
                    continue
                c = w_of.get(srt, ZERO)
                if not c.is_zero():
                    total = total + sc(sign) * c
        return total

    wtensor: List[Matrix] = []
    for cidx in range(1, 8):
        four = fm.wedge(w, KForm.basis([cidx], 7))
        nu = _nu_from_four_form(four)
        ent = [[ZERO] * 7 for _ in range(7)]
        for a in range(7):
            for b in range(7):
                total = ZERO
                for t, coef in nu.items():
                    if coef.is_zero():
                        continue
                    val = omega_on_acted(b + 1, a + 1, t)
                    if not val.is_zero():
                        total = total + coef * val
                ent[a][b] = total
        wtensor.append(Matrix(ent))
    qgram = q_of(w).gram
    total = ZERO
    for c in range(7):
        for d in range(7):
            qcd = qgram[c, d]
            if qcd.is_zero():
                continue
            m1, m2 = wtensor[c], wtensor[d]
            tr = ZERO
            for a in range(7):
                for b in range(7):
                    tr = tr + m1[a, b] * m2[b, a]
            total = total + qcd * tr
    return total


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


def _scalar_sqrt(x: Scalar) -> Optional[Scalar]:
    """Exact square root in Q(i) when it exists (rational case plus the
    purely imaginary construction)."""
    import math

    if x.is_zero():
        return ZERO

    def qsqrt(q):
        num, den = int(q.numerator), int(q.denominator)
        if num < 0:
            return None
        a, b = math.isqrt(num), math.isqrt(den)
        if a * a == num and b * b == den:
            return Scalar.rational(a, b)
        return None

    if x.is_rational():
        r = qsqrt(x.re)
        if r is not None:
            return r
        r = qsqrt(-x.re)
        if r is not None:
            # sqrt(-c) = i sqrt(c)
            from .scalar import I as _I

            return _I * r
        return None
    # (a+bi)^2 = x: solve a^2 = (|x| + re)/2 with |x| rational
    mod2 = x.re * x.re + x.im * x.im
    m = qsqrt(mod2.re)
    if m is None:
        return None
    a2 = (m + x.re) / sc(2)
    a = qsqrt(a2.re) if a2.is_rational() else None
    if a is None or a.is_zero():
        return None
    b = x.im / (sc(2) * a)
    cand = Scalar(a.re, b.re)
    return cand if cand * cand == x else None


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
