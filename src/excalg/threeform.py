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
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from . import forms as fm
from .forms import KForm
from .linalg import Matrix, Subspace, kernel, rank as mat_rank, unit_vec, zero_vec
from .scalar import _Q, ZERO, Scalar, _make, sc
from .tensor import _cleared

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


@dataclass
class QuadForm:
    """A symmetric bilinear form by its Gram matrix."""

    n: int
    gram: Matrix

    @property
    def rank(self) -> int:
        return mat_rank(self.gram)


@lru_cache(maxsize=None)
def _q_table() -> List[List[Tuple[int, int, int, int]]]:
    """For each entry (a, b), a <= b, of q_of's Gram matrix in row order, the
    monomials (sign, t1, t2, t3) over the indices of the 35 sorted triples:
    B(a, b) = sum sign * w[{a} u jk] * w[{b} u lm] * w[npq] over the splits
    {j,k}, {l,m}, {n,p,q} of {1..7}, the sign that of e_a -| e^{a jk},
    e_b -| e^{b lm} and e^{jk} ^ e^{lm} ^ e^{npq} = sign * e^{1..7}."""
    triples = list(itertools.combinations(range(1, 8), 3))
    index = {t: r for r, t in enumerate(triples)}
    full = frozenset(range(1, 8))
    table = []
    for a in range(1, 8):
        for b in range(a, 8):
            rows = []
            for jk in itertools.combinations(sorted(full - {a}), 2):
                for lm in itertools.combinations(sorted(full - {b} - set(jk)), 2):
                    npq = tuple(sorted(full - set(jk) - set(lm)))
                    t1, s1 = fm._sort_with_sign((a,) + jk)
                    t2, s2 = fm._sort_with_sign((b,) + lm)
                    _, s3 = fm._sort_with_sign(jk + lm + npq)
                    rows.append((s1 * s2 * s3, index[t1], index[t2], index[npq]))
            table.append(rows)
    return table


def q_of(w: KForm) -> QuadForm:
    """The quadratic form v -> (v -| w)^2 ^ w in seven variables, under the
    volume identification e^{1..7} -> 1.  The Gram entry (a, b) is the top
    coefficient of (e_a -| w) ^ (e_b -| w) ^ w, the polarization
    (q(u+v) - q(u) - q(v)) / 2: one fixed cubic contraction of the
    coefficients cleared to Gaussian integers, summed in Python integers and
    divided once by den^3."""
    if w.k != 3 or w.n != 7:
        raise ValueError("q_of expects a trivector in seven variables")
    coeffs, den, _ = _cleared(
        [w.terms.get(t, ZERO) for t in itertools.combinations(range(1, 8), 3)]
    )
    re, im = [0] * 35, [0] * 35
    for t, x, y in coeffs:
        re[t], im[t] = x, y
    den3 = den ** 3
    gram = [[ZERO] * 7 for _ in range(7)]
    cells = iter(_q_table())
    for i in range(7):
        for j in range(i, 7):
            total_re = total_im = 0
            for sign, t1, t2, t3 in next(cells):
                # (x1 + y1 i)(x2 + y2 i)(x3 + y3 i) in Gaussian integers
                x1, y1, x2, y2 = re[t1], im[t1], re[t2], im[t2]
                u, v = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2
                x3, y3 = re[t3], im[t3]
                total_re += sign * (u * x3 - v * y3)
                total_im += sign * (u * y3 + v * x3)
            gram[i][j] = gram[j][i] = _make(_Q(total_re, den3), _Q(total_im, den3))
    return QuadForm(7, Matrix(gram))


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


def elementary_action(a: int, b: int, w: KForm) -> KForm:
    """Derivative of the pullback action along the elementary matrix E_ab
    (1-based): each occurrence of index a is replaced by b."""
    items = []
    for idx, c in w.terms.items():
        for pos, i in enumerate(idx):
            if i == a:
                new = idx[:pos] + (b,) + idx[pos + 1 :]
                items.append((new, c))
    return KForm.from_terms(w.k, w.n, items)


def action_matrix(n: int, w: KForm) -> Matrix:
    """Matrix of gl_n acting infinitesimally on w: rows are indexed by
    k-tuples, columns by the n^2 elementary matrices E_ab."""
    tuples = list(itertools.combinations(range(1, n + 1), w.k))
    tindex = {t: r for r, t in enumerate(tuples)}
    cols = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            col = [ZERO] * len(tuples)
            acted = elementary_action(a, b, w)
            for idx, c in acted.terms.items():
                col[tindex[idx]] = c
            cols.append(col)
    return Matrix.from_cols(cols)


def stabilizer_dim(w: KForm) -> int:
    """dim { X in gl_n : X . w = 0 } for the linearized pullback action."""
    return kernel(action_matrix(w.n, w)).dim


def linear_divisor_dim(w: KForm) -> int:
    """Dimension of { alpha in V* : alpha ^ w = 0 }."""
    n = w.n
    cols = []
    tuples = list(itertools.combinations(range(1, n + 1), w.k + 1))
    tindex = {t: r for r, t in enumerate(tuples)}
    for j in range(1, n + 1):
        # e^j ^ e^idx = sign * e^sorted, zero when j is in idx
        col = [ZERO] * len(tuples)
        for idx, c in w.terms.items():
            t, sign = fm._sort_with_sign((j,) + idx)
            if sign:
                col[tindex[t]] = c if sign > 0 else -c
        cols.append(col)
    return n - mat_rank(Matrix.from_cols(cols))


def restrict_to_support(w: KForm) -> KForm:
    """Express the form inside its support, as a trivector in r = rank(w)
    variables."""
    sup = fm.support(w)
    r = sup.dim
    n = w.n
    basis = [list(v) for v in sup.basis]
    # complete the support basis to a basis of the dual space
    rows = list(basis)
    for j in range(n):
        cand = rows + [unit_vec(n, j)]
        if Subspace(n, cand).dim == len(rows) + 1:
            rows.append(unit_vec(n, j))
        if len(rows) == n:
            break
    b = Matrix(rows)  # rows: new dual basis in old coordinates
    g = b.inverse().transpose()
    moved = fm.pullback(g.transpose(), w)
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
    if w.is_zero():
        rec = OrbitRecord(0)
        if with_stabilizer:
            rec.stab_dim = w.n * w.n
        return OrbitLabel(w.n, ZERO_LABEL, rec)
    r = fm.form_rank(w)
    rec = OrbitRecord(r)
    if with_stabilizer:
        rec.stab_dim = stabilizer_dim(w)
    if r == 3:
        return OrbitLabel(w.n, RANK3_DECOMPOSABLE, rec)
    if r == 5:
        return OrbitLabel(w.n, RANK5, rec)
    if r == 6:
        inner = restrict_to_support(w) if w.n != 6 else w
        lam = lambda_quartic(inner)
        rec.lambda_is_zero = lam.is_zero()
        return OrbitLabel(w.n, RANK6_TANGENT if lam.is_zero() else RANK6_GENERIC, rec)
    if r == 7:
        q = q_of(w)
        qr = q.rank
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
            has_divisor = linear_divisor_dim(w) > 0
            return OrbitLabel(w.n, W1 if has_divisor else W2, rec)
        raise AssertionError(f"unexpected q-rank {qr} at support rank 7")
    raise AssertionError(f"impossible support rank {r} for a nonzero trivector")


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
