"""Alternating k-forms in n variables, stored sparsely.

A KForm maps strictly increasing 1-based index tuples to nonzero Scalars.
All signs come from explicit permutation parity; the identification of the
top exterior power with the scalars is fixed once and for all by
e^{1...n} -> 1, and every determinant-twisted quantity in the package is
reported through that identification.

Text syntax (used by the CLI): a signed sum of terms ``c*e[i,j,k]`` with
Scalar literal coefficients, e.g. ``e[1,2,5]+e[1,3,6]-2*e[1,4,7]``.
"""

from __future__ import annotations

import itertools
import re as _re
from typing import Dict, Iterable, Sequence, Tuple

from .linalg import Matrix, Subspace, rank as mat_rank
from .scalar import ONE, ZERO, Scalar, _make, sc
from .tensor import _cleared

IndexTuple = Tuple[int, ...]


def _sort_with_sign(indices: Sequence[int]) -> tuple[IndexTuple, int]:
    """Sort indices, tracking permutation parity; sign 0 on repeats."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


class KForm:
    """An alternating k-form on an n-dimensional space."""

    __slots__ = ("k", "n", "terms")

    def __init__(self, k: int, n: int, terms: Dict[IndexTuple, Scalar] | None = None):
        if not (0 <= k <= n):
            raise ValueError(f"degree {k} out of range for n={n}")
        clean: Dict[IndexTuple, Scalar] = {}
        for idx, c in (terms or {}).items():
            c = sc(c)
            if c.is_zero():
                continue
            if len(idx) != k:
                raise ValueError(f"tuple {idx} has wrong length for degree {k}")
            if any(not (1 <= i <= n) for i in idx) or any(
                idx[i] >= idx[i + 1] for i in range(len(idx) - 1)
            ):
                raise ValueError(f"tuple {idx} is not strictly increasing in 1..{n}")
            clean[idx] = c
        self.k = k
        self.n = n
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(k: int, n: int) -> "KForm":
        return KForm(k, n, {})

    @staticmethod
    def basis(indices: Sequence[int], n: int) -> "KForm":
        """The coordinate form e^{i1...ik} (indices need not be sorted)."""
        idx, sign = _sort_with_sign(indices)
        if sign == 0:
            return KForm(len(indices), n, {})
        return KForm(len(indices), n, {idx: sc(sign)})

    @staticmethod
    def from_terms(k: int, n: int, items: Iterable[tuple[Sequence[int], Scalar]]):
        out: Dict[IndexTuple, Scalar] = {}
        for indices, c in items:
            idx, sign = _sort_with_sign(indices)
            if sign == 0:
                continue
            c = sc(sign) * sc(c)
            prev = out.get(idx)
            c = c + prev if prev is not None else c
            if c.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = c
        return KForm(k, n, out)

    # -- basic algebra -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, KForm)
            and (self.k, self.n) == (other.k, other.n)
            and self.terms == other.terms
        )

    def __add__(self, other: "KForm") -> "KForm":
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("degree/dimension mismatch")
        out = dict(self.terms)
        for idx, c in other.terms.items():
            s = out.get(idx)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = s
        return KForm(self.k, self.n, out)

    def __neg__(self) -> "KForm":
        return KForm(self.k, self.n, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other: "KForm") -> "KForm":
        return self + (-other)

    def scale(self, c) -> "KForm":
        c = sc(c)
        if c.is_zero():
            return KForm.zero(self.k, self.n)
        return KForm(self.k, self.n, {i: c * x for i, x in self.terms.items()})

    def coefficient(self, indices: Sequence[int]) -> Scalar:
        idx, sign = _sort_with_sign(indices)
        if sign == 0:
            return ZERO
        c = self.terms.get(idx)
        return ZERO if c is None else sc(sign) * c

    def __repr__(self):
        return f"KForm({self.to_text() or '0'})"

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        parts = []
        for idx in sorted(self.terms):
            c = self.terms[idx]
            body = "e[" + ",".join(str(i) for i in idx) + "]"
            if c == ONE:
                parts.append(f"+{body}")
            elif c == sc(-1):
                parts.append(f"-{body}")
            else:
                parts.append(f"+({c})*{body}")
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text

    def to_json(self) -> dict:
        return {
            "degree": self.k,
            "n": self.n,
            "terms": [
                {"indices": list(idx), "coeff": str(c)}
                for idx, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "KForm":
        terms = {
            tuple(t["indices"]): Scalar.parse(t["coeff"]) for t in data["terms"]
        }
        return KForm(data["degree"], data["n"], terms)


_TERM_RE = _re.compile(r"e\[([0-9,\s]+)\]")


def parse_form(text: str, n: int, degree: int | None = None) -> KForm:
    """Parse the text syntax ``c*e[i,j,k] + ...`` into a KForm."""
    s = text.replace(" ", "")
    if not s or s == "0":
        if degree is None:
            raise ValueError("cannot infer the degree of the zero form")
        return KForm.zero(degree, n)
    # split into signed terms at top level (no nested brackets except e[..] and (..))
    terms = []
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start:
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    items = []
    k = degree
    for term in terms:
        if not term or term in "+-":
            raise ValueError(f"empty term in {text!r}")
        m = _TERM_RE.search(term)
        if m is None:
            raise ValueError(f"term {term!r} has no e[...] factor")
        indices = tuple(int(t) for t in m.group(1).split(","))
        if k is None:
            k = len(indices)
        head, tail = term[: m.start()], term[m.end() :]
        sign = -ONE if head.startswith("-") else ONE
        if head.startswith(("+", "-")):
            head = head[1:]
        if head and tail:
            raise ValueError(f"term {term!r} has a coefficient on both sides")
        coeff = sign
        if head or tail:
            # the coefficient, joined to e[..] by at most one "*", is never empty
            coeff_text = head.removesuffix("*") or tail.removeprefix("*")
            if coeff_text.startswith("(") and coeff_text.endswith(")") and "i" not in coeff_text:
                # strip only a plain arithmetic group, not a scalar literal
                coeff_text = coeff_text[1:-1]
            coeff = sign * Scalar.parse(coeff_text)
        items.append((indices, coeff))
    return KForm.from_terms(k, n, items)


# -- the four core operations ------------------------------------------------


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product, with shuffle signs from explicit sorting."""
    if a.n != b.n:
        raise ValueError("ambient dimension mismatch")
    if a.k + b.k > a.n:
        raise ValueError("degree overflow: k1 + k2 > n")
    out: Dict[IndexTuple, Scalar] = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            idx, sign = _sort_with_sign(ia + ib)
            if sign == 0:
                continue
            c = sc(sign) * ca * cb
            prev = out.get(idx)
            c = c if prev is None else prev + c
            if c.is_zero():
                out.pop(idx, None)
            else:
                out[idx] = c
    return KForm(a.k + b.k, a.n, out)


def contract(v: Sequence[Scalar], a: KForm) -> KForm:
    """Interior product v -| a = a(v, ...)."""
    v = [sc(x) for x in v]
    if len(v) != a.n:
        raise ValueError("vector length does not match ambient dimension")
    if a.k == 0:
        return KForm.zero(0, a.n)
    out: Dict[IndexTuple, Scalar] = {}
    for idx, c in a.terms.items():
        for pos, i in enumerate(idx):
            vi = v[i - 1]
            if vi.is_zero():
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            coeff = vi * c if pos % 2 == 0 else -(vi * c)
            prev = out.get(rest)
            coeff = coeff if prev is None else prev + coeff
            if coeff.is_zero():
                out.pop(rest, None)
            else:
                out[rest] = coeff
    return KForm(a.k - 1, a.n, out)


def contract_basis(i: int, a: KForm) -> KForm:
    """Interior product with the i-th basis vector (1-based), cheaply."""
    out: Dict[IndexTuple, Scalar] = {}
    for idx, c in a.terms.items():
        if i not in idx:
            continue
        pos = idx.index(i)
        rest = idx[:pos] + idx[pos + 1 :]
        out[rest] = c if pos % 2 == 0 else -c
    return KForm(a.k - 1, a.n, out)


def pullback(g: Matrix, a: KForm) -> KForm:
    """The form x -> a(gx, ..., gx); pullbacks compose contravariantly.

    Each e^J pulls back to (row_j1 g) ^ ... ^ (row_jk g) = sum_I det(g[J, I])
    e^I.  The minors are expanded along their first row in the Gaussian
    integers of g cleared to one denominator den, with a cleared likewise,
    and each coefficient is divided once by den_a * den^k.  The minor of
    all rows, den^n det(g), proves g invertible."""
    n = a.n
    if g.rows != n or g.cols != n:
        raise ValueError("matrix shape does not match ambient dimension")
    cells, den, _ = _cleared([x for row in g.entries for x in row])
    entries = [[(0, 0)] * n for _ in range(n)]
    for t, x, y in cells:
        entries[t // n][t % n] = (x, y)
    minors = {(): {(): (1, 0)}}

    def minors_of(rows: tuple) -> Dict[tuple, Tuple[int, int]]:
        """det(g[rows, I]) for every I of size len(rows), times den^len(rows)."""
        if rows not in minors:
            head, sub = entries[rows[0]], minors_of(rows[1:])
            out = {}
            for I in itertools.combinations(range(n), len(rows)):
                re = im = 0
                for t, i in enumerate(I):
                    x, y = head[i]
                    if x or y:
                        u, v = sub[I[:t] + I[t + 1:]]
                        if t % 2:
                            x, y = -x, -y
                        re += x * u - y * v
                        im += x * v + y * u
                out[I] = (re, im)
            minors[rows] = out
        return minors[rows]

    if not any(minors_of(tuple(range(n)))[tuple(range(n))]):
        raise ValueError("pullback requires an invertible matrix")
    if a.k == 0:
        return a
    index_tuples = list(a.terms)
    coeffs, den_a, _ = _cleared(list(a.terms.values()))
    sums = {I: [0, 0] for I in itertools.combinations(range(n), a.k)}
    for t, x, y in coeffs:
        for I, (u, v) in minors_of(tuple(j - 1 for j in index_tuples[t])).items():
            if u or v:
                acc = sums[I]
                acc[0] += x * u - y * v
                acc[1] += x * v + y * u
    scale = den_a * den ** a.k
    return KForm(a.k, n, {
        tuple(i + 1 for i in I): _make(re, im, scale)
        for I, (re, im) in sums.items() if re or im
    })


def support(a: KForm) -> Subspace:
    """The smallest dual subspace W with a in Lambda^k W.

    Computed as the span of all contractions of a by (k-1)-tuples of basis
    vectors; its dimension is the rank of the form.  The contraction by the
    (k-1)-subset S is read straight off the terms: its coefficient at j is
    a[sorted(S + {j})], signed by the position of j in that index tuple.
    """
    if a.is_zero() or a.k == 0:
        return Subspace.zero(a.n)
    rows: Dict[IndexTuple, list] = {}
    for idx, c in a.terms.items():
        for pos, j in enumerate(idx):
            row = rows.setdefault(idx[:pos] + idx[pos + 1:], [ZERO] * a.n)
            row[j - 1] = -c if pos % 2 else c
    return Subspace(a.n, list(rows.values()))


def form_rank(a: KForm) -> int:
    """Rank of a k-form: the dimension of its support."""
    return support(a).dim


def two_form_rank(a: KForm) -> int:
    """Rank of the skew matrix of a two-form (always even)."""
    if a.k != 2:
        raise ValueError("two_form_rank needs a form of degree 2")
    m = two_form_matrix(a)
    return mat_rank(m)


def two_form_matrix(a: KForm) -> Matrix:
    if a.k != 2:
        raise ValueError("expected a two-form")
    n = a.n
    ent = [[ZERO] * n for _ in range(n)]
    for (i, j), c in a.terms.items():
        ent[i - 1][j - 1] = c
        ent[j - 1][i - 1] = -c
    return Matrix(ent)


def top_coefficient(a: KForm) -> Scalar:
    """The scalar value of an n-form under e^{1...n} -> 1."""
    if a.k != a.n:
        raise ValueError("top_coefficient needs an n-form")
    return a.coefficient(tuple(range(1, a.n + 1)))


def hodge_star(a: KForm) -> KForm:
    """Hodge dual for the standard orthonormal structure and orientation
    e^{1...n}: each e^I maps to sign(I, I^c) e^{I^c}."""
    n = a.n
    out: Dict[IndexTuple, Scalar] = {}
    for idx, c in a.terms.items():
        comp = tuple(i for i in range(1, n + 1) if i not in idx)
        _, sign = _sort_with_sign(idx + comp)
        out[comp] = sc(sign) * c
    return KForm(n - a.k, n, out)
