"""Cubic Jordan algebras of Hermitian 3x3 matrices over a composition
algebra, including the degenerate diagonal case a = 0.

Elements are stored as coordinate vectors over the basis (three diagonal
units, then the three off-diagonal slots tensored with the algebra basis);
the lower triangle is conjugate-determined and never stored.  Matrix powers
always use the symmetrized product.  The dual space is identified with the
algebra through the trace pairing, which makes the derivative of the cubic
determinant an element again; derivative extraction is exact interpolation
at t in {-1, 0, 1, 2}, never symbolic differentiation.  The trace pairing
is diagonal in the basis, so it is kept as one weight per coordinate and
every pairing is a weighted sum over the nonzero coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .composition import CompAlgebra, canonical_octonions, named_algebra
from .linalg import (
    Matrix,
    Subspace,
    is_zero_vec,
    rank as mat_rank,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from .scalar import _Q, ONE, ZERO, Scalar, _make, sc
from .tensor import StructureTensor, _cleared, cleared_ints

_OFF_SLOTS = ((0, 1), (0, 2), (1, 2))
_TWO = sc(2)
_HALF = Scalar.rational(1, 2)


class JordanAlgebra:
    """H3 over a composition algebra (or the diagonal algebra at a = 0)."""

    def __init__(self, base: Optional[CompAlgebra], name: str = ""):
        self.base = base
        self.a = base.dim if base is not None else 0
        self.dim = 3 + 3 * self.a
        self.name = name or f"H3(a={self.a})"
        self._table: Dict[Tuple[int, int], List[Scalar]] = {}
        self._build_table()
        self.tensor = StructureTensor(self.dim, (
            (i, j, k, c) for (i, j), cell in self._table.items()
            for k, c in enumerate(cell)
        ))
        self.trace_vec = [ONE, ONE, ONE] + [ZERO] * (3 * self.a)
        # the trace form tr(e_i o e_j) is diagonal in this basis: 1 on the
        # diagonal units, 2 n(e_t) on the off-diagonal slots
        if any(self._trace(self._table[(i, j)])
               for i in range(self.dim) for j in range(i + 1, self.dim)):
            raise AssertionError("trace form is not diagonal in the basis")
        self.trace_weights = tuple(
            self._trace(self._table[(i, i)]) for i in range(self.dim)
        )
        weights, self._weight_den = cleared_ints(self.trace_weights, (self.dim,))
        if weights.ndim > 1:
            raise ValueError("the trace weights must be rational")
        self._weight_ints = weights.tolist()
        self._basis_adjugates = None

    # -- basis bookkeeping ---------------------------------------------------

    def off_index(self, slot: int, t: int) -> int:
        return 3 + slot * self.a + t

    def _to_full(self, coords: Sequence[Scalar]):
        """3x3 matrix of algebra coordinate vectors (full Hermitian)."""
        a = self.a
        base = self.base
        unit = unit_vec(max(a, 1), 0)
        m = [[None] * 3 for _ in range(3)]
        for d in range(3):
            m[d][d] = vec_scale(coords[d], unit if a else [ONE])
        if a == 0:
            for (r, c) in _OFF_SLOTS:
                m[r][c] = [ZERO]
                m[c][r] = [ZERO]
            return m
        for s, (r, c) in enumerate(_OFF_SLOTS):
            v = [coords[self.off_index(s, t)] for t in range(a)]
            m[r][c] = v
            m[c][r] = base.conj_coords(v)
        return m

    def _mul_entry(self, x, y):
        if self.a == 0:
            return [x[0] * y[0]]
        return self.base.mul_coords(x, y)

    def _from_full(self, m) -> List[Scalar]:
        a = self.a
        coords = zero_vec(self.dim)
        for d in range(3):
            entry = m[d][d]
            coords[d] = entry[0]
            if any(not c.is_zero() for c in entry[1:]):
                raise AssertionError("diagonal entry is not scalar")
        for s, (r, c) in enumerate(_OFF_SLOTS):
            for t in range(a):
                coords[self.off_index(s, t)] = m[r][c][t]
        return coords

    def _build_table(self):
        dim = self.dim
        for i in range(dim):
            mi = self._to_full(unit_vec(dim, i))
            for j in range(i, dim):
                mj = self._to_full(unit_vec(dim, j))
                prod = self._symmetrized(mi, mj)
                coords = self._from_full(prod)
                self._table[(i, j)] = coords
                self._table[(j, i)] = coords

    def _symmetrized(self, x, y):
        """(xy + yx) / 2 for full 3x3 matrices; zero entries are skipped."""
        out = [[None] * 3 for _ in range(3)]
        for r in range(3):
            for c in range(3):
                acc = zero_vec(len(x[r][c]))
                for k in range(3):
                    for u, v in ((x[r][k], y[k][c]), (y[r][k], x[k][c])):
                        if not (is_zero_vec(u) or is_zero_vec(v)):
                            acc = vec_add(acc, self._mul_entry(u, v))
                out[r][c] = [v * _HALF if v else ZERO for v in acc]
        return out

    def _trace(self, coords: Sequence[Scalar]) -> Scalar:
        return coords[0] + coords[1] + coords[2]

    # -- public table access ---------------------------------------------------

    def basis_product(self, i: int, j: int) -> List[Scalar]:
        return list(self._table[(i, j)])

    def product_coords(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> List[Scalar]:
        return self.tensor.product(x, y)

    def element(self, coords: Sequence) -> "JordanElement":
        return JordanElement(self, [sc(c) for c in coords])

    def from_parts(self, diag: Sequence, off: Optional[Sequence[Sequence]] = None):
        coords = [sc(c) for c in diag]
        if len(coords) != 3:
            raise ValueError("need three diagonal entries")
        if self.a == 0:
            if off and any(any(sc(c) for c in slot) for slot in off):
                raise ValueError("a = 0 has no off-diagonal part")
            return self.element(coords)
        out = coords + [ZERO] * (3 * self.a)
        if off is not None:
            for s, slot in enumerate(off):
                for t, c in enumerate(slot):
                    out[self.off_index(s, t)] = sc(c)
        return self.element(out)

    def identity(self) -> "JordanElement":
        return self.from_parts([1, 1, 1])

    def random_element(self, rng, height: int = 2) -> "JordanElement":
        from .scalar import rand_scalar

        return self.element(
            [rand_scalar(rng, height, gaussian=False) for _ in range(self.dim)]
        )

    def basis_adjugates(self) -> List[List[Scalar]]:
        if self._basis_adjugates is None:
            self._basis_adjugates = [
                list(adjugate(self.element(unit_vec(self.dim, i))).coords)
                for i in range(self.dim)
            ]
        return self._basis_adjugates

    def __repr__(self):
        return f"JordanAlgebra({self.name})"


@lru_cache(maxsize=None)
def jordan_algebra(a: int) -> JordanAlgebra:
    """The Hermitian 3x3 algebra over the composition algebra of dimension
    a, for a in {0, 1, 2, 4, 8}."""
    if a == 0:
        return JordanAlgebra(None)
    if a == 8:
        return JordanAlgebra(canonical_octonions())
    names = {1: "r", 2: "c", 4: "h"}
    if a not in names:
        raise ValueError("a must be one of 0, 1, 2, 4, 8")
    return JordanAlgebra(named_algebra(names[a]))


@dataclass(frozen=True)
class JordanElement:
    algebra: JordanAlgebra
    coords: tuple

    def __init__(self, algebra: JordanAlgebra, coords: Sequence):
        cs = tuple(sc(c) for c in coords)
        if len(cs) != algebra.dim:
            raise ValueError("coordinate length mismatch")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", cs)

    # diagonal and off-diagonal accessors
    @property
    def diag(self) -> tuple:
        return self.coords[:3]

    def off_slot(self, s: int) -> tuple:
        a = self.algebra.a
        return self.coords[3 + s * a : 3 + (s + 1) * a]

    def __add__(self, other):
        return JordanElement(self.algebra, vec_add(list(self.coords), list(other.coords)))

    def __sub__(self, other):
        return self + other.scale(sc(-1))

    def scale(self, c):
        return JordanElement(self.algebra, vec_scale(sc(c), list(self.coords)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, JordanElement)
            and self.algebra is other.algebra
            and self.coords == other.coords
        )

    def to_json(self) -> dict:
        a = self.algebra.a
        return {
            "a": a,
            "diag": [str(c) for c in self.diag],
            "off": [[str(c) for c in self.off_slot(s)] for s in range(3)]
            if a
            else [],
        }

    @staticmethod
    def from_json(data: dict) -> "JordanElement":
        alg = jordan_algebra(data["a"])
        off = data.get("off") or None
        return alg.from_parts(data["diag"], off)


# -- operations --------------------------------------------------------------------


def jordan_product(x: JordanElement, y: JordanElement) -> JordanElement:
    """(XY + YX) / 2, computed entrywise over the base algebra."""
    if x.algebra is not y.algebra:
        raise ValueError("elements of different algebras")
    return JordanElement(x.algebra, x.algebra.product_coords(x.coords, y.coords))


def trace(x: JordanElement) -> Scalar:
    return x.coords[0] + x.coords[1] + x.coords[2]


def trace_pairing(x: JordanElement, y: JordanElement) -> Scalar:
    """tr(x o y): the invariant pairing identifying the algebra with its
    dual."""
    return _pair(x.algebra, x.coords, y.coords)


def det_cubic(x: JordanElement) -> Scalar:
    """The cubic determinant tr(M^3)/3 - tr(M) tr(M^2)/2 + tr(M)^3/6 with
    powers taken in the symmetrized product."""
    t1 = trace(x)
    m2 = jordan_product(x, x)
    t2 = trace(m2)
    t3 = trace_pairing(x, m2)
    return t3 / sc(3) - t1 * t2 / sc(2) + t1 * t1 * t1 / sc(6)


class _LineContext:
    """Shared pieces of the cubic restricted to lines through a fixed
    element: the element cleared to Gaussian integers, its square, their
    traces, and their pairing."""

    __slots__ = ("alg", "xc", "x_ints", "m2", "trm", "trm2", "t_xm2")

    def __init__(self, x: JordanElement):
        self.alg = x.algebra
        self.xc = list(x.coords)
        self.x_ints = _cleared(self.xc)
        self.m2 = self.alg.product_coords(self.xc, self.xc)
        self.trm = _tr(self.alg, self.xc)
        self.trm2 = _tr(self.alg, self.m2)
        self.t_xm2 = _pair_cleared(self.alg, self.x_ints, _cleared(self.m2))


def _det_along_line(ctx: _LineContext, e: int):
    """Values of t -> Det(x + t E_e) at the interpolation nodes -1, 0, 1, 2,
    as Gaussian integers (re, im) over one common denominator.

    The traces of (x + tE)^k are polynomials in t whose coefficients are
    cleared to Gaussian integers over den; then 6 den^3 Det(x + tE) =
    2 den^2 tr3 - 3 den tr1 tr2 + tr1^3 in integers at each node."""
    alg = ctx.alg
    q = alg.product_coords(ctx.xc, unit_vec(alg.dim, e))
    r = alg.basis_product(e, e)
    # tr((x+tE)^2) = trm2 + 2t trq + t^2 trr
    # tr((x+tE)^3) = T(x+tE, (x+tE)^2), with T(E, v) = w_e v_e
    w = alg.trace_weights[e]
    c1 = w * ctx.m2[e] + _TWO * _pair_cleared(alg, ctx.x_ints, _cleared(q))
    c2 = _pair_cleared(alg, ctx.x_ints, _cleared(r)) + _TWO * w * q[e]
    coeffs = [ctx.trm, alg.trace_vec[e], ctx.trm2, _TWO * _tr(alg, q), _tr(alg, r),
              ctx.t_xm2, c1, c2, w * r[e]]
    ints = [(0, 0)] * len(coeffs)
    cleared, den, _ = _cleared(coeffs)
    for k, u, v in cleared:
        ints[k] = (u, v)
    a0, a1, b0, b1, b2, *c = ints
    values = []
    for t in (-1, 0, 1, 2):
        tr1 = tuple(u + t * v for u, v in zip(a0, a1))
        tr2 = tuple(u + t * (v + t * x) for u, v, x in zip(b0, b1, b2))
        tr3 = tuple(u + t * (v + t * (x + t * y)) for u, v, x, y in zip(*c))
        prod, cube = _gmul(tr1, tr2), _gmul(tr1, _gmul(tr1, tr1))
        values.append(tuple(
            2 * den * den * u - 3 * den * v + x for u, v, x in zip(tr3, prod, cube)
        ))
    return values, 6 * den ** 3


def _gmul(x: Tuple[int, int], y: Tuple[int, int]) -> Tuple[int, int]:
    """The product of two Gaussian integers given as (re, im)."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _tr(alg: JordanAlgebra, coords) -> Scalar:
    return coords[0] + coords[1] + coords[2]


def _pair(alg: JordanAlgebra, x, y) -> Scalar:
    """The trace form sum_i w_i x_i y_i."""
    return _pair_cleared(alg, _cleared(x), _cleared(y))


def _pair_cleared(alg: JordanAlgebra, xs, ys) -> Scalar:
    """The trace form on two vectors cleared by tensor._cleared: summed in
    Gaussian integers over the coordinates where both are nonzero, with the
    weights cleared likewise, and divided once."""
    (xs, dx, _), (ys, dy, _) = xs, ys
    at = {i: (c, d) for i, c, d in ys}
    weights = alg._weight_ints
    re = im = 0
    for i, a, b in xs:
        cd = at.get(i)
        if cd is not None:
            c, d = cd
            re += weights[i] * (a * c - b * d)
            im += weights[i] * (a * d + b * c)
    if not (re or im):
        return ZERO
    den = dx * dy * alg._weight_den
    return _make(_Q(re, den), _Q(im, den))


def adjugate(x: JordanElement) -> JordanElement:
    """The gradient of the cubic determinant at x, re-expressed in the
    algebra via the trace pairing.

    Each directional derivative is the linear coefficient c1 of the cubic
    f(t) = Det(x + tE).  On the nodes -1, 0, 1, 2 the Vandermonde system
    has the fixed solution row c1 = (-2f(-1) - 3f(0) + 6f(1) - f(2)) / 6.
    """
    alg = x.algebra
    ctx = _LineContext(x)
    grad = []
    for e, w in enumerate(alg.trace_weights):
        (fm1, f0, f1, f2), den = _det_along_line(ctx, e)
        re, im = (6 * p1 - 2 * m1 - 3 * z0 - p2 for m1, z0, p1, p2 in zip(fm1, f0, f1, f2))
        grad.append(_make(_Q(re, 6 * den), _Q(im, 6 * den)) / w)
    return JordanElement(alg, grad)


def adjugate_closed_form(x: JordanElement) -> JordanElement:
    """M o M - tr(M) M + sigma2(M) Id; agrees with the interpolated
    gradient (asserted in the test suite) and is cheaper to polarize."""
    alg = x.algebra
    m2 = jordan_product(x, x)
    t1 = trace(x)
    sigma2 = (t1 * t1 - trace(m2)) / sc(2)
    return m2 - x.scale(t1) + alg.identity().scale(sigma2)


def freudenthal_cross(x: JordanElement, e: int) -> JordanElement:
    """Directional derivative of the adjugate at x along the basis element
    E_e (the polarization of the quadratic adjugate map):
    2 M o E - tr(E) M - tr(M) E + (tr(M) tr(E) - tr(M o E)) Id."""
    alg = x.algebra
    ebase = alg.element(unit_vec(alg.dim, e))
    me = jordan_product(x, ebase)
    t1, te = trace(x), trace(ebase)
    sigma_prime = t1 * te - trace(me)
    return (
        me.scale(sc(2))
        - x.scale(te)
        - ebase.scale(t1)
        + alg.identity().scale(sigma_prime)
    )


@dataclass
class CayleyHamiltonReport:
    passed: bool
    residual_is_zero: bool


def cayley_hamilton_check(x: JordanElement) -> CayleyHamiltonReport:
    """Exact verification of M^3 - tr(M) M^2 + sigma2(M) M - Det(M) Id = 0
    with sigma2 = (tr(M)^2 - tr(M^2)) / 2."""
    alg = x.algebra
    m2 = jordan_product(x, x)
    m3 = jordan_product(x, m2)
    t1 = trace(x)
    sigma2 = (t1 * t1 - trace(m2)) / sc(2)
    det = det_cubic(x)
    res = (
        m3
        - m2.scale(t1)
        + x.scale(sigma2)
        - alg.identity().scale(det)
    )
    ok = res.is_zero()
    return CayleyHamiltonReport(ok, ok)


def jordan_rank(x: JordanElement) -> int:
    """3 when Det is nonzero, else 2 when the adjugate is nonzero, else 1
    for nonzero elements, else 0."""
    if not det_cubic(x).is_zero():
        return 3
    if not adjugate(x).is_zero():
        return 2
    return 1 if not x.is_zero() else 0


def rank_one_from_pair(alg: JordanAlgebra, x_coords, y_coords) -> JordanElement:
    """The Hermitian square of the column (1, x, y): a rank-one element."""
    if alg.a == 0:
        raise ValueError("rank-one construction needs a nonzero base algebra")
    base = alg.base
    x = [sc(c) for c in x_coords]
    y = [sc(c) for c in y_coords]
    qx = base.norm_coords(x)
    qy = base.norm_coords(y)
    w = base.mul_coords(base.conj_coords(x), y)
    return alg.from_parts([ONE, qx, qy], [x, y, w])


@dataclass(frozen=True)
class FreudenthalVector:
    """An element of K + H3 + H3* + K*, the dual copy represented through
    the trace pairing."""

    algebra: JordanAlgebra
    alpha: Scalar
    m: tuple
    n: tuple
    beta: Scalar

    @property
    def total_dim(self) -> int:
        return 2 * self.algebra.dim + 2

    def flat(self) -> List[Scalar]:
        return [self.alpha, *self.m, *self.n, self.beta]


def freudenthal_vector(
    alg: JordanAlgebra, alpha, m: Sequence, n: Sequence, beta
) -> FreudenthalVector:
    return FreudenthalVector(
        alg, sc(alpha), tuple(sc(c) for c in m), tuple(sc(c) for c in n), sc(beta)
    )


def cubic_map(x: JordanElement) -> FreudenthalVector:
    """M -> [1, M, dDet(M), Det(M)], the affine chart of the twisted-cubic
    image over the Jordan algebra."""
    return FreudenthalVector(
        x.algebra, ONE, tuple(x.coords), tuple(adjugate(x).coords), det_cubic(x)
    )


def symplectic_pairing(p: FreudenthalVector, q: FreudenthalVector) -> Scalar:
    """omega(v1 + w1, v2 + w2) = w1(v2) - w2(v1) on (K + H3) + (K + H3)*,
    dual slots paired through the trace form."""
    if p.algebra is not q.algebra:
        raise ValueError("vectors over different algebras")
    return _omega(p.algebra, _with_cleared(p), _with_cleared(q))


def _with_cleared(v: FreudenthalVector):
    """v with its H3 parts m and n cleared by tensor._cleared."""
    return v, _cleared(v.m), _cleared(v.n)


def _omega(alg: JordanAlgebra, u, v) -> Scalar:
    """The symplectic form on two vectors given by _with_cleared."""
    (p, pm, pn), (q, qm, qn) = u, v
    return ((_pair_cleared(alg, pn, qm) - _pair_cleared(alg, qn, pm))
            + (p.alpha * q.beta - q.alpha * p.beta))


def symplectic_gram_rank(a: int) -> int:
    """Rank of the symplectic form on basis vectors of K + H3 + H3* + K*."""
    alg = jordan_algebra(a)
    d = alg.dim
    total = 2 * d + 2
    basis = []
    for i in range(total):
        flat = unit_vec(total, i)
        basis.append(
            FreudenthalVector(
                alg,
                flat[0],
                tuple(flat[1 : 1 + d]),
                tuple(flat[1 + d : 1 + 2 * d]),
                flat[1 + 2 * d],
            )
        )
    return mat_rank(Matrix(_symplectic_gram(basis)))


def _symplectic_gram(vectors: Sequence[FreudenthalVector]) -> List[List[Scalar]]:
    """symplectic_pairing(u, v) for all u, v over one algebra, with the H3
    parts of each vector cleared once."""
    alg = vectors[0].algebra
    if any(v.algebra is not alg for v in vectors):
        raise ValueError("vectors over different algebras")
    cleared = [_with_cleared(v) for v in vectors]
    return [[_omega(alg, u, v) for v in cleared] for u in cleared]


@dataclass
class LegendrianReport:
    a: int
    samples: int
    tangent_dim: int
    passed: bool
    failure: Optional[str] = None


def tangent_frame(x: JordanElement) -> List[FreudenthalVector]:
    """The affine tangent frame of the cone over the cubic image at
    cubic_map(x): the point itself plus all directional derivatives."""
    alg = x.algebra
    point = cubic_map(x)
    adj = adjugate(x)
    frame = [point]
    for e in range(alg.dim):
        d_adj = freudenthal_cross(x, e)
        d_det = trace_pairing(adj, alg.element(unit_vec(alg.dim, e)))
        frame.append(
            FreudenthalVector(
                alg, ZERO, tuple(unit_vec(alg.dim, e)), tuple(d_adj.coords), d_det
            )
        )
    return frame


def legendrian_check(a: int, samples: int = 20, seed: int = 0) -> LegendrianReport:
    """For sampled M the affine tangent space at cubic_map(M) must have
    dimension dim H3 + 1 and be isotropic for the symplectic pairing."""
    import random as _random

    alg = jordan_algebra(a)
    rng = _random.Random(seed)
    expected = alg.dim + 1
    for s in range(samples):
        x = alg.random_element(rng, height=2)
        frame = tangent_frame(x)
        if any(any(row) for row in _symplectic_gram(frame)):
            return LegendrianReport(a, s + 1, -1, False, "tangent space not isotropic")
        span = Subspace(frame[0].total_dim, [f.flat() for f in frame])
        if span.dim != expected:
            return LegendrianReport(
                a, s + 1, span.dim, False, f"tangent dim {span.dim} != {expected}"
            )
    return LegendrianReport(a, samples, expected, True)
