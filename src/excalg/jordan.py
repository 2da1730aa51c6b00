"""Cubic Jordan algebras of Hermitian 3x3 matrices over a composition
algebra, including the degenerate diagonal case a = 0.

Elements are coordinate vectors over the basis E_0, E_1, E_2 (the diagonal
units), then F_s(e_u) for the off-diagonal slots s = (0,1), (0,2), (1,2):
e_u in slot s and conj(e_u) in its mirror.  The product X o Y =
(XY + YX) / 2 has a closed form on this basis (K. McCrimmon, A Taste of
Jordan Algebras, 2004), which :func:`h3_tensor` reads off the base
algebra's integer cells: E_d o E_d = E_d; E_r o F_s(u) = F_s(u) / 2 for r
in s = (r, c); F_s(u) o F_s(v) = (u conj(v) + v conj(u)) E_r / 2 +
(conj(u) v + conj(v) u) E_c / 2, both scalars; F_0(u) o F_1(v) =
F_2(conj(u) v) / 2, F_0(u) o F_2(v) = F_1(u v) / 2, F_1(u) o F_2(v) =
F_0(u conj(v)) / 2; all other products are zero.  The dual space is
identified with the algebra through the trace pairing, which makes the
gradient of the cubic determinant an element again: the adjugate,
computed as the sharp map x# = x o x - T(x) x + S(x) 1, which is half the
Freudenthal cross product x * x of the bilinear map x * y = 2 x o y -
T(x) y - T(y) x + (T(x) T(y) - T(x o y)) 1.  The determinant is
T(x#, x) / 3 and the derivative of the adjugate along y is x * y.  The
trace pairing is diagonal in the basis, so it is kept as one integer
weight per coordinate over one denominator and every pairing is a
weighted sum of products of integers.  Elements are cleared integer
vectors (see :mod:`excalg.tensor`); the cross product is computed on them
in integers and divided once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .composition import CompAlgebra, canonical_octonions, named_algebra
from .intlin import int_dtype
from .linalg import Matrix, Subspace, rank as mat_rank, unit_vec
from .scalar import ONE, ZERO, Scalar, sc
from .tensor import Element, StructureTensor, Vec, biggest, cleared, reduced, scalar_of, vec_scalars

_OFF_SLOTS = ((0, 1), (0, 2), (1, 2))


def h3_tensor(base: Optional[CompAlgebra]) -> StructureTensor:
    """The product of H3(base) as integer cells over 2 den, read off the
    base's cells m[u, v] = den e_u e_v (a trailing (re, im) axis) and its
    conjugation conj(e_u) = s_u e_u by the closed forms of the module
    docstring, then divided by the gcd of den and the cells."""
    m, den = (np.zeros((0, 0, 0, 1), dtype=np.int64), 1) if base is None else (base.tensor.dense(), base.tensor.den)
    a, n = len(m), 3 + 3 * len(m)
    m = m.astype(int_dtype(2 * max(biggest(m), den)))
    t = np.zeros((n, n, n, m.shape[3]), dtype=m.dtype)
    t[range(3), range(3), range(3), 0] = 2 * den
    if a:
        s = np.array(base.conj_signs)
        su, sv, mt = s[:, None, None, None], s[None, :, None, None], m.transpose(1, 0, 2, 3)
        slot = [slice(3 + k * a, 3 + (k + 1) * a) for k in range(3)]
        for k, (r, c) in enumerate(_OFF_SLOTS):
            u = np.arange(slot[k].start, slot[k].stop)
            t[r, u, u, 0] = t[u, r, u, 0] = t[c, u, u, 0] = t[u, c, u, 0] = den
            # e_u conj(e_v) + e_v conj(e_u) on E_r, conj(e_u) e_v + conj(e_v) e_u on E_c
            for d, diag in ((r, sv * m + su * mt), (c, su * m + sv * mt)):
                if diag[:, :, 1:].any():
                    raise AssertionError("diagonal entry is not scalar")
                t[slot[k], slot[k], d] = diag[:, :, 0]
        for p, q, o, prod in ((0, 1, 2, su * m), (0, 2, 1, m), (1, 2, 0, sv * m)):
            t[slot[p], slot[q], slot[o]] = prod
            t[slot[q], slot[p], slot[o]] = prod.transpose(1, 0, 2, 3)
    flat = t.reshape(n ** 3, -1)
    keys = np.flatnonzero((flat != 0).any(axis=1))
    g = gcd(2 * den, *flat[keys].ravel().tolist())
    return StructureTensor.from_cells(n, 2 * den // g, keys, flat[keys] // g)


class JordanAlgebra:
    """H3 over a composition algebra (or the diagonal algebra at a = 0)."""

    def __init__(self, base: Optional[CompAlgebra], name: str = ""):
        self.base = base
        self.a = base.dim if base is not None else 0
        self.dim = 3 + 3 * self.a
        self.name = name or f"H3(a={self.a})"
        self.tensor = h3_tensor(base)
        # tr(e_i o e_j) = sum_{k<3} c_ij^k is diagonal in this basis: 1 on
        # the diagonal units, 2 n(e_t) on the off-diagonal slots
        tr = self.tensor.dense()[:, :, :3].sum(axis=2)
        if (tr[~np.eye(self.dim, dtype=bool)] != 0).any():
            raise AssertionError("trace form is not diagonal in the basis")
        weights = tr[range(self.dim), range(self.dim)]
        if weights[:, 1:].any():
            raise ValueError("the trace weights must be rational")
        weights, den = weights[:, 0].tolist(), self.tensor.den
        self.trace_weights = tuple(vec_scalars(weights, None, den))
        g = gcd(den, *weights)
        self._weight_ints, self._weight_den = [w // g for w in weights], den // g
        self._basis_adjugates = None
        self._identity = self.from_parts([1, 1, 1])

    # -- basis bookkeeping ---------------------------------------------------

    def off_index(self, slot: int, t: int) -> int:
        return 3 + slot * self.a + t

    # -- public table access ---------------------------------------------------

    def basis_product(self, i: int, j: int) -> List[Scalar]:
        return self.tensor.product(unit_vec(self.dim, i), unit_vec(self.dim, j))

    def product_coords(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> List[Scalar]:
        return self.tensor.product(x, y)

    def element(self, coords: Sequence) -> "JordanElement":
        return JordanElement(self, coords)

    def from_parts(self, diag: Sequence, off: Optional[Sequence[Sequence]] = None):
        """The element with diagonal diag and off-diagonal slots off: none
        (or empty) for zero, else three coordinate lists of length a."""
        if len(diag) != 3:
            raise ValueError("need three diagonal entries")
        if not off:
            off = [[ZERO] * self.a] * 3
        elif len(off) != 3 or any(len(slot) != self.a for slot in off):
            raise ValueError(f"need three off-diagonal slots of {self.a} entries")
        return self.element([sc(c) for c in (*diag, *off[0], *off[1], *off[2])])

    def identity(self) -> "JordanElement":
        return self._identity

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


class JordanElement(Element):
    """An element of a JordanAlgebra, kept as one cleared vector ``vec`` =
    (re, im, den) as :class:`~excalg.composition.AlgElement` is: products,
    traces, the trace pairing, the determinant and the adjugate run in
    Python integers, and ``coords`` is built once, on first read."""

    __slots__ = ()

    # diagonal and off-diagonal accessors
    @property
    def diag(self) -> tuple:
        return self.coords[:3]

    def off_slot(self, s: int) -> tuple:
        a = self.algebra.a
        return self.coords[3 + s * a : 3 + (s + 1) * a]

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
        """The inverse of to_json.  Anything else is a ValueError: "a" must
        be an integer, "diag" a list of three scalars, and "off" absent,
        empty, or three lists of a scalars, each a string or an integer."""
        if not isinstance(data, dict):
            raise ValueError("a Jordan element is a JSON object")
        a, diag, off = data.get("a"), data.get("diag"), data.get("off", [])
        if type(a) is not int:
            raise ValueError('"a" must be an integer')
        if not (isinstance(diag, list) and isinstance(off, list)):
            raise ValueError('"diag" and "off" must be lists')
        if not all(isinstance(slot, list) for slot in off):
            raise ValueError('"off" must be a list of lists')
        if not all(type(c) in (str, int) for c in (*diag, *(c for slot in off for c in slot))):
            raise ValueError("Jordan entries must be scalar strings or integers")
        return jordan_algebra(a).from_parts(diag, off)


# -- operations --------------------------------------------------------------------


def jordan_product(x: JordanElement, y: JordanElement) -> JordanElement:
    """(XY + YX) / 2, computed entrywise over the base algebra."""
    if x.algebra is not y.algebra:
        raise ValueError("elements of different algebras")
    return JordanElement._of(x.algebra, x.algebra.tensor.vec_product(x.vec, y.vec))


def trace(x: JordanElement) -> Scalar:
    return scalar_of(_tr(x.vec), x.vec[2])


def trace_pairing(x: JordanElement, y: JordanElement) -> Scalar:
    """tr(x o y): the invariant pairing identifying the algebra with its
    dual."""
    return _pair(x.algebra, x.vec, y.vec)


def det_cubic(x: JordanElement) -> Scalar:
    """The cubic determinant tr(M^3)/3 - tr(M) tr(M^2)/2 + tr(M)^3/6 with
    powers taken in the symmetrized product, as T(x#, x) / 3."""
    return _norm(x, adjugate(x))


def _norm(x: JordanElement, sharp: JordanElement) -> Scalar:
    """The cubic determinant T(x#, x) / 3 of x, given its adjugate x#."""
    return _pair(x.algebra, sharp.vec, x.vec) / 3


def _cross(alg: JordanAlgebra, x: Vec, y: Vec) -> Vec:
    """The Freudenthal cross product
    x * y = 2 x o y - T(x) y - T(y) x + (T(x) T(y) - T(x o y)) 1 of two
    cleared vectors x = X / Dx and y = Y / Dy.  With the tensor's
    denominator T and the product sums P of X and Y (x o y = P / (T Dx Dy))
    it is 2 P - T tr(X) Y - T tr(Y) X + (T tr(X) tr(Y) - tr(P)) 1 over
    T Dx Dy, summed in Gaussian integers."""
    t = alg.tensor.den
    p = alg.tensor.sums(x, y)
    (ar, ai), (br, bi), (pr, pi) = _tr(x), _tr(y), _tr(p)
    unit = (t * (ar * br - ai * bi) - pr, t * (ar * bi + ai * br) - pi)
    ar, ai, br, bi = t * ar, t * ai, t * br, t * bi
    zero = (0,) * alg.dim
    re, im = [], []
    for u, v, xr, xi, yr, yi in zip(p[0], p[1] or zero, x[0], x[1] or zero, y[0], y[1] or zero):
        re.append(2 * u - (ar * yr - ai * yi) - (br * xr - bi * xi))
        im.append(2 * v - (ar * yi + ai * yr) - (br * xi + bi * xr))
    for k in range(3):
        re[k] += unit[0]
        im[k] += unit[1]
    return reduced(re, im, t * x[2] * y[2])


def _tr(v) -> Tuple[int, int]:
    """The trace of an integer vector (re, im, ...), as (re, im)."""
    re, im = v[0], v[1]
    return re[0] + re[1] + re[2], 0 if im is None else im[0] + im[1] + im[2]


def _dot(weights: Sequence[int], x, y) -> Tuple[int, int]:
    """sum_i w_i x_i y_i for integer vectors (re, im, ...), as (re, im)."""
    (xr, xi), (yr, yi) = x[:2], y[:2]
    if xi is None and yi is None:
        return sum(w * a * c for w, a, c in zip(weights, xr, yr)), 0
    zero = (0,) * len(xr)
    xi, yi = xi or zero, yi or zero
    re = sum(w * (a * c - b * e) for w, a, b, c, e in zip(weights, xr, xi, yr, yi))
    im = sum(w * (a * e + b * c) for w, a, b, c, e in zip(weights, xr, xi, yr, yi))
    return re, im


def _pair(alg: JordanAlgebra, x: Vec, y: Vec) -> Scalar:
    """The trace form sum_i w_i x_i y_i of two cleared vectors: summed in
    Gaussian integers with the weights cleared likewise, and divided once."""
    return scalar_of(_dot(alg._weight_ints, x, y), alg._weight_den * x[2] * y[2])


def adjugate(x: JordanElement) -> JordanElement:
    """The sharp map x# = x o x - T(x) x + S(x) 1 with
    S(x) = (T(x)^2 - T(x o x)) / 2, i.e. half the cross product x * x: the
    gradient of the cubic determinant re-expressed in the algebra through
    the trace pairing, with x## = Det(x) x."""
    re, im, den = _cross(x.algebra, x.vec, x.vec)
    return JordanElement._of(x.algebra, reduced(re, im, 2 * den))


def freudenthal_cross(x: JordanElement, e: int) -> JordanElement:
    """Directional derivative of the adjugate at x along the basis element
    E_e (the polarization of the quadratic adjugate map): the cross product
    x * E_e."""
    alg = x.algebra
    unit = (tuple(int(k == e) for k in range(alg.dim)), None, 1)
    return JordanElement._of(alg, _cross(alg, x.vec, unit))


@dataclass
class CayleyHamiltonReport:
    passed: bool


def cayley_hamilton_check(x: JordanElement) -> CayleyHamiltonReport:
    """Exact verification of M^3 - tr(M) M^2 + sigma2(M) M - Det(M) Id = 0
    with sigma2 = (tr(M)^2 - tr(M^2)) / 2."""
    alg = x.algebra
    m2 = jordan_product(x, x)
    m3 = jordan_product(x, m2)
    t1 = trace(x)
    sigma2 = (t1 * t1 - trace(m2)) / sc(2)
    det = det_cubic(x)
    res = m3 - m2.scale(t1) + x.scale(sigma2) - alg.identity().scale(det)
    return CayleyHamiltonReport(res.is_zero())


def jordan_rank(x: JordanElement) -> int:
    """3 when Det is nonzero, else 2 when the adjugate is nonzero, else 1
    for nonzero elements, else 0."""
    sharp = adjugate(x)
    if not _norm(x, sharp).is_zero():
        return 3
    if not sharp.is_zero():
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
    sharp = adjugate(x)
    return FreudenthalVector(x.algebra, ONE, tuple(x.coords), tuple(sharp.coords), _norm(x, sharp))


def symplectic_pairing(p: FreudenthalVector, q: FreudenthalVector) -> Scalar:
    """omega(v1 + w1, v2 + w2) = w1(v2) - w2(v1) on (K + H3) + (K + H3)*,
    dual slots paired through the trace form."""
    if p.algebra is not q.algebra:
        raise ValueError("vectors over different algebras")
    return _omega(p.algebra, _with_cleared(p), _with_cleared(q))


def _with_cleared(v: FreudenthalVector):
    """v with its H3 parts m and n as cleared vectors."""
    return v, cleared(v.m), cleared(v.n)


def _omega(alg: JordanAlgebra, u, v) -> Scalar:
    """The symplectic form on two vectors given by _with_cleared."""
    (p, pm, pn), (q, qm, qn) = u, v
    return ((_pair(alg, pn, qm) - _pair(alg, qn, pm))
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

    if samples < 1:
        raise ValueError(f"legendrian_check needs at least one sample, got {samples}")
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
