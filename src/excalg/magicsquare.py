"""Triality algebras and the two-parameter family of Lie algebras built
from a pair of composition algebras, producing f4, e6, e7, e8 and the
rest of the 4x4 square.

The bracket on tri(A) + tri(B) + sum_i A_i (x) B_i is built block by
block as integer cells over one common denominator: (i) the tri(A) and
tri(B) tensors, (ii) the natural actions on the tensor slots, (iii) slot
product maps with a fixed conjugation pattern, and (iv) maps Lambda^2 A_i
-> tri(A) paired with the bilinear form of the other side.  The last
family is where sign conventions hide.  Its maps are built from the
triality projections and the ideals of tri(A) (see equivariant_pair_maps)
and certified equivariant exactly against the whole basis of tri(A).  (v)
Each such map enters with a fixed integer coupling (COUPLINGS), so the
bracket is one integer structure tensor, assembled with no Scalar
arithmetic, and its certificate is the Jacobi identity verified on every
basis triple.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Dict, List, Tuple

import numpy as np

from .composition import CompAlgebra, canonical_octonions, named_algebra
from .forms import KForm
from .jordan import jordan_algebra
from .liealg import (
    ModuleRep,
    SCAlgebra,
    _summed,
    commutator_closure_algebra,
    derivations,
    jacobi_check,
    killing_nondegenerate,
    leibniz_kernel,
    string_pairing,
)
from .intlin import (
    biggest,
    checked_int_matmul,
    exact_product,
    int_dtype,
    int_kernel,
    kernel_array,
    span_coordinates,
)
from .linalg import Matrix, Subspace, unit_vec
from .scalar import ONE, ZERO, Scalar, sc
from .tensor import StructureTensor, cleared_ints, scalar_rows


class CalibrationFailed(RuntimeError):
    """A built bracket or one of its maps fails its exact certificate (the
    Jacobi identity, equivariance, a homomorphism); this indicates a build
    bug, not a property of the inputs."""


ALGEBRA_ORDER = ("r", "c", "h", "o")

SQUARE_NAMES = (
    ("sl2", "sl3", "sp6", "f4"),
    ("sl3", "sl3+sl3", "sl6", "e6"),
    ("sp6", "sl6", "so12", "e7"),
    ("f4", "e6", "e7", "e8"),
)

SQUARE_DIMS = (
    (3, 8, 21, 52),
    (8, 16, 35, 78),
    (21, 35, 66, 133),
    (52, 78, 133, 248),
)


@lru_cache(maxsize=None)
def standard_algebra(key: str) -> CompAlgebra:
    if key == "o":
        return canonical_octonions()
    return named_algebra(key)


def _so_basis(alg: CompAlgebra) -> List[Dict[Tuple[int, int], Scalar]]:
    """Basis of the skew algebra of the bilinear form, G^-1 (E_ab - E_ba) for
    a < b, as {(row, col): value} maps: column b is column a of G^-1 and
    column a is minus its column b."""
    d = alg.dim
    ginv = alg.gram.inverse()
    out = []
    for a in range(d):
        for b in range(a + 1, d):
            m = {(p, b): ginv[p, a] for p in range(d) if ginv[p, a]}
            m.update({(p, a): -ginv[p, b] for p in range(d) if ginv[p, b]})
            out.append(m)
    return out


@dataclass(eq=False)
class TrialityAlgebra:
    """Triples of skew maps with u1(xy) = u2(x) y + x u3(y), as the exact
    kernel inside so(A)^3, carrying the componentwise commutator.  The
    triples are one integer array proj[c, r] = den * pi_{c+1}(t_r); the
    Scalar Matrix view `triples` is built on first read."""

    base: CompAlgebra
    algebra: SCAlgebra  # brackets in the kernel basis
    proj: np.ndarray
    den: int

    @property
    def dim(self) -> int:
        return self.proj.shape[1]

    @cached_property
    def triples(self) -> List[Tuple[Matrix, Matrix, Matrix]]:
        return list(zip(*(
            [Matrix([[Scalar.rational(x, self.den) for x in row] for row in m]) for m in mats]
            for mats in self.proj.tolist()
        )))

    def projection(self, i: int, r: int) -> Matrix:
        return self.triples[r][i - 1]

    def projection_rank(self, i: int) -> int:
        rows = self.proj[i - 1].reshape(self.dim, self.base.dim ** 2).T
        return self.dim - len(int_kernel(rows, self.dim))


@lru_cache(maxsize=None)
def triality_algebra(key: str) -> TrialityAlgebra:
    """tri(A) for A one of "r", "c", "h", "o", in integers: the Leibniz
    kernel inside so(A)^3 times the so(A) basis gives the projections, and
    commutator_closure_algebra reads the componentwise bracket off them."""
    alg = standard_algebra(key)
    d = alg.dim
    so = _so_basis(alg)
    s = len(so)
    unknowns = [(m, {}, {}) for m in so] + [({}, m, {}) for m in so] + [({}, {}, m) for m in so]
    k, den_k = leibniz_kernel(alg.tensor, unknowns, ints=True)
    basis, den_s = cleared_ints((m.get((x, y), ZERO) for m in so for x in range(d) for y in range(d)), (s, d, d))
    dtype = int_dtype(biggest(k) * biggest(basis) * s)
    proj = np.einsum("rcu,uxy->crxy", k.reshape(len(k), 3, s).astype(dtype), basis.astype(dtype))
    g = gcd(den_k * den_s, *proj.ravel().tolist())
    proj, den = proj // g, den_k * den_s // g
    # the componentwise bracket is the commutator of block-diagonal matrices
    sca = commutator_closure_algebra(proj.transpose(1, 0, 2, 3), name=f"tri({key})", den=den)
    return TrialityAlgebra(alg, sca, proj, den)


@lru_cache(maxsize=None)
def tri_ideal_split(key: str) -> Tuple[Subspace, Subspace, Subspace]:
    """The three subspaces of tri with one component zero; for the
    four-dimensional algebra these are the three commuting ideals."""
    tri = triality_algebra(key)
    rows = tri.proj.reshape(3, tri.dim, tri.base.dim ** 2).transpose(0, 2, 1)
    return tuple(Subspace(tri.dim, kernel_array(r, tri.dim)[0].tolist()) for r in rows)


# -- integer arrays of the square's building blocks --------------------------------


def _dense(t: StructureTensor) -> np.ndarray:
    """The cells den * c of a rational tensor as a dense array [i, j, k]."""
    if not t.rational:
        raise ValueError("the square's bracket tables need rational constants")
    return t.dense()[..., 0]


def _outer(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The nonzero entries of the outer product x[...] y[...], formed from
    those of x and of y: the indices into x, those into y, the products."""
    at_x, at_y = np.nonzero(x), np.nonzero(y)
    i, j = np.divmod(np.arange(len(at_x[0]) * len(at_y[0])), len(at_y[0]))
    return (*(c[i] for c in at_x), *(c[j] for c in at_y), exact_product(x[at_x][i], y[at_y][j]))


def _skew_map(flat: np.ndarray, d: int) -> np.ndarray:
    """Maps w[h, k] on the pairs e_a ^ e_c, a < c, one row k per pair, as
    one array W[h, a, c] extended by W[h, c, a] = -W[h, a, c]."""
    w = np.zeros((len(flat), d, d, flat.shape[2]), dtype=flat.dtype)
    a, c = np.triu_indices(d, 1)
    w[:, a, c], w[:, c, a] = flat, -flat
    return w


class PairMaps(Sequence):
    """Maps psi_h: Lambda^2 A -> tri(A) as one integer array w[h, k] = den *
    psi_h(xi_k) in tri coordinates, xi_k the k-th pair e_a ^ e_b, a < b.
    Item h is the Scalar view: the list of coordinate lists psi_h(xi_k)."""

    def __init__(self, w: np.ndarray, den: int):
        self.w, self.den = w, den

    def __len__(self) -> int:
        return len(self.w)

    def __getitem__(self, h: int) -> List[List[Scalar]]:
        return scalar_rows(self.w[h], self.den)


@lru_cache(maxsize=None)
def equivariant_pair_maps(key: str, slot: int) -> PairMaps:
    """A basis of the tri(A)-equivariant maps Lambda^2 A_slot -> tri(A).

    With pi the projection of the slot and iota the so(A)-equivariant
    identification of Lambda^2 A with so(A): an abelian tri (A = C) acts
    trivially on Lambda^2 A, so the coordinate maps are a basis.  Otherwise
    each ideal J of tri (the three sp1 of tri(H), or all of tri(O), where
    pi is an isomorphism) with pi(J) != 0 gives psi_J = (pi|_J)^-1 of the
    pi(J)-component of iota, solved for all pairs at once on the stacked
    images pi(J) by span_coordinates and certified by _certify_equivariant.
    """
    tri = triality_algebra(key)
    p, d = tri.dim, tri.base.dim
    pairs = d * (d - 1) // 2
    if not len(tri.algebra.tensor.val):
        # map (k, s) sends xi_k to t_s and every other pair to 0
        maps = PairMaps(np.eye(pairs * p, dtype=np.int64).reshape(pairs * p, pairs, p), 1)
    else:
        proj = tri.proj[slot - 1].reshape(p, -1)
        ideals = [cleared_ints((x for v in J.basis for x in v), (J.dim, p))[0] for J in tri_ideal_split(key)]
        ideals = [J for J in ideals if len(J)] or [np.eye(p, dtype=np.int64)]
        kept = [(J, image) for J in ideals if (image := checked_int_matmul(J, proj)).any()]
        gram, den_g = cleared_ints((x for row in tri.base.gram.entries for x in row), (d, d))
        # iota(e_a ^ e_b)[r, c] = <e_a, e_c> [r = b] - <e_b, e_c> [r = a]
        iota = np.einsum("yrk,yc->krc", _skew_map(np.eye(pairs, dtype=gram.dtype)[None], d)[0], gram)
        solved = span_coordinates(np.concatenate([image for _, image in kept]), iota.reshape(pairs, -1))
        if solved is None:
            raise CalibrationFailed(f"iota(Lambda^2 {key}) leaves pi_{slot}(tri({key}))")
        # the images are den * pi(J_k) and the targets den_g * iota(xi), so
        # psi_J(xi) = den / (den_x * den_g) * sum_k x[xi, k] J_k
        x, den_x = solved
        parts = np.split(x, np.cumsum([len(J) for J, _ in kept])[:-1], axis=1)
        w = np.stack([checked_int_matmul(part, J) for part, (J, _) in zip(parts, kept)])
        w = exact_product(w, np.array(tri.den))
        g = gcd(den_x * den_g, *w.ravel().tolist())
        maps = PairMaps(w // g, den_x * den_g // g)
    _certify_equivariant(key, slot, maps)
    return maps


def _certify_equivariant(key: str, slot: int, maps: PairMaps) -> None:
    """Raise CalibrationFailed unless psi(t . xi) = [t, psi(xi)] for every
    map psi, every basis element t of tri and every pair xi = e_a ^ e_c.

    With P[t] the projection of t on the slot, C[t, s] the bracket [t, e_s]
    and W[a, c] = psi(e_a ^ e_c) = -W[c, a], that is sum_x P[t, x, a]
    W[x, c] + P[t, x, c] W[a, x] = sum_s W[a, c, s] C[t, s], checked in
    integers: P, C and W over their own denominators."""
    tri = triality_algebra(key)
    proj, den_p = tri.proj[slot - 1], tri.den
    ad, den_c = _dense(tri.algebra.tensor), tri.algebra.tensor.den
    for w in _skew_map(maps.w, tri.base.dim):
        w = w.astype(int_dtype(biggest(w) * max(biggest(proj) * 2 * tri.base.dim, biggest(ad) * tri.dim)))
        lhs = np.einsum("txa,xco->taco", proj, w) + np.einsum("txc,axo->taco", proj, w)
        rhs = np.einsum("acs,tso->taco", w, ad)
        lhs, rhs = exact_product(lhs, np.array(den_c)), exact_product(rhs, np.array(den_p))
        if not np.array_equal(lhs, rhs):
            raise CalibrationFailed(f"a map Lambda^2 {key}_{slot} -> tri({key}) is not equivariant")


# -- the two-parameter construction ----------------------------------------------


@dataclass
class MagicSquareAlgebra:
    pair: Tuple[str, str]
    algebra: SCAlgebra
    tri_dims: Tuple[int, int]
    slot_dim: int
    calibration: Dict[str, Scalar]  # COUPLINGS of both sides by str((side, slot, h))
    checked: int  # basis triples the final Jacobi check covers: dim ** 3

    @property
    def dim(self) -> int:
        return self.algebra.dim


# the plain product couples the pi2- and pi3-representations into the
# pi1-representation, so slot i carries projection SLOT_PROJ[i]
SLOT_PROJ = (2, 3, 1)

# COUPLINGS[key][i][h]: the integer that map h of equivariant_pair_maps(key,
# SLOT_PROJ[i]) carries in slot i of the bracket, the same on either side of
# the pair; with these the bracket satisfies the Jacobi identity, which every
# build re-verifies on all basis triples
COUPLINGS = {"r": ((), (), ()), "c": ((-2, -4), (-2, 2), (-4, -2)), "h": ((4, 4),) * 3, "o": ((4,),) * 3}


class _SquareTables:
    """The bracket of tri(A) + tri(B) + A_0 (x) B_0 + A_1 (x) B_1 + A_2 (x) B_2
    as integer cells over one common denominator den.

    The cells, both orientations of every pair, are held in three arrays:
    `pair` (p * dim + q), `out` (the coordinate k) and `val` (den times the
    constant), with repeated (pair, out) cells adding up.  The blocks hold
    nonzero entries only, (ii)-(iv) as outer products (:func:`_outer`): (i)
    the cells of the tri(A) and tri(B) tensors; (ii) tri acting on a slot
    through its projection, tri(A) on the left factor and tri(B) on the
    right; (iii) the cross-slot products with the conjugation pattern
    conj(e_a) = s_a e_a: (0,1) -> slot 2: e_a e_c (x) e_b e_d, (0,2) -> slot
    1: -conj(e_a) e_c (x) conj(e_b) e_d, (1,2) -> slot 0: e_c conj(e_a) (x)
    e_d conj(e_b); (iv) in one slot, psi(e_a ^ e_c) <e_b, e_d> in tri(A) and
    psi(e_b ^ e_d) <e_a, e_c> in tri(B), psi times its coupling in COUPLINGS.
    """

    def __init__(self, key_a: str, key_b: str):
        self.key_a, self.key_b = key_a, key_b
        alg_a, alg_b = standard_algebra(key_a), standard_algebra(key_b)
        tri_a, tri_b = triality_algebra(key_a), triality_algebra(key_b)
        self.pa, self.pb = pa, pb = tri_a.dim, tri_b.dim
        self.da, self.db = da, db = alg_a.dim, alg_b.dim
        self.slot = da * db
        self.dim = pa + pb + 3 * self.slot
        slot, blocks = self.slot_index, []
        for t, off in ((tri_a.algebra.tensor, 0), (tri_b.algebra.tensor, pa)):
            blocks.append((t.pair // t.dim + off, t.pair % t.dim + off, t.out + off, t.val[:, 0], t.den, False))
        for i, proj in enumerate(SLOT_PROJ):
            # t_r . (e_a (x) e_b) = P_r e_a (x) e_b, resp. e_a (x) P_r e_b
            r, x, a, b, v = _outer(tri_a.proj[proj - 1], np.ones(db, dtype=np.int64))
            blocks.append((r, slot(i, a, b), slot(i, x, b), v, tri_a.den, True))
            a, r, x, b, v = _outer(np.ones(da, dtype=np.int64), tri_b.proj[proj - 1])
            blocks.append((pa + r, slot(i, a, b), slot(i, a, x), v, tri_b.den, True))
        ca, cb = _dense(alg_a.tensor), _dense(alg_b.tensor)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            # the e_m (x) e_n coordinate of (e_a (x) e_b)(e_c (x) e_d)
            xa, xb = (ca, cb) if i == 0 else (ca.transpose(1, 0, 2), cb.transpose(1, 0, 2))
            a, c, m, b, d, n, v = _outer(xa, xb)
            if j == 2:
                v = v * np.outer(alg_a.conj_signs, alg_b.conj_signs)[a, b] * (-1 if i == 0 else 1)
            blocks.append((slot(i, a, b), slot(j, c, d), slot(3 - i - j, m, n), v,
                           alg_a.tensor.den * alg_b.tensor.den, True))
        ga, den_a = cleared_ints((x for row in alg_a.gram.entries for x in row), (da, da))
        gb, den_b = cleared_ints((x for row in alg_b.gram.entries for x in row), (db, db))
        for i, proj in enumerate(SLOT_PROJ):
            # den * u_h psi_h as W[h, a, c] on ordered pairs, u_h the coupling
            psi_a, psi_b = equivariant_pair_maps(key_a, proj), equivariant_pair_maps(key_b, proj)
            ua, ub = (np.array(COUPLINGS[key][i], dtype=np.int64)[:, None, None] for key in (key_a, key_b))
            for w in _skew_map(exact_product(psi_a.w, ua), da):
                a, c, s, b, d, v = _outer(w, gb)
                blocks.append((slot(i, a, b), slot(i, c, d), s, v, psi_a.den * den_b, False))
            for w in _skew_map(exact_product(psi_b.w, ub), db):
                a, c, b, d, s, v = _outer(ga, w)
                blocks.append((slot(i, a, b), slot(i, c, d), pa + s, v, psi_b.den * den_a, False))
        self.den = lcm(1, *(b[4] for b in blocks))
        cells = []
        for p, q, k, v, den, mirror in blocks:
            v = exact_product(v, np.array(self.den // den))
            cells += [(p, q, k, v)] + ([(q, p, k, -v)] if mirror else [])
        self.pair, self.out, self.val = (np.concatenate(column) for column in zip(
            *((p * self.dim + q, k, v) for p, q, k, v in cells)))

    def slot_index(self, i: int, a, b):
        return self.pa + self.pb + i * self.slot + a * self.db + b

    def tensor(self) -> StructureTensor:
        """The bracket: the cells summed per (pair, out) in integers and
        divided once."""
        vals = self.val.astype(int_dtype(biggest(self.val) * len(self.val)))
        keys, sums = _summed(self.pair * self.dim + self.out, vals)
        keys, sums = keys[sums[:, 0] != 0], sums[sums[:, 0] != 0]
        g = gcd(self.den, *sums.ravel().tolist())
        return StructureTensor.from_cells(self.dim, self.den // g, keys, sums // g)


def _assemble(tables: _SquareTables) -> SCAlgebra:
    name = SQUARE_NAMES[ALGEBRA_ORDER.index(tables.key_a)][ALGEBRA_ORDER.index(tables.key_b)]
    return SCAlgebra(tables.dim, tables.tensor(), name=name)


def vinberg_build(key_a: str, key_b: str, seed: int = 0) -> MagicSquareAlgebra:
    """Assemble the Lie algebra attached to a pair of composition algebras.

    The couplings are the constants in COUPLINGS, so the bracket is one
    integer table.  Its certificate is :func:`excalg.liealg.jacobi_check`
    on every basis triple, from the derivations of a generating set or by
    the scan; a failure raises CalibrationFailed naming the first failing
    triple.  The build draws nothing at random: `seed` is unused and kept
    for the callers that pass one."""
    for key in (key_a, key_b):
        if key not in ALGEBRA_ORDER:
            raise ValueError(f"unknown algebra {key!r}, expected one of {ALGEBRA_ORDER}")
    tables = _SquareTables(key_a, key_b)
    sca = _assemble(tables)
    report = jacobi_check(sca)
    if not report.passed:
        raise CalibrationFailed(
            f"the bracket of {key_a},{key_b} fails the Jacobi identity at basis triple {report.witness[:3]}"
        )
    couplings = {
        str((side, i, h)): sc(c)
        for i in range(3)
        for side, key in zip("AB", (key_a, key_b))
        for h, c in enumerate(COUPLINGS[key][i])
    }
    return MagicSquareAlgebra((key_a, key_b), sca, (tables.pa, tables.pb), tables.slot, couplings, report.checked)


@lru_cache(maxsize=None)
def built_square_entry(key_a: str, key_b: str) -> MagicSquareAlgebra:
    return vinberg_build(key_a, key_b)


# -- dimension bookkeeping ----------------------------------------------------------


@lru_cache(maxsize=None)
def derivation_dim(key: str) -> int:
    return derivations(standard_algebra(key), name=f"der({key})").dim


@lru_cache(maxsize=None)
def jordan_derivation_dim(a: int) -> int:
    return derivations(jordan_algebra(a), name=f"der(H3:{a})").dim


def tits_dimension_table() -> List[List[Tuple[str, int]]]:
    """The 4x4 table of names and dimensions from the derivation-based
    construction: der A x der H3(B) + Im A (x) H3(B)_0, all summands
    computed from live kernels."""
    def entry(ka: str, kb: str) -> Tuple[str, int]:
        a, b = standard_algebra(ka).dim, standard_algebra(kb).dim
        dim = derivation_dim(ka) + jordan_derivation_dim(b) + (a - 1) * (3 * b + 2)
        return SQUARE_NAMES[ALGEBRA_ORDER.index(ka)][ALGEBRA_ORDER.index(kb)], dim

    return [[entry(ka, kb) for kb in ALGEBRA_ORDER] for ka in ALGEBRA_ORDER]


# -- three models of the smallest exceptional algebra ---------------------------


def _epsilon(i: int, j: int, k: int) -> int:
    if len({i, j, k}) < 3:
        return 0
    return 1 if (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1


@lru_cache(maxsize=None)
def _sl3_basis():
    mats = [
        Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
        Matrix([[0, 0, 0], [0, 1, 0], [0, 0, -1]]),
    ]
    for (a, b) in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
        m = [[0] * 3 for _ in range(3)]
        m[a][b] = 1
        mats.append(Matrix(m))
    return mats


@lru_cache(maxsize=None)
def _sl3_units() -> List[List[Scalar]]:
    """Row 3i + j: the coordinates of E_ij - delta_ij I/3 in _sl3_basis."""
    family, _ = cleared_ints((x for m in _sl3_basis() for row in m.entries for x in row), (8, 9))
    diagonal = np.eye(3, dtype=np.int64).ravel()
    x, den = span_coordinates(family, 3 * np.eye(9, dtype=np.int64) - np.outer(diagonal, diagonal))
    return scalar_rows(x, 3 * den)


@dataclass
class TraceFreeModel:
    """The fourteen-dimensional algebra on 3x3 traceless matrices plus a
    vector and a covector copy of K^3, with couplings fixed by the Jacobi
    identity, its designated Cartan, and its seven-dimensional module."""

    algebra: SCAlgebra
    module: "ModuleRep"
    invariant_form: "KForm"
    invariant_quadric: Matrix  # Gram of the invariant quadratic form
    couplings: Tuple[Scalar, Scalar, Scalar]


def _build_vector_model(c1: Scalar, c2: Scalar, c3: Scalar) -> SCAlgebra:
    sl3 = _sl3_basis()
    bracket = dict(commutator_closure_algebra(sl3).bracket)

    def setb(i, j, vec):
        comp = {k: sc(v) for k, v in enumerate(vec) if not sc(v).is_zero()}
        if comp:
            bracket[(i, j)] = comp
            bracket[(j, i)] = {k: -v for k, v in comp.items()}

    for a in range(8):
        x = sl3[a]
        for i in range(3):
            setb(a, 8 + i, [ZERO] * 8 + [x[t, i] for t in range(3)] + [ZERO] * 3)
            setb(a, 11 + i, [ZERO] * 11 + [-x[i, t] for t in range(3)])
    for i in range(3):
        for j in range(i + 1, 3):
            vf = [ZERO] * 14
            vv = [ZERO] * 14
            for k in range(3):
                e = _epsilon(i, j, k)
                if e:
                    vf[11 + k] = c1 * sc(e)
                    vv[8 + k] = c2 * sc(e)
            setb(8 + i, 8 + j, vf)
            setb(11 + i, 11 + j, vv)
    for i in range(3):
        for j in range(3):
            setb(8 + i, 11 + j, [c3 * x for x in _sl3_units()[3 * i + j]] + [ZERO] * 6)
    cartan = [unit_vec(14, 0), unit_vec(14, 1)]
    return SCAlgebra(14, bracket, skew=True, cartan=cartan, name="g2-vector-model")


@lru_cache(maxsize=None)
def vector_model_g2() -> TraceFreeModel:
    """The vector-covector model of the rank-two exceptional algebra and
    its seven-dimensional module.

    The three couplings carry a two-parameter rescaling gauge, so c1 and c3
    are normalized to 1, and the Jacobi identity then fixes c2 = -4/3; the
    full identity is verified.  The module couplings follow from the
    homomorphism property, and the basis is rescaled so that the invariant
    trivector has unit coefficients; the invariant quadratic form is then
    x0^2 minus the sum of the three hyperbolic products.
    """
    from . import forms as fm

    c2 = Scalar.rational(-4, 3)
    algebra = _build_vector_model(ONE, c2, ONE)
    if not jacobi_check(algebra, "full").passed:
        raise CalibrationFailed("vector model failed the Jacobi identity")

    # seven-dimensional module in the basis (s, w1, g1, w2, g2, w3, g3)
    pos_w = [1, 3, 5]
    pos_g = [2, 4, 6]
    d1 = sc(1) / sc(3)
    e1, e2, e3 = sc(2) / sc(3), sc(2), sc(-1) / sc(3)

    def rho_sl3(x):
        m = [[ZERO] * 7 for _ in range(7)]
        for i in range(3):
            for j in range(3):
                m[pos_w[i]][pos_w[j]] = x[i, j]
                m[pos_g[i]][pos_g[j]] = -x[j, i]
        return Matrix(m)

    def rho_v(i):
        m = [[ZERO] * 7 for _ in range(7)]
        m[pos_w[i]][0] = ONE
        for j in range(3):
            for k in range(3):
                e = _epsilon(i, j, k)
                if e:
                    m[pos_g[k]][pos_w[j]] = sc(e)
        m[0][pos_g[i]] = d1
        return Matrix(m)

    def rho_f(i):
        m = [[ZERO] * 7 for _ in range(7)]
        m[pos_g[i]][0] = e2
        for j in range(3):
            for k in range(3):
                e = _epsilon(i, j, k)
                if e:
                    m[pos_w[k]][pos_g[j]] = e3 * sc(e)
        m[0][pos_w[i]] = e1
        return Matrix(m)

    mats = (
        [rho_sl3(x) for x in _sl3_basis()]
        + [rho_v(i) for i in range(3)]
        + [rho_f(i) for i in range(3)]
    )
    # rescale so the invariant trivector has unit coefficients
    scale = [sc(2), ONE, sc(6), sc(2), sc(3), sc(3), sc(2)]
    dmat = Matrix([[scale[i] if i == j else ZERO for j in range(7)] for i in range(7)])
    dinv = Matrix(
        [[scale[i].inverse() if i == j else ZERO for j in range(7)] for i in range(7)]
    )
    mats = [dinv @ m @ dmat for m in mats]
    # homomorphism property, checked exactly on all pairs
    for i in range(14):
        for j in range(i + 1, 14):
            acc = [[ZERO] * 7 for _ in range(7)]
            for k, v in algebra.basis_bracket(i, j).items():
                mk = mats[k]
                for r in range(7):
                    for c in range(7):
                        if not mk[r, c].is_zero():
                            acc[r][c] = acc[r][c] + v * mk[r, c]
            if Matrix(acc) != mats[i] @ mats[j] - mats[j] @ mats[i]:
                raise CalibrationFailed("module action is not a homomorphism")
    module = ModuleRep(7, mats)
    form = fm.parse_form(
        "e[1,2,3]+e[1,4,5]+e[1,6,7]+e[2,4,6]+e[3,5,7]", 7
    )
    half = sc(1) / sc(2)
    quad = [[ZERO] * 7 for _ in range(7)]
    quad[0][0] = ONE
    for i in range(3):
        quad[pos_w[i]][pos_g[i]] = -half
        quad[pos_g[i]][pos_w[i]] = -half
    return TraceFreeModel(algebra, module, form, Matrix(quad), (ONE, c2, ONE))


def module_annihilates_form(module, form) -> bool:
    """True when every generator kills the trivector (linearized action)."""
    from .threeform import action_matrix

    act, n = action_matrix(form.n, form), form.n
    return all(not any(act.apply([m[a, b] for a in range(n) for b in range(n)]))
               for m in module.matrices)


def module_annihilates_quadric(module, gram: Matrix) -> bool:
    """True when rho(x)^T B + B rho(x) = 0 for every generator."""
    for m in module.matrices:
        if not (m.transpose() @ gram + gram @ m).is_zero():
            return False
    return True


@dataclass
class G2ModelsReport:
    dims: Tuple[int, int, int]
    derivation_stabilizer_match: bool
    jacobi_ok: Tuple[bool, bool, bool]
    root_count: int
    cartan_ok: bool
    short_long_split: Tuple[int, int]
    module_weights_ok: bool
    form_annihilated: bool
    quadric_annihilated: bool

    @property
    def passed(self) -> bool:
        return (
            self.dims == (14, 14, 14)
            and self.derivation_stabilizer_match
            and all(self.jacobi_ok)
            and self.root_count == 12
            and self.cartan_ok
            and self.short_long_split == (6, 6)
            and self.module_weights_ok
            and self.form_annihilated
            and self.quadric_annihilated
        )


def g2_models_crosscheck() -> G2ModelsReport:
    """Build the rank-two exceptional algebra three ways (octonion
    derivations, trivector stabilizer, vector-covector model) and verify
    the dimensions, the subspace equality of the first two, the root data
    of the third, and the invariants of its seven-dimensional module.

    The Cartan elements of the vector model act diagonally on its adjoint
    and on its seven-dimensional module, so both weight decompositions are
    checked on the standard basis, and the Cartan matrix of the roots is
    named by :func:`rootdata.diagram_type`."""
    from .composition import associative_form, canonical_octonions
    from .liealg import (
        cartan_matrix_from_roots,
        derivations,
        adjoint_module,
        jacobi_check as _jacobi,
        stabilizer_in_gl,
        weight_decomposition,
    )
    from .rootdata import diagram_type

    oct8 = canonical_octonions()
    der = derivations(oct8, name="der(O)")
    stab = stabilizer_in_gl(7, associative_form(oct8))
    model = vector_model_g2()
    dims = (der.dim, stab.dim, model.algebra.dim)

    rows_der = [
        [m[i + 1, j + 1] for i in range(7) for j in range(7)] for m in der.matrices
    ]
    rows_stab = [
        [m[i, j] for i in range(7) for j in range(7)] for m in stab.matrices
    ]
    match = Subspace(49, rows_der) == Subspace(49, rows_stab)

    jac = (
        _jacobi(der, "full").passed,
        _jacobi(stab, "full").passed,
        _jacobi(model.algebra, "full").passed,
    )

    adj = weight_decomposition(
        model.algebra, adjoint_module(model.algebra), Matrix.identity(14).entries
    )
    roots = [w for w, mult in adj if any(not x.is_zero() for x in w) for _ in range(mult)]
    zero_dim = sum(mult for w, mult in adj if all(x.is_zero() for x in w))
    cartan = cartan_matrix_from_roots(roots)
    cartan_ok = zero_dim == 2 and diagram_type(
        [[int(x.re) for x in row] for row in cartan.entries]
    ) == "G2"

    shorts, longs = _short_long_split(roots)
    mod_weights = weight_decomposition(model.algebra, model.module, Matrix.identity(7).entries)
    nonzero = [w for w, mult in mod_weights if any(not x.is_zero() for x in w)]
    zero_mult = sum(m for w, m in mod_weights if all(x.is_zero() for x in w))
    module_ok = (
        zero_mult == 1
        and len(nonzero) == 6
        and set(nonzero) == set(shorts)
    )
    return G2ModelsReport(
        dims,
        match,
        jac,
        len(roots),
        cartan_ok,
        (len(shorts), len(longs)),
        module_ok,
        module_annihilates_form(model.module, model.invariant_form),
        module_annihilates_quadric(model.module, model.invariant_quadric),
    )


def _short_long_split(roots):
    """Partition roots by squared length, computed from root strings."""
    root_set = {tuple(r) for r in roots}
    # <alpha, beta-check> values distinguish lengths: a root is long iff
    # |<beta, alpha-check>| <= 1 for all roots beta
    shorts, longs = [], []
    for alpha in root_set:
        biggest = 0
        for beta in root_set:
            if beta == alpha or beta == tuple(-x for x in alpha):
                continue
            biggest = max(biggest, abs(string_pairing(beta, alpha, root_set)))
        (longs if biggest <= 1 else shorts).append(alpha)
    return shorts, longs
