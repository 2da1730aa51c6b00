"""Composition algebras: Cayley-Dickson doubling, the octonions from the
Fano plane, identity checkers, cross products, and the pointwise geometry
of the complex octonions (zero divisors, null-planes, subalgebra types,
sextonions).

Over Q(i) the same multiplication table serves both the real algebra and
its complexification, so there is a single algebra type.  Tables are
immutable and shared read-only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import forms as fm
from .intlin import int_dtype, span_coordinates
from .linalg import (
    Matrix,
    Subspace,
    is_zero_vec,
    kernel,
    unit_vec,
    vec_add,
    vec_dot,
    vec_scale,
    zero_vec,
)
from .scalar import I, ONE, ZERO, NeedsExtension, Scalar, sc
from .tensor import Element, StructureTensor, Vec, _cleared, cleared, cleared_ints, lattice, scalar_of, scalar_rows

STANDARD = "standard"
SPLIT = "split"

ALTERNATIVE = "alternative"
MOUFANG = "moufang"
NORM_MULT = "norm_mult"
ASSOCIATIVE = "associative"


class NonIsotropic(ValueError):
    """Raised when an operation requires a nonzero element of norm zero."""


class NotSubalgebra(ValueError):
    """Raised when a subspace fails closure under multiplication."""


# Oriented lines of the Fano plane, matching the invariant three-form
# e^123 + e^365 + e^541 + e^264 + e^176 + e^572 + e^374.
FANO_LINES: Tuple[Tuple[int, int, int], ...] = (
    (1, 2, 3),
    (3, 6, 5),
    (5, 4, 1),
    (2, 6, 4),
    (1, 7, 6),
    (5, 7, 2),
    (3, 7, 4),
)


class CompAlgebra:
    """A unital algebra with conjugation and its norm bilinear form.

    ``table[i][j]`` is the coordinate vector of e_i * e_j.  Basis element 0
    is the two-sided unit; conjugation is diagonal with signature +1 on the
    unit and -1 on the remaining basis elements.  The constructor verifies
    that conjugation is an antiautomorphism of the table and that
    x * conj(x) = q(x) * 1 on basis elements.  The bilinear form may be
    degenerate (the sextonions), in which case the algebra is unital with
    conjugation but not a composition algebra.
    """

    __slots__ = ("dim", "table", "conj_signs", "gram", "name", "tensor", "_form")

    def __init__(self, table, conj_signs=None, name: str = "", check: bool = True):
        d = len(table)
        self.dim = d
        self.table = tuple(
            tuple(tuple(sc(x) for x in cell) for cell in row) for row in table
        )
        self.tensor = StructureTensor(d, (
            (i, j, k, c) for i, row in enumerate(self.table)
            for j, cell in enumerate(row) for k, c in enumerate(cell)
        ))
        self.conj_signs = tuple(
            conj_signs if conj_signs is not None else [1] + [-1] * (d - 1)
        )
        self.name = name
        # <e_i, e_j> = (e_i conj(e_j) + e_j conj(e_i)) / 2: the unit
        # coordinates of the cells, signed and symmetrized, over 2 den
        m = self.tensor.dense()[:, :, 0].astype(int_dtype(2 * self.tensor.biggest))
        m = m * np.array(self.conj_signs)[None, :, None]
        gram = scalar_rows(m + m.transpose(1, 0, 2), 2 * self.tensor.den)
        self.gram = Matrix(gram)
        # the Gram matrix cleared once: (i, j, re, im) at its nonzero
        # entries over one denominator
        nz, den, rational = _cleared([x for row in gram for x in row])
        self._form = [(*divmod(k, d), re, im) for k, re, im in nz], den, rational
        if check:
            self._check_invariants()

    def _check_invariants(self):
        """On the cells T[i, j, k] = den c_ij^k, s the conjugation signs:
        T[0, i] = T[i, 0] = den e_i; T[i, j, k] s_k = s_i s_j T[j, i, k];
        T[i, i, k] = 0 for k > 0 (x conj(x) = q(x) 1, q read off T)."""
        t, d = self.tensor.dense(), self.dim
        unit = np.zeros_like(t[0])
        unit.reshape(d * d, -1)[:: d + 1, 0] = self.tensor.den
        if (t[0] != unit).any() or (t[:, 0] != unit).any():
            raise ValueError("basis element 0 must be a two-sided unit")
        s, tail = np.array(self.conj_signs), (1,) * (t.ndim - 3)
        if (t * s.reshape((d,) + tail) != np.outer(s, s).reshape((d, d, 1) + tail) * t.swapaxes(0, 1)).any():
            raise ValueError("conjugation is not an antiautomorphism")
        if t[range(d), range(d), 1:].any():
            raise ValueError("x * conj(x) != q(x) * 1 on the basis")

    # -- coordinate-level operations --------------------------------------

    def mul_coords(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> List[Scalar]:
        return self.tensor.product(x, y)

    def conj_coords(self, x: Sequence[Scalar]) -> List[Scalar]:
        return [sc(s) * v for s, v in zip(self.conj_signs, x)]

    def bilinear(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
        return self._pairing(cleared(x), cleared(y))

    def norm_coords(self, x: Sequence[Scalar]) -> Scalar:
        v = cleared(x)
        return self._pairing(v, v)

    def _pairing(self, x: Vec, y: Vec) -> Scalar:
        """<x, y> = sum_ij G_ij x_i y_j for cleared vectors: an integer
        quadratic form on the cleared Gram matrix, divided once."""
        cells, den, rational = self._form
        (xr, xi, dx), (yr, yi, dy) = x, y
        if rational and xi is None and yi is None:
            re, im = sum(g * xr[i] * yr[j] for i, j, g, _ in cells), 0
        else:
            zero = (0,) * self.dim
            xi, yi = xi or zero, yi or zero
            re = im = 0
            for i, j, g, h in cells:
                a, b, c, e = xr[i], xi[i], yr[j], yi[j]
                p, q = a * c - b * e, a * e + b * c
                re += p * g - q * h
                im += p * h + q * g
        return scalar_of((re, im), den * dx * dy)

    # -- elements -----------------------------------------------------------

    def element(self, coords: Sequence) -> "AlgElement":
        return AlgElement(self, coords)

    def unit(self) -> "AlgElement":
        return self.basis(0)

    def basis(self, i: int) -> "AlgElement":
        return AlgElement._of(self, (tuple(int(k == i) for k in range(self.dim)), None, 1))

    def basis_product(self, i: int, j: int) -> List[Scalar]:
        """Product table access shared with the derivation solver."""
        return list(self.table[i][j])

    def random_element(self, rng, height: int = 3, gaussian: bool = True) -> "AlgElement":
        from .scalar import rand_scalar

        return self.element(
            [rand_scalar(rng, height, gaussian) for _ in range(self.dim)]
        )

    def table_json(self) -> list:
        return [
            [[str(c) for c in cell] for cell in row] for row in self.table
        ]

    def __repr__(self):
        return f"CompAlgebra({self.name or self.dim})"


class AlgElement(Element):
    """An element of a CompAlgebra, kept as one cleared vector ``vec`` =
    (re, im, den): integer tuples over one denominator, im None when every
    coordinate is rational, reduced by gcd(den, *re, *im).  Products,
    norms, sums and equality run in Python integers; ``coords``, the Scalar
    coordinates, is built once, on first read."""

    __slots__ = ()

    def __mul__(self, other: "AlgElement") -> "AlgElement":
        return AlgElement._of(self.algebra, self.algebra.tensor.vec_product(self.vec, other.vec))

    def conj(self) -> "AlgElement":
        re, im, den = self.vec
        signs = self.algebra.conj_signs
        return AlgElement._of(self.algebra, (
            tuple(s * v for s, v in zip(signs, re)),
            None if im is None else tuple(s * v for s, v in zip(signs, im)),
            den,
        ))

    def norm(self) -> Scalar:
        return self.algebra._pairing(self.vec, self.vec)

    def real_part(self) -> Scalar:
        return self.algebra._pairing(self.vec, self.algebra.unit().vec)

    def imaginary_part(self) -> "AlgElement":
        return self - self.algebra.unit().scale(self.real_part())

    def is_imaginary(self) -> bool:
        return self.real_part().is_zero()


# -- constructions -------------------------------------------------------------


def ground_field_algebra() -> CompAlgebra:
    """The one-dimensional algebra: the ground field itself."""
    return CompAlgebra([[(ONE,)]], conj_signs=[1], name="R")


def cayley_dickson(base: CompAlgebra, sign: str = STANDARD) -> CompAlgebra:
    """Double a unital algebra with conjugation.

    Product on pairs: (a,b)(c,d) = (ac + eps conj(d) b, b conj(c) + d a),
    eps = -1 for the standard sign and +1 for the split sign.  Conjugation
    doubles as (a,b) -> (conj(a), -b).  The table is read off the base
    tensor's dense cells m[i, j, k] = den c_ij^k (with a trailing (re, im)
    axis) and its conjugation conj(e_j) = s_j e_j.  With d the base
    dimension, the cells of the double are T[i, j, k] = m[i, j, k],
    T[i, d+j, d+k] = m[j, i, k], T[d+i, j, d+k] = s_j m[i, j, k] and
    T[d+i, d+j, k] = eps s_j m[j, i, k], over the same den.
    """
    if sign not in (STANDARD, SPLIT):
        raise ValueError(f"unknown doubling sign {sign!r}")
    d = base.dim
    eps = -1 if sign == STANDARD else 1
    m = base.tensor.dense()
    mt, s = m.transpose(1, 0, 2, 3), np.array(base.conj_signs)[None, :, None, None]
    t = np.zeros((2 * d, 2 * d, 2 * d, m.shape[3]), dtype=m.dtype)
    t[:d, :d, :d], t[:d, d:, d:], t[d:, :d, d:], t[d:, d:, :d] = m, mt, s * m, eps * s * mt
    rows = scalar_rows(t.reshape(4 * d * d, 2 * d, -1), base.tensor.den)
    table = [rows[k:k + 2 * d] for k in range(0, len(rows), 2 * d)]
    signs = [1] + [-1] * (2 * d - 1)
    suffix = "'" if sign == SPLIT else ""
    return CompAlgebra(table, conj_signs=signs, name=f"CD({base.name}){suffix}")


def canonical_octonions() -> CompAlgebra:
    """The octonions with the multiplication read off the oriented Fano
    lines; the bilinear form is the standard orthonormal one."""
    d = 8
    table = [[zero_vec(d) for _ in range(d)] for _ in range(d)]
    for i in range(d):
        table[0][i] = unit_vec(d, i)
        table[i][0] = unit_vec(d, i)
    for i in range(1, d):
        v = zero_vec(d)
        v[0] = sc(-1)
        table[i][i] = v
    for (i, j, k) in FANO_LINES:
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            v = zero_vec(d)
            v[0] = ZERO
            v[c] = ONE
            table[a][b] = v
            w = zero_vec(d)
            w[c] = sc(-1)
            table[b][a] = w
    return CompAlgebra(table, name="O")


def named_algebra(name: str) -> CompAlgebra:
    """Build one of R, C, H, O, split-C, split-H, split-O, sedenion."""
    key = name.strip().lower()
    # key: (doublings of R, sign, name), the name as given when it is empty
    doubled = {"r": (0, STANDARD, "R"), "c": (1, STANDARD, "C"), "h": (2, STANDARD, "H"),
               "o": (3, STANDARD, "O"), "sedenion": (4, STANDARD, "sedenion"),
               "split-c": (1, SPLIT, ""), "split-h": (2, SPLIT, ""), "split-o": (3, SPLIT, "")}
    if key in doubled:
        steps, sign, pretty = doubled[key]
        alg = ground_field_algebra()
        for _ in range(steps):
            alg = cayley_dickson(alg, sign)
        alg.name = pretty or name
        return alg
    if key == "sextonion":
        oct8 = canonical_octonions()
        return sextonions(oct8, standard_null_plane(oct8)).algebra
    raise ValueError(f"unknown algebra name {name!r}")


# -- identity checking -----------------------------------------------------------


@dataclass
class IdentityReport:
    identity: str
    passed: bool
    checked: int
    witness: Optional[tuple] = None


# the degree in each argument, in the order _identity_holds takes them
_DEGREES = {ALTERNATIVE: (2, 1), MOUFANG: (1, 1, 2), NORM_MULT: (2, 2), ASSOCIATIVE: (1, 1, 1)}


def _identity_holds(alg: CompAlgebra, which: str, elems) -> bool:
    if which == ALTERNATIVE:
        x, y = elems
        xx = x * x
        return (
            (x * (x * y)) == (xx * y)
            and ((y * x) * x) == (y * xx)
            and ((x * y) * x) == (x * (y * x))
        )
    if which == MOUFANG:
        x, y, z = elems
        return (
            z * (x * (z * y)) == ((z * x) * z) * y
            and x * (z * (y * z)) == ((x * z) * y) * z
            and (z * x) * (y * z) == (z * (x * y)) * z
        )
    if which == NORM_MULT:
        u, v = elems
        return (u * v).norm() == u.norm() * v.norm()
    if which == ASSOCIATIVE:
        x, y, z = elems
        return (x * y) * z == x * (y * z)
    raise ValueError(f"unknown identity {which!r}")


def check_identities(alg: CompAlgebra, which: str) -> IdentityReport:
    """Prove an identity, or refute it with the first failing tuple as the
    witness, by checking it with each argument on the principal lattice of
    its degree (:func:`~excalg.tensor.lattice`): the identity is homogeneous
    of that degree in that argument, so these tuples decide it."""
    if which not in _DEGREES:
        raise ValueError(f"unknown identity {which!r}")
    points = [[AlgElement._of(alg, (p, None, 1)) for p in lattice(alg.dim, d)]
              for d in _DEGREES[which]]
    checked = 0
    for elems in itertools.product(*points):
        checked += 1
        if not _identity_holds(alg, which, elems):
            return IdentityReport(which, False, checked,
                                  tuple(tuple(str(c) for c in e.coords) for e in elems))
    return IdentityReport(which, True, checked)


# -- cross products ----------------------------------------------------------------


def cross_product(alg: CompAlgebra, u: AlgElement, v: AlgElement) -> AlgElement:
    """Im(uv) for imaginary u, v."""
    if not (u.is_imaginary() and v.is_imaginary()):
        raise ValueError("cross_product requires imaginary arguments")
    return (u * v).imaginary_part()


@dataclass
class CrossProductData:
    """A totally skew product on a quadratic space, by table."""

    dim: int
    gram: Matrix
    table: tuple  # table[i][j] = coords of e_i x e_j

    @staticmethod
    def from_algebra(alg: CompAlgebra) -> "CrossProductData":
        m = alg.dim - 1
        table = []
        for i in range(1, alg.dim):
            row = []
            for j in range(1, alg.dim):
                prod = cross_product(alg, alg.basis(i), alg.basis(j))
                row.append(tuple(prod.coords[1:]))
            table.append(tuple(row))
        gram = Matrix(
            [[alg.gram[i, j] for j in range(1, alg.dim)] for i in range(1, alg.dim)]
        )
        return CrossProductData(m, gram, tuple(table))


def algebra_from_cross(cross: CrossProductData) -> CompAlgebra:
    """The unital algebra on K + V with product
    (s,u)(t,v) = (st - <u,v>, sv + tu + u x v)."""
    m = cross.dim
    d = m + 1
    table = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            s = ONE if i == 0 else ZERO
            t = ONE if j == 0 else ZERO
            u = zero_vec(m) if i == 0 else unit_vec(m, i - 1)
            v = zero_vec(m) if j == 0 else unit_vec(m, j - 1)
            pair = vec_dot(u, cross.gram.apply(v))
            head = s * t - pair
            tail = vec_add(vec_scale(s, v), vec_scale(t, u))
            if i > 0 and j > 0:
                tail = vec_add(tail, list(cross.table[i - 1][j - 1]))
            table[i][j] = [head] + tail
    return CompAlgebra(table, name="from-cross")


# -- octonionic geometry -------------------------------------------------------------


def _imaginary_to_full(alg: CompAlgebra, v7: Sequence[Scalar]) -> List[Scalar]:
    return [ZERO] + list(v7)


def _full_to_imaginary(v: Sequence[Scalar]) -> List[Scalar]:
    if not v[0].is_zero():
        raise ValueError("vector is not imaginary")
    return list(v[1:])


def left_mult_matrix(alg: CompAlgebra, x: AlgElement) -> Matrix:
    cols = [alg.mul_coords(x.coords, unit_vec(alg.dim, j)) for j in range(alg.dim)]
    return Matrix.from_cols(cols)


def right_mult_matrix(alg: CompAlgebra, x: AlgElement) -> Matrix:
    cols = [alg.mul_coords(unit_vec(alg.dim, j), x.coords) for j in range(alg.dim)]
    return Matrix.from_cols(cols)


def left_mult_kernel(
    alg: CompAlgebra, x: AlgElement, restrict_to_imaginary: bool = False
) -> Subspace:
    """Kernel of left multiplication by an isotropic element.

    With ``restrict_to_imaginary`` the kernel K_x of L_x on the imaginary
    part is returned, in imaginary coordinates (ambient dim - 1).
    """
    if x.is_zero() or not x.norm().is_zero():
        raise NonIsotropic("left_mult_kernel requires a nonzero norm-zero element")
    m = left_mult_matrix(alg, x)
    if not restrict_to_imaginary:
        return kernel(m)
    # domain restricted to imaginary coordinates, range projected off nothing
    sub = Matrix([[m[i, j] for j in range(1, alg.dim)] for i in range(alg.dim)])
    return kernel(sub)


def is_null_plane(alg: CompAlgebra, plane: Subspace) -> bool:
    """True iff all products of a basis of the two-plane vanish."""
    if plane.dim != 2:
        raise ValueError("is_null_plane expects a two-dimensional subspace")
    basis = _subspace_basis_full(alg, plane)
    # bilinearity: vanishing on a basis is sufficient
    for u in basis:
        for v in basis:
            if not is_zero_vec(alg.mul_coords(u, v)):
                return False
    return True


def _subspace_basis_full(alg: CompAlgebra, space: Subspace) -> List[List[Scalar]]:
    if space.ambient == alg.dim:
        return [list(v) for v in space.basis]
    if space.ambient == alg.dim - 1:
        return [_imaginary_to_full(alg, v) for v in space.basis]
    raise ValueError("subspace ambient dimension matches neither A nor Im A")


def standard_null_plane(alg: CompAlgebra) -> Subspace:
    """The reference null-plane span{e4 + i e5, e6 - i e7} of the complex
    octonions (for the Fano-plane table used here)."""
    v1 = zero_vec(8)
    v1[4] = ONE
    v1[5] = I
    v2 = zero_vec(8)
    v2[6] = ONE
    v2[7] = -I
    return Subspace(8, [v1, v2])


R4_QUATERNION = "R4_QUATERNION"
R2_NULLPLANE = "R2_NULLPLANE"
R1_LINE = "R1_LINE"


@dataclass
class FourSubalgebraClass:
    label: str
    q_rank: int
    witness: Optional[Subspace] = None


def classify_four_subalgebra(alg: CompAlgebra, sub: Subspace) -> FourSubalgebraClass:
    """Classify a four-dimensional unital subalgebra by the rank of the
    restricted norm form; the witness is the unique null-plane (rank 2) or
    isotropic line (rank 1)."""
    if sub.ambient != alg.dim or sub.dim != 4:
        raise ValueError("expected a four-dimensional subspace of the algebra")
    if not sub.contains(unit_vec(alg.dim, 0)):
        raise NotSubalgebra("subalgebra must contain the unit")
    basis = [list(v) for v in sub.basis]
    for u in basis:
        for v in basis:
            if not sub.contains(alg.mul_coords(u, v)):
                raise NotSubalgebra("subspace is not closed under multiplication")
    gram = Matrix([[alg.bilinear(u, v) for v in basis] for u in basis])
    from .linalg import rank as _rank

    r = _rank(gram)
    if r == 4:
        return FourSubalgebraClass(R4_QUATERNION, 4)
    rad = kernel(gram)
    rad_vectors = []
    for w in rad.basis:
        x = zero_vec(alg.dim)
        for c, b in zip(w, basis):
            x = vec_add(x, vec_scale(c, b))
        rad_vectors.append(x)
    radical = Subspace(alg.dim, rad_vectors)
    if r == 2:
        return FourSubalgebraClass(R2_NULLPLANE, 2, witness=radical)
    if r == 1:
        # the line annihilating Im(A) by multiplication
        im_basis = [v for v in basis if ZERO == alg.bilinear(v, unit_vec(alg.dim, 0))]
        # solve for y in the radical with y * Im(A) = 0
        cols = rad_vectors
        eqs = []
        for target in im_basis:
            prod_cols = [alg.mul_coords(x, target) for x in cols]
            for coord in range(alg.dim):
                eqs.append([pc[coord] for pc in prod_cols])
        line_coeff = kernel(Matrix(eqs))
        line_vectors = []
        for w in line_coeff.basis:
            x = zero_vec(alg.dim)
            for c, col in zip(w, cols):
                x = vec_add(x, vec_scale(c, col))
            line_vectors.append(x)
        return FourSubalgebraClass(R1_LINE, 1, witness=Subspace(alg.dim, line_vectors))
    raise NotSubalgebra(f"norm rank {r} does not occur for a 4-dim subalgebra")


def is_lie_two_plane(alg: CompAlgebra, plane: Subspace) -> bool:
    """True iff a plane P = <x,y> in the imaginary part is closed under the
    skew product: xy lies in span{1, x, y}.

    Cross-checked against the rank-drop criterion: the two-form obtained by
    contracting the coassociative four-form with x and y has rank at most 2
    exactly on such planes.
    """
    if plane.dim != 2:
        raise ValueError("expected a two-dimensional subspace")
    basis = _subspace_basis_full(alg, plane)
    for v in basis:
        if not v[0].is_zero():
            raise ValueError("plane must lie in the imaginary part")
    x, y = basis
    span = Subspace(alg.dim, [unit_vec(alg.dim, 0), x, y])
    primary = span.contains(alg.mul_coords(x, y))

    star = coassociative_form(alg)
    x7 = _full_to_imaginary(x)
    y7 = _full_to_imaginary(y)
    gamma = fm.contract(y7, fm.contract(x7, star))
    rank_drop = fm.two_form_rank(gamma) <= 2
    if primary != rank_drop:
        raise AssertionError("rank-drop criterion disagrees with closure test")
    return primary


def associative_form(alg: CompAlgebra) -> fm.KForm:
    """The invariant three-form <Im(xy), z> on the imaginary part."""
    if alg.dim != 8:
        raise ValueError("associative_form expects an eight-dimensional algebra")
    items = []
    for i in range(1, 8):
        for j in range(i + 1, 8):
            prod = alg.mul_coords(unit_vec(8, i), unit_vec(8, j))
            for k in range(j + 1, 8):
                c = alg.bilinear(prod, unit_vec(8, k))
                if not c.is_zero():
                    items.append(((i, j, k), c))
    return fm.KForm.from_terms(3, 7, items)


def coassociative_form(alg: CompAlgebra) -> fm.KForm:
    return fm.hodge_star(associative_form(alg))


@dataclass
class SextonionResult:
    algebra: CompAlgebra
    inclusion: Matrix  # columns embed the 6-dim algebra into the octonions
    q_rank: int
    model_iso: Optional[Matrix]  # basis map onto the 2x2-matrix model


def model_sextonion_product(a: Sequence[Scalar], b: Sequence[Scalar]) -> List[Scalar]:
    """Product on M2 + K^2 coordinates (A11,A12,A21,A22,v1,v2):
    (A,v)(B,w) = (AB, tr(A)w - Aw + Bv)."""
    a11, a12, a21, a22, v1, v2 = a
    b11, b12, b21, b22, w1, w2 = b
    c11 = a11 * b11 + a12 * b21
    c12 = a11 * b12 + a12 * b22
    c21 = a21 * b11 + a22 * b21
    c22 = a21 * b12 + a22 * b22
    tr_a = a11 + a22
    u1 = tr_a * w1 - (a11 * w1 + a12 * w2) + (b11 * v1 + b12 * v2)
    u2 = tr_a * w2 - (a21 * w1 + a22 * w2) + (b21 * v1 + b22 * v2)
    return [c11, c12, c21, c22, u1, u2]


def sextonions(alg: CompAlgebra, null_plane: Subspace) -> SextonionResult:
    """The six-dimensional subalgebra orthogonal to a null-plane.

    Verifies closure, returns the multiplication table on a basis
    (unit, quaternion frame, null-plane), the rank of the restricted norm,
    and an explicit isomorphism onto the matrix model when a rational
    quaternion frame exists.
    """
    if not is_null_plane(alg, null_plane):
        raise ValueError("sextonions requires a null-plane")
    d = alg.dim
    np_full = Subspace(d, _subspace_basis_full(alg, null_plane))
    # orthogonal complement w.r.t. the bilinear form
    rows = [alg.gram.apply(list(v)) for v in np_full.basis]
    s_space = kernel(Matrix(rows))
    if s_space.dim != 6:
        raise ValueError("null-plane complement has unexpected dimension")
    frame = _quaternion_frame_in(alg, s_space)
    basis = [unit_vec(d, 0)] + frame + [list(v) for v in np_full.basis]
    # change to the chosen basis must still span S
    if Subspace(d, basis).dim != 6:
        raise NeedsExtension("could not assemble a rational basis of the sextonions")
    # the 36 products at once, cleared over one denominator with the basis;
    # their certified coordinates are the closure check
    products = [alg.mul_coords(u, v) for u in basis for v in basis]
    ints, _ = cleared_ints((x for v in basis + products for x in v), (42, d))
    solved = span_coordinates(ints[:6], ints[6:])
    if solved is None:
        raise NotSubalgebra("product left the subalgebra")
    coords = scalar_rows(*solved)
    sub = CompAlgebra([coords[6 * a:6 * a + 6] for a in range(6)], name="sextonion")
    from .linalg import rank as _rank

    q_rank = _rank(Matrix([[alg.bilinear(u, v) for v in basis] for u in basis]))
    iso = _sextonion_model_iso(sub)
    return SextonionResult(sub, Matrix.from_cols(basis), q_rank, iso)


def _quaternion_frame_in(alg: CompAlgebra, s_space: Subspace) -> List[List[Scalar]]:
    """Search a frame u1, u2, u3 = u1 u2 of unit-norm imaginary elements
    inside the subalgebra; raises NeedsExtension when no small rational
    frame exists."""
    d = alg.dim
    unit = unit_vec(d, 0)
    im_basis = []
    for v in s_space.basis:
        w = list(v)
        # project off the unit direction
        r = alg.bilinear(w, unit)
        w[0] = w[0] - r
        if not is_zero_vec(w):
            im_basis.append(w)
    im_space = Subspace(d, im_basis)
    candidates = []
    coeff_choices = [ZERO, ONE, sc(-1), I, -I]
    base = [list(v) for v in im_space.basis]
    for i, v in enumerate(base):
        for c in coeff_choices[1:]:
            candidates.append(vec_scale(c, v))
        for j in range(i + 1, len(base)):
            for c in coeff_choices[1:3]:
                candidates.append(vec_add(v, vec_scale(c, base[j])))
    found = []
    for v in candidates:
        if alg.norm_coords(v) == ONE and alg.bilinear(v, unit).is_zero():
            ok_orth = all(alg.bilinear(v, u).is_zero() for u in found)
            if ok_orth and Subspace(d, found + [v]).dim == len(found) + 1:
                found.append(v)
        if len(found) == 2:
            break
    if len(found) < 2:
        raise NeedsExtension("no rational quaternion frame in the subalgebra")
    u1, u2 = found
    u3 = alg.mul_coords(u1, u2)
    return [u1, u2, u3]


def _sextonion_model_iso(sub: CompAlgebra) -> Optional[Matrix]:
    """Solve for a basis map from the (1, u1, u2, u3, n1, n2) table onto the
    matrix model; None when the linear system has no invertible solution."""
    # images of the quaternion part: 1, i sigma_z, i sigma_y, i sigma_x
    q_images = {
        0: [ONE, ZERO, ZERO, ONE],
        1: [I, ZERO, ZERO, -I],
        2: [ZERO, ONE, sc(-1), ZERO],
        3: [ZERO, I, I, ZERO],
    }
    # unknown phi: 2x2 matrix sending (n1, n2) coordinates to model K^2
    # equations: phi(h * n) = (tr(Ah) I - Ah) phi(n), phi(n * h) = Bh phi(n)
    rows = []
    for h in range(4):
        a = q_images[h]
        tr_minus = [
            a[3],        # tr - a11
            -a[1],
            -a[2],
            a[0],        # tr - a22
        ]
        for n in (4, 5):
            prod = sub.basis_product(h, n)
            if any(not prod[k].is_zero() for k in range(4)):
                return None
            # phi(prod)_r = sum_s M_r_s(phi columns)...
            for r in range(2):
                # unknowns phi[r][c] for c in 0,1 stacked as [p00,p01,p10,p11]
                row = [ZERO] * 4
                # lhs: phi applied to prod (coords in n-basis)
                for c, src in enumerate((4, 5)):
                    row[2 * r + c] = row[2 * r + c] + prod[src]
                # rhs: (trA - A) e_{n-col} selects phi column (n-4)
                m = tr_minus
                coeff = [m[2 * r], m[2 * r + 1]]
                for rr in range(2):
                    row[2 * rr + (n - 4)] = row[2 * rr + (n - 4)] - coeff[rr]
                rows.append(row)
            prod2 = sub.basis_product(n, h)
            if any(not prod2[k].is_zero() for k in range(4)):
                return None
            for r in range(2):
                row = [ZERO] * 4
                for c, src in enumerate((4, 5)):
                    row[2 * r + c] = row[2 * r + c] + prod2[src]
                bm = a
                coeff = [bm[2 * r], bm[2 * r + 1]]
                for rr in range(2):
                    row[2 * rr + (n - 4)] = row[2 * rr + (n - 4)] - coeff[rr]
                rows.append(row)
    phi_space = kernel(Matrix(rows))
    for w in phi_space.basis:
        phi = Matrix([[w[0], w[1]], [w[2], w[3]]])
        if not phi.det().is_zero():
            cols = []
            for b in range(6):
                if b < 4:
                    img = q_images[b] + [ZERO, ZERO]
                else:
                    img = [ZERO] * 4 + [phi[0, b - 4], phi[1, b - 4]]
                cols.append(img)
            iso = Matrix.from_cols(cols)
            if _check_model_iso(sub, iso):
                return iso
    return None


def _check_model_iso(sub: CompAlgebra, iso: Matrix) -> bool:
    for i in range(6):
        for j in range(6):
            lhs = iso.apply(sub.basis_product(i, j))
            rhs = model_sextonion_product(iso.col(i), iso.col(j))
            if lhs != rhs:
                return False
    return True


def maximal_isotropic_from_divisor(
    alg: CompAlgebra, p: AlgElement, side: str = "left"
) -> Subspace:
    """Image of left or right multiplication by a zero divisor: a maximal
    isotropic subspace."""
    if p.is_zero() or not p.norm().is_zero():
        raise NonIsotropic("requires a nonzero norm-zero element")
    m = left_mult_matrix(alg, p) if side == "left" else right_mult_matrix(alg, p)
    cols = [m.col(j) for j in range(alg.dim)]
    return Subspace(alg.dim, cols)


def basic_triple_isomorphism(
    alg: CompAlgebra, x: AlgElement, y: AlgElement, z: AlgElement
) -> Matrix:
    """The isomorphism onto the canonical octonion table generated by a
    basic triple: unit-norm imaginary x, y orthogonal, z orthogonal to the
    subalgebra generated by x and y.  Verified entrywise."""
    canon = canonical_octonions()
    images = [
        alg.unit(),
        x,
        y,
        x * y,
        z,
        z * x,
        z * y,
        z * (x * y),
    ]
    iso = Matrix.from_cols([list(e.coords) for e in images])
    for i in range(8):
        for j in range(8):
            lhs = alg.mul_coords(list(images[i].coords), list(images[j].coords))
            rhs = zero_vec(8)
            for k, c in enumerate(canon.table[i][j]):
                if not c.is_zero():
                    rhs = vec_add(rhs, vec_scale(c, list(images[k].coords)))
            if lhs != rhs:
                raise ValueError("not a basic triple: table mismatch")
    return iso


def random_isotropic_imaginary(alg: CompAlgebra, rng, height: int = 4) -> AlgElement:
    """A random nonzero isotropic imaginary element, via the line
    parametrization of the quadric through a fixed rational point."""
    d = alg.dim
    p0 = zero_vec(d)
    p0[4] = ONE
    p0[5] = I
    from .scalar import rand_scalar

    while True:
        y = [ZERO] + [rand_scalar(rng, height, gaussian=True) for _ in range(d - 1)]
        qy = alg.norm_coords(y)
        if qy.is_zero():
            continue
        t = sc(-2) * alg.bilinear(p0, y) / qy
        if t.is_zero():
            continue
        x = vec_add(p0, vec_scale(t, y))
        if not is_zero_vec(x):
            assert alg.norm_coords(x).is_zero()
            return alg.element(x)
