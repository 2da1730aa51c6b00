"""Spinors for the seven-dimensional quadratic space split as
E + F + <u>, realized on the exterior algebra of F.

Basis order of the vector space: e1, e2, e3, f1, f2, f3, u, with the
bilinear form B(e_i, f_j) = -1/2 delta_ij and B(u, u) = 1 (the hyperbolic
form of the split quadric, halved so that the Clifford relation
x(ys) + y(xs) = 2 B(x,y) s admits rational coefficients: e acts by the
negated contraction, f by the wedge, and u by parity).

Spinor coordinates are indexed by the subsets of {1,2,3} in the order
(), (1), (2), (3), (12), (13), (23), (123).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from . import forms as fm
from .linalg import Matrix, Subspace, kernel, unit_vec, zero_vec
from .scalar import ONE, ZERO, Scalar, sc

SUBSETS: Tuple[Tuple[int, ...], ...] = (
    (),
    (1,),
    (2,),
    (3,),
    (1, 2),
    (1, 3),
    (2, 3),
    (1, 2, 3),
)
_SUBSET_INDEX = {s: i for i, s in enumerate(SUBSETS)}

DIM_V = 7
DIM_SPINOR = 8


@dataclass(frozen=True)
class Spinor:
    coords: tuple

    def __init__(self, coords: Sequence):
        cs = tuple(sc(c) for c in coords)
        if len(cs) != DIM_SPINOR:
            raise ValueError("spinor has eight coordinates")
        object.__setattr__(self, "coords", cs)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other):
        return Spinor([a + b for a, b in zip(self.coords, other.coords)])

    def scale(self, c):
        c = sc(c)
        return Spinor([c * x for x in self.coords])

    @staticmethod
    def vacuum() -> "Spinor":
        return Spinor(unit_vec(8, 0))

    @staticmethod
    def top() -> "Spinor":
        return Spinor(unit_vec(8, 7))

    @staticmethod
    def basis(subset: Tuple[int, ...]) -> "Spinor":
        return Spinor(unit_vec(8, _SUBSET_INDEX[tuple(subset)]))


def bilinear_gram() -> Matrix:
    """Gram of the quadratic form on E + F + <u>."""
    half = sc(1) / sc(2)
    m = [[ZERO] * 7 for _ in range(7)]
    for i in range(3):
        m[i][3 + i] = -half
        m[3 + i][i] = -half
    m[6][6] = ONE
    return Matrix(m)


def _wedge_f(i: int, subset: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    if i in subset:
        return subset, 0
    pos = sum(1 for t in subset if t < i)
    out = tuple(sorted(subset + (i,)))
    return out, (-1) ** pos


def _contract_f(i: int, subset: Tuple[int, ...]) -> Tuple[Tuple[int, ...], int]:
    if i not in subset:
        return subset, 0
    pos = subset.index(i)
    out = subset[:pos] + subset[pos + 1 :]
    return out, (-1) ** pos


def clifford_act(v: Sequence, s: Spinor) -> Spinor:
    """Clifford action of a vector: contraction for E, wedge for F, parity
    for the odd direction, with x(ys) + y(xs) = 2 B(x,y) s on the basis."""
    v = [sc(c) for c in v]
    if len(v) != DIM_V:
        raise ValueError("vector must have seven coordinates")
    out = zero_vec(8)
    for idx, c in enumerate(s.coords):
        if c.is_zero():
            continue
        subset = SUBSETS[idx]
        for i in range(3):
            a = v[i]
            if not a.is_zero():
                tgt, sign = _contract_f(i + 1, subset)
                if sign:
                    out[_SUBSET_INDEX[tgt]] = out[_SUBSET_INDEX[tgt]] - sc(sign) * a * c
            b = v[3 + i]
            if not b.is_zero():
                tgt, sign = _wedge_f(i + 1, subset)
                if sign:
                    out[_SUBSET_INDEX[tgt]] = out[_SUBSET_INDEX[tgt]] + sc(sign) * b * c
        if not v[6].is_zero():
            parity = 1 if len(subset) % 2 == 0 else -1
            out[idx] = out[idx] + sc(parity) * v[6] * c
    return Spinor(out)


def clifford_relation_holds() -> int:
    """Exhaustive Clifford-relation check on all basis pairs and basis
    spinors; returns the number of identities verified."""
    gram = bilinear_gram()
    count = 0
    for a in range(7):
        va = unit_vec(7, a)
        for b in range(7):
            vb = unit_vec(7, b)
            for s_idx in range(8):
                s = Spinor(unit_vec(8, s_idx))
                lhs = clifford_act(va, clifford_act(vb, s)) + clifford_act(
                    vb, clifford_act(va, s)
                )
                rhs = s.scale(sc(2) * gram[a, b])
                if lhs.coords != rhs.coords:
                    raise AssertionError(f"Clifford relation fails at ({a},{b},{s_idx})")
                count += 1
    return count


def pure_spinor_kernel(s: Spinor) -> Subspace:
    """{ v : v . s = 0 }; three-dimensional and isotropic exactly for pure
    spinors."""
    if s.is_zero():
        raise ValueError("kernel of the zero spinor is everything")
    cols = [clifford_act(unit_vec(7, j), s).coords for j in range(7)]
    return kernel(Matrix.from_cols([list(c) for c in cols]))


def spinor_pairing(x: Spinor, y: Spinor) -> Scalar:
    """The invariant pairing, pairing a subset with its complement under
    the sign (-1)^(sum of the subset).

    This is the one-dimensional solution of the invariance equations
    <v.x, y> = -<x, v.y>; it is symmetric, an exterior-algebra realization
    of the self-duality of the odd spinor representation.
    """
    total = ZERO
    for idx, cx in enumerate(x.coords):
        if cx.is_zero():
            continue
        sub = SUBSETS[idx]
        comp = tuple(t for t in (1, 2, 3) if t not in sub)
        cy = y.coords[_SUBSET_INDEX[comp]]
        if cy.is_zero():
            continue
        total = total + sc((-1) ** sum(sub)) * cx * cy
    return total


def pairing_invariance_holds() -> bool:
    """<v.x, y> + <x, v.y> = 0 on all basis triples."""
    for vi in range(7):
        v = unit_vec(7, vi)
        for xi in range(8):
            x = Spinor(unit_vec(8, xi))
            vx = clifford_act(v, x)
            for yi in range(8):
                y = Spinor(unit_vec(8, yi))
                if not (
                    spinor_pairing(vx, y) + spinor_pairing(x, clifford_act(v, y))
                ).is_zero():
                    return False
    return True


def omega_chi(chi: Spinor) -> fm.KForm:
    """The trivector x,y,z -> <x.(y.(z.chi)), chi>, alternated; quadratic
    in the spinor."""
    def t(x, y, z):
        return spinor_pairing(
            clifford_act(x, clifford_act(y, clifford_act(z, chi))), chi
        )

    items = []
    for i in range(1, 8):
        for j in range(i + 1, 8):
            for k in range(j + 1, 8):
                vi, vj, vk = unit_vec(7, i - 1), unit_vec(7, j - 1), unit_vec(7, k - 1)
                total = (
                    t(vi, vj, vk)
                    - t(vi, vk, vj)
                    + t(vj, vk, vi)
                    - t(vj, vi, vk)
                    + t(vk, vi, vj)
                    - t(vk, vj, vi)
                )
                coeff = total / sc(6)
                if not coeff.is_zero():
                    items.append(((i, j, k), coeff))
    return fm.KForm.from_terms(3, 7, items)
