import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from excalg import composition as co
from excalg import forms as fm
from excalg.linalg import (
    Matrix,
    Subspace,
    gram_matrix,
    is_zero_vec,
    kernel,
    rank,
    unit_vec,
    vec_add,
    vec_scale,
    zero_vec,
)
from excalg.scalar import I, ONE, ZERO, sc


class TestFanoTable:
    def test_oriented_lines(self, octonions):
        assert octonions.basis(1) * octonions.basis(2) == octonions.basis(3)
        assert octonions.basis(5) * octonions.basis(7) == octonions.basis(2)
        assert octonions.basis(2) * octonions.basis(1) == octonions.basis(3).scale(-1)

    def test_imaginary_units_square_to_minus_one(self, octonions):
        for i in range(1, 8):
            assert octonions.basis(i) * octonions.basis(i) == octonions.unit().scale(-1)

    def test_conjugation_antiautomorphism(self, octonions):
        for i in range(8):
            for j in range(8):
                x, y = octonions.basis(i), octonions.basis(j)
                assert (x * y).conj() == y.conj() * x.conj()

    def test_orthonormal_gram(self, octonions):
        assert octonions.gram == Matrix.identity(8)


COMPLEX = [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]


def corrupted(table, i, j, cell):
    """A copy of a table with the product e_i e_j replaced by cell."""
    table = [[list(c) for c in row] for row in table]
    table[i][j] = cell
    return table


class TestInvariantChecks:
    @pytest.mark.parametrize("table, signs, message", [
        # e0 e1 = 2 e1, and over O e3 e0 = -e3
        (corrupted(COMPLEX, 0, 1, [0, 2]), None, "two-sided unit"),
        (lambda: corrupted(co.canonical_octonions().table, 3, 0, [0, 0, 0, -1, 0, 0, 0, 0]), None,
         "two-sided unit"),
        # e1 e1 = -e0 + e1 with conj e1 = -e1, and over O e1 e2 = -e3 (e2 e1 is -e3 too)
        (corrupted(COMPLEX, 1, 1, [-1, 1]), None, "antiautomorphism"),
        (lambda: corrupted(co.canonical_octonions().table, 1, 2, [0, 0, 0, -1, 0, 0, 0, 0]), None,
         "antiautomorphism"),
        # e1 e1 = -e0 + e1 with conj e1 = e1: commutative, so only the norm breaks
        (corrupted(COMPLEX, 1, 1, [-1, 1]), [1, 1], "x * conj(x) != q(x) * 1"),
        (corrupted(COMPLEX, 1, 1, [-1, I]), [1, 1], "x * conj(x) != q(x) * 1"),
    ])
    def test_corrupted_table_names_its_broken_property(self, table, signs, message):
        table = table() if callable(table) else table
        with pytest.raises(ValueError, match=re.escape(message)):
            co.CompAlgebra(table, conj_signs=signs)
        co.CompAlgebra(table, conj_signs=signs, check=False)


def doubled_reference(base, sign):
    """The table of the double from the pair formula (a,b)(c,d) = (ac + eps
    conj(d) b, b conj(c) + d a), in Scalar products over the base."""
    d, eps = base.dim, sc(-1 if sign == co.STANDARD else 1)
    pairs = [(unit_vec(d, i), zero_vec(d)) for i in range(d)] + [(zero_vec(d), unit_vec(d, i)) for i in range(d)]
    mul, conj = base.mul_coords, base.conj_coords
    return tuple(
        tuple(tuple([p + eps * q for p, q in zip(mul(a, c), mul(conj(e), b))]
                    + [p + q for p, q in zip(mul(b, conj(c)), mul(e, a))])
              for c, e in pairs)
        for a, b in pairs
    )


class TestCayleyDickson:
    @pytest.mark.parametrize("sign", [co.STANDARD, co.SPLIT])
    def test_table_matches_pair_formula(self, sign):
        # every doubling up to dimension 16, and a base with a Gaussian constant
        # (K[u], u^2 = -2i)
        bases = [co.CompAlgebra([[[1, 0], [0, 1]], [[0, 1], [sc(-2) * I, 0]]], name="gaussian-C")]
        base = co.ground_field_algebra()
        while base.dim < 16:
            bases.append(base)
            base = co.cayley_dickson(base, sign)
        for b in bases:
            doubled = co.cayley_dickson(b, sign)
            assert doubled.table == doubled_reference(b, sign)
            assert doubled.name == f"CD({b.name})" + ("'" if sign == co.SPLIT else "")
            # the Gram matrix read off the cells: (x conj(y) + y conj(x)) / 2
            units = [unit_vec(doubled.dim, i) for i in range(doubled.dim)]
            mul, conj = doubled.mul_coords, doubled.conj_coords
            assert doubled.gram == Matrix([[(mul(u, conj(v))[0] + mul(v, conj(u))[0]) / 2 for v in units]
                                           for u in units])

    def test_standard_doubling_complex(self):
        c = co.cayley_dickson(co.ground_field_algebra(), co.STANDARD)
        assert c.basis(1) * c.basis(1) == c.unit().scale(-1)

    def test_split_doubling(self):
        c = co.cayley_dickson(co.ground_field_algebra(), co.SPLIT)
        assert c.basis(1) * c.basis(1) == c.unit()

    def test_doubled_quaternions_are_octonions(self, quaternions):
        doubled = co.cayley_dickson(quaternions, co.STANDARD)
        iso = co.basic_triple_isomorphism(
            doubled, doubled.basis(1), doubled.basis(2), doubled.basis(4)
        )
        assert not iso.det().is_zero()

    def test_bad_triple_rejected(self, octonions):
        with pytest.raises(ValueError):
            co.basic_triple_isomorphism(
                octonions, octonions.basis(1), octonions.basis(1), octonions.basis(4)
            )


def witness_elements(alg, rep):
    return tuple(alg.element([sc(c) for c in w]) for w in rep.witness)


class TestIdentities:
    def test_octonions_pass(self, octonions):
        # every tuple of the lattices of degrees (2, 1), (1, 1, 2), (2, 2):
        # 36 points of degree 2 and 8 of degree 1
        reps = [co.check_identities(octonions, w) for w in (co.ALTERNATIVE, co.MOUFANG, co.NORM_MULT)]
        assert all(r.passed and r.witness is None for r in reps)
        assert [r.checked for r in reps] == [36 * 8, 8 * 8 * 36, 36 * 36]

    def test_quaternions_associative(self, quaternions):
        rep = co.check_identities(quaternions, co.ASSOCIATIVE)
        assert rep.passed and rep.checked == 4 ** 3

    def test_octonions_not_associative(self, octonions):
        rep = co.check_identities(octonions, co.ASSOCIATIVE)
        assert not rep.passed
        x, y, z = witness_elements(octonions, rep)
        assert (x, y, z) == (octonions.basis(1), octonions.basis(2), octonions.basis(4))
        assert (x * y) * z != x * (y * z)

    def test_sedenions_fail_norm(self):
        # no pair of basis vectors breaks norm multiplicativity; the first
        # lattice pair that does is (e1 + e10, e4 + e15)
        sed = co.named_algebra("sedenion")
        assert all(
            co._identity_holds(sed, co.NORM_MULT, (sed.basis(i), sed.basis(j)))
            for i in range(16) for j in range(16)
        )
        rep = co.check_identities(sed, co.NORM_MULT)
        u, v = witness_elements(sed, rep)
        assert not rep.passed
        assert (u, v) == (sed.basis(1) + sed.basis(10), sed.basis(4) + sed.basis(15))
        assert (u * v).norm() != u.norm() * v.norm()

    def test_unknown_identity_rejected(self, octonions):
        with pytest.raises(ValueError):
            co.check_identities(octonions, "commutative")

    @pytest.mark.parametrize("which", [co.ALTERNATIVE, co.MOUFANG, co.NORM_MULT])
    def test_corrupted_table_fails(self, corrupted_octonions, which):
        bad = corrupted_octonions
        rep = co.check_identities(bad, which)
        assert not rep.passed
        elems = witness_elements(bad, rep)
        # a lattice tuple: nonnegative integer coordinates of sum the degree
        degrees = tuple(sum(e.vec[0]) for e in elems if e.vec[2] == 1 and min(e.vec[0]) >= 0)
        assert degrees == co._DEGREES[which]
        assert not co._identity_holds(bad, which, elems)
        # the differential check: random elements of the same table fail too
        rng = random.Random(0)
        assert not co._identity_holds(bad, which, [bad.random_element(rng) for _ in elems])

    def test_norm_multiplicativity_random(self, octonions):
        rng = random.Random(1)
        for _ in range(60):
            u = octonions.random_element(rng)
            v = octonions.random_element(rng)
            assert (u * v).norm() == u.norm() * v.norm()


class TestCrossProduct:
    def test_fano_line(self, octonions):
        got = co.cross_product(octonions, octonions.basis(1), octonions.basis(2))
        assert got == octonions.basis(3)

    def test_self_cross_zero(self, octonions):
        rng = random.Random(2)
        u = octonions.random_element(rng).imaginary_part()
        assert co.cross_product(octonions, u, u).is_zero()

    def test_non_imaginary_rejected(self, octonions):
        with pytest.raises(ValueError):
            co.cross_product(octonions, octonions.unit(), octonions.basis(2))

    def test_magnitude_condition(self, octonions):
        rng = random.Random(3)
        for _ in range(25):
            u = octonions.random_element(rng).imaginary_part()
            v = octonions.random_element(rng).imaginary_part()
            lhs = co.cross_product(octonions, u, v).norm()
            rhs = u.norm() * v.norm() - octonions.bilinear(u.coords, v.coords) ** 2
            assert lhs == rhs

    def test_roundtrip_octonions(self, octonions):
        rebuilt = co.algebra_from_cross(co.CrossProductData.from_algebra(octonions))
        assert rebuilt.table == octonions.table

    def test_roundtrip_quaternions(self, quaternions):
        rebuilt = co.algebra_from_cross(co.CrossProductData.from_algebra(quaternions))
        assert rebuilt.table == quaternions.table

    def test_zero_cross_gives_ground_field(self):
        data = co.CrossProductData(0, Matrix.zero(0, 0), tuple())
        assert co.algebra_from_cross(data).dim == 1


class TestZeroDivisors:
    def test_left_kernel_requires_isotropic(self, octonions):
        with pytest.raises(co.NonIsotropic):
            co.left_mult_kernel(octonions, octonions.basis(1))

    def test_kernel_dim_and_membership(self, octonions):
        x = octonions.element([0, 0, 0, 0, 1, "i", 0, 0])
        k = co.left_mult_kernel(octonions, x, restrict_to_imaginary=True)
        assert k.dim == 3
        assert k.contains(list(x.coords[1:]))

    def test_kernel_equals_form_contraction(self, octonions):
        w = co.associative_form(octonions)
        rng = random.Random(4)
        for _ in range(50):
            x = co.random_isotropic_imaginary(octonions, rng)
            k = co.left_mult_kernel(octonions, x, restrict_to_imaginary=True)
            k2 = kernel(fm.two_form_matrix(fm.contract(list(x.coords[1:]), w)))
            assert k == k2

    def test_kernel_equals_left_ideal_intersection(self, octonions):
        rng = random.Random(5)
        for _ in range(50):
            x = co.random_isotropic_imaginary(octonions, rng)
            k = co.left_mult_kernel(octonions, x, restrict_to_imaginary=True)
            image = co.maximal_isotropic_from_divisor(octonions, x, "left")
            imaginary = Subspace(8, [unit_vec(8, i) for i in range(1, 8)])
            meet = image.intersect(imaginary)
            k_full = Subspace(8, [[ZERO] + list(v) for v in k.basis])
            assert meet == k_full

    def test_zero_divisors_iff_norm_zero(self, octonions):
        rng = random.Random(6)
        for _ in range(60):
            x = octonions.random_element(rng, height=2)
            mat = co.left_mult_matrix(octonions, x)
            has_kernel = kernel(mat).dim > 0
            assert has_kernel == x.norm().is_zero()


class TestNullPlanes:
    def test_standard_plane(self, octonions):
        assert co.is_null_plane(octonions, co.standard_null_plane(octonions))

    def test_coordinate_plane_is_not(self, octonions):
        p = Subspace(8, [unit_vec(8, 1), unit_vec(8, 2)])
        assert not co.is_null_plane(octonions, p)

    def test_wrong_dimension(self, octonions):
        with pytest.raises(ValueError):
            co.is_null_plane(octonions, Subspace(8, [unit_vec(8, 1)]))

    def test_planes_through_x_in_kernel_are_null(self, octonions):
        rng = random.Random(7)
        for _ in range(10):
            x = co.random_isotropic_imaginary(octonions, rng)
            k = co.left_mult_kernel(octonions, x, restrict_to_imaginary=True)
            x7 = list(x.coords[1:])
            other = None
            for v in k.basis:
                cand = Subspace(7, [x7, list(v)])
                if cand.dim == 2:
                    other = cand
                    break
            assert other is not None and co.is_null_plane(octonions, other)

    def test_generic_plane_in_kernel_not_null(self, octonions):
        rng = random.Random(8)
        found_non_null = 0
        for _ in range(10):
            x = co.random_isotropic_imaginary(octonions, rng)
            k = co.left_mult_kernel(octonions, x, restrict_to_imaginary=True)
            vs = [list(v) for v in k.basis]
            u = vec_add(vs[0], vec_scale(sc(rng.randint(1, 5)), vs[1]))
            w = vec_add(vs[1], vec_scale(sc(rng.randint(1, 5)), vs[2]))
            plane = Subspace(7, [u, w])
            if plane.dim == 2 and not co.is_null_plane(octonions, plane):
                found_non_null += 1
        assert found_non_null > 0


class TestSubalgebraClassification:
    def test_quaternion_class(self, octonions):
        a = Subspace(8, [unit_vec(8, i) for i in range(4)])
        got = co.classify_four_subalgebra(octonions, a)
        assert got.label == co.R4_QUATERNION and got.q_rank == 4

    def test_null_plane_class(self, octonions):
        n = co.standard_null_plane(octonions)
        n_basis = [list(v) for v in n.basis]
        a = Subspace(8, [unit_vec(8, 0), unit_vec(8, 1)] + n_basis)
        got = co.classify_four_subalgebra(octonions, a)
        assert got.label == co.R2_NULLPLANE
        assert got.witness == n
        assert co.is_null_plane(octonions, got.witness)

    def test_line_class(self, octonions):
        x = octonions.element([0, 0, 0, 0, 1, "i", 0, 0])
        k = co.left_mult_kernel(octonions, x, restrict_to_imaginary=True)
        a = Subspace(8, [unit_vec(8, 0)] + [[ZERO] + list(v) for v in k.basis])
        got = co.classify_four_subalgebra(octonions, a)
        assert got.label == co.R1_LINE
        assert got.witness.dim == 1 and got.witness.contains(list(x.coords))

    def test_not_closed_rejected(self, octonions):
        a = Subspace(8, [unit_vec(8, 0), unit_vec(8, 1), unit_vec(8, 2), unit_vec(8, 4)])
        with pytest.raises(co.NotSubalgebra):
            co.classify_four_subalgebra(octonions, a)


class TestLiePlanes:
    def test_null_plane_is_lie(self, octonions):
        n = co.standard_null_plane(octonions)
        assert co.is_lie_two_plane(octonions, n)

    def test_mixed_plane_is_lie(self, octonions):
        p = Subspace(7, [[1, 0, 0, 0, 0, 0, 0], [0, 1, "i", 0, 0, 0, 0]])
        assert co.is_lie_two_plane(octonions, p)

    def test_coordinate_plane_is_not(self, octonions):
        p = Subspace(7, [[1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0]])
        assert not co.is_lie_two_plane(octonions, p)


class TestSextonions:
    def test_standard_construction(self, octonions):
        res = co.sextonions(octonions, co.standard_null_plane(octonions))
        assert res.algebra.dim == 6
        assert res.q_rank == 4
        assert res.model_iso is not None

    def test_contains_quaternions_and_plane(self, octonions):
        res = co.sextonions(octonions, co.standard_null_plane(octonions))
        cols = [res.inclusion.col(j) for j in range(6)]
        span = Subspace(8, cols)
        for i in range(4):
            assert span.contains(unit_vec(8, i))
        for v in co.standard_null_plane(octonions).basis:
            assert span.contains(list(v))

    def test_rejects_non_null_plane(self, octonions):
        p = Subspace(8, [unit_vec(8, 1), unit_vec(8, 2)])
        with pytest.raises(ValueError):
            co.sextonions(octonions, p)

    def test_model_product_trace_rule(self):
        # (A,0)(0,w) = (0, tr(A) w - A w)
        a = [sc(2), sc(0), sc(0), sc(3), sc(0), sc(0)]
        w = [sc(0), sc(0), sc(0), sc(0), sc(1), sc(0)]
        out = co.model_sextonion_product(a, w)
        assert out == [ZERO, ZERO, ZERO, ZERO, sc(3), ZERO]


class TestIsotropicImages:
    def test_left_image_dim_four_isotropic(self, octonions):
        p = octonions.element([0, 0, 0, 0, 1, "i", 0, 0])
        img = co.maximal_isotropic_from_divisor(octonions, p, "left")
        assert img.dim == 4
        assert rank(gram_matrix(octonions.gram, [list(v) for v in img.basis])) == 0

    def test_left_right_differ(self, octonions):
        p = octonions.element([0, 0, 0, 0, 1, "i", 0, 0])
        left = co.maximal_isotropic_from_divisor(octonions, p, "left")
        right = co.maximal_isotropic_from_divisor(octonions, p, "right")
        assert left != right

    def test_non_imaginary_divisor(self, octonions):
        p = octonions.element([1, "i", 0, 0, 0, 0, 0, 0])
        img = co.maximal_isotropic_from_divisor(octonions, p, "left")
        assert img.dim == 4
        assert rank(gram_matrix(octonions.gram, [list(v) for v in img.basis])) == 0
