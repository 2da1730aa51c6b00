import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from excalg import forms as fm
from excalg.composition import associative_form, canonical_octonions, coassociative_form
from excalg.linalg import Matrix, random_invertible, rank, unit_vec
from excalg.scalar import I, ONE, ZERO, Scalar, sc

ASSOC = "e[1,2,3]+e[3,6,5]+e[5,4,1]+e[2,6,4]+e[1,7,6]+e[5,7,2]+e[3,7,4]"


def small_form(seed, k=2, n=6):
    rng = random.Random(seed)
    terms = {}
    for idx in itertools.combinations(range(1, n + 1), k):
        c = rng.randint(-2, 2)
        if c:
            terms[idx] = sc(c)
    return fm.KForm(k, n, terms)


class TestWedge:
    def test_basis_wedge(self):
        a = fm.parse_form("e[1]", 4, 1)
        b = fm.parse_form("e[2]", 4, 1)
        assert fm.wedge(a, b) == fm.parse_form("e[1,2]", 4)

    def test_repeated_index_vanishes(self):
        a = fm.parse_form("e[1,2]", 4)
        assert fm.wedge(a, a).is_zero()

    def test_degree_overflow(self):
        a = fm.parse_form("e[1,2]", 3)
        with pytest.raises(ValueError):
            fm.wedge(a, a)

    def test_contraction_square_against_volume(self):
        w = fm.parse_form(ASSOC, 7)
        c = fm.contract(unit_vec(7, 0), w)
        top = fm.wedge(fm.wedge(c, c), w)
        assert fm.top_coefficient(top) == sc(6)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_graded_commutativity(self, s1, s2):
        a = small_form(s1, k=2)
        b = small_form(s2, k=3)
        sign = (-1) ** (a.k * b.k)
        assert fm.wedge(a, b) == fm.wedge(b, a).scale(sign)


class TestContract:
    def test_basis_contraction(self):
        w = fm.parse_form("e[1,2,3]", 7)
        assert fm.contract(unit_vec(7, 0), w) == fm.parse_form("e[2,3]", 7, 2)
        assert fm.contract(unit_vec(7, 6), w).is_zero()

    def test_associative_form_contraction(self):
        w = fm.parse_form(ASSOC, 7)
        got = fm.contract(unit_vec(7, 0), w)
        assert got == fm.parse_form("e[2,3]-e[4,5]-e[6,7]", 7, 2)

    @given(st.integers(0, 10_000), st.lists(st.integers(-3, 3), min_size=6, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_double_contraction_zero(self, seed, vec):
        a = small_form(seed, k=3)
        v = [sc(x) for x in vec]
        assert fm.contract(v, fm.contract(v, a)).is_zero()


def pullback_reference(g, a):
    """a_J e^J -> a_J (row_j1 g) ^ ... ^ (row_jk g), by wedges of 1-forms."""
    n = a.n
    out = fm.KForm.zero(a.k, n)
    for idx, c in a.terms.items():
        term = fm.KForm(0, n, {(): ONE})
        for j in idx:
            row = fm.KForm(1, n, {(col + 1,): g[j - 1, col] for col in range(n)})
            term = fm.wedge(term, row)
        out = out + term.scale(c)
    return out


_gaussian_entry = st.one_of(
    st.just(ZERO),
    st.builds(lambda a, b, d: Scalar.rational(a, d) + Scalar.rational(b, d) * I,
              st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 3)),
)


class TestPullback:
    @given(st.integers(1, 3), st.integers(3, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_wedge_of_rows(self, k, n, data):
        # minors against wedges of the rows of g, for Gaussian g and forms
        # with zero coefficients; a g with a repeated row is rejected
        g = Matrix([[data.draw(_gaussian_entry) for _ in range(n)] for _ in range(n)])
        tuples = list(itertools.combinations(range(1, n + 1), k))
        a = fm.KForm(k, n, {t: data.draw(_gaussian_entry) for t in tuples})
        if rank(g) < n:
            with pytest.raises(ValueError):
                fm.pullback(g, a)
        else:
            assert fm.pullback(g, a) == pullback_reference(g, a)
        twin = Matrix([g.row(0)] + [g.row(i) for i in range(n - 1)])
        with pytest.raises(ValueError):
            fm.pullback(twin, a)

    def test_identity(self):
        a = small_form(3, k=3, n=6)
        assert fm.pullback(Matrix.identity(6), a) == a

    def test_transposition_sign(self):
        g = Matrix([[0, 1], [1, 0]])
        a = fm.parse_form("e[1,2]", 2)
        assert fm.pullback(g, a) == a.scale(-1)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            fm.pullback(Matrix.zero(2, 2), fm.parse_form("e[1,2]", 2))

    def test_singular_over_gaussians_rejected(self):
        # row 2 is i times row 1: singular over Q(i), with no repeated row
        g = random_invertible(7, seed=3, height=2, field="gaussian")
        rows = [g.row(0), [I * x for x in g.row(0)]] + [g.row(i) for i in range(2, 7)]
        singular = Matrix(rows)
        assert rank(singular) == 6
        for k in (0, 3):
            with pytest.raises(ValueError):
                fm.pullback(singular, fm.KForm(k, 7, {tuple(range(1, k + 1)): ONE}))

    def test_composition_contravariant(self):
        a = small_form(9, k=3, n=5)
        g = random_invertible(5, seed=1, height=3)
        h = random_invertible(5, seed=2, height=3)
        assert fm.pullback(g @ h, a) == fm.pullback(h, fm.pullback(g, a))


class TestSupport:
    def test_decomposable(self):
        assert fm.form_rank(fm.parse_form("e[1,2,3]", 7)) == 3

    def test_rank_seven(self):
        w1 = fm.parse_form("e[1,2,5]+e[1,3,6]+e[1,4,7]", 7)
        assert fm.form_rank(w1) == 7

    def test_rank_five(self):
        assert fm.form_rank(fm.parse_form("e[1,2,3]+e[1,4,5]", 5)) == 5

    def test_support_vectors(self):
        from excalg.linalg import Subspace

        s = fm.support(fm.parse_form("e[1,2,3]", 7))
        expected = Subspace(7, [unit_vec(7, 0), unit_vec(7, 1), unit_vec(7, 2)])
        assert s == expected

    def test_gl_invariance_sampled(self):
        w = fm.parse_form("e[1,2,5]+e[1,3,6]+e[1,4,7]+e[2,3,4]+e[5,6,7]", 7)
        for seed in range(50):
            g = random_invertible(7, seed=seed, height=2)
            assert fm.form_rank(fm.pullback(g, w)) == 7


class TestTwoFormRank:
    def test_examples(self):
        assert fm.two_form_rank(fm.parse_form("e[1,2]", 4)) == 2
        assert fm.two_form_rank(fm.parse_form("e[1,2]+e[3,4]", 4)) == 4

    def test_isotropic_contraction_rank_four(self, octonions):
        w = associative_form(octonions)
        x = [sc(0), sc(0), sc(0), ONE, I, sc(0), sc(0)]  # e4 + i e5
        assert fm.two_form_rank(fm.contract(x, w)) == 4

    def test_nonisotropic_contraction_rank_six(self, octonions):
        w = associative_form(octonions)
        assert fm.two_form_rank(fm.contract(unit_vec(7, 0), w)) == 6


class TestHodge:
    def test_coassociative_display(self, octonions):
        # the four-form dual to the associative form, termwise
        star = coassociative_form(octonions)
        expected = fm.parse_form(
            "e[4,5,6,7]-e[1,2,4,7]-e[2,3,6,7]-e[1,3,5,7]"
            "-e[2,3,4,5]+e[1,3,4,6]-e[1,2,5,6]",
            7,
        )
        assert star == expected

    def test_double_star_sign(self):
        a = fm.parse_form("e[1,2,3]", 7)
        assert fm.hodge_star(fm.hodge_star(a)) == a


class TestSerialization:
    def test_text_roundtrip(self):
        w = fm.parse_form("e[1,2,5]+(3/2)*e[1,3,6]-e[1,4,7]", 7)
        assert fm.parse_form(w.to_text(), 7) == w

    def test_json_roundtrip(self):
        w = fm.parse_form("e[1,2]+(1/2+3i)*e[3,4]", 5)
        assert fm.KForm.from_json(w.to_json()) == w

    def test_zero_needs_degree(self):
        with pytest.raises(ValueError):
            fm.parse_form("0", 5)
        assert fm.parse_form("0", 5, degree=2).is_zero()
