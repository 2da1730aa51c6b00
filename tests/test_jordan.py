import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from excalg import jordan as jd
from excalg import scalar
from excalg.composition import CompAlgebra, named_algebra
from excalg.linalg import Matrix, unit_vec, vec_dot
from excalg.scalar import I, ONE, ZERO, Scalar, rand_scalar, sc
from excalg.tensor import StructureTensor, lattice

ALL_A = (0, 1, 2, 4, 8)
SLOTS = ((0, 1), (0, 2), (1, 2))


def hermitian(alg, coords):
    """The full 3x3 Hermitian matrix of an H3 coordinate vector, each entry
    a list of base coordinates (one coordinate when a = 0)."""
    a, width = alg.a, max(alg.a, 1)
    m = [[[ZERO] * width for _ in range(3)] for _ in range(3)]
    for d in range(3):
        m[d][d] = [coords[d]] + [ZERO] * (width - 1)
    for s, (r, c) in enumerate(SLOTS if a else ()):
        m[r][c] = list(coords[3 + s * a: 3 + (s + 1) * a])
        m[c][r] = alg.base.conj_coords(m[r][c])
    return m


def reference_product(alg, x, y):
    """(XY + YX) / 2 of the explicit Hermitian matrices, entry by entry in
    Scalar arithmetic over the base, read back as H3 coordinates."""
    mul = alg.base.mul_coords if alg.a else (lambda u, v: [u[0] * v[0]])
    X, Y = hermitian(alg, x), hermitian(alg, y)
    out = [[None] * 3 for _ in range(3)]
    for r in range(3):
        for c in range(3):
            acc = [ZERO] * max(alg.a, 1)
            for k in range(3):
                for u, v in ((X[r][k], Y[k][c]), (Y[r][k], X[k][c])):
                    if any(u) and any(v):
                        acc = [p + q for p, q in zip(acc, mul(u, v))]
            out[r][c] = [p / 2 for p in acc]
    if any(any(out[d][d][1:]) for d in range(3)):
        raise AssertionError("diagonal entry is not scalar")
    return [out[d][d][0] for d in range(3)] + [v for r, c in (SLOTS if alg.a else ()) for v in out[r][c]]


H3_BASES = {**{f"a={a}": (lambda a=a: jd.jordan_algebra(a).base) for a in ALL_A},
            "split-O": lambda: named_algebra("split-o")}


class TestTable:
    @pytest.mark.parametrize("name", [*H3_BASES, "corrupted"])
    def test_tensor_matches_hermitian_matrices(self, name, corrupted_octonions):
        # the cells against the explicit matrix product: den, keys and values
        alg = jd.JordanAlgebra(corrupted_octonions if name == "corrupted" else H3_BASES[name]())
        d = alg.dim
        reference = StructureTensor(d, (
            (i, j, k, c) for i in range(d) for j in range(d)
            for k, c in enumerate(reference_product(alg, unit_vec(d, i), unit_vec(d, j)))
        ))
        t = alg.tensor
        assert (t.den, t.pair.tolist(), t.out.tolist(), t.val.tolist()) == (
            reference.den, reference.pair.tolist(), reference.out.tolist(), reference.val.tolist())

    def test_non_scalar_diagonal_rejected(self):
        # e1 e1 = e1: F_s(e1) o F_s(e1) has -e1 on the diagonal
        base = CompAlgebra([[[1, 0], [0, 1]], [[0, 1], [0, 1]]], check=False)
        with pytest.raises(AssertionError, match="diagonal entry is not scalar"):
            jd.JordanAlgebra(base)

    def test_cells_builder_runs_no_scalar_arithmetic(self, monkeypatch):
        base, reference = jd.jordan_algebra(8).base, jd.jordan_algebra(8).tensor

        def forbidden(*args):
            raise AssertionError("Scalar arithmetic in the H3 cells")

        with monkeypatch.context() as m:
            for name in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                         "__mul__", "__rmul__", "__neg__", "__truediv__", "inverse"):
                m.setattr(Scalar, name, forbidden)
            m.setattr(scalar, "_make", forbidden)
            t = jd.h3_tensor(base)
        assert (t.den, t.pair.tolist(), t.out.tolist(), t.val.tolist()) == (
            reference.den, reference.pair.tolist(), reference.out.tolist(), reference.val.tolist())


class TestAlgebraStructure:
    def test_dimensions(self):
        for a in ALL_A:
            assert jd.jordan_algebra(a).dim == 3 + 3 * a

    def test_identity_element(self):
        for a in (0, 2, 8):
            alg = jd.jordan_algebra(a)
            rng = random.Random(a)
            x = alg.random_element(rng)
            assert jd.jordan_product(alg.identity(), x) == x

    def test_orthogonal_idempotents(self):
        alg = jd.jordan_algebra(8)
        e1 = alg.from_parts([1, 0, 0])
        e2 = alg.from_parts([0, 1, 0])
        assert jd.jordan_product(e1, e2).is_zero()
        assert jd.jordan_product(e1, e1) == e1

    def test_commutative(self):
        alg = jd.jordan_algebra(8)
        rng = random.Random(1)
        x, y = alg.random_element(rng), alg.random_element(rng)
        assert jd.jordan_product(x, y) == jd.jordan_product(y, x)

    def test_jordan_identity_octonion_entries(self):
        alg = jd.jordan_algebra(8)
        rng = random.Random(2)
        for _ in range(30):
            x, y = alg.random_element(rng), alg.random_element(rng)
            xx = jd.jordan_product(x, x)
            lhs = jd.jordan_product(jd.jordan_product(x, y), xx)
            rhs = jd.jordan_product(x, jd.jordan_product(y, xx))
            assert lhs == rhs

    def test_power_associativity_degree_four(self):
        alg = jd.jordan_algebra(8)
        rng = random.Random(3)
        for _ in range(10):
            x = alg.random_element(rng)
            x2 = jd.jordan_product(x, x)
            x3 = jd.jordan_product(x, x2)
            assert jd.jordan_product(x, x3) == jd.jordan_product(x2, x2)

    def test_trace_form_associative(self):
        alg = jd.jordan_algebra(8)
        rng = random.Random(4)
        for _ in range(20):
            x, y, z = (alg.random_element(rng) for _ in range(3))
            lhs = jd.trace_pairing(jd.jordan_product(x, y), z)
            rhs = jd.trace_pairing(x, jd.jordan_product(y, z))
            assert lhs == rhs


class TestDeterminant:
    def test_diagonal(self):
        alg = jd.jordan_algebra(0)
        assert jd.det_cubic(alg.from_parts([2, 3, 5])) == sc(30)

    def test_identity(self):
        for a in ALL_A:
            assert jd.det_cubic(jd.jordan_algebra(a).identity()) == ONE

    def test_homogeneous_cubic(self):
        alg = jd.jordan_algebra(4)
        rng = random.Random(5)
        x = alg.random_element(rng)
        assert jd.det_cubic(x.scale(3)) == sc(27) * jd.det_cubic(x)

    def test_rank_one_determinant_vanishes(self):
        alg = jd.jordan_algebra(8)
        rng = random.Random(6)
        u = [sc(rng.randint(-2, 2)) for _ in range(8)]
        v = [sc(rng.randint(-2, 2)) for _ in range(8)]
        assert jd.det_cubic(jd.rank_one_from_pair(alg, u, v)).is_zero()


class TestAdjugate:
    def test_cremona(self):
        alg = jd.jordan_algebra(0)
        m = alg.from_parts([2, 3, 5])
        assert list(jd.adjugate(m).coords) == [sc(15), sc(10), sc(6)]

    def test_identity(self):
        for a in ALL_A:
            alg = jd.jordan_algebra(a)
            assert jd.adjugate(alg.identity()) == alg.identity()

    @staticmethod
    def assert_gradient(x):
        """T(adj x, E_e) = d/dt Det(x + t E_e) at t = 0 for every basis
        element E_e, the derivative read off the cubic t -> Det(x + t E_e)
        through its values at -1, 0, 1, 2 as (-2f(-1) - 3f(0) + 6f(1) - f(2)) / 6."""
        alg = x.algebra
        adj = jd.adjugate(x)
        for e in range(alg.dim):
            unit = alg.element(unit_vec(alg.dim, e))
            fm1, f0, f1, f2 = (jd.det_cubic(x + unit.scale(t)) for t in (-1, 0, 1, 2))
            derivative = (sc(-2) * fm1 - sc(3) * f0 + sc(6) * f1 - f2) / sc(6)
            assert jd.trace_pairing(adj, unit) == derivative

    @pytest.mark.parametrize("a", (0, 1, 2, 4))
    def test_gradient_on_lattice(self, a):
        # both sides are quadratic in x, so the degree-2 lattice proves it
        alg = jd.jordan_algebra(a)
        for p in lattice(alg.dim, 2):
            self.assert_gradient(alg.element(p))

    def test_gradient_octonion_samples(self):
        alg = jd.jordan_algebra(8)
        rng = random.Random(7)
        for _ in range(3):
            self.assert_gradient(alg.random_element(rng))

    def test_gradient_gaussian(self):
        alg = jd.jordan_algebra(8)
        rng = random.Random(11)
        self.assert_gradient(alg.element([rand_scalar(rng, 3, gaussian=True)
                                          for _ in range(alg.dim)]))

    def test_double_adjugate(self):
        rng = random.Random(8)
        for a in ALL_A:
            alg = jd.jordan_algebra(a)
            for _ in range(10):
                x = alg.random_element(rng)
                assert jd.adjugate(jd.adjugate(x)) == x.scale(jd.det_cubic(x))

    def test_cross_is_adjugate_polarization(self):
        alg = jd.jordan_algebra(8)
        rng = random.Random(9)
        x = alg.random_element(rng)
        for e in (0, 5, 20):
            direct = (
                jd.adjugate(x + alg.element(unit_vec(alg.dim, e)))
                - jd.adjugate(x)
                - alg.element(alg.basis_adjugates()[e])
            )
            assert jd.freudenthal_cross(x, e) == direct


class TestCayleyHamilton:
    def test_identity_case(self):
        assert jd.cayley_hamilton_check(jd.jordan_algebra(8).identity()).passed

    def test_random(self):
        rng = random.Random(10)
        for a in ALL_A:
            alg = jd.jordan_algebra(a)
            for _ in range(15):
                assert jd.cayley_hamilton_check(alg.random_element(rng)).passed

    def test_corrupted_octonions_fail_on_lattice(self, corrupted_octonions):
        # H3 over an octonion table with one product and its mirror negated:
        # the 112th point of the degree-3 lattice breaks Cayley-Hamilton
        alg = jd.JordanAlgebra(corrupted_octonions)
        points = (jd.JordanElement._of(alg, (p, None, 1)) for p in lattice(alg.dim, 3))
        first = next(k for k, x in enumerate(points, 1) if not jd.cayley_hamilton_check(x).passed)
        assert first == 112
        assert not jd.cayley_hamilton_check(alg.random_element(random.Random(0))).passed


class TestRank:
    def test_rank_chain(self):
        alg = jd.jordan_algebra(8)
        rng = random.Random(11)
        u = [sc(rng.randint(-2, 2)) for _ in range(8)]
        v = [sc(rng.randint(-2, 2)) for _ in range(8)]
        r1 = jd.rank_one_from_pair(alg, u, v)
        r2 = r1 + jd.rank_one_from_pair(alg, v, u)
        assert jd.jordan_rank(r1) == 1
        assert jd.jordan_rank(r2) == 2
        assert jd.jordan_rank(alg.identity()) == 3
        assert jd.jordan_rank(alg.element([sc(0)] * 27)) == 0

    def test_projector_criterion_both_ways(self):
        alg = jd.jordan_algebra(8)
        rng = random.Random(12)
        for _ in range(15):
            u = [sc(rng.randint(-1, 1)) for _ in range(8)]
            v = [sc(rng.randint(-1, 1)) for _ in range(8)]
            m = jd.rank_one_from_pair(alg, u, v)
            assert jd.jordan_product(m, m) == m.scale(jd.trace(m))
        # diagonal idempotents
        for diag in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
            m = alg.from_parts(diag)
            assert jd.jordan_product(m, m) == m.scale(jd.trace(m))
            assert jd.jordan_rank(m) <= 1
        # converse sampled: random elements of rank > 1 fail the projector law
        for _ in range(15):
            x = alg.random_element(rng)
            if jd.jordan_rank(x) > 1:
                assert jd.jordan_product(x, x) != x.scale(jd.trace(x))


class TestFreudenthal:
    def test_cubic_map_base_point(self):
        alg = jd.jordan_algebra(8)
        fv = jd.cubic_map(alg.element([sc(0)] * 27))
        assert fv.alpha == ONE and fv.beta.is_zero()
        assert all(c.is_zero() for c in fv.m) and all(c.is_zero() for c in fv.n)

    def test_cubic_map_twisted_cubic_pattern(self):
        alg = jd.jordan_algebra(0)
        fv = jd.cubic_map(alg.from_parts([2, 3, 5]))
        assert list(fv.m) == [sc(2), sc(3), sc(5)]
        assert list(fv.n) == [sc(15), sc(10), sc(6)]
        assert fv.beta == sc(30)

    def test_cubic_map_identity(self):
        alg = jd.jordan_algebra(4)
        fv = jd.cubic_map(alg.identity())
        assert fv.alpha == ONE and fv.beta == ONE
        assert list(fv.m) == list(alg.identity().coords)
        assert list(fv.n) == list(alg.identity().coords)

    def test_pairing_antisymmetry_and_duality(self):
        alg = jd.jordan_algebra(1)
        rng = random.Random(13)
        p = jd.cubic_map(alg.random_element(rng))
        assert jd.symplectic_pairing(p, p).is_zero()
        zero = [sc(0)] * alg.dim
        e = jd.freudenthal_vector(alg, 1, zero, zero, 0)
        f = jd.freudenthal_vector(alg, 0, zero, zero, 1)
        assert jd.symplectic_pairing(e, f) in (ONE, -ONE)

    def test_gram_ranks(self):
        for a in (0, 1, 2):
            assert jd.symplectic_gram_rank(a) == 6 * a + 8

    def test_legendrian_small(self):
        for a in (0, 1):
            rep = jd.legendrian_check(a, samples=5, seed=0)
            assert rep.passed and rep.tangent_dim == 3 * a + 4

    @pytest.mark.parametrize("samples", [0, -1])
    def test_legendrian_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="at least one sample"):
            jd.legendrian_check(0, samples=samples)

    @pytest.mark.parametrize("a", [1, 2])
    def test_frame_gram_matches_pairing(self, a):
        # the Gram of vectors cleared once against symplectic_pairing; the
        # tangent frame is isotropic, so a point off it (and a Gaussian
        # one) supplies nonzero entries
        alg = jd.jordan_algebra(a)
        rng = random.Random(a)
        frame = jd.tangent_frame(alg.random_element(rng, height=2))
        off = jd.cubic_map(alg.random_element(rng, height=3))
        gaussian = jd.freudenthal_vector(alg, I, [sc(k) * I + 1 for k in range(alg.dim)], [0] * alg.dim, 2)
        vectors = frame + [off, gaussian]
        gram = jd._symplectic_gram(vectors)
        assert gram == [[jd.symplectic_pairing(u, v) for v in vectors] for u in vectors]
        assert not any(any(row[:len(frame)]) for row in gram[:len(frame)])
        assert any(gram[-2]) and any(gram[-1])


@lru_cache(maxsize=None)
def dense_trace_gram(a):
    """The trace form tr(e_i o e_j) as a dense Matrix."""
    alg = jd.jordan_algebra(a)
    return Matrix([[jd.trace(alg.element(alg.basis_product(i, j))) for j in range(alg.dim)]
                   for i in range(alg.dim)])


_coordinate = st.one_of(
    st.just(ZERO),
    st.builds(lambda x, y, d: Scalar.rational(x, d) + Scalar.rational(y, d) * I,
              st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3)),
)


class TestTracePairing:
    def test_weights(self):
        for a in (1, 2, 4, 8):
            alg = jd.jordan_algebra(a)
            assert alg.trace_weights == (ONE,) * 3 + (sc(2),) * (3 * a)
            gram = dense_trace_gram(a)
            assert gram == Matrix([[alg.trace_weights[i] if i == j else 0
                                    for j in range(alg.dim)] for i in range(alg.dim)])

    @given(st.sampled_from((1, 2, 4, 8)), st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_gram(self, a, data):
        # the weighted sums against the dense Gram matrix, on Gaussian
        # coordinates with zeros
        alg = jd.jordan_algebra(a)
        gram = dense_trace_gram(a)
        draw = lambda: [data.draw(_coordinate) for _ in range(alg.dim)]
        x, y, u, v = draw(), draw(), draw(), draw()
        assert jd.trace_pairing(alg.element(x), alg.element(y)) == vec_dot(x, gram.apply(y))
        alpha, beta = data.draw(_coordinate), data.draw(_coordinate)
        p = jd.freudenthal_vector(alg, alpha, x, y, beta)
        q = jd.freudenthal_vector(alg, beta, u, v, alpha)
        dense = vec_dot(y, gram.apply(u)) - vec_dot(v, gram.apply(x)) + (alpha * alpha - beta * beta)
        assert jd.symplectic_pairing(p, q) == dense


class TestSerialization:
    def test_json_roundtrip(self):
        alg = jd.jordan_algebra(8)
        rng = random.Random(14)
        x = alg.random_element(rng)
        assert jd.JordanElement.from_json(x.to_json()) == x

    def test_a0_roundtrip(self):
        alg = jd.jordan_algebra(0)
        x = alg.from_parts([1, -2, sc("3/2")])
        assert jd.JordanElement.from_json(x.to_json()) == x
