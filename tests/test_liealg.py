import pytest

from excalg import composition
from excalg import forms as fm
from excalg import liealg as ll
from excalg import threeform as tf
from excalg.composition import associative_form, canonical_octonions, named_algebra
from excalg.jordan import jordan_algebra
from excalg.linalg import Matrix, Subspace, unit_vec
from excalg.scalar import I, ONE, sc


def so3():
    br = {}

    def setb(i, j, vec):
        br[(i, j)] = {k: sc(v) for k, v in enumerate(vec) if v}
        br[(j, i)] = {k: -sc(v) for k, v in enumerate(vec) if v}

    setb(0, 1, [0, 0, 1])
    setb(1, 2, [1, 0, 0])
    setb(2, 0, [0, 1, 0])
    return ll.SCAlgebra(3, br, skew=True, cartan=[[sc(1), sc(0), sc(0)]])


class TestSCAlgebra:
    def test_skew_validation(self):
        with pytest.raises(ValueError):
            ll.SCAlgebra(2, {(0, 1): {0: ONE}}, skew=True)

    def test_cartan_must_commute(self):
        g = so3()
        with pytest.raises(ValueError):
            ll.SCAlgebra(
                3,
                g.bracket,
                skew=True,
                cartan=[[sc(1), sc(0), sc(0)], [sc(0), sc(1), sc(0)]],
            )

    def test_json_roundtrip(self):
        g = so3()
        back = ll.SCAlgebra.from_json(g.to_json())
        assert back.bracket == g.bracket and back.dim == 3


class TestDerivations:
    def test_composition_algebra_dims(self):
        expected = {"r": 0, "c": 0, "h": 3, "o": 14}
        for name, dim in expected.items():
            alg = canonical_octonions() if name == "o" else named_algebra(name)
            assert ll.derivations(alg).dim == dim

    def test_jordan_derivation_dims(self):
        for a, dim in ((0, 0), (1, 3), (2, 8), (4, 21)):
            assert ll.derivations(jordan_algebra(a), commutative=True).dim == dim

    def test_derivations_kill_unit_and_preserve_imaginary(self, octonions):
        der = ll.derivations(octonions)
        for m in der.matrices:
            assert all(m[0, j].is_zero() for j in range(8))
            assert all(m[i, 0].is_zero() for i in range(8))


class TestJacobi:
    def test_full_pass(self, octonions):
        der = ll.derivations(octonions)
        assert ll.jacobi_check(der, "full").passed

    def test_negative_control(self, octonions):
        der = ll.derivations(octonions)
        bad = {k: dict(v) for k, v in der.bracket.items()}
        key = next(k for k in bad if k[0] < k[1])
        comp = bad[key]
        k0 = next(iter(comp))
        comp[k0] = comp[k0] * sc(3)
        bad[(key[1], key[0])] = {k: -v for k, v in comp.items()}
        corrupted = ll.SCAlgebra(der.dim, bad, skew=True)
        full = ll.jacobi_check(corrupted, "full")
        assert not full.passed
        i, j, k, residual = full.witness
        assert residual is not None
        sampled = ll.jacobi_check(corrupted, "sampled", samples=30000, seed=1)
        assert not sampled.passed

    def test_fast_path_matches_exact_on_small_algebra(self):
        g = so3()
        assert ll.jacobi_check(g, "full").passed
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert ll._jacobi_witness(g, i, j, k) is None


def _elementary(n, i, j):
    return Matrix([[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)])


class TestCommutatorClosure:
    def test_open_family_rejected_on_the_generic_path(self):
        # [E01, E10] = E00 - E11 lies outside the span
        family = [_elementary(2, 0, 1), _elementary(2, 1, 0)]
        with pytest.raises(ValueError):
            ll.commutator_closure_algebra(family)

    def test_open_family_rejected_on_the_integer_path(self):
        # the 20 off-diagonal units of gl5: [E_ij, E_ji] is diagonal
        family = [_elementary(5, i, j) for i in range(5) for j in range(5) if i != j]
        assert len(family) >= 16
        with pytest.raises(ValueError):
            ll.commutator_closure_algebra(family)

    def test_empty_family(self):
        g = ll.commutator_closure_algebra([], name="empty")
        assert g.dim == 0 and g.name == "empty" and g.matrices == []


class TestStabilizerInGl:
    def test_associative_form(self, octonions):
        stab = ll.stabilizer_in_gl(7, associative_form(octonions))
        assert stab.dim == 14
        assert ll.jacobi_check(stab, "full").passed
        assert ll.killing_nondegenerate(stab)

    def test_six_variable_split_form(self):
        stab = ll.stabilizer_in_gl(6, tf.representative(tf.RANK6_GENERIC))
        assert stab.dim == 16

    def test_zero_form(self):
        stab = ll.stabilizer_in_gl(4, fm.KForm.zero(3, 4))
        assert stab.dim == 16


class TestWeights:
    def test_so3_adjoint_weights(self):
        g = so3()
        wd = ll.weight_decomposition(g, ll.adjoint_module(g))
        weights = sorted(str(w[0]) for w, mult in wd)
        assert weights == ["(0/1)+(-1/1)i", "(0/1)+(1/1)i", "0/1"]

    def test_abelian(self):
        g = ll.SCAlgebra(2, {}, skew=True, cartan=[[sc(1), sc(0)], [sc(0), sc(1)]])
        wd = ll.weight_decomposition(g, ll.adjoint_module(g))
        assert wd == [((sc(0), sc(0)), 2)]

    def test_needs_extension(self):
        # sqrt(2) eigenvalues leave the field
        g = ll.SCAlgebra(2, {}, skew=True, cartan=[[sc(1), sc(0)]])
        module = ll.ModuleRep(2, [Matrix([[0, 1], [2, 0]]), Matrix.zero(2, 2)])
        with pytest.raises(ll.NeedsExtension):
            ll.weight_decomposition(g, module)
        assert composition.NeedsExtension is ll.NeedsExtension

    @pytest.mark.parametrize(
        "diagonal",
        [[sc(13)], [sc(7), sc(1) / sc(5)], [sc(13) * I, sc(2)]],
        ids=["13", "7-and-1/5", "13i-and-2"],
    )
    def test_eigenvalues_off_the_small_grid(self, diagonal):
        # roots found by the rational root theorem over Z[i], not a fixed
        # list of small Gaussian integers and fractions
        n = len(diagonal)
        h = Matrix([[diagonal[r] if r == c else 0 for c in range(n)] for r in range(n)])
        g = ll.SCAlgebra(1, {}, skew=True, cartan=[[sc(1)]])
        wd = ll.weight_decomposition(g, ll.ModuleRep(n, [h]))
        assert sorted(wd, key=str) == sorted((((x,), 1) for x in diagonal), key=str)

    def test_missing_cartan(self):
        g = ll.SCAlgebra(2, {}, skew=True)
        with pytest.raises(ValueError):
            ll.weight_decomposition(g, ll.adjoint_module(g))


class TestCartanMatrix:
    def test_string_pairing(self):
        # A2: alpha + beta is a root, so the beta-string through alpha has
        # p = 0, q = 1
        a, b = (sc(1), sc(0)), (sc(0), sc(1))
        ab = (sc(1), sc(1))
        roots = {a, b, ab} | {tuple(-x for x in r) for r in (a, b, ab)}
        assert ll.string_pairing(a, b, roots) == -1
        assert ll.string_pairing(ab, b, roots) == 1

    def test_a1(self):
        roots = [(sc(2),), (sc(-2),)]
        assert ll.cartan_matrix_from_roots(roots).entries == [[sc(2)]]

    def test_a1_x_a1(self):
        roots = [(sc(2), sc(0)), (sc(-2), sc(0)), (sc(0), sc(2)), (sc(0), sc(-2))]
        m = ll.cartan_matrix_from_roots(roots)
        assert m == Matrix([[2, 0], [0, 2]])

    def test_a2_from_hexagon(self):
        alpha = (sc(2), sc(-1))
        beta = (sc(-1), sc(2))
        roots = []
        for (x, y) in ((1, 0), (0, 1), (1, 1)):
            vec = tuple(sc(x) * a + sc(y) * b for a, b in zip(alpha, beta))
            roots.append(vec)
            roots.append(tuple(-c for c in vec))
        m = ll.cartan_matrix_from_roots(roots)
        assert ll.cartan_matrices_equivalent(m, Matrix([[2, -1], [-1, 2]]))

    def test_not_closed_under_negation(self):
        with pytest.raises(ValueError):
            ll.cartan_matrix_from_roots([(sc(1),)])


class TestRepresentationDecomposition:
    def test_contraction_embedding_and_action(self, octonions):
        w = associative_form(octonions)
        act = tf.action_matrix(7, w)
        from excalg.linalg import kernel, rank

        assert rank(act) == 35
        assert kernel(act).dim == 14

    def test_two_form_splitting(self, octonions):
        import itertools

        w = associative_form(octonions)
        pairs = list(itertools.combinations(range(1, 8), 2))
        pidx = {p: i for i, p in enumerate(pairs)}
        rows = []
        for j in range(7):
            f = fm.contract_basis(j + 1, w)
            row = [sc(0)] * 21
            for idx, c in f.terms.items():
                row[pidx[idx]] = c
            rows.append(row)
        v_image = Subspace(21, rows)
        stab = ll.stabilizer_in_gl(7, w)
        stab_rows = []
        for m in stab.matrices:
            assert (m + m.transpose()).is_zero()  # skew for the invariant metric
            stab_rows.append([m[i - 1, j - 1] for (i, j) in pairs])
        g2_image = Subspace(21, stab_rows)
        assert v_image.dim == 7
        assert v_image.intersect(g2_image).dim == 0
        assert v_image.add(g2_image).dim == 21


class TestDerivedAndKilling:
    def test_semisimple_full_derived(self, octonions):
        der = ll.derivations(octonions)
        assert ll.derived_dimension(der) == 14

    def test_killing_guard_bounds_the_full_contraction(self):
        # d * max^2 = 2^52 is below 2^53, but each Gram entry sums
        # d^2 = 16 products of size 2^50, so the float contraction is unsafe
        big = sc(2 ** 25)
        g = ll.SCAlgebra(4, {(0, 1): {2: big}, (1, 0): {2: -big}}, skew=True)
        with pytest.raises(ValueError):
            ll.killing_gram_int(g)

    def test_abelian_derived_zero(self):
        g = ll.SCAlgebra(2, {}, skew=True)
        assert ll.derived_dimension(g) == 0
        assert not ll.killing_nondegenerate(g)
