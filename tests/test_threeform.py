import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from excalg import forms as fm
from excalg import threeform as tf
from excalg.linalg import Matrix, kernel, random_invertible, rank, unit_vec, zero_vec
from excalg.scalar import ONE, ZERO, Scalar, sc

ALL_LABELS = (
    tf.RANK3_DECOMPOSABLE,
    tf.RANK5,
    tf.RANK6_GENERIC,
    tf.RANK6_TANGENT,
    tf.W1,
    tf.W2,
    tf.W3,
    tf.W4,
    tf.W5,
)


def random_trivector(seed, n=7, height=1):
    rng = random.Random(seed)
    terms = {}
    for idx in itertools.combinations(range(1, n + 1), 3):
        c = rng.randint(-height, height)
        if c:
            terms[idx] = sc(c)
    return fm.KForm(3, n, terms)


def random_form(n, seed, height, field, density):
    """A trivector in n variables with coefficients a / d (a + b i over
    Q(i)), |a|, |b| <= height and d in 1..3, on each triple with probability
    density."""
    rng = random.Random(seed)
    terms = {}
    for idx in itertools.combinations(range(1, n + 1), 3):
        if rng.random() < density:
            im = rng.randint(-height, height) if field == "gaussian" else 0
            terms[idx] = Scalar.rational(rng.randint(-height, height), rng.randint(1, 3)) + sc(im) * sc("i")
    return fm.KForm(3, n, terms)


def _merge_parity(a, b):
    """Parity sign of merging two sorted disjoint index tuples."""
    inv = 0
    j = 0
    for x in a:
        while j < len(b) and b[j] < x:
            j += 1
        inv += len(b) - j
    return -1 if inv & 1 else 1


def _top3(aterms, bterms, wterms):
    """Top coefficient of alpha ^ beta ^ w for 2-forms alpha, beta and a
    trivector w in seven variables, in Scalar arithmetic."""
    total = ZERO
    full = frozenset(range(1, 8))
    for ia, ca in aterms.items():
        sa = set(ia)
        for ib, cb in bterms.items():
            if sa & set(ib):
                continue
            rest = tuple(sorted(full - sa - set(ib)))
            cw = wterms.get(rest)
            if cw is None:
                continue
            merged = tuple(sorted(ia + ib))
            sign = _merge_parity(ia, ib) * _merge_parity(merged, rest)
            term = ca * cb * cw
            total = total + term if sign > 0 else total - term
    return total


def q_gram_reference(w):
    """The Gram matrix of q_of from the 2-forms e_a -| w, pair by pair."""
    alphas = [fm.contract_basis(i, w).terms for i in range(1, 8)]
    return [[_top3(alphas[i], alphas[j], w.terms) for j in range(7)] for i in range(7)]


def psi_reference(w):
    """psi from Scalar KForms: column j reads (e_j -| w) ^ w as u -| e^{1..6}."""
    top = fm.KForm.basis(range(1, 7), 6)
    cols = []
    for j in range(6):
        five = fm.wedge(fm.contract(unit_vec(6, j), w), w)
        u = zero_vec(6)
        for idx, c in five.terms.items():
            (miss,) = tuple(i for i in range(1, 7) if i not in idx)
            u[miss - 1] = c / fm.contract_basis(miss, top).coefficient(idx)
        cols.append(u)
    return Matrix.from_cols(cols)


def lambda_quartic_reference(w):
    """tr(psi o psi) / 6 as a Scalar trace of psi_reference."""
    m = psi_reference(w)
    m2 = m @ m
    tr = ZERO
    for i in range(6):
        tr = tr + m2[i, i]
    return tr / sc(6)


def degree7_reference(w):
    """I7 by the Scalar chain: nu_c with nu_c -| e^{1..7} = w ^ e^c, W_c[a, b]
    the pairing of nu_c with w on E_ba-acted basis trivectors, and the
    polarized pairing sum_cd q_cd tr(W_c W_d)."""
    top = fm.KForm.basis(range(1, 8), 7)

    def omega_on_acted(a, b, t):
        # w evaluated on E_ab . e_t: each index b of t replaced by a
        total = ZERO
        for pos, i in enumerate(t):
            if i == b:
                srt, sign = fm._sort_with_sign(t[:pos] + (a,) + t[pos + 1:])
                if sign:
                    total = total + sc(sign) * w.terms.get(srt, ZERO)
        return total

    wtensor = []
    for c in range(1, 8):
        nu = {}
        for idx4, coef in fm.wedge(w, fm.KForm.basis([c], 7)).terms.items():
            tri = tuple(i for i in range(1, 8) if i not in idx4)
            contracted = top
            for i in tri:
                contracted = fm.contract_basis(i, contracted)
            nu[tri] = coef / contracted.coefficient(idx4)
        wtensor.append(Matrix([
            [sum((coef * omega_on_acted(b, a, t) for t, coef in nu.items()), ZERO)
             for b in range(1, 8)] for a in range(1, 8)]))
    qgram = Matrix(q_gram_reference(w))
    total = ZERO
    for c in range(7):
        for d in range(7):
            tr = sum((wtensor[c][a, b] * wtensor[d][b, a] for a in range(7) for b in range(7)), ZERO)
            total = total + qgram[c, d] * tr
    return total


def restrict_to_support_reference(w):
    """w as a trivector in r = rank(w) variables: the echelon support basis,
    completed by the unit vectors off its pivots, pulled back by the
    inverse."""
    sup = fm.support(w)
    r, n = sup.dim, w.n
    pivots = {next(j for j, c in enumerate(v) if c) for v in sup.basis}
    b = Matrix(sup.basis + [unit_vec(n, j) for j in range(n) if j not in pivots])
    moved = fm.pullback(b.inverse(), w)
    assert all(i <= r for idx in moved.terms for i in idx)
    return fm.KForm(3, r, moved.terms)


_coefficients = st.one_of(
    st.just(ZERO),
    st.builds(lambda a, b, d: Scalar.rational(a, d) + Scalar.rational(b, d + 1) * sc("i"),
              st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4)),
)


class TestQuadraticForm:
    @given(st.lists(_coefficients, min_size=35, max_size=35))
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_reference(self, coeffs):
        # the cubic contraction against the pairwise Scalar products, on
        # sparse and dense Gaussian trivectors
        w = fm.KForm(3, 7, dict(zip(itertools.combinations(range(1, 8), 3), coeffs)))
        assert tf.q_of(w).gram.entries == q_gram_reference(w)

    def test_dense_forms_match_scalar_reference(self):
        # every monomial of the table is live when no coefficient vanishes
        for seed in range(4):
            rng = random.Random(seed)
            w = fm.KForm(3, 7, {
                t: Scalar.rational(rng.randint(1, 5), rng.randint(1, 3))
                + Scalar.rational(rng.randint(-5, 5), rng.randint(1, 3)) * sc("i")
                for t in itertools.combinations(range(1, 8), 3)
            })
            assert tf.q_of(w).gram.entries == q_gram_reference(w)


    def test_ranks_on_representatives(self):
        got = [tf.q_of(tf.representative(l)).rank for l in (tf.W1, tf.W2, tf.W3, tf.W4, tf.W5)]
        assert got == [1, 1, 2, 4, 7]

    def test_wrong_degree(self):
        with pytest.raises(ValueError):
            tf.q_of(fm.parse_form("e[1,2]", 7))

    def test_polarization_agrees_with_brute_force(self):
        w = random_trivector(11)
        q = tf.q_of(w)
        from excalg.linalg import unit_vec, vec_add

        def brute(v):
            c = fm.contract(v, w)
            return fm.top_coefficient(fm.wedge(fm.wedge(c, c), w))

        for i in range(7):
            for j in range(7):
                u, v = unit_vec(7, i), unit_vec(7, j)
                lhs = (brute(vec_add(u, v)) - brute(u) - brute(v)) / sc(2)
                if i == j:
                    assert q.gram[i, i] == brute(u)
                else:
                    assert q.gram[i, j] == lhs


class TestSixVariables:
    def test_psi_squared_on_split_form(self):
        w1 = tf.representative(tf.RANK6_GENERIC)
        m = tf.psi(w1)
        from excalg.linalg import Matrix

        assert m @ m == Matrix.identity(6)

    def test_lambda_values(self):
        assert tf.lambda_quartic(tf.representative(tf.RANK6_GENERIC)) == ONE
        assert tf.lambda_quartic(tf.representative(tf.RANK6_TANGENT)).is_zero()

    def test_lambda_homogeneity(self):
        w = tf.representative(tf.RANK6_GENERIC)
        assert tf.lambda_quartic(w.scale(2)) == sc(16)

    def test_lambda_on_gaussian_pullbacks(self):
        # t^4 scaling at t = 1 + i, and det(g)^2 semi-invariance under
        # Gaussian changes of basis, on both rank-six representatives
        generic, tangent = (tf.representative(l) for l in (tf.RANK6_GENERIC, tf.RANK6_TANGENT))
        t = ONE + Scalar.gaussian(0, 1)
        assert tf.lambda_quartic(generic.scale(t)) == t ** 4 == sc(-4)
        for seed in range(3):
            g = random_invertible(6, seed=seed, height=3, field="gaussian")
            assert not g.det().is_rational()
            assert tf.lambda_quartic(fm.pullback(g, generic)) == g.det() ** 2
            assert tf.lambda_quartic(fm.pullback(g, tangent)).is_zero()

    def test_lambda_semi_invariance_exponent_two(self):
        # determined once on one sample, verified on twenty random matrices
        w = tf.representative(tf.RANK6_GENERIC)
        for seed in range(20):
            g = random_invertible(6, seed=seed, height=3)
            det = g.det()
            assert tf.lambda_quartic(fm.pullback(g, w)) == det * det


class TestDegreeSeven:
    def test_vanishing_pattern(self):
        assert not tf.degree7_invariant(tf.representative(tf.W5)).is_zero()
        for label in (tf.W1, tf.W2, tf.W3, tf.W4):
            assert tf.degree7_invariant(tf.representative(label)).is_zero()

    def test_det_is_cube_with_fixed_constant(self):
        constant = None
        checked = 0
        for seed in range(12):
            w = random_trivector(seed)
            i7 = tf.degree7_invariant(w)
            det = tf.q_of(w).gram.det()
            if i7.is_zero():
                assert det.is_zero()
                continue
            ratio = det / (i7 ** 3)
            if constant is None:
                constant = ratio
            assert ratio == constant
            checked += 1
        assert checked >= 5

    def test_semi_invariance(self):
        # the twist exponent in the volume character, measured then verified
        w = tf.representative(tf.W5)
        base = tf.degree7_invariant(w)
        g0 = random_invertible(7, seed=100, height=2)
        exponent = None
        ratio = tf.degree7_invariant(fm.pullback(g0, w)) / base
        det = g0.det()
        for e in range(1, 9):
            if det ** e == ratio:
                exponent = e
                break
        assert exponent == 3
        for seed in range(5):
            g = random_invertible(7, seed=seed, height=2)
            assert tf.degree7_invariant(fm.pullback(g, w)) == det_pow(g, exponent) * base


def det_pow(g, e):
    return g.det() ** e


class TestStabilizers:
    def test_dimensions(self):
        expected = {tf.W5: 14, tf.W4: 15, tf.W3: 18, tf.W2: 21, tf.W1: 28}
        for label, dim in expected.items():
            assert tf.stabilizer_dim(tf.representative(label)) == dim

    def test_orbit_dims_match_poset(self):
        by_label = {h.label: h.dim for h in tf.hasse_data()}
        for label in (tf.W1, tf.W2, tf.W3, tf.W4, tf.W5):
            assert 49 - tf.stabilizer_dim(tf.representative(label)) == by_label[label]


class TestClassify:
    def test_representatives(self):
        for label in ALL_LABELS:
            rep = tf.representative(label)
            embedded = fm.KForm(3, 7, dict(rep.terms)) if rep.n < 7 else rep
            assert tf.classify(embedded).label == label

    def test_zero(self):
        assert tf.classify(fm.KForm.zero(3, 6)).label == tf.ZERO_LABEL

    def test_pullback_invariance_ten_each(self):
        rng = random.Random(0)
        for label in ALL_LABELS:
            rep = tf.representative(label)
            n = rep.n
            embedded = fm.KForm(3, 7, dict(rep.terms)) if n < 7 else rep
            for _ in range(10):
                g = random_invertible(7, seed=rng.randrange(1 << 30), height=2, field="gaussian")
                assert tf.classify(fm.pullback(g, embedded)).label == label

    def test_with_stabilizer_record(self):
        got = tf.classify(tf.representative(tf.W5), with_stabilizer=True)
        assert got.record.stab_dim == 14
        assert got.record.q_rank == 7
        assert got.record.i7_is_zero is False


def linear_divisor_reference(w):
    """dim { alpha : alpha ^ w = 0 } from Scalar wedges of w with each basis
    1-form."""
    n = w.n
    tuples = list(itertools.combinations(range(1, n + 1), w.k + 1))
    tindex = {t: r for r, t in enumerate(tuples)}
    cols = []
    for j in range(1, n + 1):
        col = [ZERO] * len(tuples)
        for idx, c in fm.wedge(fm.KForm.basis([j], n), w).terms.items():
            col[tindex[idx]] = c
        cols.append(col)
    return kernel(Matrix.from_cols(cols)).dim


class TestLinearDivisor:
    def test_matches_wedge_reference(self):
        # Gaussian pullbacks of W1 (divisible by a linear form) and W2 (not),
        # of a decomposable trivector and of the rank-5 form
        rng = random.Random(3)
        cases = ((tf.W1, 1), (tf.W2, 0), (tf.RANK3_DECOMPOSABLE, 3), (tf.RANK5, 1))
        for label, expected in cases:
            embedded = fm.KForm(3, 7, dict(tf.representative(label).terms))
            for _ in range(4):
                g = random_invertible(7, seed=rng.randrange(1 << 30), height=2, field="gaussian")
                w = fm.pullback(g, embedded)
                assert tf.linear_divisor_dim(w) == linear_divisor_reference(w) == expected

    def test_random_forms_match_wedge_reference(self):
        for seed in range(6):
            w = random_trivector(seed, n=6, height=2)
            assert tf.linear_divisor_dim(w) == linear_divisor_reference(w)


def action_matrix_reference(w):
    """The columns E_ab . w, a then b, from the terms of w with each index a
    replaced by b in turn, as Scalar KForms."""
    n = w.n
    tuples = list(itertools.combinations(range(1, n + 1), w.k))
    cols = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            acted = fm.KForm.from_terms(w.k, n, [
                (idx[:pos] + (b,) + idx[pos + 1:], c)
                for idx, c in w.terms.items() for pos, i in enumerate(idx) if i == a
            ])
            cols.append([acted.terms.get(t, ZERO) for t in tuples])
    return Matrix.from_cols(cols)


def record_reference(w):
    """The OrbitRecord of classify(w, with_stabilizer=True) and its label,
    from the Scalar references: the support through Subspace, the Gram
    matrix pair by pair, the quartic on the support, and the wedge and
    action matrices from KForms."""
    r = fm.form_rank(w)
    rec = tf.OrbitRecord(r, stab_dim=kernel(action_matrix_reference(w)).dim)
    if r < 6:
        return rec, {0: tf.ZERO_LABEL, 3: tf.RANK3_DECOMPOSABLE, 5: tf.RANK5}[r]
    if r == 6:
        rec.lambda_is_zero = lambda_quartic_reference(restrict_to_support_reference(w)).is_zero()
        return rec, tf.RANK6_TANGENT if rec.lambda_is_zero else tf.RANK6_GENERIC
    rec.q_rank = rank(Matrix(q_gram_reference(w)))
    rec.i7_is_zero = rec.q_rank < 7
    by_rank = {7: tf.W5, 4: tf.W4, 2: tf.W3}
    if rec.q_rank in by_rank:
        return rec, by_rank[rec.q_rank]
    return rec, tf.W1 if linear_divisor_reference(w) else tf.W2


class TestIntegerPathMatchesReferences:
    @pytest.mark.parametrize("field", ["rational", "gaussian"])
    def test_records_of_moved_representatives(self, field):
        rng = random.Random(7)
        for label in ALL_LABELS + (tf.ZERO_LABEL,):
            rep = fm.KForm.zero(3, 7) if label == tf.ZERO_LABEL else tf.representative(label)
            g = random_invertible(7, seed=rng.randrange(1 << 30), height=2, field=field)
            w = fm.pullback(g, fm.KForm(3, 7, dict(rep.terms)))
            got = tf.classify(w, with_stabilizer=True)
            assert (got.record, got.label) == record_reference(w)
            assert got.label == label
            assert tf.action_matrix(7, w) == action_matrix_reference(w)

    @pytest.mark.parametrize("scale, big, dtype", [
        # the products of one coefficient 10^6 with small ones fit int64
        (sc(1), sc(10 ** 6), np.int64),
        (sc(1), sc(99999999999999999999), object),  # past 2^63
        (sc(1), Scalar.gaussian(3, 99999999999999999999), object),
        # every coefficient 10^6: int64 cells whose products pass 2^63
        (sc(10 ** 6), sc(10 ** 6), object),
    ], ids=["big0", "big1", "big2", "all-big"])
    def test_large_coefficients(self, scale, big, dtype):
        w = tf.representative(tf.W5).scale(scale)
        w = fm.KForm(3, 7, {**w.terms, (1, 2, 5): big})
        q = tf.q_of(w)
        assert q.ints.dtype == dtype
        assert q.gram.entries == q_gram_reference(w)
        got = tf.classify(w, with_stabilizer=True)
        assert (got.record, got.label) == record_reference(w)
        assert got.label == tf.W5

    def test_action_matrix_of_two_forms(self):
        for field in ("rational", "gaussian"):
            g = random_invertible(5, seed=4, height=2, field=field)
            w = fm.pullback(g, fm.parse_form("e[1,2]+e[3,4]", 5))
            assert tf.action_matrix(5, w) == action_matrix_reference(w)
            assert tf.stabilizer_dim(w) == kernel(action_matrix_reference(w)).dim


FORM_CASES = [
    pytest.param(field, height, density, id=f"{field}-{label}-{'dense' if density == 1 else 'sparse'}")
    for field in ("rational", "gaussian")
    # 2^70: every cleared coefficient and product in Python integers
    for height, label in ((2, "small"), (2 ** 70, "past-2^63"))
    for density in (0.4, 1.0)
]


class TestTablePathMatchesReferences:
    @pytest.mark.parametrize("field, height, density", FORM_CASES)
    def test_psi_and_quartic(self, field, height, density):
        for seed in range(3):
            w = random_form(6, seed, height, field, density)
            assert tf.psi(w) == psi_reference(w)
            assert tf.lambda_quartic(w) == lambda_quartic_reference(w)

    @pytest.mark.parametrize("field, height, density", FORM_CASES)
    def test_degree_seven(self, field, height, density):
        w = random_form(7, 5, height, field, density)
        assert tf.degree7_invariant(w) == degree7_reference(w)

    def test_degree_seven_on_representatives(self):
        for label in (tf.W1, tf.W2, tf.W3, tf.W4, tf.W5):
            w = tf.representative(label)
            assert tf.degree7_invariant(w) == degree7_reference(w)
        assert tf.degree7_invariant(tf.representative(tf.W5)) == sc(-252)


class TestHasse:
    def test_top(self):
        assert max(h.dim for h in tf.hasse_data()) == 35

    def test_covers_of_31(self):
        entry = next(h for h in tf.hasse_data() if h.dim == 31)
        assert {tf_label_dim(l) for l in entry.covers} == {28, 26}

    def test_chain_length(self):
        data = {h.label: h for h in tf.hasse_data()}
        # longest chain from the top orbit to zero passes through 8 nodes
        def longest(label):
            entry = data[label]
            if not entry.covers:
                return 1
            return 1 + max(longest(c) for c in entry.covers)

        assert longest(tf.W5) == 8

    def test_qrank_semicontinuity(self):
        data = {h.label: h for h in tf.hasse_data()}
        qrank = {}
        for h in tf.hasse_data():
            if h.label == tf.ZERO_LABEL:
                qrank[h.label] = 0
                continue
            rep = tf.representative(h.label)
            emb = fm.KForm(3, 7, dict(rep.terms)) if rep.n < 7 else rep
            qrank[h.label] = tf.q_of(emb).rank
        for h in tf.hasse_data():
            for below in h.covers:
                assert qrank[below] <= qrank[h.label]


def tf_label_dim(label):
    return next(h.dim for h in tf.hasse_data() if h.label == label)


class TestDecomposition:
    def test_split_search_unique_at_representative(self):
        hits = tf.split_search_six(tf.representative(tf.RANK6_GENERIC))
        assert len(hits) == 1
        assert hits[0] == (frozenset({1, 2, 3}), frozenset({4, 5, 6}))

    def test_eigenspace_split_on_pullbacks(self):
        w = tf.representative(tf.RANK6_GENERIC)
        for seed in range(5):
            g = random_invertible(6, seed=seed, height=2)
            moved = fm.pullback(g, w)
            s1, s2 = tf.decompose_generic_six(moved)
            assert s1.dim == 3 and s2.dim == 3 and s1.intersect(s2).dim == 0
            # the two supports split the form into two decomposable pieces
            total = fm.support(moved)
            assert s1.add(s2) == total

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            tf.decompose_generic_six(tf.representative(tf.RANK6_TANGENT))


class TestSupportRestriction:
    def test_rank6_in_seven_variables(self):
        w = fm.pullback(random_invertible(7, seed=9, height=2), fm.parse_form("e[1,2,3]+e[4,5,6]", 7))
        got = tf.classify(w)
        assert (got.label, got.record.lambda_is_zero) == (tf.RANK6_GENERIC, False)
        inner = restrict_to_support_reference(w)
        assert inner.n == 6 and tf.classify(inner).label == tf.RANK6_GENERIC

    @pytest.mark.parametrize("text, label", [
        ("e[1,2,3]+e[4,5,6]", tf.RANK6_GENERIC),  # the kernel is spanned by e_7
        ("e[2,3,4]+e[5,6,7]", tf.RANK6_GENERIC),  # by e_1
        ("e[1,2,4]+e[1,3,5]+e[2,3,6]", tf.RANK6_TANGENT),
        ("e[2,3,5]+e[2,4,6]+e[3,4,7]", tf.RANK6_TANGENT),
        # by e_6 + e_7 - e_3, so coordinate 3 is dropped
        ("e[1,2,3]+e[4,5,6]+e[1,2,7]-e[4,5,7]", tf.RANK6_GENERIC),
    ])
    def test_unmoved_forms_drop_a_live_coordinate(self, text, label):
        w = fm.parse_form(text, 7)
        assert tf.classify(w).label == label == record_reference(w)[1]
