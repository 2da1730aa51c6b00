import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from excalg import intlin
from excalg import liealg as ll
from excalg import linalg as la
from excalg.scalar import I, ONE, Scalar, ZERO, _make, rand_scalar, sc
from excalg.tensor import StructureTensor, cleared_ints, scalar_rows

rationals = st.builds(
    lambda n, d: Scalar.rational(n, d),
    st.integers(-30, 30),
    st.integers(1, 30),
)
scalars = st.builds(
    lambda a, b: Scalar(a.re, b.re), rationals, rationals
)
# numerators and denominators past 2^63
big = st.integers(-(2 ** 70), 2 ** 70)
wide_rationals = st.builds(lambda n, d: Scalar.rational(n, d), big, st.integers(1, 2 ** 70))
any_scalars = st.one_of(
    rationals, scalars, wide_rationals,
    st.builds(lambda a, b: Scalar(a.re, b.re), wide_rationals, st.one_of(rationals, wide_rationals)),
)


def parts(a):
    """The Fraction-pair reference of a Scalar: (re, im)."""
    return a.re, a.im


def part_product(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def part_inverse(p):
    n = Fraction(p[0]) ** 2 + Fraction(p[1]) ** 2
    return p[0] / n, -p[1] / n


class TestScalar:
    def test_parse_format_roundtrip(self):
        for text in ("3/4", "-7/2", "0/1", "(1/2)+(-2/3)i", "(0/1)+(1/1)i"):
            s = Scalar.parse(text)
            assert Scalar.parse(str(s)) == s

    def test_parse_shorthand(self):
        assert Scalar.parse("i") == I
        assert Scalar.parse("-i") == -I
        assert Scalar.parse("2") == sc(2)
        assert Scalar.parse("1-i") == ONE - I
        assert Scalar.parse("3/2i") == Scalar.rational(3, 2) * I

    def test_field_tags(self):
        assert sc(3).field == "RATIONAL"
        assert (sc(3) + I).field == "GAUSSIAN"

    def test_i_squared(self):
        assert I * I == sc(-1)

    @given(scalars, scalars, scalars)
    @settings(max_examples=60, deadline=None)
    def test_field_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a

    @given(scalars)
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, a):
        if not a.is_zero():
            assert a * a.inverse() == ONE
        assert a.conjugate().conjugate() == a

    def test_pow(self):
        assert sc(2) ** 5 == sc(32)
        assert (ONE + I) ** 2 == sc(2) * I

    @given(any_scalars, any_scalars, st.integers(-3, 3), big)
    @settings(max_examples=100, deadline=None)
    def test_fast_paths_match_part_arithmetic(self, a, b, k, n):
        # every operation on Scalars against the same formulas on the
        # Fraction parts (re, im)
        assert a + b == Scalar(a.re + b.re, a.im + b.im)
        assert a - b == Scalar(a.re - b.re, a.im - b.im)
        assert a * b == Scalar(*part_product(parts(a), parts(b)))
        assert -a == Scalar(-a.re, -a.im)
        assert (a == b) == (parts(a) == parts(b))
        assert a.is_zero() == (a.re == 0 and a.im == 0)
        assert a + 2 == 2 + a == Scalar(a.re + 2, a.im)
        assert a * 3 == 3 * a == Scalar(3 * a.re, 3 * a.im)
        if b:
            assert b.inverse() == Scalar(*part_inverse(parts(b)))
            assert a / b == Scalar(*part_product(parts(a), part_inverse(parts(b))))
            assert 3 / b == Scalar(*part_product((3, 0), part_inverse(parts(b))))
        else:
            for quotient in (b.inverse, lambda: a / b, lambda: 3 / b):
                with pytest.raises(ZeroDivisionError):
                    quotient()
        if a or k >= 0:
            power = (1, 0)
            base = parts(a) if k >= 0 else part_inverse(parts(a))
            for _ in range(abs(k)):
                power = part_product(power, base)
            assert a ** k == Scalar(*power)
        # hashing: equal values hash equally, and an integer hashes as itself
        assert hash(a) == hash(Scalar(a.re, a.im)) == hash(a + b - b)
        assert sc(n) == n and hash(sc(n)) == hash(n)
        if a.im == 0 and a.re.denominator == 1:
            assert hash(a) == hash(int(a.re))
        # text: each part printed reduced on its own, and read back
        re, im = parts(a)
        want = f"{re.numerator}/{re.denominator}"
        if im:
            want = f"({want})+({im.numerator}/{im.denominator})i"
        assert str(a) == want and Scalar.parse(str(a)) == a

    @given(big, big, big.filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_make_matches_constructor(self, x, y, d):
        made = _make(x, y, d)
        built = Scalar(Fraction(x, d), Fraction(y, d))
        assert (made.re, made.im) == (Fraction(x, d), Fraction(y, d))
        assert made.d > 0 and gcd(made.x, made.y, made.d) == 1
        assert (made.x, made.y, made.d) == (built.x, built.y, built.d)
        assert made == built and hash(made) == hash(built)
        assert str(made) == str(built) and made.field == built.field
        for name in ("x", "re"):
            with pytest.raises(AttributeError):
                setattr(made, name, 1)
        assert made == built


class TestMatrix:
    def test_rank_identity(self):
        assert la.rank(la.Matrix.identity(3)) == 3

    def test_rank_zero(self):
        assert la.rank(la.Matrix.zero(4, 7)) == 0

    def test_kernel_identity(self):
        assert la.kernel(la.Matrix.identity(5)).dim == 0

    def test_solve_identity(self):
        v = [sc(3), sc(-2), I]
        assert la.solve(la.Matrix.identity(3), v) == v

    def test_solve_inconsistent(self):
        m = la.Matrix([[1, 1], [1, 1]])
        assert la.solve(m, [sc(0), sc(1)]) is None

    def test_vandermonde_nodes_invertible(self):
        # the interpolation nodes used for cubic coefficient extraction
        nodes = la.Matrix(
            [[ONE, sc(t), sc(t) ** 2, sc(t) ** 3] for t in (-1, 0, 1, 2)]
        )
        assert not nodes.det().is_zero()

    def test_random_invertible_deterministic(self):
        a = la.random_invertible(5, seed=42)
        b = la.random_invertible(5, seed=42)
        assert a == b

    def test_random_invertible_rank_100_seeds(self):
        for seed in range(100):
            assert la.rank(la.random_invertible(7, seed=seed, height=3)) == 7

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_rank_nullity(self, seed):
        rng = random.Random(seed)
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = la.Matrix(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        assert la.rank(m) + la.kernel(m).dim == cols

    def test_kernel_canonical_idempotent(self):
        m = la.Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        k = la.kernel(m)
        again = la.Subspace(3, [list(v) for v in k.basis])
        assert k == again


class TestSubspace:
    def test_equality_is_syntactic_on_echelon(self):
        s1 = la.Subspace(3, [[1, 0, 1], [0, 1, 1]])
        s2 = la.Subspace(3, [[1, 1, 2], [1, -1, 0]])
        assert s1 == s2

    def test_intersection_and_sum(self):
        a = la.Subspace(3, [[1, 0, 0], [0, 1, 0]])
        b = la.Subspace(3, [[0, 1, 0], [0, 0, 1]])
        assert a.intersect(b).dim == 1
        assert a.add(b).dim == 3


def _rref_fraction(rows):
    """Reduced row echelon form by Fraction elimination over Q(i): the
    reference for the certified elimination of ``linalg._rref``.

    Incremental reduction: each row is reduced against the pivots found so
    far, then inserted if it contributes a new pivot."""
    pivots = []
    reduced = []
    for row in rows:
        row = list(row)
        for r, p in enumerate(pivots):
            f = row[p]
            if not f.is_zero():
                red = reduced[r]
                row = [x - f * y for x, y in zip(row, red)]
        lead = next((j for j, x in enumerate(row) if not x.is_zero()), None)
        if lead is None:
            continue
        inv = row[lead].inverse()
        row = [inv * x for x in row]
        # keep rows sorted by pivot column
        pos = next((k for k, p in enumerate(pivots) if p > lead), len(pivots))
        pivots.insert(pos, lead)
        reduced.insert(pos, row)
    # back-eliminate above each pivot
    for r in range(len(pivots) - 1, -1, -1):
        p = pivots[r]
        prow = reduced[r]
        for s in range(r):
            f = reduced[s][p]
            if not f.is_zero():
                reduced[s] = [x - f * y for x, y in zip(reduced[s], prow)]
    return reduced, pivots


def _free_column_basis(rows, ncols):
    """Kernel vectors read off the Fraction reduced row echelon form."""
    reduced, pivots = _rref_fraction(rows) if rows else ([], [])
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = la.unit_vec(ncols, f)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis


class TestExactProduct:
    def test_int64_below_the_bound_python_integers_past_it(self):
        import numpy as np

        x = np.array([3, -(1 << 30)], dtype=np.int64)
        small = intlin.exact_product(x, x, terms=4)
        assert small.dtype == np.int64 and small.tolist() == [9, 1 << 60]
        big = intlin.exact_product(x, x, terms=8)  # 8 * 2^60 = 2^63
        assert big.dtype == object and big.tolist() == [9, 1 << 60]
        huge = intlin.exact_product(x, np.array([1 << 40]))
        assert huge.tolist() == [3 << 40, -(1 << 70)]
        assert intlin.int_dtype((1 << 63) - 1) is np.int64 and intlin.int_dtype(1 << 63) is object


    def test_matmul_at_the_int64_minimum_takes_python_integers(self):
        import numpy as np

        a = np.array([[-(1 << 63)]], dtype=np.int64)
        assert intlin.checked_int_matmul(a, np.array([[3]])).tolist() == [[-3 << 63]]
        stack = np.array([[[1, 2], [3, 4]], [[-(1 << 63), 0], [0, 1]]], dtype=np.int64)
        assert intlin.checked_int_matmul(stack, stack).tolist() == [
            [[7, 10], [15, 22]], [[1 << 126, 0], [0, 1]]
        ]

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [
            ((28, 406), (406, 378)),  # cut along b's columns
            ((600, 40), (40, 30)),  # cut along a's rows
            ((2, 40, 300), (300, 50)),  # a stack, cut along b's columns
            ((3, 8, 8), (8, 3, 8, 8)),  # broadcast stacks, one piece
            ((2000, 100), (100, 100)),  # past _BLOCKED_MADDS, one product
            ((0, 5), (5, 7)),
            ((4, 5), (5,)),
        ],
    )
    def test_float_products_in_pieces_are_exact(self, shape_a, shape_b):
        import numpy as np

        rng = np.random.default_rng(len(shape_a) + shape_b[-1])
        a = rng.integers(-1 << 20, 1 << 20, shape_a)
        b = rng.integers(-1 << 20, 1 << 20, shape_b)
        got = intlin.checked_int_matmul(a, b)
        assert got.dtype == np.int64 and np.array_equal(got, a @ b)


def _coordinates(vectors, targets):
    """span_coordinates of Scalar vectors and targets, cleared over one
    denominator, as Scalar rows; None when a target is outside the span."""
    ints, _ = cleared_ints((x for v in vectors + targets for x in v), (len(vectors) + len(targets), len(vectors[0])))
    solved = intlin.span_coordinates(ints[:len(vectors)], ints[len(vectors):])
    return None if solved is None else scalar_rows(*solved)


class TestSpanCoordinates:
    @pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
    def test_matches_solve(self, gaussian):
        # 20 random spans against la.solve: a vector inside gives its
        # weights, one outside gives None exactly when solve does, and a
        # dependent family raises
        checked = outside_seen = 0
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(2, 7)
            k = rng.randint(1, n - 1)
            draw = lambda: [rand_scalar(rng, 4, gaussian) for _ in range(n)]
            vectors = [draw() for _ in range(k)]
            given_cols = la.Matrix.from_cols(vectors)
            if la.rank(given_cols) < k:
                continue
            weights = [rand_scalar(rng, 4, gaussian) for _ in range(k)]
            inside = [sum((w * v[i] for w, v in zip(weights, vectors)), ZERO) for i in range(n)]
            assert _coordinates(vectors, [inside]) == [la.solve(given_cols, inside)] == [weights]
            other = draw()
            expected = la.solve(given_cols, other)
            assert _coordinates(vectors, [other]) == (None if expected is None else [expected])
            outside_seen += expected is None
            with pytest.raises(ValueError):
                _coordinates(vectors + [inside], [inside])
            checked += 1
        assert checked >= 15 and outside_seen >= 10

    def test_gaussian_family_past_int64(self):
        rng = random.Random(9)
        big = sc(2 ** 70)
        vectors = [[rand_scalar(rng, 4, True) + big * I * sc(rng.randint(-2, 2)) for _ in range(6)] for _ in range(3)]
        assert la.rank(la.Matrix(vectors)) == 3
        weights = [rand_scalar(rng, 4, True) for _ in range(3)]
        inside = [sum((w * v[i] for w, v in zip(weights, vectors)), ZERO) for i in range(6)]
        assert cleared_ints((x for v in vectors for x in v), (3, 6))[0].dtype == object
        assert _coordinates(vectors, [inside]) == [weights]
        outside = inside[:5] + [inside[5] + I]
        assert la.solve(la.Matrix.from_cols(vectors), outside) is None
        assert _coordinates(vectors, [outside]) is None

    def test_family_dependent_only_over_gaussians_raises(self):
        # v and i v are independent over Q but not over Q(i)
        v = [ONE, sc(2), I]
        with pytest.raises(ValueError, match="dependent"):
            _coordinates([v, [I * x for x in v]], [v])

    @staticmethod
    def _family(rng, n, m, big=0):
        # n independent rows with column 0 zero, entries past int64 when big
        import numpy as np

        while True:
            rows = [[0] + [rng.randint(-5, 5) + (rng.choice((-1, 1)) << big if big else 0)
                           for _ in range(m - 1)] for _ in range(n)]
            if la.rank(la.Matrix(rows)) == n:
                return intlin.int_array(rows), rows

    @pytest.mark.parametrize("big", [0, 70], ids=["int64", "past_int64"])
    def test_matches_exact_coordinates(self, big):
        import numpy as np

        rng = random.Random(3)
        family, rows = self._family(rng, 5, 12, big)
        c = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(7)]
        targets = intlin.int_array([[sum(a * r[j] for a, r in zip(cs, rows)) for j in range(12)] for cs in c])
        # the family scaled by 3 has the coordinates c / 3
        x, den = intlin.span_coordinates(family * 3, targets)
        assert [[sc(v) / sc(den) for v in row] for row in x.tolist()] == [
            [sc(v) / sc(3) for v in row] for row in c
        ]
        assert np.array_equal(intlin.checked_int_matmul(x, family * 3), targets * den)

    def test_target_outside_the_span_gives_none(self):
        rng = random.Random(4)
        family, _ = self._family(rng, 4, 9)
        targets = family[:2].copy()
        assert intlin.span_coordinates(family, targets) is not None
        targets[1, 0] += 1  # column 0 of the family is zero
        assert intlin.span_coordinates(family, targets) is None

    def test_dependent_family_raises(self):
        import numpy as np

        family = np.array([[1, 2, 3], [0, 1, 1], [1, 3, 4]], dtype=np.int64)
        with pytest.raises(ValueError, match="dependent"):
            intlin.span_coordinates(family, family[:1])

    def test_family_dependent_modulo_the_first_prime(self):
        import numpy as np

        p0 = intlin._PRIMES[0]
        family = np.array([[1, 1], [1, 1 + p0]], dtype=np.int64)
        x, den = intlin.span_coordinates(family, np.array([[0, p0]], dtype=np.int64))
        assert (x.tolist(), den) == ([[-1, 1]], 1)


class TestIntKernel:
    def test_int64_minimum_entry(self):
        # -2^63 is past the float bound of the random row compression, so
        # the rows are reduced modulo each prime first; the kernel is one
        # vector, checked in Python integers
        import numpy as np

        rows = [[-(1 << 63), 3]] * 2 + [[0, 0]] * 48
        expected = _free_column_basis([[sc(x) for x in row] for row in rows], 2)
        assert expected == [[Scalar.rational(3, 1 << 63), ONE]]
        assert intlin.int_kernel(np.array(rows, dtype=np.int64), 2) == expected
        assert intlin.int_kernel(rows, 2) == expected

    def test_matches_pure_solver(self):
        # int_kernel's vectors are the Fraction reference's free-column
        # vectors, and the Leibniz builder's column-reversed integer path
        # gives the echelon basis of kernel(), entry for entry.  With the
        # single product e0 e0 = e0, unknown u with A_u[l, 0] = rows[l][u]
        # puts rows[l] in the Leibniz row (0, 0, l).
        rng = random.Random(5)
        systems = [[[rng.randint(-4, 4) for _ in range(30)] for _ in range(80)]]
        for rank in (20, 7):
            gens = [[rng.randint(-4, 4) for _ in range(30)] for _ in range(rank)]
            combos = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(80)]
            systems.append(
                [[sum(c * g[j] for c, g in zip(cs, gens)) for j in range(30)] for cs in combos]
            )
        for rows in systems:
            scalars = [[sc(x) for x in row] for row in rows]
            assert intlin.int_kernel(rows, 30) == _free_column_basis(scalars, 30)
            unknowns = [({(l, 0): x for l, x in enumerate(col) if x}, {}, {})
                        for col in zip(*scalars)]
            t = StructureTensor(len(rows), [(0, 0, 0, ONE)])
            assert ll.leibniz_kernel(t, unknowns) == la.kernel(la.Matrix(rows)).basis
        assert len(intlin.int_kernel(systems[2], 30)) == 23

    @pytest.mark.parametrize("unit", [ONE, I], ids=["rational", "gaussian"])
    def test_kernel_is_one_elimination(self, unit, monkeypatch):
        # an 80 x 30 system of rank 20: one certified elimination gives the
        # echelon basis of the kernel, over Q and over Q(i)
        rng = random.Random(7)
        draw = lambda: sc(rng.randint(-4, 4)) + unit * rng.randint(-2, 2)
        gens = [[draw() for _ in range(30)] for _ in range(20)]
        combos = [[draw() for _ in range(20)] for _ in range(80)]
        rows = [[sum((c * g[j] for c, g in zip(cs, gens)), ZERO) for j in range(30)]
                for cs in combos]
        expected = _rref_fraction(_free_column_basis(rows, 30))[0]
        calls = _counting_certified_kernel(monkeypatch)
        basis = la.kernel(la.Matrix(rows)).basis
        assert len(calls) == 1
        assert len(basis) == 10 and basis == expected

    def test_rank_certificate(self):
        # exact ranks from the verified kernel, also for a full-rank matrix
        # that is singular modulo the first two primes
        p0, p1 = intlin._PRIMES[:2]
        cases = [
            ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 2),
            ([[1, 0], [1, 1]], 2),
            ([[1, 1], [1, 1 + p0 * p1]], 2),
        ]
        for rows, rank in cases:
            n = len(rows[0])
            assert n - len(intlin.int_kernel(rows, n)) == rank
            assert la.rank(la.Matrix(rows)) == rank

    def test_lift_stops_at_the_first_failed_reconstruction(self, monkeypatch):
        # a residue with no small fraction fails the lift at once: the
        # residues after it are not reconstructed
        import numpy as np

        p0 = intlin._PRIMES[0]
        residues = np.array([[p0 // 2 + 12345, 3, 5]], dtype=object)
        assert intlin._rational_reconstruct(p0 // 2 + 12345, p0) is None
        calls = []
        reconstruct = intlin._rational_reconstruct
        monkeypatch.setattr(intlin, "_rational_reconstruct", lambda v, m: calls.append(v) or reconstruct(v, m))
        assert intlin._lift(residues, p0, [0], [1, 2, 3], 4) is None
        assert len(calls) == 1

    def test_prime_with_later_pivots_is_passed_over(self):
        # modulo p0 the first column vanishes and the pivots move from
        # (0, 1) to (1, 2): as many pivots, but later, so p0 must lose
        p0 = intlin._PRIMES[0]
        rows = [[p0, 0, 1], [0, 1, 0]]
        assert intlin.int_kernel(rows, 3) == [[Scalar.rational(-1, p0), ZERO, ONE]]
        assert intlin.int_rref(rows, 3)[1] == [0, 1]


# entries for the differential tests: small rationals and integers past the
# int64 and float bounds, and Gaussian rationals with such parts
_entries = st.one_of(
    st.just(ZERO),
    st.builds(lambda n, d: Scalar.rational(n, d), st.integers(-9, 9), st.integers(1, 6)),
    st.builds(lambda s, e, d: Scalar.rational(s * (1 << e) + 1, d),
              st.sampled_from((-1, 1)), st.sampled_from((40, 70)), st.integers(1, 3)),
)
_gaussian_entries = st.one_of(
    _entries, st.builds(lambda a, b: Scalar(a.re, b.re), _entries, _entries)
)


@st.composite
def _rows(draw, entries):
    """Rows of a matrix: empty, 1x1, tall or wide, with zero rows, duplicate
    rows, a combination of two rows, or a pair of rows that differ by a
    multiple of the first prime (dependent modulo that prime, independent
    over the field)."""
    m = draw(st.integers(0, 6))
    n = 1 if m == 1 and draw(st.booleans()) else draw(st.integers(1, 6))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if rows:
        twist = draw(st.sampled_from(("none", "zero", "duplicate", "dependent", "mod p0")))
        r, s = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if twist == "zero":
            rows.append([ZERO] * n)
        elif twist == "duplicate":
            rows.append(list(rows[r]))
        elif twist == "dependent":
            c, d = draw(entries), draw(entries)
            rows.append([c * x + d * y for x, y in zip(rows[r], rows[s])])
        elif twist == "mod p0":
            j = draw(st.integers(0, n - 1))
            row = list(rows[r])
            row[j] = row[j] + intlin._PRIMES[0]
            rows.append(row)
        rows = draw(st.permutations(rows))
    return [list(row) for row in rows]


def _check_against_reference(rows, rhs):
    """rank, Subspace, kernel, solve and inverse of the certified elimination
    against the Fraction reference, entry for entry."""
    n = len(rows[0]) if rows else 0
    m = la.Matrix(rows)
    reduced, pivots = _rref_fraction(rows) if rows else ([], [])
    assert la.rank(m) == len(pivots)
    assert la.Subspace(n, rows).basis == reduced
    if rows:
        assert la.kernel(m).basis == _rref_fraction(_free_column_basis(rows, n))[0]
        aug_red, aug_piv = _rref_fraction([r + [b] for r, b in zip(rows, rhs)])
        expected = None
        if n not in aug_piv:
            expected = [ZERO] * n
            for r, p in enumerate(aug_piv):
                expected[p] = aug_red[r][n]
        assert la.solve(m, rhs) == expected
    if rows and len(rows) == n:
        aug_red, aug_piv = _rref_fraction(
            [r + la.unit_vec(n, i) for i, r in enumerate(rows)]
        )
        if aug_piv == list(range(n)):
            assert m.inverse() == la.Matrix([r[n:] for r in aug_red])
        else:
            with pytest.raises(ValueError):
                m.inverse()


def _counting_certified_kernel(monkeypatch):
    """Count the certified eliminations from here on."""
    calls = []
    inner = intlin._certified_kernel

    def counted(rows, ncols):
        calls.append(ncols)
        return inner(rows, ncols)

    monkeypatch.setattr(intlin, "_certified_kernel", counted)
    return calls


class TestCertifiedElimination:
    @given(_rows(_entries), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_fraction_reference(self, rows, data):
        _check_against_reference(rows, [data.draw(_entries) for _ in rows])

    @given(_rows(_gaussian_entries), st.data())
    @settings(max_examples=60, deadline=None)
    def test_gaussian_matches_fraction_reference(self, rows, data):
        # Q(i) rows are eliminated in their real form
        _check_against_reference(rows, [data.draw(_gaussian_entries) for _ in rows])

    def test_heights_past_the_first_64_primes(self):
        # the inverse of a 12 x 12 matrix of 100-bit integers has about
        # 2300-bit numerators times denominators: more than 64 primes hold
        rng = random.Random(11)
        rows = [[sc(rng.randrange(1 << 100)) for _ in range(12)] for _ in range(12)]
        aug_red, aug_piv = _rref_fraction([r + la.unit_vec(12, i) for i, r in enumerate(rows)])
        assert aug_piv == list(range(12))
        assert la.Matrix(rows).inverse() == la.Matrix([r[12:] for r in aug_red])

    def test_rational_input_never_takes_the_fraction_loop(self, monkeypatch):
        # Fraction elimination inverts each pivot; the certified path inverts
        # no Scalar and eliminates once per call, over Q and over Q(i)
        half = Scalar.rational(1, 2)
        rational = la.Matrix([[1, 2, 3], [2, 4, 6], [1, 0, half]])
        gaussian = la.Matrix([[1, I, 3], [I, -1, 3 * I], [1, 0, half]])
        g_inverse = la.Matrix([r[2:] for r in _rref_fraction([[ONE, I, ONE, ZERO], [sc(3), ONE, ZERO, ONE]])[0]])

        def refuse(self):
            raise AssertionError("an elimination inverted a Scalar")

        monkeypatch.setattr(Scalar, "inverse", refuse)
        with pytest.raises(AssertionError):
            _rref_fraction([[I, ONE]])
        calls = _counting_certified_kernel(monkeypatch)
        for m in (rational, gaussian):
            assert la.rank(m) == 2
            assert la.kernel(m).dim == 1
            assert la.Subspace(3, m.entries).dim == 2
        assert la.solve(rational, [sc(1), sc(2), sc(0)]) is not None
        assert gaussian.apply(la.solve(gaussian, [ONE, I, ZERO])) == [ONE, I, ZERO]
        assert la.Matrix([[1, 2], [3, 4]]).inverse() == la.Matrix(
            [[-2, 1], [Scalar.rational(3, 2), -half]]
        )
        assert la.Matrix([[1, I], [3, 1]]).inverse() == g_inverse
        assert len(calls) == 10

    @pytest.mark.parametrize("eliminate", [
        lambda: la.rank(la.Matrix([[I, ONE]])),
        lambda: la.kernel(la.Matrix([[I, ONE]])),
        lambda: intlin.kernel_array(_gaussian_ints([[I, ONE]]), 2),
        lambda: ll.derived_dimension(_gaussian_heisenberg()),
        lambda: ll.killing_nondegenerate(_gaussian_heisenberg()),
    ], ids=["rank", "kernel", "kernel_array", "derived_dimension", "killing_nondegenerate"])
    def test_unpaired_real_pivots_raise(self, eliminate, monkeypatch):
        # the real form of a Q(i) system has its free columns in pairs; a
        # lone one, here a zero column appended to the real form, is an
        # error on every Gaussian entry point, not a reason to eliminate
        # another way
        import numpy as np

        realified = intlin._realified
        monkeypatch.setattr(intlin, "_realified", lambda a: np.pad(realified(a), ((0, 0), (0, 1))))
        with pytest.raises(ArithmeticError, match="unpaired"):
            eliminate()


def _gaussian_ints(rows):
    return cleared_ints((x for row in rows for x in row), (len(rows), len(rows[0])))[0]


def _gaussian_heisenberg():
    return ll.SCAlgebra(3, {(0, 1): {2: I}, (1, 0): {2: -I}}, skew=True)
