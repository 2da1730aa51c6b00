import itertools
import random
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from excalg import composition
from excalg import intlin
from excalg import forms as fm
from excalg import liealg as ll
from excalg import linalg as la
from excalg import scalar
from excalg import threeform as tf
from excalg.composition import associative_form, canonical_octonions, named_algebra
from excalg.jordan import jordan_algebra
from excalg.linalg import Matrix, Subspace, kernel, random_invertible, unit_vec
from excalg.magicsquare import _so_basis
from excalg.rootdata import build_root_system, diagram_type
from excalg.scalar import I, ONE, ZERO, sc
from excalg.tensor import StructureTensor


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

    @pytest.mark.parametrize("field", ["rational", "gaussian"])
    def test_skew_check_on_cells(self, field):
        # a one-sided corruption and a missing (j, i) entry are both caught,
        # over Q and over Q(i)
        g = so3() if field == "rational" else gaussian_gl2()
        key = (0, 1)
        k = min(g.bracket[key])
        one_sided = {p: dict(c) for p, c in g.bracket.items()}
        one_sided[key][k] = one_sided[key][k] * 2
        missing = {p: c for p, c in g.bracket.items() if p != key[::-1]}
        for bad in (one_sided, missing):
            with pytest.raises(ValueError, match=rf"bracket not skew at \(0,1,{k}\)"):
                ll.SCAlgebra(g.dim, bad, skew=True)
        assert ll.SCAlgebra(g.dim, g.bracket, skew=True).bracket == g.bracket

    @pytest.mark.parametrize("field, cell", [
        ("rational", (1, 2, 0)), ("rational", (2, 0, 1)),
        ("gaussian", (1, 2, 3)), ("gaussian", (2, 0, 2)),
    ])
    def test_skew_check_names_the_corrupted_cell(self, field, cell):
        # one flat cell changed: the message names it with i <= j, whichever
        # orientation was corrupted
        g = so3() if field == "rational" else gaussian_gl2()
        i, j, k = cell
        t = g.tensor
        keys = t.pair * g.dim + t.out
        val = t.val.copy()
        val[np.searchsorted(keys, (i * g.dim + j) * g.dim + k)] *= 2
        bad = StructureTensor.from_cells(g.dim, t.den, keys, val)
        a, b = min(i, j), max(i, j)
        with pytest.raises(ValueError, match=rf"^bracket not skew at \({a},{b},{k}\)$"):
            ll.SCAlgebra(g.dim, bad)
        assert ll.SCAlgebra(g.dim, StructureTensor.from_cells(g.dim, t.den, keys, t.val)).skew

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

    def test_skew_check_sums_past_int64(self):
        # c(0,1) = c(1,0) = -2**63 are int64 cells; negating one wraps to
        # itself, but their sum -2**64 is not zero, so the bracket is not skew
        low = str(-(1 << 63))
        data = {"dim": 2, "entries": [[0, 1, [low, "0/1"]], [1, 0, [low, "0/1"]]]}
        with pytest.raises(ValueError, match=r"^bracket not skew at \(0,1,0\)$"):
            ll.SCAlgebra.from_json(data)
        data["entries"][1][2][0] = str(1 << 63)
        assert ll.SCAlgebra.from_json(data).tensor.biggest == 1 << 63

    @pytest.mark.parametrize("field", ["rational", "gaussian"])
    def test_tensor_constructor_and_lazy_view(self, field):
        # an algebra kept as its tensor reads like the dict-built one; its
        # Scalar view is built on first read, from the cells
        g = gaussian_gl2() if field == "gaussian" else ll.SCAlgebra(3, {
            key: {k: v * sc("3/2") for k, v in comp.items()} for key, comp in so3().bracket.items()
        })
        h = ll.SCAlgebra(g.dim, g.tensor, name="view")
        assert "bracket" not in vars(h)
        assert ll.jacobi_check(h).passed and h.name == "view"
        assert h.bracket == g.bracket and h.to_json() == g.to_json()
        assert h.basis_bracket(0, 1) == g.basis_bracket(0, 1)
        with pytest.raises(ValueError, match="not skew"):
            ll.SCAlgebra(g.dim, ll.SCAlgebra(g.dim, {(0, 1): {0: ONE}}, skew=False).tensor)


def reference_bracket(g):
    """{(i, j): {k: c_ij^k}} read off the tensor's cells one by one, in
    Scalar arithmetic."""
    t, d, table = g.tensor, g.dim, {}
    for p, k, v in zip(t.pair.tolist(), t.out.tolist(), t.val.tolist()):
        c = sc(v[0]) + (I * sc(v[1]) if len(v) > 1 else ZERO)
        table.setdefault((p // d, p % d), {})[k] = c / sc(t.den)
    return table


def view_algebras():
    from excalg.magicsquare import triality_algebra

    return {"tri(H)": triality_algebra("h").algebra, "gaussian": gaussian_gl2()}


class TestBracketView:
    @pytest.mark.parametrize("name", ["tri(H)", "gaussian"])
    def test_matches_scalar_reference(self, name):
        g = view_algebras()[name]
        want = reference_bracket(g)
        assert list(g.bracket) == list(want) == sorted(want)
        for key, comp in want.items():
            got = g.bracket[key]
            assert got == comp and list(got) == sorted(comp)
            assert [str(v) for v in got.values()] == [str(comp[k]) for k in got]
        assert dict(g.bracket.items()) == want and list(g.bracket.values()) == list(want.values())

    @pytest.mark.parametrize("name", ["tri(H)", "gaussian"])
    def test_mapping_protocol(self, name):
        g = view_algebras()[name]
        view, want = g.bracket, reference_bracket(g)
        assert isinstance(view, Mapping) and len(view) == len(want)
        assert list(view.keys()) == sorted(want)
        key = next(iter(want))
        absent = next((i, j) for i in range(g.dim) for j in range(g.dim) if (i, j) not in want)
        assert key in view and absent not in view
        for other in (-1, g.dim, "x", (0,), (0, 1, 2), None, 0.5):
            assert other not in view and (other, 0) not in view
        assert view.get(key) == want[key] and view.get(absent) is None and view.get(absent, {}) == {}
        with pytest.raises(KeyError):
            view[absent]
        assert view == want and want == view and not view != want
        assert view != {**want, absent: {0: ONE}} and {**want, absent: {0: ONE}} != view
        assert {**view} == want and dict(view) == want
        with pytest.raises(TypeError):
            view[absent] = {0: ONE}
        with pytest.raises(TypeError):
            del view[key]
        # a read builds a new dict: changing it leaves the cells as they were
        view[key][absent[0]] = sc(7)
        assert view[key] == want[key] and g.basis_bracket(*key) == want[key]

    def test_length_of_e7_allocates_under_a_megabyte(self):
        from excalg.magicsquare import vinberg_build

        g = vinberg_build("h", "o").algebra
        tracemalloc.start()
        try:
            n = len(g.bracket)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == len(set(g.tensor.pair.tolist())) and peak < 1 << 20


class TestDerivations:
    def test_composition_algebra_dims(self):
        expected = {"r": 0, "c": 0, "h": 3, "o": 14}
        for name, dim in expected.items():
            alg = canonical_octonions() if name == "o" else named_algebra(name)
            assert ll.derivations(alg).dim == dim

    def test_jordan_derivation_dims(self):
        for a, dim in ((0, 0), (1, 3), (2, 8), (4, 21)):
            assert ll.derivations(jordan_algebra(a)).dim == dim

    def test_gaussian_sl2_derivations_are_inner(self):
        # the Gaussian sl2 of TestCommutatorClosure.test_gaussian_family
        h = _elementary(2, 0, 0) - _elementary(2, 1, 1)
        g = ll.commutator_closure_algebra([h, _elementary(2, 0, 1).scale(I), _elementary(2, 1, 0)])
        assert not g.tensor.rational
        assert ll.derivations(g).dim == 3

    @pytest.mark.parametrize("case", ["jordan1", "jordan1_large", "jordan2", "octonions", "tri_h"])
    def test_leibniz_kernel_matches_scalar_rows(self, case):
        # the integer builder gives the echelon kernel of the Scalar rows,
        # entry for entry, on commutative and non-commutative products; the
        # rescaled H3(R) has constants up to 2^80, past int64
        if case == "jordan1_large":
            alg = rescaled(jordan_algebra(1), [ONE, sc(2 ** 40), ONE, sc(3), ONE, sc("1/5")])
            unknowns = derivation_unknowns(alg.dim)
        elif case == "tri_h":
            alg = named_algebra("h")
            so = _so_basis(alg)
            unknowns = [(m, {}, {}) for m in so] + [({}, m, {}) for m in so] + [({}, {}, m) for m in so]
        else:
            alg = {"jordan1": jordan_algebra(1), "jordan2": jordan_algebra(2),
                   "octonions": canonical_octonions()}[case]
            unknowns = derivation_unknowns(alg.dim)
        expected = kernel(leibniz_rows_reference(alg, unknowns)).basis
        assert expected
        assert ll.leibniz_kernel(alg.tensor, unknowns) == expected

    @pytest.mark.parametrize("case", ["jordan1", "gl2"])
    def test_leibniz_kernel_matches_scalar_rows_over_gaussians(self, case):
        # Jordan H3(R) in a rescaled Gaussian basis (commutative) and gl2 in
        # a Gaussian basis with a denominator (skew)
        if case == "jordan1":
            alg = rescaled(jordan_algebra(1), [ONE, I, sc(2), ONE + I, sc("1/3") * I, ONE])
        else:
            alg = gaussian_gl2()
        assert not alg.tensor.rational
        unknowns = derivation_unknowns(alg.dim)
        expected = kernel(leibniz_rows_reference(alg, unknowns)).basis
        assert expected
        assert ll.leibniz_kernel(alg.tensor, unknowns) == expected

    def test_derivations_kill_unit_and_preserve_imaginary(self, octonions):
        der = ll.derivations(octonions)
        for m in der.matrices:
            assert all(m[0, j].is_zero() for j in range(8))
            assert all(m[i, 0].is_zero() for i in range(8))


def derivation_unknowns(d):
    """(E_ab, E_ab, E_ab) in the order a * d + b."""
    return [({(a, b): ONE},) * 3 for a in range(d) for b in range(d)]


def leibniz_rows_reference(alg, unknowns):
    """The rows of U1(e_i e_j) - U2(e_i) e_j - e_i U3(e_j) = 0 built as
    Scalar dicts from the basis products, one row per (i, j, l)."""
    d = alg.dim
    prods = [[alg.basis_product(i, j) for j in range(d)] for i in range(d)]
    at = [{}, {}, {}]
    for u, mats in enumerate(unknowns):
        for slot, m in enumerate(mats):
            for pq, x in m.items():
                at[slot].setdefault(pq, []).append((u, x))
    rows = []
    for i, j, l in itertools.product(range(d), repeat=3):
        row = {}
        for slot, sign, terms in (
            (0, 1, [((l, m), prods[i][j][m]) for m in range(d)]),
            (1, -1, [((a, i), prods[a][j][l]) for a in range(d)]),
            (2, -1, [((b, j), prods[i][b][l]) for b in range(d)]),
        ):
            for pq, c in terms:
                if c:
                    for u, x in at[slot].get(pq, ()):
                        row[u] = row.get(u, ZERO) + sc(sign) * c * x
        rows.append([row.get(u, ZERO) for u in range(len(unknowns))])
    return Matrix(rows)


def rescaled(alg, lam):
    """alg in the basis lam_k e_k (Gaussian or rational lam), as a non-skew
    SCAlgebra."""
    d = alg.dim
    br = {}
    for i in range(d):
        for j in range(d):
            comp = {k: lam[i] * lam[j] / lam[k] * c
                    for k, c in enumerate(alg.basis_product(i, j)) if c}
            if comp:
                br[(i, j)] = comp
    return ll.SCAlgebra(d, br, skew=False)


def corrupted(g, key, factor):
    """g with one constant of the bracket at key scaled, kept skew."""
    bad = {k: dict(v) for k, v in g.bracket.items()}
    comp = bad[key]
    k0 = max(comp)
    comp[k0] = comp[k0] * factor
    bad[(key[1], key[0])] = {k: -v for k, v in comp.items()}
    return ll.SCAlgebra(g.dim, bad, skew=True)


def gaussian_gl2(h_weight=2):
    """sl2 in the basis i*h, e, f plus a central z, with Gaussian constants
    and a denominator; a Lie algebra only for h_weight = 2."""
    hw = sc(h_weight) * I
    br = {}

    def setb(i, j, comp):
        br[(i, j)] = comp
        br[(j, i)] = {k: -v for k, v in comp.items()}

    setb(0, 1, {1: hw})
    setb(0, 2, {2: -sc(2) * I})
    setb(1, 2, {0: -I, 3: sc("1/2") + I})
    return ll.SCAlgebra(4, br, skew=True)


def plain_jacobi(g):
    """(passed, checked, witness) by the plain Scalar path over every triple
    in lexicographic order."""
    d = g.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                residual = ll._jacobi_witness(g, i, j, k)
                if residual is not None:
                    return False, (i + 1) * d * d, (i, j, k, residual)
    return True, d ** 3, None


def matches_plain_path(g):
    """The sparse check's full report equals plain_jacobi, and its sampled
    report names the first failing draw of the same generator."""
    rep = ll.jacobi_check(g, "full")
    assert (rep.passed, rep.checked, rep.witness) == plain_jacobi(g)
    for seed in (0, 1):
        sampled = ll.jacobi_check(g, "sampled", samples=300, seed=seed)
        rng = np.random.default_rng(seed)
        draws = list(zip(*(rng.integers(0, g.dim, size=300).tolist() for _ in range(3))))
        failing = [t for t in draws if ll._jacobi_witness(g, *t) is not None]
        assert sampled.checked == 300 and sampled.passed == (not failing)
        if failing:
            assert sampled.witness == (*failing[0], ll._jacobi_witness(g, *failing[0]))
    return rep


class TestJacobi:
    def test_full_pass(self, octonions):
        der = ll.derivations(octonions)
        assert matches_plain_path(der).passed

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
        assert matches_plain_path(so3()).passed

    def test_corruptions_match_plain_path(self, octonions):
        der = ll.derivations(octonions)
        keys = [k for k in sorted(der.bracket) if k[0] < k[1]]
        for key in keys[:: len(keys) // 5][:5]:
            assert not matches_plain_path(corrupted(der, key, sc(3))).passed

    def test_gaussian_algebra(self):
        assert matches_plain_path(gaussian_gl2()).passed
        assert not matches_plain_path(gaussian_gl2(h_weight=3)).passed

    @pytest.mark.parametrize("corrupt", [False, True], ids=["intact", "corrupted"])
    def test_one_column_past_int64_matches_plain_path(self, corrupt):
        # so3 scaled by 2^40 (constants past the int64 bound of the Jacobi
        # and Killing joins), intact and with one corrupted cell: full and
        # sampled checks against plain_jacobi, the Killing join against
        # trace(ad ad)
        big = sc(2 ** 40)
        br = {key: {k: v * big for k, v in comp.items()} for key, comp in so3().bracket.items()}
        if corrupt:  # the cell (0, 1, 0) and its mirror (1, 0, 0)
            br[(0, 1)][0], br[(1, 0)][0] = big, -big
        g = ll.SCAlgebra(3, br)
        assert g.tensor.rational and g.tensor.val.shape[1] == 1
        assert matches_plain_path(g).passed == (not corrupt)
        k = ll._killing_join(g.tensor)
        assert k.dtype == object and k[:, :, 0].tolist() == killing_reference(g)

    def test_constants_past_int64_take_python_integers(self):
        big = sc(2 ** 40)
        br = {k: {t: v * big for t, v in c.items()} for k, c in so3().bracket.items()}
        assert ll._Cells(ll.SCAlgebra(3, br).tensor).val.dtype == object
        assert matches_plain_path(ll.SCAlgebra(3, br)).passed
        br[(0, 1)] = {0: big, 2: big}  # [[e0, e1], e2] gains [e0, e2] = -2^80 e1
        br[(1, 0)] = {0: -big, 2: -big}
        assert not matches_plain_path(ll.SCAlgebra(3, br)).passed


def scan_only(monkeypatch):
    """Cap the certificate at zero join terms, so that full mode scans."""
    monkeypatch.setattr(ll._Cells, "scan_terms", property(lambda self: 0))


def full_report(g):
    rep = ll.jacobi_check(g, "full")
    return rep.passed, rep.checked, rep.witness


def times(g, c):
    """g with its bracket times the constant c: still skew, and a Lie
    algebra when g is one."""
    return ll.SCAlgebra(g.dim, {key: {k: v * c for k, v in comp.items()} for key, comp in g.bracket.items()})


def der_o_variant(octonions, case):
    """der(O) as is, in a Gaussian basis, or with its bracket times 2^40
    (constants past the int64 bound), corrupted when case says so."""
    g = ll.derivations(octonions)
    if "gaussian" in case:
        g = ll.SCAlgebra(g.dim, rescaled(g, [I if k % 2 else sc(1) for k in range(g.dim)]).bracket)
    if "2^40" in case:
        g = times(g, sc(2 ** 40))
    if "corrupted" in case:
        g = corrupted(g, sorted(k for k in g.bracket if k[0] < k[1])[3], sc(3))
    return g


class TestJacobiCertificate:
    @pytest.mark.parametrize("case", ["so3", "gl2", "gl2-corrupted"])
    def test_small_algebras_scan(self, case):
        # dims 3 and 4: a generating set joins about as many terms as the scan
        g = {"so3": so3, "gl2": gaussian_gl2, "gl2-corrupted": lambda: gaussian_gl2(h_weight=3)}[case]()
        assert ll._generators(ll._Cells(g.tensor)) is None
        assert full_report(g) == plain_jacobi(g)
        assert full_report(g)[0] == (case != "gl2-corrupted")

    @pytest.mark.parametrize("case", [
        "der(O)", "der(O)-corrupted", "der(O)-gaussian", "der(O)-gaussian-corrupted",
        "der(O)-2^40", "der(O)-2^40-corrupted",
    ])
    def test_report_equals_the_scan(self, case, octonions, monkeypatch):
        g = der_o_variant(octonions, case)
        cells = ll._Cells(g.tensor)
        chosen = ll._generators(cells)
        assert chosen is not None
        seeds = np.zeros(g.dim, dtype=bool)
        seeds[chosen] = True
        assert cells.generated(seeds).all()
        assert cells.val.dtype == (object if "2^40" in case else np.int64)
        assert g.tensor.rational == ("gaussian" not in case)
        certified = full_report(g)
        scan_only(monkeypatch)
        assert certified == full_report(g) == plain_jacobi(g)
        assert certified[0] == ("corrupted" not in case)

    def test_derivation_residual_matches_scalar_path(self, octonions):
        # R_s[j, k] = [s, [j, k]] - [[s, j], k] - [j, [s, k]] is minus the
        # Jacobi residual of (s, j, k), here read off the summed join
        big = times(so3(), sc(2 ** 40))
        for g in (gaussian_gl2(h_weight=3), corrupted(so3(), (0, 1), sc(3)), corrupted(big, (0, 1), sc(3)),
                  der_o_variant(octonions, "der(O)-corrupted")):
            cells, d, den = ll._Cells(g.tensor), g.dim, g.tensor.den ** 2
            for s in range(d):
                keys, sums = ll._summed(*cells.derivation_residual(s))
                got = {}
                for key, row in zip(keys.tolist(), sums.tolist()):
                    j, k, l = key // (d * d), key // d % d, key % d
                    assert j < k or not any(row)
                    got[(j, k, l)] = ll.scalar_of(row, den)
                for j, k in itertools.combinations(range(d), 2):
                    residual = ll._jacobi_witness(g, s, j, k) or [ZERO] * d
                    assert [got.get((j, k, l), ZERO) for l in range(d)] == [-x for x in residual]
                assert cells.is_derivation(s) == all(
                    ll._jacobi_witness(g, s, j, k) is None for j in range(d) for k in range(d)
                )

    def test_square_entries_take_the_certificate(self, monkeypatch):
        from excalg import magicsquare as ms

        entries = [ms.built_square_entry(a, b).algebra for a in "rcho" for b in "rcho"]
        scans = []
        monkeypatch.setattr(ll, "_scan", lambda *args, scan=ll._scan: scans.append(1) or scan(*args))
        certified = [full_report(g) for g in entries]
        # dims 3 and 8 need as many join terms as the scan; the rest do not
        assert len(scans) == sum(g.dim <= 8 for g in entries) == 3
        for g, report in zip(entries, certified):
            cells = ll._Cells(g.tensor)
            chosen = ll._generators(cells)
            assert (chosen is None) == (g.dim <= 8)
            if chosen is not None:
                seeds = np.zeros(g.dim, dtype=bool)
                seeds[chosen] = True
                assert cells.generated(seeds).all()
            assert report == (True, g.dim ** 3, None)
        scan_only(monkeypatch)
        assert [full_report(g) for g in entries] == certified

    def test_corruption_outside_the_generators_fails(self, octonions):
        der = ll.derivations(octonions)
        for key in sorted(k for k in der.bracket if k[0] < k[1]):
            bad = corrupted(der, key, sc(3))
            cells = ll._Cells(bad.tensor)
            chosen = ll._generators(cells)
            if chosen is not None and not set(key) & set(chosen):
                break
        else:
            pytest.fail("every corruptible cell touches the generators")
        assert not all(cells.is_derivation(s) for s in chosen)
        report = full_report(bad)
        assert not report[0] and report == plain_jacobi(bad)

    def test_peel_reaches_only_a_lone_output(self):
        # [e0, e1] = e2 + e3 puts e2 + e3 in the subalgebra generated by
        # e0 and e1, but neither e2 nor e3 alone; [e0, e2] = e3 then
        # reaches e3 once e2 is reached
        one = sc(1)
        g = ll.SCAlgebra(4, {(0, 1): {2: one, 3: one}, (1, 0): {2: -one, 3: -one},
                             (0, 2): {3: one}, (2, 0): {3: -one}}, skew=True)
        cells = ll._Cells(g.tensor)
        assert cells.generated(np.array([1, 1, 0, 0], dtype=bool)).tolist() == [True, True, False, False]
        assert cells.generated(np.array([1, 0, 1, 0], dtype=bool)).tolist() == [True, False, True, True]
        assert cells.generated(np.array([1, 1, 1, 0], dtype=bool)).all()

    def test_peel_of_a_proper_subalgebra_stops(self):
        # tri(O) + tri(O) is the subalgebra on the first 56 indices of e8:
        # its brackets never leave it, so peeling from it reaches no more
        from excalg import magicsquare as ms

        entry = ms.built_square_entry("o", "o")
        cells, d = ll._Cells(entry.algebra.tensor), entry.dim
        tri = np.arange(d) < sum(entry.tri_dims)
        assert cells.generated(tri).tolist() == tri.tolist()
        chosen = ll._generators(cells)
        assert chosen is not None
        seeds = np.zeros(d, dtype=bool)
        seeds[chosen] = True
        assert cells.generated(seeds).all()

    @pytest.mark.parametrize("weight", [2, 3])
    def test_sparse_large_dim_counts_only_its_cells(self, weight, monkeypatch):
        # gl2 on the first four of 3000 indices: the joins are indexed by
        # the pairs that occur, never by all dim^2 pairs
        d, one = 3000, sc(1)
        g = ll.SCAlgebra(d, {**gaussian_gl2(h_weight=weight).bracket, (4, 5): {6: one}, (5, 4): {6: -one}})
        bincount = np.bincount

        def small_bincount(x, weights=None, minlength=0):
            assert minlength <= d
            return bincount(x, weights, minlength)

        monkeypatch.setattr(np, "bincount", small_bincount)
        report = ll.jacobi_check(g)
        assert report.passed == (weight == 2)
        assert report.witness is None or max(report.witness[:3]) < 4

    def test_forced_cost_cap_takes_the_scan(self, octonions, monkeypatch):
        from excalg import magicsquare as ms

        f4, bad = ms.built_square_entry("r", "o").algebra, der_o_variant(octonions, "der(O)-corrupted")
        rows = []
        row_residual = ll._Cells.row_residual
        monkeypatch.setattr(ll._Cells, "row_residual", lambda self, i: rows.append(i) or row_residual(self, i))
        certified = full_report(f4), full_report(bad)
        assert rows and rows[0] == 0 and rows == sorted(rows)  # only the corrupted algebra scanned
        rows.clear()
        scan_only(monkeypatch)
        assert (full_report(f4), full_report(bad)) == certified
        assert rows[:52] == list(range(52)) and rows[52] == 0

    def test_e8_takes_few_generators(self):
        # the index the next peel reaches from most often first: 8
        # generators joining 532,944 terms, where cheapest join first took
        # 16 joining 860,760
        from excalg import magicsquare as ms

        cells = ll._Cells(ms.built_square_entry("o", "o").algebra.tensor)
        chosen = ll._generators(cells)
        assert len(chosen) <= 8 and cells.join_terms[chosen].sum() <= 550_000

    def test_e8_corruption_outside_the_generators_fails(self, monkeypatch):
        # a constant of e8 whose indices and output avoid every chosen
        # generator, tripled with its mirror: some ad s is no longer a
        # derivation, and the report is the scan's
        from excalg import magicsquare as ms

        g = ms.built_square_entry("o", "o").algebra
        t, d = g.tensor, g.dim
        chosen = ll._generators(ll._Cells(t))
        i, j = divmod(t.pair, d)
        n = np.flatnonzero((i < j) & ~np.isin(i, chosen) & ~np.isin(j, chosen) & ~np.isin(t.out, chosen))[0]
        mirror = np.flatnonzero((t.pair == j[n] * d + i[n]) & (t.out == t.out[n]))
        val = t.val.copy()
        val[[n, *mirror]] *= 3
        bad = ll.SCAlgebra(d, StructureTensor.from_cells(d, t.den, t.pair * d + t.out, val))
        cells = ll._Cells(bad.tensor)
        assert ll._generators(cells) == chosen
        assert not all(cells.is_derivation(s) for s in chosen)
        report = full_report(bad)
        scan_only(monkeypatch)
        assert not report[0] and report == full_report(bad)


def dict_sums(keys, vals):
    """{key: [sum of each column]} in Python integers."""
    out = {}
    rows = vals.reshape(len(vals), -1).tolist() if len(vals) else []
    for k, row in zip(keys.tolist(), rows):
        out[k] = [a + int(x) for a, x in zip(out.get(k, [0] * len(row)), row)]
    return out


class TestSummed:
    def check(self, keys, vals):
        got, sums = ll._summed(keys, vals)
        ref = dict_sums(keys, vals)
        assert got.dtype == np.int64 and sums.ndim == 2 and len(sums) == len(got)
        assert got.tolist() == sorted(ref)
        assert [[int(x) for x in row] for row in sums.tolist()] == [ref[k] for k in sorted(ref)]
        return got, sums

    def test_rational_int64_matches_dict_sums_and_the_fallback(self, monkeypatch):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 3000, size=5000)
        vals = rng.integers(-60, 60, size=5000)
        packed = self.check(keys, vals)
        assert np.array_equal(packed[1], self.check(keys, vals[:, None])[1])
        # every dtype choice forced to Python integers: the argsort path
        monkeypatch.setattr(intlin, "int_dtype", lambda bound: object)
        fallback = self.check(keys, vals)
        assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(packed, fallback))

    def test_gaussian_and_object_values(self):
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 50, size=400)
        self.check(keys, rng.integers(-9, 9, size=(400, 2)))
        big = np.array([(1 << 70) + int(x) for x in rng.integers(-5, 5, size=400)], dtype=object)
        self.check(keys, big)
        self.check(keys, np.stack([big, -big], axis=1))

    @pytest.mark.parametrize("top, width", [
        ((1 << 23) - 2, 40), ((1 << 23) - 1, 40), ((1 << 30) - 2, 1), ((1 << 30) - 1, 1),
    ])
    def test_values_at_the_edge_of_the_packing_bound(self, top, width, monkeypatch):
        # values spanning `width` bits under keys up to top: the packed
        # bound (top + 1) << width is just below or at 2**63 (packed in
        # int64, or the argsort path), and just below or at 2**31 (packed
        # in int32 or in int64)
        bounds = []
        monkeypatch.setattr(intlin, "int_dtype", lambda b, f=intlin.int_dtype: bounds.append(b) or f(b))
        keys = np.array([top, 0, top, 5, 0, 5], dtype=np.int64)
        lo = -(1 << (width - 1)) + 1 if width > 1 else 0
        vals = np.array([lo + (1 << width) - 1, lo, lo, 1 + lo, lo + 1, -lo], dtype=np.int64)
        self.check(keys, vals)
        assert bounds == [(top + 1) << width]

    def test_cumulative_sums_that_wrap(self):
        # each key's sum fits int64, their running total passes 2**63
        keys = np.repeat(np.arange(3), 6)
        vals = np.tile([1 << 60, (1 << 60) - 1], 9)
        assert sum(vals.tolist()) > 1 << 63
        self.check(keys, vals)

    @pytest.mark.parametrize("columns", [(), (1,), (2,)])
    def test_empty_input(self, columns):
        keys, sums = ll._summed(np.zeros(0, dtype=np.int64), np.zeros((0, *columns), dtype=np.int64))
        assert keys.shape == (0,) and sums.shape == (0, max(columns, default=1))


def _elementary(n, i, j):
    return Matrix([[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)])


class TestCommutatorClosure:
    def test_open_family_rejected_on_the_generic_path(self):
        # [E01, E10] = E00 - E11 lies outside the span; with i E10 the
        # family is Gaussian and its certificate runs on the real form
        for scale in (ONE, I):
            family = [_elementary(2, 0, 1), _elementary(2, 1, 0).scale(scale)]
            with pytest.raises(ValueError):
                ll.commutator_closure_algebra(family)

    def test_gaussian_family(self):
        # sl2 with X = i E01: [H, X] = 2X, [H, Y] = -2Y, [X, Y] = iH
        h = _elementary(2, 0, 0) - _elementary(2, 1, 1)
        g = ll.commutator_closure_algebra([h, _elementary(2, 0, 1).scale(I), _elementary(2, 1, 0)])
        assert g.bracket[(0, 1)] == {1: sc(2)}
        assert g.bracket[(0, 2)] == {2: sc(-2)}
        assert g.bracket[(1, 2)] == {0: I}

    def test_family_dependent_modulo_the_first_prime(self):
        # independent over Q, dependent modulo p0, closed: [M1, M2] = M2 - M1
        p0 = intlin._PRIMES[0]
        family = [Matrix([[1, 1], [0, 0]]), Matrix([[1, 1 + p0], [0, 0]])]
        g = ll.commutator_closure_algebra(family)
        assert g.dim == 2
        assert g.bracket == {(0, 1): {0: sc(-1), 1: ONE}, (1, 0): {0: ONE, 1: sc(-1)}}

    def test_open_family_rejected_on_the_integer_path(self):
        # the 20 off-diagonal units of gl5: [E_ij, E_ji] is diagonal
        family = [_elementary(5, i, j) for i in range(5) for j in range(5) if i != j]
        assert len(family) >= 16
        with pytest.raises(ValueError):
            ll.commutator_closure_algebra(family)

    def test_empty_family(self):
        g = ll.commutator_closure_algebra([], name="empty")
        assert g.dim == 0 and g.name == "empty" and g.matrices == []

    def test_dependent_family_rejected_on_the_integer_path(self):
        family = [_elementary(2, 0, 1), _elementary(2, 1, 0), _elementary(2, 0, 1).scale(sc(3))]
        with pytest.raises(ValueError, match="dependent"):
            ll.commutator_closure_algebra(family)

    @pytest.mark.parametrize("case", [
        "sl2", "b3", "so3_halves", "gl2", "mod_p0", "past_int64", "der_o",
        "gaussian_sl2", "gaussian_gl3", "gaussian_thirds",
    ])
    def test_integer_path_matches_fraction_reference(self, case, fraction_bracket, octonions):
        # the integer cells, and their Scalar view, against Gauss-Jordan
        # elimination in Scalar arithmetic, over Q and Q(i)
        h = _elementary(2, 0, 0) - _elementary(2, 1, 1)
        big = sc(2 ** 70)
        p = random_invertible(3, 11, field="gaussian")
        p_inv = p.inverse()
        family = {
            "sl2": lambda: [h, _elementary(2, 0, 1), _elementary(2, 1, 0)],
            "b3": lambda: [_elementary(3, i, j) for i in range(3) for j in range(i, 3)],
            "so3_halves": lambda: [
                (_elementary(3, i, j) - _elementary(3, j, i)).scale(sc("1/2"))
                for i, j in ((0, 1), (0, 2), (1, 2))
            ],
            "gl2": lambda: [_elementary(2, 0, 0).scale(sc("1/3")), _elementary(2, 0, 1).scale(sc("5/7")),
                            _elementary(2, 1, 0), _elementary(2, 1, 1)],
            "mod_p0": lambda: [Matrix([[1, 1], [0, 0]]), Matrix([[1, 1 + intlin._PRIMES[0]], [0, 0]])],
            "past_int64": lambda: [h, _elementary(2, 0, 1).scale(big), _elementary(2, 1, 0).scale(big.inverse())],
            "der_o": lambda: ll.derivations(octonions).matrices,
            "gaussian_sl2": lambda: [h, _elementary(2, 0, 1).scale(I), _elementary(2, 1, 0)],
            "gaussian_gl3": lambda: [
                p_inv @ _elementary(3, a, b).scale(sc(a + 1) + sc(b - 1) * I) @ p
                for a in range(3) for b in range(3)
            ],
            "gaussian_thirds": lambda: [
                h.scale(sc("1/3")), _elementary(2, 0, 1).scale(ONE + I), _elementary(2, 1, 0).scale(sc("1/3") * I)
            ],
        }[case]()
        g = ll.commutator_closure_algebra(family)
        assert "bracket" not in vars(g) and g.matrices is family
        expected = fraction_bracket(family)
        assert g.bracket == expected
        reference = ll.SCAlgebra(g.dim, expected).tensor
        assert g.tensor.den == reference.den
        for name in ("pair", "out", "val"):
            assert getattr(g.tensor, name).tolist() == getattr(reference, name).tolist()

    def test_gaussian_closure_and_derivations_skip_the_scalar_elimination(self, monkeypatch):
        # the Q(i) closure and the Q(i) Leibniz kernel run on the real form
        # of the certified integer solvers, never on linalg._rref
        def refuse(rows):
            raise AssertionError("linalg._rref was called")

        monkeypatch.setattr(la, "_rref", refuse)
        h = _elementary(2, 0, 0) - _elementary(2, 1, 1)
        g = ll.commutator_closure_algebra([h, _elementary(2, 0, 1).scale(I), _elementary(2, 1, 0)])
        assert g.bracket[(1, 2)] == {0: I} and not g.tensor.rational
        der = ll.derivations(gaussian_gl2())
        assert der.dim == 4
        assert any(x.im for m in der.matrices for row in m.entries for x in row)

    def test_one_corrupted_commutator_entry_is_not_closed(self, octonions, monkeypatch):
        # der(O) kills the unit, so no combination of it has an entry at
        # (0, 0): one unit added there by the first integer product leaves
        # the span, and the certificate over every entry sees it
        family = ll.derivations(octonions).matrices
        inner, calls = intlin.checked_int_matmul, []

        def corrupting(a, b):
            out = inner(a, b)
            if not calls:
                out = out.copy()
                out.flat[0] += 1
            calls.append(out.shape)
            return out

        monkeypatch.setattr(intlin, "checked_int_matmul", corrupting)
        with pytest.raises(ValueError, match="not closed"):
            ll.commutator_closure_algebra(family)
        assert len(calls) > 1


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


# e0 and e1 -/+ i e2 diagonalize ad(e0) on so3: [e0, e1 + i e2] = -i (e1 + i e2)
SO3_EIGENBASIS = [[ONE, ZERO, ZERO], [ZERO, ONE, I], [ZERO, ONE, -I]]


class TestWeights:
    def test_so3_adjoint_weights(self):
        g = so3()
        wd = ll.weight_decomposition(g, ll.adjoint_module(g), SO3_EIGENBASIS)
        weights = sorted(str(w[0]) for w, mult in wd)
        assert weights == ["(0/1)+(-1/1)i", "(0/1)+(1/1)i", "0/1"]

    def test_abelian(self):
        g = ll.SCAlgebra(2, {}, skew=True, cartan=[[sc(1), sc(0)], [sc(0), sc(1)]])
        wd = ll.weight_decomposition(g, ll.adjoint_module(g), Matrix.identity(2).entries)
        assert wd == [((sc(0), sc(0)), 2)]

    @pytest.mark.parametrize(
        "basis",
        [
            # e1 + 2i e2 is not an eigenvector of ad(e0)
            [[ONE, ZERO, ZERO], [ZERO, ONE, sc(2) * I], [ZERO, ONE, -I]],
            # every vector is an eigenvector, but they span only a plane
            [[ONE, ZERO, ZERO], [ZERO, ONE, I], [ZERO, ONE, I]],
        ],
        ids=["corrupted-vector", "rank-deficient"],
    )
    def test_wrong_eigenbasis(self, basis):
        # a failed check is a ValueError, not a field that is too small
        g = so3()
        with pytest.raises(ValueError) as exc:
            ll.weight_decomposition(g, ll.adjoint_module(g), basis)
        assert not isinstance(exc.value, scalar.NeedsExtension)
        assert composition.NeedsExtension is scalar.NeedsExtension

    @pytest.mark.parametrize(
        "diagonal",
        [[sc(13)], [sc(7), sc(1) / sc(5)], [sc(13) * I, sc(2)]],
        ids=["13", "7-and-1/5", "13i-and-2"],
    )
    def test_eigenvalues_off_the_small_grid(self, diagonal):
        # eigenvalues are read off the action on the basis, not matched
        # against a fixed list of small Gaussian integers and fractions
        n = len(diagonal)
        h = Matrix([[diagonal[r] if r == c else 0 for c in range(n)] for r in range(n)])
        g = ll.SCAlgebra(1, {}, skew=True, cartan=[[sc(1)]])
        wd = ll.weight_decomposition(g, ll.ModuleRep(n, [h]), Matrix.identity(n).entries)
        assert sorted(wd, key=str) == sorted((((x,), 1) for x in diagonal), key=str)

    def test_missing_cartan(self):
        g = ll.SCAlgebra(2, {}, skew=True)
        with pytest.raises(ValueError):
            ll.weight_decomposition(g, ll.adjoint_module(g), Matrix.identity(2).entries)


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
        assert diagram_type([[int(x.re) for x in row] for row in m.entries]) == "A2"

    @pytest.mark.parametrize("family, rank", [("F", 4), ("E", 6), ("E", 8)])
    def test_exceptional_root_lists(self, family, rank):
        roots = build_root_system(family, rank).roots
        m = ll.cartan_matrix_from_roots(list(roots))
        assert diagram_type([[int(x.re) for x in row] for row in m.entries]) == f"{family}{rank}"

    def test_not_closed_under_negation(self):
        with pytest.raises(ValueError):
            ll.cartan_matrix_from_roots([(sc(1),)])

    def test_zero_is_not_a_root(self):
        # no functional is nonzero on the zero vector
        with pytest.raises(ValueError):
            ll.cartan_matrix_from_roots([(sc(0), sc(0)), (sc(1), sc(0)), (sc(-1), sc(0))])


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


def random_skew_algebra(rng, d, height):
    br = {}
    for i in range(d):
        for j in range(i + 1, d):
            comp = {k: sc(rng.randint(-height, height)) for k in range(d)}
            br[(i, j)] = comp
            br[(j, i)] = {k: -v for k, v in comp.items()}
    return ll.SCAlgebra(d, br, skew=True)


def killing_reference(g):
    """den^2 trace(ad e_i ad e_j) in Python integers from the Scalar ad matrices."""
    den = g.tensor.den
    ads = [g.ad_matrix(unit_vec(g.dim, i)) for i in range(g.dim)]
    out = []
    for x in ads:
        row = []
        for y in ads:
            xy = x @ y
            t = sum((xy[r, r] for r in range(g.dim)), sc(0)) * sc(den * den)
            assert t.is_rational() and t.re.denominator == 1
            row.append(int(t.re))
        out.append(row)
    return out


def killing_gram_int(g):
    """The Killing Gram matrix of the integer-scaled bracket den * c from
    the join of ``_killing_join``, as int64: a Gaussian constant, or an
    entry that does not fit, raises ValueError."""
    if not g.tensor.rational:
        raise ValueError("the integer Killing form requires rational constants")
    k = ll._killing_join(g.tensor)[:, :, 0]
    try:
        return k.astype(np.int64)
    except OverflowError:
        raise ValueError("a Killing form entry does not fit in int64") from None


class TestDerivedAndKilling:
    def test_semisimple_full_derived(self, octonions):
        der = ll.derivations(octonions)
        assert ll.derived_dimension(der) == 14

    def test_killing_is_exact_on_large_constants(self):
        # constants of 2^25 once made a float contraction unsafe; the join
        # sums in Python integers and matches trace(ad ad) exactly
        big = sc(2 ** 25)
        g = ll.SCAlgebra(4, {(0, 1): {2: big}, (1, 0): {2: -big}}, skew=True)
        assert killing_gram_int(g).tolist() == killing_reference(g)
        rng = random.Random(7)
        for d, height in ((2, 3), (3, 2 ** 29), (4, 2 ** 29), (5, 7)):
            g = random_skew_algebra(rng, d, height)
            assert killing_gram_int(g).tolist() == killing_reference(g)

    def test_killing_int64_guard(self):
        # [e0, e1] = c e1 has K[0, 0] = c^2, which fits int64 up to c = 3037000499
        def gram(c):
            return killing_gram_int(
                ll.SCAlgebra(2, {(0, 1): {1: sc(c)}, (1, 0): {1: sc(-c)}}, skew=True)
            )

        assert gram(3037000499).tolist() == [[3037000499 ** 2, 0], [0, 0]]
        with pytest.raises(ValueError):
            gram(3037000500)

    @pytest.mark.parametrize("c, dtype", [(2 ** 31 - 1, np.int64), (2 ** 31 + 1, object)])
    def test_killing_sum_guard(self, c, dtype):
        # so3 scaled by c: K[i, i] = -2 c^2 sums two products of |c^2| < 2**63
        # each, so the sums take int64 only while 2 c^2 < 2**63; past it the
        # int64 sum would wrap, and the Python integers match trace(ad ad)
        g = ll.SCAlgebra(3, {key: {k: v * sc(c) for k, v in comp.items()}
                             for key, comp in so3().bracket.items()})
        k = ll._killing_join(g.tensor)[:, :, 0]
        assert k.dtype == dtype
        assert k.tolist() == killing_reference(g) == [[-2 * c * c if i == j else 0 for j in range(3)]
                                                      for i in range(3)]

    def test_killing_rank_is_exact(self, monkeypatch):
        # a Gram matrix with determinant p0 * p1: singular modulo the first
        # two primes, nondegenerate over Q
        p0, p1 = intlin._PRIMES[:2]
        gram = np.array([[1, 1], [1, 1 + p0 * p1]], dtype=np.int64)
        monkeypatch.setattr(ll, "_killing_join", lambda t: gram[:, :, None])
        assert ll.killing_nondegenerate(ll.SCAlgebra(2, {}, skew=True))

    def test_gaussian_killing(self):
        # sl2 in a Gaussian basis is semisimple; the Gaussian Heisenberg
        # algebra and gl2 in a Gaussian basis are not.  The reference is the
        # determinant of trace(ad e_i ad e_j) in Scalar arithmetic
        h = _elementary(2, 0, 0) - _elementary(2, 1, 1)
        e, f = _elementary(2, 0, 1), _elementary(2, 1, 0)
        sl2 = ll.commutator_closure_algebra(
            [h + e.scale(I), e - f.scale(I), f.scale(sc("1/2")) + h.scale(I)]
        )
        heisenberg = ll.SCAlgebra(3, {(0, 1): {2: I}, (1, 0): {2: -I}}, skew=True)
        for g, expected in ((sl2, True), (heisenberg, False), (gaussian_gl2(), False)):
            assert not g.tensor.rational
            ads = [g.ad_matrix(unit_vec(g.dim, i)) for i in range(g.dim)]
            gram = Matrix([[sum(((x @ y)[r, r] for r in range(g.dim)), sc(0)) for y in ads]
                           for x in ads])
            assert (not gram.det().is_zero()) == expected
            assert ll.killing_nondegenerate(g) == expected
        with pytest.raises(ValueError):
            killing_gram_int(sl2)

    def test_abelian_derived_zero(self):
        g = ll.SCAlgebra(2, {}, skew=True)
        assert ll.derived_dimension(g) == 0
        assert not ll.killing_nondegenerate(g)

    def test_derived_dimension_matches_scalar_rows(self):
        # the rank of the primitive integer cell rows against the span of
        # the Scalar bracket rows, over Q and Q(i), skew or not
        rng = random.Random(3)
        nonskew = ll.SCAlgebra(3, {(0, 0): {1: sc(2)}, (1, 0): {1: sc(-4)}, (2, 2): {2: I}}, skew=False)
        for g in (so3(), rescaled(so3(), [sc("2/3"), sc(5), I]), gaussian_gl2(), random_skew_algebra(rng, 4, 5),
                  ll.SCAlgebra(3, {(0, 1): {2: I}, (1, 0): {2: -I}}, skew=True), nonskew):
            rows = [[comp.get(k, ZERO) for k in range(g.dim)] for comp in g.bracket.values()]
            assert ll.derived_dimension(g) == Subspace(g.dim, rows).dim
        assert ll.derived_dimension(nonskew) == 2

    def test_derived_dimension_reads_only_the_tensor(self):
        from excalg import magicsquare as ms

        g = ms.built_square_entry("c", "h").algebra
        h = ll.SCAlgebra(g.dim, g.tensor)
        assert ll.derived_dimension(h) == 35 and "bracket" not in vars(h)
