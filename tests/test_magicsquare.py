import hashlib

import numpy as np
import pytest

from excalg import cli
from excalg import magicsquare as ms
from excalg import scalar
from excalg.liealg import (
    derived_dimension,
    jacobi_check,
    killing_nondegenerate,
    leibniz_kernel,
)
from excalg.linalg import Matrix, Subspace, solve, unit_vec
from excalg.scalar import I, ONE, ZERO, Scalar, sc
from excalg.tensor import StructureTensor


class TestTriality:
    def test_dimensions(self):
        assert [ms.triality_algebra(k).dim for k in ("r", "c", "h", "o")] == [0, 2, 9, 28]

    def test_defining_identity_on_octonion_kernel(self):
        tri = ms.triality_algebra("o")
        alg = tri.base
        for (u1, u2, u3) in tri.triples[:6]:
            for i in range(8):
                for j in range(8):
                    xy = alg.mul_coords(unit_vec(8, i), unit_vec(8, j))
                    lhs = u1.apply(xy)
                    rhs_a = alg.mul_coords(u2.apply(unit_vec(8, i)), unit_vec(8, j))
                    rhs_b = alg.mul_coords(unit_vec(8, i), u3.apply(unit_vec(8, j)))
                    assert lhs == [a + b for a, b in zip(rhs_a, rhs_b)]

    def test_components_are_skew(self):
        tri = ms.triality_algebra("h")
        g = tri.base.gram
        for triple in tri.triples:
            for m in triple:
                assert (m.transpose() @ g + g @ m).is_zero()

    def test_projection_injective_for_octonions(self):
        assert ms.triality_algebra("o").projection_rank(1) == 28

    def test_quaternion_ideal_split(self):
        parts = ms.tri_ideal_split("h")
        assert [p.dim for p in parts] == [3, 3, 3]
        tri = ms.triality_algebra("h")
        for a in range(3):
            for b in range(a + 1, 3):
                for u in parts[a].basis:
                    for v in parts[b].basis:
                        br = tri.algebra.bracket_coords(list(u), list(v))
                        assert all(x.is_zero() for x in br)

    @pytest.mark.parametrize("key", ["c", "h"])
    def test_bracket_is_componentwise_commutator(self, key):
        tri = ms.triality_algebra(key)
        for i, ti in enumerate(tri.triples):
            for j, tj in enumerate(tri.triples):
                comp = tri.algebra.basis_bracket(i, j)
                for c in range(3):
                    expected = ti[c] @ tj[c] - tj[c] @ ti[c]
                    combo = Matrix.zero(expected.rows, expected.cols)
                    for k, v in comp.items():
                        combo = combo + tri.triples[k][c].scale(v)
                    assert combo == expected

    def test_jacobi(self):
        for key in ("c", "h", "o"):
            assert jacobi_check(ms.triality_algebra(key).algebra, "full").passed


def _wedge_action(proj, d):
    """cols[k][kk]: coefficient of xi_kk in t . xi_k, where t acts on
    xi_k = e_a ^ e_b as proj e_a ^ e_b + e_a ^ proj e_b."""
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]

    def wedge(x, y):
        return [x[a] * y[b] - x[b] * y[a] for a, b in pairs]

    cols = []
    for a, b in pairs:
        ea, eb = unit_vec(d, a), unit_vec(d, b)
        left, right = wedge(proj.apply(ea), eb), wedge(ea, proj.apply(eb))
        cols.append([u + v for u, v in zip(left, right)])
    return cols


class TestEquivariantMaps:
    def test_hom_dimensions(self):
        expected = {"r": 0, "c": 2, "h": 2, "o": 1}
        for key, dim in expected.items():
            for slot in (1, 2, 3):
                assert len(ms.equivariant_pair_maps(key, slot)) == dim

    @pytest.mark.parametrize(
        "key,slot", [("c", 1), ("c", 2), ("c", 3), ("h", 1), ("h", 2), ("h", 3), ("o", 1)]
    )
    def test_maps_are_equivariant_and_independent(self, key, slot):
        tri = ms.triality_algebra(key)
        p, d = tri.dim, tri.base.dim
        maps = ms.equivariant_pair_maps(key, slot)
        n = d * (d - 1) // 2
        for t in range(p):
            cols = _wedge_action(tri.projection(slot, t), d)
            for psi in maps:
                for k in range(n):
                    # psi(t . xi_k) against [t, psi(xi_k)]
                    lhs = [ZERO] * p
                    for kk, c in enumerate(cols[k]):
                        if not c.is_zero():
                            lhs = [x + c * y for x, y in zip(lhs, psi[kk])]
                    rhs = [ZERO] * p
                    for s, c in enumerate(psi[k]):
                        for o, v in tri.algebra.basis_bracket(t, s).items():
                            rhs[o] = rhs[o] + c * v
                    assert lhs == rhs
        flat = [[x for row in psi for x in row] for psi in maps]
        assert Subspace(n * p, flat).dim == len(maps)

    @pytest.mark.parametrize("key", ["h", "o"])
    def test_certificate_rejects_a_changed_entry(self, key):
        maps = ms.equivariant_pair_maps(key, 1)
        ms._certify_equivariant(key, 1, maps)
        # psi_0(xi_0) gains one unit in its first coordinate
        bad = ms.PairMaps(maps.w.copy(), maps.den)
        bad.w[0, 0, 0] += maps.den
        assert bad[0][0][0] == maps[0][0][0] + ONE
        with pytest.raises(ms.CalibrationFailed):
            ms._certify_equivariant(key, 1, bad)


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _triality_digests(key):
    """SHA-256 of the Scalar views of tri(A): the bracket, the triples and
    the maps psi of the three slots."""
    tri = ms.triality_algebra(key)
    bracket = sorted((k, sorted((kk, str(v)) for kk, v in c.items())) for k, c in tri.algebra.bracket.items())
    triples = [[str(x) for m in t for row in m.entries for x in row] for t in tri.triples]
    maps = [[[[str(x) for x in v] for v in psi] for psi in ms.equivariant_pair_maps(key, s)] for s in (1, 2, 3)]
    return (_sha(bracket), _sha(triples), *map(_sha, maps))


# Recorded from the Scalar construction of tri(A), its bracket and its maps
# that the integer arrays replaced.
TRIALITY_DIGESTS = {
    "c": (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "e8b27a165d99ce5f25dca8dd4e45c0f72f63950e4028e74188f54b06314f1df1",
        "a12a272e6fa7a4c6101cb3ec740f1db7e23129b6770c7a94c8baec730eab09bd",
        "a12a272e6fa7a4c6101cb3ec740f1db7e23129b6770c7a94c8baec730eab09bd",
        "a12a272e6fa7a4c6101cb3ec740f1db7e23129b6770c7a94c8baec730eab09bd",
    ),
    "h": (
        "81fd036fd89d31f1e8cd53918d502eb20322f278b34d0c961595de6ff85b0c8a",
        "dfafebd6ce0b9f792b09fbc6b7dd8ca66987a476e80f5a1800f9e0d4bc12dc1b",
        "92011efd6d408cfeaf255fb579498cbe4baecd8f33eb704a592ae9f22f4d9893",
        "0e6f06c64a357b04f05d42d5d421f92809850f2dbb666a0b0c106cfb48fb1c7f",
        "9d32b926006b49dae1c23cc29e1e98f9ac59ccdd959242e2da80f54ad1027637",
    ),
    "o": (
        "0ee5ff1d7c0e66aee7c2e137b159c4276bd11394dd5737d92695a7e5b9e25721",
        "eece834f4984919b946c211d1b7b5013e8cb76182db7280b07771de934bb29d2",
        "9f06e8ebc9527cb9efd114ce61aeff5a04d29f34b397d93b1b2cce7d23ed477d",
        "34d6f9758288d16bf970a390cf414283dc73e567e19dfcd1b64ac1facfcfd7ae",
        "d424a3899956f7690dee1911b58c138937981048652ad3669fe8ff0b6963efda",
    ),
}


def _scalar_triples(key):
    """The triples by Scalar arithmetic: the Scalar Leibniz kernel times the
    so(A) basis."""
    alg = ms.standard_algebra(key)
    d, so = alg.dim, ms._so_basis(alg)
    s = len(so)
    unknowns = [(m, {}, {}) for m in so] + [({}, m, {}) for m in so] + [({}, {}, m) for m in so]
    triples = []
    for v in leibniz_kernel(alg.tensor, unknowns):
        mats = []
        for c in range(3):
            acc = [[ZERO] * d for _ in range(d)]
            for x, m in zip(v[c * s:(c + 1) * s], so):
                for (p, q), y in m.items():
                    acc[p][q] = acc[p][q] + x * y
            mats.append(Matrix(acc))
        triples.append(tuple(mats))
    return triples


def _scalar_maps(key, slot, triples):
    """The maps psi by one Scalar solve per pair on the stacked images."""
    alg = ms.standard_algebra(key)
    d, p = alg.dim, len(triples)
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    flat = Matrix([[x for row in t[slot - 1].entries for x in row] for t in triples])
    ideals = [J for J in ms.tri_ideal_split(key) if J.dim] or [Subspace(p, [unit_vec(p, k) for k in range(p)])]
    kept = [(Matrix.from_cols(J.basis), Matrix(J.basis) @ flat) for J in ideals]
    kept = [(basis, image) for basis, image in kept if not image.is_zero()]
    stacked = Matrix.from_cols([v for _, image in kept for v in image.entries])
    maps = [[] for _ in kept]
    for a, b in pairs:
        iota = [(alg.gram[a, c] if r == b else ZERO) - (alg.gram[b, c] if r == a else ZERO)
                for r in range(d) for c in range(d)]
        x, offset = solve(stacked, iota), 0
        for psi, (basis, _) in zip(maps, kept):
            psi.append(basis.apply(x[offset:offset + basis.cols]))
            offset += basis.cols
    return maps


class TestTrialityStage:
    @pytest.mark.parametrize("key", ["c", "h", "o"])
    def test_pinned(self, key):
        assert _triality_digests(key) == TRIALITY_DIGESTS[key]

    @pytest.mark.parametrize("key", ["c", "h", "o"])
    def test_matches_scalar_reference(self, key, fraction_bracket):
        # the triples and the maps of one slot against the Scalar
        # construction; the bracket against the Gauss-Jordan closure of the
        # block-diagonal triples, for C and H
        tri = ms.triality_algebra(key)
        triples = _scalar_triples(key)
        assert tri.triples == triples
        if key in "ch":
            d = tri.base.dim
            blocks = [Matrix([[ZERO] * (c * d) + row + [ZERO] * ((2 - c) * d)
                              for c in range(3) for row in t[c].entries]) for t in triples]
            assert tri.algebra.bracket == fraction_bracket(blocks)
        for slot in (1, 2, 3) if key in "ch" else (1,):
            if key == "c":  # tri(C) is abelian: the coordinate maps of the one pair
                reference = [[unit_vec(2, s)] for s in range(2)]
            else:
                reference = _scalar_maps(key, slot, triples)
            assert list(ms.equivariant_pair_maps(key, slot)) == reference

    def test_cold_build_runs_no_scalar_arithmetic(self, monkeypatch):
        # with O itself cached, a cold tri(O) and its three maps are built
        # from integer arrays only; the Scalar views stay unbuilt
        ms.standard_algebra("o")
        for cached in (ms.triality_algebra, ms.tri_ideal_split, ms.equivariant_pair_maps):
            cached.cache_clear()

        def forbidden(*args):
            raise AssertionError("Scalar arithmetic in the tri(O) stage")

        with monkeypatch.context() as m:
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
                m.setattr(Scalar, name, forbidden)
            tri = ms.triality_algebra("o")
            maps = [ms.equivariant_pair_maps("o", slot) for slot in (1, 2, 3)]
        assert "triples" not in vars(tri) and "bracket" not in vars(tri.algebra)
        assert [len(psi) for psi in maps] == [1, 1, 1]
        assert _triality_digests("o") == TRIALITY_DIGESTS["o"]

    @pytest.mark.parametrize("key", ["h", "o"])
    def test_iota_outside_the_images_is_rejected(self, key, monkeypatch):
        # one unit added to the (0, 0) entry of iota(e_0 ^ e_1): not skew,
        # so outside every pi(J), and the product check sees it
        solve = ms.span_coordinates

        def shifted(family, targets):
            targets = targets.copy()
            targets[0, 0] += 1
            return solve(family, targets)

        monkeypatch.setattr(ms, "span_coordinates", shifted)
        with pytest.raises(ms.CalibrationFailed, match="leaves"):
            ms.equivariant_pair_maps.__wrapped__(key, 1)


class TestTitsTable:
    def test_dimensions(self):
        table = ms.tits_dimension_table()
        dims = tuple(tuple(d for (_, d) in row) for row in table)
        assert dims == ms.SQUARE_DIMS

    def test_names(self):
        table = ms.tits_dimension_table()
        assert table[0][0][0] == "sl2"
        assert table[3][3][0] == "e8"
        assert table[1][2][0] == "sl6"


class TestVinberg:
    def test_small_entries(self):
        for (a, b, dim) in (("r", "r", 3), ("c", "r", 8), ("c", "c", 16), ("h", "r", 21)):
            entry = ms.vinberg_build(a, b)
            assert entry.dim == dim and entry.checked == dim ** 3
            assert killing_nondegenerate(entry.algebra)

    def test_unknown_key_rejected_before_any_work(self, monkeypatch, capsys):
        def no_work(key):
            raise AssertionError("triality algebra built for an invalid key")

        monkeypatch.setattr(ms, "triality_algebra", no_work)
        with pytest.raises(ValueError):
            ms.vinberg_build(" h", "r")
        assert cli.main(["magic-square", "--build", " c", "r"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_symmetry_pairs(self):
        # (A, B) and (B, A) agree in dimension, derived dimension and
        # Killing nondegeneracy
        for pair, dim in ((("c", "h"), 35), (("r", "r"), 3)):
            g1, g2 = (ms.built_square_entry(*p).algebra for p in (pair, pair[::-1]))
            assert g1.dim == g2.dim == dim
            assert derived_dimension(g1) == derived_dimension(g2)
            assert killing_nondegenerate(g1) and killing_nondegenerate(g2)

    def test_rank_one_entry_is_simple_rank_one(self):
        entry = ms.vinberg_build("r", "r")
        g = entry.algebra
        from excalg.liealg import (
            SCAlgebra,
            adjoint_module,
            cartan_matrix_from_roots,
            weight_decomposition,
        )

        with_cartan = SCAlgebra(
            3, g.bracket, skew=True, cartan=[unit_vec(3, 0)]
        )
        # e0 and e1 -/+ i e2 diagonalize ad(e0)
        eigenbasis = [[ONE, ZERO, ZERO], [ZERO, ONE, I], [ZERO, ONE, -I]]
        wd = weight_decomposition(with_cartan, adjoint_module(with_cartan), eigenbasis)
        roots = [w for w, mult in wd if any(not x.is_zero() for x in w)]
        assert len(roots) == 2
        cm = cartan_matrix_from_roots(roots)
        assert cm.entries == [[sc(2)]]

    def test_calibration_failure_reported(self):
        # an algebra pair outside the allowed list fails loudly, not quietly
        with pytest.raises(Exception):
            ms.vinberg_build("x", "r")

    @pytest.mark.parametrize("pair", [("c", "c"), ("h", "c")])
    @pytest.mark.parametrize("block", ["cross-slot", "psi"])
    def test_corrupted_table_is_caught(self, monkeypatch, pair, block):
        # one structure constant of a cross-slot product, or of a psi block
        # (p and q in one slot, k in tri(A) + tri(B)), changes sign with its
        # mirror, so the bracket stays skew
        def pick(t):
            p, q = t.pair // t.dim, t.pair % t.dim
            slot_p, slot_q = (p - t.pa - t.pb) // t.slot, (q - t.pa - t.pb) // t.slot
            if block == "psi":
                return np.flatnonzero((slot_p >= 0) & (slot_p == slot_q) & (t.out < t.pa + t.pb))[0]
            return np.flatnonzero((slot_p >= 0) & (slot_q >= 0) & (slot_p != slot_q))[0]

        class Corrupted(ms._SquareTables):
            def __init__(self, *keys):
                super().__init__(*keys)
                n = pick(self)
                p, q = divmod(int(self.pair[n]), self.dim)
                hit = np.isin(self.pair, [p * self.dim + q, q * self.dim + p]) & (self.out == self.out[n])
                self.val = self.val.copy()
                self.val[hit] *= -1

        report = jacobi_check(ms._assemble(Corrupted(*pair)))
        assert not report.passed and len(report.witness[:3]) == 3
        monkeypatch.setattr(ms, "_SquareTables", Corrupted)
        with pytest.raises(ms.CalibrationFailed, match=r"basis triple \(\d+, \d+, \d+\)"):
            ms.vinberg_build(*pair)

    @pytest.mark.parametrize("key, pair, flipped", [
        ("c", ("c", "r"), ((2, -4), (-2, 2), (-4, -2))),
        ("h", ("h", "r"), ((4, 4), (4, 2), (4, 4))),
        ("o", ("r", "o"), ((4,), (4,), (-4,))),
    ], ids=["c", "h", "o"])
    def test_flipped_coupling_fails(self, monkeypatch, key, pair, flipped):
        # the couplings are constants, so one wrong constant is caught by
        # the Jacobi certificate alone, with the failing triple named
        assert ms.COUPLINGS[key] != flipped
        monkeypatch.setitem(ms.COUPLINGS, key, flipped)
        with pytest.raises(ms.CalibrationFailed, match=r"basis triple \(\d+, \d+, \d+\)"):
            ms.vinberg_build(*pair)

    def test_build_solves_and_draws_nothing(self):
        assert not hasattr(ms, "random") and not hasattr(ms, "solve")

    def test_e8_assembly_runs_no_scalar_arithmetic(self, monkeypatch):
        entry = ms.built_square_entry("o", "o")

        def forbidden(*args):
            raise AssertionError("Scalar arithmetic in the e8 assembly")

        with monkeypatch.context() as m:
            for name in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                         "__mul__", "__rmul__", "__neg__", "__truediv__", "inverse"):
                m.setattr(Scalar, name, forbidden)
            m.setattr(scalar, "_make", forbidden)
            g = ms._assemble(ms._SquareTables("o", "o"))
        assert "bracket" not in vars(g)
        reference = StructureTensor(g.dim, (
            (i, j, k, v) for (i, j), comp in entry.algebra.bracket.items() for k, v in comp.items()
        ))
        assert g.tensor.den == reference.den
        assert [sorted(row) for row in g.tensor.rows] == [sorted(row) for row in reference.rows]

    def test_e8_build_and_killing_read_only_flat_cells(self, monkeypatch):
        # the cached inputs (the composition algebras, tri(O) and its
        # equivariant maps) come first; from there on the assembly, the skew,
        # Jacobi and Killing checks work on the flat cell arrays alone
        for slot in ms.SLOT_PROJ:
            ms.equivariant_pair_maps("o", slot)

        def nested(self):
            raise AssertionError("the Python row view was read")

        monkeypatch.setattr(StructureTensor, "rows", property(nested))
        entry = ms.vinberg_build("o", "o")
        assert entry.dim == 248 and entry.checked == 248 ** 3
        assert killing_nondegenerate(entry.algebra)
        assert "bracket" not in vars(entry.algebra)


def _digest(algebra):
    """SHA-256 of the Scalar bracket: sorted keys, str of each value."""
    h = hashlib.sha256()
    for key in sorted(algebra.bracket):
        comp = algebra.bracket[key]
        h.update(repr((key, sorted((k, str(v)) for k, v in comp.items()))).encode())
    return h.hexdigest()


# Recorded from the per-pair Scalar assembly the integer tables replaced.
SQUARE_DIGESTS = {
    "rr": "f8efe4638f1f3040a4801a90c32349326672ba303600be3e693e9e4412666a2b",
    "rc": "3e01e4408ffd94ae8388591685449f5a74d80e04b29a4c00e096e895b03c45b0",
    "rh": "1fc2563080fd89b486aaeb900d00d4f93cf4058f465b0c04ed899b79efd9244d",
    "ro": "6cfff89a04b0e380f442d9af3e0d7bceaf1f3647a381fa00d3d3f6d5d2a58c9e",
    "cr": "3e01e4408ffd94ae8388591685449f5a74d80e04b29a4c00e096e895b03c45b0",
    "cc": "cffa17e2386613d071a159e4635401aa7e80247fe570b93a573358db6d6aa1ac",
    "ch": "159210353772ecbba11d98b8e9c4cbbea5ab73ae70b3eb163bcff56d19eb7f44",
    "co": "f666b1f6a3301194ea1522827ef7019cba638d81aa126f2b5ce616ee96009370",
    "hr": "1fc2563080fd89b486aaeb900d00d4f93cf4058f465b0c04ed899b79efd9244d",
    "hc": "8d86f9cf6ca8b6a2b413a2a58fe4a11948d74f58e390348355419909fb70fbd6",
    "hh": "d8400b3d5dfbbe1e2059bc557decc79ac1d0251adc78843f99805b24002b851b",
    "ho": "3413d65611a317d06a21688d912674722c0437a556d960c6ce8dde1a7f371a03",
    "or": "6cfff89a04b0e380f442d9af3e0d7bceaf1f3647a381fa00d3d3f6d5d2a58c9e",
    "oc": "0761c3df21c7f05d129ad13cdcda0dafa28eb9a36102eb02de3a7c30f9207e5f",
    "oh": "7d077b7bcb1f422ad16e66b8069390885c60cd691ba7c5ff83d6d6b33b6a4111",
    "oo": "8b5dc30298f41356c79c60455b2e393db91b6958ea747cafd7b0bea9fbbc9cc1",
}

# The couplings of slot i, map h, by algebra; the same on both sides.
COUPLINGS = {"r": [], "c": [[-2, -4], [-2, 2], [-4, -2]], "h": [[4, 4]] * 3, "o": [[4]] * 3}


@pytest.mark.parametrize("pair", sorted(SQUARE_DIGESTS), ids=str)
def test_square_entry_is_pinned(pair):
    entry = ms.built_square_entry(*pair)  # cached, shared with the acceptance suite
    assert _digest(entry.algebra) == SQUARE_DIGESTS[pair]
    expected = [
        (str((side, i, h)), f"{v}/1")
        for i in range(3)
        for side, key in zip("AB", pair)
        for h, v in enumerate(COUPLINGS[key][i] if COUPLINGS[key] else [])
    ]
    assert [(u, str(v)) for u, v in entry.calibration.items()] == expected


def test_python_integer_tables_give_the_pinned_bracket(monkeypatch):
    # every dtype choice that the int64 bound makes is forced onto Python
    # integers: the tables, their sums and the Jacobi join stay exact
    from excalg import intlin

    monkeypatch.setattr(intlin, "int_dtype", lambda bound: object)
    monkeypatch.setattr(ms, "int_dtype", lambda bound: object)
    assert ms._SquareTables("h", "c").val.dtype == object
    assert _digest(ms.vinberg_build("h", "c").algebra) == SQUARE_DIGESTS["hc"]


class TestVectorModel:
    def test_report(self):
        rep = ms.g2_models_crosscheck()
        assert rep.passed
        assert rep.dims == (14, 14, 14)
        assert rep.root_count == 12
        assert rep.short_long_split == (6, 6)

    def test_couplings_recorded(self):
        model = ms.vector_model_g2()
        c1, c2, c3 = model.couplings
        assert c1 == sc(1) and c3 == sc(1)
        assert c2 == sc(-4) / sc(3)

    def test_opposite_coupling_fails_jacobi(self):
        wrong = ms._build_vector_model(ONE, sc(4) / sc(3), ONE)
        report = jacobi_check(wrong, "full")
        assert not report.passed and len(report.witness[:3]) == 3

    def test_invariant_form_is_generic(self):
        from excalg import threeform as tf

        model = ms.vector_model_g2()
        assert tf.classify(model.invariant_form).label == tf.W5

    def test_perturbed_form_is_not_annihilated(self):
        from excalg import forms as fm

        model = ms.vector_model_g2()
        assert ms.module_annihilates_form(model.module, model.invariant_form)
        moved = model.invariant_form + fm.parse_form("e[1,2,3]", 7)
        assert not ms.module_annihilates_form(model.module, moved)
