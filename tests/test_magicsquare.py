import hashlib

import numpy as np
import pytest

from excalg import cli
from excalg import magicsquare as ms
from excalg import scalar
from excalg.liealg import (
    jacobi_check,
    killing_nondegenerate,
)
from excalg.linalg import Matrix, Subspace, unit_vec
from excalg.scalar import ONE, ZERO, Scalar, sc
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
        bad = [[list(v) for v in psi] for psi in maps]
        bad[0][0][0] = bad[0][0][0] + ONE
        with pytest.raises(ms.CalibrationFailed):
            ms._certify_equivariant(key, 1, bad)


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
        rep = ms.square_symmetry_check("c", "h")
        assert rep.symmetric and rep.dims == (35, 35)
        rep = ms.square_symmetry_check("r", "r")
        assert rep.symmetric

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
        wd = weight_decomposition(with_cartan, adjoint_module(with_cartan))
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
        # one cell of the constant cross-slot table, or of the first psi
        # table, changes sign (with its mirror, so the bracket stays skew)
        def pick(t):
            p, q = t.pair // t.dim, t.pair % t.dim
            slot_p, slot_q = (p - t.pa - t.pb) // t.slot, (q - t.pa - t.pb) // t.slot
            if block == "psi":
                return np.flatnonzero(t.table == 1)[0]
            return np.flatnonzero((slot_p >= 0) & (slot_q >= 0) & (slot_p != slot_q) & (t.table == 0))[0]

        class Corrupted(ms._SquareTables):
            def __init__(self, *keys):
                super().__init__(*keys)
                n = pick(self)
                p, q = divmod(int(self.pair[n]), self.dim)
                mirror = (self.pair == q * self.dim + p) & (self.out == self.out[n])
                self.val = self.val.copy()
                self.val[[n, *np.flatnonzero(mirror & (self.table == self.table[n]))]] *= -1

        lam = list(ms.built_square_entry(*pair).calibration.values())
        report = jacobi_check(ms._assemble(Corrupted(*pair), lam))
        assert not report.passed and len(report.witness[:3]) == 3
        monkeypatch.setattr(ms, "_SquareTables", Corrupted)
        with pytest.raises(ms.CalibrationFailed):
            ms.vinberg_build(*pair)

    def test_e8_assembly_runs_no_scalar_arithmetic(self, monkeypatch):
        entry = ms.built_square_entry("o", "o")
        lam = list(entry.calibration.values())

        def forbidden(*args):
            raise AssertionError("Scalar arithmetic in the e8 assembly")

        with monkeypatch.context() as m:
            for name in ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                         "__mul__", "__rmul__", "__neg__", "__truediv__", "inverse"):
                m.setattr(Scalar, name, forbidden)
            m.setattr(scalar, "_make", forbidden)
            g = ms._assemble(ms._SquareTables("o", "o"), lam)
        assert "bracket" not in vars(g)
        reference = StructureTensor(g.dim, (
            (i, j, k, v) for (i, j), comp in entry.algebra.bracket.items() for k, v in comp.items()
        ))
        assert g.tensor.den == reference.den
        assert [[sorted(c) for c in row] for row in g.tensor.cells] == [
            [sorted(c) for c in row] for row in reference.cells
        ]

    def test_e8_build_and_killing_read_only_flat_cells(self, monkeypatch):
        # the cached inputs (the composition algebras, tri(O) and its
        # equivariant maps) come first; from there on the assembly, the skew,
        # Jacobi and Killing checks work on the flat cell arrays alone
        for slot in ms.SLOT_PROJ:
            ms.equivariant_pair_maps("o", slot)

        def nested(self):
            raise AssertionError("the nested cells were read")

        monkeypatch.setattr(StructureTensor, "cells", property(nested))
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

# The solved couplings of slot i, map h, by algebra; the same on both sides.
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

    def test_invariant_form_is_generic(self):
        from excalg import threeform as tf

        model = ms.vector_model_g2()
        assert tf.classify(model.invariant_form).label == tf.W5
