import random

import pytest
from hypothesis import given, settings, strategies as st

from excalg import rootdata as rd

TYPES = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


class TestGeneration:
    def test_root_counts(self):
        expected = {
            ("G", 2): 12,
            ("F", 4): 48,
            ("E", 6): 72,
            ("E", 7): 126,
            ("E", 8): 240,
            ("A", 1): 2,
            ("D", 4): 24,
        }
        for (fam, rank), count in expected.items():
            assert len(rd.build_root_system(fam, rank).roots) == count

    def test_closed_under_negation(self):
        for fam, rank in TYPES:
            rs = rd.build_root_system(fam, rank)
            for r in rs.roots:
                assert tuple(-c for c in r) in rs.roots

    def test_highest_root_marks(self):
        assert rd.build_root_system("G", 2).marks == (3, 2)
        assert rd.build_root_system("F", 4).marks == (2, 3, 4, 2)
        assert rd.build_root_system("E", 8).marks == (2, 3, 4, 6, 5, 4, 3, 2)
        assert rd.build_root_system("D", 4).marks == (1, 2, 1, 1)

    def test_invalid_type(self):
        with pytest.raises(ValueError):
            rd.build_root_system("G", 3)

    def test_consistency_with_built_algebras(self):
        # dimensions of the square entries match the generated root data
        dims = {
            ("A", 2): 8,
            ("C", 3): 21,
            ("F", 4): 52,
            ("E", 6): 78,
            ("E", 7): 133,
            ("E", 8): 248,
            ("D", 6): 66,
            ("A", 5): 35,
        }
        for (fam, rank), dim in dims.items():
            assert rd.build_root_system(fam, rank).dimension == dim


class TestZGradings:
    def test_acceptance_profiles(self):
        f4 = rd.build_root_system("F", 4)
        assert rd.z_grading(f4, 4).dims_list() == [(-2, 7), (-1, 8), (0, 22), (1, 8), (2, 7)]
        e6 = rd.build_root_system("E", 6)
        assert rd.z_grading(e6, 2).dims[1] == 20
        assert rd.z_grading(e6, 1).dims_list() == [(-1, 16), (0, 46), (1, 16)]

    def test_zero_part_types(self):
        f4 = rd.build_root_system("F", 4)
        assert rd.z_grading(f4, 4).zero_part_type == "B3"
        e6 = rd.build_root_system("E", 6)
        assert rd.z_grading(e6, 2).zero_part_type == "A5"
        assert rd.z_grading(e6, 1).zero_part_type == "D5"
        assert rd.z_grading(rd.build_root_system("A", 1), 1).zero_part_type == "0"

    def test_zero_part_types_of_every_exceptional_node(self):
        expected = {
            ("G", 2): ["A1", "A1"],
            ("F", 4): ["C3", "A1+A2", "A1+A2", "B3"],
            ("E", 6): ["D5", "A5", "A1+A4", "A1+A2+A2", "A1+A4", "D5"],
            ("E", 7): ["D6", "A6", "A1+A5", "A1+A2+A3", "A2+A4", "A1+D5", "E6"],
            ("E", 8): ["D7", "A7", "A1+A6", "A1+A2+A4", "A3+A4", "A2+D5", "A1+E6", "E7"],
        }
        for (fam, rank), names in expected.items():
            rs = rd.build_root_system(fam, rank)
            assert [rd.z_grading(rs, node).zero_part_type for node in range(1, rank + 1)] == names

    @given(st.sampled_from(TYPES), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_total(self, typ, node):
        fam, rank = typ
        if node > rank:
            node = 1 + (node - 1) % rank
        rs = rd.build_root_system(fam, rank)
        rep = rd.z_grading(rs, node)
        assert sum(rep.dims.values()) == rs.dimension
        for deg, dim in rep.dims.items():
            assert rep.dims.get(-deg, 0) == dim or deg == 0

    def test_mark_one_nodes_give_three_terms(self):
        for fam, rank, node in (("E", 6, 1), ("E", 7, 7), ("A", 4, 2), ("D", 5, 1)):
            rs = rd.build_root_system(fam, rank)
            assert rs.marks[node - 1] == 1
            rep = rd.z_grading(rs, node)
            assert sorted(rep.dims) == [-1, 0, 1]


class TestZmGradings:
    def test_acceptance_profiles(self):
        g2 = rd.build_root_system("G", 2)
        assert rd.zm_grading(g2, 2).dims_list() == [(0, 6), (1, 8)]
        d4 = rd.build_root_system("D", 4)
        assert rd.zm_grading(d4, 2).dims_list() == [(0, 12), (1, 16)]
        e8 = rd.build_root_system("E", 8)
        assert rd.zm_grading(e8, 1).dims_list() == [(0, 120), (1, 128)]

    def test_order_three_node(self):
        g2 = rd.build_root_system("G", 2)
        assert rd.zm_grading(g2, 1).dims_list() == [(0, 8), (1, 3), (2, 3)]

    def test_extended_node_trivial(self):
        g2 = rd.build_root_system("G", 2)
        assert rd.zm_grading(g2, 0).dims_list() == [(0, 14)]

    def test_order_two_balance(self):
        # negation pairs the odd part: degree-0 plus twice the positive
        # odd-coefficient roots accounts for the whole algebra
        for fam, rank, node in (("G", 2, 2), ("D", 4, 2), ("E", 8, 1), ("E", 7, 1)):
            rs = rd.build_root_system(fam, rank)
            rep = rd.zm_grading(rs, node)
            if rep.modulus != 2:
                continue
            positive_odd = sum(
                1 for r in rs.roots if r[node - 1] % 2 == 1 and r[node - 1] > 0
            )
            assert rep.dims[0] + 2 * positive_odd == rs.dimension


class TestDimensionFormulas:
    def test_series(self):
        assert [rd.magic_dimension_formulas(a).v4 for a in (1, 2, 4, 8)] == [52, 78, 133, 248]

    def test_third_row(self):
        rec = rd.magic_dimension_formulas(4)
        assert (rec.x3, rec.v3) == (15, 32)

    def test_half_column(self):
        assert rd.magic_dimension_formulas(6).v4 == 190

    def test_invalid(self):
        with pytest.raises(ValueError):
            rd.magic_dimension_formulas(3)


class TestShadows:
    def test_grassmannian_lines(self):
        a7 = rd.build_root_system("A", 7)
        rep = rd.shadow_lines(a7, 3)
        assert rep.incidence_nodes == (2, 4) and rep.homogeneous

    def test_short_root_not_homogeneous(self):
        g2 = rd.build_root_system("G", 2)
        rep = rd.shadow_lines(g2, 1)
        assert rep.incidence_nodes == (2,) and not rep.homogeneous

    def test_projective_line_itself(self):
        a1 = rd.build_root_system("A", 1)
        rep = rd.shadow_lines(a1, 1)
        assert rep.incidence_nodes == () and rep.homogeneous


def _shuffled(a, rng):
    perm = list(range(len(a)))
    rng.shuffle(perm)
    return [[a[i][j] for j in perm] for i in perm]


def _simply_laced(n, bonds):
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in bonds:
        a[i][j] = a[j][i] = -1
    return a


class TestDiagramType:
    @pytest.mark.parametrize("family", "ABCDEFG")
    def test_shuffled_families(self, family):
        rng = random.Random(family)
        for n in range(1, 13):
            try:
                a = rd.cartan_matrix(family, n)
            except ValueError:
                continue
            name = {"C2": "B2", "D3": "A3"}.get(f"{family}{n}", f"{family}{n}")
            assert rd.diagram_type(_shuffled(a, rng)) == name

    @pytest.mark.parametrize(
        "a",
        [
            _simply_laced(3, [(0, 1), (1, 2), (0, 2)]),
            [[2, -2], [-2, 2]],
            [[2, -4], [-1, 2]],
            _simply_laced(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
            [[2, -2, 0], [-1, 2, -2], [0, -1, 2]],
            # affine D5: nodes 0 and 1 hang off node 2, nodes 4 and 5 off node 3
            _simply_laced(6, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]),
            # affine E8: arms of 1, 2 and 5 nodes at node 0
            _simply_laced(9, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8)]),
            [[2, -1], [0, 2]],
        ],
        ids=["affine-A2", "affine-A1", "bond-of-4", "affine-D4", "two-double-bonds",
             "two-branch-nodes", "affine-E8", "not-cartan"],
    )
    def test_not_finite_type(self, a):
        with pytest.raises(ValueError):
            rd.diagram_type(a)
