"""Unit tests for the per-geometry chain amplitudes.

Heavier whole-table checks live in test_acceptance; here we pin a sampling
of known values per geometry plus the structural properties that do not
depend on any particular table.
"""

from fractions import Fraction as F

import pytest

from resmirror import cache
from resmirror.cache import cached_two_point
from resmirror.geoms import (
    Insertion,
    InvalidInsertion,
    geometry,
    parse_insertion,
    two_point_cpn,
    two_point_f3,
    two_point_kf0,
    two_point_wp1,
    two_point_wp2,
    two_point_wp3,
)
from resmirror.parts import InvalidDegree


class TestInsertionLabels:
    def test_one_form_labels(self):
        g = geometry("cpn", N=6, k=4)
        assert parse_insertion(g, "1").exps == (0,)
        assert parse_insertion(g, "z").exps == (1,)
        assert parse_insertion(g, "h").exps == (1,)
        assert parse_insertion(g, "h3").exps == (3,)
        assert parse_insertion(g, "z2").exps == (2,)
        assert parse_insertion(g, 4).exps == (4,)

    def test_two_form_labels(self):
        g = geometry("kf0")
        assert parse_insertion(g, "1").exps == (0, 0)
        assert parse_insertion(g, "z").exps == (1, 0)
        assert parse_insertion(g, "w").exps == (0, 1)
        assert parse_insertion(g, "zw").exps == (1, 1)
        assert parse_insertion(g, "w2").exps == (0, 2)
        assert parse_insertion(g, "z2w3").exps == (2, 3)
        assert parse_insertion(g, (1, 1)).exps == (1, 1)

    def test_label_round_trip(self):
        for exps in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 3)]:
            ins = Insertion(*exps)
            g = geometry("f3")
            assert parse_insertion(g, ins.label()) == ins

    def test_bad_labels(self):
        g1 = geometry("cpn", N=5, k=5)
        g2 = geometry("kf0")
        for bad in ["", "q", "zz", "2z"]:
            with pytest.raises(InvalidInsertion):
                parse_insertion(g2, bad)
        with pytest.raises(InvalidInsertion):
            parse_insertion(g1, "w")
        with pytest.raises(InvalidInsertion):
            Insertion(-1)

    def test_outside_basis_rejected(self):
        with pytest.raises(InvalidInsertion):
            geometry("cpn", N=5, k=5).two_point(1, 0, 4)
        with pytest.raises(InvalidInsertion):
            geometry("kf0").two_point((1, 0), "z2", "1")

    def test_bad_degrees_rejected(self):
        with pytest.raises(InvalidDegree):
            geometry("cpn", N=5, k=5).two_point(0, 0, 2)
        with pytest.raises(InvalidDegree):
            geometry("kf0").two_point((0, 0), "1", "zw")
        with pytest.raises(InvalidDegree):
            geometry("kf0").two_point(2, "1", "zw")
        with pytest.raises(InvalidDegree):
            geometry("f3").two_point((1, -1), "1", "w2")


class TestCpn:
    def test_n7_k5_degree_one(self):
        assert two_point_cpn(7, 5, 1, 1, 5) == 600
        assert two_point_cpn(7, 5, 1, 2, 4) == 3850
        assert two_point_cpn(7, 5, 1, 3, 3) == 6725

    def test_n5_k5_low_degree(self):
        assert two_point_cpn(5, 5, 1, 0, 2) == 3850
        assert two_point_cpn(5, 5, 1, 1, 1) == 6725
        assert two_point_cpn(5, 5, 2, 0, 2) == 3589125

    def test_n8_k9_degree_one(self):
        assert two_point_cpn(8, 9, 1, 0, 4) == 307250172
        assert two_point_cpn(8, 9, 1, 1, 3) == 817713468
        assert two_point_cpn(8, 9, 1, 2, 2) == 1122806529

    def test_selection_rule_vanishing(self):
        # N=7, k=5: nonzero at degree d needs a + b = 4 + 2d
        g = geometry("cpn", N=7, k=5)
        assert g.selection_degree(1) == 6
        assert g.two_point(1, 1, 4) == 0
        assert g.two_point(1, 2, 5) == 0

    def test_fano_high_degree_vanishing(self):
        # N=8, k=4: required degree 5 + 4d exceeds 2(N-2) already at d = 2
        g = geometry("cpn", N=8, k=4)
        assert g.selection_degree(2) > 2 * (g.N - 2)
        assert g.two_point(2, 6, 6) == 0

    def test_classical_triple(self):
        g = geometry("cpn", N=5, k=5)
        assert g.classical_triple(1, 1, 1) == 5
        assert g.classical_triple(0, 1, 1) == 0


class TestKf0:
    def test_degree_one_parts(self):
        assert two_point_kf0((1, 0), "1", "zw") == -1
        assert two_point_kf0((0, 1), "1", "zw") == -1
        assert two_point_kf0((1, 1), "1", "zw") == -6
        assert two_point_kf0((1, 0), "z", "z") == -2
        assert two_point_kf0((0, 1), "z", "z") == 0
        assert two_point_kf0((1, 1), "z", "w") == -10

    def test_higher_degree_parts(self):
        assert two_point_kf0((2, 0), "z", "z") == -5
        assert two_point_kf0((2, 1), "z", "z") == -76
        assert two_point_kf0((2, 1), "1", "zw") == -30
        assert two_point_kf0((3, 0), "z", "z") == F(-44, 3)
        assert two_point_kf0((2, 1), "z", "w") == -58

    def test_quantum_part_is_k_free(self):
        assert two_point_kf0((2, 1), "z", "w", k=7) == two_point_kf0((2, 1), "z", "w")

    def test_classical_triple_table(self):
        g1, g7 = geometry("kf0"), geometry("kf0", k=7)
        assert g1.classical_triple("z", "z", "z") == 1
        assert g7.classical_triple("z", "z", "z") == 7
        assert g7.classical_triple("z", "z", "w") == -7
        assert g7.classical_triple("z", "w", "w") == F(13, 2)
        assert g7.classical_triple("1", "w", "zw") == F(13, 2)
        assert g1.classical_triple("1", "1", "z3") == 1
        assert g1.classical_triple("1", "z", "zw") == -1

    def test_off_rule_vanishing(self):
        g = geometry("kf0")
        assert g.two_point((1, 0), "1", "z") == 0
        assert g.two_point((1, 1), "zw", "zw") == 0
        assert g.two_point((2, 0), "1", "1") == 0


class TestF3:
    def test_degree_one_parts(self):
        assert two_point_f3((1, 0), "1", "1") == 5
        assert two_point_f3((0, 1), "w", "w2") == 3
        assert two_point_f3((1, 1), "1", "w2") == -6
        assert two_point_f3((1, 1), "z", "z") == 1
        assert two_point_f3((1, 1), "z", "w") == -1

    def test_higher_degree_parts(self):
        assert two_point_f3((2, 1), "1", "z") == -16
        assert two_point_f3((2, 1), "1", "w") == F(39, 2)
        assert two_point_f3((2, 2), "z", "w2") == 15
        assert two_point_f3((2, 2), "w", "w2") == -18

    def test_selection_rule(self):
        # nonzero at (da, db) needs total degree 1 - da + 2 db
        g = geometry("f3")
        assert g.selection_degree((1, 1)) == 2
        assert g.selection_degree((3, 2)) == 2
        assert g.two_point((1, 1), "1", "z") == 0
        assert g.two_point((0, 1), "1", "w") == 0

    def test_classical_triple(self):
        g = geometry("f3")
        assert g.classical_triple("1", "1", "w2") == 3
        assert g.classical_triple("1", "z", "w") == 1
        assert g.classical_triple("1", "w", "w") == 3
        assert g.classical_triple("1", "z", "z") == 0
        assert g.classical_triple("z", "w", "w2") == 0


class TestWp1:
    def test_low_degree(self):
        assert two_point_wp1((0, 1), "1", "zw") == 416
        assert two_point_wp1((0, 1), "1", "w2") == 1024
        assert two_point_wp1((1, 0), "z", "z") == 4
        assert two_point_wp1((1, 1), "z", "z") == 832
        assert two_point_wp1((1, 0), "1", "zw") == -4

    def test_second_degree(self):
        assert two_point_wp1((2, 0), "1", "zw") == -6
        assert two_point_wp1((0, 2), "1", "zw") == 39120
        assert two_point_wp1((0, 2), "1", "w2") == 103872

    def test_classical_triple(self):
        g = geometry("wp1")
        assert g.classical_triple("1", "z", "zw") == 0
        assert g.classical_triple("1", "z", "w2") == 4
        assert g.classical_triple("1", "w", "zw") == 4
        assert g.classical_triple("1", "w", "w2") == 8
        assert g.classical_triple("1", "z", "z") == 0

    def test_off_rule_vanishing(self):
        g = geometry("wp1")
        assert g.two_point((1, 0), "1", "z") == 0
        assert g.two_point((1, 1), "zw", "w2") == 0


class TestWp2:
    def test_low_degree(self):
        assert two_point_wp2(1, "1", "z") == 1488
        assert two_point_wp2(2, "1", "z") == 947304

    def test_classical_triple(self):
        g = geometry("wp2")
        assert g.classical_triple("1", "z", "z") == 2
        assert g.classical_triple("1", "1", "z") == 0

    def test_off_rule_vanishing(self):
        assert two_point_wp2(1, "1", "1") == 0
        assert two_point_wp2(1, "z", "z") == 0


class TestWp3:
    def test_low_degree(self):
        assert two_point_wp3((0, 1), "1", "zw") == 1488
        assert two_point_wp3((1, 0), "1", "zw") == -2
        assert two_point_wp3((1, 0), "z", "z") == 2
        assert two_point_wp3((1, 1), "z", "z") == 2976
        assert two_point_wp3((0, 1), "1", "w2") == 3456

    def test_second_degree(self):
        assert two_point_wp3((0, 2), "1", "zw") == 947304

    def test_classical_triple(self):
        g = geometry("wp3")
        assert g.classical_triple("1", "z", "zw") == 0
        assert g.classical_triple("1", "w", "zw") == 2
        assert g.classical_triple("1", "z", "w2") == 2
        assert g.classical_triple("1", "w", "w2") == 4


class TestStructuralProperties:
    PAIRS = [
        ("cpn", dict(N=6, k=4), 1, [(0, 3), (1, 2)]),
        ("kf0", dict(), (1, 1), [("1", "zw"), ("z", "w")]),
        ("f3", dict(), (2, 1), [("1", "z"), ("1", "w")]),
        ("wp1", dict(), (1, 1), [("1", "zw"), ("z", "w")]),
        ("wp2", dict(), 1, [("1", "z")]),
        ("wp3", dict(), (1, 1), [("1", "zw"), ("z", "w")]),
    ]

    @pytest.mark.parametrize("name,params,dd,pairs", PAIRS)
    def test_insertion_exchange_symmetry(self, name, params, dd, pairs):
        g = geometry(name, **params)
        for a, b in pairs:
            assert g.two_point(dd, a, b) == g.two_point(dd, b, a)

    def test_memo_shared_across_orders_and_instances(self, monkeypatch):
        assert cache.active_store() is None
        monkeypatch.setattr(cache, "_MEMO", {})
        calls = []

        def counting(orig):
            def amplitude(self, sigma, a, b):
                calls.append(sigma)
                return orig(self, sigma, a, b)
            return amplitude

        f3, cpn = geometry("f3"), geometry("cpn", N=7, k=5)
        for cls in (type(f3), type(cpn)):
            monkeypatch.setattr(cls, "amplitude", counting(cls.amplitude))
        one, w = parse_insertion(f3, "1"), parse_insertion(f3, "w")
        assert cached_two_point(f3, (2, 1), one, w) == F(39, 2)
        assert len(calls) == 5
        # the swapped order is the same number: no chain is evaluated again
        assert cached_two_point(f3, (2, 1), w, one) == F(39, 2)
        assert len(calls) == 5
        # nor for a second instance with the same name and parameters
        a, b = Insertion(1), Insertion(5)
        assert cached_two_point(cpn, 1, a, b) == 600 and len(calls) == 6
        again = geometry("cpn", N=7, k=5)
        assert cached_two_point(again, 1, a, b) == 600 and len(calls) == 6

    def test_unknown_geometry(self):
        with pytest.raises(ValueError):
            geometry("nosuch")


# Every chain's amplitude at low degree, one insertion pair per degree that
# meets the selection rule.  Sums alone would not notice a change that moves
# value between chains, such as a different vertex residue order.
CHAIN_PINS = [
    ("cpn", dict(N=5, k=5), 1, "1", "z2", {(1,): 3850}),
    ("cpn", dict(N=5, k=5), 2, "1", "z2", {(1, 1): -462000, (2,): 4051125}),
    ("cpn", dict(N=5, k=5), 3, "1", "z2",
     {(1, 1, 1): 55440000, (1, 2): -486135000, (2, 1): -436590000,
      (3,): F(18728395000, 3)}),
    ("wp2", dict(), 1, "1", "z", {(1,): 1488}),
    ("wp2", dict(), 2, "1", "z", {(1, 1): -1285632, (2,): 2232936}),
    ("wp2", dict(), 3, "1", "z",
     {(1, 1, 1): 1243634688, (1, 2): -1799027712, (2, 1): -1995681024,
      (3,): 3454542208}),
    ("kf0", dict(), (1, 0), "1", "zw", {((1, 0),): -1}),
    ("kf0", dict(), (0, 1), "1", "zw", {((0, 1),): -1}),
    ("kf0", dict(), (2, 0), "1", "zw", {((1, 0), (1, 0)): 2, ((2, 0),): F(-7, 2)}),
    ("kf0", dict(), (1, 1), "1", "zw", {((0, 1), (1, 0)): 2, ((1, 0), (0, 1)): -8}),
    ("kf0", dict(), (0, 2), "1", "zw", {((0, 1), (0, 1)): 2, ((0, 2),): F(-7, 2)}),
    ("f3", dict(), (1, 0), "1", "1", {((1, 0),): 5}),
    ("f3", dict(), (0, 1), "w", "w2", {((0, 1),): 3}),
    ("f3", dict(), (1, 1), "z", "z", {((0, 1), (1, 0)): 2, ((1, 0), (0, 1)): -1}),
    ("wp1", dict(), (1, 0), "1", "zw", {((1, 0),): -4}),
    ("wp1", dict(), (0, 1), "1", "zw", {((0, 1),): 416}),
    ("wp1", dict(), (2, 0), "1", "zw", {((1, 0), (1, 0)): 8, ((2, 0),): -14}),
    ("wp1", dict(), (1, 1), "z", "z", {((0, 1), (1, 0)): 416, ((1, 0), (0, 1)): 416}),
    ("wp1", dict(), (0, 2), "1", "zw", {((0, 1), (0, 1)): -292288, ((0, 2),): 331408}),
    ("wp3", dict(), (1, 0), "1", "zw", {((1, 0),): -2}),
    ("wp3", dict(), (0, 1), "1", "zw", {((0, 1),): 1488}),
    ("wp3", dict(), (2, 0), "1", "zw", {((1, 0), (1, 0)): 4, ((2, 0),): -7}),
    ("wp3", dict(), (1, 1), "z", "z", {((0, 1), (1, 0)): 1488, ((1, 0), (0, 1)): 1488}),
    ("wp3", dict(), (0, 2), "1", "zw",
     {((0, 1), (0, 1)): -6483168, ((0, 2),): 7430472}),
]


@pytest.mark.parametrize("name,params,dd,a,b,chains", CHAIN_PINS)
def test_chain_amplitudes(name, params, dd, a, b, chains):
    g = geometry(name, **params)
    assert {tuple(sigma): g.amplitude(sigma, a, b) for sigma in g._chains(dd)} == chains
