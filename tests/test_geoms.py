"""Unit tests for the per-geometry chain amplitudes.

Heavier whole-table checks live in test_acceptance; here we pin a sampling
of known values per geometry plus the structural properties that do not
depend on any particular table.
"""

from fractions import Fraction as F
from itertools import combinations_with_replacement

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmirror import cache, chains
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
from resmirror.chains import _axis, _hypersurface_roots, _part_deg, _part_poles
from resmirror.parts import InvalidDegree
from resmirror.polys import RatFunc, VarSet
from resmirror.residues import residue_at, residue_sum


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
        # an exponent is never coerced: 2.9 is not z^2, nor (1.7, 0) z
        for bad in [(2.9,), (1.0,), (True,), (1.7, 0), (0, False)]:
            with pytest.raises(InvalidInsertion):
                Insertion(*bad)
        with pytest.raises(InvalidInsertion):
            parse_insertion(g1, True)
        with pytest.raises(InvalidInsertion):
            two_point_f3((1, 1), (1.7, 0), "z")

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
        with pytest.raises(InvalidDegree):
            geometry("cpn", N=5, k=5).two_point((1, 1), 0, 2)
        for bad in [(1.9, 1.2), (1.5, 1), (1, 1.0), ("1", 1), (1, 1, 0)]:
            with pytest.raises(InvalidDegree):
                geometry("f3").two_point(bad, "z", "z")
            with pytest.raises(InvalidDegree):
                two_point_f3(bad, "z", "z")
        # a memoized number must not answer a degree that only coerces to it
        assert two_point_f3((1, 1), "z", "z") == 1
        for bad in [(1.9, 1.2), (1.5, 1)]:
            with pytest.raises(InvalidDegree):
                two_point_f3(bad, "z", "z")
        g = geometry("cpn", N=5, k=5)
        one, zz = Insertion(0), Insertion(2)
        assert cached_two_point(g, 1, one, zz) == 3850
        for bad in [1.0, (1.0,), (1, 1)]:
            with pytest.raises(InvalidDegree):
                cached_two_point(g, bad, one, zz)


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

    DECLARED = [
        ("cpn", dict(N=5, k=5), "cpn(N=5, k=5)", {1: 2, 2: 2, 3: 2}),
        ("cpn", dict(N=8, k=9), "cpn(N=8, k=9)", {1: 4, 2: 3, 3: 2}),
        ("cpn", dict(N=6, k=4), "cpn(N=6, k=4)", {1: 5, 2: 7, 3: 9}),
        ("wp2", dict(), "wp2()", {1: 1, 2: 1, 3: 1}),
        ("kf0", dict(), "kf0(k=1)", {(1, 0): 2, (0, 1): 2, (2, 1): 2, (3, 2): 2}),
        ("kf0", dict(k=7), "kf0(k=7)", {(1, 1): 2}),
        ("wp1", dict(), "wp1()", {(1, 0): 2, (0, 1): 2, (2, 1): 2, (3, 2): 2}),
        ("wp3", dict(), "wp3()", {(1, 0): 2, (0, 1): 2, (2, 1): 2, (3, 2): 2}),
        ("f3", dict(), "f3()", {(1, 0): 0, (0, 1): 3, (2, 1): 1, (3, 2): 2}),
    ]

    @pytest.mark.parametrize("name,params,rep,rule", DECLARED)
    def test_declared_facts(self, name, params, rep, rule):
        # the parameters (repr reads params()), the selection rule
        # dim - 1 + c1 . d and the Kahler classes, from each declaration
        g = geometry(name, **params)
        assert repr(g) == rep
        assert {dd: g.selection_degree(dd) for dd in rule} == rule
        labels = ["z"] if g.n_forms == 1 else ["z", "w"]
        assert [c.label() for c in g.kahler_classes()] == labels

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

    def test_non_integer_parameters_rejected(self):
        # a parameter is never coerced: N=5.5 is not cpn(N=5)
        for name, params in [("cpn", dict(N=5.5, k=5)), ("cpn", dict(N=5, k=5.0)),
                             ("cpn", dict(N=True, k=5)), ("kf0", dict(k=1.5)),
                             ("kf0", dict(k=True))]:
            with pytest.raises(ValueError, match="must be an integer"):
                geometry(name, **params)
        with pytest.raises(ValueError, match="must be an integer"):
            two_point_cpn(5.5, 5, 1, 1, 1)
        with pytest.raises(ValueError, match="^need N >= 2 and k >= 1$"):
            geometry("cpn", N=1, k=5)

    RULE_SAMPLE = [("cpn", dict(N=5, k=5)), ("cpn", dict(N=4, k=3)), ("wp2", dict()),
                   ("kf0", dict()), ("f3", dict()), ("wp1", dict()), ("wp3", dict())]

    @staticmethod
    def off_rule_chain_sums(g, totals):
        """Assert that every off-rule pair's chain sum vanishes at each total
        degree in totals; returns the number of such pairs."""
        if g.n_forms == 1:
            degrees = list(totals)
        else:
            degrees = [(da, n - da) for n in totals for da in range(n + 1)]
        off = 0
        for dd in degrees:
            for a, b in combinations_with_replacement(g.basis(), 2):
                if a.degree() + b.degree() != g.selection_degree(dd):
                    off += 1
                    assert sum(g.amplitude(s, a, b) for s in g._chains(dd)) == 0, \
                        (dd, a, b)
        return off

    @pytest.mark.parametrize("name,params", RULE_SAMPLE)
    def test_selection_rule_holds_chain_by_chain(self, name, params):
        # two_point returns 0 off the rule without a chain; here the chain
        # sum itself is taken, so the rule is checked, not assumed
        assert self.off_rule_chain_sums(geometry(name, **params), (1, 2))

    @pytest.mark.parametrize("name,params,totals,pairs", [
        ("cpn", dict(N=8, k=4), (1, 2), 26 + 28), ("cpn", dict(N=5, k=5), (3,), 8),
        ("wp2", dict(), (3,), 9), ("kf0", dict(), (3,), 24), ("f3", dict(), (3,), 37)])
    def test_selection_rule_holds_chain_by_chain_deeper(self, name, params, totals, pairs):
        # these sums vanish only by cancellation across chains, which a
        # wrong scale on one denominator factor would break
        assert self.off_rule_chain_sums(geometry(name, **params), totals) == pairs

    def test_off_rule_pair_evaluates_no_chain(self, monkeypatch):
        def refuse(self, sigma, a, b):
            raise AssertionError("chain evaluated off the selection rule")

        g = geometry("f3")
        monkeypatch.setattr(type(g), "amplitude", refuse)
        assert g.two_point((4, 3), "z", "z") == 0
        assert g.two_point((0, 1), "z", "w") == 0
        with pytest.raises(AssertionError):
            g.two_point((0, 1), "w", "w2")


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


# -- the whole-integrand amplitudes, kept as oracles ------------------------
#
# Both engines used to multiply a chain's whole integrand together before
# the first residue.  The engines now bring in each factor at the first
# vertex it touches; these copies of the old construction check that every
# chain's value stays the same rational.


def one_form_oracle(g, sigma, a, b):
    a, b = g.check_insertion(a), g.check_insertion(b)
    sigma = tuple(sigma)
    l = len(sigma)
    n = len(g.weights)
    coords = [(m, 0, g.weights.count(m)) for m in sorted(set(g.weights))]
    vs = VarSet(["z%d" % j for j in range(l + 1)])
    z = [vs.poly("z%d" % j) for j in range(l + 1)]
    num = z[0] ** a.exps[0] * z[l] ** b.exps[0]
    orbifold = math.prod(g.weights)
    if orbifold != 1:
        num = num * F(1, orbifold) ** (l + 1)
    den = [(zz, n) for zz in z]
    for i, d in enumerate(sigma):
        num = _hypersurface_roots(num, g.k, d, z[i], z[i + 1])
        den += _part_poles(coords, d, z[i], z[i + 1])
    for j in range(1, l):
        form = (z[j] - z[j - 1]) * F(1, sigma[j - 1]) \
             + (z[j] - z[j + 1]) * F(1, sigma[j])
        den += [(form, 1), (z[j], 1)]
        num = num * F(1, g.k)
    f = RatFunc(num, den)
    order = range(l, -1, -1) if g._DESCENDING else range(0, l + 1)
    for j in order:
        f = residue_at(f, "z%d" % j)
    val = f.as_rational()
    for d in sigma:
        val /= d
    return val


def two_form_oracle(g, sigma, a, b):
    a, b = g.check_insertion(a), g.check_insertion(b)
    sigma = tuple(tuple(p) for p in sigma)
    l = len(sigma)
    names = []
    for j in range(l + 1):
        names += ["z%d" % j, "w%d" % j]
    vs = VarSet(names)
    z = [vs.poly("z%d" % j) for j in range(l + 1)]
    w = [vs.poly("w%d" % j) for j in range(l + 1)]

    f = RatFunc(z[0] ** a.exps[0] * w[0] ** a.exps[1]
                * z[l] ** b.exps[0] * w[l] ** b.exps[1])
    for i, part in enumerate(sigma):
        axis = _axis(part)
        if axis == "a":
            d, p, q, other = part[0], z[i], z[i + 1], w[i]
        else:
            d, p, q, other = part[1], w[i], w[i + 1], z[i]
        block = chains._section_block if axis in g._SECTION_AXES else chains._fiber_block
        f = f * block(g, d, p, q, other)
    for j in range(1, l):
        prv, nxt = sigma[j - 1], sigma[j]
        A = (z[j] - z[j - 1]) if _axis(prv) == "a" else (w[j] - w[j - 1])
        B = (z[j] - z[j + 1]) if _axis(nxt) == "a" else (w[j] - w[j + 1])
        form = A * F(1, _part_deg(prv)) + B * F(1, _part_deg(nxt))
        f = f * chains._node(g, (_axis(prv), _axis(nxt)), z[j], w[j], form)

    for j in range(l):
        if _axis(sigma[j]) == "a":
            f = f.substitute("w%d" % j, w[j + 1])
            f = f * RatFunc(vs.const(1), [(z[j], 2)])
            f = residue_at(f, "z%d" % j)
        else:
            prof = g._RES[_axis(sigma[j - 1]) if j else "b"]
            f = chains._w_residue(g, f, "w%d" % j, z[j], prof)
            f = f.substitute("z%d" % j, z[j + 1])
    f = chains._w_residue(g, f, "w%d" % l, z[l], g._RES[_axis(sigma[-1])])
    f = f * RatFunc(vs.const(1), [(z[l], 2)])
    f = residue_at(f, "z%d" % l)

    val = f.as_rational()
    for part in sigma:
        val /= _part_deg(part)
    return val


def _oracle_requests():
    """(geometry, degree, insertion pairs meeting the selection rule) at
    one-form degree <= 3 and two-form total degree <= 3."""
    geoms = [geometry("cpn", N=N, k=k) for N in range(2, 7) for k in range(1, 8)]
    geoms += [geometry(name) for name in ("kf0", "f3", "wp1", "wp2", "wp3")]
    out = []
    for g in geoms:
        if g.n_forms == 1:
            degrees = [1, 2, 3]
        else:
            degrees = [(da, t - da) for t in range(1, 4) for da in range(t + 1)]
        for dd in degrees:
            pairs = [(x, y) for x in g.basis() for y in g.basis()
                     if x.degree() + y.degree() == g.selection_degree(dd)]
            if pairs:
                out.append((g, dd, pairs))
    return out


_REQUESTS = _oracle_requests()


@st.composite
def chain_requests(draw):
    name = draw(st.sampled_from(["cpn", "kf0", "f3", "wp1", "wp2", "wp3"]))
    g, dd, pairs = draw(st.sampled_from([r for r in _REQUESTS if r[0].name == name]))
    a, b = draw(st.sampled_from(pairs))
    return g, dd, a, b


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chain_requests())
def test_amplitude_matches_whole_integrand(request):
    g, dd, a, b = request
    oracle = one_form_oracle if g.n_forms == 1 else two_form_oracle
    for sigma in g._chains(dd):
        assert g.amplitude(sigma, a, b) == oracle(g, sigma, a, b)


def classical_triple_oracle(g, a, b, c):
    """The two-form classical triple as the residue sum over w at 0 and at
    the branch point c z, then the residue at z = 0."""
    a, b, c = (g.check_insertion(x) for x in (a, b, c))
    vs = VarSet(["z", "w"])
    zz, ww = vs.poly("z"), vs.poly("w")
    s = a.exps[0] + b.exps[0] + c.exps[0]
    t = a.exps[1] + b.exps[1] + c.exps[1]
    scale = 1
    if g._FIBER_DEGREE:
        scale, t = g._FIBER_DEGREE * g._W_SCALE, t + 1
    power = g._RES["b"][0]
    f = RatFunc(scale * zz ** s * ww ** t,
                [(ww, power), (ww - g._BRANCH * zz, 1), (zz, 2)])
    h = residue_sum(f, "w", [0, g._BRANCH * zz])
    return residue_at(h, "z").as_rational()


@pytest.mark.parametrize("name", ["f3", "wp1", "wp3"])
def test_classical_triple_matches_residue_oracle(name):
    g = geometry(name)
    basis = g.basis()
    nonzero = 0
    for a in basis:
        for b in basis:
            for c in basis:
                want = classical_triple_oracle(g, a, b, c)
                assert g.classical_triple(a, b, c) == want, (a, b, c)
                nonzero += want != 0
    assert nonzero
