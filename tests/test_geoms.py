"""Unit tests for the per-geometry chain amplitudes.

Heavier whole-table checks live in test_acceptance; here we pin a sampling
of known values per geometry plus the structural properties that do not
depend on any particular table.
"""

from fractions import Fraction as F
from itertools import combinations_with_replacement

import math
import re
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resmirror import cache, chains
from resmirror.cache import cached_two_point
from resmirror.geoms import (
    Geometry,
    Insertion,
    InvalidInsertion,
    geometry,
    parse_insertion,
    two_point_cpn,
)
from resmirror.parts import InvalidDegree, ordered_bipartitions, ordered_partitions
from resmirror.polys import RatFunc, VarSet
from resmirror.residues import residue_at, residue_sum
from resmirror.vsc import InvalidComb, decomposition_coefficient, poly_d

import literal_engine
from literal_engine import _axis, _hypersurface_roots, _part_deg, _part_poles
from test_toric import literal_geometry, p1_cubed

KF0, F3, WP1, WP2, WP3 = (geometry(name) for name in ("kf0", "f3", "wp1", "wp2", "wp3"))


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
            cached_two_point(F3, (1, 1), (1.7, 0), "z")

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
                cached_two_point(F3, bad, "z", "z")
        # a memoized number must not answer a degree that only coerces to it
        assert cached_two_point(F3, (1, 1), "z", "z") == 1
        for bad in [(1.9, 1.2), (1.5, 1)]:
            with pytest.raises(InvalidDegree):
                cached_two_point(F3, bad, "z", "z")
        g = geometry("cpn", N=5, k=5)
        one, zz = Insertion(0), Insertion(2)
        assert cached_two_point(g, 1, one, zz) == 3850
        for bad in [1.0, (1.0,), (1, 1)]:
            with pytest.raises(InvalidDegree):
                cached_two_point(g, bad, one, zz)

    def test_int_subclasses_rejected(self):
        # one predicate, type(x) is int: an IntEnum member is no degree,
        # exponent, composition degree or vsc argument, as _check_int
        # already refuses one as a parameter
        class Small(IntEnum):
            ONE = 1
            TWO = 2

        with pytest.raises(InvalidDegree):
            geometry("wp2").two_point(Small.ONE, "1", "z")
        with pytest.raises(InvalidDegree):
            geometry("f3").check_degree((Small.ONE, 0))
        with pytest.raises(InvalidInsertion):
            Insertion(Small.TWO)
        with pytest.raises(InvalidInsertion):
            geometry("f3").check_insertion((Small.ONE, 0))
        with pytest.raises(InvalidDegree):
            ordered_partitions(Small.TWO)
        with pytest.raises(InvalidDegree):
            ordered_bipartitions(Small.ONE, 1)
        with pytest.raises(InvalidComb):
            poly_d(Small.TWO)
        with pytest.raises(InvalidComb):
            decomposition_coefficient(3, [Small.ONE])

    def test_bool_degrees_rejected(self):
        g = geometry("cpn", N=5, k=5)
        for bad in (True, (True,), False):
            with pytest.raises(InvalidDegree, match="degree must be a positive integer"):
                g.check_degree(bad)
        for name in ("kf0", "f3", "wp1"):
            for bad in ((True, 0), (0, True), (True, True), (False, 1)):
                with pytest.raises(InvalidDegree, match="bi-degree required"):
                    geometry(name).check_degree(bad)

    # every refusal, by form count: bools, floats, strings, negatives, zeros
    # and wrong lengths
    REFUSED = {
        1: [0, -1, -3, True, False, 1.5, 1.0, "2", "a", None, (True,), (1.5,),
            ("1",), (0,), (-1,), (), (1, 1), (1, 0, 0)],
        2: [(True, 0), (0, False), (1.0, 1), (1, 1.5), ("1", 1), (1, "a"), (None, 1),
            (-1, 2), (0, -1), (0, 0), (), (1,), (1, 1, 0), 2, True, "1,1"],
        3: [(True, 0, 0), (1, 0, 1.0), (1, "a", 0), (-1, 1, 1), (0, 0, -2), (0, 0, 0),
            (1, 1), (1, 1, 1, 1), 3, (1.5,)],
    }

    @pytest.mark.parametrize("r", sorted(REFUSED))
    def test_one_refusal_per_degree_at_every_entry_point(self, r):
        # Geometry.check_degree, cached_two_point and the enumeration of
        # chains read one rule: the same class and the same message.  An
        # enumeration of several axes reads its form count off the degree,
        # so it joins for degrees of r entries
        g, a, b = {1: (geometry("cpn", N=5, k=5), "1", "z2"), 2: (F3, "z", "z"),
                   3: (p1_cubed(), "zw", "u")}[r]
        for bad in self.REFUSED[r]:
            calls = [lambda: g.check_degree(bad), lambda: cached_two_point(g, bad, a, b)]
            if r == 1:
                calls.append(lambda: ordered_partitions(bad))
            elif isinstance(bad, tuple) and len(bad) == r:
                calls.append(lambda: ordered_bipartitions(*bad))
            seen = set()
            for call in calls:
                with pytest.raises(ValueError) as info:
                    call()
                seen.add((type(info.value), str(info.value)))
            assert len(seen) == 1 and next(iter(seen))[0] is InvalidDegree, (bad, seen)

    @staticmethod
    def _split_grammar(n, label):
        """The exponents of label by the earlier parser, which read one-form
        labels by a grammar of their own; None for a refused label."""
        label = label.strip()
        if n == 1:
            if label == "1":
                return (0,)
            m = re.match(r"^(?:h|z)?(\d+)$", label) or re.match(r"^(h|z)$", label)
            return m and (1 if m.group(1) in ("h", "z") else int(m.group(1)),)
        if label == "1":
            return (0,) * n
        m = re.match("".join(r"(?:%s(\d*))?" % c for c in "zwu"[:n]) + "$", label)
        if not m or all(e is None for e in m.groups()):
            return None
        return tuple(0 if e is None else int(e or 1) for e in m.groups())

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from([1, 2, 3]), st.text(alphabet="hzwu0123 -,", max_size=7))
    @example(1, "h3")
    @example(1, "3")
    @example(1, "1")
    @example(1, "01")
    @example(1, "h")
    @example(1, "")
    @example(1, " z0 ")
    @example(2, "h")
    @example(3, "z2wu3")
    def test_one_grammar_reads_every_label_as_the_split_one_did(self, n, label):
        g = {1: geometry("cpn", N=5, k=5), 2: KF0, 3: p1_cubed()}[n]
        want = self._split_grammar(n, label)
        if want is None:
            with pytest.raises(InvalidInsertion, match="^bad label"):
                parse_insertion(g, label)
        else:
            assert parse_insertion(g, label).exps == want, label


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
        assert g.selection_degree(2) > 2 * (8 - 2)
        assert g.two_point(2, 6, 6) == 0

    def test_classical_triple(self):
        g = geometry("cpn", N=5, k=5)
        assert g.classical_triple(1, 1, 1) == 5
        assert g.classical_triple(0, 1, 1) == 0


class TestKf0:
    def test_degree_one_parts(self):
        assert cached_two_point(KF0, (1, 0), "1", "zw") == -1
        assert cached_two_point(KF0, (0, 1), "1", "zw") == -1
        assert cached_two_point(KF0, (1, 1), "1", "zw") == -6
        assert cached_two_point(KF0, (1, 0), "z", "z") == -2
        assert cached_two_point(KF0, (0, 1), "z", "z") == 0
        assert cached_two_point(KF0, (1, 1), "z", "w") == -10

    def test_higher_degree_parts(self):
        assert cached_two_point(KF0, (2, 0), "z", "z") == -5
        assert cached_two_point(KF0, (2, 1), "z", "z") == -76
        assert cached_two_point(KF0, (2, 1), "1", "zw") == -30
        assert cached_two_point(KF0, (3, 0), "z", "z") == F(-44, 3)
        assert cached_two_point(KF0, (2, 1), "z", "w") == -58

    def test_quantum_part_is_k_free(self):
        assert cached_two_point(geometry("kf0", k=7), (2, 1), "z", "w") == \
            cached_two_point(KF0, (2, 1), "z", "w")

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
        assert cached_two_point(F3, (1, 0), "1", "1") == 5
        assert cached_two_point(F3, (0, 1), "w", "w2") == 3
        assert cached_two_point(F3, (1, 1), "1", "w2") == -6
        assert cached_two_point(F3, (1, 1), "z", "z") == 1
        assert cached_two_point(F3, (1, 1), "z", "w") == -1

    def test_higher_degree_parts(self):
        assert cached_two_point(F3, (2, 1), "1", "z") == -16
        assert cached_two_point(F3, (2, 1), "1", "w") == F(39, 2)
        assert cached_two_point(F3, (2, 2), "z", "w2") == 15
        assert cached_two_point(F3, (2, 2), "w", "w2") == -18

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
        assert cached_two_point(WP1, (0, 1), "1", "zw") == 416
        assert cached_two_point(WP1, (0, 1), "1", "w2") == 1024
        assert cached_two_point(WP1, (1, 0), "z", "z") == 4
        assert cached_two_point(WP1, (1, 1), "z", "z") == 832
        assert cached_two_point(WP1, (1, 0), "1", "zw") == -4

    def test_second_degree(self):
        assert cached_two_point(WP1, (2, 0), "1", "zw") == -6
        assert cached_two_point(WP1, (0, 2), "1", "zw") == 39120
        assert cached_two_point(WP1, (0, 2), "1", "w2") == 103872

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
        assert cached_two_point(WP2, 1, "1", "z") == 1488
        assert cached_two_point(WP2, 2, "1", "z") == 947304

    def test_classical_triple(self):
        g = geometry("wp2")
        assert g.classical_triple("1", "z", "z") == 2
        assert g.classical_triple("1", "1", "z") == 0

    def test_off_rule_vanishing(self):
        assert cached_two_point(WP2, 1, "1", "1") == 0
        assert cached_two_point(WP2, 1, "z", "z") == 0


class TestWp3:
    def test_low_degree(self):
        assert cached_two_point(WP3, (0, 1), "1", "zw") == 1488
        assert cached_two_point(WP3, (1, 0), "1", "zw") == -2
        assert cached_two_point(WP3, (1, 0), "z", "z") == 2
        assert cached_two_point(WP3, (1, 1), "z", "z") == 2976
        assert cached_two_point(WP3, (0, 1), "1", "w2") == 3456

    def test_second_degree(self):
        assert cached_two_point(WP3, (0, 2), "1", "zw") == 947304

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

    @staticmethod
    def chain_sum(g, dd, a, b):
        # the sum over chains in the caller's insertion order; two_point
        # itself always starts from the higher-degree insertion
        return sum(g.amplitude(s, a, b) for s in g._chains(dd))

    @pytest.mark.parametrize("name,params,dd,pairs", PAIRS)
    def test_insertion_exchange_symmetry(self, name, params, dd, pairs):
        g = geometry(name, **params)
        for a, b in pairs:
            assert self.chain_sum(g, dd, a, b) == self.chain_sum(g, dd, b, a)

    @pytest.mark.parametrize("name,params,degrees", [
        ("cpn", dict(N=5, k=5), [1, 2, 3, 4]), ("wp2", dict(), [1, 2, 3, 4])]
        + [(name, dict(), [(da, t - da) for t in (1, 2, 3) for da in range(t + 1)])
           for name in ("kf0", "f3", "wp1", "wp3")])
    def test_insertion_exchange_symmetry_exhaustive(self, name, params, degrees):
        # every basis pair on the selection rule, so two_point's choice of
        # the higher-degree insertion first is exact wherever it is made
        g = geometry(name, **params)
        pairs = 0
        for dd in degrees:
            for a, b in combinations_with_replacement(g.basis(), 2):
                if a != b and a.degree() + b.degree() == g.selection_degree(dd):
                    pairs += 1
                    assert self.chain_sum(g, dd, a, b) == self.chain_sum(g, dd, b, a), \
                        (dd, a, b)
        assert pairs

    @pytest.mark.parametrize("name,params,dd,a,b,first", [
        ("cpn", dict(N=5, k=5), 3, "1", "z2", "z2"),
        ("kf0", dict(), (2, 1), "1", "zw", "zw"),
        ("wp1", dict(), (1, 1), "z", "w", "z")])
    def test_chain_sum_starts_from_higher_degree_insertion(self, monkeypatch, name,
                                                           params, dd, a, b, first):
        # a tie keeps the caller's order
        g = geometry(name, **params)
        orig, starts = type(g).amplitude, []

        def recording(self, sigma, a, b):
            starts.append(a.label())
            return orig(self, sigma, a, b)

        monkeypatch.setattr(type(g), "amplitude", recording)
        g.two_point(dd, a, b)
        assert starts and set(starts) == {first}

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
        monkeypatch.setattr(Geometry, "amplitude", counting(Geometry.amplitude))
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

    ROW_RECORD = '{"degree": %s, "geometry": "%s", "insertions": %s, "kind": "two-point", ' \
                 '"params": %s, "provenance": "residue-chain", "schema": 1, "value": "%s"}\n'

    def test_each_row_keeps_its_repr_params_basis_and_cache_record(self, tmp_path, monkeypatch):
        # what a shipped row shows and files: cache keys are built from the
        # name and parameters, so a record written by one version of a row
        # must be read back by the next
        monkeypatch.setattr(cache, "_MEMO", {})
        fibration = ("1", "z", "w", "zw", "w2", "zw2", "w3", "zw3")
        rows = [
            ("cpn", dict(N=5, k=5), "cpn(N=5, k=5)", (("N", 5), ("k", 5)),
             ("1", "z", "z2", "z3"), 1, "z", "z",
             ("[1]", "cpn", "[[1], [1]]", '{"N": 5, "k": 5}', "6725")),
            ("kf0", dict(), "kf0(k=1)", (("k", 1),), ("1", "z", "w", "zw"), (1, 0), "z", "w",
             ("[1, 0]", "kf0", "[[0, 1], [1, 0]]", '{"k": 1}', "-1")),
            ("kf0", dict(k=2), "kf0(k=2)", (("k", 2),), ("1", "z", "w", "zw"), (1, 0), "z", "w",
             ("[1, 0]", "kf0", "[[0, 1], [1, 0]]", '{"k": 2}', "-1")),
            ("f3", dict(), "f3()", (), ("1", "z", "w", "w2"), (1, 1), "z", "w",
             ("[1, 1]", "f3", "[[0, 1], [1, 0]]", "{}", "-1")),
            ("wp1", dict(), "wp1()", (), fibration, (0, 1), "z", "w",
             ("[0, 1]", "wp1", "[[0, 1], [1, 0]]", "{}", "416")),
            ("wp2", dict(), "wp2()", (), ("1", "z", "z2", "z3"), 1, "1", "z",
             ("[1]", "wp2", "[[0], [1]]", "{}", "1488")),
            ("wp3", dict(), "wp3()", (), fibration, (0, 1), "z", "w",
             ("[0, 1]", "wp3", "[[0, 1], [1, 0]]", "{}", "1488")),
        ]
        for i, (name, params, rep, pairs, labels, dd, a, b, record) in enumerate(rows):
            g = geometry(name, **params)
            assert (repr(g), g.params()) == (rep, pairs)
            assert tuple(x.label() for x in g.basis()) == labels
            path = tmp_path / ("%d.jsonl" % i)
            cache.activate(str(path))
            try:
                cached_two_point(g, dd, a, b)
            finally:
                cache.activate(None)
            assert path.read_text(encoding="utf-8") == self.ROW_RECORD % record, rep

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
    ("cpn", dict(N=5, k=5), 1, "z2", "1", {(1,): 3850}),
    ("cpn", dict(N=5, k=5), 2, "z2", "1", {(1, 1): -462000, (2,): 4051125}),
    ("cpn", dict(N=5, k=5), 3, "z2", "1",
     {(1, 1, 1): 55440000, (1, 2): -436590000, (2, 1): -486135000,
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
# the first residue, from blocks built out of hand-set constants.  The
# engine now brings in each factor at the first vertex it touches, read off
# the toric table; these copies of the old construction, on the old blocks
# of literal_engine, check that every chain's value stays the same rational.


def one_form_oracle(g, sigma, a, b):
    a, b = g.check_insertion(a), g.check_insertion(b)
    sigma = tuple(sigma)
    l = len(sigma)
    weights = [cw for cw, in g._DIVISORS]
    k, = g._HYPERSURFACE
    n = len(weights)
    coords = [(m, 0, weights.count(m)) for m in sorted(set(weights))]
    vs = VarSet(["z%d" % j for j in range(l + 1)])
    z = [vs.poly("z%d" % j) for j in range(l + 1)]
    num = z[0] ** a.exps[0] * z[l] ** b.exps[0]
    orbifold = math.prod(weights)
    if orbifold != 1:
        num = num * F(1, orbifold) ** (l + 1)
    den = [(zz, n) for zz in z]
    for i, d in enumerate(sigma):
        num = _hypersurface_roots(num, k, d, z[i], z[i + 1])
        den += _part_poles(coords, d, z[i], z[i + 1])
    for j in range(1, l):
        form = (z[j] - z[j - 1]) * F(1, sigma[j - 1]) \
             + (z[j] - z[j + 1]) * F(1, sigma[j])
        den += [(form, 1), (z[j], 1)]
        num = num * F(1, k)
    f = RatFunc(num, den)
    for j in range(l + 1):
        f = residue_at(f, "z%d" % j)
    val = f.as_rational()
    for d in sigma:
        val /= d
    return val


def two_form_oracle(g, sigma, a, b):
    g = literal_geometry(g)
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
        block = (literal_engine._section_block if axis in g._SECTION_AXES
                 else literal_engine._fiber_block)
        f = f * block(g, d, p, q, other)
    for j in range(1, l):
        prv, nxt = sigma[j - 1], sigma[j]
        A = (z[j] - z[j - 1]) if _axis(prv) == "a" else (w[j] - w[j - 1])
        B = (z[j] - z[j + 1]) if _axis(nxt) == "a" else (w[j] - w[j + 1])
        form = A * F(1, _part_deg(prv)) + B * F(1, _part_deg(nxt))
        f = f * literal_engine._node(g, (_axis(prv), _axis(nxt)), z[j], w[j], form)

    for j in range(l):
        if _axis(sigma[j]) == "a":
            f = _subs(f, "w%d" % j, w[j + 1])
            f = f * RatFunc(vs.const(1), [(z[j], 2)])
            f = residue_at(f, "z%d" % j)
        else:
            prof = g._RES[_axis(sigma[j - 1]) if j else "b"]
            f = literal_engine._w_residue(g, f, "w%d" % j, z[j], prof)
            f = _subs(f, "z%d" % j, z[j + 1])
    f = literal_engine._w_residue(g, f, "w%d" % l, z[l], g._RES[_axis(sigma[-1])])
    f = f * RatFunc(vs.const(1), [(z[l], 2)])
    f = residue_at(f, "z%d" % l)

    val = f.as_rational()
    for part in sigma:
        val /= _part_deg(part)
    return val


def _subs(f, n, v):
    # f with the polynomial v put in for the variable n, denominator included
    return RatFunc(f.num.subs(n, v), [(h.subs(n, v), m) for h, m in f.den])


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


def _chain_cases(name, dd, a, b, **params):
    """Every chain of one request, with the whole-integrand oracle for
    the geometry's number of forms."""
    g = geometry(name, **params)
    oracle = one_form_oracle if g.n_forms == 1 else two_form_oracle
    return [pytest.param(g, sigma, a, b, oracle, id="%s-%s" % (name, sigma))
            for sigma in g._chains(dd)]


@pytest.mark.parametrize("g,sigma,a,b,oracle", _chain_cases("f3", (3, 2), "z", "z")
                         + _chain_cases("wp1", (2, 2), "z", "w"))
def test_identified_vertices_match_substitution(g, sigma, a, b, oracle):
    # chains of up to six vertices, so one variable class spans several parts
    assert g.amplitude(sigma, a, b) == oracle(g, sigma, a, b)


@pytest.mark.parametrize("g,sigma,a,b,oracle",
                         _chain_cases("cpn", 5, "z2", "1", N=5, k=5)
                         + _chain_cases("wp2", 5, "1", "z"))
def test_long_one_form_chains_match_whole_integrand(g, sigma, a, b, oracle):
    # chains of up to six vertices, each integrated in ascending vertex
    # order; cpn's request is the order two_point hands the chains
    assert g.amplitude(sigma, a, b) == oracle(g, sigma, a, b)


def test_zero_chain_stops_building_blocks(monkeypatch):
    # on f3 (3, 2) z.z about half the chains vanish before their last vertex
    g = geometry("f3")
    built = []

    def counted(block):
        def wrapper(*args):
            built.append(block)
            return block(*args)
        return wrapper

    monkeypatch.setattr(chains, "_part", counted(chains._part))
    early = []
    for sigma in g._chains((3, 2)):
        built.clear()
        value = g.amplitude(sigma, "z", "z")
        if len(built) < len(sigma):
            early.append(sigma)
            assert value == 0 == two_form_oracle(g, sigma, "z", "z")
    assert early


# -- the block numerators against a product of MultiPoly linear forms --------


def section_numerator_oracle(g, d, p, q, other):
    num = g._FIBER_DEGREE * other if g._FIBER_DEGREE else p.vars.const(1)
    for i in range(1, g._SPAN * d):
        num = num * ((-i * p - (g._SPAN * d - i) * q) * F(1, d) + g._SHIFT * other)
    return num


def hypersurface_roots_oracle(num, k, d, p, q):
    for j in range(k * d + 1):
        num = num * ((j * p + (k * d - j) * q) * F(1, d))
    return num


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("g", [geometry("cpn", N=5, k=5), geometry("cpn", N=3, k=2),
                               geometry("kf0"), geometry("f3"), geometry("wp1"),
                               geometry("wp2"), geometry("wp3")], ids=repr)
def test_block_numerators_match_linear_form_products(g, d):
    # each part the table gives, against the section or fiber block of the
    # hand-set constants with its numerator a product of MultiPoly forms;
    # the hand-set constants put a one-form part on axis b, which the table
    # reads as its one axis
    old = literal_geometry(g)
    vs = VarSet(["z0", "w0", "z1", "w1"])
    z0, w0, z1, w1 = (vs.poly(n) for n in vs.names)
    skip = 2 - g.n_forms
    for i in range(skip, 2):
        p, q, o = (z0, z1, w0) if i == 0 else (w0, w1, z0)
        here, there = [z0, w0], ([z1, w0] if i == 0 else [z0, w1])
        if "ab"[i] in old._SECTION_AXES:
            want = RatFunc(section_numerator_oracle(old, d, p, q, o),
                           _part_poles(old._SECTION_BASE, d, p, q))
        else:
            num = vs.const(1)
            if old._FIBER_DEGREE:
                num = hypersurface_roots_oracle(num, old._FIBER_DEGREE, d, p, q)
            want = RatFunc(num, _part_poles(old._FIBER, d, p, q, o))
        block = chains._part(g, i - skip, d, here[skip:], there[skip:])
        assert (block.num, dict(block.den)) == (want.num, dict(want.den)), i


def classical_triple_oracle(g, a, b, c):
    """The two-form classical triple as the residue sum over w at 0 and at
    the branch point c z, then the residue at z = 0, from the hand-set
    constants."""
    g = literal_geometry(g)
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


def test_one_form_degree_is_a_one_tuple():
    # the shape the cache key and the CLI's JSON "degree" list already had
    g = geometry("cpn", N=5, k=5)
    assert g.check_degree(2) == g.check_degree((2,)) == (2,)
    assert g.selection_degree(2) == g.selection_degree((2,)) == g.dim - 1
    with pytest.raises(InvalidDegree, match=r"^degree must be a positive integer, got 0$"):
        g.selection_degree(0)
