"""End-to-end reproduction of the published two-point tables.

One test per numbered criterion.  Every comparison is exact rational
equality; each criterion prints a single PASS/FAIL line and enforces its
wall-clock budget.  Run with -s to see the lines as they appear.
"""

import random
import time
from fractions import Fraction

from resmirror.cache import cached_two_point
from resmirror.geoms import geometry, two_point_cpn
from resmirror.parts import ordered_bipartitions, ordered_partitions
from resmirror.refdata import check_conjecture2
from resmirror.series import (
    build_generating_function,
    invert_mirror_map,
    j_coefficients,
    mirror_map,
    reversion_weights,
    transform,
)
from resmirror.vsc import check_theorem1, gmt_upto3, vsc_merged_contour, vsc_recursive

F = Fraction


def _criterion(n, body, budget=None):
    t0 = time.monotonic()
    try:
        body()
        dt = time.monotonic() - t0
        if budget is not None and dt > budget:
            raise AssertionError("criterion %d took %.1fs, budget %ds"
                                 % (n, dt, budget))
    except BaseException:
        print("ACCEPTANCE %d: FAIL" % n)
        raise
    print("ACCEPTANCE %d: PASS (%.1fs)" % (n, dt))


# 1. Fano hypersurface in CP^6: six published values, each within 10 s.

FANO_RAW = [
    (1, 1, 5, 600),
    (1, 2, 4, 3850),
    (1, 3, 3, 6725),
    (2, 3, 5, 528000),
    (2, 4, 4, 1731250),
    (3, 5, 5, 52200000),
]


def test_criterion_1_fano_sextuple():
    def body():
        for d, a, b, want in FANO_RAW:
            t0 = time.monotonic()
            assert two_point_cpn(7, 5, d, a, b) == want
            assert time.monotonic() - t0 <= 10
    _criterion(1, body)


# 2. Quintic pipeline: raw numbers, mirror map, transformed invariants.


def test_criterion_2_quintic_pipeline():
    def body():
        g = geometry("cpn", N=5, k=5)
        s02 = build_generating_function(g, 0, 2, 3)
        assert s02.terms == {(1, 0): F(3850), (2, 0): F(3589125),
                             (3, 0): F(16126540000, 3)}
        s11 = build_generating_function(g, 1, 1, 3)
        assert s11.terms == {(1, 0): F(6725), (2, 0): F(16482625, 2),
                             (3, 0): F(44704818125, 3)}
        m = mirror_map(g, 3)
        assert m.forward[0].terms == {(1, 0): F(770), (2, 0): F(717825),
                                      (3, 0): F(3225308000, 3)}
        out = transform(s11, m)
        assert out.affine == (F(5), F(0))
        assert out.terms == {(1, 0): F(2875), (2, 0): F(4876875, 2),
                             (3, 0): F(8564575000, 3)}
    _criterion(2, body, budget=120)


# 3. Non-nef degree-9 hypersurface in CP^7: raw values and the closed-form
#    transform with its puncture zeros.

NON_NEF_RAW = [
    (1, 0, 4, 307250172),
    (1, 1, 3, 817713468),
    (1, 2, 2, 1122806529),
    (2, 0, 3, 75644409992388462),
    (2, 1, 2, F(733562379269675757, 4)),
    (3, 0, 2, 34343397483304162555939158),
    (3, 1, 1, 56677396498174471672277559),
]

NON_NEF_GW = {
    (1, (1, 3)): F(510463296),
    (1, (2, 2)): F(815556357),
    (2, (1, 2)): F(319615925538369285, 4),
    (3, (1, 1)): F(12112667926597160835676659),
}


def test_criterion_3_non_nef_transform():
    def body():
        for d, a, b, want in NON_NEF_RAW:
            assert two_point_cpn(8, 9, d, a, b) == want
        table = gmt_upto3(8, 9)
        for (d, (a, b)), want in NON_NEF_GW.items():
            assert table[(d, (a, b))] == want
            assert table[(d, (b, a))] == want
        for (d, pair), val in table.items():
            if 0 in pair:
                assert val == 0
    _criterion(3, body, budget=300)


# 4. Local surface over P^1 x P^1: complete tables through total degree 4,
#    the mirror map, and both transformed series.

LOCAL_RAW = {
    ("1", "zw"): ((F(-1), F(1, 2)), {
        (1, 0): F(-1), (0, 1): F(-1),
        (2, 0): F(-3, 2), (1, 1): F(-6), (0, 2): F(-3, 2),
        (3, 0): F(-10, 3), (2, 1): F(-30), (1, 2): F(-30), (0, 3): F(-10, 3),
        (4, 0): F(-35, 4), (3, 1): F(-140), (2, 2): F(-315),
        (1, 3): F(-140), (0, 4): F(-35, 4)}),
    ("z", "z"): ((F(1), F(-1)), {
        (1, 0): F(-2),
        (2, 0): F(-5), (1, 1): F(-8),
        (3, 0): F(-44, 3), (2, 1): F(-76), (1, 2): F(-32),
        (4, 0): F(-93, 2), (3, 1): F(-504), (2, 2): F(-672), (1, 3): F(-128)}),
    ("z", "w"): ((F(-1), F(1, 2)), {
        (1, 0): F(-1), (0, 1): F(-1),
        (2, 0): F(-3, 2), (1, 1): F(-10), (0, 2): F(-3, 2),
        (3, 0): F(-10, 3), (2, 1): F(-58), (1, 2): F(-58), (0, 3): F(-10, 3),
        (4, 0): F(-35, 4), (3, 1): F(-292), (2, 2): F(-749),
        (1, 3): F(-292), (0, 4): F(-35, 4)}),
}

LOCAL_MAP = {
    (1, 0): F(2), (0, 1): F(2),
    (2, 0): F(3), (1, 1): F(12), (0, 2): F(3),
    (3, 0): F(20, 3), (2, 1): F(60), (1, 2): F(60), (0, 3): F(20, 3),
    (4, 0): F(35, 2), (3, 1): F(280), (2, 2): F(630),
    (1, 3): F(280), (0, 4): F(35, 2),
}

LOCAL_GW = {
    ("z", "z"): ((F(1), F(-1)), {
        (1, 0): F(-2), (2, 0): F(-1), (1, 1): F(-4),
        (3, 0): F(-2, 3), (2, 1): F(-24), (1, 2): F(-6),
        (4, 0): F(-1, 2), (1, 3): F(-8), (3, 1): F(-72), (2, 2): F(-130)}),
    ("z", "w"): ((F(-1), F(1, 2)), {
        (1, 1): F(-4), (2, 1): F(-12), (1, 2): F(-12),
        (1, 3): F(-24), (2, 2): F(-130), (3, 1): F(-24)}),
}


def test_criterion_4_local_surface_tables():
    def body():
        g = geometry("kf0", k=1)
        for (a, b), (affine, terms) in LOCAL_RAW.items():
            s = build_generating_function(g, a, b, 4)
            assert s.affine == affine and s.terms == terms
        # the free classical parameter only moves the affine part
        g5 = geometry("kf0", k=5)
        assert build_generating_function(g5, "1", "zw", 1).affine == (F(-5), F(9, 2))
        assert build_generating_function(g5, "z", "z", 1).affine == (F(5), F(-5))
        m = mirror_map(g, 4)
        assert m.forward[0].affine == (F(1), F(0))
        assert m.forward[1].affine == (F(0), F(1))
        assert m.forward[0].terms == LOCAL_MAP
        assert m.forward[1].terms == LOCAL_MAP
        for (a, b), (affine, terms) in LOCAL_GW.items():
            out = transform(build_generating_function(g, a, b, 4), m)
            assert out.affine == affine and out.terms == terms
    _criterion(4, body, budget=600)


# 5. Twisted surface: every published two-point value and the degree-scaled
#    connection identity for every tabulated matrix entry.

TWIST_RAW = [
    ((1, 0), "1", "1", F(5)),
    ((0, 1), "w", "w2", F(3)),
    ((1, 1), "1", "w2", F(-6)),
    ((1, 1), "z", "z", F(1)),
    ((1, 1), "z", "w", F(-1)),
    ((2, 1), "1", "z", F(-16)),
    ((2, 1), "1", "w", F(39, 2)),
    ((3, 1), "1", "1", F(1901, 3)),
    ((2, 2), "z", "w2", F(15)),
    ((2, 2), "w", "w2", F(-18)),
    ((3, 2), "1", "w2", F(-1035, 2)),
    ((3, 2), "z", "z", F(64)),
    ((3, 2), "z", "w", F(-96)),
    ((3, 2), "w", "w", F(413, 3)),
    ((3, 3), "w2", "w2", F(432)),
]


def test_criterion_5_twisted_surface():
    def body():
        f3 = geometry("f3")
        for dd, a, b, want in TWIST_RAW:
            assert cached_two_point(f3, dd, a, b) == want
        report = check_conjecture2()
        assert report.ok
        assert len(report.rows) == 33
    _criterion(5, body, budget=600)


# 6. Degree-8 hypersurface in P(1,1,2,2,2): raw tables, mirror maps, and
#    the three transformed series.

FIBERED_RAW = {
    ("1", "w2"): ((F(4), F(8)), {
        (0, 1): F(1024), (0, 2): F(103872), (0, 3): F(46099456, 3),
        (1, 2): F(216576)}),
    ("1", "zw"): ((F(0), F(4)), {
        (0, 1): F(416), (1, 0): F(-4), (0, 2): F(39120), (2, 0): F(-6),
        (1, 1): F(192), (0, 3): F(16567040, 3), (3, 0): F(-40, 3),
        (1, 2): F(133920), (2, 1): F(192)}),
    ("z", "z"): ((F(0), F(0)), {
        (1, 0): F(4), (2, 0): F(10), (1, 1): F(832), (3, 0): F(88, 3),
        (1, 2): F(199744), (2, 1): F(832)}),
    ("w", "w"): ((F(4), F(8)), {
        (0, 1): F(1664), (0, 2): F(210880), (0, 3): F(108286976, 3),
        (1, 2): F(486016)}),
    ("z", "w"): ((F(0), F(4)), {
        (0, 1): F(416), (1, 0): F(-4), (0, 2): F(39120), (2, 0): F(-6),
        (1, 1): F(832), (0, 3): F(16567040, 3), (3, 0): F(-40, 3),
        (1, 2): F(375648), (2, 1): F(832)}),
}

FIBERED_MAP = (
    {(0, 1): F(48), (0, 2): F(6408), (0, 3): F(1080448), (1, 2): F(-12816),
     (1, 0): F(2), (2, 0): F(3), (1, 1): F(-96), (3, 0): F(20, 3),
     (2, 1): F(-96)},
    {(0, 1): F(104), (1, 0): F(-1), (0, 2): F(9780), (2, 0): F(-3, 2),
     (1, 1): F(48), (0, 3): F(4141760, 3), (3, 0): F(-10, 3),
     (1, 2): F(33480), (2, 1): F(48)},
)

FIBERED_GW = {
    ("w", "w"): ((F(4), F(8)), {
        (0, 1): F(640), (0, 2): F(40448), (1, 1): F(640),
        (0, 3): F(7787008, 3), (1, 2): F(288896)}),
    ("z", "z"): ((F(0), F(0)), {
        (1, 0): F(4), (1, 1): F(640), (2, 0): F(2), (1, 2): F(72224),
        (3, 0): F(4, 3)}),
    ("z", "w"): ((F(0), F(4)), {
        (1, 1): F(640), (1, 2): F(144448)}),
}


def test_criterion_6_fibered_threefold():
    def body():
        g = geometry("wp1")
        for (a, b), (affine, terms) in FIBERED_RAW.items():
            s = build_generating_function(g, a, b, 3)
            assert s.affine == affine and s.terms == terms
        m = mirror_map(g, 3)
        assert m.forward[0].affine == (F(1), F(0))
        assert m.forward[1].affine == (F(0), F(1))
        assert m.forward[0].terms == FIBERED_MAP[0]
        assert m.forward[1].terms == FIBERED_MAP[1]
        for (a, b), (affine, terms) in FIBERED_GW.items():
            out = transform(build_generating_function(g, a, b, 3), m)
            assert out.affine == affine and out.terms == terms
    _criterion(6, body, budget=900)


# 7. K3 in P(1,1,1,3): two-point numbers are twice the inverted modular
#    expansion weights; ordered partitions assemble the expansion itself.

K3_WEIGHTS = [F(744), F(473652), F(451734080), F(510531007770),
        F(3169342733223744, 5)]
J_SERIES = [F(744), F(196884), F(21493760), F(864299970),
            F(20245856256), F(333202640600)]


def test_criterion_7_modular_expansion():
    def body():
        wp2 = geometry("wp2")
        for d, w in enumerate(K3_WEIGHTS, 1):
            assert cached_two_point(wp2, d, 0, 1) == 2 * w
        je = j_coefficients(6)
        assert list(je.j) == J_SERIES
        assert list(je.w[:5]) == K3_WEIGHTS
    _criterion(7, body, budget=900)


# 8. Degree-12 hypersurface in the resolved P(1,1,2,2,6): complete tables
#    through total degree 3.

ORBIFOLD_RAW = {
    ("1", "w2"): ((F(2), F(4)), {
        (0, 1): F(3456), (0, 2): F(2335968), (0, 3): F(2313054720),
        (1, 2): F(4836096)}),
    ("1", "zw"): ((F(0), F(2)), {
        (0, 1): F(1488), (1, 0): F(-2), (0, 2): F(947304), (2, 0): F(-3),
        (1, 1): F(480), (0, 3): F(903468160), (3, 0): F(-20, 3),
        (1, 2): F(2859408), (2, 1): F(480)}),
    ("z", "z"): ((F(0), F(0)), {
        (1, 0): F(2), (2, 0): F(5), (1, 1): F(2976), (3, 0): F(44, 3),
        (1, 2): F(4896288), (2, 1): F(2976)}),
    ("w", "w"): ((F(2), F(4)), {
        (0, 1): F(5952), (0, 2): F(5089248), (0, 3): F(5867470336),
        (1, 2): F(12006720)}),
    ("z", "w"): ((F(0), F(2)), {
        (0, 1): F(1488), (1, 0): F(-2), (0, 2): F(947304), (2, 0): F(-3),
        (1, 1): F(2976), (0, 3): F(903468160), (3, 0): F(-20, 3),
        (1, 2): F(9198000), (2, 1): F(2976)}),
}


def test_criterion_8_orbifold_fibration():
    def body():
        g = geometry("wp3")
        for (a, b), (affine, terms) in ORBIFOLD_RAW.items():
            s = build_generating_function(g, a, b, 3)
            assert s.affine == affine and s.terms == terms
    _criterion(8, body, budget=900)


# 9. Structural properties that must hold for every release.

THEOREM1_GRID = [(5, 5, 2), (6, 6, 2), (7, 5, 2), (8, 9, 2), (6, 4, 2)]

SYMMETRY_CASES = [
    ("cpn", {"N": 7, "k": 5}, 1, 2, 4),
    ("cpn", {"N": 5, "k": 5}, 1, 0, 2),
    ("kf0", {}, (1, 1), "z", "w"),
    ("kf0", {}, (2, 1), "1", "zw"),
    ("f3", {}, (1, 1), "z", "w"),
    ("f3", {}, (0, 1), "w", "w2"),
    ("wp1", {}, (1, 1), "z", "w"),
    ("wp2", {}, 1, 0, 1),
    ("wp3", {}, (1, 1), "z", "w"),
]

OFF_RULE_DEGREES = {1: [1, 2], 2: [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]}


def _off_rule_vanishing(g, rng, count=20):
    basis = g.basis()
    degrees = OFF_RULE_DEGREES[g.n_forms]
    found = 0
    for _ in range(10000):
        if found == count:
            return
        dd = rng.choice(degrees)
        a, b = rng.choice(basis), rng.choice(basis)
        if a.degree() + b.degree() == g.selection_degree(dd):
            continue
        assert g.two_point(dd, a, b) == 0, (g.name, dd, a, b)
        found += 1
    raise AssertionError("no off-rule pairs found for %s" % g.name)


def test_criterion_9_property_suites():
    def body():
        for N, k, d in THEOREM1_GRID:
            assert check_theorem1(N, k, d).ok, (N, k, d)

        for d in range(1, 9):
            assert len(ordered_partitions(d)) == 2 ** (d - 1)
        for dd, count in [((1, 1), 2), ((2, 1), 5), ((2, 2), 14), ((3, 3), 106)]:
            assert len(ordered_bipartitions(*dd)) == count

        for name, params, dd, a, b in SYMMETRY_CASES:
            # the chain sums of both orders: two_point computes only one
            g = geometry(name, **params)
            ab, ba = (sum(g.amplitude(s, x, y) for s in g._chains(dd))
                      for x, y in ((a, b), (b, a)))
            assert ab == ba, (name, dd)

        rng = random.Random(20260823)
        for name in ("cpn", "kf0", "f3", "wp1", "wp2", "wp3"):
            params = {"N": 7, "k": 5} if name == "cpn" else {}
            _off_rule_vanishing(geometry(name, **params), rng)

        # far enough below the anticanonical degree, everything past degree
        # one dies: the insertion window is empty
        assert all(vsc_recursive(8, 4, 2, n) == 0 for n in range(8))
        g84 = geometry("cpn", N=8, k=4)
        assert g84.selection_degree(2) > 2 * (8 - 2)
        assert g84.two_point(2, 6, 6) == 0

        cases = [("cpn", {"N": 5, "k": 5}, 3), ("kf0", {}, 3), ("f3", {}, 3),
                 ("wp1", {}, 2), ("wp2", {}, 3), ("wp3", {}, 2)]
        for name, params, D in cases:
            g = geometry(name, **params)
            m = invert_mirror_map(mirror_map(g, D))
            for i in range(2):
                out = transform(m.forward[i], m)
                assert out.terms == {} and out.const == 0
                assert out.affine == m.forward[i].affine
            back = invert_mirror_map(
                type(m)(m.geom, m.trunc, m.inverse))
            assert back.inverse == m.forward

        assert mirror_map(geometry("kf0", k=1), 3).forward == \
            mirror_map(geometry("kf0", k=7), 3).forward

        je = j_coefficients(4)
        assert reversion_weights(list(je.j)) == list(je.w)

        for N, k in ((5, 5), (6, 6), (8, 9)):
            e = N - k
            lo, hi = max(0, 1 - 2 * e), min(N - 2, N - 1 - 2 * e)
            for n in range(lo, hi + 1):
                assert vsc_merged_contour(N, k, 2, n) == vsc_recursive(N, k, 2, n)
    _criterion(9, body)
