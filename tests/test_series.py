import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmirror.cache import activate
from resmirror.geoms import Geometry, InvalidInsertion, geometry
from resmirror.parts import ordered_partitions
from resmirror.refdata import check_conjecture2
from resmirror.series import (
    GradedSeries,
    InvalidExp,
    MirrorMap,
    SingularMetric,
    _compose_q,
    _j_from_weights,
    build_generating_function,
    invert_mirror_map,
    j_coefficients,
    mirror_map,
    picard_fuchs_basis,
    reversion_weights,
    series_from_json,
    series_to_json,
    transform,
)
from resmirror.vsc import gmt_upto3

F = Fraction


def q_series(terms, trunc):
    return GradedSeries((0, 0), 0, terms, trunc)


# -- ring arithmetic -------------------------------------------------------


def test_truncation_drops_high_terms():
    s = q_series({(1, 0): 3, (2, 1): 7}, 2)
    assert s.terms == {(1, 0): F(3)}


def test_add_requires_matching_truncation():
    with pytest.raises(ValueError):
        q_series({}, 2) + q_series({}, 3)


def test_mul_rejects_affine_factors():
    s = GradedSeries((1, 0), 0, {}, 2)
    with pytest.raises(ValueError):
        s * q_series({(1, 0): 1}, 2)


def test_mul_truncates():
    s = q_series({(1, 0): 1, (3, 0): 1}, 3)
    p = s * s
    assert p.terms == {(2, 0): F(1)}


def test_exp_of_zero_is_one():
    e = q_series({}, 3).exp_of_pure_q()
    assert e.const == 1 and not e.terms and e.affine == (0, 0)


def test_exp_of_single_term():
    c = F(5, 3)
    e = q_series({(1, 0): c}, 2).exp_of_pure_q()
    assert e.const == 1
    assert e.terms == {(1, 0): c, (2, 0): c * c / 2}


def test_exp_rejects_affine_part():
    with pytest.raises(InvalidExp):
        GradedSeries((1, 0), 0, {}, 2).exp_of_pure_q()
    with pytest.raises(InvalidExp):
        GradedSeries((0, 0), 1, {}, 2).exp_of_pure_q()


def test_series_operators():
    a = q_series({(1, 0): 1}, 2)
    assert (a + a).terms == {(1, 0): F(2)}
    assert (a * a).terms == {(2, 0): F(1)}
    assert a.scale(F(1, 2)).terms == {(1, 0): F(1, 2)}
    assert a.exp_of_pure_q().const == 1


def test_div_unit_inverts_multiplication():
    a = q_series({(1, 0): 2, (0, 1): -3, (1, 1): F(1, 4)}, 3)
    u = GradedSeries((0, 0), F(3, 2), {(1, 0): 1, (0, 2): 5}, 3)
    assert (a * u).div_unit(u) == a


pure_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda t: sum(t) > 0),
    st.fractions(min_value=-40, max_value=40, max_denominator=8),
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(pure_terms, pure_terms)
def test_exp_is_a_homomorphism(t1, t2):
    a, b = q_series(t1, 3), q_series(t2, 3)
    assert (a + b).exp_of_pure_q() == a.exp_of_pure_q() * b.exp_of_pure_q()


@settings(max_examples=40, deadline=None)
@given(pure_terms, pure_terms, pure_terms)
def test_mul_distributes(t1, t2, t3):
    a, b, c = (q_series(t, 4) for t in (t1, t2, t3))
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(pure_terms)
def test_json_round_trip(t1):
    s = GradedSeries((F(2, 3), -1), F(7, 2), t1, 3)
    assert series_from_json(series_to_json(s)) == s


def _json_with(trunc=3, d=(1, 0)):
    return {"affine": {}, "terms": [{"d": list(d), "coef": "5"}], "trunc": trunc}


@pytest.mark.parametrize("obj", [
    _json_with(trunc=2.5),
    _json_with(trunc="2"),
    _json_with(trunc=True),
    _json_with(d=(1.7, 0)),
    _json_with(d=(True, 0)),
    _json_with(d=(1, 0, 0)),
], ids=["float-trunc", "text-trunc", "bool-trunc", "float-degree", "bool-degree",
        "three-degree"])
def test_json_refuses_non_integer_degrees_and_bounds(obj):
    # nothing is truncated to the nearest integer on the way in
    assert series_from_json(_json_with()) == GradedSeries((0, 0), 0, {(1, 0): 5}, 3)
    with pytest.raises(ValueError):
        series_from_json(obj)


def test_floats_are_refused():
    with pytest.raises(TypeError):
        GradedSeries((0.5, 0), 0, {}, 3)
    with pytest.raises(TypeError):
        GradedSeries((0, 0), 0.1, {}, 3)
    with pytest.raises(TypeError):
        GradedSeries((0, 0), 0, {(1, 0): 0.1}, 3)
    with pytest.raises(TypeError):
        q_series({(1, 0): 1}, 3).scale(0.5)
    with pytest.raises(TypeError):
        reversion_weights([744.0, 196884])
    s = GradedSeries((True, F(1, 2)), 2, {(1, 0): F(3)}, 3)
    assert s.affine == (F(1), F(1, 2)) and s.const == 2


@pytest.mark.parametrize("make", [
    lambda: GradedSeries((0, 0), 0, {(1.5, 0): 3}, 2.7),
    lambda: GradedSeries((0, 0), 0, {(1.5, 0): 3}, 2),
    lambda: GradedSeries((0, 0), 0, {(1, True): 3}, 2),
    lambda: GradedSeries((0, 0), 0, {(1, 0): 3}, 2.0),
    lambda: GradedSeries((0, 0), 0, None, True),
    lambda: q_series({(1, 0): 3}, 2).coefficient((1.0, 0)),
    lambda: MirrorMap(geometry("kf0"), 2.0, ()),
    lambda: j_coefficients(True),
    lambda: j_coefficients(2.0),
    lambda: picard_fuchs_basis(5, True, 3),
    lambda: picard_fuchs_basis(True, 0, 3),
    lambda: picard_fuchs_basis(5, 0, 3.0),
    lambda: build_generating_function(geometry("cpn", N=5, k=5), 1, 1, 2.0),
    lambda: mirror_map(geometry("cpn", N=5, k=5), True),
], ids=["float-degree-and-trunc", "float-degree", "bool-degree", "float-trunc",
        "bool-trunc", "float-lookup", "float-map-trunc", "bool-dmax", "float-dmax",
        "bool-j", "bool-k", "float-D", "float-gf-D", "bool-map-D"])
def test_non_integer_degrees_and_bounds_are_refused(make):
    with pytest.raises(ValueError, match="integer|degree"):
        make()


# -- the power-sum loops the recurrences replace, kept as oracles ----------


def exp_oracle(s):
    """exp(s) as the sum of s^m / m! over truncated powers."""
    out = GradedSeries((0, 0), 1, None, s.trunc)
    power = out
    for m in range(1, s.trunc + 1):
        power = power * s
        if power.is_zero():
            break
        out = out + power.scale(F(1, math.factorial(m)))
    return out


def div_unit_oracle(num, den):
    """num / den with 1/den summed as the geometric series of its tail."""
    tail = den.quantum_part().scale(F(1) / den.const)
    inv = GradedSeries((0, 0), 1, None, num.trunc)
    power = inv
    for m in range(1, num.trunc + 1):
        power = power * tail
        if power.is_zero():
            break
        inv = inv + power.scale((-1) ** m)
    return (num * inv).scale(F(1) / den.const)


def log_unit_oracle(a, D):
    """log(a) for a[0] == 1 as the sum of (-1)^(m+1) s^m / m, s = a - 1."""
    s = [F(0)] + list(a[1:D + 1])
    out = [F(0)] * (D + 1)
    power = [F(1)] + [F(0)] * D
    for m in range(1, D + 1):
        nxt = [F(0)] * (D + 1)
        for i, pi in enumerate(power):
            for j in range(0, D + 1 - i):
                nxt[i + j] += pi * s[j]
        power = nxt
        for i, v in enumerate(power):
            out[i] += F((-1) ** (m + 1), m) * v
    return out


def shifted(s, dd):
    """s times e^{da*x_1 + db*x_2} for a nonzero shift; the affine part
    of s must vanish."""
    da, db = dd
    assert min(dd) >= 0 and da + db > 0 and s.affine == (0, 0)
    terms = {}
    if s.const and da + db <= s.trunc:
        terms[(da, db)] = s.const
    for (a1, b1), c in s.terms.items():
        if a1 + da + b1 + db <= s.trunc:
            terms[(a1 + da, b1 + db)] = c
    return GradedSeries((0, 0), 0, terms, s.trunc)


def test_shifted_moves_degrees():
    s = GradedSeries((0, 0), 2, {(1, 0): 3}, 3)
    assert shifted(s, (1, 1)).terms == {(1, 1): F(2), (2, 1): F(3)}


def compose_oracle(f, shifts):
    """f(x + shifts), one full-length exponential and one shift per term."""
    out = GradedSeries((0, 0), 0, None, f.trunc)
    for (da, db), c in sorted(f.terms.items()):
        arg = shifts[0].scale(da) + shifts[1].scale(db)
        out = out + shifted(exp_oracle(arg), (da, db)).scale(c)
    return out


def same_series(got, want):
    assert got.terms == want.terms and got.const == want.const
    assert got.affine == want.affine and got.trunc == want.trunc
    assert all(got.terms.values())


@st.composite
def trunc_and_pure(draw, count=1, const=False):
    """A truncation in 1..6 and `count` two-variable pure-q series at it."""
    D = draw(st.integers(1, 6))
    terms = st.dictionaries(
        st.tuples(st.integers(0, D), st.integers(0, D)).filter(
            lambda t: 0 < sum(t) <= D),
        st.fractions(min_value=-40, max_value=40, max_denominator=8),
        max_size=5)
    out = [q_series(draw(terms), D) for _ in range(count)]
    if const:
        c = draw((st.integers(-9, 9) | st.fractions(min_value=-9, max_value=9,
                                                    max_denominator=6)).filter(bool))
        out.append(GradedSeries((0, 0), c, draw(terms), D))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(trunc_and_pure())
def test_exp_matches_power_sum(series):
    (s,) = series
    same_series(s.exp_of_pure_q(), exp_oracle(s))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(trunc_and_pure(const=True))
def test_div_unit_matches_power_sum(series):
    num, den = series
    same_series(num.div_unit(den), div_unit_oracle(num, den))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(trunc_and_pure(count=3))
def test_compose_matches_per_term_exponentials(series):
    f, s1, s2 = series
    same_series(_compose_q(f, (s1, s2)), compose_oracle(f, (s1, s2)))


def mul_oracle(s, t):
    """s * t, one Fraction product per pair of coefficients, the constants
    carried as degree (0, 0)."""
    a, b = {(0, 0): s.const, **s.terms}, {(0, 0): t.const, **t.terms}
    out = {}
    for (a1, b1), x in a.items():
        for (a2, b2), y in b.items():
            if a1 + a2 + b1 + b2 <= s.trunc:
                dd = (a1 + a2, b1 + b2)
                out[dd] = out.get(dd, F(0)) + F(x) * F(y)
    const = out.pop((0, 0))
    return GradedSeries((0, 0), const, out, s.trunc)


mixed = (st.integers(-10 ** 6, 10 ** 6)
         | st.fractions(min_value=-40, max_value=40, max_denominator=12))


@st.composite
def mixed_pair(draw):
    """Two two-variable series with constant terms at one truncation in
    1..6, coefficients ints up to 10^6 or fractions."""
    D = draw(st.integers(1, 6))
    terms = st.dictionaries(
        st.tuples(st.integers(0, D), st.integers(0, D)).filter(
            lambda t: 0 < sum(t) <= D),
        mixed, max_size=8)
    return [GradedSeries((0, 0), draw(mixed), draw(terms), D) for _ in range(2)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mixed_pair())
def test_series_product_matches_fraction_loop(pair):
    s, t = pair
    got = s * t
    same_series(got, mul_oracle(s, t))
    assert type(got.const) is F and all(type(c) is F for c in got.terms.values())


def ps_mul_oracle(a, b, D):
    """a * b cut at q^D, one Fraction product per pair of coefficients."""
    out = [F(0)] * (D + 1)
    for i, ai in enumerate(a[:D + 1]):
        for j, bj in enumerate(b[:D + 1 - i]):
            out[i + j] += F(ai) * F(bj)
    return out


def list_inv(a, D):
    out = [F(0)] * (D + 1)
    out[0] = 1 / a[0]
    for n in range(1, D + 1):
        s = F(0)
        for m in range(1, n + 1):
            s += a[m] * out[n - m]
        out[n] = -s / a[0]
    return out


def reversion_oracle(js):
    """The list implementation reversion_weights replaced: A^-1 by the
    unit recurrence, powers by list products cut at D - d, and log A as the
    power sum of log_unit_oracle."""
    D = len(js)
    A = [F(1)] + [F(v) for v in js]
    target = log_unit_oracle(A, D)
    Ainv = list_inv(A, D)
    power = [F(1)]
    out = []
    for d in range(1, D + 1):
        power = ps_mul_oracle(power, Ainv, D - d)
        wd = target[d]
        out.append(wd)
        for i in range(0, D + 1 - d):
            target[i + d] -= wd * power[i]
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(mixed, min_size=1, max_size=8))
def test_reversion_matches_list_oracle(js):
    assert reversion_weights(js) == reversion_oracle(js)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=8),
                min_size=1, max_size=7))
def test_j_assembly_matches_partition_sum(w):
    want = []
    for d in range(1, len(w) + 1):
        want.append(sum((F((1 - d) ** (len(p) - 1), math.factorial(len(p)))
                         * math.prod(w[x - 1] for x in p)
                         for p in ordered_partitions(d)), F(0)))
    assert _j_from_weights(w) == want


# -- generating functions --------------------------------------------------


def test_local_surface_generating_function():
    g = geometry("kf0", k=1)
    s = build_generating_function(g, "1", "zw", 2)
    assert s.affine == (F(-1), F(1, 2))
    assert s.terms == {(1, 0): F(-1), (0, 1): F(-1), (2, 0): F(-3, 2),
                       (1, 1): F(-6), (0, 2): F(-3, 2)}


def test_local_surface_classical_parameter_only_in_affine():
    s1 = build_generating_function(geometry("kf0", k=1), "z", "z", 3)
    s7 = build_generating_function(geometry("kf0", k=7), "z", "z", 3)
    assert s1.affine == (F(1), F(-1)) and s7.affine == (F(7), F(-7))
    assert s1.terms == s7.terms
    assert s1.terms == {(1, 0): F(-2), (2, 0): F(-5), (1, 1): F(-8),
                        (3, 0): F(-44, 3), (2, 1): F(-76), (1, 2): F(-32)}


def test_virtual_ring_insertion_is_classical_only():
    s = build_generating_function(geometry("kf0", k=7), "1", "z2", 3)
    assert s.affine == (F(7), F(-7)) and not s.terms


def test_generating_function_rejects_unknown_class():
    with pytest.raises(InvalidInsertion):
        build_generating_function(geometry("kf0", k=1), "1", "z3w", 2)


def test_quintic_generating_function():
    s = build_generating_function(geometry("cpn", N=5, k=5), 0, 2, 3)
    assert s.affine == (F(5), F(0))
    assert s.terms == {(1, 0): F(3850), (2, 0): F(3589125),
                       (3, 0): F(16126540000, 3)}


def test_fibered_generating_function_degree_one():
    s = build_generating_function(geometry("wp1"), "1", "w2", 1)
    assert s.affine == (F(4), F(8))
    assert s.terms == {(0, 1): F(1024)}


def test_twist_surface_generating_function():
    s = build_generating_function(geometry("f3"), "w", "w2", 1)
    assert s.affine == (F(0), F(0))
    assert s.terms == {(0, 1): F(3)}


# -- mirror maps -----------------------------------------------------------


def test_local_surface_mirror_map():
    m = mirror_map(geometry("kf0", k=1), 2)
    want = {(1, 0): F(2), (0, 1): F(2), (2, 0): F(3),
            (1, 1): F(12), (0, 2): F(3)}
    assert m.forward[0].affine == (F(1), F(0))
    assert m.forward[0].terms == want
    assert m.forward[1].affine == (F(0), F(1))
    assert m.forward[1].terms == want


def test_local_surface_map_is_parameter_free():
    m1 = mirror_map(geometry("kf0", k=1), 3)
    m7 = mirror_map(geometry("kf0", k=7), 3)
    assert m1.forward == m7.forward


def local_f0_periods(D):
    """Quantum terms of both mirror-map components of local P1 x P1 from its
    B-model periods (Chiang, Klemm, Yau and Zaslow, hep-th/9903053):
    t_i = x_i + sum 2 (2n + 2m - 1)! / (n! m!)^2 e^{n x_1 + m x_2}."""
    return {(n, m): F(2 * math.factorial(2 * n + 2 * m - 1),
                      (math.factorial(n) * math.factorial(m)) ** 2)
            for n in range(D + 1) for m in range(D + 1 - n) if n + m}


def test_local_surface_map_matches_b_model_periods():
    D = 5
    m = mirror_map(geometry("kf0"), D)
    want = local_f0_periods(D)
    for i, axis in enumerate(((1, 0), (0, 1))):
        assert m.forward[i].affine == axis and m.forward[i].const == 0
        assert m.forward[i].terms == want
    m = invert_mirror_map(m)
    for i in range(2):
        out = transform(m.forward[i], m)
        assert out.terms == {} and out.const == 0
        assert out.affine == m.forward[i].affine


def harmonic(n):
    return sum((F(1, j) for j in range(1, n + 1)), F(0))


def fibered_periods(D, ratio, lead):
    """GKZ mirror-map components t_1, t_2 of a two-parameter degree-8 or
    degree-12 hypersurface (Candelas, de la Ossa, Font, Katz and Morrison,
    hep-th/9308083; Candelas, Font, Katz and Morrison, hep-th/9403187), as
    {(n, m): coefficient of x_1^n x_2^m} up to total degree D, from the
    periods w = sum c(n + r1, m + r2) x^(n + r): t_i = d_{r_i} w / w_0 less
    log x_i, with c(n, m) = ratio(n) / (m!^2 (n - 2m)!) and
    d_{r1} log c = lead(n) - H(n - 2m), d_{r2} log c = 2H(n - 2m) - 2H(m).
    For n < 2m, c vanishes and 1/Gamma(-k + e) = (-1)^k k! e + O(e^2),
    k = 2m - n - 1, gives the derivatives."""
    fact = math.factorial
    w0, s1, s2 = {}, {}, {}
    for n in range(D + 1):
        for m in range(D + 1 - n):
            head = F(ratio(n), fact(m) ** 2)
            if n >= 2 * m:
                w0[n, m] = c = head / fact(n - 2 * m)
                s1[n, m] = c * (lead(n) - harmonic(n - 2 * m))
                s2[n, m] = 2 * c * (harmonic(n - 2 * m) - harmonic(m))
            else:
                k = 2 * m - n - 1
                s1[n, m] = head * (-1) ** k * fact(k)
                s2[n, m] = -2 * s1[n, m]

    def over_w0(s):
        q = {}
        for n, m in sorted(s, key=sum):
            q[n, m] = s[n, m] - sum(c * q[n - a, m - b] for (a, b), c in w0.items()
                                    if (a, b) != (0, 0) and a <= n and b <= m)
        return {k: v for k, v in q.items() if v}

    return over_w0(s1), over_w0(s2)


FIBERED_PERIODS = {
    "wp1": (lambda n: F(math.factorial(4 * n), math.factorial(n) ** 3),
            lambda n: 4 * harmonic(4 * n) - 3 * harmonic(n)),
    "wp3": (lambda n: F(math.factorial(6 * n), math.factorial(n) ** 2 * math.factorial(3 * n)),
            lambda n: 6 * harmonic(6 * n) - 2 * harmonic(n) - 3 * harmonic(3 * n)),
}


@pytest.mark.parametrize("name", sorted(FIBERED_PERIODS))
def test_fibered_map_matches_b_model_periods(name):
    # the engine's degree (da, db) is GKZ (m, n), and its t_1, t_2 are
    # GKZ t_2, t_1
    D = 4
    m = mirror_map(geometry(name), D)
    t1, t2 = fibered_periods(D, *FIBERED_PERIODS[name])
    for i, t in enumerate((t2, t1)):
        assert m.forward[i].affine == ((1, 0), (0, 1))[i] and m.forward[i].const == 0
        assert m.forward[i].terms == {(b, a): v for (a, b), v in t.items()}


def test_local_surface_map_computes_only_at_its_own_parameter(tmp_path):
    store = activate(str(tmp_path / "memo.jsonl"))
    try:
        mirror_map(geometry("kf0", k=1), 3)
    finally:
        activate(None)
    with open(store.path, encoding="utf-8") as fh:
        params = [json.loads(line)["params"] for line in fh]
    assert params and all(p == {"k": 1} for p in params)


@pytest.mark.parametrize("triple, g", [
    (lambda self, a, b, c: 1, geometry("f3")),
    (lambda self, a, b, c: 0, geometry("cpn", N=5, k=5)),
], ids=["f3", "cpn"])
def test_singular_pairing_block_raises(monkeypatch, triple, g):
    # a 2x2 block of equal entries and a 1x1 zero block have no inverse
    monkeypatch.setattr(Geometry, "classical_triple", triple)
    with pytest.raises(SingularMetric, match="pairing block is singular for %s" % g.name):
        mirror_map(g, 2)


def test_fibered_mirror_map():
    m = mirror_map(geometry("wp1"), 1)
    assert m.forward[0].terms == {(0, 1): F(48), (1, 0): F(2)}
    assert m.forward[1].terms == {(0, 1): F(104), (1, 0): F(-1)}


def test_quintic_mirror_map():
    m = mirror_map(geometry("cpn", N=5, k=5), 3)
    assert m.forward[0].terms == {(1, 0): F(770), (2, 0): F(717825),
                                  (3, 0): F(3225308000, 3)}
    assert m.forward[1].terms == {}


def test_degree_six_surface_mirror_map():
    m = mirror_map(geometry("wp2"), 2)
    assert m.forward[0].terms == {(1, 0): F(744), (2, 0): F(473652)}


def test_fano_mirror_map_is_trivial():
    m = mirror_map(geometry("cpn", N=7, k=5), 2)
    assert m.forward[0].terms == {}


def test_invert_identity_map():
    g = geometry("kf0", k=1)
    ident = (GradedSeries((1, 0), 0, {}, 2), GradedSeries((0, 1), 0, {}, 2))
    m = invert_mirror_map(MirrorMap(g, 2, ident))
    assert m.inverse == ident


def test_invert_single_exponential():
    g = geometry("cpn", N=5, k=5)
    c = F(3)
    t1 = GradedSeries((1, 0), 0, {(1, 0): c}, 2)
    t2 = GradedSeries((0, 1), 0, {}, 2)
    m = invert_mirror_map(MirrorMap(g, 2, (t1, t2)))
    assert m.inverse[0].terms == {(1, 0): -c, (2, 0): c * c}


@pytest.mark.parametrize("D", [24, 32])
def test_deep_quintic_inversion(D):
    ratio = picard_fuchs_basis(5, 1, D).div_unit(picard_fuchs_basis(5, 0, D))
    forward = (GradedSeries((1, 0), 0, ratio.terms, D),
               GradedSeries((0, 1), 0, None, D))
    m = invert_mirror_map(MirrorMap(geometry("cpn", N=5, k=5), D, forward))
    for i in range(2):
        out = transform(m.forward[i], m)
        assert out.terms == {} and out.const == 0
        assert out.affine == forward[i].affine
    back = invert_mirror_map(MirrorMap(m.geom, D, m.inverse))
    assert back.inverse == m.forward
    low = {dd: c for dd, c in ratio.terms.items() if sum(dd) <= 3}
    assert low == mirror_map(geometry("cpn", N=5, k=5), 3).forward[0].terms
    assert len(ratio.terms) == D


def invert_oracle(forward, D):
    """x_i(t) by D fixed-point passes, each composed at the full truncation."""
    fs = [t.quantum_part() for t in forward]
    shifts = (q_series({}, D),) * 2
    for _ in range(D):
        shifts = tuple(-_compose_q(f, shifts) for f in fs)
    return tuple(GradedSeries(t.affine, 0, s.terms, D)
                 for t, s in zip(forward, shifts))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(trunc_and_pure(count=2))
def test_inversion_matches_full_precision_passes(series):
    D = series[0].trunc
    forward = (GradedSeries((1, 0), 0, series[0].terms, D),
               GradedSeries((0, 1), 0, series[1].terms, D))
    m = invert_mirror_map(MirrorMap(geometry("kf0"), D, forward))
    for got, want in zip(m.inverse, invert_oracle(forward, D)):
        same_series(got, want)


@pytest.mark.parametrize("short", [0, 1])
def test_inversion_refuses_a_truncation_mismatch_first(monkeypatch, short):
    def no_work(*args):
        raise AssertionError("inversion started")

    for name in ("_graded_recurrence", "_composition", "_compose_q"):
        monkeypatch.setattr("resmirror.series." + name, no_work)
    comps = [GradedSeries((1, 0), 0, {(1, 0): 3, (2, 0): 5}, 4),
             GradedSeries((0, 1), 0, {(0, 1): 1}, 4)]
    comps[short] = GradedSeries(comps[short].affine, 0, comps[short].terms, 2)
    with pytest.raises(ValueError, match="truncation mismatch: 4 vs 2"):
        invert_mirror_map(MirrorMap(geometry("kf0"), 4, comps))


def test_inversion_composes_both_ways():
    g = geometry("kf0", k=1)
    m = invert_mirror_map(mirror_map(g, 3))
    back = invert_mirror_map(MirrorMap(g, 3, m.inverse))
    assert back.inverse == m.forward


# -- transforms ------------------------------------------------------------


# d^2 * sum_{k | d} n_{d/k} / k^3 from the quintic's instanton numbers
# n_1 .. n_5 = 2875, 609250, 317206375, 242467530000, 229305888887625
# (Candelas, de la Ossa, Green and Parkes, 1991)
QUINTIC_ZZ = {(1, 0): F(2875), (2, 0): F(4876875, 2), (3, 0): F(8564575000, 3),
              (4, 0): F(15517926796875, 4), (5, 0): F(5732647222191200)}


def test_quintic_transform():
    g = geometry("cpn", N=5, k=5)
    for D in (3, 5):
        m = mirror_map(g, D)
        out = transform(build_generating_function(g, 1, 1, D), m)
        assert out.affine == (F(5), F(0))
        assert out.terms == {dd: c for dd, c in QUINTIC_ZZ.items() if dd[0] <= D}


def test_transform_round_trip_is_affine():
    g = geometry("kf0", k=1)
    m = mirror_map(g, 3)
    for i in range(2):
        out = transform(m.forward[i], m)
        assert out.terms == {} and out.const == 0
        assert out.affine == m.forward[i].affine


def test_local_surface_transform():
    g = geometry("kf0", k=1)
    m = mirror_map(g, 3)
    out = transform(build_generating_function(g, "z", "z", 3), m)
    assert out.affine == (F(1), F(-1))
    assert out.terms == {(1, 0): F(-2), (2, 0): F(-1), (1, 1): F(-4),
                         (3, 0): F(-2, 3), (2, 1): F(-24), (1, 2): F(-6)}


def test_transform_coefficients_are_parameter_free():
    outs = []
    for k in (1, 7):
        g = geometry("kf0", k=k)
        m = mirror_map(g, 3)
        outs.append(transform(build_generating_function(g, "z", "w", 3), m))
    assert outs[0].terms == outs[1].terms
    assert outs[0].affine == (F(-1), F(1, 2))
    assert outs[1].affine == (F(-7), F(13, 2))


def test_fano_transform_is_identity():
    g = geometry("cpn", N=7, k=5)
    m = mirror_map(g, 1)
    s = build_generating_function(g, 1, 5, 1)
    assert transform(s, m) == s
    assert s.terms == {(1, 0): F(600)}


def test_fibered_transform():
    g = geometry("wp1")
    m = mirror_map(g, 2)
    out = transform(build_generating_function(g, "w", "w", 2), m)
    assert out.affine == (F(4), F(8))
    assert out.terms == {(0, 1): F(640), (0, 2): F(40448), (1, 1): F(640)}


# -- closed-form transform through degree three ----------------------------


def test_closed_form_matches_published_invariants():
    table = gmt_upto3(8, 9)
    assert table[(1, (1, 3))] == 510463296
    assert table[(1, (2, 2))] == 815556357
    assert table[(2, (1, 2))] == F(319615925538369285, 4)
    assert table[(3, (1, 1))] == 12112667926597160835676659


def test_closed_form_puncture_zeros():
    table = gmt_upto3(8, 9)
    for (d, pair), val in table.items():
        if 0 in pair:
            assert val == 0


def test_closed_form_rejects_fano_side():
    with pytest.raises(ValueError):
        gmt_upto3(9, 8)


@pytest.mark.parametrize("N,k", [(True, 9), (8.0, 9), (8, "9"), (1, 3), (0, 3), (-2, 1)])
def test_closed_form_rejects_invalid_parameters(N, k):
    with pytest.raises(ValueError, match="integer|need N >= 2"):
        gmt_upto3(N, k)


# -- solution basis --------------------------------------------------------


def test_holomorphic_solution():
    u0 = picard_fuchs_basis(5, 0, 2)
    assert u0.const == 1
    assert u0.terms == {(1, 0): F(120), (2, 0): F(113400)}


def test_solution_ratio_is_the_mirror_map():
    u0 = picard_fuchs_basis(5, 0, 3)
    v1 = picard_fuchs_basis(5, 1, 3)
    assert v1.const == 0
    ratio = v1.div_unit(u0)
    assert ratio.terms == mirror_map(geometry("cpn", N=5, k=5), 3).forward[0].terms


def picard_fuchs_oracle(k, j, D):
    """The basis coefficients as the value and the first derivative of
    (k d + e)! / (d + e)!^k at e = 0, by products of dual numbers."""
    def mul(u, v):
        return (u[0] * v[0], u[0] * v[1] + u[1] * v[0])

    terms = {}
    for d in range(1, D + 1):
        val = (F(math.factorial(k * d), math.factorial(d) ** k), F(0))
        for m in range(1, k * d + 1):
            val = mul(val, (1, F(k, m)))
        for m in range(1, d + 1):
            val = mul(val, (1, F(-k, m)))
        if val[j]:
            terms[(d, 0)] = val[j]
    return GradedSeries((0, 0), 1 if j == 0 else 0, terms, D)


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("j", [0, 1])
def test_solution_basis_matches_dual_numbers(k, j):
    for D in (0, 1, 4, 10):
        same_series(picard_fuchs_basis(k, j, D), picard_fuchs_oracle(k, j, D))


def test_solution_index_is_checked():
    with pytest.raises(ValueError):
        picard_fuchs_basis(5, 2, 2)


# -- modular expansion -----------------------------------------------------


def test_j_coefficients_small():
    je = j_coefficients(2)
    assert je.j == (F(744), F(196884))
    assert je.w == (F(744), F(473652))


def test_reversion_recovers_weights():
    js = [744, 196884, 21493760, 864299970]
    assert reversion_weights(js) == [F(744), F(473652), F(451734080),
                                     F(510531007770)]


def modular_j(count):
    """c_0 .. c_{count-1} of E4^3 / Delta = 1/q + c_0 + c_1 q + ..., in integers."""
    n = count
    e4 = [1] + [240 * sum(d ** 3 for d in range(1, k + 1) if k % d == 0)
                for k in range(1, n + 1)]

    def mul(a, b):
        return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]

    eta24 = [1] + [0] * n                    # prod (1 - q^k)^24
    for k in range(1, n + 1):
        for _ in range(24):
            for i in range(n, k - 1, -1):
                eta24[i] -= eta24[i - k]
    inv = [1] + [0] * n
    for i in range(1, n + 1):
        inv[i] = -sum(eta24[m] * inv[i - m] for m in range(1, i + 1))
    return mul(mul(mul(e4, e4), e4), inv)[1:]


def test_j_coefficients_match_modular_forms():
    assert list(j_coefficients(6).j) == modular_j(6)


@pytest.mark.parametrize("d", [7, 8])
def test_deep_wp2_numbers_match_modular_weights(d):
    # past the j --dmax cap: the residue engine against E4^3 / Delta alone
    weights = reversion_weights(modular_j(d))
    assert geometry("wp2").two_point(d, "1", "z") / 2 == weights[d - 1]


@pytest.mark.parametrize("count", [40, 80])
def test_reversion_closes_on_modular_coefficients(count):
    js = modular_j(count)
    assert js[:3] == [744, 196884, 21493760]
    assert _j_from_weights(reversion_weights(js)) == js


def test_j_coefficients_bounds():
    with pytest.raises(ValueError):
        j_coefficients(7)
    with pytest.raises(ValueError):
        j_coefficients(0)


# -- reference connection data ---------------------------------------------


def test_connection_tables_agree_with_two_point_numbers():
    report = check_conjecture2()
    assert report.ok
    assert len(report.rows) == 33


# -- three slots, against tuple-keyed loops --------------------------------


def tuple_mul(s, t):
    """s * t by a double loop over tuple-keyed terms, constants at zero."""
    zero = (0,) * len(s.affine)
    out = {}
    for m, x in {zero: s.const, **s.terms}.items():
        for e, y in {zero: t.const, **t.terms}.items():
            dd = tuple(a + b for a, b in zip(m, e))
            if sum(dd) <= s.trunc:
                out[dd] = out.get(dd, 0) + x * y
    return GradedSeries(zero, out.pop(zero, 0), out, s.trunc)


def tuple_exp(s):
    """exp(s) as the sum of s^m / m! over tuple_mul powers."""
    out = power = GradedSeries(s.affine, 1, None, s.trunc)
    for m in range(1, s.trunc + 1):
        power = tuple_mul(power, s)
        out = out + power.scale(F(1, math.factorial(m)))
    return out


@st.composite
def three_slot_series(draw, count):
    D = draw(st.integers(1, 4))
    degrees = st.tuples(*[st.integers(0, D)] * 3).filter(lambda dd: 0 < sum(dd) <= D)
    coefs = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    return [GradedSeries((0, 0, 0), draw(coefs),
                         draw(st.dictionaries(degrees, coefs, max_size=5)), D)
            for _ in range(count)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(three_slot_series(3))
def test_three_slot_arithmetic_matches_tuple_loops(series):
    s, t, u = series
    assert s * t == tuple_mul(s, t)
    pure = s.quantum_part()
    assert pure.exp_of_pure_q() == tuple_exp(pure)
    if u.const:
        assert tuple_mul(t.div_unit(u), u) == t


def test_three_slot_inversion_and_transform_round_trip():
    D = 3
    forward = (GradedSeries((1, 0, 0), 0, {(1, 0, 0): 2, (0, 1, 1): -1, (0, 0, 2): F(1, 3)}, D),
               GradedSeries((0, 1, 0), 0, {(0, 0, 1): 5, (1, 1, 0): 1}, D),
               GradedSeries((0, 0, 1), 0, {(1, 0, 0): -3, (0, 2, 0): F(1, 2)}, D))
    m = invert_mirror_map(MirrorMap(None, D, forward))
    for t in forward:
        assert transform(t, m) == GradedSeries(t.affine, 0, None, D)
    assert invert_mirror_map(MirrorMap(None, D, m.inverse)).inverse == forward


def test_three_slot_json_and_labels():
    s = GradedSeries((1, 0, F(-2, 3)), 4, {(1, 0, 0): 2, (0, 1, 2): -1, (0, 0, 1): F(1, 2)}, 3)
    assert series_to_json(s)["affine"] == {"x1": "1", "x2": "0", "x3": "-2/3", "const": "4"}
    assert series_from_json(series_to_json(s)) == s
    assert s.pretty() == "x1 - 2/3*x3 + 4 + 2*q1 + 1/2*q3 - q2*q3^2"
    assert s.pretty(["t1", "t2", "t3"]).startswith("t1 - 2/3*t3 + 4")


def test_slot_mismatch_is_refused():
    two, three = q_series({(1, 0): 1}, 2), GradedSeries((0, 0, 0), 1, {(0, 0, 1): 1}, 2)
    for op in (lambda: two + three, lambda: three * two, lambda: two.div_unit(three)):
        with pytest.raises(ValueError, match=r"^slot mismatch: [23] vs [23]$"):
            op()


@pytest.mark.parametrize("triple, g", [
    (lambda self, a, b, c: 1, geometry("f3")),
    (lambda self, a, b, c: 0, geometry("cpn", N=5, k=5)),
], ids=["f3", "cpn"])
def test_singular_block_stops_before_any_two_point_number(monkeypatch, triple, g):
    def no_number(*args):
        raise AssertionError("a two-point number was asked for")

    monkeypatch.setattr(Geometry, "classical_triple", triple)
    monkeypatch.setattr("resmirror.cache.cached_two_point", no_number)
    monkeypatch.setattr("resmirror.series.cached_two_point", no_number)
    with pytest.raises(SingularMetric, match="pairing block is singular"):
        mirror_map(g, 2)
