from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmirror import residues
from resmirror.geoms import geometry
from resmirror.polys import RatFunc, VarSet
from resmirror.residues import DuplicatePole, residue_at, residue_sum
from test_polys import ENGINE_CASES, monic_ratfunc

ZA = VarSet(["z", "a"])
Z = ZA.poly("z")
A = ZA.poly("a")


def const(c):
    return RatFunc(ZA.const(c))


def laurent_coefficient(r, var, loc, n):
    """The coefficient of (var - loc)^n in the expansion of r, read off
    as the residue of r / (var - loc)^(n+1)."""
    shift = r.vars.poly(var) - loc
    if n >= 0:
        return residue_at(r * RatFunc(r.vars.const(1), [(shift, n + 1)]), var, loc)
    return residue_at(r * shift ** (-n - 1), var, loc)


def test_simple_pole():
    r = RatFunc(ZA.const(1), [(Z, 1)])
    assert residue_at(r, "z").as_rational() == 1


def test_laurent_one_over_z_z_minus_a():
    # 1/(z(z-a)) about 0: -(1/a) z^-1 - (1/a^2) z^0 - ...
    r = RatFunc(ZA.const(1), [(Z, 1), (Z - A, 1)])
    assert laurent_coefficient(r, "z", 0, -2).is_zero()
    assert laurent_coefficient(r, "z", 0, -1) == RatFunc(ZA.const(-1), [(A, 1)])
    assert laurent_coefficient(r, "z", 0, 0) == RatFunc(ZA.const(-1), [(A, 2)])


def test_laurent_about_movable_location():
    # about z = a: 1/(z(z-a)) = (1/a) (z-a)^-1 - (1/a^2) (z-a)^0 + ...
    r = RatFunc(ZA.const(1), [(Z, 1), (Z - A, 1)])
    assert laurent_coefficient(r, "z", A, -1) == RatFunc(ZA.const(1), [(A, 1)])
    assert laurent_coefficient(r, "z", A, 0) == RatFunc(ZA.const(-1), [(A, 2)])


def test_residue_with_unit_series():
    # (1/z^2) * 1/(1 - z): residue at 0 is the z^1 coefficient of 1/(1-z), i.e. 1
    r = RatFunc(ZA.const(1), [(Z, 2), (1 - Z, 1)])
    assert residue_at(r, "z").as_rational() == 1


def test_no_pole_means_zero_residue():
    r = RatFunc(Z + A)
    assert residue_at(r, "z").is_zero()


def test_residue_sum_two_point():
    zw = VarSet(["w", "z"])
    W, Zv = zw.poly("w"), zw.poly("z")
    # 1/(w(w - 3z)): residues at {0, 3z} cancel
    r = RatFunc(zw.const(1), [(W, 1), (W - 3 * Zv, 1)])
    locs = [0, 3 * Zv]
    assert residue_sum(r, "w", locs).is_zero()
    # w^2/(w(w - 3z)): residues now add up to 3z
    r2 = RatFunc(W ** 2, [(W, 1), (W - 3 * Zv, 1)])
    assert residue_sum(r2, "w", locs) == RatFunc(3 * Zv)


def test_duplicate_pole_detected():
    r = RatFunc(ZA.const(1), [(Z, 1)])
    with pytest.raises(DuplicatePole):
        residue_sum(r, "z", [0, 0])


def test_location_checks():
    r = RatFunc(ZA.const(1), [(Z - A, 1)])
    with pytest.raises(ValueError, match="^pole location on a different variable set$"):
        residue_at(r, "z", VarSet(["z", "b"]).poly("b"))
    with pytest.raises(ValueError, match="^pole location may not involve 'z' itself$"):
        residue_at(r, "z", Z + A)
    with pytest.raises(ValueError, match="^pole location may not involve 'z' itself$"):
        residue_sum(r, "z", [A, 2 * Z])
    empty = residue_sum(r, "z", [])
    assert empty.is_zero() and empty.vars == ZA


def iterate(r, schedule):
    """Residue sums over (var, locations) steps, innermost step first."""
    for var, locs in schedule:
        r = residue_sum(r, var, locs)
    return r


def test_iterated_identity_and_leftover_vars():
    r = RatFunc(ZA.const(1), [(Z, 1), (A, 2)])
    assert iterate(r, []) == r
    assert iterate(r, [("z", [0])]) == RatFunc(ZA.const(1), [(A, 2)])


def test_iterated_two_variables():
    vs = VarSet(["z0", "z1", "w0"])
    z0, z1, w0 = (vs.poly(n) for n in ("z0", "z1", "w0"))
    # double residue of 1/(z0^2 z1^2 (-z0 - z1 - 2w0)), inner z0 then z1;
    # the leftover variable w0 stays in the result
    r = RatFunc(vs.const(1), [(z0, 2), (z1, 2), (-z0 - z1 - 2 * w0, 1)])
    out = iterate(r, [("z0", [0]), ("z1", [0])])
    assert out == RatFunc(vs.const(Fraction(-1, 4)), [(w0, 3)])


def test_linearity():
    r1 = RatFunc(A, [(Z, 1)])
    r2 = RatFunc(ZA.const(1), [(Z, 2), (1 + Z, 1)])
    lhs = residue_at(r1 + r2, "z")
    assert lhs == residue_at(r1, "z") + residue_at(r2, "z")


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(-5, 5), st.integers(1, 4), min_size=2, max_size=4),
       st.integers(0, 1))
def test_sum_of_all_residues_vanishes(mults, numdeg):
    # deg(num) <= deg(den) - 2 makes the residue sum over every pole vanish
    den = [(Z - loc, m) for loc, m in mults.items()]
    total = sum(m for _, m in den)
    r = RatFunc(Z ** min(numdeg, total - 2), den)
    s = residue_sum(r, "z", mults)
    assert s.is_zero()


# -- the division recurrence against per-factor inverse series ---------------


def _series_mul(a, b, top):
    """Truncated product of coefficient lists (index = power, len top+1)."""
    out = [None] * (top + 1)
    for i, x in enumerate(a):
        if x is None or x.is_zero():
            continue
        for j, y in enumerate(b):
            if i + j > top:
                break
            if y is None or y.is_zero():
                continue
            t = x * y
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return out


def _series_inv_unit(parts, top, zero):
    """Inverse series of U = sum_{h>=0} eps^h A_h, with A_0 != 0, by
    B_0 = 1/A_0 and B_n = -B_0 * sum_{h=1..n} A_h B_{n-h}."""
    a = [parts.get(h) for h in range(top + 1)]
    b0 = RatFunc(a[0].vars.const(1), [(a[0], 1)])
    out = [b0]
    for n in range(1, top + 1):
        acc = None
        for h in range(1, n + 1):
            if a[h] is None:
                continue
            t = RatFunc(a[h]) * out[n - h]
            acc = t if acc is None else acc + t
        out.append(zero if acc is None else (-(b0 * acc)).reduce())
    return out


def residue_oracle(r, v, loc):
    """The residue of r in v at loc from the whole principal part: the
    numerator series times each unit's inverse series, once per
    multiplicity."""
    shifted = r.vars.poly(v) + loc
    spectators, units, order = [], [], 0
    for f, m in r.den:
        g = f.subs(v, shifted)
        if g.max_exp(v) == 0:
            spectators.append((g, m))
            continue
        parts = g.split_by(v)
        j0 = min(j for j, a in parts.items() if not a.is_zero())
        order += j0 * m
        units.append(({j - j0: a for j, a in parts.items()}, m))
    zero = RatFunc(r.vars.zero())
    if order == 0:
        return zero
    top = order - 1
    series = [None] * (top + 1)
    for j, a in r.num.subs(v, shifted).split_by(v).items():
        if j <= top:
            series[j] = RatFunc(a)
    for parts, m in units:
        inv = _series_inv_unit(parts, top, zero)
        for _ in range(m):
            series = _series_mul(series, inv, top)
    c = zero if series[top] is None else series[top]
    return RatFunc(c.num, c.den + tuple(spectators)).reduce()


def recurrence_oracle(r, v, loc):
    """The residue by the division recurrence with the unit product W built
    one multiplicity at a time for every pole order, 1/W_0 and the result in
    the monic normal form, and the result reduced against all its factors."""
    shifted = r.vars.poly(v) + loc
    spectators, units, order = [], [], 0
    for f, m in r.den:
        g = f.subs(v, shifted)
        if g.max_exp(v) == 0:
            spectators.append((g, m))
            continue
        parts = g.split_by(v)
        j0 = min(parts)
        order += j0 * m
        units.append(({j - j0: a for j, a in parts.items()}, m))
    if order == 0:
        return RatFunc(r.vars.zero())
    top = order - 1
    zero = r.vars.zero()
    w = [r.vars.const(1)] + [zero] * top
    for parts, m in units:
        for _ in range(m):
            w = [sum((a * w[n - h] for h, a in parts.items() if h <= n), zero)
                 for n in range(top + 1)]
    b0 = monic_ratfunc(r.vars.const(1), [(parts[0], m) for parts, m in units])
    num = r.num.subs(v, shifted).split_by(v)
    c = []
    for n in range(top + 1):
        acc = RatFunc(num.get(n, zero))
        for h in range(1, n + 1):
            if w[h] and not c[n - h].is_zero():
                acc = acc - w[h] * c[n - h]
        c.append(acc if acc.is_zero() else (acc * b0).reduce())
    return monic_ratfunc(c[top].num, c[top].den + tuple(spectators)).reduce()


coeff = st.integers(-3, 3)


@st.composite
def factored_residues(draw):
    """A function with up to three denominator factors (z - loc)^j * L,
    L linear, each of multiplicity 1-4, and a pole at 0 or at a movable
    linear location loc in the other variables.  The first factor has
    j >= 1 and the numerator is nonzero, so there is a pole."""
    vs = VarSet(["z", "a", "b"][:draw(st.integers(2, 3))])
    z, rest = vs.poly("z"), [vs.poly(n) for n in vs.names[1:]]
    loc = vs.zero()
    if draw(st.booleans()):
        loc = sum((draw(coeff) * x for x in rest), vs.const(draw(coeff)))
    den = []
    for i in range(draw(st.integers(1, 3))):
        unit = sum((draw(coeff) * x for x in [z] + rest), vs.const(draw(coeff)))
        if unit.is_zero():
            unit = vs.const(1)
        j = draw(st.integers(0 if i else 1, 2))
        den.append(((z - loc) ** j * unit, draw(st.integers(1, 4))))
    num = vs.zero()
    for _ in range(draw(st.integers(1, 3))):
        exps = [draw(st.integers(0, 2)) for _ in vs.names]
        num = num + vs.monomial(exps, draw(coeff))
    if num.is_zero():
        num = vs.const(1)
    return RatFunc(num, den), "z", loc


@settings(max_examples=80, deadline=None, derandomize=True)
@given(factored_residues())
def test_residue_matches_inverse_series_oracle(case):
    r, var, loc = case
    assert residue_at(r, var, loc) == residue_oracle(r, var, loc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(factored_residues())
def test_one_spec_sum_is_its_residue(case):
    r, var, loc = case
    got, want = residue_sum(r, var, [loc]), residue_at(r, var, loc)
    assert got.num == want.num and got.den == want.den


def test_engine_residues_match_inverse_series_oracle(monkeypatch):
    seen = []
    take = residues.residue_at

    def recording(r, var, loc=0):
        out = take(r, var, loc)
        seen.append((r, var, loc, out))
        return out

    # the engine takes every residue through residue_sum, which looks
    # residue_at up in residues; vsc imports it from there where it takes one
    monkeypatch.setattr(residues, "residue_at", recording)
    for name, params, dd, a, b in ENGINE_CASES:
        geometry(name, **params).two_point(dd, a, b)
    monkeypatch.undo()
    assert any(not out.is_zero() for *_, out in seen)
    assert any(loc != 0 for _, _, loc, _ in seen)
    for r, var, loc, out in seen:
        assert out == residue_oracle(r, var, loc)
        assert_same_residue(r, var, loc, out)


POLE_CASES = [("simple", None), ("variable", None), ("movable", None),
              ("quadratic", None)] + [("multiplicity", m) for m in range(1, 6)]


@st.composite
def pole_cases(draw, kind, mult):
    """A function with a pole at z = loc and one or two units
    c0 + c1 e (+ c2 e^2 for "quadratic"), e = z - loc, c_i linear in a, b,
    c0 != 0, of multiplicity 1-5 (the first one mult, with c1 != 0, if
    given), and a spectator factor that divides the numerator up to twice.
    "simple" is a pole of order 1, where W is never read; every other kind
    has the factor e itself, a unit 1, to a power 2-5; "movable" puts the
    pole at a location linear in a and b."""
    vs = VarSet(["z", "a", "b"])
    z, a, b = (vs.poly(n) for n in vs.names)

    def lin():
        return draw(coeff) * a + draw(coeff) * b + draw(coeff)

    loc = lin() if kind == "movable" else vs.zero()
    e = z - loc
    den = [(e, 1 if kind == "simple" else draw(st.integers(2, 5)))]
    for i in range(draw(st.integers(1, 2))):
        pinned = i == 0 and mult
        unit = (lin() or vs.const(1)) + (lin() or vs.const(1 if pinned else 0)) * e
        if kind == "quadratic":
            unit = unit + lin() * e ** 2
        den.append((unit, mult if pinned else draw(st.integers(1, 5))))
    spectator = draw(st.integers(1, 3)) * a + draw(coeff) * b + draw(coeff)
    den.append((spectator, draw(st.integers(1, 2))))
    num = vs.zero()
    for _ in range(draw(st.integers(1, 3))):
        num = num + vs.monomial([draw(st.integers(0, 2)) for _ in vs.names], draw(coeff))
    num = (num or vs.const(1)) * spectator ** draw(st.integers(0, 2))
    return RatFunc(num, den), "z", loc


def assert_same_residue(r, var, loc, out):
    """Equal values, and the same reduced form: the oracle reduces against
    every factor, residue_at only against the spectators."""
    want = recurrence_oracle(r, var, loc)
    assert out == want
    want = RatFunc(want.num, want.den)
    assert out.num == want.num and dict(out.den) == dict(want.den)


@pytest.mark.parametrize("kind, mult", POLE_CASES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_residue_matches_recurrence_oracle(kind, mult, data):
    r, var, loc = data.draw(pole_cases(kind, mult))
    assert_same_residue(r, var, loc, residue_at(r, var, loc))
