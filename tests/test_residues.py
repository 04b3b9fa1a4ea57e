from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmirror.polys import IdenticallySingular, RatFunc, VarSet
from resmirror.residues import DuplicatePole, PoleSpec, residue_at, residue_sum

ZA = VarSet(["z", "a"])
Z = ZA.poly("z")
A = ZA.poly("a")


def const(c):
    return RatFunc(ZA.const(c))


def laurent_coefficient(r, spec, n):
    """The coefficient of (v - location)^n in the expansion of r, read off
    as the residue of r / (v - location)^(n+1)."""
    shift = r.vars.poly(spec.var) - spec.loc_poly(r.vars)
    if n >= 0:
        return residue_at(r * RatFunc(r.vars.const(1), [(shift, n + 1)]), spec)
    return residue_at(r * shift ** (-n - 1), spec)


def test_simple_pole():
    r = RatFunc(ZA.const(1), [(Z, 1)])
    assert residue_at(r, PoleSpec("z", 0)).as_rational() == 1


def test_expand_one_over_z_z_minus_a():
    # 1/(z(z-a)) about 0: -(1/a) z^-1 - (1/a^2) z^0 - ...
    r = RatFunc(ZA.const(1), [(Z, 1), (Z - A, 1)])
    p = PoleSpec("z", 0)
    assert laurent_coefficient(r, p, -2).is_zero()
    assert laurent_coefficient(r, p, -1) == RatFunc(ZA.const(-1), [(A, 1)])
    assert laurent_coefficient(r, p, 0) == RatFunc(ZA.const(-1), [(A, 2)])


def test_expand_about_movable_location():
    # about z = a: 1/(z(z-a)) = (1/a) (z-a)^-1 - (1/a^2) (z-a)^0 + ...
    r = RatFunc(ZA.const(1), [(Z, 1), (Z - A, 1)])
    p = PoleSpec("z", A)
    assert laurent_coefficient(r, p, -1) == RatFunc(ZA.const(1), [(A, 1)])
    assert laurent_coefficient(r, p, 0) == RatFunc(ZA.const(-1), [(A, 2)])


def test_residue_with_unit_series():
    # (1/z^2) * 1/(1 - z): residue at 0 is the z^1 coefficient of 1/(1-z), i.e. 1
    r = RatFunc(ZA.const(1), [(Z, 2), (1 - Z, 1)])
    assert residue_at(r, PoleSpec("z", 0)).as_rational() == 1


def test_no_pole_means_zero_residue():
    r = RatFunc(Z + A)
    assert residue_at(r, PoleSpec("z", 0)).is_zero()


def test_identically_singular():
    # a substitution landing on the pole locus surfaces the dedicated error
    r = RatFunc(ZA.const(1), [(Z - A, 1)])
    with pytest.raises(IdenticallySingular):
        r.substitute("a", Z)


def test_residue_sum_two_point():
    zw = VarSet(["w", "z"])
    W, Zv = zw.poly("w"), zw.poly("z")
    # 1/(w(w - 3z)): residues at {0, 3z} cancel
    r = RatFunc(zw.const(1), [(W, 1), (W - 3 * Zv, 1)])
    specs = [PoleSpec("w", 0), PoleSpec("w", 3 * Zv)]
    assert residue_sum(r, specs).is_zero()
    # w^2/(w(w - 3z)): residues now add up to 3z
    r2 = RatFunc(W ** 2, [(W, 1), (W - 3 * Zv, 1)])
    assert residue_sum(r2, specs) == RatFunc(3 * Zv)


def test_duplicate_pole_detected():
    r = RatFunc(ZA.const(1), [(Z, 1)])
    with pytest.raises(DuplicatePole):
        residue_sum(r, [PoleSpec("z", 0), PoleSpec("z", 0)])


def iterate(r, schedule):
    """Residue sums over (var, locations) steps, innermost step first."""
    for var, locs in schedule:
        r = residue_sum(r, [PoleSpec(var, loc) for loc in locs])
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
    p = PoleSpec("z", 0)
    lhs = residue_at(r1 + r2, p)
    assert lhs == residue_at(r1, p) + residue_at(r2, p)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.integers(-5, 5), st.integers(1, 2), min_size=2, max_size=4),
       st.integers(0, 1))
def test_sum_of_all_residues_vanishes(mults, numdeg):
    # deg(num) <= deg(den) - 2 makes the residue sum over every pole vanish
    den = [(Z - loc, m) for loc, m in mults.items()]
    total = sum(m for _, m in den)
    r = RatFunc(Z ** min(numdeg, total - 2), den)
    s = residue_sum(r, [PoleSpec("z", loc) for loc in mults])
    assert s.is_zero()
