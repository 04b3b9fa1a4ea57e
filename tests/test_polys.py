import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmirror.geoms import geometry
from resmirror.polys import MultiPoly, RatFunc, VarSet

LIMIT = 1 << 15     # the packed exponent field holds 0 .. LIMIT - 1
XY = VarSet(["x", "y"])
X = XY.poly("x")
Y = XY.poly("y")


def test_varset_rejects_duplicates():
    with pytest.raises(ValueError):
        VarSet(["x", "x"])


def test_monomial_rejects_a_wrong_length_exponent():
    with pytest.raises(ValueError):
        XY.monomial((1, 0, 2))
    with pytest.raises(ValueError):
        XY.monomial((1,))


def test_constructor_drops_zero_terms():
    p = MultiPoly(XY, {(1, 0): 0, (0, 1): 2})
    assert list(p.terms) == [(0, 1)]


def test_constructor_rejects_a_coefficient_that_is_not_exact():
    for make in (lambda: MultiPoly(XY, {(1, 0): 0.5}),
                 lambda: MultiPoly(XY, {(1, 0): "1"}),
                 lambda: XY.monomial((1, 0), 0.5),
                 lambda: XY.const(1.0)):
        with pytest.raises(TypeError):
            make()


def test_constructor_rejects_a_malformed_exponent_tuple():
    for make in (lambda: MultiPoly(XY, {(1,): 1}),
                 lambda: MultiPoly(XY, {(1, 0, 0): 1}),
                 lambda: MultiPoly(XY, {(0, -2): 3}),
                 lambda: XY.monomial((1, -1))):
        with pytest.raises(ValueError):
            make()


def test_exponents_at_the_field_limit_overflow():
    assert XY.monomial((LIMIT - 1, 0)).max_exp("x") == LIMIT - 1
    for make in (lambda: MultiPoly(XY, {(LIMIT, 0): 1}),
                 lambda: MultiPoly(XY, {(0, LIMIT + 5): 1}),
                 lambda: XY.monomial((2, LIMIT))):
        with pytest.raises(OverflowError):
            make()


def test_add_mul_basic():
    p = (X + Y) * (X - Y)
    assert p == X * X - Y * Y
    assert (X + 1) * (X - 1) == X * X - 1


def test_pow():
    assert (X + Y) ** 0 == XY.const(1)
    assert (X + Y) ** 3 == X ** 3 + 3 * X ** 2 * Y + 3 * X * Y ** 2 + Y ** 3
    with pytest.raises(ValueError):
        (X + Y) ** -1


def test_poly_operators():
    assert (X + Y).terms == {(1, 0): 1, (0, 1): 1}
    assert (X * Y).terms == {(1, 1): 1}
    assert (X + 1) ** 2 == X * X + 2 * X + 1


def test_subs_shift():
    p = X ** 2
    # substituting x -> x + y is a genuine shift, the old variable survives
    assert p.subs("x", X + Y) == X ** 2 + 2 * X * Y + Y ** 2
    assert p.subs("x", XY.const(3)) == XY.const(9)


def test_evaluate():
    p = 2 * X ** 2 * Y - 3
    assert p.evaluate({"x": 2, "y": Fraction(1, 2)}) == 4 - 3


def test_exact_div():
    p = X ** 2 - Y ** 2
    assert p.exact_div(X - Y) == X + Y
    assert p.exact_div(X + Y) == X - Y
    assert (X ** 2 + Y).exact_div(X - Y) is None
    with pytest.raises(ZeroDivisionError):
        p.exact_div(XY.zero())


small = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        e = (draw(st.integers(min_value=0, max_value=3)),
             draw(st.integers(min_value=0, max_value=3)))
        terms[e] = terms.get(e, 0) + draw(small)
    return MultiPoly(XY, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), small, small)
def test_evaluation_is_a_homomorphism(p, q, a, b):
    pt = {"x": Fraction(a), "y": Fraction(b)}
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_exact_div_round_trip(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


# -- exact division against the plain long division -------------------------

XYZ = VarSet(["x", "y", "z"])
P61 = (1 << 61) - 1


def long_div_oracle(num, divisor):
    """Lex long division that rescans the remainder for its leading term."""
    de, dc = divisor.leading()
    rem = dict(num.terms)
    quot = {}
    while rem:
        e = max(rem)
        diff = tuple(a - b for a, b in zip(e, de))
        if any(x < 0 for x in diff):
            return None
        q = Fraction(rem[e], 1) / dc if isinstance(rem[e], int) else rem[e] / dc
        if q.denominator == 1:
            q = int(q)
        quot[diff] = q
        for e2, c2 in divisor.terms.items():
            tgt = tuple(a + b for a, b in zip(diff, e2))
            s = rem.get(tgt, 0) - q * c2
            if s:
                rem[tgt] = s
            else:
                rem.pop(tgt, None)
    return MultiPoly(num.vars, quot)


def assert_same_division(num, divisor):
    got, want = num.exact_div(divisor), long_div_oracle(num, divisor)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert list(got.terms.items()) == list(want.terms.items())


coeffs = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def sparse_polys(draw, min_terms=0):
    n = draw(st.integers(min_value=min_terms, max_value=4))
    terms = {}
    for _ in range(n):
        e = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(3))
        terms[e] = terms.get(e, 0) + draw(coeffs)
    return MultiPoly(XYZ, terms)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sparse_polys(), sparse_polys(min_terms=1))
def test_exact_div_matches_oracle_on_products(p, q):
    if q.is_zero():
        return
    assert_same_division(p * q, q)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(sparse_polys(), sparse_polys(min_terms=1), sparse_polys(min_terms=1))
def test_exact_div_matches_oracle_off_multiples(p, q, r):
    if q.is_zero() or r.is_zero():
        return
    assert_same_division(p * q + r, q)


def mul_oracle(p, q):
    """The product as a double loop of Fraction-or-int coefficient products."""
    a, b = p.terms, q.terms
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return MultiPoly(p.vars, out)


def assert_same_product(p, q):
    got = p * q
    assert got.terms == mul_oracle(p, q).terms
    # no zero is stored, and a coefficient is an int wherever it is integral
    assert all(c != 0 for c in got.terms.values())
    assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sparse_polys(), sparse_polys(), sparse_polys())
def test_mul_matches_oracle(p, q, r):
    assert_same_product(p, q)
    # (q + r)(q - r): the cross terms cancel
    assert_same_product(q + r, q - r)


# Divisors with a non-unit integer content, fractional coefficients or a
# leading coefficient other than 1, divided by long division alone.
scales = st.sampled_from([6, -4, Fraction(1, 3), Fraction(-5, 2), Fraction(4, 9)])


@st.composite
def scaled_polys(draw):
    return draw(sparse_polys(min_terms=1)) * draw(scales)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(p=sparse_polys(), q=scaled_polys(), r=sparse_polys(min_terms=1))
def test_integer_long_division_matches_oracle(p, q, r):
    if q.is_zero():
        return
    assert_same_division(p * q, q)
    if not r.is_zero():
        assert_same_division(p * q + r, q)


def test_integer_long_division_pinned_cases():
    x, y, z = (XYZ.poly(n) for n in XYZ.names)
    f = 6 * x + 4 * y
    q = Fraction(1, 3) * x + Fraction(1, 2)
    got = (f * q).exact_div(f)
    assert list(got.terms.items()) == [((1, 0, 0), Fraction(1, 3)), ((0, 0, 0), Fraction(1, 2))]
    assert_same_division(f * q, f)
    # the first step already leaves 1 mod 2, the leading coefficient of 2x + 1
    assert (x ** 2 + 1).exact_div(2 * x + 1) is None
    assert_same_division(x ** 2 + 1, 2 * x + 1)
    cases = [
        # a large prime denominator, in the numerator or the divisor
        (Fraction(1, P61) * x + y, x + 1),
        (x * y + 1, x + Fraction(1, P61) * y),
        # a divisor with no variable of degree one
        (x ** 2 + y ** 2 + 1, x ** 2 + y ** 2),
        # a large prime as the divisor's leading coefficient
        (y + 1, P61 * x * y + x + 1),
        # a large prime as the coefficient of its only degree-one variable
        (x + 1, x ** 2 + P61 * y),
    ]
    for num, f in cases:
        assert_same_division(num, f)
        assert_same_division(num * f, f)
    num, f = x ** 3 * y + z ** 2 - 2 * x * z, x - y + 3 * z
    assert long_div_oracle(num, f) is None
    assert_same_division(num, f)


# Two-point numbers whose residues divide by the engine's own factors: the
# binomial node forms over 2(l + 1) variables, which sparse_polys never draws.
ENGINE_CASES = [
    ("f3", {}, (2, 1), "z", "z"),
    ("kf0", {}, (2, 1), "z", "z"),
    ("wp1", {}, (1, 1), "z", "w"),
    ("wp3", {}, (1, 1), "z", "w"),
    ("cpn", {"N": 5, "k": 5}, 3, "1", "z"),
    ("wp2", {}, 3, "1", "z"),
]


def test_exact_div_matches_oracle_on_engine_divisions(monkeypatch):
    seen = []
    divide = MultiPoly.exact_div

    def recording(self, divisor):
        seen.append((self, divisor))
        return divide(self, divisor)

    monkeypatch.setattr(MultiPoly, "exact_div", recording)
    for name, params, dd, a, b in ENGINE_CASES:
        geometry(name, **params).two_point(dd, a, b)
    monkeypatch.undo()
    failing = sum(long_div_oracle(num, f) is None for num, f in seen)
    assert failing and len(seen) - failing, (len(seen), failing)
    for num, f in seen:
        assert_same_division(num, f)


# -- rational functions ----------------------------------------------------


def test_ratfunc_merges_and_normalizes_factors():
    r = RatFunc(X, [(2 * X - 2 * Y, 1), (X - Y, 1)])
    # the constant 2 is folded into the numerator, equal factors merge
    assert len(r.den) == 1
    assert r.den[0][1] == 2
    assert r.num == Fraction(1, 2) * X


def test_ratfunc_add_inv():
    one_over_x = RatFunc(XY.const(1), [(X, 1)])
    one_over_y = RatFunc(XY.const(1), [(Y, 1)])
    s = one_over_x + one_over_y
    assert s == RatFunc(X + Y, [(X, 1), (Y, 1)])
    assert -one_over_x == RatFunc(XY.const(-1), [(X, 1)])
    assert one_over_x * one_over_y == RatFunc(XY.const(1), [(X, 1), (Y, 1)])


def test_ratfunc_of_a_ratfunc_takes_no_denominator():
    r = RatFunc(X, [(Y, 1)])
    assert RatFunc(r) == r
    with pytest.raises(TypeError):
        RatFunc(r, [(X, 1)])


def test_ratfunc_zero_denominator_factor():
    with pytest.raises(ZeroDivisionError):
        RatFunc(X, [(XY.zero(), 1)])


def test_ratfunc_reduce_trial_division():
    r = RatFunc((X ** 2 - Y ** 2) * X, [(X - Y, 1), (X, 2)])
    red = r.reduce()
    assert red.num == X + Y
    assert red.den == ((X, 1),)


def test_ratfunc_equality_cross_multiplies():
    a = RatFunc(X ** 2 - Y ** 2, [(X - Y, 1)])
    b = RatFunc(X + Y)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_ratfunc_field_ops_agree_with_evaluation(p, q, r):
    if q.is_zero() or r.is_zero():
        return
    a = RatFunc(p, [(q, 1)])
    b = RatFunc(XY.const(1), [(r, 1)])
    pt = {"x": Fraction(5), "y": Fraction(7, 2)}
    try:
        qa, qb = q.evaluate(pt), r.evaluate(pt)
    except KeyError:
        return
    if qa == 0 or qb == 0:
        return
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
    assert (a - b).evaluate(pt) == a.evaluate(pt) - b.evaluate(pt)


# -- the primitive normal form of denominator factors ------------------------


def monic_ratfunc(num, den):
    """num / prod f^m in the monic normal form, kept as an oracle: every
    factor scaled to lex-leading coefficient 1, equal factors merged by a
    linear scan, constants and scales moved into the numerator."""
    merged, scale = [], Fraction(1)
    for f, m in den:
        if f.is_constant():
            scale *= f.constant_value() ** m
            continue
        lead = Fraction(f.leading()[1])
        f, scale = f * (1 / lead), scale * lead ** m
        for i, (g, mg) in enumerate(merged):
            if g == f:
                merged[i] = (g, mg + m)
                break
        else:
            merged.append((f, m))
    r = object.__new__(RatFunc)     # bypasses the primitive normalisation
    r.vars, r.num = num.vars, num * (1 / scale)
    r.den = tuple(merged) if r.num else ()
    return r


def assert_canonical(r):
    """Every factor primitive over Z with a positive lex-leading coefficient,
    not constant, of positive multiplicity, and no two factors equal."""
    for f, m in r.den:
        assert m > 0 and not f.is_constant()
        assert all(type(c) is int for c in f.terms.values()), f
        assert math.gcd(*f.terms.values()) == 1 and f.leading()[1] > 0, f
    assert len({f for f, _ in r.den}) == len(r.den)
    assert r.den == () or not r.num.is_zero()


def assert_same(r, s):
    """The same numerator and the same factor multiset."""
    assert r.num == s.num and dict(r.den) == dict(s.den)


@st.composite
def factored(draw):
    """A function over XYZ whose factors repeat up to rational scales of
    either sign, with constant factors among them; the numerator is a
    multiple of one of the factors about half the time."""
    base = [draw(sparse_polys(min_terms=1).filter(bool))
            for _ in range(draw(st.integers(1, 3)))]
    den = []
    for _ in range(draw(st.integers(0, 4))):
        scale = draw(coeffs.filter(bool))
        den.append((draw(st.sampled_from(base)) * scale, draw(st.integers(1, 3))))
    num = draw(sparse_polys())
    if draw(st.booleans()):
        num = num * draw(st.sampled_from(base)) ** draw(st.integers(1, 2))
    return num, den


@settings(max_examples=80, deadline=None, derandomize=True)
@given(factored())
def test_constructor_matches_the_monic_normal_form(case):
    num, den = case
    r, oracle = RatFunc(num, den), monic_ratfunc(num, den)
    assert_canonical(r)
    assert r == oracle
    assert len(r.den) == len(oracle.den)
    for f, m in r.den:
        lead = f.leading()[1]
        assert (f * Fraction(1, lead), m) in oracle.den


@settings(max_examples=80, deadline=None, derandomize=True)
@given(factored(), factored())
def test_operations_keep_the_normal_form_without_renormalising(p, q):
    a, b = RatFunc(*p), RatFunc(*q)
    prod = a * b
    assert_canonical(prod)
    assert_same(prod, RatFunc(a.num * b.num, a.den + b.den))
    for out in (a + b, a - b, -a, a.reduce(), prod.reduce()):
        assert_canonical(out)
        assert_same(out, RatFunc(out.num, out.den))
    red = prod.reduce()
    assert red == prod
    for f, _ in red.den:
        assert red.num.exact_div(f) is None


# -- the packed kernels against tuple-keyed Fraction oracles -----------------

HALF = LIMIT // 2   # exponents below HALF keep every product below LIMIT


def varset(n):
    return VarSet(["v%d" % i for i in range(n)])


def exponents(high):
    """Small exponents, and exponents just below `high`."""
    return st.one_of(st.integers(0, 3), st.integers(high - 3, high - 1))


@st.composite
def fraction_terms(draw, n, high, max_terms=4):
    """A tuple-keyed dict of nonzero Fraction coefficients over n variables."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(exponents(high)) for _ in range(n))
        terms[e] = terms.get(e, 0) + Fraction(draw(coeffs))
    return {e: c for e, c in terms.items() if c}


@st.composite
def operands(draw, high, count=2):
    """A VarSet of 1 to 12 variables and `count` term dicts over it."""
    n = draw(st.integers(1, 12))
    return varset(n), [draw(fraction_terms(n, high)) for _ in range(count)]


def f_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def f_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def f_split(a, i):
    out = {}
    for e, c in a.items():
        out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    return out


def f_subs(a, i, value):
    out = {}
    for e, c in a.items():
        term = {e[:i] + (0,) + e[i + 1:]: c}
        for _ in range(e[i]):
            term = f_mul(term, value)
        out = f_add(out, term)
    return out


def assert_packed(p, want):
    """p has the oracle's terms, and its integer numerators over one
    positive denominator are in lowest terms."""
    assert p.terms == want
    assert all(type(c) is int or c.denominator != 1 for c in p.terms.values())
    assert p._d > 0 and all(type(c) is int and c for c in p._n.values())
    assert math.gcd(p._d, *p._n.values()) == 1
    assert p._n or p._d == 1


@settings(max_examples=100, deadline=None)
@given(operands(HALF), coeffs)
def test_packed_mul_and_add_match_the_oracle(case, c):
    vs, (a, b) = case
    p, q = MultiPoly(vs, a), MultiPoly(vs, b)
    assert_packed(p * q, f_mul(a, b))
    assert_packed(p + q, f_add(a, b))
    assert_packed(p - q, f_add(a, {e: -v for e, v in b.items()}))
    assert_packed(p * c, {e: v * c for e, v in a.items() if c})
    assert_packed((p + q) * (p - q), f_mul(f_add(a, b), f_add(a, {e: -v for e, v in b.items()})))


@settings(max_examples=100, deadline=None)
@given(operands(LIMIT), st.data())
def test_packed_add_and_split_match_the_oracle(case, data):
    vs, (a, b) = case
    p, q = MultiPoly(vs, a), MultiPoly(vs, b)
    assert_packed(p + q, f_add(a, b))
    i = data.draw(st.integers(0, len(vs) - 1))
    parts = p.split_by(vs.names[i])
    want = f_split(a, i)
    assert sorted(parts) == sorted(want)
    for j, part in parts.items():
        assert_packed(part, want[j])
    assert p.max_exp(vs.names[i]) == max(want, default=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.data())
def test_packed_subs_matches_the_oracle(n, data):
    vs = varset(n)
    i = data.draw(st.integers(0, n - 1))
    a = data.draw(fraction_terms(n, HALF))
    a = {e[:i] + (e[i] % 4,) + e[i + 1:]: c for e, c in a.items()}
    value = data.draw(fraction_terms(n, 3, max_terms=3))
    got = MultiPoly(vs, a).subs(vs.names[i], MultiPoly(vs, value))
    assert_packed(got, f_subs(a, i, value))


@settings(max_examples=80, deadline=None)
@given(operands(HALF), st.data())
def test_packed_exact_div_matches_the_oracle(case, data):
    vs, (a, b) = case
    p, q = MultiPoly(vs, a), MultiPoly(vs, b)
    if q.is_zero():
        return
    quot = (p * q).exact_div(q)
    assert_packed(quot, a)
    assert_same_division(p * q, q)
    r = MultiPoly(vs, data.draw(fraction_terms(len(vs), 4)))
    miss = (p * q + r).exact_div(q)
    assert_same_division(p * q + r, q)
    if miss is not None:
        assert_packed(miss, f_add(a, r.exact_div(q).terms))


def test_a_product_past_the_field_limit_raises_and_does_not_wrap():
    for n in (1, 2, 7, 12):
        vs = varset(n)
        for i in sorted({0, n // 2, n - 1}):
            name, e = vs.names[i], [0] * n
            v, first = vs.poly(name), vs.poly(vs.names[0])
            e[i] = LIMIT - 2
            below = vs.monomial(e)
            e[i] = LIMIT - 1
            assert (below * v).terms == {tuple(e): 1}
            top = vs.monomial(e)
            e[i] = HALF
            half = vs.monomial(e)
            for make in (lambda: top * v, lambda: v * top,
                         lambda: (top + 1) * (v + first), lambda: half * half,
                         lambda: half ** 2, lambda: (v + half) * (half - 2)):
                with pytest.raises(OverflowError):
                    make()
    # long division whose remainder reaches a guard bit has no quotient;
    # carried on, the third step would wrap y^(3 LIMIT - 3) onto x*y^(LIMIT - 3)
    f = X + Y ** (LIMIT - 1)
    for num in (X ** 3, X ** 3 + X * Y ** (LIMIT - 3)):
        assert num.exact_div(f) is None
        assert_same_division(num, f)


@settings(max_examples=60, deadline=None)
@given(operands(HALF, count=3))
def test_equality_and_hash_agree_across_constructions(case):
    vs, (a, b, c) = case
    p, q, r = (MultiPoly(vs, t) for t in (a, b, c))
    built = p * q + r
    again = MultiPoly(vs, built.terms)
    assert built == again and hash(built) == hash(again)
    assert {built: 1}.get(again) == 1
    third = p * Fraction(1, 3)
    assert third * 3 == p and hash(third * 3) == hash(p)
    assert p - p == vs.zero() and hash(p - p) == hash(vs.zero())
    assert (p == q) == (a == b)


def test_mutating_terms_leaves_the_polynomial_unchanged():
    want = {(1, 0): Fraction(1, 2), (0, 2): 3}
    p = MultiPoly(XY, want)
    t = p.terms
    t[(1, 0)] = 7
    t[(5, 5)] = 1
    del t[(0, 2)]
    assert p.terms == want
    assert p == MultiPoly(XY, want)
    assert (p * 2).terms == {(1, 0): 1, (0, 2): 6}
    p.terms.clear()
    assert len(p.terms) == 2 and p.leading() == ((1, 0), Fraction(1, 2))


# -- the boundaries the benchmark's tracer wraps ----------------------------

# bench/tracer.py wraps these methods where the class dict holds them and
# reads len(result.terms), or len(result.num.terms) for a RatFunc.  A
# representation change that moves one of them, or that drops the terms
# view, would break the traced benchmark run.
TRACED = {MultiPoly: ("__mul__", "exact_div", "subs"), RatFunc: ("reduce", "__add__")}


def test_traced_boundaries_stay_own_methods_with_sized_results(monkeypatch):
    results = []
    for cls, names in TRACED.items():
        for name in names:
            assert name in cls.__dict__, (cls.__name__, name)

            def wrapper(*args, _name=name, _orig=cls.__dict__[name], **kwargs):
                out = _orig(*args, **kwargs)
                results.append((_name, out))
                return out

            monkeypatch.setattr(cls, name, wrapper)
    for name, params, dd, a, b in ENGINE_CASES[:3] + ENGINE_CASES[-1:]:
        geometry(name, **params).two_point(dd, a, b)
    monkeypatch.undo()
    assert {name for name, _ in results} == {n for names in TRACED.values() for n in names}
    for name, out in results:
        if out is None or out is NotImplemented:
            continue
        poly = out.num if isinstance(out, RatFunc) else out
        assert len(poly.terms) >= 0, name
