"""Sparse multivariate polynomials and rational functions over the rationals.

Every coefficient is an exact rational (a Python int or a
:class:`fractions.Fraction`); no floats ever enter.  A polynomial is a dict
mapping exponent tuples to coefficients, indexed against a fixed ordered
:class:`VarSet`.  A rational function keeps its denominator as (factor,
multiplicity) pairs, each factor a primitive integer polynomial, and never
expands it.  Rational functions are added, multiplied and substituted
into, never inverted: a residue divides only by polynomial factors, which
join the denominator with their contents moved into the numerator.
Cancellation is by trial division of the numerator by denominator factors
only, which is all the residue calculus downstream needs.

The two hot kernels run on integers.  A product brings each factor to
integer numerators over the lcm of its denominators, convolves in Python
ints and divides by the common denominator once per output term.  Exact
division is heap-ordered long division over Z by the divisor's primitive
part (Monagan and Pearce, "Sparse polynomial division using a heap", JSC 46
(2011)); see :meth:`MultiPoly.exact_div`.  Results keep the usual
coefficients: an int where the value is integral, a reduced Fraction
elsewhere.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm
from operator import add, sub


class IdenticallySingular(ArithmeticError):
    """A substitution or expansion made a denominator factor vanish identically."""


def _as_coeff(c):
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError("coefficient must be an int or Fraction, got %r" % (c,))


class VarSet:
    """An ordered, immutable set of variable names.

    Exponent tuples of every polynomial built against this set are indexed
    by position in `names`.  Two VarSets compare equal iff their name tuples
    are equal; mixing polynomials from different sets is an error.
    """

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "VarSet(%s)" % ", ".join(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("no variable %r in %r" % (name, self)) from None

    def zero(self):
        return MultiPoly(self, {})

    def const(self, c):
        c = _as_coeff(c)
        if c == 0:
            return MultiPoly(self, {})
        return MultiPoly(self, {(0,) * len(self.names): c})

    def poly(self, name):
        """The variable `name` as a degree-one monomial."""
        e = [0] * len(self.names)
        e[self.index(name)] = 1
        return MultiPoly(self, {tuple(e): 1})

    def monomial(self, exps, c=1):
        exps = tuple(exps)
        if len(exps) != len(self.names):
            raise ValueError("exponent tuple %r has %d entries, %r needs %d"
                             % (exps, len(exps), self, len(self.names)))
        if c == 0:
            return MultiPoly(self, {})
        return MultiPoly(self, {exps: _as_coeff(c)})


class MultiPoly:
    """A sparse polynomial: {exponent tuple: nonzero rational coefficient}.

    Treat instances as immutable.  Arithmetic always returns new objects and
    never stores a zero coefficient.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars_, terms):
        self.vars = vars_
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        """The value of a constant polynomial, as a plain rational."""
        if not self.terms:
            return Fraction(0)
        (e, c), = self.terms.items()
        if any(e):
            raise ValueError("not a constant: %r" % self)
        return Fraction(c)

    def max_exp(self, name):
        i = self.vars.index(name)
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def leading(self):
        """(exponent tuple, coefficient) of the lexicographically largest term."""
        e = max(self.terms)
        return e, self.terms[e]

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("mixing distinct variable sets")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.vars.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.vars.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.vars.zero()
            return MultiPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        a, da = _integral(self.terms)
        b, db = _integral(other.terms)
        if len(a) > len(b):
            a, b = b, a
        out = {}
        get = out.get
        for e1, c1 in a:
            for e2, c2 in b:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return _over(self.vars, out, da * db)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            base = base * base if n > 1 else base
            n >>= 1
        return self.vars.const(1) if out is None else out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.vars.const(other)
        return isinstance(other, MultiPoly) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                n if k == 1 else "%s^%d" % (n, k)
                for n, k in zip(self.vars.names, e) if k
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append("-" + mono)
            else:
                bits.append("%s*%s" % (c, mono))
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    # -- substitution and evaluation --------------------------------------

    def split_by(self, name):
        """Decompose as sum_j v^j * A_j(rest); returns {j: MultiPoly}.

        Each A_j lives on the same VarSet with zero exponent in `name`.
        """
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            j = e[i]
            rest = e[:i] + (0,) + e[i + 1:]
            d = out.setdefault(j, {})
            d[rest] = d.get(rest, 0) + c
        return {j: MultiPoly(self.vars, d) for j, d in out.items()}

    def subs(self, name, value):
        """Substitute `value` (polynomial or rational) for the variable.

        The value may itself involve the substituted variable; the split is
        taken first, so e.g. subs("z", z + a) is the shift z -> z + a.
        """
        if isinstance(value, (int, Fraction)):
            value = self.vars.const(value)
        self._check(value)
        parts = self.split_by(name)
        # Horner over descending powers keeps the number of multiplies at
        # max-exponent even for sparse splits.
        degs = sorted(parts, reverse=True)
        top = degs[0] if degs else 0
        acc = self.vars.zero()
        for j in range(top, -1, -1):
            if j != top:
                acc = acc * value
            if j in parts:
                acc = acc + parts[j]
        return acc

    def evaluate(self, assignment):
        """Full evaluation; `assignment` maps every used variable name to a rational."""
        total = Fraction(0)
        vals = [assignment.get(n) for n in self.vars.names]
        for e, c in self.terms.items():
            v = Fraction(c)
            for x, k in zip(vals, e):
                if k:
                    if x is None:
                        raise KeyError("unassigned variable with nonzero exponent")
                    v *= Fraction(x) ** k
            total += v
        return total

    def exact_div(self, divisor):
        """Exact polynomial quotient self/divisor, or None if it does not divide.

        Long division over Z in lexicographic term order, taking the leading
        remainder term from a heap.  self * dn and divisor * df have integer
        coefficients, and F = divisor * df / g, with g the gcd of the
        latter, is primitive.  By Gauss's lemma a quotient of an integer
        polynomial by a primitive one over Q has integer coefficients, and
        long division only ever emits terms of that quotient; so each step
        divides exactly by F's leading coefficient, and a step whose leading
        monomial F's does not divide, or that leaves a remainder, proves
        that F does not divide.  The quotient is scaled back once at the end.
        """
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        # Exponents are kept negated, so the min-heap of remainder keys pops
        # the lex-largest term; keys cancelled meanwhile are skipped lazily.
        num, dn = _integral(self.terms)
        f, df = _integral(divisor.terms)
        g = gcd(*(c for _, c in f))
        neg = [(tuple(-x for x in e), c // g) for e, c in f]
        nde, lead = min(neg)
        rem = {tuple(-x for x in e): c for e, c in num}
        heap = list(rem)
        heapq.heapify(heap)
        quot = {}
        while rem:
            ne = heapq.heappop(heap)
            c = rem.get(ne)
            if c is None:
                continue
            ndiff = tuple(map(sub, ne, nde))
            if any(x > 0 for x in ndiff):
                return None
            q, r = divmod(c, lead)
            if r:
                return None
            quot[tuple(-x for x in ndiff)] = q * df
            for ne2, c2 in neg:
                tgt = tuple(map(add, ndiff, ne2))
                old = rem.get(tgt)
                if old is None:
                    rem[tgt] = -q * c2
                    heapq.heappush(heap, tgt)
                    continue
                s = old - q * c2
                if s:
                    rem[tgt] = s
                else:
                    del rem[tgt]
        return _over(self.vars, quot, dn * g)


def _integral(terms):
    """(items, den): the terms as (exponent, integer numerator) pairs over
    den, the lcm of the coefficients' denominators."""
    den = lcm(*{c.denominator for c in terms.values() if type(c) is not int})
    return [(e, c * den if type(c) is int else c.numerator * (den // c.denominator))
            for e, c in terms.items()], den


def _over(vars_, nums, den):
    """The polynomial with coefficients nums[e] / den: zeros dropped, an int
    where den divides, a reduced Fraction elsewhere.  nums is taken over and
    rewritten in place; the filtering constructor is bypassed."""
    if not all(nums.values()):
        nums = {e: c for e, c in nums.items() if c}
    if den != 1:
        for e, c in nums.items():
            q, r = divmod(c, den)
            nums[e] = Fraction(c, den) if r else q
    p = object.__new__(MultiPoly)
    p.vars, p.terms = vars_, nums
    return p


def _primitive(f):
    """(p, s) with f = s * p, p a primitive integer polynomial whose
    lex-leading coefficient is positive."""
    items, den = _integral(f.terms)
    g = gcd(*(c for _, c in items))
    g = g if f.leading()[1] > 0 else -g
    if g == 1 and all(type(c) is int for c in f.terms.values()):
        return f, 1
    return _over(f.vars, {e: c // g for e, c in items}, 1), Fraction(g, den)


def _normal(num, den):
    """num / prod f^m over (f, m) pairs already primitive and distinct."""
    r = object.__new__(RatFunc)
    r.vars, r.num, r.den = num.vars, num, tuple(den) if num.terms else ()
    return r


def _cancel(num, den, factors):
    """num / (den * factors), each (f, m) in factors cancelled against num as
    often as f divides it exactly; den is a dict of factors that stay."""
    for f, m in factors:
        while m and num.terms:
            q = num.exact_div(f)
            if q is None:
                break
            num, m = q, m - 1
        if m:
            den[f] = den.get(f, 0) + m
    return _normal(num, den.items())


class RatFunc:
    """num / prod(factor_i ^ mult_i), all over one VarSet.

    Denominator factors are distinct primitive integer polynomials with a
    positive lex-leading coefficient; the constructor moves their contents
    and any constant factor into the numerator.  Products, sums and reduce
    only merge factors already in this form.  The denominator is never
    expanded.
    """

    __slots__ = ("vars", "num", "den")

    def __init__(self, num, den=()):
        if isinstance(num, RatFunc):
            if den:
                raise TypeError("a RatFunc numerator takes no denominator factors")
            self.vars, self.num, self.den = num.vars, num.num, num.den
            return
        self.vars = num.vars
        merged = {}
        scale = Fraction(1)
        for f, m in den:
            if m == 0:
                continue
            if m < 0:
                raise ValueError("negative multiplicity in denominator")
            if f.is_zero():
                raise ZeroDivisionError("zero factor in denominator")
            if f.is_constant():
                scale *= Fraction(f.constant_value()) ** m
                continue
            f, s = _primitive(f)
            if s != 1:
                scale *= s ** m
            merged[f] = merged.get(f, 0) + m
        if scale != 1:
            num = num * (1 / scale)
        self.num = num
        self.den = tuple(merged.items()) if num.terms else ()

    def is_zero(self):
        return self.num.is_zero()

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        ds = " * ".join(
            "(%r)" % (f,) if m == 1 else "(%r)^%d" % (f, m) for f, m in self.den
        )
        return "(%r) / [%s]" % (self.num, ds)

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError("mixing distinct variable sets")

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.vars.const(other))
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        if isinstance(other, RatFunc):
            return other
        return None

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check(o)
        den = dict(self.den)
        for f, m in o.den:
            den[f] = den.get(f, 0) + m
        return _normal(self.num * o.num, den.items())

    __rmul__ = __mul__

    def __neg__(self):
        return _normal(-self.num, self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check(o)
        # common denominator: for each factor take the max multiplicity
        factors = {}
        for f, m in self.den:
            factors[f] = max(factors.get(f, 0), m)
        for f, m in o.den:
            factors[f] = max(factors.get(f, 0), m)
        a, b = self.num, o.num
        mine, theirs = dict(self.den), dict(o.den)
        for f, m in factors.items():
            need = m - mine.get(f, 0)
            if need:
                a = a * f ** need
            need = m - theirs.get(f, 0)
            if need:
                b = b * f ** need
        return _normal(a + b, factors.items())

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).num.is_zero()

    def substitute(self, name, value):
        """Substitute a polynomial or a rational constant for a variable, in
        the numerator and in every denominator factor.

        `value` must not involve the substituted variable; a value with a
        denominator is a TypeError.  Raises IdenticallySingular when a
        denominator factor becomes identically zero (the substitution lands
        on a pole).
        """
        pv = self._coerce(value)
        if pv is None or pv.den:
            raise TypeError("cannot substitute %r" % (value,))
        if pv.num.max_exp(name) > 0:
            raise ValueError("substituted value may not involve %r" % name)
        num = self.num.subs(name, pv.num)
        den = []
        for f, m in self.den:
            g = f.subs(name, pv.num)
            if g.is_zero():
                raise IdenticallySingular(
                    "denominator factor %r vanishes at %s = %r" % (f, name, pv.num))
            den.append((g, m))
        return RatFunc(num, den)

    def reduce(self):
        """Cancel denominator factors that divide the numerator exactly."""
        return _cancel(self.num, {}, self.den)

    def evaluate(self, assignment):
        v = self.num.evaluate(assignment)
        for f, m in self.den:
            fv = f.evaluate(assignment)
            if fv == 0:
                raise ZeroDivisionError("denominator factor vanishes at the point")
            v /= fv ** m
        return v

    def as_rational(self):
        """The value of a variable-free function, as a Fraction."""
        r = self.reduce()
        v = r.num.constant_value()
        for f, m in r.den:
            v /= Fraction(f.constant_value()) ** m
        return v


# -- serialization --------------------------------------------------------

def frac_to_str(c):
    """Exact decimal-free text form: "num/den", with "/den" omitted when 1."""
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def frac_from_str(s):
    """The rational a frac_to_str text denotes.  Only text is accepted: a
    JSON float has already lost its exact value."""
    if not isinstance(s, str):
        raise TypeError("exact rational text expected, got %r" % (s,))
    return Fraction(s)
