"""Sparse multivariate polynomials and rational functions over the rationals.

Every coefficient is an exact rational; no floats ever enter.  A polynomial
over a fixed ordered :class:`VarSet` is a dict ``_n`` from packed monomial
to nonzero integer numerator over one denominator ``_d > 0``, in lowest
terms (``gcd(_d, *_n.values()) == 1``; ``_d == 1`` for zero).  A monomial
packs into one int, a 16-bit field per variable with the first variable
highest, so integer order is lex order and a product of monomials is a sum
of keys.  Exponents stay below 2^15: the top bit of each field is a guard,
and a product reaching one raises OverflowError rather than carrying
(Monagan and Pearce, "Sparse polynomial division using a heap", JSC 46
(2011)).  Products, sums, splits and exact division run on these ints
alone; the tuple-keyed view ``terms`` (an int where a coefficient is
integral, a reduced Fraction elsewhere) is built only when asked for.

A rational function keeps its denominator as (factor, multiplicity) pairs,
each factor a primitive integer polynomial, and never expands it.
Rational functions are only added and multiplied, never inverted: a
residue divides only by polynomial factors, which join the denominator
with their contents moved into the numerator.  Cancellation is by trial
division of the numerator by denominator factors only, which is all the
residue calculus downstream needs.
"""

import heapq
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import index, or_

_FIELD = 16             # bits per variable in a packed monomial
_LIMIT = 1 << 15        # exponent bound; bit 15 of each field is its guard
_MASK = _LIMIT - 1


def _as_coeff(c):
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError("coefficient must be an int or Fraction, got %r" % (c,))


class VarSet:
    """An ordered, immutable set of variable names.

    Exponent tuples of every polynomial built against this set are indexed
    by position in `names`, and packed into one int per monomial.  Two
    VarSets compare equal iff their name tuples are equal; mixing
    polynomials from different sets is an error.
    """

    __slots__ = ("names", "_index", "_shifts", "_guard")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names: %r" % (names,))
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self._shifts = tuple(_FIELD * i for i in reversed(range(len(names))))
        self._guard = sum(_LIMIT << s for s in self._shifts)

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

    def _pack(self, exps):
        """The packed key of an exponent tuple, validated."""
        exps = tuple(exps)
        if len(exps) != len(self.names):
            raise ValueError("exponent tuple %r has %d entries, %r needs %d"
                             % (exps, len(exps), self, len(self.names)))
        key = 0
        for e in exps:
            e = index(e)
            if e < 0:
                raise ValueError("negative exponent in %r" % (exps,))
            if e >= _LIMIT:
                raise OverflowError("exponent %d is past the field limit 2^15" % e)
            key = key << _FIELD | e
        return key

    def _unpack(self, key):
        return tuple(key >> s & _MASK for s in self._shifts)

    def zero(self):
        return _raw(self, {}, 1)

    def const(self, c):
        c = _as_coeff(c)
        return _raw(self, {0: c.numerator} if c else {}, c.denominator)

    def poly(self, name):
        """The variable `name` as a degree-one monomial."""
        return _raw(self, {1 << self._shifts[self.index(name)]: 1}, 1)

    def monomial(self, exps, c=1):
        key, c = self._pack(exps), _as_coeff(c)
        return _raw(self, {key: c.numerator} if c else {}, c.denominator)


def _raw(vars_, n, d):
    """The polynomial n / d, already in lowest terms; nothing is checked."""
    p = object.__new__(MultiPoly)
    p.vars, p._n, p._d, p._terms, p._hash = vars_, n, d, None, None
    return p


def _lowest(vars_, n, d):
    """The polynomial n / d (nonzero int numerators, d > 0) in lowest terms."""
    if d != 1:
        g = gcd(d, *n.values())
        if g != 1:
            n = {k: c // g for k, c in n.items()}
            d //= g
    return _raw(vars_, n, d)


def _mul_n(a, b, guard, n=None):
    """The product of two numerator dicts, added into n when one is given.

    The one integer product kernel: keys add, numerators multiply, zeros
    are dropped, and a key reaching a guard bit raises OverflowError.
    """
    if len(a) > len(b):
        a, b = b, a
    if n is None and len(a) == 1:
        (k1, c1), = a.items()
        n = {k1 + k2: c1 * c2 for k2, c2 in b.items()}
    else:
        n = {} if n is None else n
        get = n.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                n[k] = get(k, 0) + c1 * c2
        if not all(n.values()):
            n = {k: c for k, c in n.items() if c}
    if reduce(or_, n, 0) & guard:
        raise OverflowError("a product exponent reaches the field limit 2^15")
    return n


def _coeff(c, d):
    q, r = divmod(c, d)
    return Fraction(c, d) if r else q


class MultiPoly:
    """A sparse polynomial: integer numerators of packed monomials over one
    denominator (see the module docstring).

    ``MultiPoly(vars, {exponent tuple: int or Fraction})`` validates its
    input and drops zeros.  Treat instances as immutable: arithmetic always
    returns new objects.
    """

    __slots__ = ("vars", "_n", "_d", "_terms", "_hash")

    def __init__(self, vars_, terms):
        pack = vars_._pack
        coeffs = {}
        for e, c in terms.items():
            key = pack(e)
            if _as_coeff(c):
                coeffs[key] = c
        d = lcm(*(c.denominator for c in coeffs.values()))
        self.vars, self._d, self._terms, self._hash = vars_, d, None, None
        self._n = {k: c.numerator * (d // c.denominator) for k, c in coeffs.items()}

    @property
    def terms(self):
        """A new dict {exponent tuple: coefficient}, each coefficient an int
        where it is integral and a reduced Fraction elsewhere."""
        t = self._terms
        if t is None:
            unpack, d = self.vars._unpack, self._d
            t = self._terms = {unpack(k): _coeff(c, d) for k, c in self._n.items()}
        return dict(t)

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self._n

    def is_constant(self):
        return not any(self._n)

    def constant_value(self):
        """The value of a constant polynomial, as a plain rational."""
        if not self.is_constant():
            raise ValueError("not a constant: %r" % self)
        return Fraction(self._n.get(0, 0), self._d)

    def max_exp(self, name):
        s = self.vars._shifts[self.vars.index(name)]
        return max((k >> s & _MASK for k in self._n), default=0)

    def leading(self):
        """(exponent tuple, coefficient) of the lexicographically largest term."""
        k = max(self._n)
        return self.vars._unpack(k), _coeff(self._n[k], self._d)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.vars is not other.vars and self.vars != other.vars:
            raise ValueError("mixing distinct variable sets")

    def _scaled(self, c):
        """self * c for a rational c, in lowest terms without a gcd pass over
        the product: only c's denominator can share a factor with self's
        numerators, and only its numerator with self's denominator."""
        num, den = c.numerator, c.denominator
        if not num:
            return self.vars.zero()
        g, h = gcd(num, self._d), gcd(den, *self._n.values())
        f = num // g
        n = {k: v // h * f for k, v in self._n.items()}
        return _raw(self.vars, n, self._d // g * (den // h))

    def __add__(self, other):
        if type(other) is not MultiPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.vars.const(other)
        self._check(other)
        a, b = (self, other) if len(self._n) >= len(other._n) else (other, self)
        d, m = a._d, 1
        if d == b._d:
            n = dict(a._n)
        else:
            g = gcd(d, b._d)
            ma, m = b._d // g, d // g
            n = {k: c * ma for k, c in a._n.items()}
            d *= ma
        get = n.get
        for k, c in b._n.items():
            s = get(k, 0) + c * m
            if s:
                n[k] = s
            else:
                del n[k]
        return _lowest(self.vars, n, d)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.vars, {k: -c for k, c in self._n.items()}, self._d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not MultiPoly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._scaled(other)
        self._check(other)
        n = _mul_n(self._n, other._n, self.vars._guard)
        return _lowest(self.vars, n, self._d * other._d)

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
        if type(other) is not MultiPoly:
            if not isinstance(other, (int, Fraction)):
                return False
            other = self.vars.const(other)
        return (self.vars == other.vars
                and self._d == other._d and self._n == other._n)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.vars, self._d, frozenset(self._n.items())))
        return h

    def __bool__(self):
        return bool(self._n)

    def __repr__(self):
        if not self._n:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
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

    def _split(self, name):
        """{j: numerator dict of A_j} with self = sum_j v^j * A_j / self._d."""
        s = self.vars._shifts[self.vars.index(name)]
        out = {}
        for k, c in self._n.items():
            j = k >> s & _MASK
            out.setdefault(j, {})[k - (j << s)] = c
        return out

    def split_by(self, name):
        """Decompose as sum_j v^j * A_j(rest); returns {j: MultiPoly}.

        Each A_j lives on the same VarSet with zero exponent in `name`.
        """
        return {j: _lowest(self.vars, n, self._d)
                for j, n in self._split(name).items()}

    def subs(self, name, value):
        """Substitute `value` (polynomial or rational) for the variable.

        The value may itself involve the variable it replaces; the split is
        taken first, so e.g. subs("z", z + a) is the shift z -> z + a.  With
        value = V / e, the result is sum_j A_j V^j e^(top - j) over the one
        denominator d e^top: each power V^j is built once, and every product
        runs on integer numerators, with one gcd at the end.
        """
        if isinstance(value, (int, Fraction)):
            value = self.vars.const(value)
        self._check(value)
        parts = self._split(name)
        top = max(parts, default=0)
        guard, e = self.vars._guard, value._d
        power, acc = {0: 1}, {}
        for j in range(top + 1):
            if j:
                power = _mul_n(power, value._n, guard)
            if j in parts:
                scale = e ** (top - j)
                a = {k: c * scale for k, c in parts[j].items()}
                acc = _mul_n(a, power, guard, acc)
        return _lowest(self.vars, acc, self._d * e ** top)

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
        remainder term from a heap.  The numerators N of self are integers,
        and F = (divisor's numerators) / g, with g their gcd, is primitive.
        By Gauss's lemma a quotient of an integer polynomial by a primitive
        one over Q has integer coefficients, and long division only ever
        emits terms of that quotient; so each step divides exactly by F's
        leading coefficient, and a step whose leading monomial F's does not
        divide, or that leaves a remainder, proves that F does not divide.
        An exact quotient keeps every remainder exponent below N's, so a
        remainder term at a guard bit proves the same.  The quotient is
        scaled back once at the end.
        """
        self._check(divisor)
        f = divisor._n
        if not f:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._n:
            return self
        guard = self.vars._guard
        g = gcd(*f.values())
        lk = max(f)
        lead = f[lk] // g
        tail = [(k, -c // g) for k, c in f.items() if k != lk]
        rem = dict(self._n)
        # Keys are negated in the min-heap so it pops the lex-largest term;
        # keys cancelled meanwhile are skipped lazily.
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quot = {}
        while rem:
            k = -heapq.heappop(heap)
            c = rem.pop(k, None)
            if c is None:
                continue
            if k & guard or ((k | guard) - lk) & guard != guard:
                return None
            q, r = divmod(c, lead)
            if r:
                return None
            k -= lk
            quot[k] = q
            for k2, c2 in tail:
                t = k + k2
                old = rem.get(t)
                if old is None:
                    rem[t] = q * c2
                    heapq.heappush(heap, -t)
                    continue
                s = old + q * c2
                if s:
                    rem[t] = s
                else:
                    del rem[t]
        df = divisor._d
        if df != 1:
            quot = {k: q * df for k, q in quot.items()}
        return _lowest(self.vars, quot, self._d * g)


def _primitive(f):
    """(p, g, d) with f = (g / d) * p, p a primitive integer polynomial
    whose lex-leading coefficient is positive."""
    n = f._n
    g = gcd(*n.values())
    g = g if n[max(n)] > 0 else -g
    if g == 1 and f._d == 1:
        return f, 1, 1
    return _raw(f.vars, {k: c // g for k, c in n.items()}, 1), g, f._d


def _normal(num, den):
    """num / prod f^m over (f, m) pairs already primitive and distinct."""
    r = object.__new__(RatFunc)
    r.vars, r.num, r.den = num.vars, num, tuple(den) if num._n else ()
    return r


def _cancel(num, den, factors):
    """num / (den * factors), each (f, m) in factors cancelled against num as
    often as f divides it exactly; den is a dict of factors that stay."""
    for f, m in factors:
        while m and num._n:
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
        sn = sd = 1             # the factors' constants: num takes sd / sn
        for f, m in den:
            if m == 0:
                continue
            if m < 0:
                raise ValueError("negative multiplicity in denominator")
            if f.is_zero():
                raise ZeroDivisionError("zero factor in denominator")
            f, g, d = _primitive(f)
            sn, sd = sn * g ** m, sd * d ** m
            if any(f._n):
                merged[f] = merged.get(f, 0) + m
        if sn != sd:
            num = num * Fraction(sd, sn)
        self.num = num
        self.den = tuple(merged.items()) if num._n else ()

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
        if self.vars is not other.vars and self.vars != other.vars:
            raise ValueError("mixing distinct variable sets")

    def _coerce(self, other):
        if type(other) is RatFunc:
            return other
        if type(other) is MultiPoly:
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.vars.const(other))
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

