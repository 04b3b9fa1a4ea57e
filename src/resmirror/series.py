"""Truncated exponential series, mirror maps, and their transforms.

The objects here are finite sums c . x + c0 + sum_dd coef(dd) e^{dd . x}
over n slots x_1 .. x_n, truncated by the total degree |dd|.  The slot
count n is the length of the affine part c and a degree is an n-tuple, so
every routine below is written once for any n.  Generating functions of
two-point numbers have one slot per Kahler form, and at least two
(_slots): the affine part collects the classical triple pairings against
the degree-one classes, the exponential part the quantum numbers.
Contracting the unit-insertion generating functions with the inverse
pairing block (Gauss-Jordan elimination) yields the mirror map; inverting
it in one sweep over the total degree and composing gives the transformed
series, whose coefficients are the invariants on the other side of the
correspondence (vsc.gmt_upto3 is the closed form through degree three).

Transcendental operations are first-order recurrences over the total
degree, never sums of truncated powers (Brent and Kung, JACM 25 (1978)):
the exponential solves theta E = (theta s) E for the Euler derivation
theta, and the reciprocal of a unit solves u v = 1, each at about the cost
of one product and with the exact rationals a power sum would give.  Both
run on _graded_recurrence, which the mirror-map inversion also drives
online.  The modular expansion is reverted by Lagrange's form with
Miller's recurrence, checked against _j_from_weights.  Every product,
recurrence and composition runs on one kernel, _convolve, over integer
numerators on one denominator per operand or per degree and with each
degree packed into one integer (_grid).
"""

import math
from fractions import Fraction
from itertools import accumulate, product
from operator import add, mul

from .cache import cached_two_point, frac_from_str, frac_to_str
from .geoms import Insertion, _check_int, geometry, parse_insertion

_F0, _F1 = Fraction(0), Fraction(1)


class InvalidExp(ValueError):
    """Exponential of a series whose affine part does not vanish."""


class SingularMetric(ArithmeticError):
    """The pairing block needed for a mirror map is not invertible."""


def _exact(c):
    """c as a Fraction; a float is refused, as a polynomial coefficient is."""
    if isinstance(c, (int, Fraction)):
        return c if type(c) is Fraction else Fraction(c)
    raise TypeError("coefficient must be an int or Fraction, got %r" % (c,))


def _axis(i, n):
    """The affine part of the coordinate x_i among n slots."""
    return tuple(_F1 if j == i else _F0 for j in range(n))


def _order(dd):
    """By total, then each entry descending: pretty's and the generating
    functions' order."""
    return sum(dd), [-d for d in dd]


def _grid(n, D):
    """(pack, unpack) for degrees on n slots of total at most D, packed as
    sum_i dd_i (D + 1)^i.  No entry of a sum within the bound passes D, so
    adding two keys adds their degrees, and the kernel adds integers."""
    base = D + 1
    powers = [base ** i for i in range(n)]
    return (lambda dd: sum(map(mul, dd, powers)),
            lambda key: tuple(key // p % base for p in powers))


def _integral(terms, pack):
    """(items, den): rational terms as (packed degree, integer numerator)
    pairs over den, the lcm of their denominators."""
    den = math.lcm(*{c.denominator for c in terms.values()})
    return [(pack(e), c.numerator * (den // c.denominator))
            for e, c in terms.items()], den


def _convolve(acc, xs, ys, scale=1):
    """acc[m + e] += scale * x * y over (m, x) in xs and (e, y) in ys: the
    one kernel of every product, recurrence and composition here."""
    for m, x in xs:
        x *= scale
        for e, y in ys:
            k = m + e
            acc[k] = acc.get(k, 0) + x * y


class GradedSeries:
    """One element of the truncated ring described in the module docstring.
    Degrees are len(affine)-tuples of non-negative ints, not all zero (the
    constant is its own field); every operation truncates by total degree.
    """

    __slots__ = ("affine", "const", "terms", "trunc")

    def __init__(self, affine=(0, 0), const=0, terms=None, trunc=0):
        self.affine = tuple(map(_exact, affine))
        self.const = _exact(const)
        self.trunc = _check_int("truncation bound", trunc)
        if trunc < 0:
            raise ValueError("truncation bound must be non-negative")
        n, clean = len(self.affine), {}
        if terms:
            for dd, c in terms.items():
                if not (isinstance(dd, tuple) and len(dd) == n and any(dd)
                        and all(type(d) is int and d >= 0 for d in dd)):
                    raise ValueError("bad exponential degree %r" % (dd,))
                c = _exact(c)
                if c and sum(dd) <= trunc:
                    clean[dd] = c
        self.terms = clean

    # -- inspection --------------------------------------------------------

    def coefficient(self, dd):
        if not (isinstance(dd, tuple) and len(dd) == len(self.affine)
                and all(type(d) is int for d in dd)):
            raise ValueError("bad exponential degree %r" % (dd,))
        return self.terms.get(dd, _F0) if any(dd) else self.const

    def is_zero(self):
        return not any(self.affine) and self.const == 0 and not self.terms

    def quantum_part(self):
        """The pure exponential terms, with affine and constant dropped."""
        return GradedSeries((0,) * len(self.affine), 0, self.terms, self.trunc)

    def __eq__(self, other):
        return (isinstance(other, GradedSeries)
                and self.affine == other.affine and self.const == other.const
                and self.terms == other.terms and self.trunc == other.trunc)

    def __repr__(self):
        return "<series %s | trunc %d>" % (self.pretty(), self.trunc)

    def pretty(self, names=None):
        """Plain text, low degrees first: the slots are names (x1 .. xn) and
        the exponentials q1 .. qn, or q when only the first slot occurs."""
        n = len(self.affine)
        names = names or ["x%d" % (i + 1) for i in range(n)]
        chunks = [(c, label) for c, label in zip(self.affine, names) if c]
        if self.const:
            chunks.append((self.const, ""))
        single = not any(self.affine[1:]) and not any(any(dd[1:]) for dd in self.terms)
        qs = ["q"] if single else ["q%d" % (i + 1) for i in range(n)]
        for dd in sorted(self.terms, key=_order):
            chunks.append((self.terms[dd], "*".join(
                q if d == 1 else "%s^%d" % (q, d) for q, d in zip(qs, dd) if d)))
        text = " ".join("%s %s" % ("-" if c < 0 else "+", label if abs(c) == 1 and label
                                   else "%s*%s" % (abs(c), label) if label else abs(c))
                        for c, label in chunks)
        return ("" if text[:1] == "+" else "-") + text[2:] if chunks else "0"

    # -- arithmetic --------------------------------------------------------

    def _same_shape(self, other):
        for what, a, b in (("truncation", self.trunc, other.trunc),
                           ("slot", len(self.affine), len(other.affine))):
            if a != b:
                raise ValueError("%s mismatch: %d vs %d" % (what, a, b))

    def __add__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._same_shape(other)
        terms = dict(self.terms)
        for dd, c in other.terms.items():
            terms[dd] = terms.get(dd, _F0) + c
        return GradedSeries(tuple(map(add, self.affine, other.affine)),
                            self.const + other.const, terms, self.trunc)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = _exact(c)
        return GradedSeries([a * c for a in self.affine], self.const * c,
                            {dd: v * c for dd, v in self.terms.items()}, self.trunc)

    def _levels(self, pack):
        """(levels, den): constant and terms as (packed degree, numerator)
        pairs over one den, levels[n] those of total degree n."""
        terms = {(0,) * len(self.affine): self.const, **self.terms}
        items, den = _integral(terms, pack)
        levels = [[] for _ in range(self.trunc + 1)]
        for dd, item in zip(terms, items):
            if item[1]:
                levels[sum(dd)].append(item)
        return levels, den

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._same_shape(other)
        if any(self.affine) or any(other.affine):
            raise ValueError("a product with an affine factor leaves the ring")
        D = self.trunc
        pack, unpack = _grid(len(self.affine), D)
        a, da = self._levels(pack)
        b, db = other._levels(pack)
        ys, ends = [t for level in b for t in level], list(accumulate(map(len, b)))
        acc = {}
        for n, xs in enumerate(a):
            if xs:
                _convolve(acc, xs, ys[:ends[D - n]])
        den = da * db
        const = Fraction(acc.pop(0, 0), den)
        return GradedSeries(self.affine, const,
                            {unpack(k): Fraction(v, den) for k, v in acc.items()}, D)

    def exp_of_pure_q(self):
        """exp(self) by the total-degree Euler recurrence: with theta the
        derivation that multiplies the degree-dd term by |dd|, E = exp(s)
        solves theta E = (theta s) E, so n E_dd = sum_m |m| s_m E_{dd-m}
        with n = |dd|: one pass over the degrees, no series products."""
        if any(self.affine) or self.const != 0:
            raise InvalidExp("exponential needs a vanishing affine part")
        weighted = {m: sum(m) * c for m, c in self.terms.items()}
        return _solve(weighted, _F1, _euler, self)

    def div_unit(self, den):
        """Divide by a series with a non-zero constant term: the inverse v
        of the unit u solves u_0 v_0 = 1 and u_0 v_dd = -sum_{m != 0} u_m
        v_{dd-m} degree by degree, and the quotient is one product."""
        if not isinstance(den, GradedSeries):
            raise TypeError("denominator must be a series")
        self._same_shape(den)
        if any(self.affine) or any(den.affine):
            raise ValueError("division with affine parts leaves the ring")
        if den.const == 0:
            raise ZeroDivisionError("denominator has no constant term")
        step = -1 / den.const
        inv = _solve(den.terms, 1 / den.const, lambda n: step, self)
        return self * inv


def _euler(n):
    """The factor of the exponential's recurrence at total degree n."""
    return Fraction(1, n)


def _graded_recurrence(weights, head, factor, D):
    """Levels 1..D of the pure-q series E with E_0 = head and
    E_dd = factor(|dd|) * sum_m w_m E_{dd-m}, each yielded as (items, K_n):
    (packed degree, integer numerator) pairs over one denominator K_n.
    weights[r] holds the w_m of total degree r as _integral gives them,
    (items, L_r); level n reads it only for r <= n, so a caller may append
    weights[n] just before it asks for level n.  The summands from weight
    level r share the denominator L_r K_{n-r}, the sum's is their lcm, and
    factor(n) = a/b scales the numerators by a and K_n by b (for the
    exponential of a series over one denominator L, K_n = L^n n!).  Only
    pairs (m, e) with |m| + |e| = n are visited.
    """
    levels, dens = [[(0, head.numerator)]], [head.denominator]
    for n in range(1, D + 1):
        parts = [(weights[r], levels[n - r], dens[n - r]) for r in range(1, n + 1)
                 if weights[r][0] and levels[n - r]]
        den = math.lcm(*(L * K for (_, L), _, K in parts))
        acc = {}
        for (items, L), low, K in parts:
            _convolve(acc, items, low, den // (L * K))
        f = factor(n)
        levels.append([(k, v * f.numerator) for k, v in acc.items() if v])
        dens.append(den * f.denominator)
        yield levels[n], dens[n]


def _by_level(terms, D):
    """terms grouped by total degree, one dict per level 0..D."""
    out = [{} for _ in range(D + 1)]
    for dd, c in terms.items():
        if sum(dd) <= D:
            out[sum(dd)][dd] = c
    return out


def _solve(terms, head, factor, like):
    """_graded_recurrence with every weight given up front, as a series of
    like's shape."""
    D = like.trunc
    pack, unpack = _grid(len(like.affine), D)
    weights = [_integral(g, pack) for g in _by_level(terms, D)]
    E = {}
    for items, K in _graded_recurrence(weights, head, factor, D):
        E.update((unpack(k), Fraction(v, K)) for k, v in items)
    return GradedSeries((0,) * len(like.affine), head, E, D)


def series_to_json(s):
    affine = {"x%d" % (i + 1): frac_to_str(c) for i, c in enumerate(s.affine)}
    return {"affine": {**affine, "const": frac_to_str(s.const)},
            "terms": [{"d": list(dd), "coef": frac_to_str(c)}
                      for dd, c in sorted(s.terms.items())],
            "trunc": s.trunc}


def series_from_json(obj):
    """The series series_to_json wrote, on as many slots as its highest xi
    names (two when it names none)."""
    aff = obj.get("affine", {})
    n = max((int(key[1:]) for key in aff if key != "const"), default=2)
    terms = {}
    for t in obj.get("terms", ()):
        terms[tuple(t["d"])] = frac_from_str(t["coef"])
    return GradedSeries([frac_from_str(aff.get("x%d" % (i + 1), "0")) for i in range(n)],
                        frac_from_str(aff.get("const", "0")),
                        terms, obj["trunc"])


# -- generating functions --------------------------------------------------


def _slots(g):
    """The slot count of g's series: one per form, and at least two, the
    shape of every published one-form output (t2 = x2, "d": [d, 0])."""
    return max(2, g.n_forms)


def build_generating_function(g, a, b, D):
    """Affine classical part plus all quantum terms through total degree D.

    Insertions outside the geometry's basis but inside its classical
    pairing domain (the virtual ring of the local surface) produce a
    purely classical series: their quantum part vanishes identically.
    """
    if _check_int("truncation bound", D) < 1:
        raise ValueError("need a truncation bound of at least 1")
    pa, pb = parse_insertion(g, a), parse_insertion(g, b)
    pad = (0,) * (_slots(g) - g.n_forms)
    affine = [g.classical_triple(pa, pb, v) for v in g.kahler_classes()] + list(pad)
    terms = {}
    basis = g.basis()
    if pa in basis and pb in basis:
        want = pa.degree() + pb.degree()
        for dd in sorted((dd for dd in product(range(D + 1), repeat=g.n_forms)
                          if 0 < sum(dd) <= D), key=_order):
            if g.selection_degree(dd) != want:
                continue
            val = cached_two_point(g, dd, pa, pb)
            if val:
                terms[dd + pad] = val
    return GradedSeries(affine, 0, terms, D)


# -- mirror maps -----------------------------------------------------------


class MirrorMap:
    """Forward components t_i(x), and once inverted also x_i(t), one per
    series slot (a one-form geometry's second is t_2 = x_2)."""

    __slots__ = ("geom", "trunc", "forward", "inverse")

    def __init__(self, geom, trunc, forward, inverse=None):
        self.geom = geom
        self.trunc = _check_int("truncation bound", trunc)
        self.forward = tuple(forward)
        self.inverse = None if inverse is None else tuple(inverse)

    def __repr__(self):
        state = "inverted" if self.inverse else "forward-only"
        return "<mirror map for %r at trunc %d (%s)>" % (self.geom, self.trunc, state)


def _inverse(block, name):
    """block^-1 by Gauss-Jordan elimination on exact rationals; a column
    with no non-zero pivot raises SingularMetric."""
    n = len(block)
    rows = [[Fraction(x) for x in row] + list(_axis(i, n)) for i, row in enumerate(block)]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            raise SingularMetric("degree-one pairing block is singular for %s" % name)
        rows[p], rows[c] = rows[c], [x / rows[p][c] for x in rows[p]]
        for i, row in enumerate(rows):
            if i != c and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[c])]
    return [row[n:] for row in rows]


def mirror_map(g, D):
    """The coordinate change t_i = x_i + (pure exponential terms), from
    the unit-insertion generating functions contracted with the inverse of
    the degree-one pairing block.  Row k of the block is the affine part
    of partner k's generating function, one entry per class, so its
    inverse takes those affine parts to the unit axes whether or not the
    block is symmetric.  A slot past the forms pairs with itself
    alone and its generating function is its coordinate, so t_i = x_i
    there.  The block is inverted before any generating function is built,
    so a singular one computes no two-point number.  For the local surface
    the result does not depend on the free classical parameter (the tests
    compare two parameter values).
    """
    _check_int("truncation bound", D)
    rows, cols, unit = g.kahler_classes(), g.pairing_partners(), parse_insertion(g, "1")
    if len(rows) != len(cols):
        raise SingularMetric("pairing block is not square for %s" % g.name)
    n, r = _slots(g), len(rows)
    block = [[g.classical_triple(alpha, v, unit) for v in rows] + [0] * (n - r)
             for alpha in cols] + [_axis(i, n) for i in range(r, n)]
    inv = _inverse(block, g.name)
    gens = [build_generating_function(g, unit, alpha, D) for alpha in cols]
    gens += [GradedSeries(_axis(i, n), 0, None, D) for i in range(r, n)]
    comps = []
    for i, row in enumerate(inv):
        t = sum((gen.scale(c) for c, gen in zip(row, gens)), GradedSeries((0,) * n, 0, None, D))
        if t.affine != _axis(i, n) or t.const != 0:
            raise ArithmeticError("pairing contraction failed to normalize "
                                  "the degree-one direction %d of %s" % (i, g.name))
        comps.append(t)
    return MirrorMap(g, D, comps)


def _composition(fs, shifts, D):
    """Levels 1..D of f(t + shifts) for each pure-q f in fs, a terms dict:
    one {dd: Fraction} per f at each level, summed in integers over the lcm
    of the summands' denominators.  Each term c e^{m.x} becomes
    c e^{m.t} exp(m.shifts) up to level D - |m|, each exp(m.shifts) built
    once for all of fs on _graded_recurrence.  Its level n reads the shifts
    only through level n, so level p of the result reads them only below
    p: shifts[j] lists the levels of shift j as {dd: Fraction}, and a
    caller may append level p - 1 just before it asks for level p.
    """
    pack, unpack = _grid(len(shifts), D)
    exps = {}
    for mm in {mm for f in fs for mm in f}:
        weights, bound = [None], D - sum(mm)
        exps[mm] = (bound, weights, [([(0, 1)], 1)],
                    _graded_recurrence(weights, _F1, _euler, bound))
    coefs = []
    for f in fs:
        items, den = _integral(f, pack)
        coefs.append(([(sum(m), k, exps[m][2], c) for m, (k, c) in zip(f, items)], den))
    for p in range(1, D + 1):
        r = p - 1
        forms = [_integral(s[r], pack) for s in shifts] if r else ()
        for mm, (bound, weights, levels, gen) in exps.items():
            if 0 < r <= bound:
                used = [(k, form) for k, form in zip(mm, forms) if k]
                L = math.lcm(*(form[1] for _, form in used))
                arg = {}
                for k, (items, Ls) in used:
                    _convolve(arg, [(0, k * r * (L // Ls))], items)
                weights.append((list(arg.items()), L))
                levels.append(next(gen))
        out = []
        for items, Lf in coefs:
            terms = [(k, c, levels[p - total])
                     for total, k, levels, c in items if total <= p]
            den = math.lcm(*(K for _, _, (_, K) in terms))
            acc = {}
            for k, c, (low, K) in terms:
                _convolve(acc, [(k, c)], low, den // K)
            out.append({unpack(k): Fraction(v, den * Lf) for k, v in acc.items() if v})
        yield out


def _compose_q(f, shifts):
    """f with x_j replaced by t_j + shifts[j]; f and shifts are pure q."""
    D, out = f.trunc, {}
    for (level,) in _composition((f.terms,), [_by_level(s.terms, D) for s in shifts], D):
        out.update(level)
    return GradedSeries((0,) * len(shifts), 0, out, D)


def invert_mirror_map(m):
    """Fill in x_i(t) in one sweep over the total degree.

    With t_i = x_i + f_i(x), the shifts s_i = x_i - t_i solve
    s_i = -f_i(t + s).  Level p of the right side reads the shifts only
    below p (_composition), so each level of the composition, negated, is
    the next level of the shifts, fed back before the level after it is
    asked for: online composition (Brent and Kung, JACM 25 (1978)).
    """
    D, n = m.trunc, len(m.forward)
    fs = []
    for i, t in enumerate(m.forward):
        if t.affine != _axis(i, n) or t.const != 0:
            raise ValueError("component %d is not x_%d plus exponential terms"
                             % (i, i + 1))
        if t.trunc != D:
            raise ValueError("truncation mismatch: %d vs %d" % (D, t.trunc))
        fs.append(t.quantum_part())
    levels = tuple([{}] for _ in fs)
    for new in _composition([f.terms for f in fs], levels, D):
        for lv, level in zip(levels, new):
            lv.append({dd: -v for dd, v in level.items()})
    shifts = tuple(GradedSeries((0,) * n, 0, {k: v for level in lv for k, v in level.items()}, D)
                   for lv in levels)
    for f, s in zip(fs, shifts):
        if not (s + _compose_q(f, shifts)).is_zero():
            raise ArithmeticError("fixed point failed to close at trunc %d" % D)
    inverse = tuple(GradedSeries(t.affine, 0, s.terms, D)
                    for t, s in zip(m.forward, shifts))
    return MirrorMap(m.geom, D, m.forward, inverse)


def transform(F, m):
    """F rewritten in the flat coordinates of the mirror map.

    The affine slots of the result are coefficients of t_1 .. t_n.  The
    map is inverted on demand when only the forward direction is present.
    """
    if m.inverse is None:
        m = invert_mirror_map(m)
    if F.trunc != m.trunc:
        raise ValueError("truncation mismatch between series and map")
    if len(F.affine) != len(m.inverse):
        raise ValueError("slot mismatch between series and map")
    shifts = tuple(x.quantum_part() for x in m.inverse)
    out = GradedSeries(F.affine, F.const, None, F.trunc)
    for c, s in zip(F.affine, shifts):
        if c:
            out = out + s.scale(c)
    return out + _compose_q(F.quantum_part(), shifts)


# -- solution basis of the level-k operator --------------------------------


def picard_fuchs_basis(k, j, D):
    """Coefficient series of the j-th solution at the large-volume point.

    j = 0 is the holomorphic solution, lead_d = (k d)! / (d!)^k.  For
    j = 1 the log-free component is returned: the full solution is x times
    the j = 0 series plus this one, and their unit ratio minus x is the
    mirror map of the level-k geometry.  Its coefficients, the derivative
    in the exponent shift, are lead_d * k * (H(k d) - H(d)) with the
    harmonic numbers H accumulated across d.
    """
    for name, v in (("level", k), ("solution index", j), ("truncation", D)):
        _check_int(name, v)
    if j not in (0, 1):
        raise ValueError("solution index must be 0 or 1")
    if D < 0:
        raise ValueError("need a non-negative truncation")
    terms = {}
    h_kd = h_d = _F0
    for d in range(1, D + 1):
        lead = Fraction(math.factorial(k * d), math.factorial(d) ** k)
        h_kd += sum(Fraction(1, m) for m in range(k * (d - 1) + 1, k * d + 1))
        h_d += Fraction(1, d)
        c = lead if j == 0 else lead * k * (h_kd - h_d)
        if c:
            terms[(d, 0)] = c
    return GradedSeries((0, 0), 1 if j == 0 else 0, terms, D)


# -- modular expansion -----------------------------------------------------


class JExpansion:
    """Exact expansion coefficients j_d alongside the reversion weights w_d."""

    __slots__ = ("j", "w", "dmax")

    def __init__(self, j, w, dmax):
        self.j = tuple(Fraction(v) for v in j)
        self.w = tuple(Fraction(v) for v in w)
        self.dmax = int(dmax)

    def __repr__(self):
        return "<j-expansion through degree %d>" % self.dmax


def reversion_weights(js):
    """Recover the w_d from the j_d by Lagrange inversion.

    With A = 1 + sum_d j_d q^d and u = q / A, log A = sum_d w_d u^d, so
    Lagrange's formula gives w_d = [q^d] A^d / d.  The coefficients of
    P = A^d solve J. C. P. Miller's recurrence
    n P_n = sum_k ((d + 1) k - n) A_k P_{n-k} (Knuth, TAOCP vol. 2, 4.7).
    After q -> L q, L the lcm of the denominators, A has integer
    coefficients, so every P_n is an integer and each division by n is
    exact.  j_coefficients checks the result against _j_from_weights,
    which rebuilds the j_d from the weights by another route.
    """
    js = [_exact(v) for v in js]
    L = math.lcm(*(v.denominator for v in js))
    A = [1] + [v.numerator * (L ** k // v.denominator) for k, v in enumerate(js, 1)]
    out = []
    for d in range(1, len(js) + 1):
        P = [1]
        for n in range(1, d + 1):
            P.append(sum(((d + 1) * k - n) * A[k] * P[n - k]
                         for k in range(1, n + 1)) // n)
        out.append(Fraction(P[d], d * L ** d))
    return out


def _j_from_weights(w):
    """The j_d from the weights w_d, read off powers of one series.

    The sum over ordered partitions of d groups by the number l of parts:
    j_d = sum_l (-(d-1))^(l-1) / l! [q^d] W^l with W = sum_d w_d q^d.
    """
    D = len(w)
    W = GradedSeries((0,), 0, {(d,): v for d, v in enumerate(w, 1)}, D)
    js = [_F0] * D
    power = W
    for l in range(1, D + 1):
        if l > 1:
            power = power * W
        for (d,), c in power.terms.items():
            js[d - 1] += Fraction((1 - d) ** (l - 1), math.factorial(l)) * c
    return js


def j_coefficients(dmax):
    """Expansion coefficients through q^{dmax-1} from the degree-6 surface.

    Each weight w_d is the (1, z) two-point number at degree d over the
    surface's classical triple <1, z, z> = k / prod(w) = 2, read from its
    declaration; the coefficient j_d sums the weights over ordered partitions
    (`_j_from_weights`).  As a cross-check before returning, the Lagrange
    form of the reversion (`reversion_weights`) must recover the weights
    from those coefficients.
    """
    if not 1 <= _check_int("dmax", dmax) <= 6:
        raise ValueError("dmax must be in 1..6: the desk-scale expansion "
                         "stops at degree 6")
    g = geometry("wp2")
    one, zc = Insertion(0), Insertion(1)
    triple = g.classical_triple(one, zc, zc)
    w = [cached_two_point(g, d, one, zc) / triple for d in range(1, dmax + 1)]
    js = _j_from_weights(w)
    if reversion_weights(js) != w:
        raise ArithmeticError("reversion failed to recover the weights")
    if js[0] != 744:
        raise ArithmeticError("leading expansion coefficient is off")
    return JExpansion(js, w, dmax)
