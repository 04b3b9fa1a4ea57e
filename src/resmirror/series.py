"""Truncated exponential series, mirror maps, and their transforms.

The objects here are finite sums

    c1*x_1 + c2*x_2 + c0  +  sum_dd  coef(dd) * e^{da*x_1 + db*x_2}

truncated by total degree da + db.  Generating functions of two-point
numbers live in this ring: the affine part collects the classical triple
pairings against the degree-one classes, the exponential part collects
the quantum numbers degree by degree.  Contracting the unit-insertion
generating functions with the inverse pairing block yields the mirror
map; inverting it in one sweep over the total degree and composing gives
the transformed series whose coefficients are the invariants on the other
side of the correspondence (the closed-form transform through degree
three, built from the structure constants, is vsc.gmt_upto3).

One-form geometries use the same representation with the second slot
pinned to zero, so every routine below is written once for both shapes.

Transcendental operations are first-order recurrences over the total
degree, never sums of truncated powers (Brent and Kung, JACM 25 (1978)):
the exponential solves theta E = (theta s) E for the Euler derivation
theta, and the reciprocal of a unit solves u v = 1.  Each costs about
one series product, and each coefficient is the same exact rational a
power sum would give.  Both run on one kernel, _graded_recurrence, which
the mirror-map inversion also drives online, one level at a time.  The
reversion of the modular expansion is Lagrange's form, with the powers it
reads from Miller's recurrence, and j_coefficients checks it against
_j_from_weights.  Products and recurrences run on integer numerators over
one common denominator per operand or per degree.
"""

import math
from fractions import Fraction

from .cache import cached_two_point, frac_from_str, frac_to_str
from .geoms import Insertion, _check_int, geometry, parse_insertion

_F0, _F1 = Fraction(0), Fraction(1)
_NO_AFFINE = (_F0, _F0)


class InvalidExp(ValueError):
    """Exponential of a series whose affine part does not vanish."""


class SingularMetric(ArithmeticError):
    """The pairing block needed for a mirror map is not invertible."""


def _exact(c):
    """c as a Fraction; a float is refused, as a polynomial coefficient is."""
    if isinstance(c, (int, Fraction)):
        return c if type(c) is Fraction else Fraction(c)
    raise TypeError("coefficient must be an int or Fraction, got %r" % (c,))


def _integral(terms):
    """(items, den): rational terms as (degree, integer numerator) pairs
    over den, the lcm of their denominators."""
    den = math.lcm(*{c.denominator for c in terms.values()})
    return [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()], den


class GradedSeries:
    """One element of the truncated ring described in the module docstring.

    Degrees are pairs (da, db) of non-negative integers, not both zero;
    the degree-(0,0) slot is the separate constant field.  Every operation
    drops terms of total degree beyond the truncation bound.
    """

    __slots__ = ("affine", "const", "terms", "trunc")

    def __init__(self, affine=(0, 0), const=0, terms=None, trunc=0):
        self.affine = (_exact(affine[0]), _exact(affine[1]))
        self.const = _exact(const)
        self.trunc = _check_int("truncation bound", trunc)
        if trunc < 0:
            raise ValueError("truncation bound must be non-negative")
        clean = {}
        if terms:
            for dd, c in terms.items():
                da, db = dd
                if type(da) is not int or type(db) is not int \
                        or da < 0 or db < 0 or (da == 0 and db == 0):
                    raise ValueError("bad exponential degree %r" % (dd,))
                c = _exact(c)
                if c and da + db <= self.trunc:
                    clean[(da, db)] = c
        self.terms = clean

    # -- inspection --------------------------------------------------------

    def coefficient(self, dd):
        da, db = dd
        if type(da) is not int or type(db) is not int:
            raise ValueError("bad exponential degree %r" % (dd,))
        if da == 0 and db == 0:
            return self.const
        return self.terms.get((da, db), _F0)

    def is_zero(self):
        return self.affine == _NO_AFFINE and self.const == 0 and not self.terms

    def quantum_part(self):
        """The pure exponential terms, with affine and constant dropped."""
        return GradedSeries(_NO_AFFINE, 0, self.terms, self.trunc)

    def __eq__(self, other):
        return (isinstance(other, GradedSeries)
                and self.affine == other.affine and self.const == other.const
                and self.terms == other.terms and self.trunc == other.trunc)

    def __repr__(self):
        return "<series %s | trunc %d>" % (self.pretty(), self.trunc)

    def pretty(self, names=("x1", "x2")):
        """Deterministic plain-text rendering, low degrees first."""
        chunks = []
        for c, label in ((self.affine[0], names[0]), (self.affine[1], names[1])):
            if c:
                chunks.append((c, label))
        if self.const:
            chunks.append((self.const, ""))
        single = self.affine[1] == 0 and all(db == 0 for _, db in self.terms)
        for (da, db), c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0][1])):
            mono = []
            if da:
                mono.append("q^%d" % da if single and da > 1
                            else ("q" if single else ("q1^%d" % da if da > 1 else "q1")))
            if db:
                mono.append("q2^%d" % db if db > 1 else "q2")
            chunks.append((c, "*".join(mono)))
        if not chunks:
            return "0"
        out = []
        for i, (c, label) in enumerate(chunks):
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = label if (mag == 1 and label) else (
                str(mag) if not label else "%s*%s" % (mag, label))
            if i == 0:
                out.append(body if c > 0 else "-" + body)
            else:
                out.append("%s %s" % (sign, body))
        return " ".join(out)

    # -- arithmetic --------------------------------------------------------

    def _same_trunc(self, other):
        if self.trunc != other.trunc:
            raise ValueError("truncation mismatch: %d vs %d"
                             % (self.trunc, other.trunc))

    def __add__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._same_trunc(other)
        terms = dict(self.terms)
        for dd, c in other.terms.items():
            s = terms.get(dd, _F0) + c
            if s:
                terms[dd] = s
            else:
                terms.pop(dd, None)
        return GradedSeries((self.affine[0] + other.affine[0],
                             self.affine[1] + other.affine[1]),
                            self.const + other.const, terms, self.trunc)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = _exact(c)
        return GradedSeries((self.affine[0] * c, self.affine[1] * c),
                            self.const * c,
                            {dd: v * c for dd, v in self.terms.items()},
                            self.trunc)

    def __mul__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._same_trunc(other)
        if self.affine != _NO_AFFINE or other.affine != _NO_AFFINE:
            raise ValueError("a product with an affine factor leaves the ring")
        D = self.trunc
        a, da = _integral({(0, 0): self.const, **self.terms})
        b, db = _integral({(0, 0): other.const, **other.terms})
        b.sort(key=lambda t: t[0][0] + t[0][1])
        out = {}
        for (a1, b1), x in a:
            if not x:
                continue
            room = D - a1 - b1
            for (a2, b2), y in b:
                if a2 + b2 > room:
                    break
                dd = (a1 + a2, b1 + b2)
                out[dd] = out.get(dd, 0) + x * y
        den = da * db
        const = Fraction(out.pop((0, 0), 0), den)
        return GradedSeries(_NO_AFFINE, const,
                            {dd: Fraction(c, den) for dd, c in out.items()}, D)

    def exp_of_pure_q(self):
        """exp(self) by the total-degree Euler recurrence.

        With theta the derivation that multiplies the degree-dd term by
        |dd| = da + db, E = exp(s) satisfies theta E = (theta s) E, so
        n E_dd = sum_m |m| s_m E_{dd-m} with n = |dd|: one pass over
        the degrees, no series products.
        """
        if self.affine != _NO_AFFINE or self.const != 0:
            raise InvalidExp("exponential needs a vanishing affine part")
        weighted = {m: (m[0] + m[1]) * c for m, c in self.terms.items()}
        return _solve(weighted, _F1, _euler, self.trunc)

    def div_unit(self, den):
        """Divide by a series with a non-zero constant term.

        The inverse v of the unit u comes from u_0 v_0 = 1 and
        u_0 v_dd = -sum_{m != 0} u_m v_{dd-m}, degree by degree; the
        quotient is then one product.
        """
        if not isinstance(den, GradedSeries):
            raise TypeError("denominator must be a series")
        self._same_trunc(den)
        if self.affine != _NO_AFFINE or den.affine != _NO_AFFINE:
            raise ValueError("division with affine parts leaves the ring")
        if den.const == 0:
            raise ZeroDivisionError("denominator has no constant term")
        step = -1 / den.const
        inv = _solve(den.terms, 1 / den.const, lambda n: step, self.trunc)
        return self * inv


def _euler(n):
    """The factor of the exponential's recurrence at total degree n."""
    return Fraction(1, n)


def _graded_recurrence(weights, head, factor, D):
    """Levels 1..D of the pure-q series E with E_0 = head and

        E_dd = factor(|dd|) * sum_m w_m E_{dd-m},

    each yielded as (items, K_n): (degree, integer numerator) pairs over
    one denominator K_n.  weights[r] holds the w_m of total degree r as
    _integral gives them, (items, L_r).  Level n reads weights[r] only for
    r <= n, so a caller may append weights[n] just before it asks for
    level n.  The summands from weight level r share the denominator
    L_r K_{n-r}, the lcm of those is the sum's, and factor(n) = a/b scales
    the numerators by a and K_n by b: for the exponential of a series over
    one denominator L, K_n = L^n n!.  Each sum runs over the pairs (m, e)
    with |m| + |e| = |dd|, so only degrees the support can reach are
    visited.
    """
    levels, dens = [[((0, 0), head.numerator)]], [head.denominator]
    for n in range(1, D + 1):
        parts = [(weights[r], levels[n - r], dens[n - r]) for r in range(1, n + 1)
                 if weights[r][0] and levels[n - r]]
        den = math.lcm(*(L * K for (_, L), _, K in parts))
        acc = {}
        for (items, L), low, K in parts:
            scale = den // (L * K)
            for (ma, mb), w in items:
                w *= scale
                for (ea, eb), e in low:
                    dd = (ma + ea, mb + eb)
                    acc[dd] = acc.get(dd, 0) + w * e
        f = factor(n)
        levels.append([(dd, v * f.numerator) for dd, v in acc.items() if v])
        dens.append(den * f.denominator)
        yield levels[n], dens[n]


def _by_level(terms, D):
    """terms grouped by total degree, one dict per level 0..D."""
    out = [{} for _ in range(D + 1)]
    for dd, c in terms.items():
        if dd[0] + dd[1] <= D:
            out[dd[0] + dd[1]][dd] = c
    return out


def _solve(terms, head, factor, D):
    """_graded_recurrence with every weight given up front, as a series."""
    weights = [_integral(g) for g in _by_level(terms, D)]
    E = {}
    for items, K in _graded_recurrence(weights, head, factor, D):
        E.update((dd, Fraction(v, K)) for dd, v in items)
    return GradedSeries(_NO_AFFINE, head, E, D)


def series_to_json(s):
    return {
        "affine": {"x1": frac_to_str(s.affine[0]),
                   "x2": frac_to_str(s.affine[1]),
                   "const": frac_to_str(s.const)},
        "terms": [{"d": [da, db], "coef": frac_to_str(c)}
                  for (da, db), c in sorted(s.terms.items())],
        "trunc": s.trunc,
    }


def series_from_json(obj):
    aff = obj.get("affine", {})
    terms = {}
    for t in obj.get("terms", ()):
        terms[tuple(t["d"])] = frac_from_str(t["coef"])
    return GradedSeries((frac_from_str(aff.get("x1", "0")),
                         frac_from_str(aff.get("x2", "0"))),
                        frac_from_str(aff.get("const", "0")),
                        terms, obj["trunc"])


# -- generating functions --------------------------------------------------


def _unit(g):
    return Insertion(*([0] * g.n_forms))


def _degree_list(g, D):
    if g.n_forms == 1:
        return [(d, 0) for d in range(1, D + 1)]
    return [(da, db) for tot in range(1, D + 1)
            for da in range(tot, -1, -1) for db in (tot - da,)]


def build_generating_function(g, a, b, D):
    """Affine classical part plus all quantum terms through total degree D.

    Insertions outside the geometry's basis but inside its classical
    pairing domain (the virtual ring of the local surface) produce a
    purely classical series: their quantum part vanishes identically.
    """
    if _check_int("truncation bound", D) < 1:
        raise ValueError("need a truncation bound of at least 1")
    pa, pb = parse_insertion(g, a), parse_insertion(g, b)
    affine = [_F0, _F0]
    for i, v in enumerate(g.kahler_classes()):
        affine[i] = g.classical_triple(pa, pb, v)
    terms = {}
    basis = g.basis()
    if pa in basis and pb in basis:
        want = pa.degree() + pb.degree()
        for dd in _degree_list(g, D):
            gd = dd[0] if g.n_forms == 1 else dd
            if g.selection_degree(gd) != want:
                continue
            val = cached_two_point(g, gd, pa, pb)
            if val:
                terms[dd] = val
    return GradedSeries(tuple(affine), 0, terms, D)


# -- mirror maps -----------------------------------------------------------


class MirrorMap:
    """Forward components t_i(x), and once inverted also x_i(t).

    Components always come as a pair; a one-form geometry carries the
    identity in the second slot.
    """

    __slots__ = ("geom", "trunc", "forward", "inverse")

    def __init__(self, geom, trunc, forward, inverse=None):
        self.geom = geom
        self.trunc = _check_int("truncation bound", trunc)
        self.forward = tuple(forward)
        self.inverse = None if inverse is None else tuple(inverse)

    def __repr__(self):
        state = "inverted" if self.inverse else "forward-only"
        return "<mirror map for %r at trunc %d (%s)>" % (self.geom, self.trunc, state)


def _axis_affine(i):
    return (_F1, _F0) if i == 0 else (_F0, _F1)


def mirror_map(g, D):
    """The coordinate change t_i = x_i + (pure exponential terms).

    Built by contracting the unit-insertion generating functions with the
    inverse of the degree-one pairing block.  For the local surface the
    result does not depend on the free classical parameter; the test suite
    checks this by comparing two parameter values.
    """
    _check_int("truncation bound", D)
    rows = g.kahler_classes()
    cols = g.pairing_partners()
    unit = _unit(g)
    if len(rows) != len(cols):
        raise SingularMetric("pairing block is not square for %s" % g.name)
    block = [[g.classical_triple(v, alpha, unit) for alpha in cols] for v in rows]
    # adjugate over determinant: the block is 1x1 or 2x2
    if len(block) == 1:
        det, adj = block[0][0], [[1]]
    else:
        (a, b), (c, d) = block
        det, adj = a * d - b * c, [[d, -b], [-c, a]]
    if not det:
        raise SingularMetric("degree-one pairing block is singular for %s" % g.name)
    inv = [[Fraction(x) / det for x in row] for row in adj]
    gens = [build_generating_function(g, unit, alpha, D) for alpha in cols]
    comps = []
    for i in range(len(rows)):
        t = GradedSeries(_NO_AFFINE, 0, None, D)
        for j, gen in enumerate(gens):
            t = t + gen.scale(inv[i][j])
        if t.affine != _axis_affine(i) or t.const != 0:
            raise ArithmeticError("pairing contraction failed to normalize "
                                  "the degree-one direction %d of %s" % (i, g.name))
        comps.append(t)
    while len(comps) < 2:
        comps.append(GradedSeries(_axis_affine(len(comps)), 0, None, D))
    return MirrorMap(g, D, comps)


def _composition(fs, shifts, D):
    """Levels 1..D of f(t + shifts) for each pure-q f in fs, a terms dict.

    Each term c e^{m.x} becomes c e^{m.t} exp(m.shifts), and the shift by
    m keeps only the exponential's levels up to D - |m|.  Each exp(m.shifts)
    is built once for all of fs, on _graded_recurrence, and its level n
    reads the shifts only through level n, so level p of the result reads
    them only below p.  shifts[j] lists the levels of shift j as
    {dd: Fraction}, and a caller may append level p - 1 just before it
    asks for level p.  Yields one {dd: Fraction} per f at each level; a
    level is summed in integers over the lcm of the summands' denominators.
    """
    exps = {}
    for mm in {mm for f in fs for mm in f}:
        weights = [None]
        exps[mm] = (weights, [([((0, 0), 1)], 1)],
                    _graded_recurrence(weights, _F1, _euler, D - mm[0] - mm[1]))
    coefs = [_integral(f) for f in fs]
    for p in range(1, D + 1):
        r = p - 1
        forms = [_integral(s[r]) for s in shifts] if r else ()
        for (ma, mb), (weights, levels, gen) in exps.items():
            if 0 < r <= D - ma - mb:
                used = [(k, form) for k, form in zip((ma, mb), forms) if k]
                L = math.lcm(*(form[1] for _, form in used))
                arg = {}
                for k, (items, Ls) in used:
                    k *= r * (L // Ls)
                    for dd, v in items:
                        arg[dd] = arg.get(dd, 0) + k * v
                weights.append((list(arg.items()), L))
                levels.append(next(gen))
        out = []
        for items, Lf in coefs:
            terms = [(m, c, exps[m][1][p - m[0] - m[1]])
                     for m, c in items if m[0] + m[1] <= p]
            den = math.lcm(*(K for _, _, (_, K) in terms))
            acc = {}
            for (ma, mb), c, (low, K) in terms:
                c *= den // K
                for (ea, eb), e in low:
                    dd = (ma + ea, mb + eb)
                    acc[dd] = acc.get(dd, 0) + c * e
            out.append({dd: Fraction(v, den * Lf) for dd, v in acc.items() if v})
        yield out


def _compose_q(f, shifts):
    """f with x_j replaced by t_j + shifts[j]; f and shifts are pure q."""
    D = f.trunc
    levels = tuple(_by_level(s.terms, D) for s in shifts)
    out = {}
    for (level,) in _composition((f.terms,), levels, D):
        out.update(level)
    return GradedSeries(_NO_AFFINE, 0, out, D)


def invert_mirror_map(m):
    """Fill in x_i(t) in one sweep over the total degree.

    With t_i = x_i + f_i(x), the shifts s_i = x_i - t_i solve
    s_i = -f_i(t + s).  Level p of the right side reads the shifts only
    below p (_composition), so each level of the composition, negated, is
    the next level of the shifts, fed back before the level after it is
    asked for: online composition (Brent and Kung, JACM 25 (1978)).
    """
    D = m.trunc
    fs = []
    for i, t in enumerate(m.forward):
        if t.affine != _axis_affine(i) or t.const != 0:
            raise ValueError("component %d is not x_%d plus exponential terms"
                             % (i, i + 1))
        if t.trunc != D:
            raise ValueError("truncation mismatch: %d vs %d" % (D, t.trunc))
        fs.append(t.quantum_part())
    levels = ([{}], [{}])
    for new in _composition([f.terms for f in fs], levels, D):
        for lv, level in zip(levels, new):
            lv.append({dd: -v for dd, v in level.items()})
    shifts = tuple(GradedSeries(_NO_AFFINE, 0, {dd: v for level in lv
                                                for dd, v in level.items()}, D)
                   for lv in levels)
    for i in range(2):
        if not (shifts[i] + _compose_q(fs[i], shifts)).is_zero():
            raise ArithmeticError("fixed point failed to close at trunc %d" % D)
    inverse = tuple(GradedSeries(_axis_affine(i), 0, shifts[i].terms, D)
                    for i in range(2))
    return MirrorMap(m.geom, D, m.forward, inverse)


def transform(F, m):
    """F rewritten in the flat coordinates of the mirror map.

    The affine slots of the result are coefficients of t_1, t_2.  The map
    is inverted on demand when only the forward direction is present.
    """
    if m.inverse is None:
        m = invert_mirror_map(m)
    if F.trunc != m.trunc:
        raise ValueError("truncation mismatch between series and map")
    shifts = tuple(x.quantum_part() for x in m.inverse)
    out = GradedSeries(F.affine, F.const, None, F.trunc)
    for i in range(2):
        if F.affine[i]:
            out = out + shifts[i].scale(F.affine[i])
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
    return GradedSeries(_NO_AFFINE, 1 if j == 0 else 0, terms, D)


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
    W = GradedSeries(_NO_AFFINE, 0, {(d, 0): v for d, v in enumerate(w, 1)}, D)
    js = [_F0] * D
    power = W
    for l in range(1, D + 1):
        if l > 1:
            power = power * W
        for (d, _), c in power.terms.items():
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
