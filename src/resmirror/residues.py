"""Residues of factored rational functions at fixed or movable poles.

A pole is specified by a variable and a location; the location may be a
polynomial in the *other* variables (a movable pole such as 3z or
(a + b)/2), so nested contours whose centers depend on outer variables
work directly: iterated residues are successive calls, innermost variable
first.  Pole orders are read off the factored denominator, never guessed:
expanding about v = loc, each factor splits as eps^j * (unit), and the
numerator is divided by the product of the units as a power series in eps,
one coefficient at a time, up to the eps^-1 term the residue reads.
"""

from fractions import Fraction

from .polys import RatFunc, _cancel


class DuplicatePole(ValueError):
    """Two pole specifications in one sum share the same location."""


class PoleSpec:
    """A contour around `location` in the variable `var`.

    `location` is a polynomial (or rational constant) in the remaining
    variables.
    """

    __slots__ = ("var", "location")

    def __init__(self, var, location=0):
        self.var = var
        self.location = location

    def loc_poly(self, vars_):
        loc = self.location
        if isinstance(loc, (int, Fraction)):
            loc = vars_.const(loc)
        if loc.vars != vars_:
            raise ValueError("pole location on a different variable set")
        if loc.max_exp(self.var) > 0:
            raise ValueError("pole location may not involve %r itself" % self.var)
        return loc

    def __repr__(self):
        return "PoleSpec(%s = %r)" % (self.var, self.location)


def _trunc_mul(a, b, top):
    """The product of two eps-series (polynomial lists, a[0] != 0) to eps^top."""
    out = [a[0].vars.zero()] * (top + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(top + 1 - i):
                if b[j]:
                    out[i + j] = out[i + j] + x * b[j]
    return out


def _trunc_pow(s, m, top):
    """s^m for m >= 1 by binary powering of the series cut after eps^top."""
    p = None
    while True:
        if m & 1:
            p = s if p is None else _trunc_mul(p, s, top)
        m >>= 1
        if not m:
            return p
        s = _trunc_mul(s, s, top)


def _expand(r, spec):
    """The eps^-1 coefficient of r about spec, by one division recurrence.

    With v = location + eps, every denominator factor that vanishes at the
    pole splits as eps^j * u(eps) with u(0) != 0, so r = eps^-P * N / W with
    W = prod u_i^m_i.  The coefficients of N / W solve
    c_n = (N_n - sum_{h=1..n} W_h c_{n-h}) / W_0 (Brent and Kung, JACM 25
    (1978)).  W, a truncated series of polynomials, is built only for P >= 2:
    each unit is raised to its multiplicity by binary powering and multiplied
    in once, and a unit 1 (a factor v - location) is skipped.  1/W_0 stays
    factored as prod u_i(0)^-m_i, so each c_n is reduced by trial division
    by those factors alone.

    Returns (c_{P-1}, spectators): c_{P-1} is the eps^-1 coefficient (None
    when P = 0), and spectators are the denominator factors free of the
    expansion variable, to be reattached.
    """
    v = spec.var
    loc = spec.loc_poly(r.vars)
    vv = r.vars.poly(v)
    shift = (lambda p: p) if loc.is_zero() else (lambda p: p.subs(v, vv + loc))

    spectators = []
    units = []          # (eps-coefficients with a nonzero constant term, mult)
    pole_order = 0
    for f, m in r.den:
        if f.max_exp(v) == 0:
            spectators.append((f, m))
            continue
        parts = shift(f).split_by(v)
        j0 = min(parts)
        pole_order += j0 * m
        units.append(({j - j0: a for j, a in parts.items()}, m))

    if pole_order == 0:
        return None, spectators
    top = pole_order - 1
    zero = r.vars.zero()
    w = None
    if top:
        for u, m in units:
            if len(u) > 1 or u[0] != 1:
                p = _trunc_pow([u.get(h, zero) for h in range(top + 1)], m, top)
                w = p if w is None else _trunc_mul(w, p, top)
    b0 = RatFunc(r.vars.const(1), [(u[0], m) for u, m in units])
    num = shift(r.num).split_by(v)
    c = []
    for n in range(top + 1):
        acc = RatFunc(num.get(n, zero))
        if w:
            for h in range(1, n + 1):
                if w[h] and not c[n - h].is_zero():
                    acc = acc - w[h] * c[n - h]
        c.append(acc if acc.is_zero() else (acc * b0).reduce())
    return c[top], spectators


def residue_at(r, spec):
    """The coefficient of 1/(v - location) in the expansion of r.

    c_{P-1} is reduced against its own factors, and a factor that does not
    divide a numerator does not divide its quotient: only spectators cancel.
    """
    c, spect = _expand(r, spec)
    if c is None:
        return RatFunc(r.vars.zero())
    return _cancel(c.num, dict(c.den), spect)


def residue_sum(r, specs):
    """Sum of residues over a list of pole specs in one variable.

    The locations must be pairwise distinct as polynomials; coinciding
    specs raise DuplicatePole rather than silently double counting.  One
    spec gives its residue_at as it is, already reduced.
    """
    specs = list(specs)
    if not specs:
        return RatFunc(r.vars.zero())
    var = specs[0].var
    locs = []
    for s in specs:
        if s.var != var:
            raise ValueError("residue_sum mixes variables %r and %r" % (var, s.var))
        locs.append(s.loc_poly(r.vars))
    for i in range(len(locs)):
        for j in range(i + 1, len(locs)):
            if locs[i] == locs[j]:
                raise DuplicatePole("pole at %r listed twice" % (locs[i],))
    total = residue_at(r, specs[0])
    if len(specs) == 1:
        return total
    for s in specs[1:]:
        total = total + residue_at(r, s)
    return total.reduce()
