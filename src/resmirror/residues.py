"""Residues of factored rational functions at fixed or movable poles.

A pole is specified by a variable and a location; the location may be a
polynomial in the *other* variables (a movable pole such as 3z or
(a + b)/2), so nested contours whose centers depend on outer variables
work directly: iterated residues are successive calls, innermost variable
first.  Pole orders are read off the factored denominator, never guessed:
expanding about v = loc, each factor splits as eps^j * (unit), and the
unit parts are inverted as formal power series in eps with exact
rational-function coefficients.
"""

from fractions import Fraction

from .polys import IdenticallySingular, RatFunc


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
    """Inverse series of U = sum_{h>=0} eps^h A_h, with A_0 != 0.

    Uses B_0 = 1/A_0 and B_n = -B_0 * sum_{h=1..n} A_h B_{n-h}; every
    coefficient is reduced so denominators stay powers of A_0.
    """
    a = [parts.get(h) for h in range(top + 1)]
    b0 = RatFunc(a[0]).inv()
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


def _expand(r, spec):
    """The principal part of r about spec: coefficients up to eps^-1.

    Returns (order P >= 0, coeffs, spectators) where coeffs[i] is the
    coefficient of eps^(i - P) for i = 0 .. P - 1, and spectators are
    denominator factors free of the expansion variable, to be reattached.
    """
    v = spec.var
    loc = spec.loc_poly(r.vars)
    vv = r.vars.poly(v)
    shift = (lambda p: p) if loc.is_zero() else (lambda p: p.subs(v, vv + loc))

    spectators = []
    units = []          # (parts dict with a nonzero constant part, mult)
    pole_order = 0
    for f, m in r.den:
        g = shift(f)
        if g.is_zero():
            raise IdenticallySingular("factor %r vanishes identically at %s" % (f, v))
        if g.max_exp(v) == 0:
            spectators.append((g, m))
            continue
        parts = g.split_by(v)
        j0 = min(j for j, a in parts.items() if not a.is_zero())
        pole_order += j0 * m
        units.append(({j - j0: a for j, a in parts.items()}, m))

    top = pole_order - 1
    if top < 0:
        return pole_order, [], spectators

    num = shift(r.num)
    zero = RatFunc(r.vars.zero())
    series = [None] * (top + 1)
    for j, a in num.split_by(v).items():
        if j <= top:
            series[j] = RatFunc(a)
    for parts, m in units:
        inv = _series_inv_unit(parts, top, zero)
        for _ in range(m):
            series = _series_mul(series, inv, top)
    coeffs = [zero if c is None else c for c in series]
    return pole_order, coeffs, spectators


def residue_at(r, spec):
    """The coefficient of 1/(v - location) in the expansion of r."""
    order, coeffs, spect = _expand(r, spec)
    if order == 0:
        return RatFunc(r.vars.zero())
    c = coeffs[order - 1]
    return RatFunc(c.num, c.den + tuple(spect)).reduce()


def residue_sum(r, specs):
    """Sum of residues over a list of pole specs in one variable.

    The locations must be pairwise distinct as polynomials; coinciding
    specs raise DuplicatePole rather than silently double counting.
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
    total = RatFunc(r.vars.zero())
    for s in specs:
        total = total + residue_at(r, s)
    return total.reduce()
