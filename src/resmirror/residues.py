"""Residues of factored rational functions at fixed or movable poles.

residue_at(r, var, loc=0) is the coefficient of 1/(var - loc) in r, and
residue_sum(r, var, locs) adds it up over distinct locations.  A location
is a rational constant or a polynomial in the *other* variables (a movable
pole such as 3z or (a + b)/2), so nested contours whose centers depend on
outer variables work directly: iterated residues are successive calls,
innermost variable first.  Pole orders are read off the factored
denominator, never guessed: expanding about var = loc, each factor splits
as eps^j * (unit), and the numerator is divided by the product of the units
as a power series in eps, one coefficient at a time, up to the eps^-1 term
the residue reads.
"""

from fractions import Fraction

from .polys import RatFunc, _cancel, _lowest, _mul_n, _normal


class DuplicatePole(ValueError):
    """Two locations in one residue sum coincide."""


def _location(r, var, loc):
    """loc as a polynomial on r's variables, checked free of var."""
    if isinstance(loc, (int, Fraction)):
        loc = r.vars.const(loc)
    if loc.vars != r.vars:
        raise ValueError("pole location on a different variable set")
    if loc.max_exp(var) > 0:
        raise ValueError("pole location may not involve %r itself" % var)
    return loc


def _trunc_mul(a, b, top, guard):
    """The product of two eps-series of numerator dicts (a[0] nonzero), each
    over one denominator, to eps^top."""
    out = [{} for _ in range(top + 1)]
    for i, x in enumerate(a):
        if x:
            for j in range(top + 1 - i):
                if b[j]:
                    out[i + j] = _mul_n(x, b[j], guard, out[i + j])
    return out


def _trunc_pow(s, m, top, guard):
    """s^m for m >= 1 by binary powering of the series cut after eps^top."""
    p = None
    while True:
        if m & 1:
            p = s if p is None else _trunc_mul(p, s, top, guard)
        m >>= 1
        if not m:
            return p
        s = _trunc_mul(s, s, top, guard)


def residue_at(r, var, loc=0):
    """The coefficient of 1/(var - loc) in the expansion of r.

    With var = loc + eps, every denominator factor that vanishes at the
    pole splits as eps^j * u(eps) with u(0) != 0, so r = eps^-P * N / W with
    W = prod u_i^m_i, and the residue is c_{P-1} where the coefficients of
    N / W solve c_n = (N_n - sum_{h=1..n} W_h c_{n-h}) / W_0 (Brent and
    Kung, JACM 25 (1978)).  W, a truncated series of polynomials, is built
    only for P >= 2, on integer numerators over one denominator: each unit
    is raised to its multiplicity by binary powering and multiplied in
    once, a unit 1 (a factor var - loc) is skipped, and each W_h becomes a
    polynomial once, at the end.  1/W_0 stays factored as prod u_i(0)^-m_i,
    so each c_n is reduced by trial division by those factors alone.  The
    spectators, the factors free of var, are reattached at the end, and
    only they cancel: c_{P-1} is reduced against its own factors, and a
    factor that does not divide a numerator does not divide its quotient.
    """
    loc = _location(r, var, loc)
    vv = r.vars.poly(var)
    shift = (lambda p: p) if loc.is_zero() else (lambda p: p.subs(var, vv + loc))

    spectators = []
    units = []          # (eps-series of numerator dicts, denominator, mult)
    pole_order = 0
    for f, m in r.den:
        if f.max_exp(var) == 0:
            spectators.append((f, m))
            continue
        f = shift(f)
        parts = f._split(var)
        j0 = min(parts)
        pole_order += j0 * m
        units.append(({j - j0: a for j, a in parts.items()}, f._d, m))

    zero = r.vars.zero()
    if pole_order == 0:
        return RatFunc(zero)
    top = pole_order - 1
    w = None
    if top:
        guard, den = r.vars._guard, 1
        for u, d, m in units:
            if len(u) > 1 or u[0] != {0: d}:
                p = _trunc_pow([u.get(h, {}) for h in range(top + 1)], m, top, guard)
                w = p if w is None else _trunc_mul(w, p, top, guard)
                den *= d ** m
        w = w and [_lowest(r.vars, x, den) for x in w]
    b0 = RatFunc(r.vars.const(1),
                 [(_lowest(r.vars, u[0], d), m) for u, d, m in units])
    num = shift(r.num).split_by(var)
    c = []
    for n in range(top + 1):
        acc = _normal(num.get(n, zero), ())
        if w:
            for h in range(1, n + 1):
                if w[h] and not c[n - h].is_zero():
                    acc = acc - w[h] * c[n - h]
        c.append(acc if acc.is_zero() else (acc * b0).reduce())
    return _cancel(c[top].num, dict(c[top].den), spectators)


def residue_sum(r, var, locs):
    """The sum of the residues of r in var at each of locs.

    The locations must be pairwise distinct as polynomials; coinciding ones
    raise DuplicatePole rather than silently double counting.  One location
    gives its residue_at as it is, already reduced; none gives zero.
    """
    locs = [_location(r, var, loc) for loc in locs]
    for i, loc in enumerate(locs):
        if loc in locs[i + 1:]:
            raise DuplicatePole("pole at %r listed twice" % (loc,))
    if not locs:
        return RatFunc(r.vars.zero())
    total = residue_at(r, var, locs[0])
    if len(locs) == 1:
        return total
    for loc in locs[1:]:
        total = total + residue_at(r, var, loc)
    return total.reduce()
