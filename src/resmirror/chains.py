"""The chain amplitude engine: one iterated residue per chain, any geometry.

A two-point number at degree d is a sum over ordered chains of irreducible
components (compositions of d; for two-form targets, axis-decorated
compositions).  Each chain contributes an amplitude: a product of per-part
deformation/obstruction blocks and per-node smoothing factors, integrated
by one residue per vertex, innermost vertex first.  All amplitudes are
exact rationals.

The integrand is never multiplied out whole.  It stays a list of factors,
each tagged with the vertices whose variables it contains, and a factor
joins the running integrand just before the residue of the first vertex it
touches.  This is exact: a residue in one variable is linear over factors
free of it, and such factors add no poles in it.  The identifications of
one vertex's variable with the next vertex's change only factors that touch
the vertex, and all of those have joined by then.  So each residue expands
only the factors near its vertex, never the ones further down the chain.

Every function here reads the geometry's declared data (geoms).  A part
along an axis in _SECTION_AXES is a section-direction block: the roots
(-i p - (S d - i) q)/d + shift * other for 0 < i < S d over a doubled P1
denominator, where S is _SPAN.  A part along any other axis is a
fiber-direction block: the _FIBER coordinate groups, and the roots of the
degree-_FIBER_DEGREE fiber equation when there is one.  A hypersurface also
puts its equation's degree, times w, in front of each section block, and
1/(_FIBER_DEGREE w) on each node.  Each fiber residue carries the orbifold
weight _W_SCALE.
"""

from fractions import Fraction

from .polys import RatFunc, VarSet
from .residues import residue_at, residue_sum


def _axis(part):
    return "a" if part[0] > 0 else "b"


def _part_deg(part):
    return part[0] + part[1]


def amplitude(g, sigma, a, b):
    """One chain's contribution on geometry g, with the 1/deg part prefactors.

    Part i touches vertices i and i + 1, node j touches j - 1, j and
    j + 1, an insertion its own vertex; each residue sees only the
    factors that touch its vertex, which is exact (_absorb).  A vertex
    that starts a section part identifies w_j = w_{j+1}; any other
    vertex takes the w residue, which on a one-form target is the
    residue in its one variable z_j.  A two-form vertex then takes the z
    residue if it starts a section part or ends the chain, and
    identifies z_j = z_{j+1} otherwise.  Each identification changes
    only factors that touch j, and all of those have been absorbed.
    """
    a, b = g.check_insertion(a), g.check_insertion(b)
    if g.n_forms == 1:
        sigma = tuple((0, d) for d in sigma)
    else:
        sigma = tuple(tuple(p) for p in sigma)
    l = len(sigma)
    letters = "zw"[:g.n_forms]
    vs = VarSet(["%s%d" % (c, j) for j in range(l + 1) for c in letters])
    x = [[vs.poly("%s%d" % (c, j)) for c in letters] for j in range(l + 1)]
    z, w = [v[0] for v in x], [v[-1] for v in x]

    # vertex 0's variables come first in vs, vertex l's last
    zeros = (0,) * (len(letters) * l)
    pending = [({0}, RatFunc(vs.monomial(a.exps + zeros))),
               ({l}, RatFunc(vs.monomial(zeros + b.exps)))]
    for i, part in enumerate(sigma):
        axis = _axis(part)
        if axis == "a":
            d, p, q, other = part[0], z[i], z[i + 1], w[i]
        else:
            d, p, q, other = part[1], w[i], w[i + 1], z[i]
        block = _section_block if axis in g._SECTION_AXES else _fiber_block
        pending.append(({i, i + 1}, block(g, d, p, q, other)))
    for j in range(1, l):
        prv, nxt = sigma[j - 1], sigma[j]
        A = (z[j] - z[j - 1]) if _axis(prv) == "a" else (w[j] - w[j - 1])
        B = (z[j] - z[j + 1]) if _axis(nxt) == "a" else (w[j] - w[j + 1])
        form = A * Fraction(1, _part_deg(prv)) + B * Fraction(1, _part_deg(nxt))
        node = _node(g, (_axis(prv), _axis(nxt)), z[j], w[j], form)
        pending.append(({j - 1, j, j + 1}, node))

    f = RatFunc(vs.const(1))
    for j in range(l, -1, -1) if g._DESCENDING else range(l + 1):
        f = _absorb(f, pending, j)
        section = j < l and _axis(sigma[j]) == "a"
        wname = "%s%d" % (letters[-1], j)
        if section:
            f = f.substitute(wname, w[j + 1])
        else:
            prev = _axis(sigma[j - 1]) if j else "b"
            f = _w_residue(g, f, wname, z[j], g._RES[prev])
        if g.n_forms == 1:
            continue
        if section or j == l:
            f = f * RatFunc(vs.const(1), [(z[j], 2)])
            f = residue_at(f, "z%d" % j)
        else:
            f = f.substitute("z%d" % j, z[j + 1])

    val = f.as_rational()
    for part in sigma:
        val /= _part_deg(part)
    return val


def _section_block(g, d, p, q, other):
    num = p.vars.const(1)
    if g._FIBER_DEGREE:
        num = g._FIBER_DEGREE * other
    for i in range(1, g._SPAN * d):
        num = num * ((-i * p - (g._SPAN * d - i) * q) * Fraction(1, d)
                     + g._SHIFT * other)
    return RatFunc(num, _part_poles([(1, 0, 2)], d, p, q))


def _fiber_block(g, d, p, q, other):
    num = p.vars.const(1)
    if g._FIBER_DEGREE:
        num = _hypersurface_roots(num, g._FIBER_DEGREE, d, p, q)
    return RatFunc(num, _part_poles(g._FIBER, d, p, q, other))


def _node(g, axes, zj, wj, form):
    # a node between two section blocks carries their root at the node
    num = zj.vars.const(1)
    if all(axis in g._SECTION_AXES for axis in axes):
        num = g._SHIFT * wj - g._SPAN * zj
    den = [(form, 1)]
    if g._FIBER_DEGREE:
        num = num * Fraction(1, g._FIBER_DEGREE)
        den.append((wj, 1))
    return RatFunc(num, den)


def _w_residue(g, f, wname, zj, prof):
    power, with_factor, with_branch_pole = prof
    wj = f.vars.poly(wname)
    den = [(wj, power)]
    locs = [0]
    if with_factor:
        den.append((wj - g._BRANCH * zj, 1))
    if with_factor or with_branch_pole:
        locs.append(g._BRANCH * zj)
    f = f * RatFunc(f.vars.const(g._W_SCALE), den)
    return residue_sum(f, wname, locs)


def _linform(c1, p1, c2, p2, scale):
    return (p1 * c1 + p2 * c2) * scale


def _hypersurface_roots(num, k, d, p, q):
    """num times the k*d + 1 roots (j p + (k d - j) q)/d that a degree-k
    equation contributes on one part of degree d."""
    for j in range(0, k * d + 1):
        num = num * _linform(j, p, k * d - j, q, Fraction(1, d))
    return num


def _part_poles(coords, d, p, q, base=None):
    """Denominator factors of one part of degree d from p to q.

    `coords` lists (weight, twist, multiplicity) per group of coordinates.
    Each distinct weight m, in ascending order, gives the forms
    (j p + (m d - j) q)/d for 0 < j < m d; every group of that weight
    contributes the form shifted by -twist * base, to its multiplicity.
    """
    den = []
    for m in sorted({weight for weight, _, _ in coords}):
        for j in range(1, m * d):
            pt = _linform(j, p, m * d - j, q, Fraction(1, d))
            for weight, twist, mult in coords:
                if weight == m:
                    den.append((pt - twist * base if twist else pt, mult))
    return den


def _absorb(f, pending, j):
    """f times the pending chain factors that touch vertex j.

    `pending` lists (vertices, factor) pairs, the vertices being those
    whose variables the factor contains; the absorbed pairs leave it.  A
    residue in a vertex's variable is linear over factors free of that
    variable, and they add no poles in it, so a factor can wait until the
    first vertex it touches without changing any value.
    """
    rest = []
    for touches, g in pending:
        if j in touches:
            f = f * g
        else:
            rest.append((touches, g))
    pending[:] = rest
    return f
