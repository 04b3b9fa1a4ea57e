"""The chain engine as it was before it read the toric table: every factor
built from constants each geometry declared by hand, kept as a
differential oracle for chains.

The constants come from test_toric.literal_geometry: _SECTION_AXES, the
axes whose parts are section blocks; _SPAN and _SHIFT, the negative
column's pairings; _SECTION_BASE and _FIBER, (weight, twist,
multiplicity) pole groups; _FIBER_DEGREE, the hypersurface's degree in w;
_BRANCH, the twisted root w = _BRANCH z; _W_SCALE, the orbifold weight of
a w residue; and _RES[prev], the w residue's (pole order, measure carries
1/(w - _BRANCH z), contour encloses w = _BRANCH z) after a part on axis
prev, the chain start counting as "b".
"""

from fractions import Fraction

from resmirror.polys import RatFunc, VarSet, _lowest, _mul_n
from resmirror.residues import residue_at, residue_sum


def _axis(part):
    return "a" if part[0] > 0 else "b"


def _part_deg(part):
    return part[0] + part[1]


def amplitude(g, sigma, a, b):
    """One chain's contribution on geometry g, with the 1/deg part prefactors.

    One ascending sweep over the vertices: insertion a joins at vertex 0,
    part j and node j + 1 at vertex j, insertion b at vertex l, and then
    the residues of the classes that end at that vertex are taken.  Part j
    touches vertices j and j + 1 and node j + 1 touches j to j + 2, so every
    factor joins before the residue of any variable it contains.  Once the
    integrand is zero the sweep returns 0 without building the rest.

    A two-form variable stands for a class of vertices identified by
    construction: a section part's two ends share w, a fiber part's share
    z, and the class is named after its last vertex, where its residue
    goes.  On a one-form target each vertex takes the w residue, in its
    z_j.
    """
    a, b = g.check_insertion(a), g.check_insertion(b)
    if g.n_forms == 1:
        sigma = tuple((0, d) for d in sigma)
    else:
        sigma = tuple(tuple(p) for p in sigma)
    l = len(sigma)
    # cls[c][j]: the last vertex of vertex j's class for letter c
    cls = {"z": list(range(l + 1)), "w": list(range(l + 1))}
    for j in range(l - 1, -1, -1) if g.n_forms == 2 else ():
        c = "w" if _axis(sigma[j]) == "a" else "z"
        cls[c][j] = cls[c][j + 1]
    letters = "zw"[:g.n_forms]
    names = [["%s%d" % (c, cls[c][j]) for c in letters] for j in range(l + 1)]
    vs = VarSet(n for j, ns in enumerate(names) for n, c in zip(ns, letters)
                if cls[c][j] == j)
    x = [[vs.poly(n) for n in ns] for ns in names]
    z, w = [v[0] for v in x], [v[-1] for v in x]

    def insertion(j, exps):
        exps = dict(zip(names[j], exps))
        return RatFunc(vs.monomial([exps.get(n, 0) for n in vs.names]))

    f = insertion(0, a.exps)
    for j in range(l + 1):
        if j < l:
            part = sigma[j]
            if _axis(part) == "a":
                d, p, q, other = part[0], z[j], z[j + 1], w[j]
            else:
                d, p, q, other = part[1], w[j], w[j + 1], z[j]
            block = _section_block if _axis(part) in g._SECTION_AXES else _fiber_block
            f = f * block(g, d, p, q, other)
        else:
            f = f * insertion(l, b.exps)
        if j + 1 < l:
            k, prv, nxt = j + 1, sigma[j], sigma[j + 1]
            A = (z[k] - z[j]) if _axis(prv) == "a" else (w[k] - w[j])
            B = (z[k] - z[k + 1]) if _axis(nxt) == "a" else (w[k] - w[k + 1])
            form = A * Fraction(1, _part_deg(prv)) + B * Fraction(1, _part_deg(nxt))
            f = f * _node(g, (_axis(prv), _axis(nxt)), z[k], w[k], form)
        if cls[letters[-1]][j] == j:
            prev = _axis(sigma[j - 1]) if j else "b"
            f = _w_residue(g, f, names[j][-1], z[j], g._RES[prev])
        if g.n_forms == 2 and cls["z"][j] == j:
            f = f * RatFunc(vs.const(1), [(z[j], 2)])
            f = residue_at(f, "z%d" % j)
        if f.is_zero():
            return Fraction(0)

    val = f.as_rational()
    for part in sigma:
        val /= _part_deg(part)
    return val


def _section_block(g, d, p, q, other):
    forms = [[(-i, p), (i - g._SPAN * d, q), (g._SHIFT * d, other)]
             for i in range(1, g._SPAN * d)]
    num = g._FIBER_DEGREE * other if g._FIBER_DEGREE else p.vars.const(1)
    return RatFunc(_times_forms(num, forms, d),
                   _part_poles(g._SECTION_BASE, d, p, q))


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


def _times_forms(num, forms, d):
    """num times the product of the linear forms over d, each form a list
    of (integer, variable) pairs over distinct variables: one pass of the
    integer product kernel over the denominator d^len(forms)."""
    n, guard = num._n, num.vars._guard
    for form in forms:
        n = _mul_n(n, {next(iter(v._n)): c for c, v in form if c}, guard)
    return _lowest(num.vars, n, num._d * d ** len(forms))


def _hypersurface_roots(num, k, d, p, q):
    """num times the k*d + 1 roots (j p + (k d - j) q)/d that a degree-k
    equation contributes on one part of degree d."""
    return _times_forms(num, [[(j, p), (k * d - j, q)] for j in range(k * d + 1)], d)


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
            pt = (p * j + q * (m * d - j)) * Fraction(1, d)
            for weight, twist, mult in coords:
                if weight == m:
                    den.append((pt - twist * base if twist else pt, mult))
    return den


def two_point(g, dd, a, b):
    """Geometry.two_point's chain sum, on this engine."""
    a, b = g.check_insertion(a), g.check_insertion(b)
    if a.degree() + b.degree() != g.selection_degree(dd):
        return Fraction(0)
    if b.degree() > a.degree():
        a, b = b, a
    return sum((amplitude(g, sigma, a, b) for sigma in g._chains(dd)), Fraction(0))
