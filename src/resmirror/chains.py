"""The chain amplitude engine: one iterated residue per chain, any geometry.

A two-point number at degree d is a sum over ordered chains of irreducible
components (compositions of d; on r >= 2 forms, compositions whose parts
each lie along one axis).  Each chain contributes an amplitude: a product
of per-part deformation/obstruction blocks and per-node smoothing factors,
integrated by one residue per vertex and axis, innermost vertex first.
All amplitudes are exact rationals.

The integrand is never multiplied out whole.  One ascending sweep over the
vertices builds each factor at the first vertex it touches and multiplies
it in just before that vertex's residues.  This is exact: a residue in one
variable is linear over factors free of it, and such factors add no poles
in it.  So each residue expands only the factors near its vertex, never
the ones further down the chain, and a chain whose integrand a residue
kills returns 0 without building the rest.  A part along axis i
identifies every other axis's variable at its two ends; each class of
identified vertices gets one variable when the integrand is built, named
after the last vertex of the class, whose residue removes it, so no
identification needs a substitution.

Every factor is read off the geometry's toric table (geoms): its columns,
the divisors and a local target's bundle, each a pairing c_i with every
form i, and its hypersurface.  This is the edge and vertex rule of torus
localization (Kontsevich, hep-th/9405035), one column and one axis at a
time, with x_i the axis-i variable (z, w, ... in geoms._AXES):

  part   a part of degree d along axis i runs from p to q with every other
         x_o fixed.  A column c, with n = |c_i| d, has the points
         c_i (j p + (n - j) q)/n + sum_o c_o x_o for 0 < j < n: poles of
         the part when c_i > 0, zeros when c_i < 0.  The hypersurface,
         which may pair with every axis, puts in its points for
         0 <= j <= n as zeros.
  node   the smoothing form, times the value sum_i c_i x_i of each column
         that pairs negatively with both adjacent parts, over the value of
         the hypersurface.
  axis c at each vertex the residues run from the last axis to the first,
         over the classes that end there and the poles Geometry._derive
         placed on axis c (the rule is stated there), a twisted one's
         factor left out when a part inside its class pairs negatively.
"""

from fractions import Fraction

from .geoms import _AXES
from .polys import RatFunc, VarSet, _lowest, _mul_n
from .residues import residue_sum


def amplitude(g, sigma, a, b):
    """One chain's contribution on geometry g, with the 1/deg part prefactors.

    One ascending sweep over the vertices: insertion a joins at vertex 0,
    part j and node j + 1 at vertex j, insertion b at vertex l, and then
    the residues of the classes that end at that vertex are taken, from
    the last axis to the first.  Part j touches vertices j and j + 1 and
    node j + 1 touches j to j + 2, so every factor joins before the residue
    of any variable it contains.  Once the integrand is zero the sweep
    returns 0 without building the rest.

    A variable stands for a class of vertices identified by construction:
    a part along axis i identifies every other axis's variable at its two
    ends, and the class is named after its last vertex, where its residue
    goes.  A one-form chain is a tuple of degrees, each the part (d,).
    """
    a, b = g.check_insertion(a), g.check_insertion(b)
    sigma = [p if isinstance(p, tuple) else (p,) for p in sigma]
    r, l = g.n_forms, len(sigma)
    axes = [next(i for i, d in enumerate(p) if d) for p in sigma]
    # cls[c][j]: the last vertex of vertex j's class on axis c
    cls = [list(range(l + 1)) for _ in range(r)]
    for j in range(l - 1, -1, -1):
        for c in range(r):
            if c != axes[j]:
                cls[c][j] = cls[c][j + 1]
    names = [["%s%d" % (_AXES[c], cls[c][j]) for c in range(r)] for j in range(l + 1)]
    vs = VarSet(ns[c] for j, ns in enumerate(names) for c in range(r) if cls[c][j] == j)
    x = [[vs.poly(n) for n in ns] for ns in names]

    def insertion(j, exps):
        exps = dict(zip(names[j], exps))
        return RatFunc(vs.monomial([exps.get(n, 0) for n in vs.names]))

    f = insertion(0, a.exps)
    for j in range(l + 1):
        if j < l:
            i = axes[j]
            f = f * _part(g, i, sigma[j][i], x[j], x[j + 1])
        else:
            f = f * insertion(l, b.exps)
        if j + 1 < l:
            k, ip, iq = j + 1, axes[j], axes[j + 1]
            form = (x[k][ip] - x[j][ip]) * Fraction(1, sigma[j][ip]) \
                + (x[k][iq] - x[k + 1][iq]) * Fraction(1, sigma[k][iq])
            f = f * _node(g, (ip, iq), x[k], form)
        for c in reversed(range(r)):
            if cls[c][j] == j:
                f = _residue(g, f, names[j][c], c, x[j], axes[cls[c].index(j):j])
        if f.is_zero():
            return Fraction(0)

    val = f.as_rational()
    for part in sigma:
        val /= sum(part)
    return val


def _value(c, xs):
    """The linear form sum_i c_i x_i of a column c at a vertex's variables."""
    return sum(e * v for e, v in zip(c, xs) if e)


def _part(g, i, d, here, there):
    """The factor of one part of degree d along axis i, between vertices
    whose variables here and there agree off axis i.  A point
    c_i (j p + (n - j) q)/n + sum_o c_o x_o of a column c, with p and q
    the axis-i variables at the two ends, is the linear form
    (s j p + s (n - j) q + d sum_o c_o x_o)/d, with s the sign of c_i,
    since n = |c_i| d: one integer form over d."""
    vs = here[i].vars
    keys = [next(iter(v._n)) for v in here]
    kp, kq = keys[i], next(iter(there[i]._n))

    def points(c):
        # 0 <= j <= n; a column's own points are the inner ones
        n, s = abs(c[i]) * d, (c[i] > 0) - (c[i] < 0)
        rest = [(k, e * d) for o, (k, e) in enumerate(zip(keys, c)) if o != i]
        return [{k: e for k, e in [(kp, s * j), (kq, s * (n - j))] + rest if e}
                for j in range(n + 1)]

    zeros, poles = [], []
    for c, m in g._COLUMNS:
        if c[i] > 0:
            poles += [(_lowest(vs, pt, d), m) for pt in points(c)[1:-1]]
        elif c[i] < 0:
            zeros += points(c)[1:-1] * m
    if g._HYPERSURFACE:
        zeros += points(g._HYPERSURFACE)
    num = {0: 1}
    for form in zeros:
        num = _mul_n(num, form, vs._guard)
    return RatFunc(_lowest(vs, num, d ** len(zeros)), poles)


def _node(g, axes, xs, form):
    """The factor of the node between parts on axes (i, i') at variables xs."""
    num = xs[0].vars.const(1)
    for c, m in g._COLUMNS:
        if c[axes[0]] < 0 and c[axes[1]] < 0:
            num = num * _value(c, xs) ** m
    den = [(form, 1)]
    if g._HYPERSURFACE:
        den.append((_value(g._HYPERSURFACE, xs), 1))
    return RatFunc(num, den)


def _residue(g, f, name, c, xs, inside):
    """The residue in the axis-c variable name, xs[c], at one vertex whose
    class spans parts on the axes in inside, over g._POLES[c] with c_c > 0:
    a pure pole at 0, and each twisted root in the contour, its factor left
    out after a part of its class that pairs negatively with it."""
    scale, order, twisted, locs = Fraction(1), 0, [], [0]
    for col, cc, m, root in g._POLES[c]:
        if cc < 0:
            continue
        if root is None:
            scale, order = scale / cc ** m, order + m
            continue
        locs.append(sum(r * v for r, v in zip(root, xs) if r))
        if all(col[p] >= 0 for p in inside):
            twisted.append((_value(col, xs), m))
    f = f * RatFunc(f.vars.const(scale), [(xs[c], order)] + twisted)
    return residue_sum(f, name, locs)
