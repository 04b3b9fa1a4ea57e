"""The chain amplitude engine: one iterated residue per chain, any geometry.

A two-point number at degree d is a sum over ordered chains of irreducible
components (compositions of d; for two-form targets, axis-decorated
compositions).  Each chain contributes an amplitude: a product of per-part
deformation/obstruction blocks and per-node smoothing factors, integrated
by one residue per vertex, innermost vertex first.  All amplitudes are
exact rationals.

The integrand is never multiplied out whole.  One ascending sweep over the
vertices builds each factor at the first vertex it touches and multiplies
it in just before that vertex's residues.  This is exact: a residue in one
variable is linear over factors free of it, and such factors add no poles
in it.  So each residue expands only the factors near its vertex, never
the ones further down the chain, and a chain whose integrand a residue
kills returns 0 without building the rest.  A two-form chain identifies
the w of a z-part's two ends, and the z of a w-part's; each class of
identified vertices gets one variable when the integrand is built, named
after the last vertex of the class, whose residue removes it, so no
identification needs a substitution.

Every factor is read off the geometry's toric table (geoms): its columns,
the divisors and a local target's bundle, each a pairing (c_z, c_w) with
the two forms, and its hypersurface.  This is the edge and vertex rule of
torus localization (Kontsevich, hep-th/9405035), one column at a time:

  part   a part of degree d along axis i (z or w) runs from p to q with
         the other coordinate fixed at o.  A column c, with n = |c_i| d,
         has the points c_i (j p + (n - j) q)/n + c_o o for 0 < j < n:
         poles of the part when c_i > 0, zeros when c_i < 0.  The
         hypersurface puts in its points for 0 <= j <= n as zeros.
  node   the smoothing form, times the value c_z z + c_w w of each column
         that pairs negatively with both adjacent parts, over the value
         of the hypersurface.
  w      the w residue takes 1/(c_z z + c_w w) for each divisor with
         c_w > 0 >= c_z, except a twisted one (c_z < 0) right after a
         part it pairs negatively with, and its contour encloses w = 0
         and every twisted root.
  z      the z residue takes 1/(c_z z) for each divisor with c_w = 0 < c_z.

A one-form target has the w axis alone, so its parts, nodes and residues
are the w rules in its one variable per vertex.
"""

from fractions import Fraction

from .polys import RatFunc, VarSet, _lowest, _mul_n
from .residues import residue_at, residue_sum


def _axis(part):
    """0 for a part along z, 1 for a part along w."""
    return 0 if part[0] > 0 else 1


def amplitude(g, sigma, a, b):
    """One chain's contribution on geometry g, with the 1/deg part prefactors.

    One ascending sweep over the vertices: insertion a joins at vertex 0,
    part j and node j + 1 at vertex j, insertion b at vertex l, and then
    the residues of the classes that end at that vertex are taken.  Part j
    touches vertices j and j + 1 and node j + 1 touches j to j + 2, so every
    factor joins before the residue of any variable it contains.  Once the
    integrand is zero the sweep returns 0 without building the rest.

    A two-form variable stands for a class of vertices identified by
    construction: a z-part's two ends share w, a w-part's share z, and the
    class is named after its last vertex, where its residue goes.  On a
    one-form target each vertex takes the w residue, in its z_j.
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
        c = "wz"[_axis(sigma[j])]
        cls[c][j] = cls[c][j + 1]
    letters = "zw"[:g.n_forms]
    names = [["%s%d" % (c, cls[c][j]) for c in letters] for j in range(l + 1)]
    vs = VarSet(n for j, ns in enumerate(names) for n, c in zip(ns, letters)
                if cls[c][j] == j)
    x = [[vs.poly(n) for n in ns] for ns in names]
    zw = ([v[0] for v in x], [v[-1] for v in x])
    z, w = zw
    z_measure = [(cz, m) for (cz, cw), m in g._COLUMNS if cw == 0 < cz]

    def insertion(j, exps):
        exps = dict(zip(names[j], exps))
        return RatFunc(vs.monomial([exps.get(n, 0) for n in vs.names]))

    f = insertion(0, a.exps)
    for j in range(l + 1):
        if j < l:
            i = _axis(sigma[j])
            f = f * _part(g, i, sigma[j][i], zw[i][j], zw[i][j + 1], zw[1 - i][j])
        else:
            f = f * insertion(l, b.exps)
        if j + 1 < l:
            k, prv, nxt = j + 1, sigma[j], sigma[j + 1]
            ip, iq = _axis(prv), _axis(nxt)
            form = (zw[ip][k] - zw[ip][j]) * Fraction(1, prv[ip]) \
                + (zw[iq][k] - zw[iq][k + 1]) * Fraction(1, nxt[iq])
            f = f * _node(g, (ip, iq), z[k], w[k], form)
        if cls[letters[-1]][j] == j:
            prev = _axis(sigma[j - 1]) if j else None
            f = _w_residue(g, f, names[j][-1], z[j], prev)
        if g.n_forms == 2 and cls["z"][j] == j:
            f = f * RatFunc(vs.const(1), [(cz * z[j], m) for cz, m in z_measure])
            f = residue_at(f, "z%d" % j)
        if f.is_zero():
            return Fraction(0)

    val = f.as_rational()
    for part in sigma:
        val /= sum(part)
    return val


def _part(g, i, d, p, q, o):
    """The factor of one part of degree d along axis i, from p to q, with
    the other coordinate at o.  A point c_i (j p + (n - j) q)/n + c_o o of
    a column c is the linear form (s j p + s (n - j) q + c_o d o)/d, with
    s the sign of c_i, since n = |c_i| d: one integer form over d."""
    vs = p.vars
    kp, kq, ko = (next(iter(v._n)) for v in (p, q, o))

    def points(c):
        # 0 <= j <= n; a column's own points are the inner ones
        n, s, co = abs(c[i]) * d, (c[i] > 0) - (c[i] < 0), c[1 - i] * d
        return [{k: x for k, x in ((kp, s * j), (kq, s * (n - j)), (ko, co)) if x}
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


def _node(g, axes, zj, wj, form):
    """The factor of the node between parts on axes (i, i') at (zj, wj)."""
    num = zj.vars.const(1)
    for c, m in g._COLUMNS:
        if c[axes[0]] < 0 and c[axes[1]] < 0:
            num = num * (c[0] * zj + c[1] * wj) ** m
    den = [(form, 1)]
    if g._HYPERSURFACE:
        cz, cw = g._HYPERSURFACE
        den.append((cz * zj + cw * wj, 1))
    return RatFunc(num, den)


def _w_residue(g, f, wname, zj, prev):
    """The w residue at one vertex, after a part on axis prev (None at the
    chain start).  The pure-w divisors (c_z = 0) make one pole at w = 0."""
    wj = f.vars.poly(wname)
    scale, order, twisted, locs = Fraction(1), 0, [], [0]
    for c, m in g._COLUMNS:
        cz, cw = c
        if cz == 0 < cw:
            scale, order = scale / cw ** m, order + m
        elif cw > 0 > cz:
            locs.append(Fraction(-cz, cw) * zj)
            if prev is None or c[prev] >= 0:
                twisted.append((cz * zj + cw * wj, m))
    f = f * RatFunc(f.vars.const(scale), [(wj, order)] + twisted)
    return residue_sum(f, wname, locs)
