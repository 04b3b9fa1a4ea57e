"""Structure constants of the quantum ring, by recursion and by residues.

The constant family L(N, k, d, n) attached to a degree-k hypersurface in
projective space of N variables is pinned down two independent ways:

  * a recursion in N, grounded at N >= 2k, whose step expands a universal
    polynomial (one per degree d) and maps each monomial to a product of
    constants at level N + 1;
  * a residue formula: a rescaled two-point number of the cpn geometry.

The agreement of the two routes is a checkable statement, wired up in
:func:`check_theorem1`.  A third route, :func:`vsc_merged_contour`, fuses
the chain sum into one contour integral with movable poles; it must agree
with both and is exercised by the test suite at low degree.
:func:`gmt_upto3` turns the recursive constants into invariants through
degree three on the side N < k.

The universal polynomials rest on one combinatorial fact: the product
z_1 ... z_{d-1} decomposes uniquely over products of the node forms
r_i = 2z_i - z_{i-1} - z_{i+1}, with each coefficient polynomial f_S
depending only on the endpoints and its own indexed variables.  Setting
r_j = 0 for the interior j outside S keeps every f_T with T inside S and
kills every other term, so the coefficients come out one subset at a time,
each after its proper subsets, by exact polynomial division
(:func:`decomposition_coefficient`).  The test suite checks them, and
:func:`poly_d`, against their contour representations, which it evaluates
with :func:`_movable_residues`.
"""

from fractions import Fraction
from functools import cache
from math import prod

from .geoms import _check_int, two_point_cpn
from .polys import MultiPoly, RatFunc, VarSet


class InvalidComb(ValueError):
    """An index set outside 1 <= i_1 < ... < i_k <= d-1."""


def _check_d(d):
    """Raise InvalidComb unless d is a positive int (its type int itself)."""
    if type(d) is not int:
        raise InvalidComb("d must be an integer, got %r" % (d,))
    if d < 1:
        raise InvalidComb("d must be positive, got %r" % (d,))


def _check_indices(d, indices):
    idx = tuple(indices)
    if not all(type(i) is int for i in idx) \
            or list(idx) != sorted(set(idx)) or any(not 1 <= i <= d - 1 for i in idx):
        raise InvalidComb(
            "need 1 <= i_1 < ... < i_k <= %d, got %r" % (d - 1, indices))
    return idx


def _interior_subsets(d):
    items = range(1, d)
    for mask in range(1 << (d - 1)):
        yield tuple(i for i in items if mask >> (i - 1) & 1)


@cache
def _decomposition_table(d):
    """All decomposition coefficients f_S at once, S over interior subsets.

    Triangular in S.  Setting r_j = 0 for every interior j outside S is a
    ring map: it makes z linear between consecutive points of S and the
    endpoints, so each such z_j becomes the interpolation of its nearest
    indexed or endpoint neighbours.  It keeps every f_T with T inside S,
    since those involve only z_0, z_d and z_T, and kills every term that
    carries an r_j with j outside S.  Under it the identity reads
    f_S * prod(r_i, i in S) = z_1 ... z_{d-1} - sum(f_T * prod(r_i, i in T))
    over the proper subsets T of S, which are solved first; dividing by
    each restricted r_i, never zero, gives f_S exactly and uniquely.
    """
    vs = VarSet(["z%d" % j for j in range(d + 1)])
    z = [vs.poly("z%d" % j) for j in range(d + 1)]
    table = {}
    # a proper subset's mask is smaller, so it is solved first
    for sub in _interior_subsets(d):
        zr = list(z)
        bounds = (0,) + sub + (d,)
        for lo, hi in zip(bounds, bounds[1:]):
            for j in range(lo + 1, hi):
                zr[j] = (z[lo] * (hi - j) + z[hi] * (j - lo)) * Fraction(1, hi - lo)
        r = {i: 2 * zr[i] - zr[i - 1] - zr[i + 1] for i in sub}
        rest = vs.const(1)
        for j in range(1, d):
            rest = rest * zr[j]
        for part, f in table.items():
            if set(part) < set(sub):
                for i in part:
                    f = f * r[i]
                rest = rest - f
        for i in sub:
            rest = rest.exact_div(r[i])
            if rest is None:
                raise ArithmeticError("decomposition at d=%d: r_%d does not "
                                      "divide the remainder for %r" % (d, i, sub))
        table[sub] = rest
    return table


def decomposition_coefficient(d, indices):
    """The polynomial weighting prod(r_i for i in indices) when the product
    z_1 ... z_{d-1} is expanded over the node forms r_i = 2z_i - z_{i-1} - z_{i+1}.

    Returned on variables z0 .. z{d}; it only involves z0, z{d} and the
    indexed interior variables, and is homogeneous of degree d-1-len(indices).
    """
    _check_d(d)
    return _decomposition_table(d)[_check_indices(d, indices)]


def _movable_residues(f, forms, names, fixed):
    """Iterated residues where each contour follows one denominator form.

    ``forms`` maps a variable name to the node form whose root the contour
    encircles (along with any ``fixed`` locations for that variable); the
    other denominator factors contribute no poles, however the variable
    enters them.  A residue puts the pole location in everywhere, so the
    not-yet-integrated forms are carried per branch and updated after each
    step; branches never merge until all variables are gone.
    """
    from .residues import residue_at

    branches = [(f, forms)]
    for name in names:
        nxt = []
        for g, live in branches:
            locs = list(fixed.get(name, ()))
            own = live.get(name)
            if own is not None and own.max_exp(name) == 1:
                parts = own.split_by(name)
                if not parts[1].is_constant():
                    raise ArithmeticError("movable pole is not linear: %r" % (own,))
                root = parts.get(0, own.vars.zero()) * (
                    Fraction(-1) / parts[1].constant_value())
                if all(root != q for q in locs):
                    locs.append(root)
            elif own is not None and own.max_exp(name) > 1:
                raise ArithmeticError("movable pole is not linear: %r" % (own,))
            for loc in locs:
                res = residue_at(g, name, loc)
                if res.is_zero():
                    continue
                nxt.append((res, {h: p.subs(name, loc)
                                  for h, p in live.items() if h != name}))
        branches = nxt
    total = RatFunc(f.vars.const(0))
    for g, _ in branches:
        total = total + g
    return total.reduce()


def _table_monomials(d):
    """Every monomial of poly_d(d), as (coefficient, cuts, exponents).

    Subset S contributes d / prod(gaps) * prod(z_i, i in S) * f_S, the gaps
    being those between consecutive cuts (0,) + S + (d,).  f_S involves only
    z0, z_d and z_S, so a monomial's interior variables are exactly S: no
    two subsets share a monomial, and its cuts are read off the table key.
    The exponents run over z0 .. z{d}.
    """
    for sub, f in _decomposition_table(d).items():
        cuts = (0,) + sub + (d,)
        scale = Fraction(d, prod(hi - lo for lo, hi in zip(cuts, cuts[1:])))
        for exps, coef in f.terms.items():
            yield scale * coef, cuts, tuple(e + (i in sub) for i, e in enumerate(exps))


def poly_d(d):
    """The degree-(d-1) universal polynomial in x, y, z1 .. z{d-1} whose
    monomials drive one step of the level recursion; _step_terms reads
    the same monomials, decoded."""
    _check_d(d)
    vs = VarSet(["x", "y"] + ["z%d" % i for i in range(1, d)])
    return MultiPoly(vs, {(exps[0], exps[d]) + exps[1:d]: coef
                          for coef, _, exps in _table_monomials(d)})


@cache
def _initial_coeffs(k):
    """Coefficient list of the grounding polynomial k * prod(j w + (k - j))."""
    poly = [1]
    for j in range(1, k):
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i] += c * (k - j)
            nxt[i + 1] += c * j
        poly = nxt
    return [Fraction(k * c) for c in poly]


def _check_domain(N, k, d, n=0):
    """Every route needs integers N >= 2, k >= 1, d >= 1 and an integer n."""
    for name, v in (("N", N), ("k", k), ("d", d), ("n", n)):
        _check_int(name, v)
    if N < 2 or k < 1 or d < 1:
        raise ValueError("need N >= 2, k >= 1, d >= 1")


def _vanishes(N, k, d, n):
    """The range rule: L(N, k, d, n) = 0 unless 0 <= n <= N - 1 - (N - k) d."""
    return not 0 <= n <= N - 1 - (N - k) * d


@cache
def _step_terms(d):
    """The monomials of poly_d(d), read once off the decomposition table:
    a (coefficient, parts) pair per monomial.

    x^m_0 z_i1^m_1 ... y^m_r cuts 0 < i_1 < ... < d into parts; part j is
    the next level's constant of degree i_j - i_(j-1) at index
    n + i_(j-1) (N - k + 1) + 1 - d + m_j + ... + m_r, kept as the triple
    (i_(j-1), i_j - i_(j-1), 1 - d + m_j + ... + m_r).
    """
    return [(coef, [(lo, hi - lo, 1 - d + sum(exps[i] for i in cuts[j:]))
                    for j, (lo, hi) in enumerate(zip(cuts, cuts[1:]), 1)])
            for coef, cuts, exps in _table_monomials(d)]


_LEVELS = {}    # (N, k, d, n) -> L(N, k, d, n), shared by every call


def vsc_recursive(N, k, d, n):
    """L(N, k, d, n) by the level recursion, memoized.

    Out-of-range n yields zero; the recursion grounds where N >= 2k.  The
    levels are walked in loops, not by recursion: up to 2k, collecting the
    (degree, index) pairs each level needs, then down, each from the next.
    """
    _check_domain(N, k, d, n)
    needs = [{(d, n)}]
    for M in range(N, 2 * k):
        needs.append({(part, nn + lo * (M - k + 1) + off) for dd, nn in needs[-1]
                      if (M, k, dd, nn) not in _LEVELS and not _vanishes(M, k, dd, nn)
                      for _, parts in _step_terms(dd) for lo, part, off in parts})
    for M in range(N + len(needs) - 1, N - 1, -1):
        for dd, nn in needs[M - N]:
            key = (M, k, dd, nn)
            if key in _LEVELS:
                continue
            if _vanishes(M, k, dd, nn) or (M >= 2 * k and dd > 1):
                _LEVELS[key] = Fraction(0)
            elif M >= 2 * k:
                _LEVELS[key] = _initial_coeffs(k)[nn]
            else:
                _LEVELS[key] = sum(
                    (coef * prod(_LEVELS[M + 1, k, part, nn + lo * (M - k + 1) + off]
                                 for lo, part, off in parts)
                     for coef, parts in _step_terms(dd)), Fraction(0))
    return _LEVELS[N, k, d, n]


def gmt_upto3(N, k):
    """Invariants through degree three from the structure constants.

    Valid on the side N < k where the closed-form transform is known.
    Returns a map (d, (a, b)) -> value over all insertion pairs allowed
    at each degree.  The structure constants come from the level
    recursion, so N and k must be integers with N >= 2 and k >= 1, as
    there.
    """
    _check_domain(N, k, 1)
    if N >= k:
        raise ValueError("closed-form transform needs N < k")

    def L(d, n):
        return vsc_recursive(N, k, d, n)

    e = k - N

    def s_range(f, lo, hi):
        return sum(f(j) for j in range(lo, hi + 1))

    out = {}
    for d in (1, 2, 3):
        for n in range(1 + e * d, N - 1):
            pair = (N - 2 - n, n - 1 - e * d)
            if d == 1:
                val = L(1, n) - L(1, 1 + e)
            elif d == 2:
                val = (L(2, n) - L(2, 1 + 2 * e)) / 2 \
                    - L(1, 1 + e) * s_range(
                        lambda j: L(1, n - j) - L(1, 1 + 2 * e - j), 0, e)
            else:
                def A(j):
                    return Fraction(j + 1 if j <= e else 1 + 2 * e - j)

                def B(nn):
                    tot = Fraction(0)
                    full = s_range(lambda m: L(1, nn - m), 0, 2 * e)
                    for j in range(0, e):
                        tot += s_range(lambda m: L(1, nn - m)
                                       * L(1, nn - 2 * e + j - m), 0, j)
                        tot -= L(1, e + 2 + j) * full
                        tot += L(1, 1 + e) * s_range(
                            lambda m: L(1, nn - m), j + 1, 2 * e - j - 1)
                    return tot

                val = (L(3, n) - L(3, 1 + 3 * e)) / 3 \
                    - L(1, 1 + e) * (s_range(
                        lambda j: L(2, n - j) - L(2, 1 + 3 * e - j), 0, e)
                        + B(n) - B(1 + 3 * e)) \
                    - Fraction(1, 2) * L(2, 1 + 2 * e) * s_range(
                        lambda j: L(1, n - j) - L(1, 1 + 3 * e - j), 0, 2 * e) \
                    + Fraction(3, 2) * L(1, 1 + e) ** 2 * s_range(
                        lambda j: A(j) * (L(1, n - j) - L(1, 1 + 3 * e - j)),
                        0, 2 * e)
            out[(d, pair)] = k * val
    return out


def vsc_residue(N, k, d, n):
    """L(N, k, d, n) from the cpn two-point number at matched insertions.

    Out-of-range n yields zero, as in vsc_recursive.  Inside the range the
    insertions z^(N-2-n) and z^(n-1+(N-k)d) must both be basis classes,
    which needs 1 - (N-k)d <= n <= N - 2; other n raise ValueError.
    """
    _check_domain(N, k, d, n)
    if _vanishes(N, k, d, n):
        return Fraction(0)
    lo = 1 - (N - k) * d
    if not lo <= n <= N - 2:
        raise ValueError("the residue route needs %d <= n <= %d" % (lo, N - 2))
    return Fraction(d, k) * two_point_cpn(N, k, d, N - 2 - n, n - 1 + (N - k) * d)


def vsc_merged_contour(N, k, d, n):
    """L(N, k, d, n) as a single iterated contour with movable interior poles.

    Interior variables are integrated about both the origin and the midpoint
    of their neighbors, innermost first; the endpoint variables about the
    origin only.  Unlike vsc_residue, the endpoint exponents may be negative
    here.
    """
    _check_domain(N, k, d, n)
    vs = VarSet(["z%d" % j for j in range(d + 1)])
    z = [vs.poly("z%d" % j) for j in range(d + 1)]
    num = vs.const(1)
    den = []
    for j, e in ((0, N - 2 - n), (d, n - 1 + (N - k) * d)):
        if e >= 0:
            num = num * z[j] ** e
        else:
            den.append((z[j], -e))
    den += [(z[0], N), (z[d], N)]
    forms = {}
    fixed = {"z0": [0], "z%d" % d: [0]}
    for i in range(1, d):
        forms["z%d" % i] = 2 * z[i] - z[i - 1] - z[i + 1]
        fixed["z%d" % i] = [vs.const(0)]
        den += [(z[i], N), (forms["z%d" % i], 1), (k * z[i], 1)]
    for j in range(1, d + 1):
        for m in range(0, k + 1):
            num = num * (m * z[j - 1] + (k - m) * z[j])
    names = ["z%d" % i for i in range(1, d)] + ["z0", "z%d" % d]
    f = _movable_residues(RatFunc(num, den), forms, names, fixed)
    return Fraction(d, k) * f.as_rational()


class Theorem1Report:
    """Per-n comparison of the recursive and residue routes."""

    def __init__(self, N, k, d, rows):
        self.N, self.k, self.d = N, k, d
        self.rows = rows

    @property
    def ok(self):
        return all(rec == res for _, rec, res in self.rows)

    def lines(self):
        out = []
        for n, rec, res in self.rows:
            mark = "ok" if rec == res else "MISMATCH"
            out.append("n=%d recursive=%s residue=%s %s" % (n, rec, res, mark))
        out.append("theorem1 N=%d k=%d d=%d: %s"
                   % (self.N, self.k, self.d, "agree" if self.ok else "DISAGREE"))
        return out


def check_theorem1(N, k, d):
    """Compare vsc_recursive and vsc_residue on every n both routes cover;
    a ValueError when they cover none."""
    _check_domain(N, k, d)
    lo = max(0, 1 - (N - k) * d)
    hi = min(N - 2, N - 1 - (N - k) * d)
    if lo > hi:
        raise ValueError("theorem1 N=%d k=%d d=%d compares nothing: the range "
                         "max(0, 1-(N-k)d) <= n <= min(N-2, N-1-(N-k)d) is "
                         "%d <= n <= %d" % (N, k, d, lo, hi))
    rows = [(n, vsc_recursive(N, k, d, n), vsc_residue(N, k, d, n))
            for n in range(lo, hi + 1)]
    return Theorem1Report(N, k, d, rows)
