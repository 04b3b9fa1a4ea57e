"""A geometry is its divisor table: checks on targets declared only by a
table, and the engine against the constants it used to read.

Before chains read the table, each class declared (and later derived)
engine constants by hand; LITERALS keeps them, and literal_geometry hands
them to tests/literal_engine.py, the engine of that time, so every two-point
number can be compared with the one the old construction gives.  The
flatness check reads nothing but two_point and classical_triple, so it
holds any two-form table to Conjecture 2 without published data; the
Hirzebruch surfaces F_n, compact F0 and the local projective spaces are
declared here as rows with their own names (cache keys are name plus
parameters).
"""

import copy
import math
from fractions import Fraction as F
from itertools import combinations_with_replacement, product

import pytest

import literal_engine
from resmirror import chains
from resmirror.geoms import F3Geometry, Insertion, Wp2Geometry, geometry
from resmirror.series import mirror_map


def _one_form_literals(weights, k):
    return {"dim": len(weights) - 2, "_C1": (sum(weights) - k,),
            "_SECTION_AXES": "a", "_SPAN": None, "_SHIFT": None,
            "_SECTION_BASE": None, "_FIBER_DEGREE": k,
            "_FIBER": tuple((m, 0, weights.count(m)) for m in sorted(set(weights))),
            "_BRANCH": None, "_W_SCALE": F(1, math.prod(weights)),
            "_RES": {"b": (len(weights), False, False)}}


_FIBRATION = {"dim": 3, "_C1": (0, 0), "_SECTION_AXES": "a", "_SPAN": 2, "_SHIFT": 1,
              "_SECTION_BASE": ((1, 0, 2),), "_BRANCH": 2, "_W_SCALE": F(1),
              "_RES": {"a": (3, False, True), "b": (3, True, True)}}

# the constants each class declared by hand before they were derived
LITERALS = {
    ("cpn", (("N", 5), ("k", 5))): _one_form_literals((1,) * 5, 5),
    ("cpn", (("N", 3), ("k", 2))): _one_form_literals((1,) * 3, 2),
    ("cpn", (("N", 7), ("k", 9))): _one_form_literals((1,) * 7, 9),
    ("wp2", ()): _one_form_literals((1, 1, 1, 3), 6),
    ("kf0", (("k", 1),)): {
        "dim": 3, "_C1": (0, 0), "_SECTION_AXES": "ab", "_SPAN": 2, "_SHIFT": -2,
        "_SECTION_BASE": ((1, 0, 2),), "_FIBER_DEGREE": None, "_FIBER": (),
        "_BRANCH": None, "_W_SCALE": F(1),
        "_RES": {"a": (2, False, False), "b": (2, False, False)}},
    ("f3", ()): {
        "dim": 2, "_C1": (-1, 2), "_SECTION_AXES": "a", "_SPAN": 3, "_SHIFT": 1,
        "_SECTION_BASE": ((1, 0, 2),), "_FIBER_DEGREE": None,
        "_FIBER": ((1, 3, 1), (1, 0, 1)), "_BRANCH": 3,
        "_W_SCALE": F(1), "_RES": {"a": (1, False, False), "b": (1, True, True)}},
    ("wp1", ()): dict(_FIBRATION, _FIBER_DEGREE=4, _FIBER=((1, 0, 3), (1, 2, 1))),
    ("wp3", ()): dict(_FIBRATION, _FIBER_DEGREE=6, _W_SCALE=F(1, 3),
                      _FIBER=((1, 0, 2), (1, 2, 1), (3, 0, 1))),
}

# The two documented differences of the derived constants.  f3 encloses
# the branch point w = 3z after a section part, as wp1 and wp3 always did;
# the old profile left F1 one number short (test_f1_line_through_two_points).
# A one-form target has no section axis; the old class default "a" was
# never matched, since every one-form part lies on axis b.
CHANGED = {("f3", "_RES"): {"a": (1, False, True), "b": (1, True, True)},
           ("cpn", "_SECTION_AXES"): "", ("wp2", "_SECTION_AXES"): ""}


def _hirzebruch_literals(n):
    # f3's constants, with its derived profile, at twist n
    return {"_SECTION_AXES": "a", "_SPAN": n, "_SHIFT": 1, "_SECTION_BASE": ((1, 0, 2),),
            "_FIBER_DEGREE": None, "_FIBER": ((1, n, 1), (1, 0, 1)), "_BRANCH": n,
            "_W_SCALE": F(1), "_RES": {"a": (1, False, True), "b": (1, True, True)}}


def _local_literals(n):
    # K_{P^(n-1)}: every part a section part of the bundle (0, -n)
    return {"_SECTION_AXES": "b", "_SPAN": n, "_SHIFT": 0, "_SECTION_BASE": ((1, 0, n),),
            "_FIBER_DEGREE": None, "_FIBER": (), "_BRANCH": None, "_W_SCALE": F(1),
            "_RES": {"b": (n, False, False)}}


ROWS = {"f1": _hirzebruch_literals(1), "f2": _hirzebruch_literals(2),
        "f4": _hirzebruch_literals(4), "kp1": _local_literals(2), "kp2": _local_literals(3)}


def literal_geometry(g):
    """A copy of g carrying the constants literal_engine reads: LITERALS
    with CHANGED for a shipped class (any cpn by the same rule), ROWS for
    a row declared here."""
    if g.name == "cpn":
        consts = _one_form_literals((1,) * g.N, g.k)
    else:
        consts = LITERALS.get((g.name, g.params())) or ROWS[g.name]
    old = copy.copy(g)
    vars(old).update(consts)
    vars(old).update({attr: v for (name, attr), v in CHANGED.items() if name == g.name})
    return old


@pytest.mark.parametrize("name,params", sorted(LITERALS), ids=str)
def test_derived_constants_match_the_hand_set_literals(name, params):
    # dim and _C1 are the constants still derived; chains reads the table
    g = geometry(name, **dict(params))
    want = LITERALS[name, params]
    assert (g.dim, g._C1) == (want["dim"], want["_C1"])


def local_projective(n):
    """K_{P^{n-1}} as a one-form row: n divisors (0, 1) and the bundle
    (0, -n), no hypersurface."""
    return type("KP%dGeometry" % (n - 1), (Wp2Geometry,), {
        "name": "kp%d" % (n - 1), "_DIVISORS": ((0, 1),) * n,
        "_HYPERSURFACE": None, "_BUNDLE": (0, -n),
        "basis": lambda self: [Insertion(i) for i in range(n)]})()


@pytest.mark.parametrize("n", [2, 3])
def test_a_section_on_axis_b_reads_its_own_pairing(n):
    # kf0 is symmetric in z and w, so only a one-form bundle row (ROADMAP
    # item 9) shows which pairing of the bundle makes the part's zeros;
    # its raw <1, z^(n-1)>_d is -(-1)^(nd) (nd - 1)! / (d!)^n, and its
    # classical triple is the integral of H^n / e(O(-n)), -1/n
    g = local_projective(n)
    assert (g.dim, g._C1) == (n, (0,))
    for d in (1, 2, 3):
        want = -F((-1) ** (n * d) * math.factorial(n * d - 1), math.factorial(d) ** n)
        assert g.two_point(d, Insertion(0), Insertion(n - 1)) == want
    assert g.classical_triple(Insertion(0), Insertion(1), Insertion(n - 1)) == F(-1, n)


def hirzebruch(n):
    """F_n as a row of the divisor table: z, z, w - n z and w."""
    cls = type("F%dGeometry" % n, (F3Geometry,),
               {"name": "f%d" % n, "_DIVISORS": ((1, 0), (1, 0), (-n, 1), (0, 1))})
    g = cls()
    # the row is F_n only if its ring is: w^2 = n times the point class
    assert g.classical_triple("w", "w", "1") == n
    return g


def compact_f0():
    """P1 x P1 as a row with no twisted divisor, z, z, w and w, on the
    basis 1, z, w, zw; no geometry name is registered for it."""
    return type("F0Geometry", (F3Geometry,), {
        "name": "f0", "_DIVISORS": ((1, 0), (1, 0), (0, 1), (0, 1)),
        "basis": lambda self: [Insertion(s, t) for t in range(2) for s in range(2)]})()


# -- flatness of the raw connection -----------------------------------------


def _mat_inverse(G):
    """Gauss-Jordan inverse of a square rational matrix."""
    n = len(G)
    A = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
         for i, row in enumerate(G)]
    for c in range(n):
        r = next(r for r in range(c, n) if A[r][c])
        A[c], A[r] = A[r], A[c]
        piv = A[c][c]
        A[c] = [x / piv for x in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return [row[n:] for row in A]


def _series_matmul(X, Y, T):
    """Product of matrices whose entries are {(i, j): coefficient} series
    in q1, q2, cut above total degree T."""
    n = len(X)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            for j in range(n):
                acc = out[i][j]
                for (a1, a2), x in X[i][k].items():
                    for (b1, b2), y in Y[k][j].items():
                        if a1 + a2 + b1 + b2 <= T:
                            key = (a1 + b1, a2 + b2)
                            acc[key] = acc.get(key, 0) + x * y
    return out


def flatness_defect(g, T):
    """The nonzero entries of [A_z, A_w] through total degree T, where
    A_i = G^-1 M_i, G_ab = <a, b, 1> and M_i[a][b] = <a, b, phi_i> plus
    the sum over beta of beta_i w(a, b)_beta q^beta."""
    basis = [a for a in g.basis() if a not in (Insertion(0, 3), Insertion(1, 3))]
    n = len(basis)
    one = Insertion(0, 0)
    Ginv = _mat_inverse([[g.classical_triple(a, b, one) for b in basis] for a in basis])
    degrees = [(da, t - da) for t in range(1, T + 1) for da in range(t + 1)]
    raw = {}
    for i in range(n):
        for j in range(i, n):
            for dd in degrees:
                v = g.two_point(dd, basis[i], basis[j])
                if v:
                    raw[i, j, dd] = raw[j, i, dd] = v
    A = []
    for axis, phi in enumerate((Insertion(1, 0), Insertion(0, 1))):
        M = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                c = g.classical_triple(basis[i], basis[j], phi)
                if c:
                    M[i][j][0, 0] = F(c)
        for (i, j, dd), v in raw.items():
            M[i][j][dd] = dd[axis] * v
        A.append([[{key: sum(Ginv[i][k] * M[k][j].get(key, 0) for k in range(n))
                    for key in {key for k in range(n) for key in M[k][j]}}
                   for j in range(n)] for i in range(n)])
    zw = _series_matmul(A[0], A[1], T)
    wz = _series_matmul(A[1], A[0], T)
    defect = {}
    for i in range(n):
        for j in range(n):
            for key in zw[i][j].keys() | wz[i][j].keys():
                c = zw[i][j].get(key, 0) - wz[i][j].get(key, 0)
                if c:
                    defect[i, j, key] = c
    return defect


@pytest.mark.parametrize("make,T", [
    (lambda: geometry("f3"), 5),
    (lambda: geometry("wp1"), 4),
    (lambda: geometry("wp3"), 4),
    (lambda: hirzebruch(1), 5),
    (lambda: hirzebruch(2), 5),
    (lambda: hirzebruch(4), 5),
], ids=["f3", "wp1", "wp3", "F1", "F2", "F4"])
def test_raw_connection_is_flat(make, T):
    assert flatness_defect(make(), T) == {}


def test_flatness_sees_the_old_f3_profile_on_f1(monkeypatch):
    # F1 with the profile f3 used to declare by hand, no branch pole in
    # the contour after a z-part: the one gap is at degree (1, 1)
    g = hirzebruch(1)
    old = literal_geometry(g)
    w_residue = chains._w_residue

    def old_profile(g, f, wname, zj, prev):
        if prev != 0:
            return w_residue(g, f, wname, zj, prev)
        return literal_engine._w_residue(old, f, wname, zj, (1, False, False))

    monkeypatch.setattr(chains, "_w_residue", old_profile)
    defect = flatness_defect(g, 3)
    assert defect and {key for _, _, key in defect} == {(1, 1)}


def test_f1_line_through_two_points():
    # on F1 the class (1, 1) is the line class of the blown-up plane, and
    # exactly one line passes through two points
    assert hirzebruch(1).two_point((1, 1), "w2", "w2") == 1


def test_f2_mirror_map_from_its_divisor_row():
    # F2 is semi-Fano: t1 = x1 + 2 S and t2 = x2 - S with
    # S = sum (2d - 1)! / (d!)^2 e^(d x1)
    D = 5
    m = mirror_map(hirzebruch(2), D)
    S = {(d, 0): F(math.factorial(2 * d - 1), math.factorial(d) ** 2)
         for d in range(1, D + 1)}
    assert m.forward[0].affine == (1, 0) and m.forward[0].const == 0
    assert m.forward[1].affine == (0, 1) and m.forward[1].const == 0
    assert m.forward[0].terms == {k: 2 * c for k, c in S.items()}
    assert m.forward[1].terms == {k: -c for k, c in S.items()}


def test_compact_f0_has_no_branch():
    # without a twisted divisor the w residue has its one pole at w = 0:
    # a triple is nonzero only on the point class zw, where it is 1, and
    # one line of each ruling passes through a point
    g = compact_f0()
    for x, y, u in product(g.basis(), repeat=3):
        s, t = (sum(e) for e in zip(x.exps, y.exps, u.exps))
        assert g.classical_triple(x, y, u) == int((s, t) == (1, 1))
    assert g.two_point((1, 0), "z", "zw") == 1 == g.two_point((0, 1), "w", "zw")
    assert flatness_defect(g, 4) == {}
    m = mirror_map(g, 4)
    for axis, t in enumerate(m.forward):
        assert t.affine == tuple(int(i == axis) for i in range(2))
        assert t.const == 0 and t.terms == {}


def _differential_cases():
    rows = [geometry("cpn", N=5, k=5), geometry("cpn", N=4, k=3)]
    rows += [geometry(name) for name in ("kf0", "f3", "wp1", "wp2", "wp3")]
    rows += [hirzebruch(n) for n in (1, 2, 4)] + [local_projective(n) for n in (2, 3)]
    return [pytest.param(g, id=repr(g)) for g in rows]


@pytest.mark.parametrize("g", _differential_cases())
def test_every_pair_matches_the_literal_engine(g):
    # every basis pair at (total) degree <= 3, against the engine that
    # read the hand-set constants
    old = literal_geometry(g)
    if g.n_forms == 1:
        degrees = [1, 2, 3]
    else:
        degrees = [(da, t - da) for t in range(1, 4) for da in range(t + 1)]
    nonzero = 0
    for dd in degrees:
        for a, b in combinations_with_replacement(g.basis(), 2):
            want = literal_engine.two_point(old, dd, a, b)
            assert g.two_point(dd, a, b) == want, (dd, a, b)
            nonzero += want != 0
    assert nonzero


# -- one classical-triple rule against the two formulas it replaced ----------


def _closed_form_triple(g, a, b, c):
    """The one-form formula: the hypersurface degree over the product of
    every column's c_w, on the dimension alone."""
    if a.degree() + b.degree() + c.degree() != g.dim:
        return F(0)
    hyp = g._HYPERSURFACE
    return F(hyp[1] if hyp else 1, math.prod(cw ** m for (_, cw), m in g._COLUMNS))


def _chain_start_triple(g, a, b, c):
    """The two-form formula: the w residues at the chain start over the
    divisors with c_w > 0 >= c_z, then the z residue over those with
    c_w = 0 < c_z."""
    s, t = (sum(e) for e in zip(a.exps, b.exps, c.exps))
    scale = F(1)
    if g._HYPERSURFACE:
        scale, t = F(g._HYPERSURFACE[1]), t + 1
    j, m, roots = t + 1, 0, []
    for (cz, cw), mult in g._COLUMNS:
        if cw > 0 >= cz:
            scale, j = scale / cw ** mult, j - mult
            roots += [F(-cz, cw)] * mult if cz else []
        elif cw == 0 < cz:
            scale, m = scale / cz ** mult, m + mult
    if j < 0 or s + j != m - 1:
        return F(0)
    h = [1] + [0] * j
    for r in roots:
        for n in range(1, j + 1):
            h[n] += r * h[n - 1]
    return scale * h[j]


def _triple_rows():
    rows = [geometry("cpn", N=N, k=k)
            for N, k in ((5, 5), (4, 3), (6, 6), (5, 6), (3, 2), (2, 1), (7, 5))]
    rows += [geometry(name) for name in ("wp2", "f3", "wp1", "wp3")]
    rows += [compact_f0()] + [hirzebruch(n) for n in (1, 2, 4)]
    rows += [local_projective(n) for n in (2, 3, 4)]
    return [pytest.param(g, id=repr(g)) for g in rows]


@pytest.mark.parametrize("g", _triple_rows())
def test_one_triple_rule_matches_the_formula_of_its_form(g):
    # every basis triple (2,012 over these rows); no row has a two-form
    # pure-w bundle, the one column where the two formulas disagreed
    oracle = _closed_form_triple if g.n_forms == 1 else _chain_start_triple
    nonzero = 0
    for a, b, c in product(g.basis(), repeat=3):
        want = oracle(g, a, b, c)
        assert g.classical_triple(a, b, c) == want, (a, b, c)
        nonzero += want != 0
    assert nonzero
