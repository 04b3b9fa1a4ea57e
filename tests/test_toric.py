"""A geometry is its divisor table: checks on targets declared only by a
table, and the engine against the constants it used to read.

Before chains read the table, each class declared (and later derived)
engine constants by hand; LITERALS keeps them, and literal_geometry hands
them to tests/literal_engine.py, the engine of that time, so every two-point
number can be compared with the one the old construction gives.  The
flatness check reads nothing but two_point and classical_triple, so it
holds any table to Conjecture 2 on every pair of axes without published
data; the Hirzebruch surfaces F_n, compact F0, the local projective
spaces, the three-form rows and two Calabi-Yau hypersurfaces in products
of projective spaces are declared here as rows with their own names
(cache keys are name plus parameters).
"""

import copy
import math
import re
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, product

import pytest

import literal_engine
from resmirror import chains
from resmirror.geoms import Geometry, Insertion, geometry
from resmirror.series import invert_mirror_map, mirror_map, transform


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
    with CHANGED for a shipped row (any cpn by the same rule), ROWS for
    a row declared here."""
    if g.name == "cpn":
        p = dict(g.params())
        consts = _one_form_literals((1,) * p["N"], p["k"])
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
    """K_{P^{n-1}} as a one-form row: n divisors (1,) and the bundle
    (-n,), no hypersurface."""
    return Geometry("kp%d" % (n - 1), ((1,),) * n, bundle=(-n,), basis=range(n))


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
    g = Geometry("f%d" % n, ((1, 0), (1, 0), (-n, 1), (0, 1)), basis=("1", "z", "w", "w2"))
    # the row is F_n only if its ring is: w^2 = n times the point class
    assert g.classical_triple("w", "w", "1") == n
    return g


def compact_f0():
    """P1 x P1 as a row with no twisted divisor, z, z, w and w, on the
    basis 1, z, w, zw; no geometry name is registered for it."""
    return Geometry("f0", ((1, 0), (1, 0), (0, 1), (0, 1)), basis=("1", "z", "w", "zw"))


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
    """Product of matrices whose entries are {degree tuple: coefficient}
    series in q_1 .. q_r, cut above total degree T."""
    n = len(X)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            for j in range(n):
                acc = out[i][j]
                for a, x in X[i][k].items():
                    for b, y in Y[k][j].items():
                        if sum(a) + sum(b) <= T:
                            key = tuple(map(sum, zip(a, b)))
                            acc[key] = acc.get(key, 0) + x * y
    return out


def flatness_defect(g, T):
    """The nonzero entries of every commutator [A_p, A_q], p < q, through
    total degree T, keyed (p, q, i, j, degree), where A_p = G^-1 M_p,
    G_ab = <a, b, 1> and M_p[a][b] = <a, b, phi_p> plus the sum over beta
    of beta_p w(a, b)_beta q^beta."""
    basis = [a for a in g.basis() if a not in (Insertion(0, 3), Insertion(1, 3))]
    n, r = len(basis), g.n_forms
    one, zero = Insertion(*(0,) * r), (0,) * r
    Ginv = _mat_inverse([[g.classical_triple(a, b, one) for b in basis] for a in basis])
    degrees = [dd for dd in product(range(T + 1), repeat=r) if 0 < sum(dd) <= T]
    raw = {}
    for i in range(n):
        for j in range(i, n):
            for dd in degrees:
                v = g.two_point(dd, basis[i], basis[j])
                if v:
                    raw[i, j, dd] = raw[j, i, dd] = v
    A = []
    for axis, phi in enumerate(g.kahler_classes()):
        M = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                c = g.classical_triple(basis[i], basis[j], phi)
                if c:
                    M[i][j][zero] = F(c)
        for (i, j, dd), v in raw.items():
            M[i][j][dd] = dd[axis] * v
        A.append([[{key: sum(Ginv[i][k] * M[k][j].get(key, 0) for k in range(n))
                    for key in {key for k in range(n) for key in M[k][j]}}
                   for j in range(n)] for i in range(n)])
    defect = {}
    for p, q in combinations(range(r), 2):
        pq = _series_matmul(A[p], A[q], T)
        qp = _series_matmul(A[q], A[p], T)
        for i in range(n):
            for j in range(n):
                for key in pq[i][j].keys() | qp[i][j].keys():
                    c = pq[i][j].get(key, 0) - qp[i][j].get(key, 0)
                    if c:
                        defect[p, q, i, j, key] = c
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
    residue = chains._residue

    def old_profile(g, f, name, c, xs, inside):
        # the w residue (axis 1) whose class spans a z-part (axis 0): the
        # one right after a z-part
        if c != 1 or 0 not in inside:
            return residue(g, f, name, c, xs, inside)
        return literal_engine._w_residue(old, f, name, xs[0], (1, False, False))

    monkeypatch.setattr(chains, "_residue", old_profile)
    defect = flatness_defect(g, 3)
    assert defect and {key for *_, key in defect} == {(1, 1)}


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
    return F(hyp[0] if hyp else 1, math.prod(cw ** m for (cw,), m in g._COLUMNS))


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


# -- three forms --------------------------------------------------------------


def p1_cubed():
    """P1 x P1 x P1 as a row of three forms: two divisors on each axis, on
    the basis of square-free monomials in z, w and u."""
    return Geometry("p1p1p1", ((1, 0, 0),) * 2 + ((0, 1, 0),) * 2 + ((0, 0, 1),) * 2,
                    basis=product((0, 1), repeat=3))


def f3_times_p1():
    """F3 x P1: f3's columns, each with a third entry 0, and the two
    divisors (0, 0, 1) of the P1, on the basis of products a u^e."""
    return Geometry("f3p1", ((1, 0, 0), (1, 0, 0), (-3, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)),
                    basis=("1", "z", "w", "w2", "u", "zu", "wu", "w2u"))


def _p1_cubed_number(dd, a, b):
    # a line of the i-th ruling meets a and b only if both contain x_i and
    # together they cut out a point; the selection rule asks for degree
    # dim - 1 + c1 . e_i = 4
    if sorted(dd) != [0, 0, 1] or a.degree() + b.degree() != 4:
        return 0
    i = dd.index(1)
    return int(a.exps[i] == b.exps[i] == 1 and all(x + y for x, y in zip(a.exps, b.exps)))


def _f3_times_p1_number(dd, a, b):
    # the product rule, with a = x u^e and b = y u^f: a degree in F3 alone
    # pairs the P1 factors, the P1 line integrates the F3 factors when both
    # P1 factors are the point, and a mixed degree gives 0
    f3 = geometry("f3")
    (*x, e), (*y, f) = a.exps, b.exps
    x, y = Insertion(*x), Insertion(*y)
    if dd[2] == 0:
        return f3.two_point(dd[:2], x, y) * (e + f == 1)
    if dd == (0, 0, 1):
        return f3.classical_triple(x, y, "1") * (e == f == 1)
    return 0


@pytest.mark.parametrize("make,rule,nonzero", [(p1_cubed, _p1_cubed_number, 6),
                                               (f3_times_p1, _f3_times_p1_number, 16)],
                         ids=["P1xP1xP1", "F3xP1"])
def test_three_forms_through_two_point(make, rule, nonzero):
    # every basis pair at total degree <= 3; on F3 x P1 the w class can
    # span a u-part as well as a z-part, so a twisted pole left out after
    # the part just before its vertex, rather than after any part of its
    # class, breaks this test and no one- or two-form one
    g = make()
    degrees = [dd for dd in product(range(4), repeat=3) if 0 < sum(dd) <= 3]
    found = 0
    for dd in degrees:
        for a, b in combinations_with_replacement(g.basis(), 2):
            want = rule(dd, a, b)
            assert g.two_point(dd, a, b) == want, (dd, a.label(), b.label())
            found += want != 0
    assert found == nonzero


def test_p1_cubed_triples_integrate_the_point_class():
    g = p1_cubed()
    for a, b, c in product(g.basis(), repeat=3):
        e = tuple(map(sum, zip(a.exps, b.exps, c.exps)))
        assert g.classical_triple(a, b, c) == int(e == (1, 1, 1)), (a, b, c)


def test_f3_times_p1_triples_follow_the_product_rule():
    # all 512 basis triples: f3's triple of the F3 factors when the u
    # exponents sum to 1 (the P1 factor integrates to 1), 0 otherwise
    g, f3 = f3_times_p1(), geometry("f3")
    assert (g.n_forms, g.dim, g._C1) == (3, 3, (-1, 2, 2))
    triples = list(product(g.basis(), repeat=3))
    assert len(triples) == 512
    nonzero = 0
    for xs in triples:
        want = F(0)
        if sum(x.exps[2] for x in xs) == 1:
            want = f3.classical_triple(*(Insertion(*x.exps[:2]) for x in xs))
        assert g.classical_triple(*xs) == want, xs
        nonzero += want != 0
    assert nonzero


def _units_twice(column):
    # two divisors on each axis, then the column
    r = len(column)
    return tuple(tuple(int(i == j) for j in range(r)) for i in range(r)) * 2 + (column,)


@pytest.mark.parametrize("column,divisors", [
    *(pytest.param(c, _units_twice(c), id=str(c)) for c in [(1, 1), (-1, 1, 1), (1, -2)]),
    pytest.param((1, 1), ((1, 0), (1, 0), (0, 1), (0, 1), (1, 1)), id="P1xP1+(1, 1)"),
])
def test_a_column_outside_the_rule_is_refused(column, divisors):
    # a positive entry before the last nonzero one has no pole the
    # placement rule can put on an axis, so the row is refused when it is
    # built; on compact P1 x P1 with one more divisor (1, 1), unrefused,
    # the chain sums would skip the column while the triple refused it
    with pytest.raises(ValueError, match=re.escape("column %s is outside" % (column,))):
        Geometry("offrule", divisors, basis=product((0, 1), repeat=len(column)))


def test_the_triple_refuses_kf0s_bundle_on_a_plain_row():
    # a negative last entry beside another nonzero one places no pole in
    # the triple, so kf0 declares its virtual-ring table; a plain row of
    # kf0's table still builds, and its chain sums are kf0's
    kf0 = geometry("kf0")
    g = Geometry("kf0table", kf0._DIVISORS, bundle=kf0._BUNDLE, basis=kf0.basis())
    degrees = [dd for dd in product(range(4), repeat=2) if 0 < sum(dd) <= 3]
    nonzero = 0
    for dd in degrees:
        for a, b in product(kf0.basis(), repeat=2):
            want = kf0.two_point(dd, a, b)
            assert g.two_point(dd, a, b) == want, (dd, a, b)
            nonzero += want != 0
    assert nonzero
    with pytest.raises(ValueError, match=re.escape("kf0table: column (-2, -2) is outside")):
        g.classical_triple("z", "w", "1")


_P1_P1 = ((1, 0),) * 2 + ((0, 1),) * 2


@pytest.mark.parametrize("fields,message", [
    ({"bundle": (-2, -2, 1)}, ": column (-2, -2, 1) needs 2 entries"),
    ({"hypersurface": (2,)}, ": column (2,) needs 2 entries"),
    ({"divisors": _P1_P1 + ((1,),)}, ": column (1,) needs 2 entries"),
    ({"divisors": _P1_P1 + ((0, 0),)}, ": column (0, 0) needs 2 entries"),
    ({"divisors": ()}, " has no divisors"),
    ({"divisors": _P1_P1 + ((1.5, 0),)}, ": column (1.5, 0) is not a tuple of integers"),
    ({"divisors": _P1_P1 + ((True, 0),)}, ": column (True, 0) is not a tuple of integers"),
    ({"hypersurface": (0.5, 1)}, ": column (0.5, 1) is not a tuple of integers"),
    ({"divisors": tuple(map(list, _P1_P1))}, ": column [1, 0] is not a tuple of integers"),
    ({"basis": ((0, 0), (1, 0, 0))}, ": basis entry Insertion(1, 0, 0) needs 2 exponents"),
    ({"params": (("t", "1"),)}, ": parameter t must be an integer, got '1'"),
], ids=["long bundle", "short hypersurface", "short divisor", "zero divisor", "no divisor",
        "float divisor", "bool divisor", "float hypersurface", "list columns", "long basis entry",
        "text parameter"])
def test_a_malformed_table_is_refused_at_construction(fields, message):
    # P1 x P1 with one malformed column, unrefused: a long bundle would be
    # cut to two entries in _C1, a short column would raise IndexError, a
    # zero divisor would raise dim by one, so every two-point number 0, a
    # (1.5, 0) would give _C1 = (2.5, 2), and a list column would raise
    # TypeError when grouped; a row with no divisor would raise IndexError,
    # a basis entry of three exponents would match no insertion, and a
    # text parameter would file cache records the store skips on reading
    row = dict({"divisors": _P1_P1, "basis": product((0, 1), repeat=2)}, **fields)
    with pytest.raises(ValueError, match="^" + re.escape("malformed" + message)):
        Geometry("malformed", **row)


def test_three_form_mirror_maps():
    # F3 x P1's block pairs the classes z, w, u with the partners w2, zu,
    # wu and is not symmetric; its map is f3's, with t3 = x3
    D = 4
    m, f3 = mirror_map(f3_times_p1(), D), mirror_map(geometry("f3"), D)
    assert m.forward[0].terms == {(2, 1, 0): F(135, 2)}
    assert m.forward[1].terms == {(2, 1, 0): F(-16)}
    for i in range(2):
        assert m.forward[i].terms == {dd + (0,): c for dd, c in f3.forward[i].terms.items()}
    for i, t in enumerate(m.forward):
        assert t.affine == tuple(int(i == j) for j in range(3)) and t.const == 0
    assert m.forward[2].terms == {}
    m = invert_mirror_map(m)
    for t in m.forward:
        back = transform(t, m)
        assert back.affine == t.affine and back.const == 0 and not back.terms
    for t in mirror_map(p1_cubed(), D).forward:
        assert t.const == 0 and t.terms == {}


# -- hypersurfaces that pair with every axis ----------------------------------


def bicubic():
    """P2 x P2[3,3]: three divisors on each axis cut by (3, 3)."""
    return Geometry("bicubic", ((1, 0),) * 3 + ((0, 1),) * 3, (3, 3),
                    basis=((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (2, 1)))


def p1_p3():
    """P1 x P3[2,4], a K3 fibration with quartic fibres: z the P1 class,
    w the P3 class."""
    return Geometry("p1p3", ((1, 0),) * 2 + ((0, 1),) * 4, (2, 4),
                    basis=((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)))


def test_mixed_hypersurface_triples():
    # the integrand carries the hypersurface's whole linear form: the
    # bicubic's 3z + 3w, P1 x P3's 2z + 4w
    g = bicubic()
    assert (g.dim, g._C1) == (3, (0, 0))
    assert g.classical_triple("z", "z", "w") == 3 == g.classical_triple("z", "w", "w")
    assert g.classical_triple("z", "z", "z") == 0 == g.classical_triple("w", "w", "w")
    g = p1_p3()
    assert (g.dim, g._C1) == (3, (0, 0))
    assert g.classical_triple("z", "w", "w") == 4
    assert g.classical_triple("w", "w", "w") == 2
    assert g.classical_triple("z", "z", "w") == 0


def harmonic(n):
    return sum((F(1, j) for j in range(1, n + 1)), F(0))


def gkz_mirror_map(counts, hyp, D):
    """The mirror map of a Calabi-Yau hypersurface of degree hyp in a
    product of projective spaces with counts[i] coordinates on axis i, as
    {degree: coefficient} per component, from its GKZ periods: w0 = sum
    c(b) q^b with c(b) = (hyp . b)! / prod (b_i!)^counts[i], the log-free
    part of w1_i is c(b) (hyp_i H(hyp . b) - counts[i] H(b_i)), and
    t_i = x_i + w1_i / w0."""
    fact = math.factorial
    degrees = sorted((b for b in product(range(D + 1), repeat=len(hyp)) if sum(b) <= D), key=sum)
    w0, comps = {}, []
    for b in degrees:
        n = sum(h * d for h, d in zip(hyp, b))
        w0[b] = F(fact(n), math.prod(fact(d) ** c for d, c in zip(b, counts)))
    for i, (h, c) in enumerate(zip(hyp, counts)):
        t = {}
        for b in degrees:
            n = sum(x * d for x, d in zip(hyp, b))
            t[b] = w0[b] * (h * harmonic(n) - c * harmonic(b[i])) - sum(
                w * t[tuple(x - y for x, y in zip(b, a))] for a, w in w0.items()
                if any(a) and all(y <= x for x, y in zip(b, a)))
        comps.append({b: v for b, v in t.items() if v})
    return comps


@pytest.mark.parametrize("make,counts,hyp", [(bicubic, (3, 3), (3, 3)),
                                             (p1_p3, (2, 4), (2, 4))],
                         ids=["bicubic", "P1xP3"])
def test_mixed_hypersurface_mirror_map_matches_gkz(make, counts, hyp):
    D = 3
    m = mirror_map(make(), D)
    for i, want in enumerate(gkz_mirror_map(counts, hyp, D)):
        assert m.forward[i].affine == ((1, 0), (0, 1))[i] and m.forward[i].const == 0
        assert m.forward[i].terms == want


# -- flatness on every pair of axes -------------------------------------------


def p1_bundle(n, a, b):
    """P(O + O(D)) over F_n, D = a z + b w: F_n's columns with a third
    entry 0, then (-a, -b, 1) and (0, 0, 1); the basis is F_n's times
    {1, u}, with zw in place of w2 when n = 0."""
    top = (1, 1) if n == 0 else (0, 2)
    return Geometry("pb%d_%d_%d" % (n, a, b),
                    ((1, 0, 0), (1, 0, 0), (-n, 1, 0), (0, 1, 0), (-a, -b, 1), (0, 0, 1)),
                    basis=[e + (u,) for u in (0, 1) for e in ((0, 0), (1, 0), (0, 1), top)])


@pytest.mark.parametrize("make", [
    f3_times_p1,
    lambda: p1_bundle(1, 0, 1), lambda: p1_bundle(2, 1, 1), lambda: p1_bundle(3, 0, 1),
    lambda: p1_bundle(1, 1, 0), lambda: p1_bundle(0, 1, 1),
], ids=["F3xP1", "F1(0,1)", "F2(1,1)", "F3(0,1)", "F1(1,0)", "F0(1,1)"])
def test_three_form_raw_connection_is_flat(make):
    assert flatness_defect(make(), 3) == {}


def test_a_fourth_form_is_refused_at_construction():
    # labels name each axis by a letter of geoms._AXES, and there are three:
    # a fourth form's exponent would drop out of its label and cache key
    divisors = tuple(tuple(int(i == j) for j in range(4)) for i in range(4) for _ in (0, 1))
    with pytest.raises(ValueError, match="^p1x4 has 4 forms; labels name at most 3 axes"):
        Geometry("p1x4", divisors, basis=product((0, 1), repeat=4))
