import math
from fractions import Fraction
from itertools import permutations

import pytest

from resmirror.polys import RatFunc, VarSet
from resmirror.series import picard_fuchs_basis
from resmirror.vsc import (
    InvalidComb,
    _check_indices,
    _movable_residues,
    _on_vars,
    check_theorem1,
    decomposition_coefficient,
    poly_d,
    vsc_merged_contour,
    vsc_recursive,
    vsc_residue,
)


# -- contour oracles for the solved decomposition and for poly_d -----------


def _as_poly(f):
    f = f.reduce()
    if f.den:
        raise ArithmeticError("residue result is not polynomial: %r" % (f,))
    return f.num


def decomposition_by_contours(d, indices, order=None):
    """decomposition_coefficient from its contour representation.

    Endpoint variables are integrated about z_0 and z_d; each interior
    variable about the root of its own node form, plus z_i when indexed.
    ``order`` permutes the interior steps; the result is order-independent.
    """
    idx = _check_indices(d, indices)
    vs = VarSet(["u%d" % j for j in range(d + 1)]
                + ["z%d" % j for j in range(d + 1)])
    u = [vs.poly("u%d" % j) for j in range(d + 1)]
    z = [vs.poly("z%d" % j) for j in range(d + 1)]
    num = vs.const(1)
    den = [(u[0] - z[0], 1), (u[d] - z[d], 1)]
    forms = {}
    fixed = {"u0": [z[0]], "u%d" % d: [z[d]]}
    for j in range(1, d):
        num = num * u[j]
        forms["u%d" % j] = 2 * u[j] - u[j - 1] - u[j + 1]
    for i in idx:
        den.append((u[i] - z[i], 1))
        fixed["u%d" % i] = [z[i]]
    den += [(forms["u%d" % j], 1) for j in range(1, d)]
    names = ["u0", "u%d" % d] + ["u%d" % j for j in (order or range(1, d))]
    f = _movable_residues(RatFunc(num, den), forms, names, fixed)
    bounds = (0,) + idx + (d,)
    pref = 1
    for lo, hi in zip(bounds, bounds[1:]):
        pref *= hi - lo
    out = VarSet(["z%d" % j for j in range(d + 1)])
    return _on_vars(_as_poly(f) * pref, out)


def poly_d_direct(d):
    """poly_d evaluated straight from its movable-pole contour definition.

    Each interior variable is integrated about z_j and about the root of
    its own node form, innermost first.
    """
    out = VarSet(["x", "y"] + ["z%d" % i for i in range(1, d)])
    if d == 1:
        return out.const(1)
    vs = VarSet(["u%d" % j for j in range(1, d)] + list(out.names))
    u = {j: vs.poly("u%d" % j) for j in range(1, d)}
    u[0], u[d] = vs.poly("x"), vs.poly("y")
    num = vs.const(1)
    den = []
    forms = {}
    fixed = {}
    for j in range(1, d):
        num = num * u[j] ** 2
        forms["u%d" % j] = 2 * u[j] - u[j - 1] - u[j + 1]
        fixed["u%d" % j] = [vs.poly("z%d" % j)]
        den += [(forms["u%d" % j], 1), (u[j] - vs.poly("z%d" % j), 1)]
    names = ["u%d" % j for j in range(1, d)]
    f = _movable_residues(RatFunc(num, den), forms, names, fixed)
    return _on_vars(_as_poly(f) * d, out)


def node_forms(d):
    vs = VarSet(["z%d" % j for j in range(d + 1)])
    z = [vs.poly("z%d" % j) for j in range(d + 1)]
    return vs, z, {i: 2 * z[i] - z[i - 1] - z[i + 1] for i in range(1, d)}


def interior_subsets(d):
    out = [()]
    for i in range(1, d):
        out += [s + (i,) for s in out]
    return sorted(out, key=lambda s: (len(s), s))


def test_decomposition_d2_values():
    vs = VarSet(["z0", "z1", "z2"])
    half = Fraction(1, 2)
    assert decomposition_coefficient(2, ()) == (vs.poly("z0") + vs.poly("z2")) * half
    assert decomposition_coefficient(2, (1,)) == vs.const(half)


def test_decomposition_reproduces_interior_product():
    # the defining identity: summing f_S * prod(r_i) over all index sets
    # gives back z_1 ... z_{d-1}
    for d in range(1, 8):
        vs, z, forms = node_forms(d)
        total = vs.const(0)
        for sub in interior_subsets(d):
            term = decomposition_coefficient(d, sub)
            for i in sub:
                term = term * forms[i]
            total = total + term
        want = vs.const(1)
        for i in range(1, d):
            want = want * z[i]
        assert total == want, "decomposition fails at d=%d" % d


def test_decomposition_support_and_homogeneity():
    for d in (3, 4, 5, 6):
        for sub in interior_subsets(d):
            f = decomposition_coefficient(d, sub)
            assert max(map(sum, f.terms)) == d - 1 - len(sub)
            allowed = {"z0", "z%d" % d} | {"z%d" % i for i in sub}
            for name in f.vars.names:
                if name not in allowed:
                    assert f.max_exp(name) == 0
            # homogeneous: every monomial has the full degree
            assert all(sum(e) == d - 1 - len(sub) for e in f.terms)


def test_decomposition_invalid_indices():
    for bad in [(0,), (3,), (2, 1), (1, 1), (-1,)]:
        with pytest.raises(InvalidComb):
            decomposition_coefficient(3, bad)
    with pytest.raises(InvalidComb):
        decomposition_coefficient(0, ())


def test_non_integer_degree_and_indices_rejected():
    # poly_d(2.0) must not be answered from the memo of poly_d(2), and
    # (2.7, (1.2,)) is not the (2, (1,)) coefficient 1/2
    poly_d(2)
    for bad in (2.0, 2.5, True, "2"):
        with pytest.raises(InvalidComb, match="^d must be an integer"):
            poly_d(bad)
        with pytest.raises(InvalidComb, match="^d must be an integer"):
            decomposition_coefficient(bad, ())
    for bad in [(1.2,), (1.0,), (True,), ("1",), (1, 2.0)]:
        with pytest.raises(InvalidComb, match="^need 1 <= i_1"):
            decomposition_coefficient(3, bad)
        with pytest.raises(InvalidComb, match="^need 1 <= i_1"):
            _check_indices(3, bad)
    with pytest.raises(InvalidComb):
        decomposition_coefficient(2.7, (1.2,))


def test_contour_route_matches_solved_route():
    for d in range(1, 6):
        for sub in interior_subsets(d):
            assert decomposition_by_contours(d, sub) == decomposition_coefficient(d, sub)


def test_contour_route_is_order_independent():
    for sub in [(), (2,), (1, 3)]:
        ref = decomposition_coefficient(4, sub)
        for order in permutations(range(1, 4)):
            assert decomposition_by_contours(4, sub, order=order) == ref


def test_poly_small():
    vs1 = VarSet(["x", "y"])
    assert poly_d(1) == vs1.const(1)
    vs2 = VarSet(["x", "y", "z1"])
    want = (vs2.poly("x") + vs2.poly("y")) * Fraction(1, 2) + vs2.poly("z1")
    assert poly_d(2) == want


def test_poly_homogeneous():
    for d in range(1, 8):
        p = poly_d(d)
        assert all(sum(e) == d - 1 for e in p.terms)


def test_poly_direct_oracle():
    for d in (2, 3, 4):
        assert poly_d_direct(d) == poly_d(d)


def test_initial_row():
    # at N >= 2k the d=1 constants are the coefficients of
    # k * prod_{j<k}(j w + (k - j)); k = 5 gives a palindromic row
    row = [vsc_recursive(10, 5, 1, n) for n in range(5)]
    assert row == [120, 770, 1345, 770, 120]
    assert vsc_recursive(10, 5, 1, 5) == 0


def test_initial_zero_for_higher_degree():
    assert all(vsc_recursive(8, 4, 2, n) == 0 for n in range(8))


def test_degree_one_is_level_independent():
    for N in (5, 6, 7, 9):
        assert vsc_recursive(N, 5, 1, 1) == 770
    # 798 levels below the grounding level 2k, beyond any recursion limit;
    # the n = 0 constant at d = 1 is k (k - 1)! = k! on every level
    assert vsc_recursive(2, 400, 1, 0) == math.factorial(400)


def test_out_of_range_vanishes():
    assert vsc_recursive(5, 5, 2, -1) == 0
    assert vsc_recursive(5, 5, 2, 5) == 0
    assert vsc_recursive(6, 4, 2, 2) == 0  # upper bound is N-1-(N-k)d = 1


def test_residue_route_values():
    assert vsc_residue(5, 5, 1, 1) == 770
    assert vsc_residue(7, 5, 1, 4) == 120
    assert vsc_residue(5, 5, 2, 1) == 1435650


def test_residue_route_follows_the_range_rule():
    # outside 0 <= n <= N-1-(N-k)d every route gives zero
    for N, k, d, n in ((5, 5, 1, -1), (5, 5, 1, 5), (5, 5, 2, 6), (6, 4, 2, 2)):
        assert vsc_recursive(N, k, d, n) == 0
        assert vsc_residue(N, k, d, n) == 0


def test_residue_route_rejects_n_it_cannot_form():
    # inside the range, but z^(N-2-n) or z^(n-1+(N-k)d) leaves the basis
    for n in (0, 4):
        assert vsc_recursive(5, 5, 1, n) == 120
        with pytest.raises(ValueError, match="1 <= n <= 3"):
            vsc_residue(5, 5, 1, n)


def test_routes_reject_non_integer_arguments():
    # (5.5, 5, 1, 1) and (5, 5, 1.9, 1.2) are not the (5, 5, 1, 1) value 770
    assert vsc_recursive(5, 5, 1, 1) == 770
    for args in [(5.5, 5, 1, 1), (5, 5, 1.9, 1.2), (5, 5.0, 1, 1), (5, 5, 1, 1.0),
                 (5, 5, True, 1)]:
        for route in (vsc_recursive, vsc_residue, vsc_merged_contour):
            with pytest.raises(ValueError, match="must be an integer"):
                route(*args)
    with pytest.raises(ValueError, match="must be an integer"):
        check_theorem1(5, 5, 2.0)
    with pytest.raises(ValueError, match="^need N >= 2, k >= 1, d >= 1$"):
        vsc_recursive(1, 5, 1, 1)


def test_recursion_step_at_degree_two():
    # one step of the level recursion, spelled out: the universal degree-2
    # polynomial (x + y)/2 + z1 predicts
    #   L(N,k,2,n) = L(N+1,k,2,n-1)/2 + L(N+1,k,2,n)/2
    #                + L(N+1,k,1,n) * L(N+1,k,1,n+N-k)
    for (N, k) in [(5, 5), (6, 6), (6, 4)]:
        for n in range(0, N):
            lhs = vsc_recursive(N, k, 2, n)
            rhs = (vsc_recursive(N + 1, k, 2, n - 1) / 2
                   + vsc_recursive(N + 1, k, 2, n) / 2
                   + vsc_recursive(N + 1, k, 1, n) * vsc_recursive(N + 1, k, 1, n + N - k))
            assert lhs == rhs, (N, k, n)


def test_theorem1_grid():
    for (N, k, d) in [(5, 5, 2), (6, 6, 2), (7, 5, 2), (8, 9, 2), (6, 4, 2),
                      (5, 5, 5), (5, 5, 6)]:
        rep = check_theorem1(N, k, d)
        assert rep.rows and rep.ok, "\n".join(rep.lines())


def test_theorem1_degree_three():
    assert check_theorem1(5, 5, 3).ok
    assert check_theorem1(7, 5, 3).ok


def test_merged_contour_agrees():
    assert vsc_merged_contour(5, 5, 2, 1) == vsc_residue(5, 5, 2, 1)
    assert vsc_merged_contour(5, 5, 2, 2) == vsc_residue(5, 5, 2, 2)
    assert vsc_merged_contour(5, 5, 3, 1) == vsc_residue(5, 5, 3, 1)


def test_merged_contour_reaches_negative_endpoint_exponents():
    # n = 0 puts a pole where the residue route would need a negative
    # insertion; the fused contour still converges, to (N d)!/(d!)^N
    assert vsc_merged_contour(5, 5, 2, 0) == math.factorial(10) // 2 ** 5
    assert vsc_merged_contour(6, 6, 2, 0) == math.factorial(12) // 2 ** 6
    assert vsc_merged_contour(5, 5, 2, 0) == vsc_recursive(5, 5, 2, 0)


def test_mirror_coefficient_scaling():
    # the degree-d mirror-map coefficient of the quintic is L/d
    assert vsc_residue(5, 5, 2, 1) / 2 == 717825
    assert vsc_residue(5, 5, 3, 1) / 3 == Fraction(3225308000, 3)
    # an oracle independent of the decomposition table: the quintic's
    # mirror map from the ratio of its Picard-Fuchs solutions, built from
    # factorials and harmonic numbers, against the level recursion
    D = 7
    ratio = picard_fuchs_basis(5, 1, D).div_unit(picard_fuchs_basis(5, 0, D))
    want = [770, 717825, Fraction(3225308000, 3), Fraction(3947314570625, 2),
            4062154117561404, 8998533448278540400, 20983751548126743864000]
    for d in range(1, D + 1):
        assert vsc_recursive(5, 5, d, 1) / d == ratio.coefficient((d, 0)) == want[d - 1]
