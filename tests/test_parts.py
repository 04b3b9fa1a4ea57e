from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmirror.parts import InvalidDegree, ordered_bipartitions, ordered_partitions


def test_small_cases():
    assert ordered_partitions(1) == [(1,)]
    assert ordered_partitions(2) == [(1, 1), (2,)]
    assert ordered_partitions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]


def test_counts_are_powers_of_two():
    for d in range(1, 9):
        assert len(ordered_partitions(d)) == 2 ** (d - 1)


def test_lexicographic_order_and_sums():
    for d in range(1, 8):
        parts = ordered_partitions(d)
        assert parts == sorted(parts)
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == d and all(x > 0 for x in p) for p in parts)


def test_invalid_degree():
    for bad in (0, -1, "2", 1.5, True, False):
        with pytest.raises(InvalidDegree):
            ordered_partitions(bad)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8))
def test_reversal_closure(d):
    parts = set(ordered_partitions(d))
    assert {tuple(reversed(p)) for p in parts} == parts


def test_bipartition_counts():
    expected = {(1, 1): 2, (2, 0): 2, (2, 1): 5, (2, 2): 14, (3, 1): 12, (3, 3): 106}
    for dd, n in expected.items():
        assert len(ordered_bipartitions(*dd)) == n


def test_bipartition_single_axis_matches_plain_partitions():
    plain = ordered_partitions(3)
    axis_a = ordered_bipartitions(3, 0)
    assert sorted(tuple(p for p, _ in sigma) for sigma in axis_a) == sorted(plain)
    axis_b = ordered_bipartitions(0, 3)
    assert sorted(tuple(q for _, q in sigma) for sigma in axis_b) == sorted(plain)


def test_bipartition_structure():
    for sigma in ordered_bipartitions(2, 2):
        assert sum(p for p, _ in sigma) == 2
        assert sum(q for _, q in sigma) == 2
        for p, q in sigma:
            assert (p > 0) != (q > 0)
    # adjacent parts on the same axis are legal chains
    assert ((1, 0), (1, 0)) in ordered_bipartitions(2, 0)


def test_bipartition_sorted_and_unique():
    bp = ordered_bipartitions(2, 1)
    assert bp == sorted(bp)
    assert len(set(bp)) == len(bp)


def test_bipartition_invalid():
    with pytest.raises(InvalidDegree):
        ordered_bipartitions(0, 0)
    with pytest.raises(InvalidDegree):
        ordered_bipartitions(-1, 2)
    for bad in ((True, 0), (1, False), (0, True), (False, 1), (1.0, 1), (1, "1")):
        with pytest.raises(InvalidDegree):
            ordered_bipartitions(*bad)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_bipartition_reversal_closure(da, db):
    if da == 0 and db == 0:
        return
    chains = set(ordered_bipartitions(da, db))
    assert {tuple(reversed(c)) for c in chains} == chains


def _cuts(n):
    """The compositions of n, one per subset of its n - 1 cut points."""
    return [tuple(b - a for a, b in zip((0,) + cut, cut + (n,)))
            for r in range(n) for cut in combinations(range(1, n), r)]


def _on_axis(p, i, r):
    """The part of degree p along axis i of r."""
    return tuple(p if c == i else 0 for c in range(r))


def test_partitions_match_the_cut_point_oracle():
    for d in range(1, 12):
        assert ordered_partitions(d) == sorted(_cuts(d)), d
    # a degree on one axis of three: the same compositions, on that axis
    for d in range(1, 8):
        for i in range(3):
            want = [tuple(_on_axis(p, i, 3) for p in c) for c in _cuts(d)]
            assert ordered_bipartitions(*_on_axis(d, i, 3)) == sorted(want), (d, i)


def test_bipartitions_match_the_axis_assignment_oracle():
    # each composition of da + db with every assignment of axes to its
    # parts whose axis-0 parts sum to da
    for da, db in product(range(6), repeat=2):
        if da or db:
            want = [tuple((p, 0) if ax == 0 else (0, p) for p, ax in zip(c, axes))
                    for c in _cuts(da + db) for axes in product((0, 1), repeat=len(c))
                    if sum(p for p, ax in zip(c, axes) if ax == 0) == da]
            assert ordered_bipartitions(da, db) == sorted(want), (da, db)


def test_three_axis_parts_match_the_axis_assignment_oracle():
    # the same oracle on three axes: every assignment of axes to the parts
    # of a composition whose parts on each axis sum to that axis's degree
    for dd in product(range(4), repeat=3):
        if 0 < sum(dd) <= 6:
            want = [tuple(_on_axis(p, ax, 3) for p, ax in zip(c, axes))
                    for c in _cuts(sum(dd)) for axes in product(range(3), repeat=len(c))
                    if all(sum(p for p, ax in zip(c, axes) if ax == i) == dd[i]
                           for i in range(3))]
            assert ordered_bipartitions(*dd) == sorted(want), dd


def test_three_axis_refusals_keep_their_messages():
    with pytest.raises(InvalidDegree, match=r"^bi-degree \(0, 0, 0\) has no chains$"):
        ordered_bipartitions(0, 0, 0)
    for bad in ((1, -1, 0), (1,), ()):
        with pytest.raises(InvalidDegree, match="^bi-degree must be a pair"):
            ordered_bipartitions(*bad)
    # a non-integer entry reads as Geometry.check_degree reads it
    with pytest.raises(InvalidDegree, match=r"^bi-degree required, got \(1, 0, True\)$"):
        ordered_bipartitions(1, 0, True)
