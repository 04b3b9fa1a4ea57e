"""Ordered partitions (compositions) of map degrees.

A degree-d chain decomposes into an ordered tuple of positive part degrees
summing to d; there are 2^(d-1) of them.  For two-form geometries each part
carries one of the two axes, giving tuples of (d_j, 0) / (0, d_j) parts
with both coordinates summing to the target bi-degree.  Adjacent parts on
the same axis are allowed.  Both enumerations read one recursion over axis
parts; a one-form degree d is the bi-degree (0, d) read along axis 1.
"""


class InvalidDegree(ValueError):
    """Degree outside the domain of the enumeration."""


def _compositions(da, db):
    """Every ordered tuple of axis parts (0, q) / (p, 0) summing to
    (da, db), by one append/pop recursion; each step tries the axis-1
    parts, then the axis-0 parts, by size."""
    out, prefix = [], []

    def grow(ra, rb):
        if ra == 0 and rb == 0:
            out.append(tuple(prefix))
            return
        steps = [(0, q) for q in range(1, rb + 1)] + [(p, 0) for p in range(1, ra + 1)]
        for part in steps:
            prefix.append(part)
            grow(ra - part[0], rb - part[1])
            prefix.pop()

    grow(da, db)
    return out


def ordered_partitions(d):
    """All compositions of d into positive parts, in lexicographic order:
    the compositions of (0, d), read along axis 1.

    >>> ordered_partitions(3)
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    if not isinstance(d, int) or isinstance(d, bool) or d <= 0:
        raise InvalidDegree("degree must be a positive integer, got %r" % (d,))
    return [tuple(q for _, q in sigma) for sigma in _compositions(0, d)]


def ordered_bipartitions(da, db):
    """All ordered tuples of axis parts (p, 0) / (0, q) summing to (da, db).

    Parts are positive on exactly one axis; consecutive parts may share an
    axis.  The list is sorted lexicographically.  (da, db) = (0, 0) is
    rejected; a single vanishing axis is fine.
    """
    if any(not isinstance(x, int) or isinstance(x, bool) or x < 0 for x in (da, db)):
        raise InvalidDegree("bi-degree must be a pair of non-negative integers")
    if da == 0 and db == 0:
        raise InvalidDegree("bi-degree (0, 0) has no chains")
    return sorted(_compositions(da, db))
