"""Ordered partitions (compositions) of map degrees.

A degree-d chain decomposes into an ordered tuple of positive part degrees
summing to d; there are 2^(d-1) of them.  For a geometry with r >= 2 forms
each part lies along one of the r axes, giving tuples of parts with one
positive entry each, summing to the target degree axis by axis.  Adjacent
parts on the same axis are allowed.  Both enumerations read one recursion
over axis parts and check their degree by the one rule of geoms, whose
InvalidDegree they raise; a one-form degree d is the degree (d,) on one
axis.
"""

from .geoms import InvalidDegree, check_degree


def _compositions(*dd):
    """Every ordered tuple of axis parts, each positive on one axis alone,
    summing to dd, by one append/pop recursion; each step tries the parts
    of the last axis first, then those of each earlier axis, by size, so
    the tuples come in lexicographic order."""
    out, prefix, r = [], [], len(dd)

    def grow(rest):
        if not any(rest):
            out.append(tuple(prefix))
            return
        for i in reversed(range(r)):
            for q in range(1, rest[i] + 1):
                prefix.append((0,) * i + (q,) + (0,) * (r - 1 - i))
                grow(rest[:i] + (rest[i] - q,) + rest[i + 1:])
                prefix.pop()

    grow(dd)
    return out


def ordered_partitions(d):
    """All compositions of d into positive parts, in lexicographic order:
    the compositions of (d,), read along its one axis.

    >>> ordered_partitions(3)
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    return [tuple(q for q, in sigma) for sigma in _compositions(*check_degree(d, 1))]


def ordered_bipartitions(*dd):
    """All ordered tuples of axis parts summing to dd, on r >= 2 axes: on
    two, the parts (p, 0) / (0, q) summing to (da, db).

    Parts are positive on exactly one axis; consecutive parts may share an
    axis.  The list is in lexicographic order.  A degree of all zeros is
    rejected; a vanishing axis is fine.
    """
    return _compositions(*check_degree(dd))
