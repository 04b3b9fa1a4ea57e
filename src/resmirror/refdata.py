"""Reference connection matrices for the twist-3 surface.

The tables below are the first-order connection coefficients in the two
Kahler directions, obtained independently through the factorization
route, recorded entry by entry as exact rationals.  They serve as a
cross-check of the residue engine: the degree-(da, db) coefficient of
the first (second) table must equal da (db) times the matching two-point
number, and each degree-(0, 0) entry must equal the classical triple
pairing with the corresponding degree-one class.

Only the upper triangle is stored; both matrices are symmetric.
"""

from fractions import Fraction

from .cache import cached_two_point
from .geoms import geometry

_F = Fraction

F3_BASIS = ("1", "z", "w", "w2")

# (row, col) -> {(da, db): coefficient of e^{da x1 + db x2}}
F3_Z_CONNECTION = {
    ("1", "1"): {(1, 0): _F(5), (3, 1): _F(1901)},
    ("1", "z"): {(2, 1): _F(-32)},
    ("1", "w"): {(0, 0): _F(1), (2, 1): _F(39)},
    ("1", "w2"): {(1, 1): _F(-6), (3, 2): _F(-3105, 2)},
    ("z", "z"): {(1, 1): _F(1), (3, 2): _F(192)},
    ("z", "w"): {(1, 1): _F(-1), (3, 2): _F(-288)},
    ("z", "w2"): {(2, 2): _F(30)},
    ("w", "w"): {(3, 2): _F(413)},
    ("w", "w2"): {(2, 2): _F(-36)},
    ("w2", "w2"): {(1, 2): _F(9), (3, 3): _F(1296)},
}

F3_W_CONNECTION = {
    ("1", "1"): {(3, 1): _F(1901, 3)},
    ("1", "z"): {(0, 0): _F(1), (2, 1): _F(-16)},
    ("1", "w"): {(0, 0): _F(3), (2, 1): _F(39, 2)},
    ("1", "w2"): {(1, 1): _F(-6), (3, 2): _F(-1035)},
    ("z", "z"): {(1, 1): _F(1), (3, 2): _F(128)},
    ("z", "w"): {(1, 1): _F(-1), (3, 2): _F(-192)},
    ("z", "w2"): {(2, 2): _F(30)},
    ("w", "w"): {(3, 2): _F(826, 3)},
    ("w", "w2"): {(0, 1): _F(3), (2, 2): _F(-36)},
    ("w2", "w2"): {(1, 2): _F(18), (3, 3): _F(1296)},
}


class ConnectionReport:
    """Entry-by-entry comparison of the stored tables with recomputation."""

    def __init__(self, rows):
        self.rows = tuple(rows)
        self.ok = all(r[-1] for r in self.rows)

    def lines(self):
        out = []
        for direction, ra, cb, dd, ref, got, good in self.rows:
            out.append("%s[%s,%s] at %r: reference %s, computed %s  %s"
                       % (direction, ra, cb, dd, ref, got,
                          "ok" if good else "MISMATCH"))
        out.append("connection check: %s (%d entries)"
                   % ("all agree" if self.ok else "MISMATCHES", len(self.rows)))
        return out


def check_conjecture2():
    """Recompute every stored connection entry from two-point numbers."""
    g = geometry("f3")
    rows = []
    for direction, table, slot in (("z", F3_Z_CONNECTION, 0),
                                   ("w", F3_W_CONNECTION, 1)):
        for (ra, cb), coeffs in sorted(table.items()):
            for dd, ref in sorted(coeffs.items()):
                if dd == (0, 0):
                    got = g.classical_triple(ra, cb, direction)
                else:
                    got = dd[slot] * cached_two_point(g, dd, ra, cb)
                rows.append((direction, ra, cb, dd, ref, got, ref == got))
    return ConnectionReport(rows)
