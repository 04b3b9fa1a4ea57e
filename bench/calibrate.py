"""A fixed piece of exact arithmetic that bench/runner.py times between jobs,
to see how fast the machine runs at that moment.

It is the three kinds of work the program does, written here so that no
change to the program moves it: a sparse product of two bivariate
polynomials with small rational coefficients (polys), products and exact
quotients of large integers (the rationals of deep truncations), and the
reciprocal and self-composition of a truncated power series with rational
coefficients (series).  On a shared host the three slow down by different
factors when the machine does; their sum moves with the benchmark's jobs
more closely than any one of them.
"""

import time
from fractions import Fraction


def _polys():
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}
    q = {(i, j): Fraction(j - 3, i + 5) for i in range(8) for j in range(8)}
    r = {}
    for (a0, a1), ca in p.items():
        for (b0, b1), cb in q.items():
            e = (a0 + b0, a1 + b1)
            r[e] = r.get(e, 0) + ca * cb
    assert len(r) == 15 * 15


def _bigint():
    a, b = 3 ** 40000, 7 ** 30000
    for _ in range(2):
        assert (a * b) // b == a


def _series(n=22):
    a = [Fraction(1)] + [Fraction(1, k * k + 1) + Fraction(k, 3) for k in range(1, n)]
    b = [Fraction(1)]
    for m in range(1, n):
        b.append(-sum(a[k] * b[m - k] for k in range(1, m + 1)))
    # b(x) composed with x*b(x), truncated at order n
    c = [Fraction(0)] * n
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(n):
        for i in range(n):
            c[i] += b[k] * power[i]
        power = [sum(power[j] * b[i - 1 - j] for j in range(i)) if i else Fraction(0)
                 for i in range(n)]
    assert c[0] == 1


def work():
    """The CPU seconds this process spends on one round of the three."""
    t0 = time.process_time()
    _polys()
    _bigint()
    _series()
    return time.process_time() - t0
