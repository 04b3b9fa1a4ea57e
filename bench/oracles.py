"""Independent references for the benchmark's output checks.

Nothing here imports resmirror.  The tables are copied from the published
values (Candelas, de la Ossa, Green and Parkes 1991 for the quintic; the
paper's own tables for the other targets), and the modular coefficients
are rebuilt in exact integers from j = E4^3 / Delta.
"""

import re
from fractions import Fraction as F

# Genus-zero BPS numbers n_1..n_5 of the quintic threefold (CdGP 1991).
QUINTIC_BPS = (2875, 609250, 317206375, 242467530000, 229305888887625)

# B-model mirror map of the quintic, t = x + sum_d c_d q^d, degrees 1..3.
QUINTIC_MAP = {1: F(770), 2: F(717825), 3: F(3225308000, 3)}

# Reversion weights of the K3 surface in P(1,1,1,3), degrees 1..5.
K3_WEIGHTS = (F(744), F(473652), F(451734080), F(510531007770),
              F(3169342733223744, 5))

# Degree-9 hypersurface in CP^7: the four Gromov-Witten values, keyed by
# (d, sorted insertion pair).  Pairs with a zero exponent are punctured
# and read zero.
NON_NEF_GW = {
    (1, (1, 3)): F(510463296),
    (1, (2, 2)): F(815556357),
    (2, (1, 2)): F(319615925538369285, 4),
    (3, (1, 1)): F(12112667926597160835676659),
}

# Local P1 x P1: the mirror-map correction, the same in both components.
LOCAL_MAP = {
    (1, 0): F(2), (0, 1): F(2),
    (2, 0): F(3), (1, 1): F(12), (0, 2): F(3),
    (3, 0): F(20, 3), (2, 1): F(60), (1, 2): F(60), (0, 3): F(20, 3),
}

# Degree-8 hypersurface in P(1,1,2,2,2): the (z, w) generating function.
FIBERED_ZW = ((F(0), F(4)), {
    (0, 1): F(416), (1, 0): F(-4), (0, 2): F(39120), (2, 0): F(-6),
    (1, 1): F(832), (0, 3): F(16567040, 3), (3, 0): F(-40, 3),
    (1, 2): F(375648), (2, 1): F(832)})

# Degree-12 hypersurface in resolved P(1,1,2,2,6): the (1, w2) function.
ORBIFOLD_1W2 = ((F(2), F(4)), {
    (0, 1): F(3456), (0, 2): F(2335968), (0, 3): F(2313054720),
    (1, 2): F(4836096)})

# Twist-3 Hirzebruch surface: two-point number at (3, 2) with z, z.
F3_ZZ_32 = F(64)


def multiple_cover(d, bps=QUINTIC_BPS):
    """Degree-d (z, z) invariant of the quintic: d^2 * sum_{k|d} n_{d/k} / k^3."""
    return d * d * sum(F(bps[d // k - 1], k ** 3)
                       for k in range(1, d + 1) if d % k == 0)


def j_oracle(count):
    """j_1..j_count, the coefficients of q^0 .. q^(count-1) in j(q) - 1/q.

    Built in exact integers: E4 = 1 + 240 sum sigma_3(n) q^n, and
    j = E4^3 / (q prod (1 - q^n)^24).
    """
    top = count + 1
    prod = [1] + [0] * top
    for n in range(1, top + 1):
        for _ in range(24):
            for i in range(top, n - 1, -1):
                prod[i] -= prod[i - n]
    inv = [1] + [0] * top
    for i in range(1, top + 1):
        inv[i] = -sum(prod[m] * inv[i - m] for m in range(1, i + 1))
    e4 = [1] + [240 * sum(k ** 3 for k in range(1, n + 1) if n % k == 0)
                for n in range(1, top + 1)]

    def mul(a, b):
        return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(top + 1)]

    series = mul(mul(mul(e4, e4), e4), inv)
    return series[1:count + 1]


# -- reading the CLI's series text -------------------------------------------

_NUMBER = re.compile(r"^\d+(?:/\d+)?$")
_MONO = re.compile(r"^q([12]?)(?:\^(\d+))?$")


def parse_series(text, names=("x1", "x2")):
    """(affine, const, terms) of one rendered series.

    The text is the CLI's table rendering: signed chunks "c*label" joined by
    " + " / " - ", where a label is an affine name or a product of q, q^d,
    q1, q1^d, q2, q2^d.  Raises ValueError on anything else.
    """
    affine = [F(0), F(0)]
    const = F(0)
    terms = {}
    text = text.strip()
    if text == "0":
        return tuple(affine), const, terms
    chunks = text.replace(" - ", " + -").split(" + ")
    for chunk in chunks:
        sign = -1 if chunk.startswith("-") else 1
        body = chunk.lstrip("-")
        head, _, rest = body.partition("*")
        if _NUMBER.match(head):
            coef, label = F(head) * sign, rest
        else:
            coef, label = F(sign), body
        if not label:
            const += coef
        elif label in names:
            affine[names.index(label)] += coef
        else:
            dd = [0, 0]
            for factor in label.split("*"):
                m = _MONO.match(factor)
                if not m:
                    raise ValueError("unreadable series chunk %r" % chunk)
                dd[int(m.group(1) or 1) - 1] += int(m.group(2) or 1)
            terms[tuple(dd)] = terms.get(tuple(dd), F(0)) + coef
    return tuple(affine), const, terms


# -- truncated series in q1, q2, for the inverse-map identity -----------------


def _mul(a, b, top):
    out = {}
    for (a1, b1), c1 in a.items():
        for (a2, b2), c2 in b.items():
            if a1 + a2 + b1 + b2 <= top:
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, F(0)) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _exp(a, top):
    """exp of a series without constant term."""
    out = {(0, 0): F(1)}
    power = {(0, 0): F(1)}
    fact = 1
    for m in range(1, top + 1):
        power = _mul(power, a, top)
        fact *= m
        for k, v in power.items():
            out[k] = out.get(k, F(0)) + v / fact
    return out


def inverse_residual(forward, inverse, top):
    """f_i(q) + g_i(q1 e^{f1}, q2 e^{f2}) through total degree top, per i.

    forward[i] and inverse[i] are the exponential terms of t_i = x_i + f_i(q)
    and x_i = t_i + g_i(Q).  The map is inverted exactly when both residuals
    are empty.
    """
    grow = [_exp(f, top) for f in forward]
    out = []
    for f, g in zip(forward, inverse):
        total = dict(f)
        for (da, db), c in g.items():
            term = {(da, db): c}
            for _ in range(da):
                term = _mul(term, grow[0], top)
            for _ in range(db):
                term = _mul(term, grow[1], top)
            for k, v in term.items():
                total[k] = total.get(k, F(0)) + v
        out.append({k: v for k, v in total.items() if v})
    return out
