"""The target geometries, each a row of toric data, and the sum over chains.

A row is one Geometry call: its name, its columns of pairings with its r
Kahler forms, one entry per form (its toric divisors; its defining
equation, or None; a local target's bundle, or None), its basis and its
parameters.  The form count r is the length of a column; axis 0 pairs
with z and axis 1 with w; a hypersurface may pair with every axis.
Geometry._derive checks the row and places each column on an axis once,
at construction, by the one rule stated there; the engine in chains and
Geometry.classical_triple read that placement (kf0, the one subclass,
declares its virtual-ring triple table instead).
Geometry.two_point sums one amplitude per chain; chains is imported on
the first amplitude and parts, which enumerates the chains, on the first
sum, so a cache hit loads none of chains, parts, polys and residues.  The
parameters GEOMETRIES declares are what the CLI accepts.

Supported geometries and their string names:

  cpn   degree-k hypersurface data in projective space of N variables
        (two free integer parameters N >= 2 and k >= 1)
  kf0   canonical bundle of the quadric surface P1 x P1 (free parameter k
        enters only classical pairings; quantum numbers are k-free)
  f3    Hirzebruch surface of twist 3
  wp1   degree-8 hypersurface in the weighted space P(1,1,2,2,2), fibered
        over P1 by quartic K3 surfaces
  wp2   degree-6 hypersurface in P(1,1,1,3), a K3 surface
  wp3   degree-12 hypersurface in P(1,1,2,2,6), fibered over P1 by the
        K3 surfaces of wp2
"""

import re
from collections import Counter
from fractions import Fraction
from functools import partial

from .cache import cached_two_point

_AXES = "zwu"   # the letter of each axis, in labels and in chains' variables


def __getattr__(name):
    # residues' binding, which bench/tracer.py reads; ROADMAP item 1 retires it
    if name in ("residue_at", "residue_sum"):
        from . import residues
        return getattr(residues, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class InvalidDegree(ValueError):
    """A degree outside the domain of the chains; parts re-exports it."""


def check_degree(dd, n=None):
    """dd as the chains take it on n forms, a tuple of n ints: on one a
    positive int, bare or as a 1-tuple; on more, non-negative ints, not all
    0.  The one rule for Geometry.check_degree and both enumerations in
    parts; n=None takes any tuple of two or more, its length the form count."""
    if n == 1:
        d, = dd if isinstance(dd, tuple) and len(dd) == 1 else (dd,)
        if type(d) is not int or d <= 0:
            raise InvalidDegree("degree must be a positive integer, got %r" % (d,))
        dd = (d,)
    elif not (isinstance(dd, tuple) and len(dd) == (n or len(dd))
              and all(type(x) is int for x in dd)):
        raise InvalidDegree("bi-degree required, got %r" % (dd,))
    elif len(dd) < 2 or min(dd) < 0:
        raise InvalidDegree("bi-degree must be a pair of non-negative integers")
    elif not any(dd):
        raise InvalidDegree("bi-degree %s has no chains" % (dd,))
    return dd


class InvalidInsertion(ValueError):
    """An insertion outside the geometry's cohomology basis."""


class Insertion:
    """A monomial cohomology class, stored as generator exponents: one
    exponent per form, so (s,) for z^s on a one-form target and (s, t) for
    z^s w^t on a two-form one.  The label names axis i by _AXES[i].
    """

    __slots__ = ("exps",)

    def __init__(self, *exps):
        if not all(type(e) is int for e in exps):
            raise InvalidInsertion("non-integer exponent in %r" % (exps,))
        self.exps = exps
        if any(e < 0 for e in exps):
            raise InvalidInsertion("negative exponent in %r" % (exps,))

    def degree(self):
        return sum(self.exps)

    def label(self):
        return "".join(c if e == 1 else "%s%d" % (c, e)
                       for c, e in zip(_AXES, self.exps) if e) or "1"

    def __eq__(self, other):
        return isinstance(other, Insertion) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return "Insertion(%s)" % ", ".join(map(str, self.exps))


def _check_int(name, v):
    """v itself if its type is int; a ValueError otherwise (a bool or any
    other int subclass too), so no number answers a coerced parameter."""
    if type(v) is not int:
        raise ValueError("%s must be an integer, got %r" % (name, v))
    return v


def parse_insertion(geom, label):
    """Turn a CLI-style label into an Insertion for the given geometry.

    Labels: "1", or each axis by its letter in _AXES with its exponent
    ("z", "w", "zw", "w2", "z2w3", ...).  On one form "h" and a bare
    exponent are aliases of "z" ("h3" and "3" read "z3"), and an integer
    is the exponent itself.
    """
    if isinstance(label, Insertion):
        return label
    if isinstance(label, int):
        if geom.n_forms != 1:
            raise InvalidInsertion("integer labels are for one-form geometries")
        return Insertion(label)
    if isinstance(label, tuple):
        return Insertion(*label)
    label = str(label).strip()
    if label == "1":
        return Insertion(*(0,) * geom.n_forms)
    letters = [r"(?:z|h|(?=\d))"] if geom.n_forms == 1 else _AXES[:geom.n_forms]
    m = re.match("".join(r"(?:%s(\d*))?" % c for c in letters) + "$", label)
    if not m or all(e is None for e in m.groups()):
        raise InvalidInsertion("bad label %r" % label)
    return Insertion(*(0 if e is None else int(e or 1) for e in m.groups()))


class Geometry:
    """A target as one row: the toric data, its derivation, the chain sum.
    basis lists the accepted insertions in order, as labels or exponents;
    params holds the ordered (name, value) pairs of repr and cache keys."""

    def __init__(self, name, divisors, hypersurface=None, bundle=None, basis=(), params=()):
        self.name = name
        self._params = tuple((p, _check_int("%s: parameter %s" % (name, p), v)) for p, v in params)
        self._DIVISORS, self._HYPERSURFACE, self._BUNDLE = tuple(divisors), hypersurface, bundle
        self._derive()
        self._BASIS = tuple(parse_insertion(self, a) for a in basis)
        for a in self._BASIS:
            if len(a.exps) != self.n_forms:
                raise ValueError("%s: basis entry %s needs %d exponents" % (name, a, self.n_forms))
        self._basis = frozenset(self._BASIS)

    def _derive(self):
        """Check the table and derive, once per geometry: n_forms, the
        length of a column, at most one per letter of _AXES; the dimension
        and first Chern class _C1 of the selection rule; _COLUMNS, the
        divisors and the bundle as (column, multiplicity) pairs, which
        chains reads with _HYPERSURFACE; and _POLES, their placement.

        The placement rule (torus localization, Kontsevich hep-th/9405035):
        _POLES[c] holds, as (column, c_c, multiplicity, root), each column
        whose last nonzero entry c_c sits at axis c, a factor
        1/(sum_i c_i x_i) in the residue in x_c.  A pure one (no other
        entry) has root None and its pole at 0, with scale 1/c_c; a twisted
        one (c_c > 0 >= every earlier entry) has its pole at its root
        sum_{i<c} (-c_i/c_c) x_i, kept as that tuple.  The chain residues
        take the columns with c_c > 0; the classical triple takes every
        pure one and refuses a negative c_c beside earlier entries (kf0's
        bundle).  A positive entry before the last nonzero one has no pole:
        such a column raises ValueError here, as does a row with no
        divisor and a column not of ints, of the wrong length or of 0s."""
        divs, bundle, hyp = self._DIVISORS, self._BUNDLE, self._HYPERSURFACE
        if not divs:
            raise ValueError("%s has no divisors" % self.name)
        cols = divs + ((bundle,) if bundle else ())
        for col in cols + ((hyp,) if hyp else ()):
            # divs[0] is checked first, so its length is the form count
            if type(col) is not tuple or not all(type(e) is int for e in col):
                raise ValueError("%s: column %r is not a tuple of integers" % (self.name, col))
            if len(col) != len(divs[0]) or not any(col):
                raise ValueError("%s: column %s needs %d entries, not all 0"
                                 % (self.name, col, len(divs[0])))
        self.n_forms = n = len(divs[0])
        if n > len(_AXES):
            raise ValueError("%s has %d forms; labels name at most %d axes (%s)"
                             % (self.name, n, len(_AXES), _AXES))
        self.dim = len(divs) - n - bool(hyp) + bool(bundle)
        self._C1 = tuple(sum(c[i] for c in cols) - (hyp[i] if hyp else 0) for i in range(n))
        self._COLUMNS = tuple(Counter(cols).items())
        self._POLES = tuple([] for _ in range(n))
        for col, m in self._COLUMNS:
            c = max(i for i, e in enumerate(col) if e)
            rest, cc = col[:c], col[c]
            if max(rest, default=0) > 0:
                raise ValueError("%s: column %s is outside the placement rule" % (self.name, col))
            root = tuple(Fraction(-e, cc) for e in rest) if any(rest) else None
            self._POLES[c].append((col, cc, m, root))

    def params(self):
        return self._params

    def __repr__(self):
        ps = ", ".join("%s=%s" % kv for kv in self.params())
        return "%s(%s)" % (self.name, ps)

    def basis(self):
        return list(self._BASIS)

    def check_insertion(self, a):
        a = parse_insertion(self, a)
        if a not in self._basis:
            raise InvalidInsertion("%s is not in the %s basis" % (a.label(), self.name))
        return a

    def selection_degree(self, dd):
        """Total insertion degree required for a nonzero number at degree
        dd: the virtual dimension dim - 1 + c1 . dd."""
        return self.dim - 1 + sum(c * d for c, d in zip(self._C1, self.check_degree(dd)))

    def check_degree(self, dd):
        """dd as the chains take it, by the one rule check_degree."""
        return check_degree(dd, self.n_forms)

    def _chains(self, dd):
        """The ordered partitions of dd, by parts: plain compositions on one
        form, parts along one axis each on more."""
        from . import parts
        if self.n_forms == 1:
            return parts.ordered_partitions(dd)
        return parts.ordered_bipartitions(*dd)

    def kahler_classes(self):
        """Degree-one generators, one per form; the series layer reads them
        first, so a basis without one (cpn with N = 2) is refused here."""
        n = self.n_forms
        classes = [Insertion(*(int(i == j) for j in range(n))) for i in range(n)]
        if not all(v in self._basis for v in classes):
            raise ValueError("%r has no degree-one class" % self)
        return classes

    def pairing_partners(self):
        """Classes of degree dim-1 pairing against the generators."""
        return [a for a in self._BASIS if a.degree() == self.dim - 1]

    def two_point(self, dd, a, b):
        """Sum of chain amplitudes at degree dd with the two insertions,
        computed on every call; cache.cached_two_point memoizes it.  A pair
        whose total degree breaks the selection rule is 0 without a chain.
        Each sum starts from the higher-degree insertion (the first on a
        tie), whose power at vertex 0 lowers the first residues' pole order;
        the number is symmetric in its insertions, so this is exact."""
        a, b = self.check_insertion(a), self.check_insertion(b)
        dd = self.check_degree(dd)
        total = Fraction(0)
        if a.degree() + b.degree() != self.selection_degree(dd):
            return total
        if b.degree() > a.degree():
            a, b = b, a
        for sigma in self._chains(dd):
            total += self.amplitude(sigma, a, b)
        return total

    def amplitude(self, sigma, a, b):
        """One chain's contribution, by chains (imported on the first call)."""
        from . import chains
        return chains.amplitude(self, sigma, a, b)

    def classical_triple(self, a, b, c):
        """The degree-zero pairing <a, b, c>: the chain-start residue,
        over the poles _derive placed, axis by axis from the last.

        The integrand is x^e, e the summed exponents, times the
        hypersurface's linear form, over each column's factor.  The
        residues at the P poles of axis c sum to minus the one at
        infinity, so x_c^n y becomes h_{n+1-P}(roots) y over the product
        of the c_c, h_j the complete homogeneous polynomial in the roots,
        a polynomial in the earlier axes.  A column with no pole here
        raises ValueError.
        """
        a, b, c = (self.check_insertion(x) for x in (a, b, c))
        poly = {tuple(map(sum, zip(a.exps, b.exps, c.exps))): Fraction(1)}
        if self._HYPERSURFACE:
            poly = _times(poly, self._HYPERSURFACE)
        for ax in reversed(range(self.n_forms)):
            scale, poles, roots = Fraction(1), 0, []
            for col, cc, mult, root in self._POLES[ax]:
                if root and cc < 0:
                    raise ValueError("%s: column %s is outside the classical-triple rule"
                                     % (self.name, col))
                roots += [root] * mult if root else []
                scale, poles = scale / cc ** mult, poles + mult
            top = max((e[-1] for e in poly), default=0) + 1 - poles
            h = [{(0,) * ax: scale}] + [{}] * max(top, 0)
            for r in roots:
                for n in range(1, top + 1):
                    h[n] = _times(h[n - 1], r, h[n])
            out = {}
            for e, v in poly.items():
                j = e[-1] + 1 - poles
                for f, w in h[j].items() if j >= 0 else ():
                    k = tuple(map(sum, zip(e, f)))
                    out[k] = out.get(k, 0) + v * w
            poly = out
        return poly.get((), Fraction(0))


def _times(poly, form, acc=None):
    """acc (default 0) plus poly times the linear form sum_i form[i] x_i,
    polynomials as dicts from exponent tuples to coefficients."""
    out = dict(acc or {})
    for e, v in poly.items():
        for i, c in enumerate(form):
            if c:
                k = e[:i] + (e[i] + 1,) + e[i + 1:]
                out[k] = out.get(k, 0) + v * c
    return out


def _cpn(N, k):
    """cpn's row, on the powers 0 .. N-2 of the hyperplane class."""
    N, k = _check_int("N", N), _check_int("k", k)
    if N < 2 or k < 1:
        raise ValueError("need N >= 2 and k >= 1")
    return Geometry("cpn", ((1,),) * N, (k,), basis=range(N - 1), params=(("N", N), ("k", k)))


class Kf0Geometry(Geometry):
    """The canonical bundle over P1 x P1 (a local surface).

    Both axes carry the section block of the bundle O(-2, -2) over the
    divisors z, z, w, w.  Quantum two-point numbers are independent of the
    ring parameter k; the classical triple pairing is a k-linear table on
    the six-element virtual ring {1, z, w, z^2, zw, z^3}.
    """

    def __init__(self, k):
        super().__init__("kf0", ((1, 0), (1, 0), (0, 1), (0, 1)), bundle=(-2, -2),
                         basis=("1", "z", "w", "zw"), params=(("k", k),))
        self.k = k

    def virtual_ring(self):
        return [Insertion(0, 0), Insertion(1, 0), Insertion(0, 1),
                Insertion(2, 0), Insertion(1, 1), Insertion(3, 0)]

    def pairing_partners(self):
        # degree-two slots of the virtual ring; the basis alone lacks z^2
        return [Insertion(2, 0), Insertion(1, 1)]

    def classical_triple(self, a, b, c):
        table = {(3, 0): Fraction(self.k), (2, 1): Fraction(-self.k),
                 (1, 2): Fraction(self.k) - Fraction(1, 2),
                 (0, 3): Fraction(1, 2) - Fraction(self.k)}
        exps = [parse_insertion(self, x) for x in (a, b, c)]
        ring = self.virtual_ring()
        for x in exps:
            if x not in ring:
                raise InvalidInsertion("%s is outside the virtual ring" % x.label())
        s, t = (sum(e) for e in zip(*(x.exps for x in exps)))
        return table.get((s, t), Fraction(0))


# wp1 and wp3, fibered over P1 with one fiber coordinate twisted by 2, w - 2z
_FIBRATION_BASIS = ("1", "z", "w", "zw", "w2", "zw2", "w3", "zw3")

# name -> (builder, {parameter: default, None when required})
GEOMETRIES = {
    "cpn": (_cpn, {"N": None, "k": None}),
    "kf0": (Kf0Geometry, {"k": 1}),
    "f3": (partial(Geometry, "f3", ((1, 0), (1, 0), (-3, 1), (0, 1)),
                   basis=("1", "z", "w", "w2")), {}),
    "wp1": (partial(Geometry, "wp1", ((1, 0), (1, 0), (0, 1), (0, 1), (0, 1), (-2, 1)),
                    (0, 4), basis=_FIBRATION_BASIS), {}),
    "wp2": (partial(Geometry, "wp2", ((1,), (1,), (1,), (3,)), (6,),
                    basis=("1", "z", "z2", "z3")), {}),
    "wp3": (partial(Geometry, "wp3", ((1, 0), (1, 0), (0, 1), (0, 1), (-2, 1), (0, 3)),
                    (0, 6), basis=_FIBRATION_BASIS), {}),
}


def declared_params(name):
    """The named row's parameters and defaults; ValueError for no row."""
    if name not in GEOMETRIES:
        raise ValueError("unknown geometry %r (have: %s)" % (name, ", ".join(sorted(GEOMETRIES))))
    return GEOMETRIES[name][1]


def geometry(name, **params):
    """A new instance of the named geometry.  Instances hold no memo:
    cache.cached_two_point keys two-point numbers by name and parameters."""
    params = dict(declared_params(name), **params)
    return GEOMETRIES[name][0](**params)


def two_point_cpn(N, k, d, a, b):
    """cached_two_point on cpn's row (N, k): the raw number at degree d."""
    return cached_two_point(_cpn(N, k), d, a, b)
