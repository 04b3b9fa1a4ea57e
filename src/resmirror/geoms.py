"""The target geometries, declared as toric data, and the sum over chains.

Each geometry declares three fields, every class a (c_z, c_w) pair of
pairings with the Kahler forms z and w: _DIVISORS, its toric divisors;
_HYPERSURFACE, its defining equation, or None; _BUNDLE, a local target's
bundle, or None.  A one-form target pairs along w alone.  The engine in
chains and the classical triples read every factor straight off this
table; at construction Geometry._derive only groups the divisors and the
bundle into (column, multiplicity) pairs and sets the dimension and first
Chern class of the selection rule dim - 1 + c1 . d.  A table with no
twisted divisor (c_z < 0 < c_w) has its w poles at 0 alone.
Geometry.classical_triple is one degree-zero rule for every table: the w
residue at the chain start over the pure-w columns of either sign and the
twisted divisors, then the z residue over the pure-z divisors; a one-form
table has no z, so it keeps the w residue alone (kf0 alone declares its
virtual-ring table instead).  Geometry.two_point sums one amplitude per
chain; chains is imported on the first amplitude and parts, which
enumerates the chains, on the first sum, so a cache hit loads none of
chains, parts, polys and residues.  The declared parameters are what the
CLI accepts.

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

from .cache import cached_two_point


def __getattr__(name):
    # residues' binding, which bench/tracer.py reads; ROADMAP item 1 retires it
    if name in ("residue_at", "residue_sum"):
        from . import residues
        return getattr(residues, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _invalid_degree(msg):
    """parts.InvalidDegree, imported only when a degree is refused."""
    from .parts import InvalidDegree
    return InvalidDegree(msg)


class InvalidInsertion(ValueError):
    """An insertion outside the geometry's cohomology basis."""


class Insertion:
    """A monomial cohomology class, stored as generator exponents.

    One-form geometries use a single exponent (powers of the hyperplane
    class); two-form geometries use a pair (s, t) for z^s w^t.
    """

    __slots__ = ("exps",)

    def __init__(self, *exps):
        if not all(isinstance(e, int) and not isinstance(e, bool) for e in exps):
            raise InvalidInsertion("non-integer exponent in %r" % (exps,))
        self.exps = exps
        if any(e < 0 for e in exps):
            raise InvalidInsertion("negative exponent in %r" % (exps,))

    def degree(self):
        return sum(self.exps)

    def label(self):
        if len(self.exps) == 1:
            a = self.exps[0]
            return "1" if a == 0 else ("z" if a == 1 else "z%d" % a)
        s, t = self.exps
        if s == 0 and t == 0:
            return "1"
        zs = "" if s == 0 else ("z" if s == 1 else "z%d" % s)
        ws = "" if t == 0 else ("w" if t == 1 else "w%d" % t)
        return zs + ws

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


_TWO_FORM_LABEL = re.compile(r"^(?:(z)(\d*))?(?:(w)(\d*))?$")


def parse_insertion(geom, label):
    """Turn a CLI-style label into an Insertion for the given geometry.

    One-form labels: an integer, or "1", "z", "z2", ..., or "h0", "h1", ...
    Two-form labels: "1", "z", "w", "zw", "w2", "z2w3", ...
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
    if geom.n_forms == 1:
        if label == "1":
            return Insertion(0)
        m = re.match(r"^(?:h|z)?(\d+)$", label) or re.match(r"^(h|z)$", label)
        if not m:
            raise InvalidInsertion("bad label %r" % label)
        g = m.group(1)
        return Insertion(1 if g in ("h", "z") else int(g))
    if label == "1":
        return Insertion(0, 0)
    m = _TWO_FORM_LABEL.match(label)
    if not m or (m.group(1) is None and m.group(3) is None):
        raise InvalidInsertion("bad label %r" % label)
    s = 0 if m.group(1) is None else int(m.group(2) or 1)
    t = 0 if m.group(3) is None else int(m.group(4) or 1)
    return Insertion(s, t)


class Geometry:
    """Base for all targets: the toric data, its derivation, the chain sum."""

    name = None
    n_forms = None
    param_defaults = {}     # parameter name -> default, None when required
    _DIVISORS = ()          # (c_z, c_w) per toric divisor
    _HYPERSURFACE = None    # (c_z, c_w) of the defining equation, if any
    _BUNDLE = None          # (c_z, c_w) of a local target's bundle, if any

    def __init__(self):
        self._derive()
        self._basis = frozenset(self.basis())

    def _derive(self):
        """The dimension, the first Chern class _C1 of the selection rule,
        and _COLUMNS, the divisors and the bundle grouped into (column,
        multiplicity) pairs, which chains reads with _HYPERSURFACE.  Axis 0
        pairs with z, axis 1 with w; a one-form target pairs along w alone.
        """
        n, divs, bundle = self.n_forms, self._DIVISORS, self._BUNDLE
        hyp = self._HYPERSURFACE or (0, 0)
        cols = divs + ((bundle,) if bundle else ())
        self.dim = len(divs) - n - bool(self._HYPERSURFACE) + bool(bundle)
        self._C1 = tuple(sum(c[i] for c in cols) - hyp[i] for i in (0, 1))[2 - n:]
        self._COLUMNS = tuple(Counter(cols).items())

    def params(self):
        return tuple((p, getattr(self, p)) for p in self.param_defaults)

    def __repr__(self):
        ps = ", ".join("%s=%s" % kv for kv in self.params())
        return "%s(%s)" % (self.name, ps)

    def basis(self):
        raise NotImplementedError

    def check_insertion(self, a):
        a = parse_insertion(self, a)
        if a not in self._basis:
            raise InvalidInsertion("%s is not in the %s basis" % (a.label(), self.name))
        return a

    def selection_degree(self, dd):
        """Total insertion degree required for a nonzero number at degree
        dd: the virtual dimension dim - 1 + c1 . dd."""
        dd = (dd,) if isinstance(dd, int) else dd
        return self.dim - 1 + sum(c * d for c, d in zip(self._C1, dd))

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
        return [a for a in self.basis() if a.degree() == self.dim - 1]

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
        """The degree-zero pairing <a, b, c>, one rule for every table: the
        w residue at the chain start, then the z residue.

        The integrand is z^s w^t times the measures of the chain start:
        1/(c_z z + c_w w) for each of the P columns with a w pole, the
        pure-w ones (c_z = 0, c_w of either sign: divisors and a bundle)
        and the twisted divisors (c_z < 0 < c_w, with roots w = r z), and
        1/(c_z z) for each of the M pure-z divisors (c_w = 0 < c_z).  Its
        w residues at 0 and at every root sum to minus the one at infinity,
        h_j(r) z^j over the constants, where j = t + 1 - P and h_j is the
        complete homogeneous polynomial in the roots (1 at j = 0 when there
        is none); the z residue keeps s + j = M - 1.  A one-form table has
        no z to integrate, so it keeps j = 0.  A hypersurface (each has
        c_z = 0) adds its class c_w w.
        """
        a, b, c = (self.check_insertion(x) for x in (a, b, c))
        *s, t = (sum(e) for e in zip(a.exps, b.exps, c.exps))
        scale = Fraction(1)
        if self._HYPERSURFACE:
            scale, t = Fraction(self._HYPERSURFACE[1]), t + 1
        j, m, roots = t + 1, 0, []
        for (cz, cw), mult in self._COLUMNS:
            if cw > 0 >= cz or cw < 0 == cz:
                scale, j = scale / cw ** mult, j - mult
                roots += [Fraction(-cz, cw)] * mult if cz else []
            elif cw == 0 < cz:
                scale, m = scale / cz ** mult, m + mult
        if j < 0 or j != (m - 1 - s[0] if s else 0):
            return Fraction(0)
        h = [1] + [0] * j
        for r in roots:
            for n in range(1, j + 1):
                h[n] += r * h[n - 1]
        return scale * h[j]


class _OneFormGeometry(Geometry):
    """A hypersurface in weighted projective space: divisors (0, weight)
    and the equation (0, k).  Every part is a fiber part, and each vertex
    takes one residue, in its one variable.
    """

    n_forms = 1

    def check_degree(self, dd):
        if isinstance(dd, tuple) and len(dd) == 1:
            dd, = dd
        if not isinstance(dd, int) or isinstance(dd, bool) or dd <= 0:
            raise _invalid_degree("degree must be a positive integer, got %r"
                                  % (dd,))
        return dd

    def _chains(self, d):
        from .parts import ordered_partitions
        return ordered_partitions(d)


class _TwoFormGeometry(Geometry):
    """A surface or a threefold with two Kahler forms, z and w.

    Subclasses declare the divisor table; each vertex carries the two
    variables z_j and w_j.
    """

    n_forms = 2

    def check_degree(self, dd):
        if not (isinstance(dd, tuple) and len(dd) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in dd)):
            raise _invalid_degree("bi-degree required, got %r" % (dd,))
        da, db = dd
        if da < 0 or db < 0:
            raise _invalid_degree("bi-degree must be a pair of non-negative integers")
        if da == 0 and db == 0:
            raise _invalid_degree("bi-degree (0, 0) has no chains")
        return (da, db)

    def _chains(self, dd):
        from .parts import ordered_bipartitions
        return ordered_bipartitions(*dd)


class CpnGeometry(_OneFormGeometry):
    """Two-point numbers of degree-k hypersurface data in projective space.

    Insertions are powers of the hyperplane class, 0 .. N-2.  Chains are
    plain compositions; every vertex carries one variable, integrated about
    the origin.
    """

    name = "cpn"
    param_defaults = {"N": None, "k": None}

    def __init__(self, N, k):
        self.N, self.k = _check_int("N", N), _check_int("k", k)
        if N < 2 or k < 1:
            raise ValueError("need N >= 2 and k >= 1")
        self._DIVISORS, self._HYPERSURFACE = ((0, 1),) * N, (0, k)
        super().__init__()

    def basis(self):
        return [Insertion(i) for i in range(self.N - 1)]


class Wp2Geometry(_OneFormGeometry):
    """Degree-6 hypersurface in P(1,1,1,3): a K3 surface with one form."""

    name = "wp2"
    _DIVISORS = ((0, 1), (0, 1), (0, 1), (0, 3))
    _HYPERSURFACE = (0, 6)

    def basis(self):
        return [Insertion(i) for i in range(4)]


class Kf0Geometry(_TwoFormGeometry):
    """The canonical bundle over P1 x P1 (a local surface).

    Both axes carry the section block of the bundle O(-2, -2) over the
    divisors z, z, w, w.  Quantum two-point numbers are independent of the
    ring parameter k; the classical triple pairing is a k-linear table on
    the six-element virtual ring {1, z, w, z^2, zw, z^3}.
    """

    name = "kf0"
    param_defaults = {"k": 1}
    _DIVISORS = ((1, 0), (1, 0), (0, 1), (0, 1))
    _BUNDLE = (-2, -2)

    def __init__(self, k=param_defaults["k"]):
        self.k = _check_int("k", k)
        super().__init__()

    def basis(self):
        return [Insertion(0, 0), Insertion(1, 0), Insertion(0, 1), Insertion(1, 1)]

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
        s = sum(x.exps[0] for x in exps)
        t = sum(x.exps[1] for x in exps)
        return table.get((s, t), Fraction(0))


class F3Geometry(_TwoFormGeometry):
    """The Hirzebruch surface of twist 3 (fiber class squares to zero).

    The divisors are z, z, w - 3z and w: the fiber has one coordinate
    twisted by 3 and one untwisted.
    """

    name = "f3"
    _DIVISORS = ((1, 0), (1, 0), (-3, 1), (0, 1))

    def basis(self):
        return [Insertion(0, 0), Insertion(1, 0), Insertion(0, 1), Insertion(0, 2)]


class _WeightedFibration(_TwoFormGeometry):
    """A Calabi-Yau hypersurface in weighted projective space, fibered
    over P1 by a K3 hypersurface: base divisors z, z, untwisted fiber
    coordinates w and one fiber coordinate twisted by 2, w - 2z."""

    def basis(self):
        return [Insertion(s, t) for t in range(4) for s in range(2)]


class Wp1Geometry(_WeightedFibration):
    """Degree-8 hypersurface in P(1,1,2,2,2), fibered over P1 by quartic K3
    surfaces in P3: three untwisted fiber coordinates and one twisted by 2.
    """

    name = "wp1"
    _DIVISORS = ((1, 0), (1, 0), (0, 1), (0, 1), (0, 1), (-2, 1))
    _HYPERSURFACE = (0, 4)


class Wp3Geometry(_WeightedFibration):
    """Degree-12 hypersurface in P(1,1,2,2,6), fibered over P1.

    The fiber is the P(1,1,1,3) sextic: two unit-weight directions, one
    twisted unit-weight direction and one weight-3 direction.
    """

    name = "wp3"
    _DIVISORS = ((1, 0), (1, 0), (0, 1), (0, 1), (-2, 1), (0, 3))
    _HYPERSURFACE = (0, 6)


GEOMETRIES = {
    "cpn": CpnGeometry,
    "kf0": Kf0Geometry,
    "f3": F3Geometry,
    "wp1": Wp1Geometry,
    "wp2": Wp2Geometry,
    "wp3": Wp3Geometry,
}


def geometry(name, **params):
    """A new instance of the named geometry.  Instances hold no memo:
    cache.cached_two_point keys two-point numbers by name and parameters."""
    if name not in GEOMETRIES:
        raise ValueError("unknown geometry %r (have: %s)" % (name, ", ".join(sorted(GEOMETRIES))))
    return GEOMETRIES[name](**params)


def two_point_cpn(N, k, d, a, b):
    """cached_two_point on CpnGeometry(N, k): the raw number at degree d."""
    return cached_two_point(CpnGeometry(N, k), d, a, b)
