"""The target geometries, declared as data, and the sum over chains.

Geometry.two_point sums one amplitude per chain, and the engine in chains
computes each from the data declared here; it is imported on the first
amplitude, so a cache hit loads neither it nor polys and residues.  A
chain's parts run along the section axis (z) or the fiber axis (w).  A
two-form target declares section and fiber data, a branch constant, an
orbifold weight and one residue profile per axis of the previous part.  A
one-form target is the same data with fiber parts only: its coordinate
weights at twist 0 over its degree-k equation.  It has no section
variable, so its one variable per vertex is named z.  The declared
dimension and first Chern class give the selection rule dim - 1 + c1 . d,
and the declared parameters what the CLI accepts.

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

import math
import re
from fractions import Fraction

from .cache import cached_two_point
from .parts import InvalidDegree, ordered_bipartitions, ordered_partitions


def __getattr__(name):
    # residues' binding, which bench/tracer.py reads; ROADMAP item 1 retires it
    if name in ("residue_at", "residue_sum"):
        from . import residues
        return getattr(residues, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


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


def _check_integers(**params):
    """Raise ValueError for the first parameter that is not an int (nor a
    bool), so that no number is answered for a coerced parameter."""
    for name, x in params.items():
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError("%s must be an integer, got %r" % (name, x))


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
    """Base for all targets: the data that chains reads, and the chain sum."""

    name = None
    n_forms = None
    dim = None
    param_defaults = {}     # parameter name -> default, None when required
    _C1 = None              # c1 paired with each degree component

    _SECTION_AXES = "a"
    _SPAN = _SHIFT = None
    _FIBER_DEGREE = None    # degree of the fiber hypersurface, if any
    _FIBER = ()             # (weight, twist, multiplicity) per coordinate group
    # fiber residue profile by the axis of the previous part, the chain
    # start counting as "b": (w power in the measure, measure carries the
    # branch factor (w - c z), contour also encircles w = c z)
    _RES = None
    _BRANCH = None          # c in the movable zero w = c z, if any
    _W_SCALE = Fraction(1)  # orbifold weight per w residue
    _DESCENDING = False     # residues in descending vertex order

    def params(self):
        return tuple((p, getattr(self, p)) for p in self.param_defaults)

    def __repr__(self):
        ps = ", ".join("%s=%s" % kv for kv in self.params())
        return "%s(%s)" % (self.name, ps)

    def basis(self):
        raise NotImplementedError

    def check_insertion(self, a):
        a = parse_insertion(self, a)
        if a not in self.basis():
            raise InvalidInsertion("%s is not in the %s basis" % (a.label(), self.name))
        return a

    def selection_degree(self, dd):
        """Total insertion degree required for a nonzero number at degree
        dd: the virtual dimension dim - 1 + c1 . dd."""
        dd = (dd,) if isinstance(dd, int) else dd
        return self.dim - 1 + sum(c * d for c, d in zip(self._C1, dd))

    def kahler_classes(self):
        """Degree-one generators, one per form."""
        n = self.n_forms
        return [Insertion(*(int(i == j) for j in range(n))) for i in range(n)]

    def pairing_partners(self):
        """Classes of degree dim-1 pairing against the generators."""
        return [a for a in self.basis() if a.degree() == self.dim - 1]

    def two_point(self, dd, a, b):
        """Sum of chain amplitudes at degree dd with the two insertions,
        computed on every call; cache.cached_two_point memoizes it.  A pair
        whose total degree breaks the selection rule is 0 without a chain."""
        a, b = self.check_insertion(a), self.check_insertion(b)
        dd = self.check_degree(dd)
        total = Fraction(0)
        if a.degree() + b.degree() != self.selection_degree(dd):
            return total
        for sigma in self._chains(dd):
            total += self.amplitude(sigma, a, b)
        return total

    def amplitude(self, sigma, a, b):
        """One chain's contribution, by chains (imported on the first call)."""
        from . import chains
        return chains.amplitude(self, sigma, a, b)

    def classical_triple(self, a, b, c):
        raise NotImplementedError


class _OneFormGeometry(Geometry):
    """A degree-k hypersurface in weighted projective space.

    Every part is a fiber part: the coordinate groups of `weights` at twist
    0 over the roots of the degree-k equation.  With no section variable,
    each vertex takes one residue, with a pole of order len(weights) and the
    orbifold weight 1/prod(weights), and each node carries 1/k.  Subclasses
    declare the weights, k and the order in which the vertex residues are
    taken.
    """

    n_forms = 1

    def __init__(self, weights, k):
        self.weights, self.k = weights, k
        self._C1 = (sum(weights) - k,)
        self._FIBER_DEGREE = k
        self._FIBER = tuple((m, 0, weights.count(m)) for m in sorted(set(weights)))
        self._W_SCALE = Fraction(1, math.prod(weights))
        self._RES = {"b": (len(weights), False, False)}

    @property
    def dim(self):
        return len(self.weights) - 2

    def check_degree(self, dd):
        if isinstance(dd, tuple) and len(dd) == 1:
            dd, = dd
        if not isinstance(dd, int) or dd <= 0:
            raise InvalidDegree("degree must be a positive integer, got %r" % (dd,))
        return dd

    def _chains(self, d):
        return ordered_partitions(d)

    def classical_triple(self, a, b, c):
        a, b, c = (self.check_insertion(x) for x in (a, b, c))
        if a.degree() + b.degree() + c.degree() != self.dim:
            return Fraction(0)
        return Fraction(self.k, math.prod(self.weights))


class _TwoFormGeometry(Geometry):
    """A surface or a threefold with two Kahler forms, z and w.

    Subclasses declare the section and fiber data, the branch constant, the
    orbifold weight and the residue profiles that chains.amplitude reads;
    each vertex carries the two variables z_j and w_j.
    """

    n_forms = 2

    def check_degree(self, dd):
        if not (isinstance(dd, tuple) and len(dd) == 2
                and all(isinstance(x, int) for x in dd)):
            raise InvalidDegree("bi-degree required, got %r" % (dd,))
        da, db = dd
        if da < 0 or db < 0:
            raise InvalidDegree("bi-degree must be a pair of non-negative integers")
        if da == 0 and db == 0:
            raise InvalidDegree("bi-degree (0, 0) has no chains")
        return (da, db)

    def _chains(self, dd):
        return ordered_bipartitions(*dd)

    def classical_triple(self, a, b, c):
        """The degree-zero pairing: the last fiber residue profile, then z.

        The integrand is scale z^(s-2) w^(t-p) / (w - c z), with p the w
        power of that profile and c the branch constant.  Its residues at
        w = 0 and w = c z sum to (c z)^(t-p) when t >= p; below p they
        cancel, because the residue at infinity vanishes.  The z residue
        then keeps only s + t - p = 1.  A fiber hypersurface contributes
        its class _FIBER_DEGREE * w at the orbifold weight of a fiber
        residue.
        """
        a, b, c = (self.check_insertion(x) for x in (a, b, c))
        s = a.exps[0] + b.exps[0] + c.exps[0]
        t = a.exps[1] + b.exps[1] + c.exps[1]
        scale = 1
        if self._FIBER_DEGREE:
            scale, t = self._FIBER_DEGREE * self._W_SCALE, t + 1
        p = self._RES["b"][0]
        if t < p or s + t - p != 1:
            return Fraction(0)
        return Fraction(scale * self._BRANCH ** (t - p))


class CpnGeometry(_OneFormGeometry):
    """Two-point numbers of degree-k hypersurface data in projective space.

    Insertions are powers of the hyperplane class, 0 .. N-2.  Chains are
    plain compositions; every vertex carries one variable, integrated about
    the origin in descending vertex order.
    """

    name = "cpn"
    _DESCENDING = True
    param_defaults = {"N": None, "k": None}

    def __init__(self, N, k):
        _check_integers(N=N, k=k)
        if N < 2 or k < 1:
            raise ValueError("need N >= 2 and k >= 1")
        self.N = N
        super().__init__((1,) * N, k)

    def basis(self):
        return [Insertion(i) for i in range(self.N - 1)]


class Wp2Geometry(_OneFormGeometry):
    """Degree-6 hypersurface in P(1,1,1,3): a K3 surface with one form.

    Every vertex residue carries the orbifold weight 1/3 and a fourth-order
    pole at the origin; residues run in ascending vertex order.
    """

    name = "wp2"

    def __init__(self):
        super().__init__((1, 1, 1, 3), 6)

    def basis(self):
        return [Insertion(i) for i in range(4)]


class Kf0Geometry(_TwoFormGeometry):
    """The canonical bundle over P1 x P1 (a local surface).

    Both axes carry the section block of the bundle O(-2, -2).  Quantum
    two-point numbers are independent of the ring parameter k; the
    classical triple pairing is a k-linear table on the six-element virtual
    ring {1, z, w, z^2, zw, z^3}.
    """

    name = "kf0"
    dim = 3

    _C1 = (0, 0)
    param_defaults = {"k": 1}
    _SECTION_AXES = "ab"
    _SPAN, _SHIFT = 2, -2
    _RES = {"a": (2, False, False), "b": (2, False, False)}

    def __init__(self, k=param_defaults["k"]):
        _check_integers(k=k)
        self.k = k

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

    The fiber has one coordinate twisted by 3 and one untwisted.
    """

    name = "f3"
    dim = 2

    _C1 = (-1, 2)
    _SPAN, _SHIFT = 3, 1
    _FIBER = ((1, 3, 1), (1, 0, 1))
    _BRANCH = 3
    _RES = {"a": (1, False, False), "b": (1, True, True)}

    def basis(self):
        return [Insertion(0, 0), Insertion(1, 0), Insertion(0, 1), Insertion(0, 2)]


class _WeightedFibration(_TwoFormGeometry):
    """A Calabi-Yau hypersurface in weighted projective space, fibered
    over P1 by a K3 hypersurface of degree _FIBER_DEGREE."""

    dim = 3

    _C1 = (0, 0)
    _SPAN, _SHIFT = 2, 1
    _BRANCH = 2
    _RES = {"a": (3, False, True), "b": (3, True, True)}

    def basis(self):
        return [Insertion(s, t) for t in range(4) for s in range(2)]


class Wp1Geometry(_WeightedFibration):
    """Degree-8 hypersurface in P(1,1,2,2,2), fibered over P1 by quartic K3
    surfaces in P3: three untwisted fiber coordinates and one twisted by 2.
    """

    name = "wp1"

    _FIBER_DEGREE = 4
    _FIBER = ((1, 0, 3), (1, 2, 1))


class Wp3Geometry(_WeightedFibration):
    """Degree-12 hypersurface in P(1,1,2,2,6), fibered over P1.

    The fiber is the P(1,1,1,3) sextic: two unit-weight directions, one
    twisted unit-weight direction, one weight-3 direction; each fiber
    residue carries the orbifold weight 1/3.
    """

    name = "wp3"

    _FIBER_DEGREE = 6
    _FIBER = ((1, 0, 2), (1, 2, 1), (3, 0, 1))
    _W_SCALE = Fraction(1, 3)


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


def _two_point(name, dd, a, b, **params):
    """A named geometry's two-point number, through cache.cached_two_point."""
    g = geometry(name, **params)
    return cached_two_point(g, dd, g.check_insertion(a), g.check_insertion(b))


def two_point_cpn(N, k, d, a, b):
    return _two_point("cpn", d, a, b, N=N, k=k)


def two_point_kf0(dd, a, b, k=1):
    return _two_point("kf0", dd, a, b, k=k)


def two_point_f3(dd, a, b):
    return _two_point("f3", dd, a, b)


def two_point_wp1(dd, a, b):
    return _two_point("wp1", dd, a, b)


def two_point_wp2(d, a, b):
    return _two_point("wp2", d, a, b)


def two_point_wp3(dd, a, b):
    return _two_point("wp3", dd, a, b)
