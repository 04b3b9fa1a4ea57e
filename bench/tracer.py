"""Per-layer tracing for the benchmark, installed from outside the package.

Every traced boundary is a function or method of a resmirror module:
public ones, plus the cache store's loader.  The tracer wraps each one and
rebinds the wrapper wherever the original object is bound: in the defining
module, in every module that did ``from .x import y``, and under every
alias in a class (``__rmul__``, ``__radd__``).  Calls are aggregated per
boundary as counters (calls, total, self and slowest time), never stored
one by one, because the polynomial layer is called tens of thousands of
times in one command.  Times are the process's CPU time, like the
benchmark's end-to-end times.  Self time is a call's duration minus the
time spent in traced calls it made.

Run one traced job (the benchmark does this in its traced passes):

    PYTHONPATH=src python3 bench/tracer.py OUT.json HWM_FILE cli ARG...
    PYTHONPATH=src python3 bench/tracer.py OUT.json HWM_FILE deep

The job's stdout is unchanged; the counters go to OUT.json, and the peak
memory to HWM_FILE as bench/child.py writes it.
"""

import functools
import json
import os
import sys
import time
import warnings

from child import write_hwm


class Tracer:
    """Counters for wrapped boundaries; ``stats[name]`` is
    [calls, total_s, self_s, max_s], ``counts`` and ``maxima`` hold the
    boundary-specific tallies (failed divisions, cache hits, ...)."""

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self.maxima = {}
        self._stack = []

    # -- recording -----------------------------------------------------------

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def high(self, name, value):
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def span(self, name, fn, before=None, after=None):
        """fn wrapped so each call adds to stats[name]."""
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        stack = self._stack
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if dt > rec[3]:
                    rec[3] = dt
            if after is not None:
                after(out)
            return out

        return wrapper

    def dump(self, path, extra):
        data = {"stats": self.stats, "counts": self.counts,
                "maxima": self.maxima}
        data.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    # -- installation --------------------------------------------------------

    def patch(self, owner, attr, name, before=None, after=None, inner=None):
        """Wrap owner.attr as boundary `name` and rebind it everywhere.

        `inner`, when given, maps the original to the callable to time (used
        to take measurements that need the call's own arguments).
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = self.span(name, inner(orig) if inner else orig, before, after)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("resmirror"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                elif isinstance(val, type) and val.__module__.startswith("resmirror"):
                    for ckey, cval in list(val.__dict__.items()):
                        if cval is orig:
                            setattr(val, ckey, wrapped)

    def install(self):
        """Wrap every traced boundary; raises if one has gone missing."""
        import resmirror.cli  # noqa: F401  (every module, so every binding)
        from resmirror import cache, geoms, parts, polys, residues, series, vsc

        # Operators may return NotImplemented to hand over to the other
        # operand; only real results are measured.
        def poly_size(out):
            if isinstance(out, polys.MultiPoly):
                self.high("polys.max_terms", len(out.terms))

        def rat_size(out):
            if isinstance(out, polys.RatFunc):
                self.high("polys.max_terms", len(out.num.terms))

        def division(out):
            if out is None:
                self.count("polys.exact_div.none")
            poly_size(out)

        def residue(out):
            if out.is_zero():
                self.count("residues.residue_at.zero")
            if self.inside("geoms.amplitude"):
                self.count("residues.residue_at.chain")

        def amplitude(out):
            if not out:
                self.count("geoms.amplitude.zero")

        def two_point():
            if cache.active_store() is not None and \
                    self.parent() != "cache.cached_two_point":
                self.count("geoms.two_point.bypass")

        def chains(out):
            if self.inside("geoms.two_point"):
                self.count("parts.chains", len(out))

        def series_size(out):
            if isinstance(out, series.MirrorMap):
                comps = out.forward + (out.inverse or ())
            elif isinstance(out, series.GradedSeries):
                comps = (out,)
            else:
                comps = ()
            for s in comps:
                self.high("series.max_terms", len(s.terms))

        def lookup(out):
            if out is not None:
                self.count("cache.hits")

        def counted_load(orig):
            def load(store):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    out = orig(store)
                for w in caught:
                    if "skipping" in str(w.message):
                        self.count("cache.load_skipped")
                    warnings.showwarning(w.message, w.category, w.filename, w.lineno)
                self.count("cache.load_records", len(store))
                return out
            return load

        def counted_store(orig):
            def store(st, *args, **kwargs):
                size = os.path.getsize(st.path) if os.path.exists(st.path) else 0
                out = orig(st, *args, **kwargs)
                self.count("cache.bytes_written", os.path.getsize(st.path) - size)
                return out
            return store

        P, R = polys.MultiPoly, polys.RatFunc
        self.patch(P, "__mul__", "polys.mul", after=poly_size)
        self.patch(P, "exact_div", "polys.exact_div", after=division)
        self.patch(P, "subs", "polys.subs", after=poly_size)
        self.patch(R, "reduce", "polys.ratfunc_reduce", after=rat_size)
        self.patch(R, "__add__", "polys.ratfunc_add", after=rat_size)

        self.patch(residues, "residue_at", "residues.residue_at", after=residue)
        self.patch(residues, "residue_sum", "residues.residue_sum")

        for cls in vars(geoms).values():
            if not (isinstance(cls, type) and issubclass(cls, geoms.Geometry)):
                continue
            own = cls.__dict__
            if "amplitude" in own:
                self.patch(cls, "amplitude", "geoms.amplitude", after=amplitude)
            if "classical_triple" in own:
                self.patch(cls, "classical_triple", "geoms.classical_triple")
            if "two_point" in own:
                self.patch(cls, "two_point", "geoms.two_point", before=two_point)
        self.patch(geoms, "two_point_cpn", "geoms.two_point_cpn")

        self.patch(parts, "ordered_partitions", "parts.ordered_partitions", after=chains)
        self.patch(parts, "ordered_bipartitions", "parts.ordered_bipartitions",
                   after=chains)

        self.patch(vsc, "vsc_recursive", "vsc.recursive")
        self.patch(vsc, "vsc_residue", "vsc.residue")

        self.patch(series.GradedSeries, "__mul__", "series.mul", after=series_size)
        for attr, name in (("build_generating_function", "series.build_gf"),
                           ("mirror_map", "series.mirror_map"),
                           ("invert_mirror_map", "series.invert"),
                           ("transform", "series.transform")):
            self.patch(series, attr, name, after=series_size)
        self.patch(series, "j_coefficients", "series.j_assembly")
        self.patch(series, "reversion_weights", "series.reversion")

        self.patch(cache, "cached_two_point", "cache.cached_two_point")
        self.patch(cache.CacheStore, "_load", "cache.load", inner=counted_load)
        self.patch(cache.CacheStore, "lookup", "cache.lookup", after=lookup)
        self.patch(cache.CacheStore, "store", "cache.store", inner=counted_store)


def main(argv):
    out_path, hwm_path, kind, args = argv[0], argv[1], argv[2], argv[3:]
    if kind not in ("cli", "deep"):
        raise SystemExit("unknown job kind %r" % kind)
    extra = {}
    t0 = time.process_time()
    import resmirror.cli
    if kind == "cli":
        extra["import_s"] = time.process_time() - t0
    tracer = Tracer()
    tracer.install()
    if kind == "cli":
        entry = functools.partial(tracer.span("cli.main", resmirror.cli.main), args)
    else:
        import deep_job
        entry = deep_job.main
    try:
        rc = entry()
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, extra)
        write_hwm(hwm_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
