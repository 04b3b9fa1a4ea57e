"""The resmirror benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each one exists): one_form_cold,
two_form_cold, deep_series, warm_cli.  With --trace 0 the run measures the
end-to-end metrics with no tracing; with --trace 1 it measures untraced
passes for half the time and traced passes for the other half, and reports
the per-layer metrics and the tracing overhead.  Every job's output is
checked against bench/oracles.py.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The full record
(environment, every pass and job, medians and quartiles) goes to
bench/results/.
"""

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time

from runner import HERE, ROOT, SRC, Runner
from workloads import WORKLOADS

# A run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170

# Times are the CPU time (user + system) of the benchmark's children, from
# wait4.  On an idle machine that equals their wall time; unlike wall time it
# leaves out the time a virtual machine's host steals, which moved wall
# times between runs of the same code by far more than the bounds.  On a
# shared host the CPU time of the same work still moved by a factor of 1.7
# within seconds, as the host's load came and went, and the share of each
# state changed from run to run.  So the bounded times are scaled to a
# machine on which one round of bench/calibrate.py takes CALIBRATION_S: by
# the mean of the rounds the runner timed between the jobs of the same
# phase (set-up or the measured passes), which samples each stretch of the
# phase in proportion to its length, as the jobs' own times do.
CALIBRATION_S = 0.1

END_TO_END = (
    ("solve_s", "s", "lower"),
    ("cli_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# Unscaled CPU and wall-clock figures, in the summary and the record only:
# they move by more than a tenth between runs of the same code, so they
# carry no bound.
UNBOUNDED = (
    ("solve_cpu_s", "s", "lower"),
    ("cli_p50_cpu_ms", "ms", "lower"),
    ("setup_cpu_s", "s", "lower"),
    ("calibration_s", "s", "lower"),
    ("solve_wall_s", "s", "lower"),
    ("cli_p50_wall_ms", "ms", "lower"),
    ("cli_tail_ms", "ms", "lower"),
    ("setup_wall_s", "s", "lower"),
)


def tail(values):
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are ten samples or fewer)."""
    s = sorted(values)
    return s[-11] if len(s) > 10 else s[-1]


def summary(values):
    """median, first and third quartile, and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def by_command(passes, attr):
    """Each job's `attr` time in ms, listed per command line."""
    by_label = {}
    for p in passes:
        for r in p.results:
            by_label.setdefault(r.job.label or r.job.kind, []).append(getattr(r, attr) * 1000.0)
    return by_label


def per_command(passes):
    """Each job's own CPU time in ms, summarised per command line."""
    return {label: summary(values)
            for label, values in sorted(by_command(passes, "cpu_s").items())}


def command_means(passes, attr):
    """The mean `attr` time in ms of each command line of the workload."""
    return [statistics.fmean(v) for _, v in sorted(by_command(passes, attr).items())]


def end_to_end(passes, setup, calibrations):
    """`calibrations`: the set-up's rounds and the passes' rounds."""
    setup_scale, scale = (CALIBRATION_S / statistics.fmean(c) for c in calibrations)
    cpus = [p.cpu_s for p in passes]
    setup_cpu = [p.cpu_s for p in setup]
    jobs = [r for p in passes for r in p.results]
    job_ms = [r.wall_s * 1000.0 for r in jobs]
    rss = [r.rss_mb for r in jobs]
    units = {name: unit for name, unit, _ in END_TO_END + UNBOUNDED}
    # cli_p50_*: the geometric mean over commands of each command's time, so
    # every command weighs the same and no single job carries the figure.  A
    # command's time is its mean, not its median: the machine's two speeds
    # make its times bimodal, and a median flips between the modes where the
    # mean follows the share of each, as the calibration mean does.
    cli = {attr: command_means(passes, attr) for attr in ("cpu_s", "wall_s")}
    out = {}
    # solve_*: the mean pass, which weighs each stretch of the run as the
    # calibrations do
    for name, values, value in (
            ("solve_s", [v * scale for v in cpus], scale * statistics.fmean(cpus)),
            ("cli_p50_ms", [v * scale for v in cli["cpu_s"]],
             scale * statistics.geometric_mean(cli["cpu_s"])),
            ("peak_rss_mb", rss, max(rss)),
            ("setup_s", [v * setup_scale for v in setup_cpu], None),
            ("solve_cpu_s", cpus, statistics.fmean(cpus)),
            ("cli_p50_cpu_ms", cli["cpu_s"], statistics.geometric_mean(cli["cpu_s"])),
            ("setup_cpu_s", setup_cpu, None),
            ("calibration_s", calibrations[1], None),
            ("solve_wall_s", [p.wall_s for p in passes],
             statistics.fmean(p.wall_s for p in passes)),
            ("cli_p50_wall_ms", cli["wall_s"], statistics.geometric_mean(cli["wall_s"])),
            ("cli_tail_ms", job_ms, tail(job_ms)),
            ("setup_wall_s", [p.wall_s for p in setup], None)):
        # value None: the median
        out[name] = dict(summary(values), unit=units[name])
        out[name]["value"] = out[name]["median"] if value is None else value
    return out


# -- per-layer metrics -------------------------------------------------------


class Layers:
    """Counters of all traced jobs, per pass: counts and times are summed
    over a pass's jobs and averaged over passes; max_* and max_terms are
    maxima over the whole run."""

    def __init__(self, passes):
        self.passes = len(passes)
        self.stats, self.counts, self.maxima = {}, {}, {}
        self.import_s = 0.0
        for p in passes:
            for r in p.results:
                if r.stats is None:
                    continue
                for name, (calls, total, own, slowest) in r.stats["stats"].items():
                    rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
                    rec[0] += calls
                    rec[1] += total
                    rec[2] += own
                    rec[3] = max(rec[3], slowest)
                for name, n in r.stats["counts"].items():
                    self.counts[name] = self.counts.get(name, 0) + n
                for name, v in r.stats["maxima"].items():
                    self.maxima[name] = max(self.maxima.get(name, 0), v)
                self.import_s += r.stats.get("import_s", 0.0)

    def _rec(self, span):
        return self.stats.get(span, (0, 0.0, 0.0, 0.0))

    def calls(self, span):
        return self._rec(span)[0] / self.passes

    def total(self, span):
        return self._rec(span)[1] / self.passes

    def self_s(self, span):
        return self._rec(span)[2] / self.passes

    def max_s(self, span):
        return self._rec(span)[3]

    def count(self, name):
        return self.counts.get(name, 0) / self.passes

    def high(self, name):
        return self.maxima.get(name, 0)

    def ratio(self, count, span):
        calls = self._rec(span)[0]
        return self.counts.get(count, 0) / calls if calls else 0.0


def _calls(span):
    return lambda a: a.calls(span)


def _self(span):
    return lambda a: a.self_s(span)


# (name, unit, better, value from Layers); each ratio is listed after its base
PER_LAYER = (
    ("polys.mul.calls", "count", "lower", _calls("polys.mul")),
    ("polys.mul.self_s", "s", "lower", _self("polys.mul")),
    ("polys.exact_div.calls", "count", "lower", _calls("polys.exact_div")),
    ("polys.exact_div.self_s", "s", "lower", _self("polys.exact_div")),
    ("polys.exact_div.none_ratio", "ratio", "lower",
     lambda a: a.ratio("polys.exact_div.none", "polys.exact_div")),
    ("polys.subs.self_s", "s", "lower", _self("polys.subs")),
    ("polys.ratfunc_reduce.self_s", "s", "lower", _self("polys.ratfunc_reduce")),
    ("polys.ratfunc_add.self_s", "s", "lower", _self("polys.ratfunc_add")),
    ("polys.max_terms", "count", "lower", lambda a: a.high("polys.max_terms")),
    ("residues.residue_at.calls", "count", "lower", _calls("residues.residue_at")),
    ("residues.residue_at.chain_calls", "count", "lower",
     lambda a: a.count("residues.residue_at.chain")),
    ("residues.residue_at.self_s", "s", "lower", _self("residues.residue_at")),
    ("residues.residue_at.zero_ratio", "ratio", "lower",
     lambda a: a.ratio("residues.residue_at.zero", "residues.residue_at")),
    ("residues.residue_sum.self_s", "s", "lower", _self("residues.residue_sum")),
    ("geoms.amplitude.calls", "count", "lower", _calls("geoms.amplitude")),
    ("geoms.amplitude.self_s", "s", "lower", _self("geoms.amplitude")),
    ("geoms.amplitude.max_s", "s", "lower", lambda a: a.max_s("geoms.amplitude")),
    ("geoms.amplitude.zero_ratio", "ratio", "lower",
     lambda a: a.ratio("geoms.amplitude.zero", "geoms.amplitude")),
    ("geoms.two_point.calls", "count", "lower", _calls("geoms.two_point")),
    ("geoms.two_point.cache_bypass_ratio", "ratio", "lower",
     lambda a: a.ratio("geoms.two_point.bypass", "geoms.two_point")),
    ("geoms.classical_triple.self_s", "s", "lower", _self("geoms.classical_triple")),
    ("parts.chains", "count", "lower", lambda a: a.count("parts.chains")),
    ("vsc.recursive.calls", "count", "lower", _calls("vsc.recursive")),
    ("vsc.recursive.self_s", "s", "lower", _self("vsc.recursive")),
    ("vsc.residue.self_s", "s", "lower", _self("vsc.residue")),
    ("series.mul.calls", "count", "lower", _calls("series.mul")),
    ("series.mul.self_s", "s", "lower", _self("series.mul")),
    ("series.max_terms", "count", "lower", lambda a: a.high("series.max_terms")),
    ("series.invert.self_s", "s", "lower", _self("series.invert")),
    ("series.transform.self_s", "s", "lower", _self("series.transform")),
    ("series.mirror_map.self_s", "s", "lower", _self("series.mirror_map")),
    ("series.build_gf.self_s", "s", "lower", _self("series.build_gf")),
    ("series.reversion.self_s", "s", "lower", _self("series.reversion")),
    ("series.j_assembly.self_s", "s", "lower", _self("series.j_assembly")),
    ("cache.load_s", "s", "lower", lambda a: a.total("cache.load")),
    ("cache.load_records", "count", "lower", lambda a: a.count("cache.load_records")),
    ("cache.load_skipped", "count", "lower", lambda a: a.count("cache.load_skipped")),
    ("cache.lookup.calls", "count", "lower", _calls("cache.lookup")),
    ("cache.hit_ratio", "ratio", "higher", lambda a: a.ratio("cache.hits", "cache.lookup")),
    ("cache.store.calls", "count", "lower", _calls("cache.store")),
    ("cache.store_s", "s", "lower", lambda a: a.total("cache.store")),
    ("cache.bytes_written", "B", "lower", lambda a: a.count("cache.bytes_written")),
    ("cli.import_s", "s", "lower", lambda a: a.import_s / a.passes),
    ("cli.main_s", "s", "lower", lambda a: a.total("cli.main")),
    ("cli.self_s", "s", "lower", _self("cli.main")),
)

OVERHEAD = (
    ("trace.untraced_solve_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

# Boundaries each workload must reach (calls > 0) and must not reach
# (calls == 0), so a wrapper bound in the wrong place fails the traced run.
REACHED = {
    "one_form_cold": (
        ["polys.mul", "polys.exact_div", "residues.residue_at", "geoms.amplitude",
         "geoms.two_point", "geoms.two_point_cpn", "parts.ordered_partitions",
         "vsc.recursive", "vsc.residue", "series.build_gf", "series.mirror_map",
         "series.invert", "series.transform", "series.j_assembly", "series.reversion",
         "cache.cached_two_point", "cache.lookup", "cache.store", "cache.load",
         "cli.main"],
        []),
    "two_form_cold": (
        ["polys.mul", "polys.exact_div", "polys.subs", "residues.residue_at",
         "residues.residue_sum", "geoms.amplitude", "geoms.two_point",
         "geoms.classical_triple", "parts.ordered_bipartitions", "series.build_gf",
         "series.mirror_map", "series.invert", "cache.cached_two_point",
         "cache.lookup", "cache.store", "cache.load", "cli.main"],
        ["vsc.recursive"]),
    "deep_series": (
        ["series.mul", "series.invert", "series.transform", "series.reversion"],
        ["residues.residue_at", "geoms.amplitude", "cache.lookup", "cli.main"]),
    "warm_cli": (
        ["cache.load", "cache.lookup", "cache.cached_two_point", "cli.main"],
        ["geoms.amplitude", "cache.store"]),
}


def per_layer(workload, base, traced):
    layers = Layers(traced)
    metrics = {name: {"value": fn(layers), "unit": unit}
               for name, unit, _, fn in PER_LAYER}
    untraced = statistics.median(p.cpu_s for p in base)
    metrics["trace.untraced_solve_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead"] = {
        "value": statistics.median(p.cpu_s for p in traced) / untraced, "unit": "ratio"}

    problems = []
    must, must_not = REACHED[workload]
    for span in must:
        if layers.calls(span) == 0:
            problems.append("%s was never called" % span)
    for span in must_not:
        if layers.calls(span) != 0:
            problems.append("%s was called" % span)
    if workload in ("deep_series", "warm_cli"):
        if layers.count("residues.residue_at.chain"):
            problems.append("a chain residue was taken")
    if workload == "warm_cli" and metrics["cache.hit_ratio"]["value"] != 1.0:
        problems.append("cache.hit_ratio is %r, not 1.0"
                        % metrics["cache.hit_ratio"]["value"])
    return metrics, problems


# -- the run -----------------------------------------------------------------


def measure(workload, runner, rng, seconds, traced):
    """Closed-loop passes until the next one would overrun `seconds`."""
    passes = []
    start = time.perf_counter()
    while not runner.expired():
        passes.append(runner.run_pass(workload.pass_jobs(runner, rng), traced))
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    return passes


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "machine": platform.machine()}


def _job_record(r):
    return {"job": r.job.label, "kind": r.job.kind, "wall_s": r.wall_s,
            "cpu_s": r.cpu_s, "rss_mb": r.rss_mb, "exit_code": r.exit_code,
            "errors": r.errors}


def _pass_record(p):
    return {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "traced": p.traced,
            "jobs": [_job_record(r) for r in p.results]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "resmirror", "cli.py")):
        print("bench: no resmirror source under %s" % SRC, file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running child is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]()
    rng = random.Random("%s:%d" % (args.workload, args.seed))
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    runner = Runner(workdir, time.monotonic() + HARD_LIMIT_S)
    try:
        setup = workload.setup(runner)
        setup_rounds = len(runner.calibrations)
        if args.trace:
            base = measure(workload, runner, rng, args.seconds / 2, traced=False)
            traced = measure(workload, runner, rng, args.seconds / 2, traced=True)
            passes = base + traced
            metrics, problems = per_layer(args.workload, base, traced)
            reported = PER_LAYER + OVERHEAD
        else:
            passes = measure(workload, runner, rng, args.seconds, traced=False)
            calibrations = (runner.calibrations[:setup_rounds],
                            runner.calibrations[setup_rounds:])
            metrics, problems = end_to_end(passes, setup, calibrations), []
            reported = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = [r for p in setup + passes for r in p.results]
    failed = sum(1 for r in jobs if not r.ok)
    if runner.expired():
        problems.append("the run hit its %d s limit" % HARD_LIMIT_S)
    correct = failed == 0 and not problems

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "setup": [_pass_record(p) for p in setup],
        "calibrations_s": runner.calibrations, "setup_calibrations": setup_rounds,
        "pass_count": len(passes),
        "passes": [_pass_record(p) for p in passes],
        "attempted": len(jobs), "failed": failed,
        "fail_ratio": failed / len(jobs), "correct": correct, "problems": problems,
        "metrics": metrics, "per_command_cpu_ms": per_command(passes),
    }
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    out_path = os.path.join(results_dir, "%s-seed%d-trace%d-%d.json" % (
        args.workload, args.seed, args.trace, time.time_ns()))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print("workload %s seed %d: %d passes, %d of %d jobs failed (fail_ratio %.3f)"
          % (args.workload, args.seed, len(passes), failed, len(jobs), record["fail_ratio"]))
    print("environment: nproc %s, Python %s, %s" % (env["nproc"], env["python"], env["platform"]))
    for name, m in metrics.items():
        spread = ("  median %.6g, q1 %.6g, q3 %.6g, n %d" % (m["median"], m["q1"], m["q3"], m["n"])
                  if "n" in m else "")
        print("  %-36s %14.6g %-5s%s" % (name, m["value"], m["unit"], spread))
    for label, m in record["per_command_cpu_ms"].items():
        print("  cpu_ms %-52s median %10.6g, n %d" % (label, m["median"], m["n"]))
    for r in jobs:
        for e in r.errors:
            print("FAILED %s: %s" % (r.job.label or r.job.kind, e))
    for p in problems:
        print("PROBLEM %s" % p)
    print("record: %s" % os.path.relpath(out_path, ROOT))
    print(json.dumps({
        "correct": correct, "attempted": len(jobs), "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit}
                    for name, unit, *_ in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
