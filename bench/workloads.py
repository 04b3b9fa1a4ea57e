"""The benchmark's workloads: which jobs make one pass, and how each job's
output is checked against bench/oracles.py.

A pass is one closed-loop run through a workload's jobs with a single
client: each job is a fresh process, started only after the previous one
has exited.  The seed fixes the order of the jobs and nothing else, so
every seed does the same work; a deep_series pass is a single job, so there
the seed has no effect.
"""

import json
import re
from fractions import Fraction

import oracles

# -- output checks: each takes the job's stdout, returns a list of errors ---


def _expect(errors, what, got, want):
    if got != want:
        errors.append("%s: got %s, want %s" % (what, got, want))


def check_quintic_gw(out):
    errors = []
    rows = re.findall(r"^d=(\d+) \(1,1\): (\S+)$", out, re.M)
    _expect(errors, "degrees", [int(d) for d, _ in rows], list(range(1, GW_DMAX + 1)))
    for d, val in rows:
        _expect(errors, "d=%s" % d, Fraction(val), oracles.multiple_cover(int(d)))
    return errors


def check_j(out):
    errors = []
    rows = re.findall(r"^j_(\d+) = (\S+)$", out, re.M)
    want = oracles.j_oracle(J_DMAX)
    _expect(errors, "coefficients", len(rows), len(want))
    for (d, val), ref in zip(rows, want):
        _expect(errors, "j_%s" % d, Fraction(val), ref)
    return errors


def check_theorem1(out):
    lines = out.splitlines()
    errors = []
    _expect(errors, "verdict", lines[-1] if lines else "",
            "theorem1 N=8 k=9 d=3: agree")
    if len(lines) < 2 or not all(line.endswith(" ok") for line in lines[:-1]):
        errors.append("a row is missing or does not read ok")
    return errors


def check_non_nef_gw(out):
    errors = []
    rows = re.findall(r"^d=(\d+) \((\d+),(\d+)\): (\S+)$", out, re.M)
    seen = set()
    for d, a, b, val in rows:
        d, a, b = int(d), int(a), int(b)
        want = Fraction(0) if 0 in (a, b) else oracles.NON_NEF_GW.get((d, tuple(sorted((a, b)))))
        if want is None:
            errors.append("unexpected row d=%d (%d,%d)" % (d, a, b))
            continue
        _expect(errors, "d=%d (%d,%d)" % (d, a, b), Fraction(val), want)
        seen.add((d, tuple(sorted((a, b)))))
    for key in oracles.NON_NEF_GW:
        if key not in seen:
            errors.append("missing row %r" % (key,))
    return errors


def check_local_map(out):
    errors = []
    lines = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    _expect(errors, "components", sorted(lines), ["t1", "t2", "x1", "x2"])
    if errors:
        return errors
    forward, inverse = [], []
    for i, (t, x) in enumerate((("t1", "x1"), ("t2", "x2"))):
        affine, const, terms = oracles.parse_series(lines[t])
        unit = tuple(Fraction(int(j == i)) for j in range(2))
        _expect(errors, t + " affine", affine, unit)
        _expect(errors, t + " terms", terms, oracles.LOCAL_MAP)
        _expect(errors, t + " constant", const, 0)
        forward.append(terms)
        affine, const, terms = oracles.parse_series(lines[x], names=("t1", "t2"))
        _expect(errors, x + " affine", affine, unit)
        _expect(errors, x + " constant", const, 0)
        inverse.append(terms)
    residual = oracles.inverse_residual(forward, inverse, 3)
    _expect(errors, "x(t(x)) - x", residual, [{}, {}])
    return errors


def check_series(reference):
    def check(out):
        errors = []
        affine, const, terms = oracles.parse_series(out)
        _expect(errors, "affine", affine, reference[0])
        _expect(errors, "constant", const, 0)
        _expect(errors, "terms", terms, reference[1])
        return errors
    return check


def check_value(reference):
    def check(out):
        errors = []
        _expect(errors, "value", Fraction(out.strip()), reference)
        return errors
    return check


def check_deep(out):
    errors = []
    data = json.loads(out)
    for d, want in oracles.QUINTIC_MAP.items():
        _expect(errors, "map q^%d" % d, Fraction(data["map"][str(d)]), want)
    for i, res in sorted(data["round_trip"].items()):
        unit = [str(int(j == int(i))) for j in range(2)]
        _expect(errors, "round trip %s" % i, (res["affine"], res["const"], res["terms"]),
                (unit, "0", {}))
    _expect(errors, "components", sorted(data["round_trip"]), ["0", "1"])
    _expect(errors, "weights", [Fraction(w) for w in data["weights"]],
            list(oracles.K3_WEIGHTS))
    return errors


# -- workloads ---------------------------------------------------------------

# The one-form commands stop at degree 4: `gw 5 5` takes about 0.9 s and
# `j` about 1 s there, against 4.7 s and 7.5 s at degree 5, so a run holds
# several passes and each command's figure is a median, not one job.
GW_DMAX = 4
J_DMAX = 4


class Job:
    """One child process: a CLI command (kind "cli") or a deep job."""

    __slots__ = ("label", "kind", "args", "check", "cache")

    def __init__(self, kind, args, check, cache=None):
        self.label = " ".join(args)
        self.kind = kind
        self.args = list(args)
        self.check = check
        self.cache = cache


# (command, output check, whether the command consults the cache)
ONE_FORM = (
    ("gw --N 5 --k 5 --a z --b z --dmax %d" % GW_DMAX, check_quintic_gw, True),
    ("j --dmax %d" % J_DMAX, check_j, True),
    ("check theorem1 --N 8 --k 9 --d 3", check_theorem1, False),
    ("gw --N 8 --k 9 --dmax 3", check_non_nef_gw, False),
)

TWO_FORM = (
    ("mirror-map --geometry kf0 --trunc 3 --invert", check_local_map, True),
    ("series --geometry wp1 --a z --b w --trunc 3", check_series(oracles.FIBERED_ZW), True),
    ("series --geometry wp3 --a 1 --b w2 --trunc 3", check_series(oracles.ORBIFOLD_1W2), True),
    ("two-point --geometry f3 --d 3,2 --a z --b z", check_value(oracles.F3_ZZ_32), True),
)

# `check theorem1` and the closed-form `gw --N 8 --k 9` never consult the
# cache, so a warm replay of them would measure a cold command.
CACHEABLE = tuple(c for c in ONE_FORM + TWO_FORM if c[2])

IMPORT_PROBES = 11


def import_probe(runner):
    """Set-up of the workloads without a cache to fill: fresh interpreters
    importing resmirror, one pass each."""
    return [runner.run_pass([Job("probe", [], lambda out: [])], False)
            for _ in range(IMPORT_PROBES)]


class ColdCli:
    """Each pass runs every command once, each against its own new cache file."""

    def __init__(self, commands):
        self.commands = commands

    def setup(self, runner):
        return import_probe(runner)

    def pass_jobs(self, runner, rng):
        order = list(self.commands)
        rng.shuffle(order)
        return [Job("cli", cmd.split(), check, runner.new_cache())
                for cmd, check, _ in order]


class DeepSeries:
    """Each pass is one fresh interpreter running bench/deep_job.py."""

    def setup(self, runner):
        return import_probe(runner)

    def pass_jobs(self, runner, rng):
        return [Job("deep", [], check_deep)]


class WarmCli:
    """Set-up fills one cache with a cold pass of the cacheable commands; each
    pass replays them in a seeded order, and every output must be
    byte-identical to the cold one."""

    def __init__(self, commands):
        self.commands = commands
        self.cache = None
        self.cold = {}

    def setup(self, runner):
        self.cache = runner.new_cache()
        jobs = [Job("cli", cmd.split(), check, self.cache) for cmd, check, _ in self.commands]
        fill = runner.run_pass(jobs, traced=False)
        for job, res in zip(jobs, fill.results):
            self.cold[job.label] = res.stdout
        return [fill]

    def _same_as_cold(self, label):
        def check(out):
            return [] if out == self.cold[label] else ["stdout differs from the cold pass"]
        return check

    def pass_jobs(self, runner, rng):
        order = [cmd for cmd, _, _ in self.commands]
        rng.shuffle(order)
        return [Job("cli", cmd.split(), self._same_as_cold(cmd), self.cache)
                for cmd in order]


# name -> factory; a workload object holds the state of one benchmark run
WORKLOADS = {
    "one_form_cold": lambda: ColdCli(ONE_FORM),
    "two_form_cold": lambda: ColdCli(TWO_FORM),
    "deep_series": DeepSeries,
    "warm_cli": lambda: WarmCli(CACHEABLE),
}
