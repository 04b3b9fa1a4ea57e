"""Launches the benchmark's child processes, one at a time, and times them.

Each job's wall time runs from the launch of the process until it has been
reaped; its CPU time (user + system) is the child's own, from wait4, and its
peak memory is the VmHWM the child records itself (bench/child.py says
why).  Jobs write
stdout and stderr to files under the run's work directory, so a child never
blocks on a pipe.  Outputs are checked only after a pass has finished, so
checking is not part of the pass's wall time.

Between jobs the runner also times bench/calibrate.py, a fixed piece of
exact arithmetic, in its own process (`calibrate`), whenever the
calibrations have fallen behind a quarter of the jobs' CPU time, so every
stretch of the run is sampled in proportion to its length.  bench/run.py
scales the run's CPU times by them: on a shared host the CPU time of the
same job moved by a factor of 1.7 within seconds, and the calibration
moved with it.
"""

import json
import os
import signal
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

CHILD = os.path.join(HERE, "child.py")
TRACER = os.path.join(HERE, "tracer.py")

# The runner calibrates for this share of its jobs' CPU time.
CALIBRATION_SHARE = 0.25


class JobResult:
    __slots__ = ("job", "wall_s", "cpu_s", "rss_mb", "exit_code", "stdout",
                 "stderr", "stats", "errors")

    def __init__(self, job):
        self.job = job
        self.wall_s = self.cpu_s = self.rss_mb = 0.0
        self.exit_code = None
        self.stdout = self.stderr = ""
        self.stats = None
        self.errors = []

    @property
    def ok(self):
        return not self.errors


class PassResult:
    __slots__ = ("wall_s", "cpu_s", "results", "traced")

    def __init__(self, wall_s, results, traced):
        self.wall_s = wall_s
        self.cpu_s = sum(r.cpu_s for r in results)
        self.results = results
        self.traced = traced


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


class Runner:
    """Runs jobs from one work directory until a hard deadline."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self._serial = 0
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "RESMIRROR_CACHE")}
        env["PYTHONPATH"] = SRC
        self.env = env
        self.calibrations = []
        self._owed = 0.0

    def expired(self):
        return time.monotonic() >= self.deadline

    def calibrate(self, cpu_s):
        """Time bench/calibrate.py in this process as often as it takes to
        catch up with CALIBRATION_SHARE of the jobs' CPU time, `cpu_s` being
        the last job's.  Each round's CPU seconds go to self.calibrations."""
        self._owed += CALIBRATION_SHARE * cpu_s
        while self._owed > 0:
            self.calibrations.append(calibrate.work())
            self._owed -= self.calibrations[-1]

    def _path(self, suffix):
        self._serial += 1
        return os.path.join(self.workdir, "%05d%s" % (self._serial, suffix))

    def new_cache(self):
        """A cache file path that does not exist yet."""
        return self._path(".jsonl")

    def _argv(self, job, hwm, stats):
        args = job.args + (["--cache", job.cache] if job.kind == "cli" else [])
        if stats is not None:
            return [sys.executable, TRACER, stats, hwm, job.kind] + args
        return [sys.executable, CHILD, hwm, job.kind] + args

    def _launch(self, job, traced):
        res = JobResult(job)
        stats = self._path(".stats.json") if traced else None
        hwm = self._path(".hwm")
        out_path, err_path = self._path(".out"), self._path(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, self._argv(job, hwm, stats), self.env,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                               (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            status, usage = self._reap(pid)
            res.wall_s = time.perf_counter() - t0
        res.cpu_s = usage.ru_utime + usage.ru_stime
        res.exit_code = os.waitstatus_to_exitcode(status)
        if os.path.exists(hwm):
            with open(hwm, "r", encoding="ascii") as fh:
                res.rss_mb = int(fh.read()) / 1024.0
        with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
            res.stdout = fh.read()
        with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
            res.stderr = fh.read()
        if stats is not None and os.path.exists(stats):
            with open(stats, "r", encoding="utf-8") as fh:
                res.stats = json.load(fh)
        return res

    def _reap(self, pid):
        """wait4 for pid; kill it once the run's deadline has passed, or when
        the run itself is interrupted, so no child outlives the run."""
        limit = max(0.5, self.deadline - time.monotonic())
        previous = signal.signal(signal.SIGALRM, _alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                _, status, usage = os.wait4(pid, 0)
            except _Timeout:
                os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
                raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return status, usage

    @staticmethod
    def _check(res, traced):
        if res.exit_code != 0:
            tail = res.stderr.strip().splitlines()[-1:] or [""]
            res.errors = ["exit code %d %s" % (res.exit_code, tail[0])]
            return
        try:
            res.errors = list(res.job.check(res.stdout))
        except (ValueError, KeyError, IndexError, TypeError) as e:
            res.errors = ["unreadable output: %s: %s" % (type(e).__name__, e)]
        if traced and res.stats is None:
            res.errors.append("traced job wrote no counters")
        if not res.rss_mb:
            res.errors.append("job wrote no peak memory")

    def run_pass(self, jobs, traced):
        """Run jobs back to back; the pass's wall time is the sum of its jobs'
        wall times, so the calibrations between jobs are left out."""
        results = []
        for job in jobs:
            results.append(self._launch(job, traced))
            self.calibrate(results[-1].cpu_s)
            if self.expired():
                break
        wall = sum(r.wall_s for r in results)
        for res in results:
            self._check(res, traced)
        for job in jobs[len(results):]:
            res = JobResult(job)
            res.errors = ["not run: the run's time limit was reached"]
            results.append(res)
        return PassResult(wall, results, traced)
