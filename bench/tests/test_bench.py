"""The benchmark's own tests: its oracles, its failure accounting, and a
smoke run of every workload.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import oracles
import run
import workloads
from runner import HERE, ROOT, Runner

LOCAL_MAP_OUTPUT = """\
t1 = x1 + 2*q1 + 2*q2 + 3*q1^2 + 12*q1*q2 + 3*q2^2 + 20/3*q1^3 + 60*q1^2*q2 + 60*q1*q2^2 + 20/3*q2^3
t2 = x2 + 2*q1 + 2*q2 + 3*q1^2 + 12*q1*q2 + 3*q2^2 + 20/3*q1^3 + 60*q1^2*q2 + 60*q1*q2^2 + 20/3*q2^3
x1 = t1 - 2*q1 - 2*q2 + q1^2 - 4*q1*q2 + q2^2 - 2/3*q1^3 - 6*q1^2*q2 - 6*q1*q2^2 - 2/3*q2^3
x2 = t2 - 2*q1 - 2*q2 + q1^2 - 4*q1*q2 + q2^2 - 2/3*q1^3 - 6*q1^2*q2 - 6*q1*q2^2 - 2/3*q2^3
"""


def test_j_oracle_leading_coefficients():
    assert oracles.j_oracle(2) == [744, 196884]


def test_multiple_cover_formula():
    assert oracles.multiple_cover(2) == Fraction(4876875, 2)
    assert oracles.multiple_cover(5) == 5732647222191200


def test_series_text_round_trip():
    affine, const, terms = oracles.parse_series("4*x2 - 4*q1 + 416*q2 - 40/3*q1^3")
    assert affine == (0, 4) and const == 0
    assert terms == {(1, 0): -4, (0, 1): 416, (3, 0): Fraction(-40, 3)}


def test_local_map_check_needs_the_true_inverse():
    assert workloads.check_local_map(LOCAL_MAP_OUTPUT) == []
    wrong = LOCAL_MAP_OUTPUT.replace("x2 = t2 - 2*q1 - 2*q2 + q1^2 - 4*q1*q2",
                                     "x2 = t2 - 2*q1 - 2*q2 + q1^2 - 5*q1*q2")
    assert any("x(t(x))" in e for e in workloads.check_local_map(wrong))


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_wrong_reference_and_nonzero_exit_count_as_failed(monkeypatch, capsys):
    # a published value altered on purpose, and a request the CLI refuses
    monkeypatch.setitem(oracles.NON_NEF_GW, (1, (1, 3)), Fraction(1))
    commands = (("gw --N 8 --k 9 --dmax 3", workloads.check_non_nef_gw, False),
                ("gw --N 5 --k 5 --dmax 3", workloads.check_quintic_gw, False))
    monkeypatch.setitem(workloads.WORKLOADS, "one_form_cold",
                        lambda: workloads.ColdCli(commands))
    assert run.main(["--workload", "one_form_cold", "--seed", "0",
                     "--seconds", "0.1", "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = _last_json(out)
    assert result["correct"] is False
    assert result["failed"] == 2
    assert result["attempted"] == workloads.IMPORT_PROBES + 2
    assert "exit code 2" in out
    assert "d=1 (1,3): got 510463296, want 1" in out


def test_peak_memory_is_the_childs_own(tmp_path):
    # wait4's max-RSS of a posix_spawn child starts at the launcher's own
    # high-water RSS; a 64 MB launcher must not show in the child's figure
    ballast = bytearray(64 << 20)
    for i in range(0, len(ballast), 4096):
        ballast[i] = 1
    runner = Runner(str(tmp_path), time.monotonic() + 60)
    (res,) = runner.run_pass([workloads.Job("probe", [], lambda out: [])], False).results
    assert res.ok, res.errors
    assert 0 < res.rss_mb < 48


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in run.PER_LAYER] + list(run.OVERHEAD)


@pytest.mark.parametrize("workload,trace", [
    ("one_form_cold", 0), ("two_form_cold", 0), ("deep_series", 0),
    ("warm_cli", 0), ("deep_series", 1)])
def test_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert "cpu_ms " in proc.stdout
    names = run.PER_LAYER + run.OVERHEAD if trace else run.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in names]


def test_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "warm_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_rebinds_every_import():
    probe = """
import tracer
tracer.Tracer().install()
from resmirror import cache, cli, geoms, polys, residues, series, vsc
pairs = [(geoms.residue_at, residues.residue_at),
         (vsc.two_point_cpn, geoms.two_point_cpn),
         (series.cached_two_point, cache.cached_two_point),
         (cli.cached_two_point, cache.cached_two_point),
         (polys.MultiPoly.__rmul__, polys.MultiPoly.__mul__),
         (polys.RatFunc.__radd__, polys.RatFunc.__add__)]
for bound, home in pairs:
    assert bound is home and hasattr(bound, "__wrapped__"), bound
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
