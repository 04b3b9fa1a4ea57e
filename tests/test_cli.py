import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from resmirror.cli import main
from resmirror.series import series_from_json


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_vsc_routes_agree(capsys):
    rc, out, _ = run(capsys, "vsc", "--N", "5", "--k", "5", "--d", "2", "--n", "1")
    assert rc == 0 and out == "1435650\n"
    rc, out, _ = run(capsys, "vsc", "--N", "5", "--k", "5", "--d", "2", "--n", "1",
                     "--route", "residue")
    assert rc == 0 and out == "1435650\n"
    rc, out, _ = run(capsys, "vsc", "--N", "5", "--k", "5", "--d", "2", "--n", "1",
                     "--route", "contour")
    assert rc == 0 and out == "1435650\n"


@pytest.mark.parametrize("n", ["-1", "5"])
def test_vsc_routes_agree_out_of_range(capsys, n):
    for route in ("recursive", "residue", "contour"):
        rc, out, _ = run(capsys, "vsc", "--N", "5", "--k", "5", "--d", "1", "--n", n,
                         "--route", route)
        assert rc == 0 and out == "0\n", route


def test_two_point_table_and_json(capsys):
    rc, out, _ = run(capsys, "two-point", "--geometry", "f3",
                     "--d", "0,1", "--a", "w", "--b", "w2")
    assert rc == 0 and out == "3\n"
    rc, out, _ = run(capsys, "two-point", "--geometry", "cpn", "--N", "5", "--k", "5",
                     "--d", "1", "--a", "h0", "--b", "h2")
    assert rc == 0 and out == "3850\n"
    # bare integers are accepted as exponent labels
    rc, out, _ = run(capsys, "two-point", "--geometry", "cpn", "--N", "5", "--k", "5",
                     "--d", "1", "--a", "0", "--b", "2")
    assert rc == 0 and out == "3850\n"
    rc, out, _ = run(capsys, "two-point", "--geometry", "f3",
                     "--d", "0,1", "--a", "w", "--b", "w2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["value"] == "3" and payload["degree"] == [0, 1]
    # kf0 declares its one parameter k, default 1
    for flags, k in [((), 1), (("--k", "7"), 7)]:
        rc, out, _ = run(capsys, "two-point", "--geometry", "kf0", *flags, "--d", "2,1",
                         "--a", "z", "--b", "w", "--format", "json")
        assert rc == 0 and json.loads(out) == {
            "a": "z", "b": "w", "degree": [2, 1], "geometry": "kf0",
            "params": {"k": k}, "value": "-58"}


def test_two_point_off_selection_rule_is_zero_without_chains(capsys, monkeypatch):
    from resmirror import cache, geoms

    def refuse(self, sigma, a, b):
        raise AssertionError("chain evaluated off the selection rule")

    monkeypatch.setattr(cache, "_MEMO", {})
    monkeypatch.setattr(geoms.Geometry, "amplitude", refuse)
    rc, out, err = run(capsys, "two-point", "--geometry", "f3",
                       "--d", "4,3", "--a", "z", "--b", "z")
    assert (rc, out, err) == (0, "0\n", "")


def test_series_json_round_trips(capsys):
    rc, out, _ = run(capsys, "series", "--geometry", "cpn", "--N", "5", "--k", "5",
                     "--a", "z", "--b", "z", "--trunc", "2", "--format", "json")
    assert rc == 0
    s = series_from_json(json.loads(out))
    assert s.coefficient((1, 0)) == 6725
    assert s.coefficient((2, 0)) == Fraction(16482625, 2)
    rc, out, _ = run(capsys, "series", "--geometry", "kf0",
                     "--a", "1", "--b", "z2", "--trunc", "2")
    assert rc == 0 and "x1" in out  # classical-only series still prints


def test_mirror_map_forward_and_inverse(capsys):
    rc, out, _ = run(capsys, "mirror-map", "--geometry", "cpn", "--N", "5", "--k", "5",
                     "--trunc", "2")
    assert rc == 0
    assert out.splitlines()[0] == "t1 = x1 + 770*q + 717825*q^2"
    rc, out, _ = run(capsys, "mirror-map", "--geometry", "wp2", "--trunc", "2",
                     "--invert")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "t1 = x1 + 744*q + 473652*q^2"
    assert any(line.startswith("x1 = t1 - 744*q") for line in lines)


@pytest.mark.parametrize("triple, argv", [
    # a 2x2 block of equal entries, and a 1x1 zero block
    (lambda self, a, b, c: 1, ["--geometry", "f3"]),
    (lambda self, a, b, c: 0, ["--geometry", "cpn", "--N", "5", "--k", "5"]),
], ids=["f3", "cpn"])
def test_mirror_map_singular_pairing_block_fails(capsys, monkeypatch, triple, argv):
    from resmirror import geoms

    monkeypatch.setattr(geoms.Geometry, "classical_triple", triple)
    rc, out, err = run(capsys, "mirror-map", *argv, "--trunc", "2")
    want = "computation failed: degree-one pairing block is singular for %s\n" % argv[1]
    assert (rc, out, err) == (1, "", want)


def test_gw_closed_form_route(capsys):
    rc, out, _ = run(capsys, "gw", "--N", "8", "--k", "9", "--dmax", "1")
    assert rc == 0
    assert "d=1 (1,3): 510463296" in out.splitlines()
    assert "d=1 (2,2): 815556357" in out.splitlines()
    assert "d=1 (0,4): 0" in out.splitlines()


def test_gw_transform_route(capsys):
    rc, out, _ = run(capsys, "gw", "--N", "5", "--k", "5", "--a", "z", "--b", "z",
                     "--dmax", "2")
    assert rc == 0
    assert out.splitlines() == ["d=1 (1,1): 2875", "d=2 (1,1): 4876875/2"]


def test_j_subcommand(capsys):
    rc, out, _ = run(capsys, "j", "--dmax", "2")
    assert rc == 0 and out == "j_1 = 744\nj_2 = 196884\n"
    rc, out, _ = run(capsys, "j", "--dmax", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["w"] == ["744", "473652"]


def test_check_theorem1(capsys):
    rc, out, _ = run(capsys, "check", "theorem1", "--N", "6", "--k", "4", "--d", "2")
    assert rc == 0 and "agree" in out
    rc, out, _ = run(capsys, "check", "theorem1", "--N", "5", "--k", "5", "--d", "2")
    assert rc == 0


def test_check_conjecture2(capsys):
    rc, out, _ = run(capsys, "check", "conjecture2")
    assert rc == 0
    assert "all agree" in out.splitlines()[-1]


def test_validation_failures_exit_2(capsys):
    bad = [
        ("two-point", "--geometry", "cpn", "--N", "5", "--k", "5",
         "--d", "1,1", "--a", "1", "--b", "z"),
        ("two-point", "--geometry", "f3", "--d", "1", "--a", "w", "--b", "w2"),
        ("two-point", "--geometry", "f3", "--N", "5", "--d", "0,1",
         "--a", "w", "--b", "w2"),
        ("two-point", "--geometry", "cpn", "--k", "5", "--d", "1",
         "--a", "1", "--b", "z"),
        ("two-point", "--geometry", "kf0", "--d", "1,0", "--a", "1", "--b", "z9"),
        ("series", "--geometry", "nowhere", "--a", "1", "--b", "z"),
        ("gw", "--N", "8", "--k", "9", "--dmax", "4"),
        ("gw", "--N", "5", "--k", "5"),
        ("check", "theorem1", "--N", "6", "--k", "4"),
        ("series", "--geometry", "cpn", "--N", "5", "--k", "5",
         "--a", "1", "--b", "z", "--config", "/no/such/config.json"),
        ("vsc", "--N", "5", "--k", "5", "--d", "2"),
        ("vsc", "--N", "1", "--k", "5", "--d", "1", "--n", "0", "--route", "contour"),
        ("vsc", "--N", "5", "--k", "5", "--d", "0", "--n", "0", "--route", "contour"),
        ("vsc", "--N", "5", "--k", "0", "--d", "1", "--n", "0", "--route", "contour"),
        ("vsc", "--N", "5", "--k", "0", "--d", "1", "--n", "0", "--route", "residue"),
        ("check", "theorem1", "--N", "1", "--k", "1", "--d", "1"),
        ("check", "theorem1", "--N", "3", "--k", "5", "--d", "1"),
        ("check", "theorem1", "--N", "2", "--k", "2", "--d", "1"),
        ("gw", "--N", "4", "--k", "5", "--a", "z", "--b", "z5"),
        ("gw", "--N", "8", "--k", "9", "--dmax", "0"),
        ("gw", "--N", "5", "--k", "5", "--a", "z", "--b", "z", "--dmax", "0"),
        ("j", "--dmax", "0"),
        ("vsc", "--N", "5", "--k", "5", "--d", "1", "--n", "4", "--route", "residue"),
        ("gw", "--N", "8", "--k", "9", "--a", "z"),
        ("gw", "--N", "8", "--k", "9", "--b", "z"),
        ("check", "conjecture2", "--N", "5"),
        ("check", "conjecture2", "--k", "5"),
        ("check", "conjecture2", "--d", "1"),
        ("gw", "--N", "0", "--k", "3", "--dmax", "1"),
        ("gw", "--N", "-2", "--k", "1", "--dmax", "3"),
        ("gw", "--N", "1", "--k", "3", "--dmax", "1"),
        # the closed-form route with no row left to print
        ("gw", "--N", "3", "--k", "5", "--dmax", "3"),
        ("gw", "--N", "5", "--k", "6", "--a", "z", "--b", "z", "--dmax", "2"),
    ]
    # cpn with N = 2 has basis {1}: no degree-one class for a series route
    no_kahler = [
        ("series", "--geometry", "cpn", "--N", "2", "--k", "1",
         "--a", "1", "--b", "1", "--trunc", "2"),
        ("gw", "--N", "2", "--k", "2", "--a", "1", "--b", "1"),
        ("mirror-map", "--geometry", "cpn", "--N", "2", "--k", "1", "--trunc", "2"),
    ]
    for argv in bad + no_kahler:
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "" and "error:" in err, argv
        if argv in no_kahler:
            assert err.endswith(" has no degree-one class\n"), argv
    rc, out, _ = run(capsys, "two-point", "--geometry", "cpn", "--N", "2", "--k", "1",
                     "--d", "1", "--a", "1", "--b", "1")
    assert (rc, out) == (0, "1\n")
    rc, _, err = run(capsys, "j", "--dmax", "0")
    assert "1..6" in err
    rc, _, err = run(capsys, "vsc", "--N", "5", "--k", "5", "--d", "1", "--n", "4",
                     "--route", "residue")
    assert "1 <= n <= 3" in err
    rc, _, err = run(capsys, "check", "theorem1", "--N", "3", "--k", "5", "--d", "1")
    assert "3 <= n <= 1" in err
    rc, _, err = run(capsys, "gw", "--N", "8", "--k", "9", "--a", "z")
    assert "--a" in err and "--b" in err
    # the geometry parameter errors, word for word
    for argv, msg in [
        (("two-point", "--geometry", "kf0", "--N", "5", "--d", "1,0", "--a", "1", "--b", "z"),
         "--N does not apply to kf0"),
        (("two-point", "--geometry", "f3", "--k", "2", "--d", "1,0", "--a", "1", "--b", "1"),
         "--k does not apply to f3"),
        (("two-point", "--geometry", "cpn", "--k", "5", "--d", "1", "--a", "1", "--b", "z"),
         "cpn needs --N"),
        (("two-point", "--geometry", "cpn", "--N", "5", "--d", "1", "--a", "1", "--b", "z"),
         "cpn needs --k"),
        (("two-point", "--geometry", "cpn", "--d", "1", "--a", "1", "--b", "z"),
         "cpn needs --N, --k"),
        (("series", "--geometry", "nowhere", "--a", "1", "--b", "z"),
         "unknown geometry 'nowhere' (have: cpn, f3, kf0, wp1, wp2, wp3)"),
        (("series", "--geometry", "nowhere", "--N", "3", "--a", "1", "--b", "z"),
         "unknown geometry 'nowhere' (have: cpn, f3, kf0, wp1, wp2, wp3)"),
        (("two-point", "--geometry", "foo", "--N", "3", "--d", "1", "--a", "z", "--b", "z"),
         "unknown geometry 'foo' (have: cpn, f3, kf0, wp1, wp2, wp3)"),
        (("mirror-map", "--geometry", "cpn", "--N", "1", "--k", "5"),
         "need N >= 2 and k >= 1"),
        (("two-point", "--geometry", "f3", "--d", "x", "--a", "z", "--b", "z"),
         "bad degree 'x'"),
    ]:
        assert run(capsys, *argv) == (2, "", "error: %s\n" % msg), argv


@pytest.mark.parametrize("argv,msg", [
    (("two-point", "--geometry", "wp1", "--d", "-1,2", "--a", "z", "--b", "z"),
     "bi-degree must be a pair of non-negative integers"),
    (("two-point", "--geometry", "wp1", "--d=-1,2", "--a", "z", "--b", "z"),
     "bi-degree must be a pair of non-negative integers"),
    (("two-point", "--geometry", "cpn", "--N", "5", "--k", "5", "--d", "-2",
      "--a", "1", "--b", "z2"),
     "degree must be a positive integer, got -2"),
], ids=["signed-list", "signed-list-joined", "negative-cpn"])
def test_negative_degree_reaches_the_degree_check(capsys, argv, msg):
    # "-1,2" is no number to argparse, which would read it as an option
    assert run(capsys, *argv) == (2, "", "error: %s\n" % msg)


def test_vsc_far_below_the_grounding_level(capsys):
    rc, out, err = run(capsys, "vsc", "--N", "2", "--k", "400", "--d", "1", "--n", "0")
    assert (rc, err) == (0, "")
    assert int(out) == math.factorial(400)


def test_cache_stores_and_shares_symmetric_key(tmp_path, capsys):
    path = str(tmp_path / "memo.jsonl")
    rc, out, _ = run(capsys, "two-point", "--geometry", "cpn", "--N", "6", "--k", "6",
                     "--d", "1", "--a", "z", "--b", "h2", "--cache", path)
    assert rc == 0
    first = out
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["schema"] == 1 and rec["value"] == first.strip()
    # swapped insertions hit the same record, no second line appears
    rc, out, _ = run(capsys, "two-point", "--geometry", "cpn", "--N", "6", "--k", "6",
                     "--d", "1", "--a", "h2", "--b", "z", "--cache", path)
    assert rc == 0 and out == first
    with open(path, "r", encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 1


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "memo.jsonl")
    monkeypatch.setenv("RESMIRROR_CACHE", path)
    rc, _, _ = run(capsys, "two-point", "--geometry", "wp1",
                   "--d", "0,1", "--a", "1", "--b", "zw")
    assert rc == 0
    with open(path, "r", encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 1


def test_cache_unreadable_line_warns_and_recomputes(tmp_path, capsys):
    path = str(tmp_path / "memo.jsonl")
    rc, out, _ = run(capsys, "two-point", "--geometry", "f3",
                     "--d", "0,1", "--a", "w", "--b", "w2", "--cache", path)
    assert rc == 0
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{mangled\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, _ = run(capsys, "two-point", "--geometry", "f3",
                         "--d", "0,1", "--a", "w", "--b", "w2", "--cache", path)
    assert rc == 0 and out == "3\n"
    assert any("unreadable" in str(w.message) for w in caught)


def test_cache_conflict_fails_with_exit_1(tmp_path, capsys):
    path = str(tmp_path / "memo.jsonl")
    rc, _, _ = run(capsys, "two-point", "--geometry", "f3",
                   "--d", "0,1", "--a", "w", "--b", "w2", "--cache", path)
    assert rc == 0
    with open(path, "r", encoding="utf-8") as fh:
        rec = json.loads(fh.readline())
    rec["value"] = "17"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")
    rc, _, err = run(capsys, "two-point", "--geometry", "f3",
                     "--d", "0,1", "--a", "w", "--b", "w2", "--cache", path)
    assert rc == 1 and "conflict" in err


def test_config_supplies_truncation_and_cache(tmp_path, capsys):
    cache = tmp_path / "memo.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"truncation": {"cpn": 3, "default": 2},
                               "cache": str(cache)}))
    rc, out, _ = run(capsys, "series", "--geometry", "cpn", "--N", "5", "--k", "5",
                     "--a", "z", "--b", "z", "--config", str(cfg), "--format", "json")
    assert rc == 0
    assert json.loads(out)["trunc"] == 3
    assert cache.exists()
    # explicit --trunc wins over the config default
    rc, out, _ = run(capsys, "series", "--geometry", "cpn", "--N", "5", "--k", "5",
                     "--a", "z", "--b", "z", "--config", str(cfg),
                     "--trunc", "1", "--format", "json")
    assert json.loads(out)["trunc"] == 1


def test_warm_cache_rerun_is_byte_identical(tmp_path):
    path = str(tmp_path / "memo.jsonl")
    argv = [sys.executable, "-m", "resmirror.cli", "series", "--geometry", "cpn",
            "--N", "5", "--k", "5", "--a", "z", "--b", "z", "--trunc", "2",
            "--format", "json", "--cache", path]
    # the child finds the package in src/, installed or not
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cold = subprocess.run(argv, capture_output=True, env=env)
    warm = subprocess.run(argv, capture_output=True, env=env)
    assert cold.returncode == 0 and warm.returncode == 0
    assert cold.stdout == warm.stdout
    with open(path, "rb") as fh:
        stored = fh.read()
    rerun = subprocess.run(argv, capture_output=True, env=env)
    with open(path, "rb") as fh:
        assert fh.read() == stored  # warm run appends nothing
    assert rerun.stdout == cold.stdout


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("cfg", [{"truncation": 3}, {"truncation": {"cpn": [3]}},
                                 {"cache": 5}])
def test_malformed_config_is_a_usage_error(tmp_path, capsys, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc, _, err = run(capsys, "series", "--geometry", "cpn", "--N", "5", "--k", "5",
                     "--a", "z", "--b", "z", "--config", str(path))
    assert rc == 2 and err.startswith("error:")


def test_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[3]")
    rc, out, err = run(capsys, "two-point", "--geometry", "f3", "--d", "3,2",
                       "--a", "z", "--b", "z", "--config", str(path))
    assert (rc, out, err) == (2, "", "error: config %s must hold a JSON object\n" % path)


def test_cache_path_that_is_a_directory_fails_with_exit_1(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc, _, err = run(capsys, "two-point", "--geometry", "f3", "--d", "0,1",
                         "--a", "w", "--b", "w2", "--cache", str(tmp_path))
    assert rc == 1 and err.startswith("computation failed:")


@pytest.mark.parametrize("argv", [
    ("check", "theorem1", "--N", "5", "--k", "5", "--d", "2"),
    ("check", "conjecture2"),
])
def test_checks_go_through_the_cache(tmp_path, capsys, argv):
    path = tmp_path / "memo.jsonl"
    rc, cold, _ = run(capsys, *argv, "--cache", str(path))
    assert rc == 0 and path.stat().st_size > 0
    size = path.stat().st_size
    rc, warm, _ = run(capsys, *argv, "--cache", str(path))
    assert rc == 0 and warm == cold
    assert path.stat().st_size == size


@pytest.mark.parametrize("argv", [
    ["two-point", "--geometry", "cpn", "--N", "5", "--k", "5", "--d", "0_1",
     "--a", "h0", "--b", "h2"],
    ["two-point", "--geometry", "f3", "--d", " 0, +1", "--a", "z", "--b", "w"],
    ["two-point", "--geometry", "cpn", "--N", "٥", "--k", "5", "--d", "1",
     "--a", "h0", "--b", "h2"],
    ["series", "--geometry", "cpn", "--N", "5", "--k", "5", "--a", "h", "--b", "h",
     "--trunc", "0_2"],
    ["gw", "--N", "+5", "--k", "5", "--a", "h", "--b", "h"],
    ["j", "--dmax", " 2"],
    ["vsc", "--N", "5", "--k", "5", "--d", "2", "--n", "1٠"],
], ids=["underscore-degree", "spaced-signed-degree", "arabic-indic-N", "underscore-trunc",
        "plus-N", "spaced-dmax", "arabic-indic-n"])
def test_integer_flags_take_ascii_digits_only(capsys, argv):
    # int() reads all of these; the CLI's one integer grammar reads none
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert "bad degree" in err or "invalid int value" in err


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.txt")


def _golden():
    """(argv, transcript) per command of golden_cli.txt: '$ resmirror ARGS',
    its stdout, then '[exit N]'."""
    with open(GOLDEN, encoding="utf-8") as fh:
        blocks = fh.read().split("$ resmirror ")[1:]
    return [(shlex.split(block.split("\n", 1)[0]), "$ resmirror " + block)
            for block in blocks]


@pytest.mark.parametrize("argv, transcript", _golden(),
                         ids=[" ".join(argv) for argv, _ in _golden()])
def test_golden_transcript(capsys, monkeypatch, argv, transcript):
    # the same list is replayed through the installed console script in CI
    monkeypatch.delenv("RESMIRROR_CACHE", raising=False)
    rc, out, _ = run(capsys, *argv)
    assert "$ resmirror %s\n%s[exit %d]\n" % (shlex.join(argv), out, rc) == transcript
