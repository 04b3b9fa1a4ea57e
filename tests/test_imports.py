"""Import footprint: each command loads only the modules its route runs.

Every case runs in a fresh interpreter, because this process has imported
the whole package already.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LOADED = "sorted(m for m in sys.modules if m.startswith('resmirror.'))"


def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after_main(*argv):
    code = ("import sys\nfrom resmirror.cli import main\nrc = main(sys.argv[1:])\n"
            "print(%s)\nsys.exit(rc)" % LOADED)
    return _python(code, *argv).splitlines()[-1]


def test_import_package_loads_no_submodule():
    assert _python("import sys, resmirror\nprint(%s)" % LOADED) == "[]\n"


def test_warm_two_point_skips_series_vsc_and_refdata(tmp_path):
    argv = ("two-point", "--geometry", "f3", "--d", "3,2", "--a", "z", "--b", "z",
            "--cache", str(tmp_path / "memo.jsonl"))
    _loaded_after_main(*argv)
    loaded = _loaded_after_main(*argv)
    for module in ("resmirror.series", "resmirror.vsc", "resmirror.refdata"):
        assert repr(module) not in loaded, loaded


def test_closed_form_gw_skips_series():
    loaded = _loaded_after_main("gw", "--N", "8", "--k", "9", "--dmax", "3")
    assert "'resmirror.vsc'" in loaded
    assert "'resmirror.series'" not in loaded, loaded


def test_exports_are_the_defining_modules_objects():
    code = """
import importlib, resmirror
names = dir(resmirror)
for name in resmirror.__all__:
    assert name in names, name
    owner = importlib.import_module("resmirror." + resmirror._OWNER[name])
    value = getattr(resmirror, name)
    assert value is getattr(owner, name), name
    home = getattr(value, "__module__", "")
    assert home == owner.__name__ or not home.startswith("resmirror"), name
print(len(resmirror.__all__))
"""
    assert int(_python(code)) > 0


def test_star_import_and_unknown_name():
    code = """
import resmirror
from resmirror import *
assert two_point_cpn is resmirror.two_point_cpn and gmt_upto3 is resmirror.gmt_upto3
try:
    resmirror.no_such_name
except AttributeError as e:
    print(e)
"""
    assert "no_such_name" in _python(code)
