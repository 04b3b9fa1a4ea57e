"""Import footprint: each command loads only the modules its route runs.

Every case runs in a fresh interpreter, because this process has imported
the whole package already.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LOADED = "sorted(m for m in sys.modules if m.startswith('resmirror.'))"

# the chain engine, the arithmetic under it and the chain enumeration
ENGINE = ("resmirror.polys", "resmirror.residues", "resmirror.chains",
          "resmirror.parts")


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


@pytest.mark.parametrize("argv", [
    ("two-point", "--geometry", "f3", "--d", "3,2", "--a", "z", "--b", "z"),
    ("series", "--geometry", "wp1", "--a", "z", "--b", "w", "--trunc", "2"),
    ("mirror-map", "--geometry", "kf0", "--trunc", "2", "--invert"),
    ("j", "--dmax", "3"),
], ids=lambda argv: argv[0])
def test_cache_hit_loads_no_engine(tmp_path, argv):
    argv += ("--cache", str(tmp_path / "memo.jsonl"))
    cold = _loaded_after_main(*argv)
    for module in ("resmirror.chains", "resmirror.parts"):
        assert repr(module) in cold, cold
    warm = _loaded_after_main(*argv)
    for module in ENGINE:
        assert repr(module) not in warm, warm


def test_deep_series_route_loads_no_engine():
    # the route of the deep-series benchmark job, at a lower truncation
    code = """
import sys
from resmirror.geoms import geometry
from resmirror.series import (GradedSeries, MirrorMap, invert_mirror_map,
                              picard_fuchs_basis, reversion_weights, transform)
D = 4
ratio = picard_fuchs_basis(5, 1, D).div_unit(picard_fuchs_basis(5, 0, D))
forward = (GradedSeries((1, 0), 0, ratio.terms, D), GradedSeries((0, 1), 0, None, D))
m = invert_mirror_map(MirrorMap(geometry("cpn", N=5, k=5), D, forward))
for i in (0, 1):
    back = transform(m.forward[i], m)
    assert back.affine == forward[i].affine and not back.terms, back
assert reversion_weights([744, 196884, 21493760])[0] == 744
print(%s)
""" % LOADED
    loaded = _python(code)
    for module in ENGINE:
        assert repr(module) not in loaded, loaded


MODULES = sorted(os.path.basename(p)[:-3]
                 for p in glob.glob(os.path.join(ROOT, "src", "resmirror", "*.py")))


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first(module):
    name = "resmirror" if module == "__init__" else "resmirror." + module
    _python("import importlib\nimportlib.import_module(%r)" % name)


def test_closed_form_gw_skips_series():
    loaded = _loaded_after_main("gw", "--N", "8", "--k", "9", "--dmax", "3")
    assert "'resmirror.vsc'" in loaded
    # nor the chain engine: vsc imports residue_at only where it takes one
    for module in ("resmirror.series", "resmirror.residues", "resmirror.chains"):
        assert repr(module) not in loaded, loaded


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


def test_refused_degree_raises_the_exported_class():
    # geoms imports parts only when it refuses a degree; the class stays one
    import resmirror
    from resmirror import parts
    from resmirror.geoms import geometry

    for g, dd in ((geometry("cpn", N=5, k=5), 0), (geometry("f3"), (0, 0)),
                  (geometry("wp1"), 2)):
        with pytest.raises(ValueError) as info:
            g.check_degree(dd)
        assert type(info.value) is parts.InvalidDegree is resmirror.InvalidDegree


def test_names_the_benchmark_tracer_rebinds(monkeypatch):
    """The benchmark's tracer wraps these objects where they are bound; each
    must stay reachable under the name it looks for."""
    import resmirror
    from resmirror import cache, cli, geoms, residues, series

    for name in ("residue_at", "residue_sum"):
        assert getattr(geoms, name) is getattr(residues, name)

    def rebound(r, var, loc=0):
        raise AssertionError("not called")

    monkeypatch.setattr(residues, "residue_at", rebound)
    assert geoms.residue_at is rebound
    monkeypatch.undo()
    assert geoms.residue_at is residues.residue_at
    with pytest.raises(AttributeError):
        geoms.no_such_name

    assert "amplitude" in geoms.Geometry.__dict__
    assert "two_point" in geoms.Geometry.__dict__
    classes = [c for c in vars(geoms).values()
               if isinstance(c, type) and issubclass(c, geoms.Geometry)]
    for cls in geoms.GEOMETRIES.values():
        owner = next(c for c in cls.__mro__ if "classical_triple" in c.__dict__)
        assert owner in classes, cls
        assert cls.classical_triple is owner.__dict__["classical_triple"]

    for name in ("frac_to_str", "frac_from_str"):
        assert getattr(resmirror, name) is getattr(cache, name)
    assert cli.frac_to_str is series.frac_to_str is cache.frac_to_str
    assert series.frac_from_str is cache.frac_from_str
