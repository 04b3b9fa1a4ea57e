"""Smoke test for the narrative walkthroughs in demos/.

Each script runs in its own interpreter, must exit 0 and must print one
line that pins its headline result.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMOS = [
    ("j_function.py", "j_1 = 744"),
    ("quintic_pipeline.py", "d=2: 16482625/2"),
    ("local_surface.py", "quantum parts agree"),
    ("structure_constants.py", "n=2: 3296525"),
]


@pytest.mark.parametrize("script,line", DEMOS)
def test_demo_runs(script, line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", script)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout
