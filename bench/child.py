"""Runs one untraced benchmark job in this interpreter and records its peak
memory.

    PYTHONPATH=src python3 bench/child.py HWM_FILE cli ARG...
    PYTHONPATH=src python3 bench/child.py HWM_FILE deep
    PYTHONPATH=src python3 bench/child.py HWM_FILE probe

`cli` runs what `python -m resmirror.cli ARG...` runs, `deep` runs
bench/deep_job.py and `probe` imports resmirror.  On the way out the
process writes its VmHWM to HWM_FILE: the high-water resident set of its
own address space, in kB.  The benchmark reads peak memory this way and not
from wait4, because a child started by posix_spawn inherits the launching
process's high-water RSS as the floor of wait4's ru_maxrss, while VmHWM
starts afresh at exec.  It needs Linux's /proc.
"""

import sys


def vm_hwm_kb():
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def write_hwm(path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%d\n" % vm_hwm_kb())


def run(kind, args):
    if kind == "cli":
        import runpy
        sys.argv = [sys.argv[0]] + args
        runpy.run_module("resmirror.cli", run_name="__main__", alter_sys=True)
        return 0
    if kind == "deep":
        import deep_job
        return deep_job.main()
    if kind == "probe":
        import resmirror  # noqa: F401
        return 0
    raise SystemExit("unknown job kind %r" % kind)


def main(argv):
    hwm_path, kind, args = argv[0], argv[1], argv[2:]
    try:
        return run(kind, args)
    finally:
        write_hwm(hwm_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
