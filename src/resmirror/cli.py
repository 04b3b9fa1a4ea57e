"""Command-line front end.

One subcommand per operation family; every value printed is an exact
rational.  Exit status: 0 on success, 2 when the request itself is
invalid, 1 when a computation or cache consistency step fails.  Each
handler imports the modules of its own route, so a command loads (and,
without cached bytecode, compiles) only the code it runs, and a cache hit
loads no chain engine (chains, polys, residues).
"""

import argparse
import json
import os
import re
import sys

from . import cache as cache_mod
from .cache import CacheCorruption, cached_two_point, frac_to_str
from .geoms import declared_params, geometry, parse_insertion


class UsageError(ValueError):
    """A request that fails validation before any computation starts."""


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as e:
        raise UsageError("config %s unreadable: %s" % (path, e))
    if not isinstance(cfg, dict):
        raise UsageError("config %s must hold a JSON object" % path)
    table = cfg.get("truncation", {})
    if not (isinstance(table, dict) and all(type(v) is int for v in table.values())):
        raise UsageError("config %s: \"truncation\" must map geometry names to "
                         "integers" % path)
    cache = cfg.get("cache")
    if cache is not None and not isinstance(cache, str):
        raise UsageError("config %s: \"cache\" must be a path" % path)
    return cfg


def _default_trunc(cfg, name):
    table = cfg.get("truncation", {})
    return table.get(name, table.get("default", 2))


def _build_geometry(args):
    name = args.geometry
    declared = declared_params(name)
    params = {}
    for p in ("N", "k"):
        val = getattr(args, p)
        if val is None:
            continue
        if p not in declared:
            raise UsageError("--%s does not apply to %s" % (p, name))
        params[p] = val
    missing = [p for p, default in declared.items() if default is None and p not in params]
    if missing:
        raise UsageError("%s needs %s" % (name, ", ".join("--" + p for p in missing)))
    try:
        return geometry(name, **params)
    except ValueError as e:
        raise UsageError(str(e))


def _integer(text):
    """Every integer flag's one grammar: ASCII digits after an optional minus."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    return int(text)


def _parse_degree(g, text):
    try:
        parts = tuple(map(_integer, text.split(",")))
    except argparse.ArgumentTypeError:
        raise UsageError("bad degree %r" % text)
    if (len(parts) > 1) != (g.n_forms > 1):
        raise UsageError(("%s takes a bi-degree, e.g. --d 1,2" if g.n_forms > 1 else
                          "%s takes a single degree, e.g. --d 2") % g.name)
    return g.check_degree(parts)


def _emit(args, table_lines, payload):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _cmd_vsc(args, cfg):
    from .vsc import vsc_merged_contour, vsc_recursive, vsc_residue

    route = {"recursive": vsc_recursive, "residue": vsc_residue,
             "contour": vsc_merged_contour}[args.route]
    val = route(args.N, args.k, args.d, args.n)
    _emit(args, [frac_to_str(val)],
          {"N": args.N, "k": args.k, "d": args.d, "n": args.n,
           "route": args.route, "value": frac_to_str(val)})
    return 0


def _cmd_two_point(args, cfg):
    g = _build_geometry(args)
    dd = _parse_degree(g, args.d)
    a, b = g.check_insertion(args.a), g.check_insertion(args.b)
    val = cached_two_point(g, dd, a, b)
    _emit(args, [frac_to_str(val)],
          {"geometry": g.name, "params": dict(g.params()),
           "degree": list(dd),
           "a": a.label(), "b": b.label(), "value": frac_to_str(val)})
    return 0


def _cmd_series(args, cfg):
    from .series import build_generating_function, series_to_json

    g = _build_geometry(args)
    D = args.trunc if args.trunc is not None else _default_trunc(cfg, g.name)
    s = build_generating_function(g, args.a, args.b, D)
    payload = series_to_json(s)
    payload.update({"geometry": g.name, "params": dict(g.params()),
                    "a": parse_insertion(g, args.a).label(),
                    "b": parse_insertion(g, args.b).label()})
    _emit(args, [s.pretty()], payload)
    return 0


def _cmd_mirror_map(args, cfg):
    from .series import invert_mirror_map, mirror_map, series_to_json

    g = _build_geometry(args)
    D = args.trunc if args.trunc is not None else _default_trunc(cfg, g.name)
    m = mirror_map(g, D)
    if args.invert:
        m = invert_mirror_map(m)
    lines = ["t%d = %s" % (i + 1, t.pretty()) for i, t in enumerate(m.forward)]
    if m.inverse:
        lines += ["x%d = %s" % (i + 1, x.pretty(["t%d" % (j + 1) for j in range(len(x.affine))]))
                  for i, x in enumerate(m.inverse)]
    _emit(args, lines,
          {"geometry": g.name, "params": dict(g.params()), "trunc": D,
           "t": [series_to_json(t) for t in m.forward],
           "x": [series_to_json(x) for x in m.inverse] if m.inverse else None})
    return 0


def _cmd_gw(args, cfg):
    dmax = args.dmax if args.dmax is not None else 3
    if dmax < 1:
        raise UsageError("--dmax must be at least 1")
    g = geometry("cpn", N=args.N, k=args.k)
    if args.N < args.k:
        if dmax > 3:
            raise UsageError("the closed-form transform stops at degree 3")
        if (args.a is None) != (args.b is None):
            raise UsageError("the closed-form route takes both --a and --b, "
                             "or neither")
        from .vsc import gmt_upto3

        table = gmt_upto3(args.N, args.k)
        rows = [(d, a, b, v) for (d, (a, b)), v in table.items() if d <= dmax]
        if args.a is not None:
            sel = {g.check_insertion(args.a).exps[0], g.check_insertion(args.b).exps[0]}
            rows = [r for r in rows if {r[1], r[2]} == sel]
        if not rows:
            pair = "" if args.a is None else " for --a %s --b %s" % (args.a, args.b)
            raise UsageError("gw N=%d k=%d has no invariant up to degree %d%s"
                             % (args.N, args.k, dmax, pair))
    else:
        if args.a is None or args.b is None:
            raise UsageError("the transform route needs --a and --b")
        from .series import build_generating_function, mirror_map, transform

        a, b = parse_insertion(g, args.a), parse_insertion(g, args.b)
        out = transform(build_generating_function(g, a, b, dmax),
                        mirror_map(g, dmax))
        rows = [(d, a.exps[0], b.exps[0], out.coefficient((d, 0)))
                for d in range(1, dmax + 1)]
    rows.sort()
    lines = ["d=%d (%d,%d): %s" % (d, a, b, frac_to_str(v)) for d, a, b, v in rows]
    _emit(args, lines,
          {"N": args.N, "k": args.k,
           "rows": [{"d": d, "a": a, "b": b, "value": frac_to_str(v)}
                    for d, a, b, v in rows]})
    return 0


def _cmd_j(args, cfg):
    from .series import j_coefficients

    je = j_coefficients(args.dmax)
    lines = ["j_%d = %s" % (d, frac_to_str(v)) for d, v in enumerate(je.j, 1)]
    _emit(args, lines,
          {"dmax": je.dmax, "j": [frac_to_str(v) for v in je.j],
           "w": [frac_to_str(v) for v in je.w]})
    return 0


def _cmd_check(args, cfg):
    if args.what == "theorem1":
        for p in ("N", "k", "d"):
            if getattr(args, p) is None:
                raise UsageError("check theorem1 needs --N, --k and --d")
        from .vsc import check_theorem1

        report = check_theorem1(args.N, args.k, args.d)
    else:
        for p in ("N", "k", "d"):
            if getattr(args, p) is not None:
                raise UsageError("--%s does not apply to check conjecture2" % p)
        from .refdata import check_conjecture2

        report = check_conjecture2()
    _emit(args, report.lines(), {"ok": report.ok, "lines": report.lines()})
    return 0 if report.ok else 1


def _parser():
    top = argparse.ArgumentParser(prog="resmirror",
                                  description="exact residue mirror calculator")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table")
    common.add_argument("--cache", help="JSON-lines memo file (or RESMIRROR_CACHE)")
    common.add_argument("--config", help="JSON config with default truncations")
    geom = argparse.ArgumentParser(add_help=False)
    geom.add_argument("--geometry", required=True)
    geom.add_argument("--N", type=_integer)
    geom.add_argument("--k", type=_integer)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vsc", parents=[common],
                       help="virtual structure constants of the projective family")
    p.add_argument("--N", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--d", type=_integer, required=True)
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--route", choices=("recursive", "residue", "contour"),
                   default="recursive")
    p.set_defaults(func=_cmd_vsc)

    p = sub.add_parser("two-point", parents=[common, geom], help="one two-point number")
    p.add_argument("--d", required=True, help="degree d or bi-degree da,db")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_two_point)

    p = sub.add_parser("series", parents=[common, geom],
                       help="generating function of two-point numbers")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--trunc", type=_integer)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("mirror-map", parents=[common, geom],
                       help="flat coordinates from the pairing contraction")
    p.add_argument("--trunc", type=_integer)
    p.add_argument("--invert", action="store_true")
    p.set_defaults(func=_cmd_mirror_map)

    p = sub.add_parser("gw", parents=[common],
                       help="invariants of the projective family")
    p.add_argument("--N", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--dmax", type=_integer)
    p.set_defaults(func=_cmd_gw)

    p = sub.add_parser("j", parents=[common], help="modular expansion coefficients")
    p.add_argument("--dmax", type=_integer, default=6)
    p.set_defaults(func=_cmd_j)

    p = sub.add_parser("check", parents=[common], help="self-consistency reports")
    p.add_argument("what", choices=("theorem1", "conjecture2"))
    p.add_argument("--N", type=_integer)
    p.add_argument("--k", type=_integer)
    p.add_argument("--d", type=_integer)
    p.set_defaults(func=_cmd_check)
    return top


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        # argparse takes a signed degree list ("--d -1,2") for an option
        if argv[i - 1] == "--d" and re.fullmatch(r"-\d+(,-?\d+)*", argv[i]):
            argv[i - 1:i + 1] = ["--d=" + argv[i]]
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = _load_config(args.config)
        cache_path = args.cache or os.environ.get("RESMIRROR_CACHE") or cfg.get("cache")
        cache_mod.activate(cache_path)
        try:
            return args.func(args, cfg)
        finally:
            cache_mod.activate(None)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (ArithmeticError, CacheCorruption, RuntimeError, OSError) as e:
        print("computation failed: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
