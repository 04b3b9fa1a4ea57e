"""Exact two-point intersection numbers via iterated residues, and the
mirror maps / Gromov-Witten invariants / j-function coefficients they
generate.  Everything is computed in exact rational arithmetic.

Importing the package loads no submodule: each exported name is imported
from the module that owns it on first access (PEP 562), so a command
compiles only the modules its route runs.
"""

import importlib

_EXPORTS = {
    "polys": ("Fraction", "IdenticallySingular", "MultiPoly", "RatFunc", "VarSet"),
    "residues": ("DuplicatePole", "residue_at", "residue_sum"),
    "parts": ("InvalidDegree", "ordered_bipartitions", "ordered_partitions"),
    "geoms": ("Insertion", "InvalidInsertion", "geometry", "parse_insertion",
              "two_point_cpn", "two_point_f3", "two_point_kf0", "two_point_wp1",
              "two_point_wp2", "two_point_wp3"),
    "vsc": ("InvalidComb", "check_theorem1", "decomposition_coefficient",
            "gmt_upto3", "poly_d", "vsc_merged_contour", "vsc_recursive",
            "vsc_residue"),
    "cache": ("CacheCorruption", "CacheStore", "activate", "cached_two_point",
              "frac_from_str", "frac_to_str", "two_point_key"),
    "series": ("GradedSeries", "InvalidExp", "JExpansion", "MirrorMap",
               "SingularMetric", "build_generating_function", "invert_mirror_map",
               "j_coefficients", "mirror_map", "picard_fuchs_basis",
               "reversion_weights", "series_from_json", "series_to_json",
               "transform"),
    "refdata": ("ConnectionReport", "check_conjecture2"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
