"""On-disk memo cache for two-point numbers.

One JSON-lines file: each line is a self-contained record carrying a
schema version, the geometry key, the degree, the insertion exponents and
the exact value as a rational string.  Records are append-only; a record
whose key is already present must carry the identical value, anything
else is corruption.  An unreadable or partially damaged file degrades to
recomputation (with a warning), never to wrong answers.
"""

import json
import os
import threading
import warnings
from fractions import Fraction

from .polys import frac_from_str, frac_to_str

SCHEMA = 1


class CacheCorruption(RuntimeError):
    """Two records with the same key but different exact values."""


def two_point_key(g, dd, a, b):
    """Canonical lookup key; insertions are sorted so symmetry shares hits."""
    params = tuple(sorted((str(name), int(val)) for name, val in g.params()))
    degree = (dd,) if isinstance(dd, int) else tuple(int(x) for x in dd)
    ins = tuple(sorted((tuple(a.exps), tuple(b.exps))))
    return (SCHEMA, "two-point", g.name, params, degree, ins)


def _record_of(key, value, provenance):
    schema, kind, name, params, degree, ins = key
    return {
        "schema": schema,
        "kind": kind,
        "geometry": name,
        "params": {k: v for k, v in params},
        "degree": list(degree),
        "insertions": [list(e) for e in ins],
        "value": frac_to_str(value),
        "provenance": provenance,
    }


def _key_of(rec):
    return (
        int(rec["schema"]),
        str(rec["kind"]),
        str(rec["geometry"]),
        tuple(sorted((str(k), int(v)) for k, v in rec.get("params", {}).items())),
        tuple(int(x) for x in rec["degree"]),
        tuple(tuple(int(e) for e in ins) for ins in rec["insertions"]),
    )


class CacheStore:
    """Append-only JSON-lines store with an in-memory index."""

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()
        self._records = {}
        self._load()

    def _load(self):
        if not os.path.exists(self.path):
            return
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as e:
            warnings.warn("cache %s unreadable (%s); recomputing" % (self.path, e))
            return
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                key = _key_of(rec)
                value = frac_from_str(rec["value"])
            except (ValueError, KeyError, TypeError) as e:
                warnings.warn("cache %s line %d unreadable (%s); skipping"
                              % (self.path, lineno, e))
                continue
            old = self._records.get(key)
            if old is not None and old != value:
                raise CacheCorruption(
                    "cache %s line %d: %s conflicts with an earlier record"
                    % (self.path, lineno, rec["value"]))
            self._records[key] = value

    def __len__(self):
        return len(self._records)

    def lookup(self, key):
        return self._records.get(key)

    def store(self, key, value, provenance="residue-chain"):
        value = Fraction(value)
        with self._lock:
            old = self._records.get(key)
            if old is not None:
                if old != value:
                    raise CacheCorruption(
                        "refusing to overwrite %s with %s for %r"
                        % (frac_to_str(old), frac_to_str(value), key))
                return
            line = json.dumps(_record_of(key, value, provenance), sort_keys=True)
            with open(self.path, "a+b") as fh:
                # A torn write can leave the last line unterminated; end it
                # (never truncate it) so this record stays a line of its own.
                if fh.seek(0, os.SEEK_END):
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        line = "\n" + line
                fh.write((line + "\n").encode("utf-8"))
            self._records[key] = value


_ACTIVE = None


def activate(path_or_store):
    """Install a process-wide store; returns it.  Pass None to deactivate."""
    global _ACTIVE
    if path_or_store is None:
        _ACTIVE = None
    elif isinstance(path_or_store, CacheStore):
        _ACTIVE = path_or_store
    else:
        _ACTIVE = CacheStore(path_or_store)
    return _ACTIVE


def active_store():
    return _ACTIVE


def cache_lookup(key):
    """Consult the active store, if any."""
    return None if _ACTIVE is None else _ACTIVE.lookup(key)


def cache_store(key, value, provenance="residue-chain"):
    """Record into the active store; a no-op when none is active."""
    if _ACTIVE is not None:
        _ACTIVE.store(key, value, provenance)


def cached_two_point(g, dd, a, b):
    """Geometry two-point with a cache consultation when a store is active.

    a and b must already be Insertion values.
    """
    store = _ACTIVE
    if store is None:
        return g.two_point(dd, a, b)
    key = two_point_key(g, dd, a, b)
    hit = store.lookup(key)
    if hit is not None:
        return hit
    value = g.two_point(dd, a, b)
    store.store(key, value)
    return value
