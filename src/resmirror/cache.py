"""Two-point numbers, memoized once per process and optionally on disk.

Both memos use :func:`two_point_key`, which sorts the insertions.  The
store is one JSON-lines file: each line is a self-contained record carrying a
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

SCHEMA = 1


class CacheCorruption(RuntimeError):
    """Two records with the same key but different exact values."""


def frac_to_str(c):
    """Exact decimal-free text form: "num/den", with "/den" omitted when 1."""
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def frac_from_str(s):
    """The rational a frac_to_str text denotes.  Only text is accepted: a
    JSON float has already lost its exact value."""
    if not isinstance(s, str):
        raise TypeError("exact rational text expected, got %r" % (s,))
    return Fraction(s)


def two_point_key(g, dd, a, b):
    """Canonical lookup key; insertions are sorted so symmetry shares hits."""
    params = tuple(sorted((str(name), int(val)) for name, val in g.params()))
    degree = (dd,) if isinstance(dd, int) else tuple(int(x) for x in dd)
    ins = tuple(sorted((tuple(a.exps), tuple(b.exps))))
    return (SCHEMA, "two-point", g.name, params, degree, ins)


def _record_of(key, value):
    schema, kind, name, params, degree, ins = key
    return {
        "schema": schema,
        "kind": kind,
        "geometry": name,
        "params": {k: v for k, v in params},
        "degree": list(degree),
        "insertions": [list(e) for e in ins],
        "value": frac_to_str(value),
        "provenance": "residue-chain",
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
            with open(self.path, "rb") as fh:
                lines = fh.read().splitlines()
        except OSError as e:
            warnings.warn("cache %s unreadable (%s); recomputing" % (self.path, e))
            return
        for lineno, raw in enumerate(lines, 1):
            # Decoding, parsing and the value itself are all per line, so a
            # damaged line costs only its own record.
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                rec = json.loads(line)
                key = _key_of(rec)
                value = frac_from_str(rec["value"])
            except (ValueError, KeyError, TypeError, AttributeError,
                    ZeroDivisionError) as e:
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

    def store(self, key, value):
        value = Fraction(value)
        with self._lock:
            old = self._records.get(key)
            if old is not None:
                if old != value:
                    raise CacheCorruption(
                        "refusing to overwrite %s with %s for %r"
                        % (frac_to_str(old), frac_to_str(value), key))
                return
            line = json.dumps(_record_of(key, value), sort_keys=True)
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
_MEMO = {}


def activate(path):
    """Install a process-wide store on path; returns it.  None deactivates."""
    global _ACTIVE
    if path is None:
        _ACTIVE = None
    else:
        _ACTIVE = CacheStore(path)
    return _ACTIVE


def active_store():
    return _ACTIVE


def cached_two_point(g, dd, a, b):
    """g.two_point(dd, a, b) from the active store, else from the process
    memo, else computed; the store records what it lacks.

    a and b must already be Insertion values.  The key holds the degree
    as g.check_degree returns it, so an invalid degree raises before any
    memo can answer it.
    """
    key = two_point_key(g, g.check_degree(dd), a, b)
    store = _ACTIVE
    hit = None if store is None else store.lookup(key)
    if hit is not None:
        return hit
    if key not in _MEMO:
        _MEMO[key] = g.two_point(dd, a, b)
    if store is not None:
        store.store(key, _MEMO[key])
    return _MEMO[key]
