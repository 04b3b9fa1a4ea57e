import json
from fractions import Fraction

import pytest

from resmirror.cache import (
    CacheCorruption,
    CacheStore,
    activate,
    cached_two_point,
    frac_from_str,
    frac_to_str,
    two_point_key,
)
from resmirror.cli import main
from resmirror.geoms import geometry, parse_insertion


def key_for(d=1, a="1", b="z2"):
    g = geometry("cpn", N=5, k=5)
    return two_point_key(g, d, parse_insertion(g, a), parse_insertion(g, b))


def test_store_then_lookup(tmp_path):
    s = CacheStore(str(tmp_path / "c.jsonl"))
    k = key_for()
    assert s.lookup(k) is None
    s.store(k, Fraction(3850))
    assert s.lookup(k) == 3850
    # idempotent for the identical value
    s.store(k, Fraction(3850))
    assert len(s) == 1


def test_conflicting_store_is_corruption(tmp_path):
    s = CacheStore(str(tmp_path / "c.jsonl"))
    k = key_for()
    s.store(k, Fraction(3850))
    with pytest.raises(CacheCorruption):
        s.store(k, Fraction(17))


def test_reload_from_disk(tmp_path):
    path = str(tmp_path / "c.jsonl")
    k = key_for()
    CacheStore(path).store(k, Fraction(3850))
    assert CacheStore(path).lookup(k) == 3850


def test_symmetric_key_is_shared():
    assert key_for(a="1", b="z2") == key_for(a="z2", b="1")


def test_cached_two_point_records_once(tmp_path):
    g = geometry("cpn", N=5, k=5)
    a, b = parse_insertion(g, "1"), parse_insertion(g, "z2")
    store = activate(str(tmp_path / "c.jsonl"))
    try:
        assert cached_two_point(g, 1, a, b) == 3850
        assert cached_two_point(g, 1, b, a) == 3850
    finally:
        activate(None)
    assert len(store) == 1
    rec = json.loads(open(store.path).readline())
    assert rec["value"] == "3850"


def test_store_after_torn_last_line_keeps_both_records(tmp_path):
    path = str(tmp_path / "c.jsonl")
    first, second = key_for(b="z2"), key_for(a="z", b="z")
    CacheStore(path).store(first, Fraction(3850))
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data.rstrip(b"\n"))  # complete record, newline lost
    CacheStore(path).store(second, Fraction(6725))
    reloaded = CacheStore(path)
    assert len(reloaded) == 2
    assert reloaded.lookup(first) == 3850 and reloaded.lookup(second) == 6725
    with open(path, "rb") as fh:
        assert fh.read().startswith(data)  # the old line is kept, not truncated


def _set(field, value):
    def damage(line):
        rec = json.loads(line)
        rec[field] = value
        return json.dumps(rec, sort_keys=True).encode()
    return damage


@pytest.mark.parametrize("damage", [
    _set("value", "1/0"),
    _set("value", 0.1),
    _set("params", []),
    lambda line: line.replace(b'"f3"', b'"f\xff"'),
], ids=["zero-denominator", "float-value", "params-not-an-object", "not-utf8"])
def test_damaged_line_warns_and_keeps_later_records(tmp_path, capsys, damage):
    path = tmp_path / "memo.jsonl"
    argv = ["two-point", "--geometry", "f3", "--d", "0,1", "--a", "w", "--b", "w2",
            "--cache", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    good = path.read_bytes()
    damaged = damage(good.rstrip(b"\n")) + b"\n" + good
    path.write_bytes(damaged)
    with pytest.warns(UserWarning, match="line 1 unreadable"):
        rc = main(argv)
    assert rc == 0 and capsys.readouterr().out == "3\n"
    # the clean record on line 2 was loaded, so nothing was appended
    assert path.read_bytes() == damaged


def test_frac_round_trip():
    assert frac_to_str(Fraction(-3, 7)) == "-3/7"
    assert frac_to_str(Fraction(5)) == "5"
    assert frac_from_str("-3/7") == Fraction(-3, 7)
    assert frac_from_str("5") == 5
    with pytest.raises(TypeError):
        frac_from_str(0.1)
