import json
from fractions import Fraction

import pytest

from resmirror import cache
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
from resmirror.geoms import Insertion, InvalidInsertion, geometry, parse_insertion
from resmirror.parts import InvalidDegree


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


def refused_before_the_cache(tmp_path, monkeypatch, error, g, dd, a, b):
    """cached_two_point raises error, reads neither memo and writes nothing."""
    path = tmp_path / "c.jsonl"
    store = activate(str(path))
    monkeypatch.setattr(cache, "_MEMO", {})

    def untouched(*args):
        raise AssertionError("the store was consulted")

    monkeypatch.setattr(store, "lookup", untouched)
    monkeypatch.setattr(store, "store", untouched)
    try:
        with pytest.raises(error):
            cached_two_point(g, dd, a, b)
    finally:
        activate(None)
    assert cache._MEMO == {}
    assert not path.exists() or path.read_bytes() == b""


@pytest.mark.parametrize("name,dd", [("cpn", True), ("cpn", (True,)),
                                     ("f3", (True, 0)), ("wp1", (0, True))])
def test_bool_degree_is_refused_before_the_cache(tmp_path, monkeypatch, name, dd):
    g = geometry(name, **({"N": 5, "k": 5} if name == "cpn" else {}))
    refused_before_the_cache(tmp_path, monkeypatch, InvalidDegree,
                             g, dd, g.basis()[0], g.basis()[-1])


def test_labels_ask_for_the_same_number_as_insertions():
    f3 = geometry("f3")
    assert cached_two_point(f3, (3, 2), "z", "z") == \
        cached_two_point(f3, (3, 2), Insertion(1, 0), Insertion(1, 0)) == Fraction(64)


@pytest.mark.parametrize("label", ["z9", "q", (1.7, 0)], ids=["z9", "q", "float"])
def test_bad_label_is_refused_before_the_cache(tmp_path, monkeypatch, label):
    refused_before_the_cache(tmp_path, monkeypatch, InvalidInsertion,
                             geometry("f3"), (3, 2), "z", label)


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


F3_ARGV = ["two-point", "--geometry", "f3", "--d", "0,1", "--a", "w", "--b", "w2"]
CPN_ARGV = ["two-point", "--geometry", "cpn", "--N", "5", "--k", "5", "--d", "1",
            "--a", "1", "--b", "z2"]


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
    _set("degree", [0.0, 1]),
    _set("degree", [False, True]),
    _set("schema", 1.0),
    _set("schema", 1.2),
    _set("params", {"N": 5.5}),
    _set("insertions", [[0, 1.0], [0, 2]]),
], ids=["zero-denominator", "float-value", "params-not-an-object", "not-utf8",
        "float-degree", "bool-degree", "float-schema", "fractional-schema",
        "float-param", "float-insertion"])
def test_damaged_line_warns_and_keeps_later_records(tmp_path, capsys, damage):
    path = tmp_path / "memo.jsonl"
    argv = F3_ARGV + ["--cache", str(path)]
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


@pytest.mark.parametrize("argv,damage,want", [
    (F3_ARGV, _set("degree", [0.0, 1]), "3"),
    (CPN_ARGV, _set("params", {"N": 5.5, "k": 5}), "3850"),
], ids=["f3-float-degree", "cpn-float-param"])
def test_damaged_key_never_answers_for_another(tmp_path, capsys, argv, damage, want):
    # the damaged record is the only one, and its value is wrong: it must
    # be skipped, not filed under the integer key it coerces to
    path = tmp_path / "memo.jsonl"
    argv = argv + ["--cache", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    path.write_bytes(_set("value", "7")(damage(path.read_bytes().rstrip(b"\n"))) + b"\n")
    with pytest.warns(UserWarning, match="line 1 unreadable"):
        rc = main(argv)
    assert rc == 0 and capsys.readouterr().out == want + "\n"


def test_frac_round_trip():
    assert frac_to_str(Fraction(-3, 7)) == "-3/7"
    assert frac_to_str(Fraction(5)) == "5"
    assert frac_from_str("-3/7") == Fraction(-3, 7)
    assert frac_from_str("5") == 5
    with pytest.raises(TypeError):
        frac_from_str(0.1)
