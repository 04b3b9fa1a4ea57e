"""The README's Quick tour and command-line examples give the values their
comments state."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from resmirror import cache
from resmirror.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
VALUE = re.compile(r"(\w+ = )?-?\d+(/\d+)?")


def _block(heading, fence):
    text = README.read_text(encoding="utf-8")
    return text.split(heading, 1)[1].split(fence, 1)[1].split("```", 1)[0]


def _examples():
    """(argv, values) for each `resmirror ...  # v1, v2, ...` line of the
    Command line block whose comment lists values ("..." ends a list)."""
    block = _block("## Command line", "```sh")
    out = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        values = [v.strip() for v in comment.split(",") if v.strip() != "..."]
        if command.startswith("resmirror ") and values and all(
                VALUE.fullmatch(v) for v in values):
            out.append(pytest.param(shlex.split(command)[1:], values, id=command.strip()))
    return out


EXAMPLES = _examples()


def test_readme_has_value_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("argv, values", EXAMPLES)
def test_readme_example(tmp_path, capsys, monkeypatch, argv, values):
    monkeypatch.delenv("RESMIRROR_CACHE", raising=False)
    monkeypatch.setattr(cache, "_MEMO", {})
    assert main(argv + ["--cache", str(tmp_path / "memo.jsonl")]) == 0
    lines = capsys.readouterr().out.splitlines()
    for v in values:
        # a value is a whole line ("3850", "j_1 = 744") or follows ": "
        assert any(line == v or line.endswith(": " + v) for line in lines), (v, lines)


def test_readme_quick_tour(monkeypatch):
    """Run the Quick tour statement by statement; an expression whose line
    carries a comment must have a value whose repr starts that comment."""
    monkeypatch.delenv("RESMIRROR_CACHE", raising=False)
    monkeypatch.setattr(cache, "_MEMO", {})
    source = _block("## Quick tour", "```python")
    lines = source.splitlines()
    scope, checked = {}, []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if isinstance(node, ast.Expr) and comment:
            value = eval(code, scope)
            assert comment.startswith(repr(value)), (code, value, comment)
            checked.append(code)
        else:
            exec(code, scope)
    assert len(checked) >= 4
