"""README.md stays true: its config samples load, and each value its
Library snippet states in a comment is the value the code returns."""

from __future__ import annotations

import ast
import inspect
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import coiquery.cli
from coiquery.cli import load_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.DOTALL | re.MULTILINE)


def _load(tmp_path, sample: str):
    path = tmp_path / "config.json"
    path.write_text(sample)
    return load_config(str(path))


def _subcommands() -> set[str]:
    (action,) = [
        action
        for action in coiquery.cli._build_parser()._actions
        if action.dest == "command"
    ]
    return set(action.choices)


def test_readme_and_cli_docstring_name_exactly_the_subcommands():
    (commands,) = [b for b in _blocks("sh") if b.startswith("coiquery ")]
    assert {line.split()[1] for line in commands.splitlines()} == _subcommands()
    table = coiquery.cli.__doc__.split("-----------\n", 1)[1].split("\n\n", 1)[0]
    named = {line.split()[0] for line in table.splitlines() if line[:1].strip()}
    assert named == _subcommands()


def _keys_load_config_reads() -> set[str]:
    """String keys ``load_config`` looks up in ``data``: ``data[...]``,
    ``data.get(...)``, ``... in data``, and ``helper(data, "key", ...)``."""
    source = inspect.getsource(coiquery.cli.load_config)
    keys = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and _is_data(node.value):
            keys.add(node.slice)
        elif isinstance(node, ast.Compare) and _is_data(node.comparators[0]):
            keys.add(node.left)  # ``"key" in data``
        elif isinstance(node, ast.Call):
            func, args = node.func, node.args
            if isinstance(func, ast.Attribute) and _is_data(func.value):
                keys.add(args[0])
            keys.update(b for a, b in zip(args, args[1:]) if _is_data(a))
    # ``isinstance(data, dict)`` passes ``data`` too, but names no key.
    return {k.value for k in keys if isinstance(k, ast.Constant)}


def _is_data(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "data"


def test_cli_docstring_config_sample_names_exactly_the_keys_read():
    sample = coiquery.cli.__doc__.split("noted::\n", 1)[1].split("\n    }", 1)[0]
    documented = set(re.findall(r'^ {6}"(\w+)":', sample, re.MULTILINE))
    read = _keys_load_config_reads()
    assert documented == read
    for block in _blocks("json"):
        assert set(json.loads(block)) <= read


@pytest.mark.parametrize(
    "sample", [pytest.param(s, id=f"json{i}") for i, s in enumerate(_blocks("json"))]
)
def test_every_config_sample_loads(tmp_path, sample):
    ctx = _load(tmp_path, sample)
    assert ctx.universe_size >= ctx.top_k >= 1


def test_the_config_samples_mean_what_the_text_says(tmp_path):
    plain, rules = _blocks("json")
    ctx = _load(tmp_path, plain)
    assert (ctx.universe_size, ctx.top_k, ctx.bias("e1")) == (10, 3, 2)
    assert json.loads(rules)["scale"] == "1/2"
    ctx = _load(tmp_path, rules)
    assert (ctx.universe_size, ctx.top_k) == (4, 2)
    # "here e3 and e4 are the Sony ones, each with bias 2 × 1/2 = 1"
    assert ctx.bias.entries == {"e1": 0, "e2": 0, "e3": 1, "e4": 1}


def _stated_values(snippet: str) -> dict[int, str]:
    """Line number to stated value, for each bare expression the snippet
    annotates: in the comment that ends its line (continued on comment-only
    lines) or, when that is absent, on the comment line below it."""
    lines = snippet.splitlines()
    stated = {}
    for node in ast.parse(snippet).body:
        if not isinstance(node, ast.Expr):
            continue
        comment = lines[node.end_lineno - 1][node.end_col_offset :].strip()
        parts = [comment.removeprefix("#")] if comment else []
        for line in lines[node.end_lineno :]:
            if not line.strip().startswith("#"):
                break
            parts.append(line.strip().removeprefix("#"))
            if not comment:
                break  # a comment line below states one value
        stated[node.lineno] = " ".join(parts)
    return stated


def test_library_snippet_returns_the_values_its_comments_state():
    (snippet,) = _blocks("python")
    stated = _stated_values(snippet)
    namespace: dict = {}
    checked = []
    for node in ast.parse(snippet).body:
        if node.lineno not in stated:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        expression = ast.Expression(node.value)
        value = eval(compile(expression, "README.md", "eval"), namespace)
        assert "".join(repr(value).split()) == "".join(stated[node.lineno].split())
        checked.append(ast.unparse(node))
    assert checked == ["gsd_values(10, 4)", "report.trustworthy", "report.flagged['a']"]
    report = namespace["report"]
    assert report.trustworthy == ("c",)
    witness = report.flagged["a"]
    assert (witness.interval_low, witness.interval_high) == (
        Fraction(74, 39),
        Fraction(32, 13),
    )
