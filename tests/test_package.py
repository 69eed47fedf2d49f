"""Package-level contracts: the README examples run, the export lists hold,
and every public name has a caller outside the tests."""

import ast
import contextlib
import importlib
import io
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import roughwave

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(roughwave.__path__))

# Public names that only tests call, kept on purpose, each with its reason.
CALLER_EXEMPT = {
    "asymptotics.counterexample_families": "acceptance criterion 7's planted families",
    "asymptotics.format_classification":
        "the report line for classify, which the scenarios' ladder verdicts will use",
    "hypsolve.gronwall_check": "acceptance criterion 2's a priori bound",
}


def test_readme_examples_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().split() == ["moderate"]
    xs, u = namespace["xs"], namespace["u"]
    assert np.max(np.abs(u - np.sin(xs) * np.cos(1.0))) <= 1e-5


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(f"roughwave.{name}")
    missing = [n for n in getattr(module, "__all__", [])
               if not hasattr(module, n)]
    assert not missing, f"roughwave.{name}.__all__ names {missing}"
    exec(f"from roughwave.{name} import *", {})


def _public_definitions(tree):
    """(name, first line, last line) of each public top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def test_public_names_have_a_caller():
    # A caller is a mention in src/ outside the definition and outside
    # __all__, in README.md, or in bench/.  An exemption must name a
    # public definition that exists and still has no such caller.
    texts = {path: path.read_text() for path in (ROOT / "src" / "roughwave").glob("*.py")}
    outside = [README.read_text()] + [
        path.read_text() for path in sorted((ROOT / "bench").rglob("*"))
        if path.suffix in (".py", ".md")
    ]
    uncalled, called, defined = [], [], set()
    for path, text in sorted(texts.items()):
        tree = ast.parse(text)
        lines = text.splitlines()
        spans = [(node.lineno, node.end_lineno) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
        for name, first, last in _public_definitions(tree):
            skip = spans + [(first, last)]
            own = "\n".join(line for no, line in enumerate(lines, 1)
                            if not any(a <= no <= b for a, b in skip))
            corpus = [own] + [t for p, t in texts.items() if p != path] + outside
            word = re.compile(rf"\b{re.escape(name)}\b")
            key = f"{path.stem}.{name}"
            defined.add(key)
            has_caller = any(word.search(t) for t in corpus)
            if key in CALLER_EXEMPT and has_caller:
                called.append(key)
            elif key not in CALLER_EXEMPT and not has_caller:
                uncalled.append(key)
    assert not uncalled, f"public names with no caller outside tests/: {uncalled}"
    stale = sorted(set(CALLER_EXEMPT) - defined) + called
    assert not stale, f"exemptions for missing or called names: {stale}"
