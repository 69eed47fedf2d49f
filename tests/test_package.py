"""Package-level contracts: the README examples run, the export lists hold,
and every public name and public method has a caller outside the tests.

A caller is a code reference: a name, an attribute or an import alias in
src/ outside the definition itself, in a README python block or in a
bench/ script.  Docstrings, comments and prose do not count.
"""

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
# An exempt class's methods share its exemption.
CALLER_EXEMPT = {
    "asymptotics.ExponentialTailFamily": "acceptance criterion 7's planted families",
    "asymptotics.SlidingSpikeFamily": "acceptance criterion 7's planted families",
    "asymptotics.format_classification":
        "the report line for classify, which the scenarios' ladder verdicts will use",
    "characteristics.picard_characteristic_oracle": "the independent route for flow_levels",
    "hypsolve.gronwall_check": "acceptance criterion 2's a priori bound",
}


def _readme_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_examples_run():
    blocks = _readme_blocks()
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
    """(name, class, first line, last line) of each public top-level
    definition, and of each public method of a public class; class is
    None for a top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_"):
                continue
            yield name, None, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield item.name, name, item.lineno, item.end_lineno


def _references(tree):
    """(name, through an attribute, line) of each name, attribute and
    import alias in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, True, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, False, node.lineno


def _caller_audit(modules, outside, exempt):
    """Public definitions of modules with no caller, and stale exemptions.

    modules maps a module name to its syntax tree; outside holds the trees
    of code that calls the package.  A method counts as called only
    through an attribute.  An exemption is stale when it names no public
    definition, or one that has a caller.
    """
    by_name = {}
    for mod, tree in [*modules.items(), *((None, tree) for tree in outside)]:
        for ref, attr, line in _references(tree):
            by_name.setdefault(ref, []).append((mod, attr, line))
    uncalled, stale, defined = [], [], set()
    for mod, tree in sorted(modules.items()):
        for name, owner, first, last in _public_definitions(tree):
            if owner is not None and f"{mod}.{owner}" in exempt:
                continue
            key = f"{mod}.{owner}.{name}" if owner else f"{mod}.{name}"
            defined.add(key)
            found = any((attr or owner is None)
                        and (other != mod or not first <= line <= last)
                        for other, attr, line in by_name.get(name, ()))
            if found and key in exempt:
                stale.append(key)
            elif not found and key not in exempt:
                uncalled.append(key)
    return uncalled, sorted(set(exempt) - defined) + stale


def test_public_names_have_a_caller():
    modules = {path.stem: ast.parse(path.read_text())
               for path in (ROOT / "src" / "roughwave").glob("*.py")}
    outside = [ast.parse(block) for block in _readme_blocks()] + [
        ast.parse(path.read_text()) for path in sorted((ROOT / "bench").glob("*.py"))]
    uncalled, stale = _caller_audit(modules, outside, CALLER_EXEMPT)
    assert not uncalled, f"public names with no caller outside tests/: {uncalled}"
    assert not stale, f"exemptions for missing or called names: {stale}"
    assert all(reason.strip() for reason in CALLER_EXEMPT.values())


_DEMO = '''
"""Tool.lonely and Planted.sample appear in this docstring only."""


class Tool:
    def used(self):
        return 1

    def lonely(self):
        """lonely names itself here."""


class Planted:
    def sample(self):
        return 2


def run():
    lonely = Tool().used()  # a bare name is no method call: lonely
    return lonely
'''


def test_caller_audit_reads_code_not_words():
    modules = {"demo": ast.parse(_DEMO)}
    outside = [ast.parse("from demo import run")]
    uncalled, stale = _caller_audit(modules, outside, {"demo.Planted": "kept"})
    assert uncalled == ["demo.Tool.lonely"]
    assert stale == []
    # an attribute reaches the method; exemptions of a called or missing
    # name are stale
    outside.append(ast.parse("Tool().lonely()"))
    exempt = {"demo.run": "called", "demo.gone": "missing", "demo.Planted": "kept"}
    assert _caller_audit(modules, outside, exempt) == ([], ["demo.gone", "demo.run"])
