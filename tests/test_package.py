"""Package-level contracts: the README examples run, the export lists hold."""

import contextlib
import importlib
import io
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import roughwave

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(roughwave.__path__))


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
