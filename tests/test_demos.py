"""The demos stay in step with the library: every name a demo imports from
``cscf`` exists, and the quick demos run to completion."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Demos 04-07 run full optimizations (about 12 s together), so only CI's demo
# smoke step runs them; 01-03 take well under a second each.
QUICK = [d for d in DEMOS if d.name[:2] in ("01", "02", "03")]


def cscf_imports(path):
    """(module, name or None) for each ``cscf`` import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cscf":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "cscf")


def test_demos_found():
    assert len(DEMOS) == 7 and len(QUICK) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = list(cscf_imports(demo))
    assert imports
    for module, name in imports:
        loaded = importlib.import_module(module)
        if name is not None:
            # ``from cscf import cli`` names a submodule, an attribute only once imported
            found = hasattr(loaded, name) or importlib.util.find_spec(f"{module}.{name}")
            assert found, f"{demo.name}: {module}.{name} is gone"


@pytest.mark.parametrize("demo", QUICK, ids=lambda p: p.name)
def test_quick_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert "np.float64(" not in done.stdout  # a kernel's list holds plain floats
