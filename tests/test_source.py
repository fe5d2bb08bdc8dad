import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lewisreg"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts, so the package checks with explicit raises.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements on lines {lines}"


def test_import_loads_no_scipy():
    # Any scipy module on the import path (scipy.special alone takes about
    # 0.5 s) would be paid by every process that imports the package.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = "\n".join([
        "import sys, lewisreg",
        "sys.exit(3 if any(m.split('.')[0] == 'scipy' for m in sys.modules) else 0)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0


def _module_level(node):
    """The nodes that run on import: everything outside function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _module_level(child)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # test_import_loads_no_scipy only sees what `import lewisreg` pulls in;
    # this covers every module, the CLI's included.
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in _module_level(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"module-level scipy imports at {found}"
