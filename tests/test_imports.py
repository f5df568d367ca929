import ast
import os
import pathlib
import subprocess
import sys

import opstable


def test_no_module_imports_scipy():
    # the package needs numpy alone: scipy.special was most of its import time
    found = set()
    for path in pathlib.Path(opstable.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                found.add(path.stem)
    assert found == set()


def test_fresh_import_loads_no_scipy():
    src = str(pathlib.Path(opstable.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, opstable, opstable.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
