import ast
import pathlib

import opstable

SCIPY_MODULES = {"charfn", "moments", "pde_coeffs", "pricer"}


def test_only_the_special_function_layers_import_scipy():
    # import time is mostly scipy.special; keep it out of every other module
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
    assert found <= SCIPY_MODULES
