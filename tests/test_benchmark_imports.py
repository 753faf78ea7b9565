"""The benchmark under perfbench/ imports public names of the package; a
change that drops or renames one of them fails here, not only in a
benchmark run."""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def package_imports():
    """(file, module, name) for every `from rainbowsim... import name` in
    perfbench/*.py, nested imports included."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "rainbowsim"):
                found += [(path.name, node.module, alias.name)
                          for alias in node.names]
    return found


def test_benchmark_imports_resolve():
    found = package_imports()
    modules = {module for _, module, _ in found}
    # workloads.py imports from both; an empty scan would pass vacuously
    assert {"rainbowsim", "rainbowsim.graphs"} <= modules
    missing = [f"{fname}: from {module} import {name}"
               for fname, module, name in found
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
