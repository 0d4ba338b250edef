"""The engine modules are layered algebra -> morph -> subcon -> amalgam: each
imports only modules below it, and every import sits at module level."""

import ast
import os
import subprocess
import sys

import relog

PACKAGE_DIR = os.path.dirname(os.path.abspath(relog.__file__))


def test_the_map_search_loads_without_subuniverses_or_congruences():
    result = subprocess.run(
        [sys.executable, "-c",
         "import relog.morph, sys; assert 'relog.subcon' not in sys.modules"],
        capture_output=True, text=True, timeout=120,
    )
    assert (result.returncode, result.stderr) == (0, "")


def test_no_module_imports_inside_a_function():
    found = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{name}:{node.lineno}" for node in ast.walk(function)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
