"""The package imports nothing outside the standard library and parses as Python 3.10."""

import ast
import sys
from pathlib import Path

import latss

PACKAGE = Path(latss.__file__).resolve().parent


def test_every_absolute_import_is_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_every_module_parses_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10.7; this catches syntax
    # newer than that, such as except*, but not newer library calls
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
