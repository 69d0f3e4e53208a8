"""The package imports nothing outside the standard library: every
absolute import in ``src/latshell`` names a module of
``sys.stdlib_module_names``."""

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src", "latshell")


def _absolute_imports(path: str) -> set[str]:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_latshell_imports_only_the_standard_library():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert "complexes.py" in modules
    imported = set()
    for name in modules:
        found = _absolute_imports(os.path.join(PACKAGE, name))
        assert found <= sys.stdlib_module_names, (name, found - sys.stdlib_module_names)
        imported |= found
    assert {"itertools", "json"} <= imported
