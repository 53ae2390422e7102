"""Each module keeps its private names to itself.

A module that imports another package module's underscore name depends on
code that may change without notice; such a name moves to the module that
needs it, or becomes public.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cylwigner"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_another_modules_private_name():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            in_package = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "cylwigner")
            if in_package:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}" for alias in node.names
                          if _is_private(alias.name)]
    assert not found, found
