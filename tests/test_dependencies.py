"""The package has no runtime dependencies: every module of src/perfproj
imports only the standard library and perfproj itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "perfproj"


def _outside_imports(path: Path) -> list[str]:
    """Each import of path that names neither perfproj, a relative module nor
    a top-level module of the standard library, as "file:line: module"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "perfproj" and top not in sys.stdlib_module_names:
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    assert [line for path in modules for line in _outside_imports(path)] == []


def test_an_outside_import_is_reported(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path\nfrom . import x\nfrom .y import z\n"
                      "from perfproj.cli import run\nimport json, sympy.core\n")
    assert _outside_imports(module) == ["m.py:5: sympy.core"]
