"""Text input is read with ASCII digits only: no module of src/perfproj names
str.isdigit, str.isdecimal or str.isnumeric.  Each accepts hundreds of
non-ASCII digits, which int() then either rejects with a traceback or reads
silently as numbers."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "perfproj"
_UNICODE_DIGIT_TESTS = {"isdigit", "isdecimal", "isnumeric"}


def _unicode_digit_tests(path: Path) -> list[str]:
    """Each use of a Unicode digit test in path, as "file:line: .name"."""
    return [f"{path.name}:{node.lineno}: .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr in _UNICODE_DIGIT_TESTS]


def test_package_reads_no_unicode_digits():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    assert [line for path in modules for line in _unicode_digit_tests(path)] == []


def test_a_unicode_digit_test_is_reported(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("a = '1'.isdigit()\nb = '2'.isascii()\n"
                      "c = str.isdecimal('3')\nd = list(filter(str.isnumeric, 'x4'))\n")
    assert _unicode_digit_tests(module) == [
        "m.py:1: .isdigit", "m.py:3: .isdecimal", "m.py:4: .isnumeric"]
