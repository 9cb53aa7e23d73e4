"""Text input is read with ASCII digits only: no module of src/perfproj names
str.isdigit, str.isdecimal or str.isnumeric, and no command-line flag is read
by int(), float() or Fraction() directly, neither in an add_argument call nor
in the command table cli._COMMANDS that the parser is built from.  Each accepts
hundreds of non-ASCII digits, which int() then either rejects with a
traceback or reads silently as numbers."""

import argparse
import ast
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

import perfproj.cli as cli
from perfproj.cli import run

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


# -- number flags ------------------------------------------------------------------

SOURCES = PACKAGE.parent
_NUMBER_TYPES = {"int", "float", "Fraction"}


def _builtin_number_flags(path: Path) -> list[str]:
    """Each add_argument in path whose type= is int, float or Fraction, whose
    parsers read any Unicode digit, as "file:line: type=name"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        for kw in node.keywords:
            name = getattr(kw.value, "id", None) or getattr(kw.value, "attr", None)
            if kw.arg == "type" and name in _NUMBER_TYPES:
                found.append(f"{path.name}:{node.lineno}: type={name}")
    return found


def test_no_flag_is_read_by_a_builtin_number_type():
    modules = sorted(SOURCES.rglob("*.py"))
    assert len(modules) > 1
    assert [line for path in modules for line in _builtin_number_flags(path)] == []


def test_a_builtin_number_flag_is_reported(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import fractions\n"
                      "sp.add_argument('--a', type=int)\n"
                      "sp.add_argument('--b', type=_int_arg, default=int('4'))\n"
                      "sp.add_argument('--c', required=True,\n    type=fractions.Fraction)\n"
                      "sp.add_argument('--d', type=float)\n"
                      "sp.add_option('--e', type=int)\n")
    assert _builtin_number_flags(module) == [
        "m.py:2: type=int", "m.py:4: type=Fraction", "m.py:6: type=float"]


# each subcommand's flags, as the command table cli._COMMANDS declares them
_TABLE_FLAGS = {command: flags for command, (flags, _) in cli._COMMANDS.items()}


def _builtin_number_table_flags(table) -> list[str]:
    """Each flag of a {command: flags} table like _TABLE_FLAGS that int, float or
    Fraction converts, as "command --name: convert=name"."""
    return [f"{command} --{flag.name}: convert={flag.convert.__name__}"
            for command, flags in table.items() for flag in flags
            if flag.convert in (int, float, Fraction)]


def test_no_table_flag_is_read_by_a_builtin_number_type():
    assert _builtin_number_table_flags(_TABLE_FLAGS) == []
    # a number flag reads ASCII digits only; the rest are text or switches
    converters = {flag.convert for flags in _TABLE_FLAGS.values() for flag in flags}
    assert converters == {cli._int_arg, cli._fraction_arg, str, None}
    # and argparse converts each flag as the table says
    (subcommands,) = [action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert list(subcommands.choices) == list(_TABLE_FLAGS)
    for command, parser in subcommands.choices.items():
        assert [(action.dest, action.type) for action in parser._actions[1:]] == [
            (flag.name, flag.convert) for flag in _TABLE_FLAGS[command]]


def test_a_builtin_number_table_flag_is_reported():
    table = {"h0": (cli._Flag("n", int), cli._Flag("deg", Fraction),
                    cli._Flag("p", cli._int_arg)),
             "mult": (cli._Flag("f", str), cli._Flag("x", float),
                      cli._Flag("json", None, False))}
    assert _builtin_number_table_flags(table) == [
        "h0 --n: convert=int", "h0 --deg: convert=Fraction", "mult --x: convert=float"]


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, message", [
    (["h0", "--n", "1", "--deg", "٣", "--p", "3", "--grades", "2"],
     "not a rational number: '٣'"),
    (["h0", "--n", "1", "--deg", "3", "--p", "٣", "--grades", "2"],
     "argument --p: invalid int value: '٣'"),
    (["cech-check", "--n", "1", "--degrees=٣,1", "--i", "1", "--p", "2"],
     "not a rational number: '٣'"),
    (["hn", "--n", "٣", "--deg=-3", "--p", "3"], "argument --n: invalid int value: '٣'"),
    (["euler", "--n", "1", "--deg", "3", "--p", "3", "--grades", "３"],
     "argument --grades: invalid int value: '３'"),
    (["kunneth", "--n", "1", "--m", "1", "--a", "1/٣", "--b", "1", "--p", "3"],
     "not a rational number: '1/٣'"),
    (["veronese", "--n", "1", "--d", "\u20032", "--p", "3"],
     "argument --d: invalid int value: '\\u20032'"),
    # rejected before non-ASCII digits were: the same messages as then
    (["h0", "--n", "x", "--deg", "3", "--p", "3"], "argument --n: invalid int value: 'x'"),
    (["h0", "--n", "1", "--deg", "1/0", "--p", "3"], "not a rational number: '1/0'"),
    (["bezout-chi", "--d", "6", "--degf", "1.5", "--degg", "2", "--p", "3"],
     "argument --degf: invalid int value: '1.5'"),
], ids=["deg-arabic-indic", "p-arabic-indic", "degrees-arabic-indic", "n-arabic-indic",
        "grades-fullwidth", "fraction-denominator", "em-space", "n-letter",
        "deg-zero-denominator", "degf-decimal"])
def test_number_flags_take_ascii_only(argv, message):
    for json_mode in (False, True):
        code, out, err = _invoke(argv + ["--json"] * json_mode)
        assert code == 1
        assert err == f"error: usage: {message}\n"
        if json_mode:
            assert json.loads(out) == {"error": {"category": "usage", "message": message}}
        else:
            assert out == ""


@pytest.mark.parametrize("argv, same_as", [
    (["h0", "--n", "1_0", "--deg", "2", "--p", "3", "--json"],
     ["h0", "--n", "10", "--deg", "2", "--p", "3", "--json"]),
    (["h0", "--n", "1", "--deg", "0.5", "--p", "2", "--grades", "3"],
     ["h0", "--n", "1", "--deg", "1/2", "--p", "2", "--grades", "3"]),
    (["hn", "--n", " 2 ", "--deg=-1_2/9", "--p", "3", "--grades", "2"],
     ["hn", "--n", "2", "--deg=-4/3", "--p", "3", "--grades", "2"]),
    (["cech-check", "--n", "1", "--degrees=1e1,-0.25", "--i", "2", "--p", "2"],
     ["cech-check", "--n", "1", "--degrees=10,-1/4", "--i", "2", "--p", "2"]),
], ids=["underscore-int", "decimal-degree", "spaces-and-underscore", "exponent-notation"])
def test_ascii_number_forms_are_still_read(argv, same_as):
    code, out, err = _invoke(argv)
    assert code == 0 and err == ""
    assert (code, out, err) == _invoke(same_as)
