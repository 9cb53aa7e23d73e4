import hashlib
import io
import json
import sys
import time
from collections import Counter
from math import comb
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import perfproj.braided as braided
import perfproj.cli as cli_mod
from perfproj import (PAdicFrac, exponents, enumerate_h0_monomials, enumerate_hn_monomials,
                      verify_theorems)
from perfproj.enumeration import count_h0_monomials
from perfproj.cli import _digit_limit_message, run
from perfproj.errors import ComputationDiagnostic, DomainError, FuelExhausted
from oracles import CURVE_CORPUS_TEXT, cli_in_child, fraction_table_cell, rooted_texts


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_h0_json_table_row():
    code, out, err = invoke(["h0", "--n", "1", "--deg", "2", "--p", "3",
                             "--grades", "3", "--json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["p"] == 3
    assert payload["offset"] == 0
    assert payload["grades"] == [3, 7, 19]


def test_h0_table_layout():
    code, out, _ = invoke(["h0", "--n", "1", "--deg", "2", "--p", "3", "--grades", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "power of p | monomials | dim"
    assert lines[1] == "0 | (2,0) (1,1) (0,2) | 3"
    assert lines[2].startswith("1 | (6,0) (5,1)")
    assert lines[2].endswith("| 7")


def test_tables_of_many_variables_answer():
    # the composition walk recurses on halves, not once per part
    n = 2000
    code, out, err = invoke(["h0", "--n", str(n), "--deg", "1", "--p", "2", "--grades", "1"])
    assert (code, err) == (0, "")
    units = ["(" + ",".join("1" if k == j else "0" for k in range(n + 1)) + ")"
             for j in range(8)]
    assert out.splitlines()[1] == f"0 | {' '.join(units)} ... | {n + 1}"
    code, out, err = invoke(["hn", "--n", str(n), "--deg=-2001", "--p", "2", "--grades", "1"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "0 | (" + ",".join(["-1"] * (n + 1)) + ") | 1"


def test_hn_fractional_degree():
    code, out, _ = invoke(["hn", "--n", "1", "--deg=-5/3", "--p", "3",
                           "--grades", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["offset"] == 1
    assert payload["grades"] == [4, 14, 44]
    code, out, _ = invoke(["hn", "--n", "2", "--deg=-7/3", "--p", "3", "--grades", "2"])
    assert code == 0
    # label 1: the weights of degree -7/3 with denominator 3, times 3
    assert out.splitlines()[1].startswith("1 | (-1,-1,-5) (-1,-2,-4) ")


def test_euler_json():
    code, out, _ = invoke(["euler", "--n", "1", "--deg=-5", "--p", "3",
                           "--grades", "3", "--json"])
    assert json.loads(out)["grades"] == [-4, -14, -44]


def test_bezout_line_json():
    code, out, _ = invoke(["bezout-line", "--s", "2", "--t", "3", "--p", "3",
                           "--grades", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 3 and payload["offset"] == 0
    assert payload["grades"] == [1, 1, 1]


def test_bezout_chi_json():
    code, out, _ = invoke(["bezout-chi", "--d", "6", "--degf", "2", "--degg", "3",
                           "--p", "2", "--grades", "3", "--json"])
    assert json.loads(out)["grades"] == [6, 24, 96]


def test_kunneth_json():
    code, out, _ = invoke(["kunneth", "--n", "1", "--m", "1", "--a", "1", "--b", "1",
                           "--p", "3", "--grades", "3", "--json"])
    payload = json.loads(out)
    assert payload["cohomology"][0]["grades"] == [4, 16, 100]
    assert payload["cohomology"][1]["grades"] == [0, 0, 0]


def test_veronese_output():
    code, out, _ = invoke(["veronese", "--n", "1", "--d", "2", "--p", "3",
                           "--grades", "3", "--json"])
    payload = json.loads(out)
    assert [g["target_dim"] for g in payload["tower"]] == [2, 6, 18]
    code, out, _ = invoke(["veronese", "--n", "1", "--d", "2", "--p", "3",
                           "--grades", "1"])
    assert out.splitlines()[0] == "grade 0: P^2 [x^2:x*y:y^2]"


def test_mult_json_row():
    code, out, _ = invoke(["mult", "--f", "x", "--g", "y", "--p", "3",
                           "--grades", "1", "--json"])
    payload = json.loads(out)
    assert payload["mixed"][1] == [1, 3, 3, 9]
    assert payload["diagonal"] == [1, 1]


def test_mult_infinite_renders():
    code, out, _ = invoke(["mult", "--f", "x*y", "--g", "x", "--p", "2",
                           "--grades", "1", "--json"])
    assert code == 0
    assert json.loads(out)["diagonal"] == ["inf", "inf"]


def test_blowup_json():
    code, out, _ = invoke(["blowup", "--f", "y^(1/4) - x^(1/4) + x^(1/2)",
                           "--p", "2", "--json"])
    payload = json.loads(out)
    charts = {c["chart"]: c for c in payload["charts"]}
    assert charts["u"]["exceptional"]["constraint"] == "v^(1/4) = 1"
    assert charts["v"]["exceptional"]["constraint"] == "u^(1/4) = 1"


def test_cech_check_json():
    code, out, _ = invoke(["cech-check", "--n", "1", "--degrees=-1,1", "--i", "1",
                           "--p", "3", "--json"])
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["degrees"][0]["hn"] == 2
    code, out, _ = invoke(["cech-check", "--n", "6", "--degrees=3", "--i", "1",
                           "--p", "2", "--json"])
    assert code == 0
    (degree,) = json.loads(out)["degrees"]
    assert (degree["weights"], degree["h0"], degree["ok"]) == (41_140_568, 924, True)


def test_usage_errors_exit_1():
    code, out, err = invoke(["h0", "--n", "1", "--p", "3"])
    assert code == 1 and err.startswith("error: usage:")
    code, _, err = invoke(["h0", "--n", "1", "--deg", "2/5", "--p", "3"])
    assert code == 1 and "denominator" in err
    code, _, err = invoke(["mult", "--f", "x +", "--g", "y", "--p", "2"])
    assert code == 1
    code, _, err = invoke(["nonsense"])
    assert code == 1
    code, _, err = invoke([])
    assert code == 1
    code, _, err = invoke(["h0", "--n", "1", "--deg", "2", "--p", "4"])
    assert code == 1
    code, _, err = invoke(["h0", "--n", "1", "--deg", "2", "--p", "3", "--grades", "0"])
    assert code == 1


def test_json_error_payload():
    code, out, err = invoke(["h0", "--n", "1", "--deg", "2/5", "--p", "3", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["category"] == "usage"
    assert "denominator" in payload["error"]["message"]
    assert err.splitlines()[0].startswith("error: usage:")


def test_computation_diagnostic_exit_2(monkeypatch):
    def boom(*args, **kwargs):
        raise FuelExhausted("step budget exceeded")

    monkeypatch.setitem(cli_mod._COMMANDS, "mult", (cli_mod._COMMANDS["mult"][0], boom))
    code, out, err = invoke(["mult", "--f", "x", "--g", "y", "--p", "2", "--json"])
    assert code == 2
    assert json.loads(out)["error"]["category"] == "computation"
    assert err.startswith("error: computation:")


_DIGIT_LIMIT_ARGVS = [
    ["cech-check", "--n", "1", "--degrees=1", "--i", "7000", "--p", "5"],
    ["cech-check", "--n", "1", "--degrees=1", "--i", "7000", "--p", "5", "--json"],
    ["h0", "--n", "1", "--deg", "1", "--p", "5", "--grades", "6200", "--json"],
    ["mult", "--f", "1" * 5000, "--g", "y", "--p", "2"],
]


@pytest.mark.parametrize("argv", _DIGIT_LIMIT_ARGVS, ids=range(len(_DIGIT_LIMIT_ARGVS)))
def test_int_past_the_digit_limit_exits_2(argv):
    # the interpreter turns no int of more than sys.get_int_max_str_digits()
    # digits into text, or text into int
    code, out, err = invoke(argv)
    assert code == 2
    (line,) = err.splitlines()
    message = line.removeprefix("error: computation: ")
    assert message != line
    assert f"{sys.get_int_max_str_digits()} digits" in message
    assert "PYTHONINTMAXSTRDIGITS" in message
    if "--json" in argv:
        assert json.loads(out) == {"error": {"category": "computation", "message": message}}
    else:
        assert out == ""  # no partial answer


# the last grade of each tuple is past the digit limit, and is written first:
# computing the grades before it took 1.2 to 19 s of CPU
_LAST_GRADE_PAST_THE_LIMIT = [
    ["h0", "--n", "1", "--deg", "1", "--p", "5", "--grades", "6200"],
    ["euler", "--n", "1", "--deg", "1", "--p", "2", "--grades", "100000", "--json"],
    ["hn", "--n", "1", "--deg=-1", "--p", "2", "--grades", "20000"],
    ["bezout-chi", "--d", "2", "--degf", "1", "--degg", "1", "--p", "2", "--grades", "8000",
     "--json"],
    # kunneth reads its last grade from the factors' end tuples: computing the
    # grades before it took 1.4 to 9.0 s of CPU, and 434 MB at 40000 grades
    ["kunneth", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--p", "2",
     "--grades", "40000", "--json"],
    ["kunneth", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--p", "2",
     "--grades", "16000"],
    ["kunneth", "--n", "2", "--m", "3", "--a=-5/2", "--b", "3", "--p", "2",
     "--grades", "7000", "--json"],
]


@pytest.mark.parametrize("argv", _LAST_GRADE_PAST_THE_LIMIT, ids=lambda argv: argv[0])
def test_a_last_grade_past_the_digit_limit_ends_within_a_cpu_limit(argv):
    done = cli_in_child("RLIMIT_CPU", 2, argv)
    message = _digit_limit_message()
    payload = {"error": {"category": "computation", "message": message}}
    assert (done.returncode, done.stderr) == (2, f"error: computation: {message}\n")
    assert done.stdout == (json.dumps(payload) + "\n" if "--json" in argv else "")


# the answers at integer degrees this large are the digit-limit diagnostic, so a
# decimal exponent that large gets it before its power of 10 is built
_DECIMAL_EXPONENT_ARGVS = [
    ["h0", "--n", "1", "--deg", "1e16000000", "--p", "3", "--grades", "1", "--json"],
    ["h0", "--n", "1", "--deg=1e-16000000", "--p", "3", "--grades", "1", "--json"],
    ["hn", "--n", "1", "--deg", "1e5000", "--p", "3", "--grades", "1"],
    ["h0", "--n", "1", "--deg=-1e5000", "--p", "3", "--grades", "1", "--json"],
    ["h0", "--n", "1", "--deg=1e-5000", "--p", "3", "--grades", "1"],
    ["cech-check", "--n", "1", "--degrees=1,-2e16000000", "--i", "0", "--p", "3", "--json"],
]


@pytest.mark.parametrize("argv", _DECIMAL_EXPONENT_ARGVS,
                         ids=range(len(_DECIMAL_EXPONENT_ARGVS)))
def test_a_decimal_exponent_past_the_digit_limit_exits_2_at_once(argv):
    start = time.process_time()
    result = invoke(argv)
    assert time.process_time() - start < 1  # 10**16000000 alone takes half a minute
    message = (f"an integer has more than {sys.get_int_max_str_digits()} digits, the "
               "interpreter's limit for converting between int and text; "
               "PYTHONINTMAXSTRDIGITS raises it")
    payload = {"error": {"category": "computation", "message": message}}
    assert result == (2, json.dumps(payload) + "\n" if "--json" in argv else "",
                      f"error: computation: {message}\n")


def test_decimal_exponents_read_exactly_up_to_the_digit_limit():
    limit = sys.get_int_max_str_digits()

    def read(text):  # the reader's reduced pair, as the Fraction it stands for
        return Fraction(*cli_mod._fraction_arg(text))

    assert read(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert read(f"-1.5e-{limit - 1}") == Fraction(-3, 2 * 10 ** (limit - 1))
    # 25 / 10**(limit + 1) is 1 / (4 * 10**(limit - 1)) in lowest terms
    assert read(f"25E-{limit + 1}") == Fraction(1, 4 * 10 ** (limit - 1))
    assert read(f"1_0e{limit - 2}") == 10 ** (limit - 1)
    for zero in ("0e16000000", "-0.0e-16000000"):
        assert read(zero) == 0
    for text in (f"1e{limit}", f"1e-{limit}", f"-3e{10**9}", "7.1e-16000000"):
        with pytest.raises(ComputationDiagnostic) as info:
            read(text)
        assert f"{limit} digits" in str(info.value)
    for text in ("1/2e3", "1e", "e3", "1e3.5", "1e_3", "1e3e3", "1 e3"):
        with pytest.raises(cli_mod._UsageError):
            read(text)


def test_decimal_exponents_are_not_bounded_without_a_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert cli_mod._fraction_arg(f"3e{limit}") == (3 * 10**limit, 1)
    finally:
        sys.set_int_max_str_digits(limit)


def _fraction_reference(text: str):
    """What a rational flag's text reads as, from Fraction(text) alone: its
    reduced pair, "usage" when it is no ASCII rational, or "digits" when
    a part has more digits than the interpreter's limit."""
    if not text.isascii():
        return "usage"
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return "usage"
    if max(abs(value.numerator), value.denominator) >= 10 ** sys.get_int_max_str_digits():
        return "digits"
    return value.numerator, value.denominator


def _json_answer(call) -> tuple[int, str]:
    """(exit code, --json stdout) that run() gives for a library call's
    answer or its DomainError."""
    try:
        return 0, json.dumps(call().to_json_dict()) + "\n"
    except DomainError as exc:
        return 1, json.dumps({"error": {"category": "usage", "message": str(exc)}}) + "\n"


# pieces of the forms Fraction reads and of their near misses: signs, leading
# zeros, _, spaces, decimals, e exponents, a non-ASCII digit, /0 and
# denominators that are, or are not, powers of 3
_FLAG_PIECES = st.sampled_from(["", "-", "+", " ", "\t", "_", "/", "/0", "/00", ".", "e",
                                "E-", "e+", "0", "00", "1", "7", "12", "3_4", "\u0663",
                                "/3", "/9", "/4", "/10", "/27", "/081"])
_FLAG_TEXTS = (st.lists(_FLAG_PIECES, min_size=1, max_size=5).map("".join)
               | st.text("0123456789-+/_.eE \u0663", min_size=1, max_size=10)
               | st.builds("{}{}{}{}{}".format, st.sampled_from(["", "", "-", "+", " -"]),
                           st.from_regex(r"0*[0-9]{1,5}(_[0-9]{1,2})?", fullmatch=True),
                           st.sampled_from(["", "/3", "/9", "/27", "/081", "/6", "/10", "/0"]),
                           st.sampled_from(["", "", ".5", "e2", "E-1"]),
                           st.sampled_from(["", "", " "])))


@settings(max_examples=300, deadline=None)
@given(text=_FLAG_TEXTS)
@example(text="1" * (sys.get_int_max_str_digits() + 1))
@example(text="1/" + "0" * sys.get_int_max_str_digits() + "3")
@example(text=f"1e{sys.get_int_max_str_digits()}")
@example(text=f"-7/1{'0' * (sys.get_int_max_str_digits() - 1)}")
def test_the_flag_reader_reads_what_fraction_reads(text):
    # a nonempty text without a comma is one cech-check degree; --deg=-- is
    # argparse's missing value, not a text
    assume(text and "," not in text and text != "--")
    expected = _fraction_reference(text)
    h0_argv = ["h0", "--n", "1", f"--deg={text}", "--p", "3", "--grades", "2", "--json"]
    cech_argv = ["cech-check", "--n", "1", f"--degrees={text}", "--i", "2", "--p", "3",
                 "--json"]
    if isinstance(expected, tuple):
        assert cli_mod._fraction_arg(text) == expected
        degree = Fraction(*expected)
        assert invoke(h0_argv)[:2] == _json_answer(
            lambda: braided.h0(braided.line_bundle(1, degree, 3), 2))
        assert invoke(cech_argv)[:2] == _json_answer(
            lambda: verify_theorems(1, [degree], 2, 3))
        return
    if expected == "usage":
        error = (1, "usage", f"not a rational number: {text!r}")
    else:
        error = (2, "computation", _digit_limit_message())
    code, category, message = error
    for argv in (h0_argv, cech_argv):
        assert invoke(argv) == (
            code, json.dumps({"error": {"category": category, "message": message}}) + "\n",
            f"error: {category}: {message}\n")


def test_other_value_errors_escape_run(monkeypatch):
    def bug(*args, **kwargs):
        raise ValueError("not a digit-limit error")

    monkeypatch.setitem(cli_mod._COMMANDS, "mult", (cli_mod._COMMANDS["mult"][0], bug))
    with pytest.raises(ValueError, match="not a digit-limit error"):
        invoke(["mult", "--f", "x", "--g", "y", "--p", "2", "--json"])


def test_byte_identical_reruns():
    for argv in [
        ["h0", "--n", "2", "--deg", "3", "--p", "2", "--grades", "4", "--json"],
        ["hn", "--n", "1", "--deg=-5", "--p", "3", "--grades", "4"],
        ["mult", "--f", "y^2 - x^3", "--g", "x", "--p", "2", "--grades", "2", "--json"],
        ["veronese", "--n", "1", "--d", "2", "--p", "3", "--grades", "3"],
        ["cech-check", "--n", "1", "--degrees=-2,0,2", "--i", "1", "--p", "2", "--json"],
    ]:
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_reduced_flag():
    code, out, _ = invoke(["h0", "--n", "1", "--deg", "2", "--p", "3",
                           "--grades", "3", "--reduced", "--json"])
    assert json.loads(out)["grades"] == [3, 4, 12]


@pytest.mark.parametrize("argv", [
    ["veronese", "--n", "2", "--d", "2"],
    ["kunneth", "--n", "1", "--m", "1", "--a", "1", "--b", "1"],
    ["bezout-line", "--s", "1", "--t", "1"],
    ["bezout-chi", "--d", "3", "--degf", "1", "--degg", "1"],
    ["mult", "--f", "y", "--g", "x"],
    ["blowup", "--f", "y - x^2"],
    ["cech-check", "--n", "1", "--degrees=-1,1", "--i", "0"],
])
def test_reduced_is_a_usage_error_where_nothing_reads_it(argv):
    # only h0, hn and euler count monomials; the others printed the same
    # bytes with or without --reduced
    argv = argv + ["--p", "3", "--grades", "2"]
    assert invoke(argv)[0] == 0
    message = "unrecognized arguments: --reduced"
    assert invoke(argv + ["--reduced", "--json"]) == (
        1, json.dumps({"error": {"category": "usage", "message": message}}) + "\n",
        f"error: usage: {message}\n")


def test_mult_pure_powers_deep_grades():
    # x against y rooted five times is x^(5^5) against y^(5^5): 5^5 powers of
    # y to divide out, once a recursion per power
    code, out, err = invoke(["mult", "--f", "x", "--g", "y", "--p", "5",
                             "--grades", "5", "--json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["diagonal"] == [1] * 6
    assert payload["mixed"][5][-1] == 5**10  # root depths (0, 0) at grade 5


def _table_cells(out):
    lines = out.splitlines()
    return lines[0], [line.split(" | ") for line in lines[1:]]


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(["h0", "hn"]), n=st.integers(0, 3),
       p=st.sampled_from([2, 3, 5]), num=st.integers(-5, 5), k=st.integers(0, 2),
       grades=st.integers(1, 3), reduced=st.booleans())
def test_table_cell_is_first_eight_of_piece(which, n, p, num, k, grades, reduced):
    deg = PAdicFrac.from_fraction(Fraction(num, p**k), p)
    assume(abs(deg.num) * p ** (grades - 1) <= 40)
    argv = [which, "--n", str(n), f"--deg={num}/{p**k}", "--p", str(p),
            "--grades", str(grades)] + (["--reduced"] if reduced else [])
    code, out, err = invoke(argv)
    assert code == 0 and err == ""
    header, rows = _table_cells(out)
    listed = deg.num >= 0 if which == "h0" else deg.num < 0
    if not listed:
        assert header == "power of p | dim"
        return
    assert header == "power of p | monomials | dim"
    enumerate_piece = enumerate_h0_monomials if which == "h0" else enumerate_hn_monomials
    assert len(rows) == grades
    for j, (label, cell, dim) in enumerate(rows):
        assert int(label) == deg.pexp + j
        piece = enumerate_piece(n, abs(deg.num), j, p, reduced=reduced)
        shown = ["(" + ",".join(str(e.scaled(j)) for e in v) + ")"
                 for v in piece.vectors[:8]]
        if piece.count > 8:
            shown.append("...")
        assert cell == " ".join(shown)
        assert int(dim) == piece.count


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 3), negative=st.booleans(), num=st.integers(0, 7),
       k=st.integers(0, 2), p=st.sampled_from([2, 3, 5]), grades=st.integers(1, 4),
       reduced=st.booleans())
def test_integer_cells_match_the_fraction_oracle(n, negative, num, k, p, grades, reduced):
    deg = PAdicFrac.from_fraction(Fraction(-num - 1 if negative else num, p**k), p)
    argv = ["hn" if negative else "h0", "--n", str(n), f"--deg={deg}", "--p", str(p),
            "--grades", str(grades)] + (["--reduced"] if reduced else [])
    code, out, err = invoke(argv)
    assert code == 0 and err == ""
    _, rows = _table_cells(out)
    assert [cell for _, cell, _ in rows] == [
        fraction_table_cell(n, deg, deg.pexp + j, p, reduced) for j in range(grades)]


# the h0 table of --grades 1500, as the PAdicFrac cell path printed it
_TABLE_1500_SHA256 = "cc3a64dbdc3f4a6160dc06eb1dceb99be4d54677f427732572421cff5e21e3b9"


def test_tables_make_no_normalize_calls(monkeypatch):
    import perfproj.enumeration as enumeration

    calls = []
    real = enumeration.normalize

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(enumeration, "normalize", counting)
    for argv in (["h0", "--n", "2", "--deg", "4", "--p", "3", "--grades", "3"],
                 ["hn", "--n", "2", "--deg=-7/5", "--p", "5", "--grades", "3", "--reduced"]):
        code, out, _ = invoke(argv)
        assert code == 0 and "..." in out
    code, out, _ = invoke(["h0", "--n", "1", "--deg", "1", "--p", "5", "--grades", "1500"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_1500_SHA256
    assert calls == []
    # the public iterators still pass through the counted name
    next(enumeration.iter_hn_monomials(1, 2, 1, 3))
    assert calls


def test_json_sections_enumerate_nothing(monkeypatch):
    import perfproj.enumeration as enumeration

    def refuse(*args):
        raise AssertionError("enumerated under --json")

    monkeypatch.setattr(enumeration, "_compositions", refuse)
    code, out, _ = invoke(["h0", "--n", "3", "--deg", "5", "--p", "5",
                           "--grades", "3", "--json"])
    assert code == 0
    assert json.loads(out)["grades"] == [56, 3276, 341376]
    code, out, _ = invoke(["hn", "--n", "2", "--deg=-7/5", "--p", "5",
                           "--grades", "3", "--reduced", "--json"])
    assert code == 0
    assert json.loads(out)["grades"] == [15, 546, 14490]


def test_veronese_negative_dimension_is_usage_error():
    # composing a degree into n + 1 = 0 parts recursed without end
    code, out, err = invoke(["veronese", "--n", "-1", "--d", "2", "--p", "2", "--json"])
    assert code == 1
    assert json.loads(out) == {"error": {
        "category": "usage", "message": "projective dimension must be non-negative"}}
    assert err == "error: usage: projective dimension must be non-negative\n"


@pytest.mark.parametrize("argv, message", [
    # int() rejected the superscript after the tokenizer took it for a digit
    (["mult", "--f", "x²", "--g", "y", "--p", "2", "--grades", "1"],
     "unexpected character '²' (at position 1)"),
    # an Arabic-Indic three was read as the coefficient 3
    (["blowup", "--f", "٣*x", "--p", "2"], "unexpected character '٣' (at position 0)"),
], ids=["superscript-two", "arabic-indic-three"])
def test_non_ascii_digit_in_a_curve_is_a_usage_error(argv, message):
    code, out, err = invoke(argv + ["--json"])
    assert code == 1
    assert json.loads(out) == {"error": {"category": "usage", "message": message}}
    assert err == f"error: usage: {message}\n"


def test_a_power_written_with_two_stars_is_a_usage_error():
    # y**2 - x**3 was read as the curve 2*y - 3*x
    code, out, err = invoke(["mult", "--f", "y**2 - x**3", "--g", "y", "--p", "3", "--json"])
    message = "expected a coefficient or monomial (at position 2)"
    assert (code, out, err) == (
        1, json.dumps({"error": {"category": "usage", "message": message}}) + "\n",
        f"error: usage: {message}\n")


@pytest.mark.parametrize("degrees, p, message", [
    ("1/6,abc", "2", "denominator not a power of 2"),
    ("abc,1/6", "2", "not a rational number: 'abc'"),
    ("1,abc", "4", "4 is not a prime"),
    ("1/6", "4", "4 is not a prime"),
])
def test_cech_check_reports_the_first_bad_degree(degrees, p, message):
    # each degree text is read just before the library converts it
    code, out, _ = invoke(["cech-check", "--n", "-1", f"--degrees={degrees}", "--i", "0",
                           "--p", p, "--json"])
    assert (code, json.loads(out)) == (1, {"error": {"category": "usage", "message": message}})


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_veronese_formats_each_monomial_once(monkeypatch, mode):
    import perfproj.geometry as geometry

    heads, tables, suffixes = [], [], []
    real_compositions = geometry._compositions
    real_tables = geometry._factor_tables
    real_suffix = geometry._power_suffix

    def counting_compositions(total, parts, sign):
        for head in real_compositions(total, parts, sign):
            heads.append((total, parts, head))
            yield head

    def counting_tables(names, i, p, total):
        tables.append(i)
        suffixes.append([])
        return real_tables(names, i, p, total)

    def counting_suffix(num, pexp, p):
        suffixes[-1].append((num, pexp))
        return real_suffix(num, pexp, p)

    monkeypatch.setattr(geometry, "_compositions", counting_compositions)
    monkeypatch.setattr(geometry, "_factor_tables", counting_tables)
    monkeypatch.setattr(geometry, "_power_suffix", counting_suffix)
    code, out, _ = invoke(["veronese", "--n", "3", "--d", "5", "--p", "3",
                           "--grades", "2"] + mode)
    assert code == 0
    if mode:
        shown = [g["monomials"] for g in json.loads(out)["tower"]]
    else:
        shown = [line.partition("[")[2][:-1].split(":") for line in out.splitlines()]
    # each coordinate of a grade is written once: C(3**i * 5 + 3, 3) at grade i
    assert [len(set(grade)) for grade in shown] == [len(grade) for grade in shown] == [
        count_h0_monomials(3, 5, i, 3) for i in range(2)]
    # only heads are drawn: the compositions of 3**i * 5 into n = 3 parts,
    # C(3**i * 5 + 2, 2) at grade i
    assert {(total, parts) for total, parts, _ in heads} == {(5, 3), (15, 3)}
    assert len(heads) == comb(5 + 2, 2) + comb(15 + 2, 2)
    # one table per grade, whose suffixes are each formatted at most once:
    # one per entry c in 0..3**i * 5 of the grade
    assert tables == [0, 1]
    assert [len(calls) for calls in suffixes] == [5 + 1, 15 + 1]
    assert all(len(set(calls)) == len(calls) for calls in suffixes)


def _work_counts(monkeypatch, argv):
    """exponents.normalize calls and PAdicFrac constructions during one run."""
    counts = {"normalize": 0, "PAdicFrac": 0}
    real_normalize = exponents.normalize
    real_post_init = PAdicFrac.__post_init__

    def normalize(*args):
        counts["normalize"] += 1
        return real_normalize(*args)

    def post_init(self, *checked):
        counts["PAdicFrac"] += 1
        real_post_init(self, *checked)

    with monkeypatch.context() as m:
        for name, module in list(sys.modules.items()):
            if name.startswith("perfproj") and getattr(module, "normalize", None) is real_normalize:
                m.setattr(module, "normalize", normalize)
        m.setattr(PAdicFrac, "__post_init__", post_init)
        code, _, _ = invoke(argv)
    assert code == 0
    return counts


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_veronese_work_does_not_grow_with_the_monomials(monkeypatch, mode):
    # --d 7 lists C(191, 2) = 18,145 grade-2 monomials, --d 2 lists 1,540
    def work(d):
        return _work_counts(monkeypatch, ["veronese", "--n", "2", "--d", str(d), "--p", "3",
                                          "--grades", "3"] + mode)

    assert work(2) == work(7)


@pytest.mark.parametrize("argv", [
    ["kunneth", "--n", "2", "--m", "1", "--a=2/3", "--b=-1", "--p", "3"],
    ["bezout-line", "--s=2/3", "--t", "5", "--p", "3"],
    ["euler", "--n", "2", "--deg=-7/3", "--p", "3", "--reduced", "--json"],
    ["euler", "--n", "3", "--deg=5/9", "--p", "3", "--json"],
], ids=["kunneth", "bezout-line", "euler-negative", "euler-positive"])
def test_closed_form_work_does_not_grow_with_the_grades(monkeypatch, argv):
    # a degree is checked, and its PAdicFrac built, once per tuple, not per grade read
    def work(grades):
        return _work_counts(monkeypatch, argv + ["--grades", str(grades)])

    assert work(2) == work(9)


def test_too_many_veronese_variables_fail_before_enumerating(monkeypatch):
    import perfproj.enumeration as enumeration
    import perfproj.geometry as geometry

    # the names were checked after C(37, 10) grade-2 vectors were enumerated;
    # geometry draws its heads through its own name for the walk
    def refuse(*args):
        raise AssertionError("enumerated before the names were checked")

    for module in (enumeration, geometry):
        monkeypatch.setattr(module, "_compositions", refuse)
    message = "the grammar names at most 10 variables"
    assert invoke(["veronese", "--n", "10", "--d", "2", "--p", "3", "--grades", "3",
                   "--json"]) == (
        1, json.dumps({"error": {"category": "usage", "message": message}}) + "\n",
        f"error: usage: {message}\n")


# veronese over n = -1..10, d in {-1, 0, 1, 2, 3, 7}, p in {2, 3, 5, 4} and
# --grades 0..3, in both modes, as the PAdicFrac-per-entry code printed it; a
# request that passes every check is kept if its tower has at most 2,000
# monomials
_VERONESE_SHA256 = "fa2f0d48b43b49a8367f3122c0b027ba8056bf77ed51352972d9390a49ccf309"


def _veronese_requests():
    for n in range(-1, 11):
        for d in (-1, 0, 1, 2, 3, 7):
            for p in (2, 3, 5, 4):
                for grades in range(4):
                    if (n >= 0 and d >= 1 and p != 4
                            and sum(count_h0_monomials(n, d, i, p) for i in range(grades)) > 2000):
                        continue
                    argv = ["veronese", "--n", str(n), "--d", str(d), "--p", str(p),
                            "--grades", str(grades)]
                    yield argv
                    yield argv + ["--json"]


def test_veronese_prints_the_pinned_output():
    digest = hashlib.sha256()
    codes = []
    for argv in _veronese_requests():
        result = invoke(argv)
        codes.append(result[0])
        digest.update(json.dumps(result).encode() + b"\n")
    assert (len(codes), codes.count(0), codes.count(1)) == (2012, 474, 1538)
    assert digest.hexdigest() == _VERONESE_SHA256


@pytest.mark.parametrize("argv", [
    ["h0", "--n", "1", "--deg", "2/5", "--p", "3", "--js"],
    ["h0", "--n", "1", "--deg", "2", "--p", "3", "--grades", "2", "--js"],
])
def test_abbreviated_flags_are_usage_errors(argv):
    code, out, err = invoke(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: usage: ")


@pytest.mark.parametrize("argv", [
    ["mult", "--f=--", "--g", "y", "--p", "2"],
    ["h0", "--n=--", "--deg", "1", "--p", "3"],
    ["cech-check", "--n", "1", "--degrees=--", "--i", "1", "--p", "2"],
    ["h0", "--n", "1", "--deg", "1", "--p", "3", "--grades=--"],
])
def test_a_flag_given_as_dashdash_is_a_usage_error(argv):
    # argparse drops the "--" of --flag=-- and stored an empty list, which
    # then ended in a traceback
    flag = next(token for token in argv if token.endswith("=--")).removesuffix("=--")
    message = f"argument {flag}: expected one argument"
    assert invoke(argv + ["--json"]) == (
        1, json.dumps({"error": {"category": "usage", "message": message}}) + "\n",
        f"error: usage: {message}\n")


@st.composite
def _section_argv(draw):
    p = draw(st.sampled_from([2, 3, 5]))

    def degree(lowest: int) -> str:
        return f"{draw(st.integers(lowest, 6))}/{p ** draw(st.integers(0, 2))}"

    command = draw(st.sampled_from(["h0", "hn", "euler", "bezout-line", "bezout-chi",
                                    "kunneth"]))
    if command in ("h0", "hn", "euler"):
        argv = [command, "--n", str(draw(st.integers(0, 3))), f"--deg={degree(-6)}"]
        if draw(st.booleans()):
            argv.append("--reduced")
    elif command == "bezout-line":
        argv = [command, f"--s={degree(1)}", f"--t={degree(1)}"]
    elif command == "bezout-chi":
        degf, degg = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        argv = [command, f"--d={degf + degg + Fraction(degree(0))}",
                "--degf", str(degf), "--degg", str(degg)]
    else:
        argv = [command, "--n", str(draw(st.integers(1, 3))), "--m",
                str(draw(st.integers(1, 3))), f"--a={degree(-6)}", f"--b={degree(-6)}"]
    return argv + ["--p", str(p), "--grades", str(draw(st.integers(1, 4)))]


@settings(max_examples=150, deadline=None)
@given(argv=_section_argv())
def test_json_and_table_report_the_same_grades(argv):
    code, text, _ = invoke(argv)
    json_code, out, _ = invoke(argv + ["--json"])
    assert code == json_code
    assume(code == 0)
    payload = json.loads(out)
    rows = text.splitlines()
    if argv[0] == "kunneth":
        grades = int(argv[argv.index("--grades") + 1])
        assert len(rows) == len(payload["cohomology"])
        for idx, (row, dim) in enumerate(zip(rows, payload["cohomology"])):
            assert dim["offset"] == 0 and len(dim["grades"]) == grades
            assert row == f"h^{idx}: " + " ".join(str(v) for v in dim["grades"])
        return
    labels = [str(payload["offset"] + j) for j in range(len(payload["grades"]))]
    cells = [row.split(" | ") for row in rows[1:]]
    assert [(c[0], c[-1]) for c in cells] == list(zip(labels, map(str, payload["grades"])))


# --help and each <cmd> --help at COLUMNS=80, with --reduced listed for h0,
# hn and euler only, by Python version: argparse of 3.13 wraps the top-level
# usage line one line shorter
_HELP_SHA256 = {
    (3, 11): "fda9e4f69e112da36b5c391bd9a7bf32638e60a3d5ba237d71858451e77f8224",
    (3, 12): "fda9e4f69e112da36b5c391bd9a7bf32638e60a3d5ba237d71858451e77f8224",
    (3, 13): "f8e0f29acaf084ae76f50cc4cd8a1096df7cc49cd417df2440b19a3831abc8fb",
}


def test_help_text_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for argv in [["--help"]] + [[command, "--help"] for command in cli_mod._COMMANDS]:
        digest.update(json.dumps(invoke(argv)).encode() + b"\n")
    version = sys.version_info[:2]
    assert version in _HELP_SHA256, f"no help digest is pinned for Python {version}"
    assert digest.hexdigest() == _HELP_SHA256[version]


def test_help_is_written_to_out(capsys):
    for argv, usage in [(["--help"], "usage: perfproj "),
                        (["h0", "--help"], "usage: perfproj h0 ")]:
        code, out, err = invoke(argv)
        assert code == 0 and err == ""
        assert out.startswith(usage)
    assert capsys.readouterr() == ("", "")


_REUSE_SEQUENCE = [
    ["h0", "--n", "1", "--deg", "2", "--p", "3", "--grades", "2"],
    ["hn", "--n", "1", "--deg=-5/3", "--p", "3", "--grades", "2", "--json"],
    ["euler", "--n", "2", "--deg=-4", "--p", "2", "--grades", "2", "--reduced"],
    ["bezout-line", "--s", "2", "--t", "3", "--p", "3", "--grades", "2"],
    ["bezout-chi", "--d", "6", "--degf", "2", "--degg", "3", "--p", "2", "--json"],
    ["kunneth", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--p", "3", "--grades", "2"],
    ["veronese", "--n", "1", "--d", "2", "--p", "3", "--grades", "2"],
    ["mult", "--f", "y^2 - x^3", "--g", "x", "--p", "2", "--grades", "1"],
    ["blowup", "--f", "y^(1/4) - x^(1/4) + x^(1/2)", "--p", "2"],
    ["cech-check", "--n", "1", "--degrees=-1,1", "--i", "1", "--p", "3", "--json"],
    ["h0", "--n", "1", "--deg", "x", "--p", "3", "--json"],
    ["h0", "--n", "1", "--deg", "2", "--p", "3", "--grades", "x"],
    ["hn", "--n", "1", "--deg", "1/0", "--p", "3"],
    ["nonsense", "--p", "3", "--json"],
    ["mult", "--f", "x", "--p", "2", "--json"],
    ["kunneth", "--n", "1", "--p", "3"],
    ["veronese", "--n", "1", "--d", "2", "--p", "3", "extra", "--json"],
    ["h0", "--n", "1", "--deg", "2", "--p"],
    [],
    ["--help"],
    ["h0", "--help"],
]


def test_shared_parser_matches_a_fresh_one(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cli_mod, "_build_parser", cli_mod._build_parser.__wrapped__)
        fresh = [invoke(argv) for argv in _REUSE_SEQUENCE]
    built = []
    real_init = cli_mod._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli_mod._Parser, "__init__", counting_init)
    cli_mod._build_parser.cache_clear()
    for _ in range(2):
        assert [invoke(argv) for argv in _REUSE_SEQUENCE] == fresh
    # the top-level parser and one per subcommand, built by the first call only
    assert len(built) == 1 + len(cli_mod._COMMANDS)


# the library function each subcommand must call
_LIBRARY_CALLS = {
    "h0": "braided.h0", "hn": "braided.hn_top", "euler": "braided.euler",
    "bezout-line": "geometry.bezout_line", "bezout-chi": "geometry.bezout_chi",
    "kunneth": "braided.kunneth", "veronese": "geometry.veronese",
    "mult": "intersect.braided_multiplicity", "blowup": "geometry.blowup_origin",
    "cech-check": "cech.verify_theorems",
}


def _counting(fn, key, calls):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_every_subcommand_calls_the_library_functions_bound_when_it_runs(monkeypatch):
    # as perfbench's tracer does: each library function is rebound to a
    # wrapper in every perfproj module namespace that holds it, so a runner
    # that kept the function object it saw at import would bypass the wrapper
    requests = _REUSE_SEQUENCE[:len(_LIBRARY_CALLS)]  # one answer of each subcommand
    assert [argv[0] for argv in requests] == list(_LIBRARY_CALLS) == list(cli_mod._COMMANDS)
    untraced = [invoke(argv) for argv in requests]
    modules = [module for name, module in sys.modules.items()
               if name == "perfproj" or name.startswith("perfproj.")]
    calls = Counter()
    for key in _LIBRARY_CALLS.values():
        layer, name = key.split(".")
        fn = getattr(sys.modules[f"perfproj.{layer}"], name)
        wrapper = _counting(fn, key, calls)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    for argv, before in zip(requests, untraced):
        calls.clear()
        assert invoke(argv) == before
        assert calls[_LIBRARY_CALLS[argv[0]]] > 0, argv[0]


# -- fuzzing the exit contract -------------------------------------------------------

def _value(valid, edge):
    """A value from valid three times in four, else a boundary or bad one."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(valid if k else edge))


# non-ASCII digits: an Arabic-Indic three and a fullwidth two
_INT = _value(["-1", "0", "1", "2", "3"], ["٣", "２"])
_FRACTION = _value(["2", "-5/3", "1/2", "3/4", "0", "-1"],
                   ["1/0", "2/5", "1/6", "٣", "1/٣"])
_CURVE = _value(["x", "y", "y-x", "y^2-x^3", "x*y", "y^(1/2)-x", "x^(1/2)*y-x",
                 "1", "y-x^(-1)"],
                ["0", "x^(1/3)+y", "y^(1/0)", "x +", "x^(1/2", "2*",
                 "x²", "٣*x", "y^¹"])
_FLAGS = {
    "h0": {"--n": _INT, "--deg": _FRACTION},
    "hn": {"--n": _INT, "--deg": _FRACTION},
    "euler": {"--n": _INT, "--deg": _FRACTION},
    "bezout-line": {"--s": _FRACTION, "--t": _FRACTION},
    "bezout-chi": {"--d": _value(["6", "5", "9/2", "7/4"], ["1", "0", "1/0"]),
                   "--degf": _INT, "--degg": _INT},
    "kunneth": {"--n": _INT, "--m": _INT, "--a": _FRACTION, "--b": _FRACTION},
    "veronese": {"--n": _INT, "--d": _value(["1", "2"], ["0", "-1"])},
    "mult": {"--f": _CURVE, "--g": _CURVE},
    "blowup": {"--f": _CURVE},
    "cech-check": {"--n": _value(["1", "2", "3", "4", "5", "6"], ["0", "-1", "7"]),
                   "--degrees": _value(["-1,1", "2", "-1/2,0", "1/2,-2,", "-7,12",
                                        "25/4,-3", "-81/8,5/3", "-100,1/25"],
                                       ["1/0", "1/3", "", ",", "1,,x", "٣,1"]),
                   "--i": _value(["0", "1", "2", "3"], ["-1", "7000"])},
}
_COMMON = {"--p": _value(["2", "3", "5"], ["4", "1", "0", "-3", "٣"]),
           "--grades": _value(["1", "2", "3"], ["0", "-1", "２"])}
# at most one fault injected into an argv of well-formed flags
_EDITS = ["drop", "twice", "bare", "garbage", "stray", "abbrev"]


@st.composite
def _argv(draw, command):
    flags = {**_FLAGS.get(command, {}), **_COMMON}
    tokens = {flag: [f"{flag}={draw(values)}"] for flag, values in flags.items()}
    edit = draw(st.none() | st.sampled_from(_EDITS))
    flag = draw(st.sampled_from(sorted(flags)))
    if edit == "drop":
        tokens[flag] = []
    elif edit == "twice":
        tokens[flag].append(f"{flag}={draw(flags[flag])}")
    elif edit == "bare":
        tokens[flag] = [flag]
    elif edit == "garbage":
        tokens[flag] = [f"{flag}=?"]
    elif edit == "abbrev" and len(flag) > 3:
        tokens[flag] = [tokens[flag][0].replace(flag, flag[:-1], 1)]
    rest = ["stray"] if edit == "stray" else []
    rest += [t for name in flags for t in tokens[name]]
    rest += [extra for extra in ("--json", "--reduced") if draw(st.booleans())]
    return [command] + draw(st.permutations(rest))


@pytest.mark.parametrize("command", sorted(_FLAGS) + ["nonsense"])
@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_every_argv_ends_in_the_exit_contract(command, data):
    argv = data.draw(_argv(command))
    code, out, err = invoke(argv)
    assert code in (0, 1, 2)
    if code:
        kind = "usage" if code == 1 else "computation"
        assert err.startswith(f"error: {kind}: ")
    if "--json" in argv:
        payload = json.loads(out)
        if code:
            assert payload["error"]["category"] == kind


# mult and blowup over the curve corpus, as the FracPoly-per-entry code printed them
_CURVES_SHA256 = "6fe086ce3bf6f163131cb456852f543ce4e2e8841603f2164bc7b71c4cbb261f"


def _curve_requests():
    for f in CURVE_CORPUS_TEXT:
        for g in CURVE_CORPUS_TEXT:
            argv = ["mult", "--f", f, "--g", g, "--p", "2", "--grades", "2"]
            yield argv
            yield argv + ["--json"]
    for f in CURVE_CORPUS_TEXT + rooted_texts(2):
        argv = ["blowup", "--f", f, "--p", "2"]
        yield argv
        yield argv + ["--json"]


def test_curve_commands_print_the_pinned_output():
    digest = hashlib.sha256()
    for argv in _curve_requests():
        digest.update(json.dumps(invoke(argv)).encode() + b"\n")
    assert digest.hexdigest() == _CURVES_SHA256


# cech-check over n = 1..6, p in {2, 3, 5}, i = 0..2 and an integer and a
# fractional degree list, in both modes, as the once-per-sign-mask ranks printed it
_CECH_SHA256 = "f64b28a868cf3a115522c9043b2df5cd5e4ef8c223f9e4b79011d28b9256a611"


def _cech_requests():
    for n in range(1, 7):
        for p in (2, 3, 5):
            for i in range(3):
                for degrees in ("-3,-1,0,2,5", f"-1/{p},2/{p}"):
                    argv = ["cech-check", "--n", str(n), f"--degrees={degrees}",
                            "--i", str(i), "--p", str(p)]
                    yield argv
                    yield argv + ["--json"]


def test_cech_check_prints_the_pinned_output():
    digest = hashlib.sha256()
    codes = []
    for argv in _cech_requests():
        result = invoke(argv)
        codes.append(result[0])
        digest.update(json.dumps(result).encode() + b"\n")
    # the fractional list needs grade >= 1: its 36 runs at i = 0 exit 1
    assert (len(codes), codes.count(1)) == (216, 36)
    assert digest.hexdigest() == _CECH_SHA256


# h0, hn and euler at integer and fractional degrees of either sign, with and
# without --reduced, and bezout-line, bezout-chi and kunneth over a small grid,
# each in both modes, as the two h0/hn tuple builders printed them
_SECTIONS_SHA256 = "738d3daef301f7ea53543abbe76f9ab06ee061e4b84a8642297aee938d408dd4"


def _section_requests():
    for p in (2, 3):
        common = ["--p", str(p), "--grades", "3"]
        fractions = (f"1/{p}", f"-5/{p}", f"7/{p * p}", f"-4/{p * p}")
        for command in ("h0", "hn", "euler"):
            for n in (0, 1, 2):
                for deg in ("-3", "-1", "0", "2") + fractions:
                    argv = [command, "--n", str(n), f"--deg={deg}"] + common
                    yield from (argv, argv + ["--reduced"])
        for s in ("1", "2") + fractions[::2]:
            for t in ("1", f"3/{p}"):
                yield ["bezout-line", f"--s={s}", f"--t={t}"] + common
        for d in ("1", "3", "4", f"11/{p}"):
            for degf, degg in ((1, 1), (1, 2), (2, 2)):
                yield ["bezout-chi", f"--d={d}", "--degf", str(degf),
                       "--degg", str(degg)] + common
        for n, m in ((1, 1), (1, 2), (2, 1)):
            for a in ("-3", "0", "2", fractions[0]):
                for b in ("-2", "1", fractions[3]):
                    yield ["kunneth", "--n", str(n), "--m", str(m), f"--a={a}",
                           f"--b={b}"] + common


def test_section_commands_print_the_pinned_output():
    digest = hashlib.sha256()
    for argv in _section_requests():
        for run_argv in (argv, argv + ["--json"]):
            digest.update(json.dumps(invoke(run_argv)).encode() + b"\n")
    assert digest.hexdigest() == _SECTIONS_SHA256


# -- the flag-table reader -----------------------------------------------------------

def _invoke_through_argparse(argv):
    with mock.patch.object(cli_mod, "_fast_args", return_value=None):
        return invoke(argv)


def _refuse_to_build():
    raise AssertionError("the argparse tree was built for a well-formed argv")


# a repeated flag or switch: each value is converted in order, the last one wins
_REPEATED_FLAG_ARGVS = [
    ["h0", "--n", "1", "--deg", "2", "--p", "3", "--deg=-5/3", "--grades", "2"],
    ["hn", "--json", "--n", "2", "--deg=-4", "--p", "5", "--p", "3", "--json"],
    ["kunneth", "--n", "1", "--m", "1", "--a", "1", "--b", "1", "--p", "3", "--m", "2",
     "--a=1/3", "--grades", "2", "--grades", "3"],
    ["euler", "--reduced", "--n", "1", "--deg", "2", "--p", "2", "--reduced", "--n", "2"],
    ["blowup", "--f", "x", "--f", "x*y+y^2", "--p", "2"],
]


def test_well_formed_argvs_never_build_the_parser(monkeypatch):
    well_formed = _REUSE_SEQUENCE[:10] + _REPEATED_FLAG_ARGVS  # the rest are usage errors and help
    expected = [_invoke_through_argparse(argv) for argv in well_formed]
    monkeypatch.setattr(cli_mod, "_build_parser", _refuse_to_build)
    assert [invoke(argv) for argv in well_formed] == expected
    for requests, pinned in ((_curve_requests, _CURVES_SHA256),
                             (_cech_requests, _CECH_SHA256)):
        digest = hashlib.sha256()
        for argv in requests():
            digest.update(json.dumps(invoke(argv)).encode() + b"\n")
        assert digest.hexdigest() == pinned


# spellings around the well-formed ones: each must be declined by the reader
# or read exactly as argparse reads it
_ODD_VALUES = ["-1", "-5/3", "--", "", " 2", " -1", "  3/4", "-x", "2 "]
_ODD_TOKENS = ["--", "-h", "--help", "--json=1", "--json=", "--grades=", "--f=--",
               "--deg=--", "--p=", "--js", "--json", "--reduced", "stray", "-1", "--n"]


@st.composite
def _token_argv(draw):
    """Every flag once, each spelled --flag=value or --flag value, with at
    most one odd value or one odd token put in."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = {**_FLAGS[command], **_COMMON}
    values = {flag: draw(strategy) for flag, strategy in flags.items()}
    edit = draw(st.sampled_from([None, "value", "token"]))
    if edit == "value":
        values[draw(st.sampled_from(sorted(flags)))] = draw(st.sampled_from(_ODD_VALUES))
    groups = [[f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
              for flag, value in values.items()]
    groups += [[extra] for extra in ("--json", "--reduced") if draw(st.booleans())]
    if edit == "token":
        groups.append([draw(st.sampled_from(_ODD_TOKENS))])
    return [command] + [token for group in draw(st.permutations(groups))
                        for token in group]


@settings(max_examples=400, deadline=None)
@given(argv=st.sampled_from(sorted(_FLAGS) + ["nonsense"]).flatmap(_argv)
       | _token_argv())
@example(argv=["mult", "--f=--", "--g", "y", "--p", "2"])
@example(argv=["h0", "--n", "-1", "--deg", "-5/3", "--p", "3"])
@example(argv=["blowup", "--f", " -x", "--p", "2", "--json=1"])
def test_fast_reader_answers_as_argparse(argv):
    assert invoke(argv) == _invoke_through_argparse(argv)


def _fractional_curve(terms: int, p: int) -> str:
    """A curve through the origin with the given number of terms, each with
    the fractional factor x^(1/p)."""
    return " + ".join(f"{i}*x^(1/{p})*y^{i}" for i in range(1, terms + 1))


def _work(monkeypatch, argv) -> tuple[int, int]:
    """The PAdicFrac values one successful request builds, and the
    primality tests it runs, starting with no prime proven."""
    exponents._proven_prime.cache_clear()
    counts = [0, 0]
    real_post_init, real_is_prime = PAdicFrac.__post_init__, exponents.is_prime

    def counting_post_init(self, *checked):
        counts[0] += 1
        real_post_init(self, *checked)

    def counting_is_prime(p):
        counts[1] += 1
        return real_is_prime(p)

    with monkeypatch.context() as m:
        m.setattr(PAdicFrac, "__post_init__", counting_post_init)
        m.setattr(exponents, "is_prime", counting_is_prime)
        assert invoke(argv)[::2] == (0, "")
    return tuple(counts)


def test_mult_builds_no_padic_frac(monkeypatch):
    for terms in (1, 4, 12):
        argv = ["mult", "--f", _fractional_curve(terms, 3), "--g=y^2-x^3", "--p", "3",
                "--grades", "2", "--json"]
        assert _work(monkeypatch, argv)[0] == 0


def test_blowup_work_does_not_grow_with_the_curve(monkeypatch):
    built = [_work(monkeypatch, ["blowup", "--f", _fractional_curve(terms, 3), "--p", "3",
                                 "--json"])[0]
             for terms in (1, 4, 12)]
    assert built == [1, 1, 1]  # one extracted power, shared by both charts
    q = 2**61 - 1
    argv = ["blowup", "--f", _fractional_curve(12, q), "--p", str(q), "--json"]
    assert _work(monkeypatch, argv)[1] <= 3


_LARGE_PRIME_ARGVS = [
    ["h0", "--n", "1", "--deg", "2", "--grades", "3"],
    ["hn", "--n", "1", "--deg", "-2", "--grades", "3"],
    ["euler", "--n", "1", "--deg", "2", "--grades", "3"],
    ["bezout-line", "--s", "1", "--t", "2", "--grades", "3"],
    ["bezout-chi", "--d", "6", "--degf", "2", "--degg", "3", "--grades", "3"],
    ["kunneth", "--n", "1", "--m", "1", "--a", "1", "--b", "2", "--grades", "3"],
    ["veronese", "--n", "1", "--d", "2", "--grades", "1"],
    ["cech-check", "--n", "2", "--degrees=-1,1", "--i", "0"],
    ["mult", "--f", "y-x", "--g", "y", "--grades", "3"],
    ["blowup", "--f", "x*y+y^2"],
]


@pytest.mark.parametrize("argv", _LARGE_PRIME_ARGVS, ids=lambda argv: argv[0])
def test_each_command_proves_its_prime_at_most_once(monkeypatch, argv):
    # a Miller-Rabin proof at 2**61 - 1 costs about 0.2 ms; bezout-line
    # ran it 32 times per request and kunneth 23 times
    q = 2**61 - 1
    assert _work(monkeypatch, argv + ["--p", str(q), "--json"])[1] <= 1
