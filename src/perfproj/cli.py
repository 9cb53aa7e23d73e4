"""Command-line front-end.

Every subcommand produces deterministic output: exact arithmetic only, no
timestamps, fixed ordering.  Exit codes: 0 success, 1 usage error (bad
flags, grammar, preconditions), 2 computation diagnostic.  With --json the
payload, success or failure, is a single JSON document on stdout; errors
additionally print one machine-parsable line on stderr.

A well-formed argument list is read straight from the command table,
_COMMANDS; the argparse tree built from the same table parses only the
rest, so help and usage errors still read as argparse writes them.  An
integer flag is read as an int and a rational one as a reduced integer
pair, which exponents._from_ratio builds into Z[1/p] as the library does:
the prime is proven first, then the denominator read.  --help shows this
docstring up to this last paragraph.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Callable, NamedTuple

from . import braided, cech, geometry, intersect
from .braided import bundle_cohomology, kunneth, line_bundle
from .enumeration import _scaled_vectors
from .errors import ComputationDiagnostic, DomainError, ParseError
from .exponents import PAdicFrac, _from_ratio
from .fracpoly import parse as parse_poly


class _UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """--help was given; carries the help text for run() to write to out."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; the contract here is exit 1
    def error(self, message):
        raise _UsageError(message)

    # argparse prints help to sys.stdout and exits; run() writes it to its own
    # out instead, so the shared parser holds no stream
    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())

    # argparse drops the "--" of --flag=-- and stores an empty list, which no
    # flag takes: it is a flag without its value
    def parse_args(self, args=None, namespace=None):
        parsed = super().parse_args(args, namespace)
        for name, value in vars(parsed).items():
            if value == []:
                self.error(f"argument --{name}: expected one argument")
        return parsed


def _int_arg(text: str) -> int:
    """int(text) for ASCII text only: int() also reads other scripts' digits,
    such as the Arabic-Indic three.  Errors read as argparse's for type=int."""
    if text.isascii():
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


# the plain form of a rational flag, [-]digits[/digits] in ASCII digits, read
# without Fraction
_PLAIN_FORM = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# a decimal exponent and the text before it, as Fraction reads them
_EXPONENT_FORM = re.compile(r"(.*)[eE]([-+]?[0-9]+(?:_[0-9]+)*)\s*", re.DOTALL)


def _digit_limit_message() -> str:
    return (f"an integer has more than {sys.get_int_max_str_digits()} digits, the "
            "interpreter's limit for converting between int and text; "
            "PYTHONINTMAXSTRDIGITS raises it")


def _fraction_arg(text: str) -> tuple[int, int]:
    """The value Fraction(text) reads, as a reduced pair (numerator,
    denominator > 0), for ASCII text only, as _int_arg.

    Plain [-]digits[/digits] text is read as two ints; only the other forms
    Fraction reads (signs +, _, spaces, decimals, exponents) build a
    Fraction.  A value past the digit limit ends in its diagnostic before
    10**e is built: 10**|e| / b has more than |e| - b.bit_length() digits, b
    the mantissa's denominator (numerator if e < 0)."""
    try:
        plain = _PLAIN_FORM.fullmatch(text)
        if plain:
            num, den = int(plain[1]), int(plain[2] or 1)
            if den:  # a zero one raises in Fraction below
                g = gcd(num, den)
                return num // g, den // g
        if not text.isascii():
            raise ValueError(text)
        form, limit = _EXPONENT_FORM.fullmatch(text), sys.get_int_max_str_digits()
        if form is None or not limit:
            value = Fraction(text)
            return value.numerator, value.denominator
        mantissa, e = Fraction(form[1] + "e0"), int(form[2])
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"not a rational number: {text!r}") from None
    if not mantissa:
        return 0, 1
    small = mantissa.denominator if e >= 0 else abs(mantissa.numerator)
    if abs(e) - small.bit_length() < limit:
        value = mantissa * Fraction(10) ** e
        if max(abs(value.numerator), value.denominator) < 10**limit:
            return value.numerator, value.denominator
    raise ComputationDiagnostic(_digit_limit_message())


class _Flag(NamedTuple):
    """One subcommand flag, spelled --name.  convert reads its value (str for
    text); a flag without a converter is a bare switch.  A flag without a
    default must be given."""

    name: str
    convert: Callable[[str], object] | None
    default: object = None
    help: str | None = None


@functools.cache
def _build_parser() -> _Parser:
    """The parser tree of _COMMANDS, built on the first run() that needs it
    and shared by later calls.

    Parsing leaves no state on it: every parse makes a fresh Namespace, and
    errors and help raise instead of printing or exiting.
    """
    # no abbreviations: run() detects JSON mode by the exact token --json
    top = _Parser(prog="perfproj", description=__doc__.rpartition("\n\n")[0],
                  allow_abbrev=False)
    sub = top.add_subparsers(dest="command", metavar="|".join(_COMMANDS))
    for command, (flags, _) in _COMMANDS.items():
        sp = sub.add_parser(command, allow_abbrev=False)
        for flag in flags:
            if flag.convert is None:
                sp.add_argument(f"--{flag.name}", action="store_true", help=flag.help)
            else:
                sp.add_argument(f"--{flag.name}", type=flag.convert,
                                required=flag.default is None, default=flag.default,
                                help=flag.help)
    return top


def _fast_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a well-formed argv, read from _COMMANDS
    without building the parser; None for any other argv.

    Well-formed: the subcommand first, then its flags, each as --flag=value
    or as --flag value where value does not start with "-", switches bare,
    every flag without a default present and every value converted.  A
    repeated flag is read as argparse reads it: each value is converted in
    order and the last one wins.  Anything else, such as --, -h, an unknown
    or abbreviated flag, a stray token or a value that does not convert, is
    left to argparse, which alone writes help and usage errors.
    """
    flags = _OPTIONS.get(argv[0]) if argv else None
    if flags is None:
        return None
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        flag = flags.get(option)
        if flag is None:
            return None
        if flag.convert is None:
            if eq:
                return None
            given[flag.name] = True
            continue
        if not eq:
            value = next(tokens, "-")  # no value left declines too
            if value.startswith("-"):
                return None
        elif value == "--":  # argparse reads --flag=-- as a missing value
            return None
        try:
            given[flag.name] = flag.convert(value)
        except (argparse.ArgumentTypeError, _UsageError):
            return None
    for flag in flags.values():
        if flag.name not in given:
            if flag.default is None:
                return None
            given[flag.name] = flag.default
    args = argparse.Namespace(command=argv[0])
    vars(args).update(given)  # one dict update, not one setattr per flag
    return args


# -- table helpers -----------------------------------------------------------------

_MONOMIAL_CAP = 8


def _monomial_cell(n: int, deg: PAdicFrac, label: int, reduced: bool) -> str:
    """The first _MONOMIAL_CAP vectors at grade label, each entry times
    p**label, then "..." if there are more; deg is a checked bundle's degree
    and label at least its offset; the vectors are those of the signed total
    deg * p**label (_scaled_vectors)."""
    vectors = _scaled_vectors(n, deg.scaled(label), label, deg.prime, reduced)
    head = list(islice(vectors, _MONOMIAL_CAP + 1))
    shown = ["(" + ",".join(map(str, v)) + ")" for v in head[:_MONOMIAL_CAP]]
    if len(head) > _MONOMIAL_CAP:
        shown.append("...")
    return " ".join(shown)


def _dim_result(args, dim: braided.BraidedDim, cell=None):
    """The JSON payload of dim under --json, else its table lines.

    The last grade is written first: one past the digit limit would end the
    answer in its diagnostic anyway, so it ends it before the other grades are
    computed."""
    str(dim.at(dim.offset + dim.length - 1))
    return dim.to_json_dict() if args.json else _dim_table(dim, cell)


def _dim_table(dim: braided.BraidedDim, cell=None) -> list[str]:
    lines = ["power of p | monomials | dim" if cell else "power of p | dim"]
    for j, value in enumerate(dim.grades_list()):
        label = dim.offset + j
        if cell:
            lines.append(f"{label} | {cell(label)} | {value}")
        else:
            lines.append(f"{label} | {value}")
    return lines


# -- subcommand implementations ------------------------------------------------------
# Each builds only the printed form, the JSON payload or the table lines: values
# are computed on demand, so building both would compute them twice.

def _run_h0_family(args, which: str):
    bundle = line_bundle(args.n, _from_ratio(*args.deg, args.p), args.p)
    deg = bundle.degree
    fn = {"h0": braided.h0, "hn": braided.hn_top, "euler": braided.euler}[which]
    dim = fn(bundle, args.grades, reduced=args.reduced)
    cell = None
    if not args.json and which == ("hn" if deg.num < 0 else "h0"):  # --json only counts
        def cell(label: int) -> str:
            return _monomial_cell(args.n, deg, label, args.reduced)
    return _dim_result(args, dim, cell)


def _run_kunneth(args):
    # each degree is built just before its own bundle, so a bad --n is still
    # reported before a bad --b
    bundle_a = line_bundle(args.n, _from_ratio(*args.a, args.p), args.p)
    bundle_b = line_bundle(args.m, _from_ratio(*args.b, args.p), args.p)
    g = args.grades
    hA, hB = bundle_cohomology(bundle_a, g), bundle_cohomology(bundle_b, g)
    # the last grade first, as _dim_result writes it: each output's last grade
    # is a sum of products of the factors' last grades, none negative, so if
    # the largest product is past the digit limit, so is a value the full
    # answer prints, which would end in the same diagnostic
    str(max(t.at(g - 1) for t in hA) * max(t.at(g - 1) for t in hB))
    out = kunneth(hA, hB, g)
    if args.json:
        return {
            "p": args.p,
            "factors": {"n": args.n, "a": str(bundle_a.degree),
                        "m": args.m, "b": str(bundle_b.degree)},
            "cohomology": [dim.to_json_dict() for dim in out],
        }
    return [f"h^{idx}: " + " ".join(str(v) for v in dim.grades_list())
            for idx, dim in enumerate(out)]


def _run_veronese(args):
    maps = [geometry.veronese(args.n, args.d, i, args.p) for i in range(args.grades)]
    if args.json:
        return {
            "n": args.n,
            "d": args.d,
            "p": args.p,
            "tower": [{"grade": v.grade, "target_dim": v.target_dim,
                       "monomials": v.coordinate_strings()} for v in maps],
        }
    return [f"grade {v.grade}: P^{v.target_dim} {v.bracket()}" for v in maps]


def _run_mult(args):
    f = parse_poly(args.f, 2, args.p)
    g = parse_poly(args.g, 2, args.p)
    tup = intersect.braided_multiplicity(f, g, args.grades)
    if args.json:
        return tup.to_json_dict()
    lines = ["grade | diagonal | mixed row (F-power first)"]
    diag = tup.diagonal
    for i in range(args.grades + 1):
        row = " ".join(str(v) for v in tup.flattened_row(i))
        lines.append(f"{i} | {diag.at(i)} | {row}")
    return lines


def _run_blowup(args):
    f = parse_poly(args.f, 2, args.p)
    charts = geometry.blowup_origin(f)
    if args.json:
        return {"p": args.p, "curve": f.render(),
                "charts": [c.to_json_dict() for c in charts]}
    return _blowup_lines(charts)


def _blowup_lines(charts) -> list[str]:
    """The table text of blow-up charts, four lines a chart."""
    lines = []
    for c in charts:
        lines.append(f"chart {c.chart}=1 ({c.relation}):")
        lines.append(f"  extracted: {c.extracted}")
        lines.append(f"  transformed: {c.transformed.render(c.names)}")
        if c.exceptional.empty:
            lines.append(f"  exceptional: empty (witness {c.exceptional.constraint})")
        else:
            suffix = f" point {c.exceptional.point}" if c.exceptional.point else ""
            lines.append(f"  exceptional: {c.exceptional.constraint}{suffix}")
    return lines


def _run_cech_check(args):
    # read lazily: verify_theorems proves the prime and then converts each
    # degree as it reads it, so a bad prime is reported before any degree and
    # the first bad text or bad denominator is the one reported
    p = args.p
    degrees = (_from_ratio(*_fraction_arg(text), p) for text in args.degrees.split(",") if text)
    report = cech.verify_theorems(args.n, degrees, args.i, p)
    if args.json:
        return report.to_json_dict()
    lines = ["degree | weights | h0 | middle | hn | ok"]
    for s in report.per_degree:
        lines.append(f"{s.degree} | {s.weights_checked} | {s.h0_total} | "
                     f"{s.middle_total} | {s.hn_total} | {'yes' if s.ok else 'NO'}")
    lines.append(f"counterexamples: {len(report.counterexamples)}")
    return lines


_N = _Flag("n", _int_arg)
_COMMON = (
    _Flag("p", _int_arg, help="ambient prime"),
    _Flag("grades", _int_arg, 4, "grade horizon (default 4)"),
    _Flag("json", None, False, "JSON output"),
)
_H0_FLAGS = (_N, _Flag("deg", _fraction_arg, help="degree, e.g. 2 or -5/3 (use --deg=-5/3)"),
             _Flag("reduced", None, False, "count only exact-denominator monomials"))

# subcommand -> (every flag, in the order --help lists them; its runner), in
# the order --help lists the subcommands.  A runner names the library functions
# it calls when it runs, never at import: tracing rebinds them while requests run
_COMMANDS = {command: (flags + _COMMON, runner) for command, flags, runner in (
    ("h0", _H0_FLAGS, lambda a: _run_h0_family(a, "h0")),
    ("hn", _H0_FLAGS, lambda a: _run_h0_family(a, "hn")),
    ("euler", _H0_FLAGS, lambda a: _run_h0_family(a, "euler")),
    ("bezout-line", (_Flag("s", _fraction_arg), _Flag("t", _fraction_arg)),
     lambda a: _dim_result(a, geometry.bezout_line(
         _from_ratio(*a.s, a.p), _from_ratio(*a.t, a.p), a.grades, a.p))),
    ("bezout-chi", (_Flag("d", _fraction_arg), _Flag("degf", _int_arg),
                    _Flag("degg", _int_arg)),
     lambda a: _dim_result(a, geometry.bezout_chi(
         _from_ratio(*a.d, a.p), a.degf, a.degg, a.grades, a.p))),
    ("kunneth", (_N, _Flag("m", _int_arg), _Flag("a", _fraction_arg),
                 _Flag("b", _fraction_arg)), _run_kunneth),
    ("veronese", (_N, _Flag("d", _int_arg)), _run_veronese),
    ("mult", (_Flag("f", str, help="curve F in x, y"),
              _Flag("g", str, help="curve G in x, y")), _run_mult),
    ("blowup", (_Flag("f", str, help="curve through the origin in x, y"),), _run_blowup),
    ("cech-check", (_N, _Flag("degrees", str,
                              help="comma-separated degrees, e.g. --degrees=-3,-1,2"),
                    _Flag("i", _int_arg, help="max denominator exponent of the weights")),
     _run_cech_check),
)}
# each subcommand's flags by their option text, "--name", for _fast_args
_OPTIONS = {command: {f"--{flag.name}": flag for flag in flags}
            for command, (flags, _) in _COMMANDS.items()}


def _emit_error(kind: str, message: str, json_mode: bool, out, err) -> None:
    print(f"error: {kind}: {message}", file=err)
    if json_mode:
        print(json.dumps({"error": {"category": kind, "message": message}}),
              file=out)


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    json_mode = "--json" in argv
    try:
        args = _fast_args(argv) or _build_parser().parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        if args.grades < 1:
            raise _UsageError("--grades must be at least 1")
        result = _COMMANDS[args.command][1](args)
        # the whole text first: a failure must write no partial answer
        if args.json:
            text = json.dumps(result) + "\n"
        else:
            text = "".join(f"{line}\n" for line in result)
    except (_UsageError, ParseError, DomainError) as exc:
        _emit_error("usage", str(exc), json_mode, out, err)
        return 1
    except ComputationDiagnostic as exc:
        _emit_error("computation", str(exc), json_mode, out, err)
        return 2
    except ValueError as exc:
        # only the interpreter's refusal to turn a too long int into text or
        # back is a diagnostic; any other ValueError is a bug and propagates
        if "integer string conversion" not in str(exc):
            raise
        _emit_error("computation", _digit_limit_message(), json_mode, out, err)
        return 2
    except _HelpRequested as exc:
        out.write(str(exc))
        return 0
    out.write(text)
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
