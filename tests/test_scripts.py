"""Smoke tests: the CLI entry point `python -m perfproj.cli` runs end to end
as a separate process on tiny arguments."""

import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from perfproj.cli import _COMMANDS, run

ROOT = Path(__file__).resolve().parents[1]


def _run(args, stdout=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def _run_with_closed_stdout(args):
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read: every write fails with EPIPE
    try:
        return _run(args, stdout=write_end)
    finally:
        os.close(write_end)


def test_closed_stdout_exits_1_without_traceback():
    proc = _run_with_closed_stdout(["-m", "perfproj.cli", "veronese", "--n", "2", "--d", "3",
                                    "--p", "3", "--grades", "2"])
    assert (proc.returncode, proc.stderr) == (1, "")


def test_replay_with_closed_stdout_exits_1_without_traceback():
    proc = _run_with_closed_stdout(["tools/replay.py", "--seconds", "1"])
    assert (proc.returncode, proc.stderr) == (1, "")


def test_replay_answers_every_benchmark_request_as_before():
    # byte for byte: a change that alters any answer of the sections, cech or
    # curves request lists changes a digest; the faults line covers the usage
    # errors of their CLI requests under six edits, so a change of which check
    # of a double fault runs first changes it too
    proc = _run(["tools/replay.py", "--seconds", "1"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "sections 900 77520bbb8e78b618358330451607a3fc6a876091319e8608a8b10e4b8ca81c06",
        "cech 900 81ceb19302766ea3f7a735b36792386338d7303bdb5654b3b2d9a5976a1daf6c",
        "curves 900 8ba62c1579f5eb60030c6ff3ed65a118413c50759ffe47e00800ab65c2572f78",
        "faults 11898 f7a8f9cd0fb11296f02bd28233add58b341aa29f7cf267e91db60e84e5417f12",
    ]


_NO_WORK = dict.fromkeys([
    "braided._mul", "cech._int_rank", "cech._int_rank.rows", "cech._simplex_ranks.misses",
    "cech.comb", "enumeration._total", "exponents.PAdicFrac", "exponents._require_prime",
    "exponents.is_prime",
    "fractions.Fraction", "intersect._gcd_degree_mod_ell", "intersect._local",
    "intersect._newton", "intersect._reduce", "intersect._truncated_quotient_dim",
    "intersect.quotient_dim_oracle",
], 0)


def test_replay_counts_the_work_of_every_benchmark_request():
    # deterministic work over the same requests as the digests, each
    # workload on fresh rank and prime caches: a change of how much work is
    # done for the same answers shows here first
    proc = _run(["tools/replay.py", "--seconds", "1", "--counters"])
    assert (proc.returncode, proc.stderr) == (0, "")
    got = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(g["workload"], g["requests"], g["sha256"][:8]) for g in got] == [
        ("sections", 900, "77520bbb"), ("cech", 900, "81ceb193"), ("curves", 900, "8ba62c15")]
    assert [g["counters"] for g in got] == [
        {**_NO_WORK, "braided._mul": 2786, "enumeration._total": 444,
         "exponents.PAdicFrac": 1767, "exponents._require_prime": 3707,
         "exponents.is_prime": 3},
        {**_NO_WORK, "cech._int_rank": 28, "cech._int_rank.rows": 247,
         "cech._simplex_ranks.misses": 8, "cech.comb": 6340,
         "exponents.PAdicFrac": 1416, "exponents._require_prime": 900,
         "exponents.is_prime": 3},
        {**_NO_WORK, "braided._mul": 2336, "cech._int_rank": 690,
         "cech._int_rank.rows": 6606, "exponents.PAdicFrac": 315,
         "exponents._require_prime": 2124, "exponents.is_prime": 3,
         "intersect._gcd_degree_mod_ell": 200, "intersect._local": 65,
         "intersect._newton": 1752, "intersect._reduce": 617,
         "intersect._truncated_quotient_dim": 690, "intersect.quotient_dim_oracle": 261},
    ]


def _replay_constant(name: str) -> tuple:
    """The value of the module-level constant name of tools/replay.py, read
    without importing it."""
    tree = ast.parse((ROOT / "tools" / "replay.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]]
    return ast.literal_eval(value)


def test_replay_faults_every_number_flag_of_the_cli():
    # the faults pass edits the first integer and the first rational flag of a
    # request; a number flag in neither list, or in both, would go unfaulted
    # or be faulted as the wrong kind
    named = _replay_constant("INTEGER_FLAGS") + _replay_constant("RATIONAL_FLAGS")
    value_flags = {flag.name for flags, _ in _COMMANDS.values() for flag in flags
                   if flag.convert is not None} - {"p", "grades", "f", "g"}
    assert sorted(named) == sorted(value_flags)


def test_cli_help_matches_in_process_run(monkeypatch):
    # argparse wraps help to the terminal width; the subprocess inherits it
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["--help"], ["h0", "--help"]):
        proc = _run(["-m", "perfproj.cli", *argv])
        out, err = io.StringIO(), io.StringIO()
        assert (proc.returncode, proc.stderr) == (0, "")
        assert run(argv, out, err) == 0
        assert (proc.stdout, err.getvalue()) == (out.getvalue(), "")


def test_code_lines_counts_every_module():
    proc = _run(["tools/code_lines.py"])
    assert (proc.returncode, proc.stderr) == (0, "")
    *modules, total = [line.split() for line in proc.stdout.splitlines()]
    assert [name for _, name in modules] == sorted(
        path.stem for path in (ROOT / "src" / "perfproj").glob("*.py"))
    assert total == [str(sum(int(count) for count, _ in modules)), "total"]


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    (tmp_path / "sample.py").write_text(
        '"""Module docstring."""\n'
        "\n"
        "# a comment\n"
        "def f():\n"
        '    """A docstring\n'
        '    over two lines."""\n'
        '    x = """a\n'
        '\n'
        'b"""  # a string over three lines, one of them blank\n'
        "    return x\n")
    proc = _run(["tools/code_lines.py", str(tmp_path)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "4 sample\n4 total\n", "")
