"""Smoke tests: the experiment scripts and the CLI entry point run end to end
as separate processes on tiny arguments."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from perfproj.cli import run

ROOT = Path(__file__).resolve().parents[1]


def _run(args, stdout=subprocess.PIPE):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def test_braided_tables_fractional_degree():
    proc = _run(["scripts/braided_tables.py", "--n", "2", "--deg=-7/3", "--p", "3",
                 "--grades", "2"])
    assert proc.returncode == 0, proc.stderr
    # the grade-1 cell lists the grade-0 basis of O(-7), scaled like `perfproj hn`
    assert proc.stdout.splitlines() == [
        "O(-7/3) on P^2, p=3",
        "power of p | monomials | h0 | hn | chi",
        "0 |  | 0 | 0 | 0",
        "1 | (-1,-1,-5) (-1,-2,-4) (-1,-3,-3) (-1,-4,-2) (-1,-5,-1) (-2,-1,-4) ..."
        " | 0 | 15 | 15",
        "",
        "hn(-s-t) - hn(-s) - hn(-t) per grade, p=3",
        *[f"s={s}: 11  11  11  11" for s in range(1, 5)],
    ]


def test_braided_tables_integer_degree():
    proc = _run(["scripts/braided_tables.py", "--n", "1", "--deg", "2", "--p", "3",
                 "--grades", "2"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[2] == "0 | (2,0) (1,1) (0,2) | 3 | 0 | 3"
    assert lines[3] == "1 | (6,0) (5,1) (4,2) (3,3) (2,4) (1,5) ... | 7 | 0 | 7"


def test_cech_sweep():
    proc = _run(["scripts/cech_sweep.py", "--dims", "1", "2", "--primes", "2",
                 "--max-degree", "1", "--i", "0", "--json"])
    assert proc.returncode == 0, proc.stderr
    *reports, total = proc.stdout.splitlines()
    assert [json.loads(r)["ok"] for r in reports] == [True, True]
    weights = sum(d["weights"] for r in reports for d in json.loads(r)["degrees"])
    assert total == f"total weights checked: {weights}; all consistent"

    proc = _run(["scripts/cech_sweep.py", "--dims", "1", "--primes", "2",
                 "--max-degree", "1", "--i", "0"])
    assert proc.returncode == 0, proc.stderr
    first, total = proc.stdout.splitlines()
    assert re.fullmatch(r"n=1 p=2 i=0: 17 weights, 0 counterexamples, \d+\.\d\ds \[ok\]",
                        first)
    assert total == "total weights checked: 17; all consistent"


def _run_with_closed_stdout(args):
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read: every write fails with EPIPE
    try:
        return _run(args, stdout=write_end)
    finally:
        os.close(write_end)


def test_closed_stdout_exits_1_without_traceback():
    for args in (["-m", "perfproj.cli", "veronese", "--n", "2", "--d", "3", "--p", "3",
                  "--grades", "2"],
                 ["scripts/braided_tables.py", "--n", "1", "--grades", "2"]):
        proc = _run_with_closed_stdout(args)
        assert (proc.returncode, proc.stderr) == (1, ""), args


def test_cli_help_matches_in_process_run(monkeypatch):
    # argparse wraps help to the terminal width; the subprocess inherits it
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["--help"], ["h0", "--help"]):
        proc = _run(["-m", "perfproj.cli", *argv])
        out, err = io.StringIO(), io.StringIO()
        assert (proc.returncode, proc.stderr) == (0, "")
        assert run(argv, out, err) == 0
        assert (proc.stdout, err.getvalue()) == (out.getvalue(), "")
