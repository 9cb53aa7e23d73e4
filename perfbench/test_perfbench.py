"""Self-tests of the benchmark: checker, generator, tracing and output.

    python3 -m pytest -q perfbench
"""

import io
import json
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import perfproj  # noqa: E402
import perfproj.cli  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    code = perfproj.cli.run(argv, out, io.StringIO())
    return code, out.getvalue()


def _request(workload, cmd, listing=False):
    """The first generated request of a command, from seed 0; with listing,
    the first that enumerates a basis."""
    return next(r for r in workloads.generate(workload, 0, 1)
                if r["meta"]["cmd"] == cmd and (r["meta"]["work"] or not listing))


@pytest.mark.parametrize("json_mode", [True, False])
def test_checker_flags_a_grade_off_by_one(json_mode):
    meta = {"cmd": "h0", "n": 1, "num": 2, "pexp": 0, "p": 3, "grades": 3,
            "reduced": False, "json": json_mode, "work": 29}
    argv = ["h0", "--n", "1", "--deg=2", "--p", "3", "--grades", "3"] + ["--json"] * json_mode
    code, out = _cli(argv)
    assert reference.check_cli(meta, code, out, None) is None
    if json_mode:
        payload = json.loads(out)
        payload["grades"][1] += 1
        corrupted = json.dumps(payload)
    else:
        corrupted = out.replace("| 7\n", "| 8\n")
    assert corrupted != out
    assert reference.check_cli(meta, code, corrupted, None) is not None


def test_checker_flags_a_wrong_basis_vector_and_a_missing_ellipsis():
    meta = {"cmd": "hn", "n": 1, "num": -5, "pexp": 0, "p": 3, "grades": 2,
            "reduced": False, "json": False, "work": 18}
    code, out = _cli(["hn", "--n", "1", "--deg=-5", "--p", "3", "--grades", "2"])
    assert reference.check_cli(meta, code, out, None) is None
    assert reference.check_cli(meta, code, out.replace("(-1,-4)", "(-4,-1)", 1), None)
    assert reference.check_cli(meta, code, out.replace(" ... |", " |"), None)


def test_checker_flags_tracebacks_exit_codes_and_broken_json():
    meta = _request("curves", "mult")["meta"]
    assert reference.check_cli(meta, None, "", "RecursionError('maximum recursion depth')")
    assert reference.check_cli(meta, 3, "", None).startswith("exit code")
    assert reference.check_cli(dict(meta, json=True), 0, "{not json", None)


def test_checker_flags_a_wrong_mult_diagonal_and_cech_total():
    code, out = _cli(["mult", "--f=x", "--g=y", "--p", "3", "--grades", "1", "--json"])
    meta = {"cmd": "mult", "family": "pure", "p": 3, "grades": 1, "json": True,
            "f_terms": [[1, "1", "0"]], "g_terms": [[1, "0", "1"]], "kf": 0, "kg": 0}
    assert reference.check_cli(meta, code, out, None) is None
    assert json.loads(out)["mixed"][1] == [1, 3, 3, 9]
    assert reference.check_cli(meta, code, out.replace("9", "8"), None)
    assert reference.check_diagonal_against_oracle(meta, json.loads(out), 2)
    req = _request("cech", "cech-check")
    code, out = _cli(req["argv"])
    assert reference.check_cli(req["meta"], code, out, None) is None
    if req["meta"]["json"]:
        payload = json.loads(out)
        payload["degrees"][0]["weights"] += 1
        assert reference.check_cli(req["meta"], code, json.dumps(payload), None)


def _first_mult(family):
    return next(r for r in workloads.generate("curves", 0, 1)
                if r["meta"]["cmd"] == "mult" and r["meta"]["family"] == family)


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_only_a_recursion_error_on_pure_powers_leaves_the_run_correct(monkeypatch, exc):
    def crash(argv, out, err):
        raise exc("injected")

    monkeypatch.setattr(perfproj.cli, "run", crash)
    requests = [_first_mult("pure"), _first_mult("binomial"),
                _request("sections", "h0", listing=True)]
    result = worker.run(requests)
    known = [k for _, _, k in result["failures"]]
    assert known == [exc is RecursionError, False, False]
    assert not run.correct_run([result])
    pure_only = dict(result, failures=result["failures"][:1])
    assert run.correct_run([pure_only]) is (exc is RecursionError)


def test_bezout_closed_forms_match_their_identities():
    # bezout-line is 1 from its last offset on; bezout-chi is the alternating
    # sum of h0 over the Koszul terms of F and G
    for s, t, p in (((3, 0), (7, 1), 3), ((2, 1), (1, 0), 2), ((9, 1), (4, 1), 5)):
        dim = reference.bezout_line_dim(s, t, p, 4)
        start = max(s[1], t[1], dim.offset)
        assert [dim.at(g) for g in range(start, dim.offset + dim.length)] == [1] * (
            dim.offset + dim.length - start)
    for d, degf, degg, p in (((7, 0), 2, 3, 2), ((13, 1), 1, 2, 3)):
        dim = reference.bezout_chi_dim(d, degf, degg, p, 3)
        for label in range(dim.offset, dim.offset + 3):
            df = Fraction(d[0], p ** d[1])
            terms = ((1, df), (-1, df - degf), (-1, df - degg), (1, df - degf - degg))
            assert dim.at(label) == sum(
                sign * comb(int(e * p ** label) + 2, 2) for sign, e in terms)


@pytest.mark.parametrize("workload", workloads.GENERATORS)
def test_generator_is_a_function_of_the_seed(workload):
    first = workloads.generate(workload, 7, 2)
    assert first == workloads.generate(workload, 7, 2)
    assert first != workloads.generate(workload, 8, 2)
    assert first != workloads.generate(workload, 7, 2, part=1)
    assert len(first) == workloads.request_count(workload, 2)


def test_tracing_restores_every_function_of_the_package():
    before = tracing.snapshot()
    original_run = perfproj.cli.run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert perfproj.cli.run is not original_run
        assert perfproj.cli.parse_poly is perfproj.fracpoly.parse
        assert perfproj.cech.normalize is perfproj.exponents.normalize
        requests = [_request("sections", "h0", listing=True), _request("curves", "mult"),
                    _request("curves", "blowup")]
        worker.run(requests)
    finally:
        tracer.uninstall()
    assert tracing.changed_since(before) == []
    assert perfproj.cli.run is original_run
    metrics = tracer.metrics()
    assert metrics["intersect.local_calls"] > 0 and metrics["enumeration.vectors"] > 0


def _metric_names(kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("workload", workloads.GENERATORS)
@pytest.mark.parametrize("trace", [0, 1])
def test_a_tiny_run_prints_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 100
    expected = _metric_names("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert f"\n{name} " in proc.stdout
    assert "failed_ratio " in proc.stdout


def test_scales_follow_the_calibration_next_to_each_request():
    samples = [(float(t), 1e-3 if t < 10 else 2e-3) for t in range(20)]
    fast, slow, long = speed.scales(samples, [(2.5, 2.6), (15.5, 15.6), (9.5, 13.5)])
    assert fast == pytest.approx(2 * slow)
    assert slow == pytest.approx(speed.REFERENCE_S / 2e-3)
    # a long request is scaled by samples from as far off as it lasted
    assert long == pytest.approx(slow)
