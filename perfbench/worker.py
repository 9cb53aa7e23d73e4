"""One benchmark process: set up, send every request in a closed loop, check.

Runs in a fresh interpreter so that nothing perfproj caches is warm, as for a
CLI user.  Usage (run.py starts it; it reads only the checkout it lives in):

    python3 perfbench/worker.py WORKLOAD SEED SECONDS PART MODE

PART is the pass of the run (workloads.generate); MODE is "run" or "trace".  The last stdout line is one JSON object: raw
times, plus the calibration times (speed.py) that run.py scales them by.
"""

import time

_T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import perfproj  # noqa: E402,F401
import perfproj.cli  # noqa: E402
import perfproj.fracpoly  # noqa: E402
import perfproj.intersect  # noqa: E402

import reference  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def send(request):
    """Run one request; returns (answer, escaped exception repr or None)."""
    if request["kind"] == "oracle":
        p = request["p"]
        try:
            f = perfproj.fracpoly.parse(request["f"], 2, p)
            g = perfproj.fracpoly.parse(request["g"], 2, p)
            return perfproj.intersect.quotient_dim_oracle(f, g), None
        except Exception as exc:  # a failure to record, not to stop on
            return None, repr(exc)[:200]
    out, err = io.StringIO(), io.StringIO()
    try:
        code = perfproj.cli.run(request["argv"], out, err)
    except Exception as exc:
        return (None, out.getvalue()), repr(exc)[:200]
    return (code, out.getvalue()), None


def shown_monomials(meta, stdout):
    """Basis monomials a CLI answer prints (table cells or Veronese lists)."""
    if meta["cmd"] == "veronese":
        if meta["json"]:
            return sum(len(t["monomials"]) for t in json.loads(stdout)["tower"])
        return sum(line.count(":") + 1 for line in stdout.splitlines())
    if meta["cmd"] in ("h0", "hn") and not meta["json"]:
        return stdout.count("(")
    return 0


def run(requests):
    """Send every request in order; time each one and check its answer.

    Calibration samples (speed.py) are taken between requests only.  A
    failure is (index, reason, known): known marks the seed's documented
    defect (reference.known_defect), which does not make the run incorrect.
    """
    latencies, cpu, spans, failures = [], [], [], []
    output_bytes = shown = 0
    oracle = {}   # (F, G) as sent to mult -> oracle value, if it passed
    mults = []    # (index, meta, parsed answer) of mult requests that passed
    samples = [speed.sample()]
    for index, request in enumerate(requests):
        w0, c0 = time.perf_counter(), time.process_time()
        answer, error = send(request)
        c1, w1 = time.process_time(), time.perf_counter()
        latencies.append(w1 - w0)
        cpu.append(c1 - c0)
        spans.append((w0, w1))
        meta = request["meta"]
        if request["kind"] == "oracle":
            reason = reference.check_oracle(meta, answer, error)
            if reason is None:
                oracle[tuple(meta["pair"])] = answer
        else:
            code, stdout = answer
            output_bytes += len(stdout)
            reason = reference.check_cli(meta, code, stdout, error)
            if reason is None:
                shown += shown_monomials(meta, stdout)
                if meta["cmd"] == "mult":
                    out = json.loads(stdout) if meta["json"] else stdout.splitlines()
                    mults.append((index, meta, out))
        if reason is not None:
            failures.append((index, reason, reference.known_defect(meta, reason)))
        answer = stdout = None  # freed before the next sample
        samples.append(speed.sample())
    # each finite pair's mult diagonal against the oracle's value for the pair
    for index, meta, out in mults:
        argv = requests[index]["argv"]
        pair = (argv[1].removeprefix("--f="), argv[2].removeprefix("--g="))
        if pair in oracle:
            reason = reference.check_diagonal_against_oracle(meta, out, oracle[pair])
            if reason is not None:
                failures.append((index, reason, False))
    return {"latencies": latencies, "cpu": cpu, "spans": spans, "failures": failures,
            "samples": samples, "output_bytes": output_bytes, "shown": shown}


def properties(workload, requests):
    """Input properties of the request list, for the run's report."""
    metas = [r["meta"] for r in requests]
    n = len(requests)
    keys = [tuple(r["argv"]) if r["kind"] == "cli" else ("oracle", r["f"], r["g"])
            for r in requests]
    seen, repeats = set(), 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    work = sorted(m["work"] for m in metas)
    props = {
        "requests": n,
        "json_share": sum(m.get("json", False) for m in metas) / n,
        "table_share": sum(r["kind"] == "cli" and not r["meta"]["json"] for r in requests) / n,
        "veronese_share": sum(m["cmd"] == "veronese" for m in metas) / n,
        "repeat_share": repeats / n,
        "commands": dict(Counter(m["cmd"] for m in metas)),
        "work_unit": {"sections": "monomials", "cech": "weights",
                      "curves": "rooted entries (s,t)"}[workload],
        "work_total": sum(work),
        "work_median": work[n // 2],
        "work_p90": work[int(0.9 * n)],
        "work_max": work[-1],
        "p_mix": dict(sorted(Counter(m["p"] for m in metas).items())),
    }
    if workload == "cech":
        props["n_mix"] = dict(sorted(Counter(m["n"] for m in metas).items()))
        props["i_mix"] = dict(sorted(Counter(m["i"] for m in metas).items()))
    elif workload == "sections":
        props["n_mix"] = dict(sorted(Counter(m["n"] for m in metas if "n" in m).items()))
        props["grades_mix"] = dict(sorted(Counter(m["grades"] for m in metas).items()))
    else:
        pairs = [m for m in metas if m["cmd"] == "mult"]
        props["pure_power_share"] = sum(m["family"] == "pure" for m in pairs) / len(pairs)
        props["shared_component_share"] = sum(m["family"] == "shared" for m in pairs) / len(pairs)
        props["fractional_share"] = sum(m["kf"] > 0 or m["kg"] > 0 for m in pairs) / len(pairs)
        props["grades_mix"] = dict(sorted(Counter(m["grades"] for m in pairs).items()))
    return props


def main(argv):
    workload, seed, seconds, part, mode = argv[0], int(argv[1]), int(argv[2]), int(argv[3]), argv[4]
    requests = workloads.generate(workload, seed, seconds, part)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s,
              "setup_calibration": [speed.calibrate() for _ in range(5)]}
    tracer = None
    if mode == "trace":
        before = tracing.snapshot()
        tracer = tracing.Tracer()
        tracer.install()
    try:
        result.update(run(requests))
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        result["not_restored"] = tracing.changed_since(before)
        result["layers"] = tracer.metrics()
        result["self_total_s"] = tracer.self_total()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["properties"] = properties(workload, requests)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
