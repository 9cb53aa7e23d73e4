"""perfproj benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sections|cech|curves --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and reads only that
checkout.  One client sends requests in a closed loop (the next request only
after the previous answer), each to perfproj.cli.run(argv) in memory or, for
curves, also straight to quotient_dim_oracle.  Every answer is checked against
an independent reference (reference.py).

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run of the same
requests, plus the tracing overhead against an untraced run.  Lines before it
report the input properties of the request list and any failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from workloads import PASSES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sections", "cech", "curves")
# a run at --seconds 20 lasts 20 to 35 s at the seed commit; one still going
# after this many times --seconds (and at least 175 s: inside the 180 s a run
# may take at 20 s) stops with an error
DEADLINE_FACTOR = 8.75


def _worker(workload, seed, seconds, part, mode, deadline):
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(seconds), str(part), mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def correct_run(results):
    """False if any failure is other than the seed's known defect
    (reference.known_defect): a crash counts as much as a wrong answer."""
    return all(known for r in results for _, _, known in r["failures"])


def percentile(values, q):
    """Nearest-rank percentile: at least (1 - q) of the samples lie at or above it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def scaled(result):
    """(latencies, cpu times) of one pass, in reference seconds (speed.py)."""
    k = speed.scales(result["samples"], result["spans"])
    return ([t * s for t, s in zip(result["latencies"], k)],
            [t * s for t, s in zip(result["cpu"], k)])


def setup_time(result):
    return result["setup_s"] * speed.REFERENCE_S / statistics.median(
        result["setup_calibration"])


def end_to_end(results):
    """Percentiles and ok_ratio over every request of every pass; the other
    metrics are the median pass's, so that one pass in a slow spell of the
    machine does not move them."""
    latencies, rates, cpu = [], [], []
    for r in results:
        lat, c = scaled(r)
        latencies += lat
        rates.append((len(lat) - len(r["failures"])) / sum(lat))
        cpu.append(sum(c))
    completed = len(latencies) - sum(len(r["failures"]) for r in results)
    return {
        "requests_per_s": statistics.median(rates),
        "cpu_s": statistics.median(cpu),
        "latency_p50_ms": 1000 * percentile(latencies, 0.5),
        "latency_p90_ms": 1000 * percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "ok_ratio": completed / len(latencies),
        "setup_s": statistics.median(setup_time(r) for r in results),
    }


def per_layer(traced, untraced):
    layers = dict(traced["layers"])
    vectors = layers["enumeration.vectors"]
    layers["cli.output_bytes"] = traced["output_bytes"]
    layers["cli.shown_per_enumerated"] = traced["shown"] / vectors if vectors else 0.0
    layers["trace.request_s"] = sum(traced["latencies"])
    layers["trace.overhead_s"] = sum(scaled(traced)[1]) - sum(scaled(untraced)[1])
    return layers


def report(workload, seed, results, metrics):
    """The run's human-readable lines: inputs, failures, then each metric."""
    attempted = sum(len(r["latencies"]) for r in results)
    failed = sum(len(r["failures"]) for r in results)
    print(f"workload {workload} seed {seed}: {attempted} requests in {len(results)} "
          "pass(es), closed loop, 1 client")
    for part, r in enumerate(results):
        print(f"inputs of pass {part}: " + json.dumps(r["properties"], sort_keys=True))
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    for part, r in enumerate(results):
        for index, reason, known in r["failures"][:10]:
            print(f"  failed request {index} of pass {part}: {reason}"
                  + (" (known defect)" if known else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "perfproj" / "__init__.py").is_file():
        print(f"error: no perfproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_FACTOR * max(20, args.seconds)
    try:
        passes = 1 if args.trace else PASSES
        results = [_worker(args.workload, args.seed, args.seconds, part, "run", deadline)
                   for part in range(passes)]
        result = results[0]
        if args.trace:
            traced = _worker(args.workload, args.seed, args.seconds, 0, "trace", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = correct_run(results)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    calibration = statistics.median(s[1] for r in results for s in r["samples"])
    print(f"calibration {1000 * calibration:.4f} ms, reference "
          f"{1000 * speed.REFERENCE_S:.4f} ms: times below are scaled by their ratio")
    if args.trace:
        values = per_layer(traced, result)
        correct = (correct and not traced["not_restored"]
                   and traced["failures"] == result["failures"])
    else:
        values = end_to_end(results)
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    report(args.workload, args.seed, [traced] if args.trace else results, metrics)
    if args.trace:
        print(f"layer self times sum to {traced['self_total_s']:.6f} s of "
              f"{values['trace.request_s']:.6f} s request time (unattributed "
              f"{values['trace.request_s'] - traced['self_total_s']:.6f} s)")
        if traced["not_restored"]:
            print("not restored after tracing: " + ", ".join(traced["not_restored"]))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r["latencies"]) for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
