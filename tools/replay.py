"""Replay every benchmark request and print one SHA-256 per workload.

    python3 tools/replay.py [--seconds 20]

Builds the request lists of perfbench/workloads.py for the sections, cech and
curves workloads, seeds 1-3 x passes 0-2, and sends each request in process
as perfbench/worker.py sends it: argv to perfproj.cli.run, a curve pair to
quotient_dim_oracle.  It prints the number of requests and one SHA-256 per
workload over exit code, stdout, stderr and oracle value (or the repr of an
exception that escaped).  Two checkouts that print the same lines answered
every request alike, byte for byte.

It reads only the checkout it lives in and writes no bytecode there: a warm
__pycache__ would lower perfbench's setup_s in a later run.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import perfproj.cli  # noqa: E402
import perfproj.fracpoly  # noqa: E402
import perfproj.intersect  # noqa: E402

import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def answer(request) -> list:
    """What one request returns, in a JSON-encodable form."""
    if request["kind"] == "oracle":
        p = request["p"]
        try:
            f = perfproj.fracpoly.parse(request["f"], 2, p)
            g = perfproj.fracpoly.parse(request["g"], 2, p)
            return ["oracle", repr(perfproj.intersect.quotient_dim_oracle(f, g))]
        except Exception as exc:
            return ["oracle error", repr(exc)]
    out, err = io.StringIO(), io.StringIO()
    try:
        code = perfproj.cli.run(request["argv"], out, err)
    except Exception as exc:
        return ["cli error", repr(exc), out.getvalue(), err.getvalue()]
    return ["cli", code, out.getvalue(), err.getvalue()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=20,
                    help="run length the request lists are sized for (default 20)")
    args = ap.parse_args(argv)
    for workload in workloads.GENERATORS:
        digest, count = hashlib.sha256(), 0
        for seed in SEEDS:
            for part in range(workloads.PASSES):
                for request in workloads.generate(workload, seed, args.seconds, part):
                    digest.update(json.dumps(answer(request)).encode() + b"\n")
                    count += 1
        print(f"{workload} {count} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as perfproj.cli.main handles it: point it
        # at devnull so that the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
