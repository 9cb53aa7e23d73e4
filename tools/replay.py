"""Replay every benchmark request and print one SHA-256 per workload.

    python3 tools/replay.py [--seconds 20]

Builds the request lists of perfbench/workloads.py for the sections, cech and
curves workloads, seeds 1-3 x passes 0-2, and sends each request in process
as perfbench/worker.py sends it: argv to perfproj.cli.run, a curve pair to
quotient_dim_oracle.  It prints the number of requests and one SHA-256 per
workload over exit code, stdout, stderr and oracle value (or the repr of an
exception that escaped).  A last line, "faults N <sha256>", does the same for
the CLI requests of all three workloads under six edits that each make a
usage error: --p 4; the first integer flag set to -1; the first rational flag
set to 1/6; those two together; 1/6 together with --p 4; --p dropped.  An
edit that names a flag the request lacks is skipped.  Two checkouts that print
the same lines answered every request alike, byte for byte, and checked the
faults in the same order.

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
# the value flags of the requests besides --p and --grades, by the kind of
# number they hold; veronese's --d is an integer flag, so there 1/6 is an
# argparse error
INTEGER_FLAGS = ("n", "m", "degf", "degg", "i")
RATIONAL_FLAGS = ("deg", "s", "t", "d", "a", "b", "degrees")


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


def with_flag(argv: list, name: str, value) -> list:
    """argv with --name given as --name=value, or dropped if value is None."""
    out, tokens = [], iter(argv)
    for token in tokens:
        option, eq, _ = token.partition("=")
        if option != f"--{name}":
            out.append(token)
            continue
        if not eq:
            next(tokens)  # the value of "--name value"
        if value is not None:
            out.append(f"--{name}={value}")
    return out


def faults(request) -> list:
    """The faulted argument lists of a CLI request, in edit order; none for
    an oracle request."""
    if request["kind"] != "cli":
        return []
    argv = request["argv"]
    given = [token.partition("=")[0][2:] for token in argv[1:] if token.startswith("--")]
    integer = next((name for name in given if name in INTEGER_FLAGS), None)
    rational = next((name for name in given if name in RATIONAL_FLAGS), None)
    edits = [[("p", 4)], [(integer, -1)], [(rational, "1/6")],
             [(integer, -1), (rational, "1/6")], [(rational, "1/6"), ("p", 4)],
             [("p", None)]]
    out = []
    for edit in edits:
        if all(name in given for name, _ in edit):
            faulted = argv
            for name, value in edit:
                faulted = with_flag(faulted, name, value)
            out.append(faulted)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=20,
                    help="run length the request lists are sized for (default 20)")
    args = ap.parse_args(argv)
    faulted, fault_digest = 0, hashlib.sha256()
    for workload in workloads.GENERATORS:
        digest, count = hashlib.sha256(), 0
        for seed in SEEDS:
            for part in range(workloads.PASSES):
                for request in workloads.generate(workload, seed, args.seconds, part):
                    digest.update(json.dumps(answer(request)).encode() + b"\n")
                    count += 1
                    for edited in faults(request):
                        fault_digest.update(
                            json.dumps(answer({"kind": "cli", "argv": edited})).encode() + b"\n")
                        faulted += 1
        print(f"{workload} {count} {digest.hexdigest()}")
    print(f"faults {faulted} {fault_digest.hexdigest()}")
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
