"""Replay every benchmark request and print one SHA-256 per workload.

    python3 tools/replay.py [--seconds 20] [--counters]

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

With --counters it prints instead one JSON object per workload: its request
count and digest, as above, and how much work its requests did, counted by
wrapping library functions while they run (COUNTED).  Each counter is named
<module>.<function> and counts calls: the exact rank cech._int_rank (and the
rows it was given), cech's binomials (cech.comb), the quotient oracle and
the truncated quotients it eliminates, the base entries offered to each
multiplicity engine (intersect._newton, then the Fulton loop _local) and the
steps of that loop (intersect._reduce), the Euclids in F_l[y] of the Newton
stage (intersect._gcd_degree_mod_ell), the products braided._mul (a mixed
multiplicity entry rescaled by p**(2m) with m > 0, or a Kunneth product), the
checked grade totals of enumeration (enumeration._total), the prime checks
exponents._require_prime (counted through every module that binds the name)
and the proofs among them, exponents.is_prime, one per prime while it stays
cached; besides, the misses of cech's elimination cache
cech._simplex_ranks (one per complex eliminated) and the Fraction and
PAdicFrac constructions (calls of Fraction.__new__ and PAdicFrac.__init__).
The rank and prime caches are cleared before each workload, as in a fresh
process, and the faults pass is skipped.

It reads only the checkout it lives in and writes no bytecode there: a warm
__pycache__ would lower perfbench's setup_s in a later run.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import perfproj.braided  # noqa: E402
import perfproj.cech  # noqa: E402
import perfproj.cli  # noqa: E402
import perfproj.enumeration  # noqa: E402
import perfproj.exponents  # noqa: E402
import perfproj.fracpoly  # noqa: E402
import perfproj.geometry  # noqa: E402
import perfproj.intersect  # noqa: E402
from perfproj.exponents import PAdicFrac  # noqa: E402

import workloads  # noqa: E402

SEEDS = (1, 2, 3)
# the value flags of the requests besides --p and --grades, by the kind of
# number they hold; veronese's --d is an integer flag, so there 1/6 is an
# argparse error
INTEGER_FLAGS = ("n", "m", "degf", "degg", "i")
RATIONAL_FLAGS = ("deg", "s", "t", "d", "a", "b", "degrees")
# (module, function, counter): each call of the function, looked up by name in
# that module's namespace, adds one to the counter named after the module that
# defines it; _int_rank also adds its rows to cech._int_rank.rows
COUNTED = (
    (perfproj.braided, "_mul", "braided._mul"),
    (perfproj.cech, "comb", "cech.comb"),
    (perfproj.cech, "_int_rank", "cech._int_rank"),
    (perfproj.intersect, "_int_rank", "cech._int_rank"),
    (perfproj.intersect, "quotient_dim_oracle", "intersect.quotient_dim_oracle"),
    (perfproj.intersect, "_truncated_quotient_dim", "intersect._truncated_quotient_dim"),
    (perfproj.intersect, "_newton", "intersect._newton"),
    (perfproj.intersect, "_local", "intersect._local"),
    (perfproj.intersect, "_reduce", "intersect._reduce"),
    (perfproj.intersect, "_gcd_degree_mod_ell", "intersect._gcd_degree_mod_ell"),
    (perfproj.enumeration, "_total", "enumeration._total"),
    (perfproj.geometry, "_total", "enumeration._total"),
    (perfproj.exponents, "is_prime", "exponents.is_prime"),
    *((module, "_require_prime", "exponents._require_prime")
      for name, module in sorted(sys.modules.items())
      if name.startswith("perfproj.") and hasattr(module, "_require_prime")),
)
COUNTERS = sorted({key for _, _, key in COUNTED} | {
    "cech._int_rank.rows", "cech._simplex_ranks.misses", "exponents.PAdicFrac",
    "fractions.Fraction"})


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


def _counted(fn, key: str, counts: Counter):
    def counted(*args, **kwargs):
        counts[key] += 1
        if key == "cech._int_rank":
            rows = list(args[0])
            counts["cech._int_rank.rows"] += len(rows)
            args = (rows, *args[1:])
        return fn(*args, **kwargs)
    return counted


@contextlib.contextmanager
def counting():
    """A Counter of the work done inside the block, by COUNTED, by the
    misses of cech's elimination cache and by Fraction and PAdicFrac
    constructions."""
    counts = Counter(dict.fromkeys(COUNTERS, 0))
    saved = [(module, name, getattr(module, name)) for module, name, _ in COUNTED]
    new = vars(Fraction)["__new__"]
    init = PAdicFrac.__init__

    def counted_new(cls, *args, **kwargs):
        counts["fractions.Fraction"] += 1
        return new.__func__(cls, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["exponents.PAdicFrac"] += 1
        init(self, *args, **kwargs)

    ranks = perfproj.cech._simplex_ranks
    misses = ranks.cache_info().misses
    for (module, name, key), (_, _, fn) in zip(COUNTED, saved):
        setattr(module, name, _counted(fn, key, counts))
    Fraction.__new__ = counted_new
    PAdicFrac.__init__ = counted_init
    try:
        yield counts
    finally:
        Fraction.__new__ = new
        PAdicFrac.__init__ = init
        for module, name, fn in saved:
            setattr(module, name, fn)
        counts["cech._simplex_ranks.misses"] = ranks.cache_info().misses - misses


def count_work(workload: str, seconds: int) -> dict:
    """The --counters object of one workload."""
    requests = [request for seed in SEEDS for part in range(workloads.PASSES)
                for request in workloads.generate(workload, seed, seconds, part)]
    perfproj.cech._simplex_ranks.cache_clear()
    perfproj.exponents._proven_prime.cache_clear()
    digest = hashlib.sha256()
    with counting() as counts:
        for request in requests:
            digest.update(json.dumps(answer(request)).encode() + b"\n")
    return {"workload": workload, "requests": len(requests), "sha256": digest.hexdigest(),
            "counters": dict(counts)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=20,
                    help="run length the request lists are sized for (default 20)")
    ap.add_argument("--counters", action="store_true",
                    help="print one JSON object of work counters per workload instead")
    args = ap.parse_args(argv)
    if args.counters:
        for workload in workloads.GENERATORS:
            print(json.dumps(count_work(workload, args.seconds)))
        return 0
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
