"""Machine speed, sampled between the requests.

The benchmark box is a 2-CPU virtual machine whose speed swings by up to half
in spells from under a second to thirty seconds, so raw times of the same
requests spread more than any useful regression bound.  Before the first
request and after every request, the client times a fixed piece of
standard-library work (argparse, small frozen dataclasses, tuples and
strings: what the CLI and the enumeration spend their time on) with the
garbage collector off, so that it never walks the program's live objects.
Each request's time is scaled by REFERENCE_S over the median calibration
time of the samples taken around it (see scales).  On a steady machine the
scale is constant, so comparisons between commits are unchanged; in a slow
spell the calibration slows with the requests and the scaled times stay
put.  Nothing here imports perfproj and nothing here runs inside a request.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass

# calibration seconds on a steady 2-CPU x86 box: scaled times are in these units
REFERENCE_S = 1.3e-3
REPEATS = 2  # calibrations per sample, of which the fastest is kept
NEAREST = 2  # samples on either side of a request that set its scale, at least


@dataclass(frozen=True)
class _Cell:
    a: int
    b: int


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="calibrate")
    sub = ap.add_subparsers(dest="cmd")
    for name in ("one", "two", "three", "four", "five"):
        sp = sub.add_parser(name)
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--p", type=int, default=2)
        sp.add_argument("--json", action="store_true")
    return ap


# built once: a parser is a cycle of objects, and building one per sample
# would leave garbage for the collector to meet inside the next request
_PARSER = _parser()


def _work() -> None:
    for cmd in ("one", "two", "three", "four", "five"):
        _PARSER.parse_args([cmd, "--n", "3", "--p", "5", "--json"])
    acc = []
    for k in range(600):
        c = _Cell(k, k % 7)
        acc.append((c.a * 3 + c.b, str(k)))


def calibrate() -> float:
    """Wall seconds of one fixed piece of work, with the collector off.

    Wall time, not CPU time: the process CPU clock of the box advances in
    ticks of milliseconds, coarser than one calibration.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        w0 = time.perf_counter()
        _work()
        return time.perf_counter() - w0
    finally:
        if enabled:
            gc.enable()


def sample() -> tuple[float, float]:
    """(when, seconds) of one calibration sample; take it between requests."""
    return time.perf_counter(), min(calibrate() for _ in range(REPEATS))


def scales(samples, spans) -> list[float]:
    """REFERENCE_S over the median calibration for each request's (start, end)
    span: the samples within one request length of it, and at least the
    NEAREST before it and the NEAREST after it.  A long request thus gets the
    machine speed averaged over about as long as it ran."""
    when = [w for w, _ in samples]
    out = []
    for start, end in spans:
        reach = end - start
        lo = min(bisect_left(when, start - reach), max(0, bisect_left(when, start) - NEAREST))
        hi = max(bisect_left(when, end + reach), bisect_left(when, end) + NEAREST)
        out.append(REFERENCE_S / statistics.median(t for _, t in samples[lo:hi]))
    return out
