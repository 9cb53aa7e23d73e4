#!/usr/bin/env python3
"""Print graded dimension tables for a line bundle and the line-bundle
subtraction identity over a small (s, t) grid.

Example:
    python scripts/braided_tables.py --n 1 --deg -5 --p 3 --grades 4
"""

import argparse
import os
import sys
from fractions import Fraction
from itertools import islice

from perfproj import (
    PAdicFrac,
    bezout_line,
    euler,
    h0,
    hn_top,
    iter_h0_monomials,
    iter_hn_monomials,
    line_bundle,
)


def dimension_table(n: int, deg: PAdicFrac, p: int, grades: int) -> None:
    bundle = line_bundle(n, deg, p)
    hd = h0(bundle, grades)
    ht = hn_top(bundle, grades)
    chi = euler(bundle, grades)
    print(f"O({deg}) on P^{n}, p={p}")
    print("power of p | monomials | h0 | hn | chi")
    for label in range(grades):
        cell = ""
        if label >= deg.pexp:
            family = iter_h0_monomials if deg.num >= 0 else iter_hn_monomials
            grade = label - deg.pexp
            head = list(islice(family(n, abs(deg.num), grade, p), 7))
            shown = ["(" + ",".join(str(e.scaled(grade)) for e in v) + ")"
                     for v in head[:6]]
            if len(head) > 6:
                shown.append("...")
            cell = " ".join(shown)
        print(f"{label} | {cell} | {hd.at(label)} | {ht.at(label)} | {chi.at(label)}")


def bezout_grid(p: int, grades: int) -> None:
    print(f"\nhn(-s-t) - hn(-s) - hn(-t) per grade, p={p}")
    for s in range(1, 5):
        row = []
        for t in range(1, 5):
            values = bezout_line(s, t, grades, p).grades_list()
            row.append("".join(str(v) for v in values))
        print(f"s={s}: " + "  ".join(row))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--deg", type=Fraction, default=Fraction(2))
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--grades", type=int, default=4)
    args = ap.parse_args()
    deg = PAdicFrac.from_fraction(args.deg, args.p)
    try:
        dimension_table(args.n, deg, args.p, args.grades)
        bezout_grid(args.p, args.grades)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
