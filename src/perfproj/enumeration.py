"""Counting and enumerating graded monomial bases.

A grade-i monomial of degree d in n+1 variables is a vector of multiples of
1/p**i summing to d, i.e. an integer composition of p**i * d.  Counts follow
the cumulative convention: a vector whose denominators all divide p**(i-1)
is counted again at grade i.  Pass reduced=True to count only vectors whose
exact denominator is p**i.

h0 of degree d and hn of degree -m are the two signs of one count.  One
private path enumerates and one private formula counts, both on a signed
total p**i * degree already checked: a total t >= 0 stands for the
compositions of t into n+1 parts >= 0, and a total t < 0 for those of -t into
parts >= 1, negated.  _scaled_vectors yields the vectors times p**i that
_compositions walks, with the reduced filter applied, and _graded_count
counts them.  The public functions check their arguments once, through
_total, which gives the hn family's total its sign; iter_* and enumerate_*
then map each entry of a vector to its PAdicFrac through a cache of
normalize, one call per distinct entry.  braided's tuples check a bundle
once when they are built and then read _graded_count at each grade; the
CLI's table cells take the total from that bundle's degree and print the
vectors as they are.  The Veronese coordinates (geometry) draw from
_compositions only the heads, the compositions into n parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Iterator

from .errors import DomainError
from .exponents import PAdicFrac, _as_padic, normalize


@dataclass(frozen=True)
class GradedPiece:
    """The weight-vector basis of one grade of a graded component.

    vectors hold normalized PAdicFrac entries; all of them sum to degree and
    are uniformly non-negative (negative=False) or strictly negative
    (negative=True).
    """

    n: int
    degree: PAdicFrac
    grade: int
    vectors: tuple[tuple[PAdicFrac, ...], ...]
    negative: bool

    @property
    def count(self) -> int:
        return len(self.vectors)

    def to_json(self) -> list[str]:
        return ["(" + ",".join(str(e) for e in v) + ")" for v in self.vectors]


def _compositions(total: int, parts: int, sign: int) -> Iterator[tuple[int, ...]]:
    """sign * c for the compositions c of total into parts >= 0 (sign 1) or
    >= 1 (sign -1), in descending lexicographic order of the signed vectors."""
    least = 1 if sign < 0 else 0
    if parts == 1:
        if total >= least:
            yield (sign * total,)
        return
    if parts == 2:
        firsts = range(least, total - least + 1)
        for first in (firsts if sign < 0 else reversed(firsts)):
            # the last part is what remains: no generator per vector
            yield (sign * first, sign * (total - first))
        return
    # recurse on halves, so the depth is log2(parts): the left half takes one
    # more part, the total of the right half, at least `least` per right part
    right = (parts + 1) // 2
    shift = least * (right - 1)
    for left in _compositions(total - shift, parts - right + 1, sign):
        head = left[:-1]
        for rest in _compositions(sign * left[-1] + shift, right, sign):
            yield head + rest


def _total(n: int, d, i: int, p: int, negative: bool) -> int:
    """The signed total of grade i: p**i * d, or -p**i * d if negative, after
    checking n >= 0, p prime and d >= 0 (d > 0 if negative); the conversion
    of d to Z[1/p] checks the prime."""
    if n < 0:
        raise DomainError("projective dimension must be non-negative")
    d = _as_padic(d, p)
    if negative and d.num <= 0:
        raise DomainError("m must be positive")
    if d.num < 0:
        raise DomainError("degree must be non-negative")
    try:
        return -d.scaled(i) if negative else d.scaled(i)
    except DomainError as exc:
        raise DomainError(f"grade too small for degree: {exc}") from exc


def _graded_count(n: int, total: int, i: int, p: int, reduced: bool) -> int:
    """The number of grade-i vectors whose parts, times p**i, sum to the
    signed total, for arguments already checked: comb(total + n, n)
    compositions into n+1 parts >= 0, or comb(-total - 1, n) into parts
    <= -1 if total < 0; reduced leaves out the vectors of grade i-1, those of
    total // p."""
    size, extra = (total, n) if total >= 0 else (-total, -1)
    count = comb(size + extra, n)
    if reduced and i > 0 and total % p == 0:
        count -= comb(size // p + extra, n)
    return count


def _scaled_vectors(n: int, total: int, i: int, p: int,
                    reduced: bool) -> Iterator[tuple[int, ...]]:
    """p**i times each grade-i vector, as integers: the compositions of the
    signed total p**i * degree, already checked, into n+1 parts, or those of
    -total into parts >= 1, negated, if total < 0.  Nothing is enumerated
    until the iterator is advanced.
    """
    vectors = _compositions(abs(total), n + 1, -1 if total < 0 else 1)
    if reduced and i > 0:
        # an entry of exact denominator p**i is a part that p does not divide
        return (v for v in vectors if any(c % p for c in v))
    return vectors


def _normalized(n: int, d, i: int, p: int, reduced: bool,
                negative: bool) -> Iterator[tuple[PAdicFrac, ...]]:
    # one piece has at most p**i * |d| + 1 distinct entries
    vectors = _scaled_vectors(n, _total(n, d, i, p, negative), i, p, reduced)
    lookup = cache(lambda c: normalize(c, i, p))
    return (tuple(map(lookup, v)) for v in vectors)


def count_h0_monomials(n: int, d, i: int, p: int, reduced: bool = False) -> int:
    """Number of grade-i monomials of degree d >= 0 in n+1 variables."""
    return _graded_count(n, _total(n, d, i, p, negative=False), i, p, reduced)


def iter_h0_monomials(n: int, d, i: int, p: int,
                      reduced: bool = False) -> Iterator[tuple[PAdicFrac, ...]]:
    """The grade-i degree-d vectors, lazily, in descending lexicographic order.

    Arguments are checked at call time; nothing is enumerated until the
    iterator is advanced.
    """
    return _normalized(n, d, i, p, reduced, negative=False)


def enumerate_h0_monomials(n: int, d, i: int, p: int, reduced: bool = False) -> GradedPiece:
    vectors = iter_h0_monomials(n, d, i, p, reduced)
    return GradedPiece(n, _as_padic(d, p), i, tuple(vectors), negative=False)


def count_hn_monomials(n: int, m, i: int, p: int, reduced: bool = False) -> int:
    """Number of grade-i all-negative monomials of degree -m, m > 0.

    Compositions of p**i * m into n+1 strictly positive parts, negated;
    comb(a, n) is 0 for a < n, so classically vanishing cases come out 0.
    """
    return _graded_count(n, _total(n, m, i, p, negative=True), i, p, reduced)


def iter_hn_monomials(n: int, m, i: int, p: int,
                      reduced: bool = False) -> Iterator[tuple[PAdicFrac, ...]]:
    """The grade-i all-negative degree -m vectors, lazily, in the order of
    ascending positive compositions; arguments are checked at call time."""
    return _normalized(n, m, i, p, reduced, negative=True)


def enumerate_hn_monomials(n: int, m, i: int, p: int, reduced: bool = False) -> GradedPiece:
    vectors = iter_hn_monomials(n, m, i, p, reduced)
    return GradedPiece(n, -_as_padic(m, p), i, tuple(vectors), negative=True)
