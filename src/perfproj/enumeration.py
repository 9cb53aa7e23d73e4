"""Counting and enumerating graded monomial bases.

A grade-i monomial of degree d in n+1 variables is a vector of multiples of
1/p**i summing to d, i.e. an integer composition of p**i * d.  Counts follow
the cumulative convention: a vector whose denominators all divide p**(i-1)
is counted again at grade i.  Pass reduced=True to count only vectors whose
exact denominator is p**i.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .errors import DomainError
from .exponents import PAdicFrac, _require_prime, normalize


def _as_padic(value, p: int) -> PAdicFrac:
    if isinstance(value, PAdicFrac):
        if value.prime != p:
            raise DomainError(f"mixed primes {value.prime} and {p}")
        return value
    return PAdicFrac(int(value), 0, p)


def _scaled_degree(d: PAdicFrac, i: int) -> int:
    try:
        return d.scaled(i)
    except DomainError as exc:
        raise DomainError(f"grade too small for degree: {exc}") from exc


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


def _compositions_desc(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Non-negative integer compositions in descending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, parts - 1):
            yield (first,) + rest


def _positive_compositions_asc(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Strictly positive compositions, ascending lexicographic order."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_compositions_asc(total - first, parts - 1):
            yield (first,) + rest


class _Values(dict):
    """normalize(sign * c, i, p) keyed by c, each built on first use.

    A grade-i vector's entries are integers 0..total over p**i, so one piece
    needs at most total+1 distinct normalized values.
    """

    def __init__(self, sign: int, i: int, p: int):
        super().__init__()
        self.sign, self.i, self.p = sign, i, p

    def __missing__(self, c: int) -> PAdicFrac:
        value = self[c] = normalize(self.sign * c, self.i, self.p)
        return value


def _vectors(compositions: Iterator[tuple[int, ...]], sign: int, i: int, p: int,
             reduced: bool) -> Iterator[tuple[PAdicFrac, ...]]:
    # reduced keeps vectors with an entry of exact denominator p**i, i.e. a
    # part not divisible by p
    skip_coarse = reduced and i > 0
    values = _Values(sign, i, p)
    lookup = values.__getitem__
    for comp in compositions:
        if skip_coarse and all(c % p == 0 for c in comp):
            continue
        yield tuple(map(lookup, comp))


def _check_dimension(n: int) -> None:
    if n < 0:
        raise DomainError("projective dimension must be non-negative")


def _h0_total(n: int, d, i: int, p: int) -> int:
    """p**i * d for a valid dimension n and degree d >= 0 at grade i."""
    _check_dimension(n)
    _require_prime(p)
    d = _as_padic(d, p)
    if d.num < 0:
        raise DomainError("degree must be non-negative")
    return _scaled_degree(d, i)


def _hn_total(n: int, m, i: int, p: int) -> int:
    """p**i * m for a valid dimension n and m > 0 at grade i."""
    _check_dimension(n)
    _require_prime(p)
    m = _as_padic(m, p)
    if m.num <= 0:
        raise DomainError("m must be positive")
    return _scaled_degree(m, i)


def count_h0_monomials(n: int, d, i: int, p: int, reduced: bool = False) -> int:
    """Number of grade-i monomials of degree d >= 0 in n+1 variables."""
    total = _h0_total(n, d, i, p)
    count = comb(total + n, n)
    if reduced and i > 0 and total % p == 0:
        count -= comb(total // p + n, n)
    return count


def iter_h0_monomials(n: int, d, i: int, p: int,
                      reduced: bool = False) -> Iterator[tuple[PAdicFrac, ...]]:
    """The grade-i degree-d vectors, lazily, in descending lexicographic order.

    Arguments are checked at call time; nothing is enumerated until the
    iterator is advanced.
    """
    total = _h0_total(n, d, i, p)
    return _vectors(_compositions_desc(total, n + 1), 1, i, p, reduced)


def enumerate_h0_monomials(n: int, d, i: int, p: int, reduced: bool = False) -> GradedPiece:
    vectors = iter_h0_monomials(n, d, i, p, reduced)
    return GradedPiece(n, _as_padic(d, p), i, tuple(vectors), negative=False)


def count_hn_monomials(n: int, m, i: int, p: int, reduced: bool = False) -> int:
    """Number of grade-i all-negative monomials of degree -m, m > 0.

    Compositions of p**i * m into n+1 strictly positive parts, negated;
    comb(a, n) is 0 for a < n, so classically vanishing cases come out 0.
    """
    total = _hn_total(n, m, i, p)
    count = comb(total - 1, n)
    if reduced and i > 0 and total % p == 0:
        count -= comb(total // p - 1, n)
    return count


def iter_hn_monomials(n: int, m, i: int, p: int,
                      reduced: bool = False) -> Iterator[tuple[PAdicFrac, ...]]:
    """The grade-i all-negative degree -m vectors, lazily, in the order of
    ascending positive compositions; arguments are checked at call time."""
    total = _hn_total(n, m, i, p)
    return _vectors(_positive_compositions_asc(total, n + 1), -1, i, p, reduced)


def enumerate_hn_monomials(n: int, m, i: int, p: int, reduced: bool = False) -> GradedPiece:
    vectors = iter_hn_monomials(n, m, i, p, reduced)
    return GradedPiece(n, -_as_padic(m, p), i, tuple(vectors), negative=True)
