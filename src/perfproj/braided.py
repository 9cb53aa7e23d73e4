"""Braided dimension tuples.

A braided dimension replaces one infinite cohomology dimension with a tuple
of finite per-grade dimensions, indexed by the power of p dividing exponent
denominators.  Grade 0 always recovers the classical coherent dimension.
Tuples carry an offset k so that fractional degrees m/p**k, whose rows start
at grade k, align on absolute grade labels; positions before the offset read
zero.  A tuple reports `length` grades from its offset.  A closed-form
generator answers every read on demand, past them too; explicit values come
from data, or are a Kunneth output's first `grades` values, summed once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .enumeration import _graded_count
from .errors import DomainError, HorizonError, IndeterminateForm
from .exponents import PAdicFrac, _as_padic, _require_prime

INFINITE_RANK = math.inf

_PROBE = 16  # total_rank reads this many grades of a generator tuple, or its length


def _is_inf(v) -> bool:
    return v == INFINITE_RANK


def _json_grades(values) -> list:
    """Grade values as JSON writes them: ints, and "inf" for INFINITE_RANK."""
    return ["inf" if _is_inf(v) else v for v in values]


# the rules Python lacks: inf - inf and n - inf are no integer, 0 * inf = 0,
# inf * -n = inf, and inf + n = inf - n = inf also for n >= 2**1024, where
# Python's own raise OverflowError
def _add(a, b):
    return INFINITE_RANK if _is_inf(a) or _is_inf(b) else a + b


def _sub(a, b):
    if _is_inf(b):
        raise IndeterminateForm("inf - inf is indeterminate" if _is_inf(a)
                                else "result below every integer: finite - inf")
    return INFINITE_RANK if _is_inf(a) else a - b


def _mul(a, b):
    if a == 0 or b == 0:
        return 0
    if _is_inf(a) or _is_inf(b):
        return INFINITE_RANK
    return a * b


_OPS = {"add": _add, "sub": _sub, "mul": _mul}


class BraidedDim:
    """Graded tuple reporting `length` grades from its offset, never changed.

    Reads come from `values` (data), then from `generator`, a closed form of
    the absolute label; without a generator the tuple is finite.
    """

    __slots__ = ("prime", "offset", "length", "_values", "_generator", "generator_desc")

    def __init__(self, prime: int, offset: int = 0, values: Sequence = (),
                 generator: Callable[[int], object] | None = None,
                 generator_desc: str | None = None, length: int | None = None):
        _require_prime(prime)
        if offset < 0:
            raise DomainError("offset must be non-negative")
        self.prime = prime
        self.offset = offset
        self._values = tuple(values)
        self.length = len(self._values) if length is None else length
        self._generator = generator
        self.generator_desc = generator_desc

    @classmethod
    def zeros(cls, prime: int, grades: int = 0) -> "BraidedDim":
        return cls(prime, 0, generator=lambda label: 0, generator_desc="zero",
                   length=grades)

    # -- access ---------------------------------------------------------------

    def at(self, label: int):
        """Value at absolute grade label; labels below the offset read 0.

        Past the explicit values (data, or a Kunneth output's first grades)
        the generator answers, storing nothing.
        """
        if label < self.offset:
            return 0
        idx = label - self.offset
        if idx < len(self._values):
            return self._values[idx]
        if self._generator is None:
            raise HorizonError(
                f"grade {label} beyond the explicit values and no generator")
        return self._generator(label)

    def window(self, start_label: int, count: int) -> list:
        return [self.at(start_label + j) for j in range(count)]

    def grades_list(self) -> list:
        return self.window(self.offset, self.length)

    def equal_up_to(self, other: "BraidedDim", horizon: int = 8) -> bool:
        """Equality of values on absolute labels 0..horizon-1."""
        if self.prime != other.prime:
            return False
        return self.window(0, horizon) == other.window(0, horizon)

    def total_rank(self):
        """Total rank of the graded module: +inf for a non-degenerate generator.

        Without a generator the tuple is finite and the ranks just add; with
        one, any nonzero grade among the first _PROBE values witnesses
        infinitely many nonzero grades.
        """
        if self._generator is None:
            return functools.reduce(_add, self.grades_list(), 0)
        span = max(_PROBE, self.length)
        if any(v != 0 for v in self.window(self.offset, span)):
            return INFINITE_RANK
        return 0

    # -- arithmetic -------------------------------------------------------------

    def _combine(self, other: "BraidedDim", kind: str,
                 desc: str | None = None) -> "BraidedDim":
        """Componentwise op on absolute labels: offset = min, end = max.

        Generator tuples combine lazily; with a finite side the values are
        computed here, so a missing grade or inf - inf raises at the call.
        """
        if not isinstance(other, BraidedDim):
            raise DomainError("can only combine with another BraidedDim")
        if self.prime != other.prime:
            raise DomainError(f"mixed primes {self.prime} and {other.prime}")
        op = _OPS[kind]
        offset = min(self.offset, other.offset)
        length = max(self.offset + self.length,
                     other.offset + other.length) - offset
        if self._generator is None or other._generator is None:
            values = [op(self.at(offset + j), other.at(offset + j))
                      for j in range(length)]
            return BraidedDim(self.prime, offset, values)
        if desc is None:
            desc = f"{kind}({self.generator_desc},{other.generator_desc})"
        return BraidedDim(self.prime, offset,
                          generator=lambda label: op(self.at(label), other.at(label)),
                          generator_desc=desc, length=length)

    def __add__(self, other) -> "BraidedDim":
        return self._combine(other, "add")

    def __sub__(self, other) -> "BraidedDim":
        return self._combine(other, "sub")

    def __mul__(self, other) -> "BraidedDim":
        return self._combine(other, "mul")

    # -- presentation -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {"p": self.prime, "offset": self.offset, "grades": _json_grades(self.grades_list())}
        if self.generator_desc is not None:
            out["generator"] = self.generator_desc
        return out

    def __repr__(self) -> str:
        vals = ", ".join(str(v) for v in self.grades_list())
        return f"BraidedDim(p={self.prime}, offset={self.offset}, values=[{vals}])"


def tuple_arith(lhs: BraidedDim, rhs: BraidedDim, kind: str) -> BraidedDim:
    """Componentwise add/sub on absolute grade labels."""
    if kind not in ("add", "sub"):
        raise DomainError(f"unknown tuple operation {kind!r}")
    return lhs._combine(rhs, kind)


@dataclass(frozen=True)
class LineBundle:
    """The twisting sheaf O(degree) on projective space of dimension n."""

    n: int
    degree: PAdicFrac

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("projective dimension must be non-negative")

    @property
    def prime(self) -> int:
        return self.degree.prime

    @property
    def is_ample(self) -> bool:
        # ample iff very ample iff degree > 0
        return self.degree.num > 0

    @property
    def is_very_ample(self) -> bool:
        return self.is_ample


def line_bundle(n: int, degree, p: int) -> LineBundle:
    return LineBundle(n, _as_padic(degree, p))


def _monomial_counts(bundle: LineBundle, grades: int, reduced: bool, desc: str) -> BraidedDim:
    """The grade-(label - k) count of the signed total m * p**(label - k) at
    each grade label, offset k, for the bundle's degree m/p**k: h0's count if
    m >= 0 and hn's if m < 0; desc is the generator text before its flags.
    The bundle and its degree were checked when they were built, and
    BraidedDim checks the prime, so a read is one integer count."""
    p, n, m, k = bundle.prime, bundle.n, bundle.degree.num, bundle.degree.pexp
    return BraidedDim(p, k, generator=lambda label: _graded_count(
                          n, m * p**(label - k), label - k, p, reduced),
                      generator_desc=desc + (",reduced)" if reduced else ")"), length=grades)


def h0(bundle: LineBundle, grades: int, reduced: bool = False) -> BraidedDim:
    """Global-section dimensions per grade.

    A fractional degree m/p**k has offset k and the same value sequence as
    the integer degree m; a negative degree yields the all-zero tuple.
    """
    deg = bundle.degree
    if deg.num < 0:
        return BraidedDim.zeros(bundle.prime, grades)
    return _monomial_counts(bundle, grades, reduced, f"h0(n={bundle.n},d={deg}")


def hn_top(bundle: LineBundle, grades: int, reduced: bool = False) -> BraidedDim:
    """Top cohomology dimensions per grade, for degree -m/p**k < 0."""
    deg, p = bundle.degree, bundle.prime
    if deg.num >= 0:
        return BraidedDim.zeros(p, grades)
    m, k = -deg.num, deg.pexp
    return _monomial_counts(bundle, grades, reduced,
                            f"hn(n={bundle.n},m={m}{f'/{p}^{k}' if k else ''}")


def middle_vanishing(n: int, i: int, p: int, grades: int = 8) -> BraidedDim:
    """H^i for 0 < i < n: the all-zero tuple."""
    if not 0 < i < n:
        raise DomainError(f"index {i} not strictly between 0 and {n}")
    return BraidedDim.zeros(p, grades)


def euler(bundle: LineBundle, grades: int, reduced: bool = False) -> BraidedDim:
    """Euler characteristic per grade: h0 + (-1)**n * hn, middles vanish."""
    a = h0(bundle, grades, reduced=reduced)
    b = hn_top(bundle, grades, reduced=reduced)
    return a._combine(b, "add" if bundle.n % 2 == 0 else "sub",
                      f"euler(n={bundle.n},d={bundle.degree})")


def bundle_cohomology(bundle: LineBundle, grades: int) -> list[BraidedDim]:
    """All cohomology tuples [h^0, h^1, ..., h^n] of a line bundle; the
    middle indices list one zero tuple, which never changes."""
    if bundle.n < 1:
        raise DomainError("bundle_cohomology requires n >= 1")
    zero = BraidedDim.zeros(bundle.prime, grades)
    return [h0(bundle, grades), *[zero] * (bundle.n - 1), hn_top(bundle, grades)]


def _sum_of_products(pairs, label: int):
    """The sum over pairs (a, b) of a.at(label) * b.at(label), folded left from 0."""
    return functools.reduce(_add, (_mul(a.at(label), b.at(label)) for a, b in pairs), 0)


def kunneth(hA: Sequence[BraidedDim], hB: Sequence[BraidedDim],
            grades: int) -> list[BraidedDim]:
    """Cohomology of a product space from the factors' per-index tuples.

    Index i of the output is the sum over j of hA[j] * hB[i-j], grade by grade
    (the dimension of a tensor product is the product of dimensions), folded
    left from 0 at labels 0..grades-1, where each distinct tuple is read
    once: a tuple listed twice, such as a shared zero tuple, is one object.
    An output whose factors all have generators keeps their composed text
    and answers later labels from the factors.  Inputs must share the prime
    and hold every label below grades.
    """
    if not hA or not hB:
        raise DomainError("empty cohomology list")
    prime = hA[0].prime
    for t in list(hA) + list(hB):
        if t.prime != prime:
            raise DomainError("mixed primes in kunneth inputs")
    try:  # BraidedDim hashes by identity
        rows = {t: t.window(0, grades) for t in dict.fromkeys((*hA, *hB))}
    except HorizonError as exc:
        raise HorizonError(f"grade horizon mismatch: {exc}") from exc
    out = []
    for i in range(len(hA) + len(hB) - 1):
        pairs = [(hA[j], hB[i - j]) for j in range(max(0, i - len(hB) + 1), min(i + 1, len(hA)))]
        values = [0] * grades
        for a, b in pairs:
            values = list(map(_add, values, map(_mul, rows[a], rows[b])))
        generator = desc = None
        if all(a._generator and b._generator for a, b in pairs):
            desc = "zero"
            for a, b in pairs:
                desc = f"add({desc},mul({a.generator_desc},{b.generator_desc}))"
            generator = functools.partial(_sum_of_products, pairs)
        out.append(BraidedDim(prime, 0, values, generator, desc))
    return out
