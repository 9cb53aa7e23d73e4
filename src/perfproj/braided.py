"""Braided dimension tuples.

A braided dimension replaces one infinite cohomology dimension with a tuple
of finite per-grade dimensions, indexed by the power of p dividing exponent
denominators.  Grade 0 always recovers the classical coherent dimension.
Tuples carry an offset k so that fractional degrees m/p**k, whose rows start
at grade k, align on absolute grade labels; positions before the offset read
zero.  A closed-form generator, when present, answers reads past the
stored values without storing them; only extend_to stores more values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .enumeration import _as_padic, count_h0_monomials, count_hn_monomials
from .errors import DomainError, HorizonError, IndeterminateForm
from .exponents import PAdicFrac, _require_prime

INFINITE_RANK = math.inf


def _is_inf(v) -> bool:
    return v == INFINITE_RANK


def _add(a, b):
    if _is_inf(a) or _is_inf(b):
        return INFINITE_RANK
    return a + b


def _sub(a, b):
    if _is_inf(a) and _is_inf(b):
        raise IndeterminateForm("inf - inf is indeterminate")
    if _is_inf(b):
        raise IndeterminateForm("result below every integer: finite - inf")
    if _is_inf(a):
        return INFINITE_RANK
    return a - b


def _mul(a, b):
    if a == 0 or b == 0:
        return 0
    if _is_inf(a) or _is_inf(b):
        return INFINITE_RANK
    return a * b


_OPS = {"add": _add, "sub": _sub, "mul": _mul}


class BraidedDim:
    """Graded tuple of extended integers with optional closed-form generator."""

    __slots__ = ("prime", "offset", "_values", "_generator", "generator_desc")

    def __init__(self, prime: int, offset: int = 0, values: Sequence = (),
                 generator: Callable[[int], object] | None = None,
                 generator_desc: str | None = None):
        _require_prime(prime)
        if offset < 0:
            raise DomainError("offset must be non-negative")
        self.prime = prime
        self.offset = offset
        self._values = list(values)
        self._generator = generator
        self.generator_desc = generator_desc

    @classmethod
    def zeros(cls, prime: int, grades: int = 0) -> "BraidedDim":
        return cls(prime, 0, [0] * grades, generator=lambda label: 0,
                   generator_desc="zero")

    @classmethod
    def from_generator(cls, prime: int, offset: int, generator, desc: str,
                       grades: int) -> "BraidedDim":
        dim = cls(prime, offset, (), generator, desc)
        dim.extend_to(grades)
        return dim

    # -- access ---------------------------------------------------------------

    def at(self, label: int):
        """Value at absolute grade label; labels below the offset read 0.

        Past the materialized values the generator answers; nothing is stored.
        """
        if label < self.offset:
            return 0
        idx = label - self.offset
        if idx < len(self._values):
            return self._values[idx]
        if self._generator is None:
            raise HorizonError(
                f"grade {label} beyond materialized horizon and no generator")
        return self._generator(label)

    def extend_to(self, count: int) -> None:
        """Materialize at least `count` values starting at the offset."""
        while len(self._values) < count:
            self._values.append(self.at(self.offset + len(self._values)))

    def window(self, start_label: int, count: int) -> list:
        return [self.at(start_label + j) for j in range(count)]

    def grades_list(self) -> list:
        return list(self._values)

    def equal_up_to(self, other: "BraidedDim", horizon: int = 8) -> bool:
        """Equality of values on absolute labels 0..horizon-1."""
        if self.prime != other.prime:
            return False
        return self.window(0, horizon) == other.window(0, horizon)

    def total_rank(self, probe: int = 16):
        """Total rank of the graded module: +inf for a non-degenerate generator.

        Without a generator the tuple is finite and the ranks just add; with
        one, any nonzero grade among the first `probe` values witnesses
        infinitely many nonzero grades.
        """
        if self._generator is None:
            total = 0
            for v in self._values:
                total = _add(total, v)
            return total
        span = max(probe, len(self._values))
        if any(v != 0 for v in self.window(self.offset, span)):
            return INFINITE_RANK
        return 0

    # -- arithmetic -------------------------------------------------------------

    def _combine(self, other: "BraidedDim", kind: str, symbol: str) -> "BraidedDim":
        if not isinstance(other, BraidedDim):
            raise DomainError("can only combine with another BraidedDim")
        if self.prime != other.prime:
            raise DomainError(f"mixed primes {self.prime} and {other.prime}")
        op = _OPS[kind]
        offset = min(self.offset, other.offset)
        horizon = max(self.offset + len(self._values),
                      other.offset + len(other._values)) - offset
        values = [op(self.at(offset + j), other.at(offset + j))
                  for j in range(horizon)]
        generator = None
        desc = None
        if self._generator is not None and other._generator is not None:
            generator = lambda label: op(self.at(label), other.at(label))
            desc = f"{symbol}({self.generator_desc},{other.generator_desc})"
        return BraidedDim(self.prime, offset, values, generator, desc)

    def __add__(self, other) -> "BraidedDim":
        return self._combine(other, "add", "add")

    def __sub__(self, other) -> "BraidedDim":
        return self._combine(other, "sub", "sub")

    def __mul__(self, other) -> "BraidedDim":
        return self._combine(other, "mul", "mul")

    # -- presentation -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        grades = ["inf" if _is_inf(v) else v for v in self._values]
        out = {"p": self.prime, "offset": self.offset, "grades": grades}
        if self.generator_desc is not None:
            out["generator"] = self.generator_desc
        return out

    def __repr__(self) -> str:
        vals = ", ".join(str(v) for v in self._values)
        return f"BraidedDim(p={self.prime}, offset={self.offset}, values=[{vals}])"


def tuple_arith(lhs: BraidedDim, rhs: BraidedDim, kind: str) -> BraidedDim:
    """Componentwise add/sub on absolute grade labels."""
    if kind not in ("add", "sub"):
        raise DomainError(f"unknown tuple operation {kind!r}")
    return lhs._combine(rhs, kind, kind)


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


def h0(bundle: LineBundle, grades: int, reduced: bool = False) -> BraidedDim:
    """Global-section dimensions per grade.

    A fractional degree m/p**k has offset k and the same value sequence as
    the integer degree m; a negative degree yields the all-zero tuple.
    """
    p = bundle.prime
    deg = bundle.degree
    if deg.num < 0:
        return BraidedDim.zeros(p, grades)
    k, m, n = deg.pexp, deg.num, bundle.n

    def gen(label: int, _n=n, _m=m, _k=k, _p=p) -> int:
        return count_h0_monomials(_n, _m, label - _k, _p, reduced=reduced)

    desc = f"h0(n={n},d={deg}{',reduced' if reduced else ''})"
    return BraidedDim.from_generator(p, k, gen, desc, grades)


def hn_top(bundle: LineBundle, grades: int, reduced: bool = False) -> BraidedDim:
    """Top cohomology dimensions per grade, for degree -m/p**k < 0."""
    p = bundle.prime
    deg = bundle.degree
    if deg.num >= 0:
        return BraidedDim.zeros(p, grades)
    k, m, n = deg.pexp, -deg.num, bundle.n

    def gen(label: int, _n=n, _m=m, _k=k, _p=p) -> int:
        return count_hn_monomials(_n, _m, label - _k, _p, reduced=reduced)

    desc = f"hn(n={n},m={m}{f'/{p}^{k}' if k else ''}{',reduced' if reduced else ''})"
    return BraidedDim.from_generator(p, k, gen, desc, grades)


def middle_vanishing(n: int, i: int, p: int, grades: int = 8) -> BraidedDim:
    """H^i for 0 < i < n: the all-zero tuple."""
    if not 0 < i < n:
        raise DomainError(f"index {i} not strictly between 0 and {n}")
    return BraidedDim.zeros(p, grades)


def euler(bundle: LineBundle, grades: int, reduced: bool = False) -> BraidedDim:
    """Euler characteristic per grade: h0 + (-1)**n * hn, middles vanish."""
    a = h0(bundle, grades, reduced=reduced)
    b = hn_top(bundle, grades, reduced=reduced)
    out = a + b if bundle.n % 2 == 0 else a - b
    out.generator_desc = f"euler(n={bundle.n},d={bundle.degree})"
    return out


def bundle_cohomology(bundle: LineBundle, grades: int) -> list[BraidedDim]:
    """All cohomology tuples [h^0, h^1, ..., h^n] of a line bundle."""
    if bundle.n < 1:
        raise DomainError("bundle_cohomology requires n >= 1")
    out = [h0(bundle, grades)]
    for _ in range(bundle.n - 1):
        out.append(BraidedDim.zeros(bundle.prime, grades))
    out.append(hn_top(bundle, grades))
    return out


def kunneth(hA: Sequence[BraidedDim], hB: Sequence[BraidedDim],
            grades: int) -> list[BraidedDim]:
    """Cohomology of a product space from the factors' per-index tuples.

    Index i of the output is the sum over j of hA[j] * hB[i-j], computed
    grade by grade (the dimension of a tensor product is the product of
    dimensions).  Inputs must share the prime and support the requested
    grade horizon.
    """
    if not hA or not hB:
        raise DomainError("empty cohomology list")
    prime = hA[0].prime
    for t in list(hA) + list(hB):
        if t.prime != prime:
            raise DomainError("mixed primes in kunneth inputs")
    out = []
    for i in range(len(hA) + len(hB) - 1):
        acc = BraidedDim.zeros(prime, grades)
        for j in range(len(hA)):
            if 0 <= i - j < len(hB):
                try:
                    term = hA[j] * hB[i - j]
                    term.extend_to(grades)
                except HorizonError as exc:
                    raise HorizonError(f"grade horizon mismatch: {exc}") from exc
                acc = acc + term
        acc.extend_to(grades)
        out.append(acc)
    return out
