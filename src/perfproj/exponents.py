"""Exact arithmetic and canonical ordering on Z[1/p].

Every exponent and degree in the package is a fraction num / prime**pexp in
lowest terms.  The prime is carried on each value so that accidental mixing
of two different ambient primes fails fast instead of silently producing a
wrong denominator.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, InitVar, dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering

from .errors import DomainError


# Miller-Rabin with the primes up to 41 as witnesses is exact for every
# integer below _PRIME_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below _PRIME_BOUND.

    A p at or above the bound raises DomainError: the test would not be
    exact there, and trial division would not finish.
    """
    if p <= 41:  # the witnesses are the primes up to 41
        return p in _WITNESSES
    if p >= _PRIME_BOUND:
        raise DomainError(
            f"{p} is too large: primes are checked exactly below {_PRIME_BOUND}")
    if any(p % w == 0 for w in _WITNESSES):
        return False
    if p < 43 * 43:  # no prime factor up to 41, the primes below 43
        return True
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s, d odd
    d = (p - 1) >> s
    for w in _WITNESSES:
        x = pow(w, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    """Raise DomainError unless p is an int prime.  Each prime is proven once
    per process: bools, floats and other non-ints fail before the cache."""
    if not isinstance(p, int) or isinstance(p, bool) or not _proven_prime(p):
        raise DomainError(f"{p!r} is not a prime")


@lru_cache(maxsize=32)
def _proven_prime(p: int) -> bool:
    return is_prime(p)  # the module-level name, looked up at each miss


def _denominator_pexp(den: int, p: int) -> int:
    """The j with den == p**j, for a positive den and a prime p (checked by
    the caller: p = 1 would never stop); DomainError if den is no power of p."""
    j = 0
    while den % p == 0:
        den //= p
        j += 1
    if den != 1:
        raise DomainError(f"denominator not a power of {p}")
    return j


@total_ordering
@dataclass(frozen=True, slots=True)
class PAdicFrac:
    """An element num / prime**pexp of Z[1/p] in normalized form.

    Invariants: pexp >= 0; if pexp > 0 then prime does not divide num;
    zero is canonically (num=0, pexp=0).  The private keyword _checked is
    for the package's own constructions, whose prime is proven and whose
    pair is normalized already: they skip the checks.
    """

    num: int
    pexp: int
    prime: int
    _: KW_ONLY
    _checked: InitVar[bool] = False

    def __post_init__(self, _checked):
        if _checked:
            return
        _require_prime(self.prime)
        if self.pexp < 0:
            raise DomainError("pexp must be non-negative")
        if self.num == 0 and self.pexp != 0:
            raise DomainError("zero must be represented as (0, 0)")
        if self.pexp > 0 and self.num % self.prime == 0:
            raise DomainError(
                f"{self.num}/{self.prime}^{self.pexp} is not in lowest terms"
            )

    @classmethod
    def from_fraction(cls, fr: Fraction, p: int) -> "PAdicFrac":
        """Exact conversion; rejects denominators that are not powers of p.

        The prime is checked before fr is read."""
        _require_prime(p)
        fr = Fraction(fr)
        return _from_ratio(fr.numerator, fr.denominator, p)

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    @property
    def is_integer(self) -> bool:
        return self.pexp == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.prime**self.pexp)

    def order_key(self) -> tuple[int, int]:
        """The pair (num, pexp) that identifies the value: equal values, and
        only they, have equal keys.  It is not an order: 1 = (1, 0) sorts
        before 1/2 = (1, 1) as a tuple; values compare with <."""
        return (self.num, self.pexp)

    def scaled(self, i: int) -> int:
        """The integer value of self * prime**i; requires pexp <= i."""
        if i < self.pexp:
            raise DomainError(
                f"grade {i} too small for denominator exponent {self.pexp}"
            )
        return self.num * self.prime ** (i - self.pexp)

    def _coerce(self, other) -> "PAdicFrac":
        if isinstance(other, PAdicFrac):
            if other.prime != self.prime:
                raise DomainError(
                    f"mixed primes {self.prime} and {other.prime}"
                )
            return other
        if isinstance(other, int):
            return PAdicFrac(other, 0, self.prime, _checked=True)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "PAdicFrac":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        b = max(self.pexp, o.pexp)
        p = self.prime
        num = self.num * p ** (b - self.pexp) + o.num * p ** (b - o.pexp)
        return normalize(num, b, p)

    __radd__ = __add__

    def __sub__(self, other) -> "PAdicFrac":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "PAdicFrac":
        return (-self) + other

    def __mul__(self, other) -> "PAdicFrac":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return normalize(self.num * o.num, self.pexp + o.pexp, self.prime)

    __rmul__ = __mul__

    def __neg__(self) -> "PAdicFrac":
        return PAdicFrac(-self.num, self.pexp, self.prime, _checked=True)

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # cross-multiplied exact comparison of num/p^pexp values
        p = self.prime
        return self.num * p**o.pexp < o.num * p**self.pexp

    def __str__(self) -> str:
        if self.pexp == 0:
            return str(self.num)
        return f"{self.num}/{self.prime**self.pexp}"

    def __repr__(self) -> str:
        return f"PAdicFrac({self}, p={self.prime})"


def normalize(a: int, b: int, p: int) -> PAdicFrac:
    """Canonical form of a / p**b: common powers of p cancelled, zero is (0, 0).

    b is checked first, then the prime, before any division by it.
    """
    if b < 0:
        raise DomainError("pexp must be non-negative")
    _require_prime(p)
    if a == 0:
        return PAdicFrac(0, 0, p, _checked=True)
    while b > 0 and a % p == 0:
        a //= p
        b -= 1
    return PAdicFrac(a, b, p, _checked=True)


def _as_padic(value, p: int) -> PAdicFrac:
    """A number given to a public function as a PAdicFrac of prime p: a
    PAdicFrac of that prime as it is, an int as an integer, a Fraction
    exactly, read and not copied (its denominator must be a power of p);
    anything else is a TypeError.

    p is checked first, since _denominator_pexp would never stop at p = 1."""
    if isinstance(value, PAdicFrac):
        if value.prime != p:
            raise DomainError(f"mixed primes {value.prime} and {p}")
        return value
    if isinstance(value, int):
        return PAdicFrac(int(value), 0, p)
    if isinstance(value, Fraction):
        _require_prime(p)
        return _from_ratio(value.numerator, value.denominator, p)
    raise TypeError(f"{value!r} is not an int, a Fraction or a PAdicFrac")


def _from_ratio(num: int, den: int, p: int) -> PAdicFrac:
    """num / den in lowest terms, den > 0, as a PAdicFrac of a prime p the
    caller has proven; DomainError if den is no power of p.

    p does not divide num over a denominator p**j > 1, so the pair is
    already normalized and nothing is checked twice."""
    return PAdicFrac(num, _denominator_pexp(den, p), p, _checked=True)


def cmp(lhs: PAdicFrac, rhs: PAdicFrac) -> int:
    """Total order on rationals: -1, 0 or 1."""
    if lhs < rhs:
        return -1
    if rhs < lhs:
        return 1
    return 0


def arith(lhs: PAdicFrac, rhs: PAdicFrac, kind: str):
    """Dispatch table for the basic ring operations.

    kind is one of add, sub, mul, neg, cmp; neg ignores rhs.
    """
    if kind == "add":
        return lhs + rhs
    if kind == "sub":
        return lhs - rhs
    if kind == "mul":
        return lhs * rhs
    if kind == "neg":
        return -lhs
    if kind == "cmp":
        return cmp(lhs, rhs)
    raise DomainError(f"unknown operation {kind!r}")
