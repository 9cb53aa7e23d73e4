"""Polynomials with exponents in Z[1/p] and exact rational coefficients.

Only finite formal sums are modeled.  Coefficients live in the rationals;
exponents are PAdicFrac values sharing one ambient prime.  The text grammar
(ASCII; whitespace, any Unicode space, is insignificant) is

    poly    := ["+" | "-"] term (("+" | "-") term)*
    term    := factor ("*"? factor)*
    factor  := coeff | monom
    monom   := var ("^" exp)?
    exp     := ["-"] integer | "(" ["-"] integer "/" integer ")"
    coeff   := integer ("/" integer)?
    var     := "x" | "y" | "z" | "x0" .. "x9"
    integer := digit+
    digit   := "0" .. "9"

Only ASCII digits are digits, so a non-ASCII digit is a ParseError like any
other stray character.  Exponent denominators must be powers of the
configured prime.  Rendering is deterministic: terms in descending order of
their exponent vectors, compared lexicographically across variables as
rationals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, ParseError
from .exponents import PAdicFrac, _require_prime

ExpVector = tuple[PAdicFrac, ...]


@dataclass(frozen=True)
class FracMonomial:
    """A single term: nonzero rational coefficient times a monomial."""

    coeff: Fraction
    exps: ExpVector

    def __post_init__(self):
        if self.coeff == 0:
            raise DomainError("monomial coefficient must be nonzero")

    @property
    def degree(self) -> PAdicFrac:
        return sum(self.exps[1:], self.exps[0])


def _substitute_vector(exps: ExpVector, images: Mapping[int, FracMonomial],
                       prime: int) -> tuple[int, ExpVector]:
    """The sign and the exponents of x**exps with each x_j replaced by images[j].

    Variables without an image are kept.  An image with coefficient -1 flips
    the sign once per odd power; a fractional power of it is not defined.
    """
    sign = 1
    out = [PAdicFrac(0, 0, prime) if j in images else e for j, e in enumerate(exps)]
    for j, image in images.items():
        e = exps[j]
        if e.is_zero:
            continue
        if image.coeff == -1:
            if not e.is_integer:
                raise DomainError("fractional power of a negative monomial")
            if e.num % 2 == 1:
                sign = -sign
        for k, r in enumerate(image.exps):
            out[k] = out[k] + r * e
    return sign, tuple(out)


class FracPoly:
    """Finite formal sum of monomials keyed by exponent vector."""

    __slots__ = ("nvars", "prime", "_terms")

    def __init__(self, nvars: int, prime: int,
                 terms: Mapping[ExpVector, Fraction] | Iterable[tuple[ExpVector, Fraction]] = ()):
        _require_prime(prime)
        if nvars < 1:
            raise DomainError("nvars must be positive")
        self.nvars = nvars
        self.prime = prime
        merged: dict[ExpVector, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise DomainError("exponent vector length does not match nvars")
            for e in exps:
                if e.prime != prime:
                    raise DomainError("mixed primes in exponent vector")
            c = merged.get(exps, Fraction(0)) + Fraction(coeff)
            if c == 0:
                merged.pop(exps, None)
            else:
                merged[exps] = c
        self._terms = merged

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, prime: int) -> "FracPoly":
        return cls(nvars, prime)

    @classmethod
    def monomial(cls, nvars: int, prime: int, coeff, exps: Sequence[PAdicFrac]) -> "FracPoly":
        return cls(nvars, prime, [(tuple(exps), Fraction(coeff))])

    # -- views -----------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def terms(self) -> list[FracMonomial]:
        """Terms in descending exponent-vector order (rendering order)."""
        keys = sorted(self._terms, reverse=True)
        return [FracMonomial(self._terms[k], k) for k in keys]

    def coefficient(self, exps: ExpVector) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def constant_term(self) -> Fraction:
        zero_vec = tuple(PAdicFrac(0, 0, self.prime) for _ in range(self.nvars))
        return self._terms.get(zero_vec, Fraction(0))

    def homogeneous_degree(self) -> PAdicFrac | None:
        """Common degree of all terms, or None if inhomogeneous or zero."""
        degrees = {FracMonomial(c, e).degree for e, c in self._terms.items()}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def max_pexp(self) -> int:
        """Largest denominator exponent over all exponents (0 for integer polys)."""
        return max((e.pexp for exps in self._terms for e in exps), default=0)

    def min_exp(self, var: int) -> PAdicFrac:
        if self.is_zero:
            raise DomainError("zero polynomial rejected")
        return min(exps[var] for exps in self._terms)

    # -- arithmetic ------------------------------------------------------------

    def _check_compatible(self, other: "FracPoly") -> None:
        if self.nvars != other.nvars or self.prime != other.prime:
            raise DomainError("polynomials from different ambient rings")

    def __add__(self, other: "FracPoly") -> "FracPoly":
        self._check_compatible(other)
        items = list(self._terms.items()) + list(other._terms.items())
        return FracPoly(self.nvars, self.prime, items)

    def __neg__(self) -> "FracPoly":
        return FracPoly(self.nvars, self.prime,
                        [(e, -c) for e, c in self._terms.items()])

    def __sub__(self, other: "FracPoly") -> "FracPoly":
        return self + (-other)

    def __mul__(self, other) -> "FracPoly":
        if isinstance(other, (int, Fraction)):
            return FracPoly(self.nvars, self.prime,
                            [(e, c * other) for e, c in self._terms.items()])
        self._check_compatible(other)
        items = []
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                items.append((tuple(a + b for a, b in zip(e1, e2)), c1 * c2))
        return FracPoly(self.nvars, self.prime, items)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, FracPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self.prime == other.prime
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.nvars, self.prime, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"FracPoly({self.render()!r}, nvars={self.nvars}, p={self.prime})"

    # -- structural operations ---------------------------------------------------

    def substitute(self, var: int, replacement: FracMonomial) -> "FracPoly":
        """Replace x_var by a monomial in the same variable slots.

        The image must have non-negative exponents and coefficient +-1; a
        coefficient of -1 is only meaningful when every exponent of x_var is
        an integer (fractional powers of -1 are not defined here).
        """
        if not 0 <= var < self.nvars:
            raise DomainError("variable index out of range")
        if len(replacement.exps) != self.nvars:
            raise DomainError("replacement lives in a different variable space")
        if replacement.coeff not in (1, -1):
            raise DomainError("non-monomial replacement rejected: coefficient must be +-1")
        for e in replacement.exps:
            if e.prime != self.prime:
                raise DomainError("mixed primes in replacement")
            if e.num < 0:
                raise DomainError("replacement exponents must be non-negative")
        images = {var: replacement}
        items = []
        for exps, coeff in self._terms.items():
            sign, new = _substitute_vector(exps, images, self.prime)
            items.append((new, sign * coeff))
        return FracPoly(self.nvars, self.prime, items)

    def rescale_to_grade(self, i: int) -> "FracPoly":
        """Substitute each variable x_j = u_j**(p**i): exponents scale by p**i.

        Every exponent must have denominator exponent <= i; the result has
        integer exponents throughout.
        """
        items = []
        for exps, coeff in self._terms.items():
            try:
                scaled = tuple(PAdicFrac(e.scaled(i), 0, self.prime) if e.num else e
                               for e in exps)
            except DomainError as exc:
                raise DomainError(f"grade too small: {exc}") from exc
            items.append((scaled, coeff))
        return FracPoly(self.nvars, self.prime, items)

    def extract_power(self, var: int) -> tuple[PAdicFrac, "FracPoly"]:
        """Factor out the maximal power of x_var: f = x_var**e * cofactor."""
        e = self.min_exp(var)
        items = []
        for exps, coeff in self._terms.items():
            new = list(exps)
            new[var] = new[var] - e
            items.append((tuple(new), coeff))
        return e, FracPoly(self.nvars, self.prime, items)

    def set_var_zero(self, var: int) -> "FracPoly":
        """Evaluate x_var = 0: terms with positive exponent vanish."""
        items = []
        for exps, coeff in self._terms.items():
            e = exps[var]
            if e.num < 0:
                raise DomainError("cannot evaluate a negative power at zero")
            if e.is_zero:
                items.append((exps, coeff))
        return FracPoly(self.nvars, self.prime, items)

    def restrict_to_var(self, var: int) -> "FracPoly":
        """Project onto a single-variable polynomial; other exponents must be zero."""
        items = []
        for exps, coeff in self._terms.items():
            for j, e in enumerate(exps):
                if j != var and not e.is_zero:
                    raise DomainError("polynomial involves other variables")
            items.append(((exps[var],), coeff))
        return FracPoly(1, self.prime, items)

    # -- text ---------------------------------------------------------------------

    def render(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "0"
        names = tuple(names) if names is not None else default_var_names(self.nvars)
        return _render_terms([(k, self._terms[k]) for k in sorted(self._terms, reverse=True)],
                             names)

    def __str__(self) -> str:
        return self.render()


def _plane_terms(f: FracPoly, k: int) -> dict[tuple[int, int], Fraction]:
    """The plane curve f at grade k: x**(a/p**k) * y**(b/p**k) -> coeff keyed
    by (a, b).  f must be nonzero, with non-negative exponents whose
    denominators divide p**k, checked term by term in rendering order; the
    caller checks that f has 2 variables."""
    if f.is_zero:
        raise DomainError("zero polynomial rejected")
    terms = {}
    for (ex, ey), coeff in sorted(f._terms.items(), reverse=True):
        if ex.pexp > k or ey.pexp > k:
            raise DomainError("integer exponents required; rescale first")
        if ex.num < 0 or ey.num < 0:
            raise DomainError("curve exponents must be non-negative")
        terms[ex.scaled(k), ey.scaled(k)] = coeff
    return terms


def default_var_names(nvars: int) -> tuple[str, ...]:
    if nvars <= 3:
        return ("x", "y", "z")[:nvars]
    if nvars > 10:
        raise DomainError("the grammar names at most 10 variables")
    return tuple(f"x{i}" for i in range(nvars))


def _power_suffix(num: int, pexp: int, p: int) -> str:
    """The text after a variable raised to num / p**pexp: "" for the power 1,
    "^a" for an integer a, "^(a/p^b)" in lowest terms otherwise."""
    while pexp and num % p == 0:
        num //= p
        pexp -= 1
    if not pexp:
        return "" if num == 1 else f"^{num}"
    return f"^({num}/{p**pexp})"


def _exp_suffix(e: PAdicFrac) -> str:
    return _power_suffix(e.num, e.pexp, e.prime)


def _factors(exps: ExpVector, names: Sequence[str]) -> str:
    """The factors of a monomial joined by "*"; "" for the unit monomial."""
    return "*".join(names[j] + _exp_suffix(e) for j, e in enumerate(exps) if not e.is_zero)


def _term_body(abs_coeff: Fraction, exps: ExpVector, names: Sequence[str]) -> str:
    factors = _factors(exps, names)
    if not factors:
        return str(abs_coeff)
    return factors if abs_coeff == 1 else f"{abs_coeff}*{factors}"


def _render_terms(items: Sequence[tuple[ExpVector, Fraction]], names: Sequence[str]) -> str:
    """The text of a nonzero sum of (exps, coeff) terms given in rendering order."""
    out = []
    for k, (exps, c) in enumerate(items):
        if k == 0:
            prefix = "-" if c < 0 else ""
        else:
            prefix = " - " if c < 0 else " + "
        out.append(prefix + _term_body(abs(c), exps, names))
    return "".join(out)


def monomial_string(exps: ExpVector, names: Sequence[str] | None = None) -> str:
    """Coefficient-free monomial text, e.g. "x^(1/3)*y^(5/3)"; "1" for the unit."""
    names = tuple(names) if names is not None else default_var_names(len(exps))
    return _factors(exps, names) or "1"


# -- parsing ------------------------------------------------------------------------

_VAR_LETTERS = {"x": 0, "y": 1, "z": 2}
# whitespace matches no alternative and is skipped; punctuation is its own kind
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<var>x[0-9]|[xyz])|[-+*^/()]|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind or m.group(), m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, nvars: int, prime: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = nvars
        self.prime = prime

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def accept(self, kind: str) -> tuple[str, str, int] | None:
        tok = self.tokens[self.pos]
        if tok[0] == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.accept(kind)
        if tok is None:
            cur = self.peek()
            raise ParseError(f"expected {what}", cur[2])
        return tok

    def parse_poly(self) -> list[tuple[list[PAdicFrac], Fraction]]:
        terms = []
        while True:  # the sign of the first term is optional
            if self.accept("-"):
                terms.append(self.parse_term(-1))
            elif self.accept("+") or not terms:
                terms.append(self.parse_term(1))
            else:
                break
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return terms

    def parse_term(self, sign: int) -> tuple[list[PAdicFrac], Fraction]:
        coeff = Fraction(sign)
        exps = [PAdicFrac(0, 0, self.prime) for _ in range(self.nvars)]
        saw_factor = False
        expect_factor = False
        while True:
            tok = self.peek()
            if tok[0] == "int":
                self.pos += 1
                value = Fraction(int(tok[1]))
                if self.accept("/"):
                    den = self.expect("int", "integer after '/'")
                    if int(den[1]) == 0:
                        raise ParseError("zero denominator", den[2])
                    value /= int(den[1])
                coeff *= value
                saw_factor = True
                expect_factor = False
            elif tok[0] == "var":
                self.pos += 1
                idx = self.var_index(tok)
                e = self.parse_exponent() if self.accept("^") else PAdicFrac(1, 0, self.prime)
                exps[idx] = exps[idx] + e
                saw_factor = True
                expect_factor = False
            elif tok[0] == "*" and saw_factor:
                self.pos += 1
                expect_factor = True
            else:
                break
        if expect_factor or not saw_factor:
            tok = self.peek()
            raise ParseError("expected a coefficient or monomial", tok[2])
        return exps, coeff

    def var_index(self, tok: tuple[str, str, int]) -> int:
        name = tok[1]
        idx = int(name[1]) if len(name) == 2 else _VAR_LETTERS[name]
        if idx >= self.nvars:
            raise ParseError(f"unknown variable name {name!r}", tok[2])
        return idx

    def parse_exponent(self) -> PAdicFrac:
        if self.accept("("):
            sign = -1 if self.accept("-") else 1
            num = self.expect("int", "integer exponent")
            self.expect("/", "'/' in fractional exponent")
            den = self.expect("int", "integer denominator")
            close = self.expect(")", "')'")
            try:
                return PAdicFrac.from_fraction(
                    Fraction(sign * int(num[1]), int(den[1])), self.prime)
            except DomainError:
                raise ParseError(f"denominator not a power of {self.prime}", den[2])
            except ZeroDivisionError:
                raise ParseError("zero denominator", den[2]) from None
        sign = -1 if self.accept("-") else 1
        num = self.expect("int", "integer exponent")
        return PAdicFrac(sign * int(num[1]), 0, self.prime)


def parse(text: str, nvars: int, prime: int) -> FracPoly:
    """Parse the ASCII grammar above into a normalized FracPoly.

    Variables are positional: x/x0 -> 0, y/x1 -> 1, z/x2 -> 2, x3.. -> 3..
    """
    _require_prime(prime)
    if not 1 <= nvars <= 10:
        raise DomainError("nvars must be between 1 and 10")
    return FracPoly(nvars, prime, _Parser(text, nvars, prime).parse_poly())
