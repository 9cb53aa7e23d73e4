"""Polynomials with exponents in Z[1/p] and exact rational coefficients.

Only finite formal sums are modeled.  Coefficients live in the rationals;
exponents lie in Z[1/p] for one ambient prime p.  A polynomial is stored at
its grade k, the least k that clears every exponent denominator, and over its
common denominator d, the least positive d that clears every coefficient: a
term is an integer vector v standing for the exponents v / p**k, with an int
numerator c standing for the coefficient c / d.  So equal polynomials hold
equal data, and sums, products, monomial substitutions and rendering run on
integers; exponents become PAdicFrac values, and coefficients Fractions, only
where a method takes or returns them.  The text grammar (ASCII; whitespace,
any Unicode space, is insignificant) is

    poly    := ["+" | "-"] term (("+" | "-") term)*
    term    := factor ("*"? factor)*
    factor  := coeff | monom
    monom   := var ("^" exp)?
    exp     := ["-"] integer | "(" ["-"] integer "/" integer ")"
    coeff   := integer ("/" integer)?
    var     := "x" | "y" | "z" | "x0" .. "x9"
    integer := digit+
    digit   := "0" .. "9"

A term's factors are joined by one "*" or by none, so a power is written
x^2 and x**2 is a ParseError.  Only ASCII digits are digits, so a non-ASCII
digit is a ParseError like any other stray character, and a stray character
is reported before any other error.  Exponent denominators must be powers of
the configured prime.  parse reads the tokens in one pass straight into
integer vectors and int numerators, so text without a "/" builds no Fraction.
Rendering is deterministic: terms in descending order of their exponent
vectors, compared lexicographically across variables as rationals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, ParseError
from .exponents import PAdicFrac, _denominator_pexp, _require_prime, normalize

ExpVector = tuple[PAdicFrac, ...]


@dataclass(frozen=True)
class FracMonomial:
    """A single term: nonzero rational coefficient times a monomial."""

    coeff: Fraction
    exps: ExpVector

    def __post_init__(self):
        if self.coeff == 0:
            raise DomainError("monomial coefficient must be nonzero")
        if not self.exps:
            raise DomainError("empty exponent vector")
        _check_vector(self.exps)

    @property
    def degree(self) -> PAdicFrac:
        return sum(self.exps[1:], self.exps[0])


def _check_vector(exps: Sequence, prime: int | None = None) -> None:
    """The check of an exponent vector at the public boundary: every entry is
    a PAdicFrac of one prime, that of the first entry unless prime is given."""
    for e in exps:
        if not isinstance(e, PAdicFrac):
            raise TypeError(f"exponent {e!r} is not a PAdicFrac")
        if prime is None:
            prime = e.prime
        elif e.prime != prime:
            raise DomainError("mixed primes in exponent vector")


class FracPoly:
    """Finite formal sum of monomials keyed by exponent vector.

    The constructor takes PAdicFrac exponent vectors and rational
    coefficients.  Each term is kept as an integer vector v at the grade k of
    the polynomial (max_pexp), for the exponents v / p**k, with an int
    numerator over the common denominator _den; terms(), coefficient() and
    the other methods that return exponents or coefficients convert them back
    to PAdicFrac and Fraction values.
    """

    __slots__ = ("nvars", "prime", "_terms", "_k", "_den")

    def __init__(self, nvars: int, prime: int,
                 terms: Mapping[ExpVector, Fraction] | Iterable[tuple[ExpVector, Fraction]] = ()):
        _require_prime(prime)
        if nvars < 1:
            raise DomainError("nvars must be positive")
        checked = []
        for exps, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise DomainError("exponent vector length does not match nvars")
            _check_vector(exps, prime)
            checked.append((exps, Fraction(coeff)))
        k = max((e.pexp for exps, _ in checked for e in exps), default=0)
        den = lcm(*(c.denominator for _, c in checked))
        self._merge(nvars, prime, k, den,
                    [(tuple(e.scaled(k) for e in exps), c.numerator * (den // c.denominator))
                     for exps, c in checked])

    def _merge(self, nvars: int, prime: int, k: int, den: int, items) -> "FracPoly":
        """Make self the sum of (c / den) * x**(v / p**k) over the pairs (v, c)
        of items, integer vectors v and int numerators c over a positive den,
        in lowest terms and at its least grade; checks nothing.  Every
        FracPoly is built here."""
        terms: dict[tuple[int, ...], int] = {}
        for v, c in items:
            c += terms.get(v, 0)
            if c:
                terms[v] = c
            else:
                terms.pop(v, None)
        g = gcd(den, *terms.values())
        if g > 1:
            terms, den = {v: c // g for v, c in terms.items()}, den // g
        while k and all(e % prime == 0 for v in terms for e in v):
            terms, k = {tuple(e // prime for e in v): c for v, c in terms.items()}, k - 1
        self.nvars, self.prime, self._terms, self._k, self._den = nvars, prime, terms, k, den
        return self

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

    def _at(self, k: int) -> list[tuple[tuple[int, ...], int]]:
        """The terms as integer vectors at grade k, at least the grade of self."""
        q = self.prime ** (k - self._k)
        return [(tuple(e * q for e in v), c) for v, c in self._terms.items()]

    def terms(self) -> list[FracMonomial]:
        """Terms in descending exponent-vector order (rendering order)."""
        return [FracMonomial(Fraction(self._terms[v], self._den),
                             tuple(normalize(e, self._k, self.prime) for e in v))
                for v in sorted(self._terms, reverse=True)]

    def coefficient(self, exps: ExpVector) -> Fraction:
        exps = tuple(exps)
        if not all(isinstance(e, PAdicFrac) and e.prime == self.prime and e.pexp <= self._k
                   for e in exps):
            return Fraction(0)  # no term of self has these exponents
        return Fraction(self._terms.get(tuple(e.scaled(self._k) for e in exps), 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get((0,) * self.nvars, 0), self._den)

    def homogeneous_degree(self) -> PAdicFrac | None:
        """Common degree of all terms, or None if inhomogeneous or zero."""
        degrees = {sum(v) for v in self._terms}
        return normalize(degrees.pop(), self._k, self.prime) if len(degrees) == 1 else None

    def max_pexp(self) -> int:
        """Largest denominator exponent over all exponents (0 for integer polys)."""
        return self._k

    def min_exp(self, var: int) -> PAdicFrac:
        self._check_var(var)
        if self.is_zero:
            raise DomainError("zero polynomial rejected")
        return normalize(min(v[var] for v in self._terms), self._k, self.prime)

    # -- arithmetic ------------------------------------------------------------

    def _check_compatible(self, other: "FracPoly") -> None:
        if self.nvars != other.nvars or self.prime != other.prime:
            raise DomainError("polynomials from different ambient rings")

    def __add__(self, other: "FracPoly") -> "FracPoly":
        if not isinstance(other, FracPoly):
            return NotImplemented
        self._check_compatible(other)
        k, den = max(self._k, other._k), lcm(self._den, other._den)
        return _merged(self.nvars, self.prime, k, den,
                       [(v, c * (den // f._den)) for f in (self, other) for v, c in f._at(k)])

    def __neg__(self) -> "FracPoly":
        return self * -1

    def __sub__(self, other: "FracPoly") -> "FracPoly":
        return self + (-other) if isinstance(other, FracPoly) else NotImplemented

    def __mul__(self, other) -> "FracPoly":
        if isinstance(other, (int, Fraction)):  # both have numerator and denominator
            n = other.numerator
            return _merged(self.nvars, self.prime, self._k, self._den * other.denominator,
                           [(v, c * n) for v, c in self._terms.items()])
        if not isinstance(other, FracPoly):
            return NotImplemented
        self._check_compatible(other)
        k = max(self._k, other._k)
        return _merged(self.nvars, self.prime, k, self._den * other._den,
                       [(tuple(map(add, v1, v2)), c1 * c2)
                        for v1, c1 in self._at(k) for v2, c2 in other._at(k)])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, FracPoly):
            return NotImplemented
        return ((self.nvars, self.prime, self._k, self._den, self._terms)
                == (other.nvars, other.prime, other._k, other._den, other._terms))

    def __hash__(self):
        return hash((self.nvars, self.prime, self._k, self._den, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"FracPoly({self.render()!r}, nvars={self.nvars}, p={self.prime})"

    # -- structural operations ---------------------------------------------------

    def _check_var(self, var: int) -> None:
        if not 0 <= var < self.nvars:
            raise DomainError("variable index out of range")

    def substitute(self, var: int, replacement: FracMonomial) -> "FracPoly":
        """Replace x_var by a monomial in the same variable slots.

        The image must have non-negative exponents and coefficient +-1; a
        coefficient of -1 is only meaningful when every exponent of x_var is
        an integer (fractional powers of -1 are not defined here).
        """
        self._check_var(var)
        if len(replacement.exps) != self.nvars:
            raise DomainError("replacement lives in a different variable space")
        if replacement.coeff not in (1, -1):
            raise DomainError("non-monomial replacement rejected: coefficient must be +-1")
        if replacement.exps[0].prime != self.prime:
            raise DomainError("mixed primes in replacement")
        if any(e.num < 0 for e in replacement.exps):
            raise DomainError("replacement exponents must be non-negative")
        return self._substitute({var: replacement})

    def _substitute(self, images: Mapping[int, FracMonomial]) -> "FracPoly":
        """Replace each x_j by images[j], +-1 times a monomial of self's
        prime and length, unchecked; variables without an image are kept.

        The images are put on one grade k2 as integer vectors w_j: a term v
        at grade k goes to sum_j v_j * w_j, plus v_i * p**k2 in slot i for
        each variable i without an image, at grade k + k2.  An image -1 * w_j
        flips the sign when v_j / p**k is odd; a fractional power of it is
        not defined.
        """
        p, k = self.prime, self._k
        k2 = max((e.pexp for image in images.values() for e in image.exps), default=0)
        q, unit = p**k2, p**k
        w = [(j, [e.scaled(k2) for e in image.exps], image.coeff == -1)
             for j, image in images.items()]
        items = []
        for v, c in self._terms.items():
            out = [0 if j in images else e * q for j, e in enumerate(v)]
            for j, wj, negative in w:
                if negative:
                    if v[j] % unit:
                        raise DomainError("fractional power of a negative monomial")
                    c = -c if v[j] // unit % 2 else c
                out = [a + v[j] * b for a, b in zip(out, wj)]
            items.append((tuple(out), c))
        return _merged(self.nvars, p, k + k2, self._den, items)

    def rescale_to_grade(self, i: int) -> "FracPoly":
        """Substitute each variable x_j = u_j**(p**i): exponents scale by p**i.

        Every exponent must have denominator exponent <= i, that is i >=
        max_pexp(), which the error names otherwise; the result has integer
        exponents throughout.
        """
        if i < self._k:
            raise DomainError(
                f"grade too small: grade {i} too small for denominator exponent {self._k}")
        return _merged(self.nvars, self.prime, 0, self._den, self._at(i))

    def extract_power(self, var: int) -> tuple[PAdicFrac, "FracPoly"]:
        """Factor out the maximal power of x_var: f = x_var**e * cofactor."""
        e = self.min_exp(var)
        m = e.scaled(self._k)
        items = [(v[:var] + (v[var] - m,) + v[var + 1:], c) for v, c in self._terms.items()]
        return e, _merged(self.nvars, self.prime, self._k, self._den, items)

    def set_var_zero(self, var: int) -> "FracPoly":
        """Evaluate x_var = 0: terms with positive exponent vanish."""
        self._check_var(var)
        if any(v[var] < 0 for v in self._terms):
            raise DomainError("cannot evaluate a negative power at zero")
        return _merged(self.nvars, self.prime, self._k, self._den,
                       [(v, c) for v, c in self._terms.items() if not v[var]])

    def restrict_to_var(self, var: int) -> "FracPoly":
        """Project onto a single-variable polynomial; other exponents must be zero."""
        self._check_var(var)
        if any(e for v in self._terms for j, e in enumerate(v) if j != var):
            raise DomainError("polynomial involves other variables")
        return _merged(1, self.prime, self._k, self._den,
                       [((v[var],), c) for v, c in self._terms.items()])

    # -- text ---------------------------------------------------------------------

    def render(self, names: Sequence[str] | None = None) -> str:
        names = _var_names(names, self.nvars)
        if self.is_zero:
            return "0"
        return _render_terms([(v, self._terms[v]) for v in sorted(self._terms, reverse=True)],
                             self._den, names, self._k, self.prime)

    def __str__(self) -> str:
        return self.render()


def _merged(nvars: int, prime: int, k: int, den: int, items) -> FracPoly:
    """The FracPoly of the integer terms items at grade k over den, through
    FracPoly._merge."""
    return object.__new__(FracPoly)._merge(nvars, prime, k, den, items)


def _plane_terms(f: FracPoly, k: int) -> dict[tuple[int, int], int]:
    """The plane curve f at grade k: x**(a/p**k) * y**(b/p**k) -> numerator
    over f._den, keyed by (a, b), read off the stored integer vectors of f.
    f must have 2 variables, be nonzero and have non-negative exponents whose
    denominators divide p**k, checked in that order, term by term in
    rendering order."""
    if f.nvars != 2:
        raise DomainError("plane curves require exactly 2 variables")
    if f.is_zero:
        raise DomainError("zero polynomial rejected")
    up, down = f.prime ** max(k - f._k, 0), f.prime ** max(f._k - k, 0)
    terms = {}
    for a, b in sorted(f._terms, reverse=True):
        if a % down or b % down:
            raise DomainError("integer exponents required; rescale first")
        if a < 0 or b < 0:
            raise DomainError("curve exponents must be non-negative")
        terms[a * up // down, b * up // down] = f._terms[a, b]
    return terms


def default_var_names(nvars: int) -> tuple[str, ...]:
    if nvars <= 3:
        return ("x", "y", "z")[:nvars]
    if nvars > 10:
        raise DomainError("the grammar names at most 10 variables")
    return tuple(f"x{i}" for i in range(nvars))


def _var_names(names: Sequence[str] | None, nvars: int) -> tuple[str, ...]:
    """The names to render nvars variables with: names, which may hold more,
    or default_var_names(nvars) if names is None."""
    names = default_var_names(nvars) if names is None else tuple(names)
    if len(names) < nvars:
        raise DomainError(f"too few names: {len(names)} for {nvars} variables")
    return names


def _power_suffix(num: int, pexp: int, p: int) -> str:
    """The text after a variable raised to num / p**pexp: "" for the power 1,
    "^a" for an integer a, "^(a/p^b)" in lowest terms otherwise."""
    while pexp and num % p == 0:
        num //= p
        pexp -= 1
    if not pexp:
        return "" if num == 1 else f"^{num}"
    return f"^({num}/{p**pexp})"


def _coeff_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for a positive den, without the Fraction."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _term_body(num: int, den: int, v: tuple[int, ...], names: Sequence[str],
               k: int, p: int) -> str:
    """One term's text without its sign, for the coefficient num / den > 0 and
    the integer vector v at grade k."""
    factors = "*".join(names[j] + _power_suffix(e, k, p) for j, e in enumerate(v) if e)
    if not factors:
        return _coeff_text(num, den)
    return factors if num == den else f"{_coeff_text(num, den)}*{factors}"


def _render_terms(items: Sequence[tuple[tuple[int, ...], int]], den: int,
                  names: Sequence[str], k: int, p: int) -> str:
    """The text of a nonzero sum of (v, num) terms, integer vectors v at
    grade k with coefficients num / den, given in rendering order: the first
    term's " + " is dropped and its " - " becomes "-"."""
    text = "".join((" - " if c < 0 else " + ") + _term_body(abs(c), den, v, names, k, p)
                   for v, c in items)
    return text[3:] if items[0][1] > 0 else "-" + text[3:]


def monomial_string(exps: ExpVector, names: Sequence[str] | None = None) -> str:
    """Coefficient-free monomial text, e.g. "x^(1/3)*y^(5/3)"; "1" for the unit."""
    _check_vector(exps)
    names = _var_names(names, len(exps))
    return "*".join(names[j] + _power_suffix(e.num, e.pexp, e.prime)
                    for j, e in enumerate(exps) if e.num) or "1"


# -- parsing ------------------------------------------------------------------------

_VAR_INDEX = {"x": 0, "y": 1, "z": 2, **{f"x{j}": j for j in range(10)}}
# whitespace matches no alternative and is skipped; a stray character is "bad"
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<var>x[0-9]|[xyz])|(?P<punct>[-+*^/()])|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of text as (kind, text, position), punctuation its own
    kind, then ("end", "", len(text)); ParseError at a stray character."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((m.group() if kind == "punct" else kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _error(text: str, at: int, message: str) -> ParseError:
    """The ParseError message at the at-th token of text (the end counts as
    one), or, raised instead, that of a stray character of text, which is
    reported before any other error."""
    return ParseError(message, _tokenize(text)[at][2])


def parse(text: str, nvars: int, prime: int) -> FracPoly:
    """Parse the ASCII grammar above into a normalized FracPoly.

    Variables are positional: x/x0 -> 0, y/x1 -> 1, z/x2 -> 2, x3.. -> 3..
    """
    _require_prime(prime)
    if not 1 <= nvars <= 10:
        raise DomainError("nvars must be between 1 and 10")
    try:
        return _read(text, nvars, prime)
    except ValueError:
        _tokenize(text)  # a stray character goes before an int too long to read
        raise


def _read(text: str, nvars: int, prime: int) -> FracPoly:
    """The one pass of parse over the tokens (int, var, punct, bad) of text.

    Each term is read as an int numerator and denominator and an integer
    exponent vector at the grade k of the exponents read so far, unit =
    p**k; a term is rescaled when a later exponent raises k.  Positions are
    looked up only for an error, by _error.
    """
    toks = _TOKEN.findall(text) + [("", "", "", "")]  # the end: every group empty
    terms = []  # (exps, num, den, unit at the end of the term)
    k, unit, i = 0, 1, 0
    while True:  # poly := ["+" | "-"] term (("+" | "-") term)*
        sign = toks[i][2]
        if sign in ("-", "+"):
            i += 1
        elif terms:
            break
        num, den, exps = -1 if sign == "-" else 1, 1, [0] * nvars
        while True:  # term := factor ("*"? factor)*
            n, var = toks[i][0], toks[i][1]
            i += 1
            if n:
                num *= int(n)
                if toks[i][2] == "/":
                    d = toks[i + 1][0]
                    if not d:
                        raise _error(text, i + 1, "expected integer after '/'")
                    d = int(d)
                    if not d:
                        raise _error(text, i + 1, "zero denominator")
                    den *= d
                    i += 2
            elif var:
                j = _VAR_INDEX[var]
                if j >= nvars:
                    raise _error(text, i - 1, f"unknown variable name {var!r}")
                if toks[i][2] != "^":
                    exps[j] += unit
                else:  # exp := ["-"] integer | "(" ["-"] integer "/" integer ")"
                    paren = toks[i + 1][2] == "("
                    i += 1 + paren
                    neg = toks[i][2] == "-"
                    i += neg
                    if not toks[i][0]:
                        raise _error(text, i, "expected integer exponent")
                    if not paren:
                        a, b = int(toks[i][0]), 1
                    else:
                        if toks[i + 1][2] != "/":
                            raise _error(text, i + 1, "expected '/' in fractional exponent")
                        if not toks[i + 2][0]:
                            raise _error(text, i + 2, "expected integer denominator")
                        if toks[i + 3][2] != ")":
                            raise _error(text, i + 3, "expected ')'")
                        a, b = int(toks[i][0]), int(toks[i + 2][0])
                        if not b:
                            raise _error(text, i + 2, "zero denominator")
                        g = gcd(a, b)
                        a, b = a // g, b // g
                        try:
                            e = _denominator_pexp(b, prime)
                        except DomainError:
                            raise _error(text, i + 2,
                                         f"denominator not a power of {prime}") from None
                        if e > k:
                            exps = [x * (b // unit) for x in exps]
                            k, unit = e, b
                        i += 3
                    exps[j] += (-a if neg else a) * (unit // b)
                    i += 1
            else:
                raise _error(text, i - 1, "expected a coefficient or monomial")
            if toks[i][2] == "*":
                i += 1
            elif not (toks[i][0] or toks[i][1]):
                break
        terms.append((exps, num, den, unit))
    if i != len(toks) - 1:
        raise _error(text, i, f"unexpected {''.join(toks[i])!r}")
    den = lcm(*(d for _, _, d, _ in terms))
    return _merged(nvars, prime, k, den,
                   [(tuple(x * (unit // u) for x in exps), c * (den // d))
                    for exps, c, d, u in terms])
