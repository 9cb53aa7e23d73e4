"""Local intersection multiplicities of plane curves at the origin, per grade.

The classical multiplicity dim O_0 / (F, G) is computed by a Fulton-style
recursion on the defining properties of the intersection number: it is
invariant under G -> G + H*F, additive over factors of G, and mu(y, G) is
the order of vanishing of G(x, 0) at x = 0.  A common component through the
origin makes the answer infinite; it is detected up front by a gcd computed
with a primitive remainder sequence over Z.

p-th roots of a curve are taken by variable rescaling,
F -> F(X**(1/p), Y**(1/p)), never by binomial expansion; every grade-i
computation therefore lands in an ordinary polynomial ring after the
substitution U = X**(1/p**i).  The grade-i entry for root depths (a, b) is

    mu( F(U**q, V**q), G(U**r, V**r) ),  q = p**(i-a), r = p**(i-b),

so the fully rooted diagonal entry (a, b) = (i, i) is the classical
multiplicity at every grade.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .braided import INFINITE_RANK, BraidedDim, _is_inf
from .cech import _int_rank
from .errors import DomainError, FuelExhausted, QuotientCapExceeded
from .fracpoly import FracPoly
from .exponents import _require_prime

_FUEL = 100_000

# internal representation: dict[(xexp, yexp)] -> Fraction, integer exponents
IPoly = dict[tuple[int, int], Fraction]


def _to_ipoly(f: FracPoly) -> IPoly:
    if f.nvars != 2:
        raise DomainError("plane curves require exactly 2 variables")
    if f.is_zero:
        raise DomainError("zero polynomial rejected")
    out: IPoly = {}
    for mon in f.terms():
        ex, ey = mon.exps
        if not (ex.is_integer and ey.is_integer):
            raise DomainError("integer exponents required; rescale first")
        if ex.num < 0 or ey.num < 0:
            raise DomainError("curve exponents must be non-negative")
        out[(ex.num, ey.num)] = mon.coeff
    return out


def _clear_denominators(f: IPoly) -> dict[tuple[int, int], int]:
    """f times the lcm of its coefficient denominators; it generates the same ideal."""
    scale = lcm(*(c.denominator for c in f.values()))
    return {m: int(c * scale) for m, c in f.items()}


def _restrict_y0(f: IPoly) -> dict[int, Fraction]:
    return {a: c for (a, b), c in f.items() if b == 0}


def _y_power_quotient(f: IPoly) -> tuple[int, IPoly]:
    """(k, f / y**k) for the largest power y**k dividing f."""
    k = min(b for _, b in f)
    return k, {(a, b - k): c for (a, b), c in f.items()}


def _ord_x(u: dict[int, Fraction]) -> int:
    return min(u)


def _sub_shifted(g: IPoly, c: Fraction, shift: int, f: IPoly) -> IPoly:
    """g - c * x**shift * f."""
    out = dict(g)
    for (a, b), coeff in f.items():
        key = (a + shift, b)
        v = out.get(key, Fraction(0)) - c * coeff
        if v == 0:
            out.pop(key, None)
        else:
            out[key] = v
    return out


def _mu(A: IPoly, B: IPoly, fuel: list[int]):
    acc = 0  # multiplicity of the y-powers divided out so far
    while True:
        fuel[0] -= 1
        if fuel[0] < 0:
            raise FuelExhausted("multiplicity recursion exceeded its step budget")
        if A.get((0, 0), 0) != 0 or B.get((0, 0), 0) != 0:
            return acc
        if not A or not B:
            return INFINITE_RANK  # ideal collapsed to one nonunit generator
        a0 = _restrict_y0(A)
        b0 = _restrict_y0(B)
        if not a0 and not b0:
            return INFINITE_RANK  # y divides both (guard; gcd pre-check catches it)
        if not a0:
            # A = y**k * A1: mu = k * ord_x B(x,0) + mu(A1, B)
            k, A = _y_power_quotient(A)
            acc += k * _ord_x(b0)
            continue
        if not b0:
            k, B = _y_power_quotient(B)
            acc += k * _ord_x(a0)
            continue
        r, s = max(a0), max(b0)
        if r > s:
            A, B, a0, b0, r, s = B, A, b0, a0, s, r
        B = _sub_shifted(B, b0[s] / a0[r], s - r, A)


# -- common component detection: primitive remainder sequence over Z -------------

# Z[x] polynomials are dicts exponent -> nonzero int; Z[x][y] polynomials are
# dicts y-exponent -> nonzero Z[x] polynomial.


def _in_y(f: dict[tuple[int, int], int]) -> dict:
    """f arranged as a polynomial in y over Z[x]."""
    out: dict = {}
    for (a, b), c in f.items():
        out.setdefault(b, {})[a] = c
    return out


def _mul(a, b):
    """a * b in Z or Z[x]."""
    if isinstance(a, int):
        return a * b
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _sub(a: dict, b: dict) -> dict:
    """a - b in Z[x] or Z[x][y]."""
    out = dict(a)
    for e, c in b.items():
        if isinstance(c, dict):
            out[e] = _sub(out.get(e, {}), c)
        else:
            out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def _divide(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a / b in Z[x] for b dividing a."""
    db = max(b)
    q: dict[int, int] = {}
    while a:
        da = max(a)
        c, r = divmod(a[da], b[db])
        if r or da < db:
            raise ArithmeticError("division is not exact")
        q[da - db] = c
        a = _sub(a, {e + da - db: c * v for e, v in b.items()})
    return q


def _prem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of a by b, polynomials in one variable over Z or Z[x]."""
    db = max(b)
    lb = b[db]
    while a and max(a) >= db:
        da = max(a)
        la = a[da]
        a = _sub({e: _mul(c, lb) for e, c in a.items()},
                 {e + da - db: _mul(c, la) for e, c in b.items()})
    return a


def _primitive(f: dict) -> dict:
    """f divided by its content, the gcd of its coefficients: math.gcd over Z;
    over Z[x] a fold of _gcd that stops once the gcd is a constant."""
    if not f:
        return f
    coeffs = list(f.values())
    if isinstance(coeffs[0], int):
        g = gcd(*coeffs)
        return {e: c // g for e, c in f.items()}
    cont = _primitive(coeffs[0])
    for c in coeffs[1:]:
        if max(cont) == 0:
            break
        cont = _gcd(cont, c)
    return {e: _divide(c, cont) for e, c in f.items()}


def _gcd(a: dict, b: dict) -> dict:
    """gcd of the primitive parts of a and b, polynomials in one variable over Z
    or Z[x], up to sign: the last nonzero primitive remainder."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _common_component_through_origin(F: dict, G: dict) -> bool:
    """True iff gcd(F, G) in Q[x, y] is nonconstant and vanishes at the origin.

    F and G have integer coefficients.  gcd(F, G) is the gcd c(x) of their
    y-contents times the gcd g of their primitive parts in y; it vanishes at
    the origin exactly when c(0) = 0 or g(0, 0) = 0, and a factor vanishing
    there is nonconstant.  c(0) = 0 exactly when x divides both F and G.
    """
    if min(a for a, _ in F) > 0 and min(a for a, _ in G) > 0:
        return True
    return 0 not in _gcd(_in_y(F), _in_y(G)).get(0, {})


def local_multiplicity(F: FracPoly, G: FracPoly):
    """dim of the local ring at the origin modulo (F, G); +inf on a shared component.

    F and G must be nonzero polynomials in two variables with integer
    exponents and exact rational coefficients.
    """
    Fd, Gd = _to_ipoly(F), _to_ipoly(G)
    if Fd.get((0, 0), 0) != 0 or Gd.get((0, 0), 0) != 0:
        return 0
    if _common_component_through_origin(_clear_denominators(Fd), _clear_denominators(Gd)):
        return INFINITE_RANK
    return _mu(Fd, Gd, [_FUEL])


# -- independent oracle -----------------------------------------------------------

def _monomial_staircase(g1: tuple[int, int], g2: tuple[int, int]):
    (a1, b1), (a2, b2) = g1, g2
    if (a1 == 0 and b1 == 0) or (a2 == 0 and b2 == 0):
        return 0
    if min(a1, a2) > 0 or min(b1, b2) > 0:
        return INFINITE_RANK  # no pure power of one of the variables
    count = 0
    for i in range(max(a1, a2)):
        for j in range(max(b1, b2)):
            if not ((i >= a1 and j >= b1) or (i >= a2 and j >= b2)):
                count += 1
    return count


def _truncated_quotient_dim(F: dict, G: dict, N: int) -> int:
    """dim Q[x,y] / ((F, G) + m**N), exact, for F and G with integer coefficients."""
    mons = [(a, b) for a in range(N) for b in range(N - a)]
    index = {m: k for k, m in enumerate(mons)}
    rows = []
    for P in (F, G):
        for (ma, mb) in mons:
            row = [0] * len(mons)
            for (a, b), c in P.items():
                if a + ma + b + mb < N:
                    row[index[(a + ma, b + mb)]] = c
            rows.append(row)
    return len(mons) - _int_rank(rows, len(mons))


def quotient_dim_oracle(F: FracPoly, G: FracPoly, cap: int = 24) -> int:
    """Multiplicity by direct linear algebra; used as the independent cross-check.

    dim O_0 / ((F, G) + m**N) is computed for growing N; by Nakayama, two
    equal consecutive values certify that m**N already lies inside (F, G)
    locally, so the truncated dimension is the local dimension itself.
    Both single-term inputs short-circuit to the monomial staircase count.
    """
    Fd, Gd = _to_ipoly(F), _to_ipoly(G)
    if len(Fd) == 1 and len(Gd) == 1:
        return _monomial_staircase(next(iter(Fd)), next(iter(Gd)))
    Fd, Gd = _clear_denominators(Fd), _clear_denominators(Gd)
    prev = _truncated_quotient_dim(Fd, Gd, 1)
    for N in range(2, cap + 1):
        cur = _truncated_quotient_dim(Fd, Gd, N)
        if cur == prev:
            return cur
        prev = cur
    raise QuotientCapExceeded(f"no stabilization below total degree {cap}")


# -- braided / mixed tuples --------------------------------------------------------

@dataclass
class MultiplicityTuple:
    """Per-grade multiplicity data for a pair of plane curves at the origin.

    mixed[i] is a full (i+1) x (i+1) dict keyed by root depths (a, b): the
    multiplicity of F rooted a times against G rooted b times, measured in
    the grade-i local ring.  Root depths that are not reachable (fractional
    inputs below their native grade) hold zero.  The diagonal tuple takes
    the fully rooted entry of each grade.
    """

    prime: int
    diagonal: BraidedDim
    mixed: list[dict[tuple[int, int], object]]

    def flattened_row(self, i: int) -> list:
        """Row-major flattening, F-power first: a then b descend from i to 0."""
        return [self.mixed[i][(a, b)]
                for a in range(i, -1, -1) for b in range(i, -1, -1)]

    def to_json_dict(self) -> dict:
        def enc(v):
            return "inf" if _is_inf(v) else v
        return {
            "p": self.prime,
            "diagonal": [enc(v) for v in self.diagonal.grades_list()],
            "mixed": [[enc(v) for v in self.flattened_row(i)]
                      for i in range(len(self.mixed))],
        }


def braided_multiplicity(F: FracPoly, G: FracPoly, grades: int) -> MultiplicityTuple:
    """Mixed multiplicity matrices for grades 0..grades and the diagonal tuple.

    Fractional inputs are allowed: a curve whose exponents need denominator
    p**k first appears at grade k, and all entries in earlier grades are
    zero.
    """
    if F.prime != G.prime:
        raise DomainError(f"mixed primes {F.prime} and {G.prime}")
    p = F.prime
    _require_prime(p)
    kF, kG = F.max_pexp(), G.max_pexp()
    F0, G0 = F.rescale_to_grade(kF), G.rescale_to_grade(kG)
    k0 = max(kF, kG)

    cache: dict[tuple[int, int], object] = {}

    def entry(s: int, t: int):
        # mu(F0(U**p**s, V**p**s), G0(U**p**t, V**p**t))
        if (s, t) not in cache:
            cache[(s, t)] = local_multiplicity(
                F0.rescale_to_grade(s), G0.rescale_to_grade(t))
        return cache[(s, t)]

    mixed: list[dict[tuple[int, int], object]] = []
    for i in range(grades + 1):
        mat: dict[tuple[int, int], object] = {}
        for a in range(i + 1):
            for b in range(i + 1):
                s, t = i - kF - a, i - kG - b
                mat[(a, b)] = entry(s, t) if s >= 0 and t >= 0 else 0
        mixed.append(mat)
    # the fully rooted entry of grade i >= k0 is mat[(i - kF, i - kG)], that is
    # entry(0, 0): the classical multiplicity of F0 and G0 at every grade
    classical = entry(0, 0)
    diagonal = BraidedDim(p, k0, generator=lambda label: classical,
                          generator_desc=f"mult({F.render()};{G.render()})",
                          length=max(0, grades + 1 - k0))
    return MultiplicityTuple(p, diagonal, mixed)
