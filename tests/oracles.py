"""Independent brute-force oracles shared by the test modules.

Nothing here uses binomial formulas: counts come from literal nested-loop
enumeration so that closed forms are checked against something that cannot
share their bugs.  The oracles described as a function "as it was" keep an
implementation that a closed form replaced; the package's counting code
appears only in those.  Besides, run_in_child and cli_in_child run code in a
child process under a resource limit, for the tests that bound a cost.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product
from math import comb, gcd
from pathlib import Path

import perfproj

from perfproj import (INFINITE_RANK, BraidedDim, DomainError, FracMonomial, FracPoly,
                      FuelExhausted, HorizonError, PAdicFrac, ParseError, WeightVector,
                      cohomology_ranks, enumerate_h0_monomials, iter_h0_monomials,
                      iter_hn_monomials, monomial_string, normalize, parse_poly)
from perfproj import cech, fracpoly, intersect
from perfproj.enumeration import _scaled_vectors, count_h0_monomials, count_hn_monomials
from perfproj.exponents import _as_padic, _denominator_pexp
from perfproj.fracpoly import _power_suffix, _tokenize, _var_names
from perfproj.geometry import BlowupChart, ExceptionalLocus


def run_in_child(limit: str, value: int, code: str) -> subprocess.CompletedProcess:
    """The Python code, run in a child that first sets its own resource limit,
    resource.<limit>, to value, and imports perfproj from this checkout; its
    stdout and stderr are captured as text."""
    child = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.{limit}, ({value}, {value}))\n"
    ) + code
    src = Path(perfproj.__file__).resolve().parent.parent
    return subprocess.run([sys.executable, "-c", child], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)


def cli_in_child(limit: str, value: int, argv: list[str]) -> subprocess.CompletedProcess:
    """`perfproj argv`, run by run_in_child."""
    return run_in_child(limit, value, (
        "from perfproj.cli import main\n"
        f"sys.argv = ['perfproj', *{argv!r}]\n"
        "main()\n"))


def count_compositions(total: int, parts: int) -> int:
    """Number of ways to write total as an ordered sum of `parts` values >= 0."""
    if parts == 1:
        return 1
    count = 0
    for first in range(total + 1):
        count += count_compositions(total - first, parts - 1)
    return count


def count_positive_compositions(total: int, parts: int) -> int:
    """Ordered sums of `parts` values >= 1."""
    if parts == 1:
        return 1 if total >= 1 else 0
    count = 0
    for first in range(1, total - parts + 2):
        count += count_positive_compositions(total - first, parts - 1)
    return count


def enumerate_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in enumerate_compositions(total - first, parts - 1):
            yield (first,) + rest


def fraction_table_cell(n: int, deg, label: int, p: int, reduced: bool) -> str:
    """The h0 (deg >= 0) or hn (deg < 0) table cell at grade label, built
    through PAdicFrac: the vectors of iter_* for the integer degree deg.num
    at grade label - deg.pexp, each entry scaled back to an integer by
    p**grade; the first 8, then "..." if there are more."""
    grade = label - deg.pexp
    if deg.num >= 0:
        vectors = iter_h0_monomials(n, deg.num, grade, p, reduced=reduced)
    else:
        vectors = iter_hn_monomials(n, -deg.num, grade, p, reduced=reduced)
    head = list(islice(vectors, 9))
    shown = ["(" + ",".join(str(e.scaled(grade)) for e in v) + ")" for v in head[:8]]
    if len(head) > 8:
        shown.append("...")
    return " ".join(shown)


def rational_rank(rows) -> int:
    """Matrix rank by Gaussian elimination over Q (Fraction arithmetic)."""
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def dense_square_zero(c) -> bool:
    """Whether every product d_{k+1} d_k of a Cech complex is zero, for
    differentials given as sparse rows {column: entry}: each entry of the
    product is summed over the full inner dimension, absent entries read as
    zero, at every column of level k."""
    for k, (a, b) in enumerate(zip(c.differentials, c.differentials[1:])):
        for row in b:
            for col in range(c.dim(k)):
                if sum(row.get(i, 0) * a[i].get(col, 0) for i in range(len(a))):
                    return False
    return True


def densified(c, k: int) -> list[list[int]]:
    """The differential d_k of a Cech complex as dense rows of c.dim(k) ints."""
    return [[row.get(j, 0) for j in range(c.dim(k))] for row in c.differentials[k]]


def tokenize_by_characters(text: str) -> list[tuple[str, str, int]]:
    """Curve-text tokens by a character loop, as the tokenizer read them before
    it became one regular expression; it takes every str.isdigit character
    for a digit, where the grammar takes only ASCII ones."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch in "xyz":
            if ch == "x" and i + 1 < len(text) and text[i + 1].isdigit():
                tokens.append(("var", text[i:i + 2], i))
                i += 2
                continue
            tokens.append(("var", ch, i))
            i += 1
            continue
        if ch in "+-*^/()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


# small plane curves at the origin, integer exponents, for multiplicity tests
CURVE_CORPUS_TEXT = [
    "x", "y", "x^2", "y^2", "x*y", "x^3", "y^3", "x^2*y",
    "y - x", "y + x", "y - 2*x",
    "y - x^2", "y - x^3", "y - x^4", "x - y^2",
    "y^2 - x^3", "y^2 - x^5", "y^2 - x^2 - x^3", "y^2 - x^4", "x^2 + y^2",
]


def curve_corpus(p: int = 2):
    return [parse_poly(text, 2, p) for text in CURVE_CORPUS_TEXT]


def rooted_texts(p: int):
    """Curves through the origin whose exponents need the denominator p."""
    return [f"y - x^({p + 1}/{p})", f"y^(1/{p}) - x", f"x^(1/{p})*y - x^2"]


def shares_an_axis(Fr: dict, Gr: dict) -> bool:
    """Whether x, or y, divides both curves, given as the integer rows of
    intersect._scaled: x divides a curve when no row has a term of
    x-degree 0, y when it has no row 0."""
    return (0 not in Fr and 0 not in Gr) or all(
        0 not in row for rows in (Fr, Gr) for row in rows.values())


def _fulton_reduce(B: dict, ca: int, cb: int, shift: int, A: dict) -> None:
    """B <- ca*B - cb*x**shift*A, then B divided by its content; in place,
    on integer rows y-exponent -> {x-exponent -> nonzero int}."""
    if ca != 1:
        for row in B.values():
            for a in row:
                row[a] *= ca
    for b, arow in A.items():
        row = B.setdefault(b, {})
        for a, c in arow.items():
            a += shift
            if v := row.get(a, 0) - cb * c:
                row[a] = v
            else:
                del row[a]
        if not row:
            del B[b]
    g = gcd(*(c for row in B.values() for c in row.values()))
    if g > 1:
        for row in B.values():
            for a in row:
                row[a] //= g


_FULTON_FUEL = 100_000


def fulton_loop(A: dict, B: dict):
    """mu(A, B) by the rules of the Fulton loop of intersect._local, without
    its truncation at a bound: every term is kept.  A and B are integer rows
    that share no component through the origin, and are consumed; past
    _FULTON_FUEL steps the loop raises FuelExhausted."""
    acc = 0
    for _ in range(2):  # A = x**k * A1: mu = k * ord_y B(0,y) + mu(A1, B)
        k = min(min(row) for row in A.values())
        if k:
            acc += k * min(b for b, row in B.items() if 0 in row)
            A = {b: {a - k: c for a, c in row.items()} for b, row in A.items()}
        A, B = B, A
    for _ in range(_FULTON_FUEL):
        a0, b0 = A.get(0), B.get(0)
        if (a0 and 0 in a0) or (b0 and 0 in b0):
            return acc
        if not A or not B:
            return INFINITE_RANK
        if a0 is None:  # A = y**k * A1: mu = k * ord_x B(x,0) + mu(A1, B)
            k = min(A)
            A = {b - k: row for b, row in A.items()}
            acc += k * min(b0)
        elif b0 is None:
            k = min(B)
            B = {b - k: row for b, row in B.items()}
            acc += k * min(a0)
        else:
            r, s = max(a0), max(b0)
            if r > s:
                A, B, a0, b0, r, s = B, A, b0, a0, s, r
            g = gcd(a0[r], b0[s])
            _fulton_reduce(B, a0[r] // g, b0[s] // g, s - r, A)
    raise FuelExhausted(f"the Fulton loop exceeded {_FULTON_FUEL} steps")


# Z[x] polynomials are dicts exponent -> nonzero int; Z[x][y] polynomials are
# dicts y-exponent -> nonzero Z[x] polynomial, the rows of intersect._scaled.


def _zx_mul(a, b):
    """a * b in Z or Z[x]."""
    if isinstance(a, int):
        return a * b
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _zx_sub(a: dict, b: dict) -> dict:
    """a - b in Z[x] or Z[x][y]."""
    out = dict(a)
    for e, c in b.items():
        if isinstance(c, dict):
            out[e] = _zx_sub(out.get(e, {}), c)
        else:
            out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def _zx_divide(a: dict, b: dict) -> dict:
    """a / b in Z[x] for b dividing a."""
    db = max(b)
    q: dict[int, int] = {}
    while a:
        da = max(a)
        c, r = divmod(a[da], b[db])
        if r or da < db:
            raise ArithmeticError("division is not exact")
        q[da - db] = c
        a = _zx_sub(a, {e + da - db: c * v for e, v in b.items()})
    return q


def _prem(a: dict, b: dict) -> dict:
    """Pseudo-remainder of a by b, polynomials in one variable over Z or Z[x]."""
    db = max(b)
    lb = b[db]
    while a and max(a) >= db:
        da = max(a)
        la = a[da]
        a = _zx_sub({e: _zx_mul(c, lb) for e, c in a.items()},
                    {e + da - db: _zx_mul(c, la) for e, c in b.items()})
    return a


def _primitive(f: dict) -> dict:
    """f divided by its content, the gcd of its coefficients: math.gcd over Z;
    over Z[x] a fold of remainder_gcd that stops once the gcd is a constant."""
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
        cont = remainder_gcd(cont, c)
    return {e: _zx_divide(c, cont) for e, c in f.items()}


def remainder_gcd(a: dict, b: dict) -> dict:
    """gcd of the primitive parts of a and b, polynomials in one variable over Z
    or Z[x], up to sign: the last nonzero primitive remainder.  This is the
    remainder sequence intersect ran before its truncated loop decided
    shared components."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def shares_a_component_through_origin(Fr: dict, Gr: dict) -> bool:
    """Whether gcd(F, G) in Q[x, y] is nonconstant and vanishes at the
    origin, for curves in integer rows (intersect._scaled): a shared axis,
    or else a gcd of the primitive parts in y through the origin (the gcd
    c(x) of the y-contents has c(0) = 0 only when x divides both).  That gcd
    is 1 when dense_coprime_mod_ell certifies it at x0 = 3, 5 or 7 modulo one
    of CERTIFICATE_PRIMES, and remainder_gcd decides otherwise: alone, it
    takes seconds on coprime curves rooted a few times, and minutes where
    coefficients merge into a multiple of the first prime."""
    if shares_an_axis(Fr, Gr):
        return True
    if any(dense_coprime_mod_ell(Fr, Gr, (3, 5, 7), ell) for ell in CERTIFICATE_PRIMES):
        return False
    return 0 not in remainder_gcd(Fr, Gr).get(0, {})


# 2**61 - 1, the Newton stage's own prime, then an independent one: curves
# whose coefficients merge into a multiple of the first, as the constants -1
# and 2**61 merge into 2**61 - 1, can share a factor modulo it and not modulo
# the second
CERTIFICATE_PRIMES = ((1 << 61) - 1, (1 << 61) - 31)


def fulton_multiplicity(F, G):
    """local_multiplicity without the Newton stage and without the Bezout
    truncation: a shared component through the origin is decided by
    shares_a_component_through_origin, and otherwise fulton_loop runs on the
    rows of intersect._scaled."""
    Fr, Gr = (intersect._scaled(fracpoly._plane_terms(P, 0), 1) for P in (F, G))
    if shares_a_component_through_origin(Fr, Gr):
        return INFINITE_RANK
    return fulton_loop(Fr, Gr)


def mixed_by_depth_brute(F, G, grades: int):
    """The mixed multiplicity matrices with every reachable entry computed
    directly: entry (a, b) of grade i is the multiplicity of F0 rescaled to
    grade s = i - kF - a against G0 rescaled to t = i - kG - b, where F0 and
    G0 are the curves at their native grades kF and kG; zero when s < 0 or
    t < 0.  No base-entry identity, no symmetry and no Newton stage is used:
    each entry is fulton_multiplicity.
    """
    kF, kG = F.max_pexp(), G.max_pexp()
    F0, G0 = F.rescale_to_grade(kF), G.rescale_to_grade(kG)
    seen = {}
    mixed = []
    for i in range(grades + 1):
        mat = {}
        for a in range(i + 1):
            for b in range(i + 1):
                s, t = i - kF - a, i - kG - b
                if s < 0 or t < 0:
                    mat[(a, b)] = 0
                    continue
                if (s, t) not in seen:
                    seen[(s, t)] = fulton_multiplicity(F0.rescale_to_grade(s),
                                                       G0.rescale_to_grade(t))
                mat[(a, b)] = seen[(s, t)]
        mixed.append(mat)
    return mixed


def _fracpoly_equation(poly, names) -> str:
    """poly = 0 as "<non-constant part> = <constant>", through FracPoly."""
    const = poly.constant_term()
    rest = FracPoly(poly.nvars, poly.prime,
                    [(m.exps, m.coeff) for m in poly.terms() if any(e.num for e in m.exps)])
    if rest.is_zero:
        return f"{const} = 0"
    rhs = -const
    if rest.terms()[0].coeff < 0:
        rest, rhs = -rest, -rhs
    return f"{rest.render(names)} = {rhs}"


def _fracpoly_chart(F, chart: str):
    one = PAdicFrac(1, 0, F.prime)
    if chart == "u":
        names, relation, sub_var, extract_var, coord_var = ("x", "v"), "y = x*v", 1, 0, 1
    else:
        names, relation, sub_var, extract_var, coord_var = ("u", "y"), "x = y*u", 0, 1, 0
    substituted = F.substitute(sub_var, FracMonomial(Fraction(1), (one, one)))
    e, cofactor = substituted.extract_power(extract_var)
    constraint = cofactor.set_var_zero(extract_var).restrict_to_var(coord_var)
    if constraint.num_terms == 1 and constraint.constant_term() != 0:
        locus = ExceptionalLocus(True, _fracpoly_equation(cofactor, names))
    else:
        point = None
        if constraint.num_terms == 1:
            point = "(1:0)" if chart == "u" else "(0:1)"
        locus = ExceptionalLocus(False, _fracpoly_equation(constraint, (names[coord_var],)),
                                 point)
    return BlowupChart(chart, relation, names, names[extract_var], e, cofactor, locus)


def fracpoly_blowup_charts(F):
    """The two blow-up charts of a plane curve F through the origin, every step
    a FracPoly operation: substitute the chart relation, extract the power of
    the blown-down variable, set it to zero and restrict to the chart
    coordinate.  The curve is not checked."""
    return _fracpoly_chart(F, "u"), _fracpoly_chart(F, "v")


def padic_substitute_vector(exps, images, prime: int):
    """fracpoly._substitute_vector as it was, in PAdicFrac arithmetic: the
    sign and the exponents of x**exps with each x_j replaced by images[j],
    a FracMonomial with coefficient +-1.  Variables without an image are
    kept.  An image with coefficient -1 flips the sign once per odd power;
    a fractional power of it is not defined."""
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


def padic_substitute(f, images):
    """FracPoly._substitute as it was: every term of f through
    padic_substitute_vector, the sum built by the FracPoly constructor."""
    items = []
    for mon in f.terms():
        sign, exps = padic_substitute_vector(mon.exps, images, f.prime)
        items.append((exps, sign * mon.coeff))
    return FracPoly(f.nvars, f.prime, items)


def kunneth_lazy(hA, hB, grades: int):
    """braided.kunneth as it was before it read each factor once: index i is
    the lazy sum over j of hA[j] * hB[i-j], every output read reading each
    factor again."""
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
                    acc = acc + hA[j] * hB[i - j]
                except HorizonError as exc:
                    raise HorizonError(f"grade horizon mismatch: {exc}") from exc
        out.append(BraidedDim(prime, 0, acc._values[:grades], acc._generator,
                              acc.generator_desc, length=grades))
    return out


def padic_veronese_coordinates(n: int, d: int, i: int, p: int, names=None) -> list[str]:
    """The grade-i Veronese coordinates as the PAdicFrac path wrote them: the
    normalized vectors of enumerate_h0_monomials, each through monomial_string."""
    return [monomial_string(v, names) for v in enumerate_h0_monomials(n, d, i, p).vectors]


def veronese_strings_by_join(n: int, d: int, i: int, p: int, names=None) -> list[str]:
    """The grade-i Veronese coordinates of a degree d >= 1 as the per-vector
    writer joined them: each integer composition of p**i * d, its nonzero
    entries looked up in one factor table per variable (every slot formatted
    by _power_suffix) and joined with "*"."""
    names = _var_names(names, n + 1)
    vectors = list(_scaled_vectors(n, d * p**i, i, p, False))
    total = sum(vectors[0])
    tables = [["", *(names[j] + _power_suffix(c, i, p) for c in range(1, total + 1))]
              for j in range(n + 1)]
    return ["*".join(filter(None, map(list.__getitem__, tables, v))) or "1" for v in vectors]


def veronese_inclusion_by_sets(lower, upper) -> bool:
    """Whether every monomial vector of lower is one of upper's, as sets."""
    return set(lower.monomials.vectors) <= set(upper.monomials.vectors)


def bezout_chi_by_counts(d: PAdicFrac, degF: int, degG: int, label: int) -> int:
    """geometry.bezout_chi at grade label (at least d.pexp) as it was before its
    closed form: the four-count sum V(d) - V(d-degF) - V(d-degG) + V(d-degF-degG)
    of graded-piece dimensions on projective 2-space, each V counted by
    count_h0_monomials."""
    degrees = (d, d - degF, d - degG, d - degF - degG)
    return sum(s * count_h0_monomials(2, e, label, d.prime)
               for s, e in zip((1, -1, -1, 1), degrees))


def monomial_staircase_by_loop(g1, g2):
    """dim k[x, y] / (x**a1 * y**b1, x**a2 * y**b2) for gi = (ai, bi), every
    exponent at most 6, by counting the monomials x**i * y**j outside the
    ideal in the squares of side 7 and 14.  A finite quotient has every such
    monomial in the smaller square, so equal counts are its dimension;
    unequal ones mean a ray of monomials escapes every square, and the
    dimension is infinite."""
    (a1, b1), (a2, b2) = g1, g2

    def outside(side: int) -> int:
        count = 0
        for i in range(side):
            for j in range(side):
                if not ((i >= a1 and j >= b1) or (i >= a2 and j >= b2)):
                    count += 1
        return count

    small = outside(7)
    return small if small == outside(14) else INFINITE_RANK


@lru_cache(maxsize=None)
def mask_ranks(n: int, mask: int) -> tuple[int, ...]:
    """Exact ranks of the Cech complex of one negative mask, eliminated on
    that mask's own complex."""
    return cohomology_ranks(cech._build_from_mask(n, mask, None))


def weights_by_count(n: int, target: int, bound: int) -> list[int]:
    """cech's count of weights by number of negative entries as it was, for
    every k = 0..n+1 at once: the integer weights in [-bound, bound]**(n+1)
    summing to target whose negative entries are a given set of k positions,
    at index k.  Shifting each negative entry x to x + bound makes them the
    solutions of sum = target + k*bound in n+1-k parts in [0, bound] and k
    parts in [0, bound - 1]; inclusion-exclusion over the i parts of the
    first kind and j of the second pushed past their caps counts them as
    signed stars-and-bars terms C(top + n, n), all (n+2-k)(k+1) of them."""
    by_k = []
    for k in range(n + 2):
        total = 0
        for i, j in product(range(n + 2 - k), range(k + 1)):
            top = target + k * bound - i * (bound + 1) - j * bound
            if top >= 0:
                total += (-1) ** (i + j) * comb(n + 1 - k, i) * comb(k, j) * comb(top + n, n)
        by_k.append(total)
    return by_k


def verify_by_mask(n: int, degrees, i: int, p: int, ranks=mask_ranks) -> dict:
    """cech.verify_theorems as it was before it checked once per count of
    negative entries, as its JSON dict: each of the 2**(n+1) sign masks that
    has a weight is classified, ranked by ranks(n, mask) and counted on its
    own, and its mismatches are listed from a walk of the box by mask.  The
    inputs are not checked."""
    report = cech.CechReport(n, p, i)
    for degree in degrees:
        d = _as_padic(degree, p)
        target = d.scaled(i)
        m_int = (abs(d.num) // p**d.pexp + 2) * p**i
        by_k = weights_by_count(n, target, m_int)
        by_mask = {mask: by_k[mask.bit_count()] for mask in range(1 << (n + 1))
                   if by_k[mask.bit_count()]}
        h0_total = middle_total = hn_total = checked = 0
        mismatched = {}
        for mask, count in by_mask.items():
            profile, exact = cech._classify_mask(n, mask), ranks(n, mask)
            checked += count
            if profile != exact:
                mismatched[mask] = (profile, exact)
                continue
            h0_total += count * exact[0]
            hn_total += count * exact[n]
            middle_total += count * sum(exact[1:n])
        walk = product(range(-m_int, m_int + 1), repeat=n) if mismatched else ()
        for head in walk:
            ints = head + (target - sum(head),)
            mask = sum(1 << j for j, v in enumerate(ints) if v < 0)
            if -m_int <= ints[-1] <= m_int and mask in mismatched:
                classified, exact = mismatched[mask]
                report.counterexamples.append({
                    "degree": str(d),
                    "weight": str(WeightVector(tuple(normalize(v, i, p) for v in ints))),
                    "classified": list(classified),
                    "ranks": list(exact),
                })
        report.per_degree.append(cech.DegreeSummary(
            d, checked, h0_total, middle_total, hn_total,
            count_h0_monomials(n, d, i, p) if d.num >= 0 else 0,
            count_hn_monomials(n, -d, i, p) if d.num < 0 else 0))
    return report.to_json_dict()


def dense_int_rank(rows, ncols: int) -> int:
    """cech._int_rank as it was, on dense rows: fraction-free elimination
    column by column, every new row divided by its content."""
    rank = 0
    rows = [list(r) for r in rows if any(r)]
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            v = rows[i][col]
            if v:
                new = [pv * a - v * b for a, b in zip(rows[i], rows[rank])]
                g = 0
                for entry in new:
                    g = gcd(g, entry)
                rows[i] = [entry // g for entry in new] if g > 1 else new
        rank += 1
        if rank == len(rows):
            break
    return rank


def dense_truncated_quotient_dim(F: dict, G: dict, N: int) -> int:
    """intersect._truncated_quotient_dim as it was: each truncated multiple
    x**a * y**b * P, a + b < N, as a dense row over the monomials of degree
    < N, and the dense rank of those rows."""
    mons = [(a, b) for a in range(N) for b in range(N - a)]
    index = {m: k for k, m in enumerate(mons)}
    matrix = []
    for P in (F, G):
        for ma, mb in mons:
            line = [0] * len(mons)
            for b, row in P.items():
                for a, c in row.items():
                    if a + ma + b + mb < N:
                        line[index[(a + ma, b + mb)]] = c
            matrix.append(line)
    return len(mons) - dense_int_rank(matrix, len(mons))


def is_prime_by_trial_division(p: int) -> bool:
    """exponents.is_prime as it was before Miller-Rabin: every odd divisor up
    to the square root is tried."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def dense_at_mod_ell(f: dict, x0: int, ell: int) -> list[int]:
    """f(x0, y) modulo ell as a coefficient list, lowest y-degree first, for
    f in integer rows (intersect._scaled)."""
    out = [0] * (max(f) + 1)
    for b, row in f.items():
        out[b] = sum(c * pow(x0, a, ell) for a, c in row.items()) % ell
    return out


def dense_gcd_degree_mod_ell(f: list[int], g: list[int], ell: int) -> int:
    """intersect._gcd_degree_mod_ell as it was on coefficient lists: the
    degree of gcd(f, g) in F_ell[y], for lists with nonzero last entries, at
    most one of them empty (zero)."""
    while g:
        inv, dg = pow(g[-1], -1, ell), len(g) - 1
        f = f[:]
        while len(f) > dg:
            c, shift = f[-1] * inv % ell, len(f) - 1 - dg
            for i in range(dg):  # the top term cancels exactly
                f[shift + i] = (f[shift + i] - c * g[i]) % ell
            f.pop()
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def dense_coprime_mod_ell(F: dict, G: dict, points, ell: int) -> bool:
    """True certifies that curves F and G in integer rows share no factor of
    positive y-degree; False decides nothing.  At the first x0 of points
    where the y-leading coefficient of F or of G does not vanish modulo the
    prime ell, F(x0, y) and G(x0, y), their vanishing leading entries
    dropped, are tested for coprimality in F_ell[y] on coefficient lists.
    A common factor H, primitive in Z[x][y], divides both images and keeps
    its y-degree at x0, since lc_y(H)(x0) divides the leading coefficient
    that survives."""
    for x0 in points:
        f, g = dense_at_mod_ell(F, x0, ell), dense_at_mod_ell(G, x0, ell)
        if f[-1] or g[-1]:
            for h in (f, g):
                while h and not h[-1]:
                    h.pop()
            return dense_gcd_degree_mod_ell(f, g, ell) == 0
    return False


class PadicParser:
    """The curve-text parser as it was before FracPoly stored integer vectors:
    every exponent a PAdicFrac, summed factor by factor into its term."""

    def __init__(self, text: str, nvars: int, prime: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = nvars
        self.prime = prime

    def peek(self):
        return self.tokens[self.pos]

    def accept(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str):
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
            elif tok[0] == "*" and saw_factor and not expect_factor:
                self.pos += 1
                expect_factor = True
            else:
                break
        if expect_factor or not saw_factor:
            tok = self.peek()
            raise ParseError("expected a coefficient or monomial", tok[2])
        return exps, coeff

    def var_index(self, tok) -> int:
        name = tok[1]
        idx = int(name[1]) if len(name) == 2 else {"x": 0, "y": 1, "z": 2}[name]
        if idx >= self.nvars:
            raise ParseError(f"unknown variable name {name!r}", tok[2])
        return idx

    def parse_exponent(self) -> PAdicFrac:
        if self.accept("("):
            sign = -1 if self.accept("-") else 1
            num = self.expect("int", "integer exponent")
            self.expect("/", "'/' in fractional exponent")
            den = self.expect("int", "integer denominator")
            self.expect(")", "')'")
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


def padic_parse_terms(text: str, nvars: int, prime: int) -> dict:
    """{exponent vector: coeff} of the curve text through PadicParser, merged
    as the FracPoly constructor merged PAdicFrac vectors: the coefficients of
    equal vectors summed and zero sums dropped."""
    merged = {}
    for exps, coeff in PadicParser(text, nvars, prime).parse_poly():
        c = merged.pop(tuple(exps), 0) + coeff
        if c:
            merged[tuple(exps)] = c
    return merged


# The curve grammar of the fracpoly docstring as a regular expression over the
# token kinds of _tokenize, one letter a token: i an integer, v a variable,
# punctuation as itself.
_FACTOR = r"(?:i(?:/i)?|v(?:\^(?:-?i|\(-?i/i\)))?)"
_TERM = rf"{_FACTOR}(?:\*?{_FACTOR})*"
_POLY = re.compile(rf"[-+]?{_TERM}(?:[-+]{_TERM})*")


def grammar_accepts(text: str) -> bool:
    """Whether text is a sentence of the curve grammar, read from its token
    kinds alone: which variable, and which denominator, is not looked at."""
    try:
        tokens = _tokenize(text)
    except ParseError:
        return False
    kinds = "".join({"int": "i", "var": "v"}.get(kind, kind) for kind, _, _ in tokens[:-1])
    return _POLY.fullmatch(kinds) is not None


class FractionPoly:
    """FracPoly as it was stored before its coefficients became int numerators
    over one denominator, as a model: terms maps integer vectors at grade k,
    for the exponents v / p**k, to Fraction coefficients; equal vectors merge
    by summing Fractions and the grade is lowered while p divides every
    exponent.  It checks nothing."""

    def __init__(self, nvars: int, prime: int, k: int, items):
        terms = {}
        for v, c in items:
            c += terms.get(v, 0)
            if c:
                terms[v] = c
            else:
                terms.pop(v, None)
        while k and all(e % prime == 0 for v in terms for e in v):
            terms, k = {tuple(e // prime for e in v): c for v, c in terms.items()}, k - 1
        self.nvars, self.prime, self.k, self.terms = nvars, prime, k, terms

    @classmethod
    def of(cls, nvars: int, prime: int, items) -> "FractionPoly":
        """From (PAdicFrac vector, coefficient) items, as FracPoly takes them."""
        items = [(tuple(exps), Fraction(c)) for exps, c in items]
        k = max((e.pexp for exps, _ in items for e in exps), default=0)
        return cls(nvars, prime, k, [(tuple(e.scaled(k) for e in exps), c) for exps, c in items])

    def _at(self, k: int):
        q = self.prime ** (k - self.k)
        return [(tuple(e * q for e in v), c) for v, c in self.terms.items()]

    def __add__(self, other):
        k = max(self.k, other.k)
        return FractionPoly(self.nvars, self.prime, k, self._at(k) + other._at(k))

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionPoly(self.nvars, self.prime, self.k,
                                [(v, c * other) for v, c in self.terms.items()])
        k = max(self.k, other.k)
        return FractionPoly(self.nvars, self.prime, k,
                            [(tuple(a + b for a, b in zip(v1, v2)), c1 * c2)
                             for v1, c1 in self._at(k) for v2, c2 in other._at(k)])

    def substitute(self, var: int, image: FracMonomial) -> "FractionPoly":
        """x_var -> image, +-1 times a monomial, by the integer-vector rule of
        FracPoly._substitute."""
        p, k = self.prime, self.k
        k2 = max(e.pexp for e in image.exps)
        w, unit = [e.scaled(k2) for e in image.exps], p**k
        items = []
        for v, c in self.terms.items():
            if image.coeff == -1:
                if v[var] % unit:
                    raise DomainError("fractional power of a negative monomial")
                c = -c if v[var] // unit % 2 else c
            out = [0 if j == var else e * p**k2 for j, e in enumerate(v)]
            items.append((tuple(a + v[var] * b for a, b in zip(out, w)), c))
        return FractionPoly(self.nvars, p, k + k2, items)

    def rescale_to_grade(self, i: int) -> "FractionPoly":
        return FractionPoly(self.nvars, self.prime, 0, self._at(i))

    def extract_power(self, var: int):
        m = min(v[var] for v in self.terms)
        return (normalize(m, self.k, self.prime),
                FractionPoly(self.nvars, self.prime, self.k,
                             [(v[:var] + (v[var] - m,) + v[var + 1:], c)
                              for v, c in self.terms.items()]))

    def terms_list(self) -> list:
        """(coefficient, PAdicFrac vector) in rendering order, as FracPoly.terms()."""
        return [(self.terms[v], tuple(normalize(e, self.k, self.prime) for e in v))
                for v in sorted(self.terms, reverse=True)]

    def coefficient(self, exps) -> Fraction:
        if any(e.pexp > self.k for e in exps):
            return Fraction(0)
        return self.terms.get(tuple(e.scaled(self.k) for e in exps), Fraction(0))

    def render(self, names=None) -> str:
        """The text of FracPoly.render, from Fraction coefficients."""
        names = names or fracpoly.default_var_names(self.nvars)
        if not self.terms:
            return "0"
        text = ""
        for v in sorted(self.terms, reverse=True):
            c = self.terms[v]
            factors = "*".join(names[j] + fracpoly._power_suffix(e, self.k, self.prime)
                               for j, e in enumerate(v) if e)
            body = str(abs(c)) if not factors else (
                factors if abs(c) == 1 else f"{abs(c)}*{factors}")
            text += (" - " if c < 0 else " + ") + body
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def fracpoly(self) -> FracPoly:
        """The FracPoly of the same terms, through the public constructor."""
        return FracPoly(self.nvars, self.prime, [(exps, c) for c, exps in self.terms_list()])


class RecursiveParser:
    """The curve-text reader as it was before parse became one pass over the
    tokens: recursive descent with a method call per token, exponents read
    as ints or Fractions and coefficients as Fractions, merged by the
    Fraction model."""

    def __init__(self, text: str, nvars: int, prime: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = nvars
        self.prime = prime
        self.grade = 0

    def accept(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] == kind:
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str):
        tok = self.accept(kind)
        if tok is None:
            raise ParseError(f"expected {what}", self.tokens[self.pos][2])
        return tok

    def parse_poly(self) -> FracPoly:
        terms = []
        while True:  # the sign of the first term is optional
            if self.accept("-"):
                terms.append(self.parse_term(-1))
            elif self.accept("+") or not terms:
                terms.append(self.parse_term(1))
            else:
                break
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        q = self.prime ** self.grade
        return FractionPoly(self.nvars, self.prime, self.grade,
                            [(tuple(int(e * q) for e in exps), c)
                             for exps, c in terms]).fracpoly()

    def parse_term(self, sign: int):
        coeff = Fraction(sign)
        exps = [0] * self.nvars
        while True:
            tok = self.tokens[self.pos]
            if tok[0] not in ("int", "var"):
                raise ParseError("expected a coefficient or monomial", tok[2])
            self.pos += 1
            if tok[0] == "var":
                exps[self.var_index(tok)] += self.parse_exponent() if self.accept("^") else 1
            else:
                coeff *= int(tok[1])
                if self.accept("/"):
                    den = self.expect("int", "integer after '/'")
                    if int(den[1]) == 0:
                        raise ParseError("zero denominator", den[2])
                    coeff /= int(den[1])
            if not self.accept("*") and self.tokens[self.pos][0] not in ("int", "var"):
                return exps, coeff

    def var_index(self, tok) -> int:
        name = tok[1]
        idx = int(name[1]) if len(name) == 2 else {"x": 0, "y": 1, "z": 2}[name]
        if idx >= self.nvars:
            raise ParseError(f"unknown variable name {name!r}", tok[2])
        return idx

    def parse_exponent(self):
        if self.accept("("):
            sign = -1 if self.accept("-") else 1
            num = self.expect("int", "integer exponent")
            self.expect("/", "'/' in fractional exponent")
            den = self.expect("int", "integer denominator")
            self.expect(")", "')'")
            try:
                e = Fraction(sign * int(num[1]), int(den[1]))
                self.grade = max(self.grade, _denominator_pexp(e.denominator, self.prime))
            except DomainError:
                raise ParseError(f"denominator not a power of {self.prime}", den[2])
            except ZeroDivisionError:
                raise ParseError("zero denominator", den[2]) from None
            return e
        sign = -1 if self.accept("-") else 1
        return sign * int(self.expect("int", "integer exponent")[1])
