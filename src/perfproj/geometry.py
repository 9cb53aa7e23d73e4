"""Applied layer: Bezout identities, Veronese towers, blow-up charts.

Blow-up charts substitute the chart relation (y = x*v on the u-chart,
x = y*u on the v-chart) into the curve, peel off the maximal power of the
blown-down variable, and read the fiber over the origin from the chart
coordinate constraint left after sending the blown-down variable to zero.
Exceptional sets are reported symbolically, as a constraint equation; root
counting would depend on the ambient field, which is not modeled.

The charts run on the integer form a FracPoly stores, at the curve's grade k
(its largest denominator exponent): fracpoly._plane_terms reads
x**(a/p**k) * y**(b/p**k) as the pair (a, b), with its int numerator over
the curve's common denominator, and the chart substitution sends it to
(a+b, b) on the u-chart and to (a, a+b) on the v-chart.  Both maps are
injective, so no terms merge.  The extracted power is the least
a+b, the order of the curve, on either chart.  The transformed curve is
built from the integer cofactor and the equations are rendered from it; the
extracted power is the only exponent that becomes a PAdicFrac value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .braided import BraidedDim, LineBundle, hn_top
from .enumeration import (GradedPiece, _compositions, _total, count_h0_monomials,
                          enumerate_h0_monomials)
from .errors import DomainError
from .exponents import PAdicFrac, _as_padic, normalize
from .fracpoly import (FracMonomial, FracPoly, _coeff_text, _merged, _plane_terms,
                       _power_suffix, _render_terms, _var_names)


# -- Bezout ------------------------------------------------------------------------

def bezout_chi(d, degF: int, degG: int, grades: int, p: int) -> BraidedDim:
    """Graded dimension of the intersection cycle of two plane projective curves.

    The grade-j value is the alternating sum of the four graded-piece
    dimensions V(d) - V(d-degF) - V(d-degG) + V(d-degF-degG) on projective
    2-space.  For every d >= degF + degG it is the closed form
    p**(2j) * degF * degG, computed directly and counting nothing; grade 0 is
    the classical Bezout number.
    """
    d = _as_padic(d, p)
    if degF < 1 or degG < 1:
        raise DomainError("curve degrees must be positive")
    if d.num < (degF + degG) * p**d.pexp:
        raise DomainError(f"d={d} too small: needs d >= degF + degG = {degF + degG}")
    return BraidedDim(p, d.pexp, generator=lambda j: p**(2 * j) * degF * degG, length=grades,
                      generator_desc=f"bezout_chi(d={d},degF={degF},degG={degG})")


def bezout_line(s, t, grades: int, p: int) -> BraidedDim:
    """The top-cohomology difference hn(-s-t) - hn(-s) - hn(-t) on the line.

    For any positive s, t (integral or fractional) it reads 1 from label
    max(pexp s, pexp t) on.  Below that label a term whose offset is not yet
    reached reads 0, so the difference may differ from 1 there: s = 2/3,
    t = 5 over p = 3 reads -4, 1, 1, 1 from label 0.
    """
    s = _as_padic(s, p)
    t = _as_padic(t, p)
    if s.num <= 0 or t.num <= 0:
        raise DomainError("s and t must be positive")
    total = hn_top(LineBundle(1, -(s + t)), grades)
    return (total - hn_top(LineBundle(1, -s), grades))._combine(
        hn_top(LineBundle(1, -t), grades), "sub", f"bezout_line(s={s},t={t})")


# -- Veronese ------------------------------------------------------------------------

@dataclass(frozen=True)
class VeroneseMap:
    """One grade of the degree-d Veronese tower: coordinates and target dimension.

    The coordinates are the grade-i monomials of degree d in n+1 variables,
    in the order of the integer compositions of p**i * d, whose entry c
    stands for the exponent c / p**i.  They are written a row per head: a
    head is a composition's first n-1 entries and the rest r they leave,
    drawn from the compositions of p**i * d into n parts, and its row is the
    splits (a, r - a) of r over the last two variables, a from r down to 0.
    A head's text is written once and each row once per r, from factor
    tables indexed by c, so a coordinate costs one concatenation once its
    row is built.
    monomials, the same basis as PAdicFrac vectors, is built only when read.
    """

    n: int
    d: int
    grade: int
    prime: int
    target_dim: int

    @cached_property
    def monomials(self) -> GradedPiece:
        return enumerate_h0_monomials(self.n, self.d, self.grade, self.prime)

    def coordinate_strings(self, names=None) -> list[str]:
        n, i, p = self.n, self.grade, self.prime
        names = _var_names(names, n + 1)
        total = _total(n, self.d, i, p, negative=False)
        if n == 0:
            # the one vector (p**i * d,) needs no table
            return [names[0] + _power_suffix(total, i, p)]
        # the last variable's factors come with the "*" that joins them
        *tables, last, starred = _factor_tables([*names[:n], "*" + names[n]], i, p, total)
        rows = [None] * (total + 1)
        out = []
        for head in _compositions(total, n, 1):
            # the first n-1 entries: map stops at the end of tables, before r
            text = "*".join(filter(None, map(list.__getitem__, tables, head)))
            r = head[-1]
            if not r:
                out.append(text or "1")
                continue
            row = rows[r]
            if row is None:
                row = rows[r] = [last[r], *map(str.__add__, last[r - 1:0:-1], starred[1:r]),
                                 starred[r][1:]]
            if text:
                text += "*"
                out += [text + entry for entry in row]
            else:
                out += row
        return out

    def bracket(self, names=None) -> str:
        return "[" + ":".join(self.coordinate_strings(names)) + "]"


def _factor_tables(names, i: int, p: int, total: int) -> list[list[str]]:
    """For each name, its factor text at every entry c in 0..total of grade
    i: the name followed by the suffix of c / p**i, and "" at c = 0.

    The tables share one list of suffixes, _power_suffix(c, i, p) for c in
    1..total.  A table has total + 1 slots; for a map of n >= 1 that is
    never more than its comb(total + n, n) coordinates.
    """
    suffixes = [_power_suffix(c, i, p) for c in range(1, total + 1)]
    return [["", *map(name.__add__, suffixes)] for name in names]


def veronese(n: int, d: int, i: int, p: int) -> VeroneseMap:
    """The grade-i piece of the perfectoid Veronese embedding of degree d.

    Its target dimension is the closed-form count less one: nothing is
    enumerated until the coordinates are read.
    """
    if d < 1:
        raise DomainError("Veronese degree must be positive")
    return VeroneseMap(n, d, i, p, count_h0_monomials(n, d, i, p) - 1)


def veronese_tower_inclusion(lower: VeroneseMap, upper: VeroneseMap) -> bool:
    """Monomial set of the lower grade is contained in the higher grade.

    Both sets are non-empty and hold vectors of n+1 entries summing to d over
    one prime, so the maps must agree on n, d and the prime.  A multiple of
    1/p**i is one of 1/p**j for i <= j; for n >= 1 the monomial with entries
    d - 1/p**i and 1/p**i is in no grade below i; for n = 0 every grade holds
    the one monomial x**d.
    """
    return ((lower.n, lower.d, lower.prime) == (upper.n, upper.d, upper.prime)
            and (lower.grade <= upper.grade or lower.n == 0))


# -- blow-up of a plane curve at the origin ----------------------------------------

@dataclass(frozen=True)
class ExceptionalLocus:
    """Fiber of a blow-up chart over the origin, described symbolically."""

    empty: bool
    constraint: str          # equation in the chart coordinate, or the witness
    point: str | None = None  # set when the constraint pins the single point


@dataclass(frozen=True)
class BlowupChart:
    chart: str                     # "u" or "v"
    relation: str                  # the substitution defining the chart
    names: tuple[str, str]         # rendering names by variable slot
    blown_down: str                # variable whose maximal power was removed
    power_extracted: PAdicFrac
    transformed: FracPoly          # cofactor after removing the maximal power
    exceptional: ExceptionalLocus

    @property
    def extracted(self) -> str:
        e = self.power_extracted
        return f"{self.blown_down}{_power_suffix(e.num, e.pexp, e.prime)}"

    def to_json_dict(self) -> dict:
        out = {
            "chart": self.chart,
            "relation": self.relation,
            "extracted": self.extracted,
            "transformed": self.transformed.render(self.names),
            "exceptional": {
                "empty": self.exceptional.empty,
                "constraint": self.exceptional.constraint,
            },
        }
        if self.exceptional.point is not None:
            out["exceptional"]["point"] = self.exceptional.point
        return out


def _equation(terms: dict, den: int, k: int, p: int, names) -> str:
    """Render sum(terms) = 0 as "<non-constant part> = <constant>".

    terms maps integer exponent vectors at grade k to int numerators over den.
    """
    const = terms.get((0,) * len(names), 0)
    rest = sorted((v for v in terms if any(v)), reverse=True)
    if not rest:
        return f"{_coeff_text(const, den)} = 0"
    sign = -1 if terms[rest[0]] < 0 else 1
    lhs = _render_terms([(v, sign * terms[v]) for v in rest], den, names, k, p)
    return f"{lhs} = {_coeff_text(-sign * const, den)}"


def _chart(F: dict, den: int, k: int, p: int, chart: str, power: PAdicFrac) -> BlowupChart:
    """One chart of the blow-up of F, {(a, b): numerator over den} at grade k.

    power is the extracted power of the blown-down variable, the curve's order
    normalized once for both charts, which share it."""
    order = power.scaled(k)
    if chart == "u":
        # u = 1: y = x*v; slot 0 stays x, slot 1 becomes v
        names, relation, blown = ("x", "v"), "y = x*v", 0
        cofactor = {(a + b - order, b): c for (a, b), c in F.items()}
    else:
        # v = 1: x = y*u; slot 0 becomes u, slot 1 stays y
        names, relation, blown = ("u", "y"), "x = y*u", 1
        cofactor = {(a, a + b - order): c for (a, b), c in F.items()}
    coord = 1 - blown
    # the cofactor with the blown-down variable sent to zero, in the chart coordinate
    fiber = {(v[coord],): c for v, c in cofactor.items() if not v[blown]}
    if len(fiber) == 1 and (0,) in fiber:
        # every chart-coordinate term still carries a positive power of the
        # blown-down variable, so nothing survives the limit: empty fiber
        locus = ExceptionalLocus(True, _equation(cofactor, den, k, p, names))
    else:
        point = None
        if len(fiber) == 1:
            # pure power of the chart coordinate: the fiber is the single
            # point with coordinate 0
            point = "(1:0)" if chart == "u" else "(0:1)"
        locus = ExceptionalLocus(False, _equation(fiber, den, k, p, (names[coord],)), point)
    return BlowupChart(chart, relation, names, names[blown], power,
                       _merged(2, p, k, den, cofactor.items()), locus)


def blowup_origin(F: FracPoly) -> tuple[BlowupChart, BlowupChart]:
    """Blow up the plane at the origin and transform the curve F into both charts.

    F must be a plane curve, as fracpoly._plane_terms checks it, that
    vanishes at the origin; the returned charts carry the transformed curve,
    the extracted power of the blown-down variable, and the symbolic fiber
    over the origin.
    """
    p, k = F.prime, F.max_pexp()
    terms = _plane_terms(F, k)
    if (0, 0) in terms:
        raise DomainError("origin not on curve")
    power = normalize(min(a + b for a, b in terms), k, p)  # the curve's order
    return _chart(terms, F._den, k, p, "u", power), _chart(terms, F._den, k, p, "v", power)


# -- blow-up of the affine plane: chart atlas ----------------------------------------

@dataclass(frozen=True)
class MonomialMap:
    """A monomial ring morphism: each source variable maps to one monomial,
    with coefficient +-1 as in FracPoly.substitute, and exponents of the
    map's prime."""

    prime: int
    images: tuple[FracMonomial, ...]

    def __post_init__(self):
        if any(image.coeff not in (1, -1) for image in self.images):
            raise DomainError("non-monomial replacement rejected: coefficient must be +-1")
        # each FracMonomial checked its own vector: one prime, a PAdicFrac per entry
        if any(image.exps[0].prime != self.prime for image in self.images):
            raise DomainError("mixed primes in exponent vector")

    def apply_vector(self, exps) -> tuple[Fraction, tuple[PAdicFrac, ...]]:
        (mon,) = self.apply(FracPoly(len(exps), self.prime, [(exps, 1)])).terms()
        return mon.coeff, mon.exps

    def apply(self, f: FracPoly) -> FracPoly:
        if f.prime != self.prime:
            raise DomainError("mixed primes in replacement")
        if len(self.images) > f.nvars or any(len(image.exps) != f.nvars
                                             for image in self.images):
            raise DomainError("replacement lives in a different variable space")
        return f._substitute(dict(enumerate(self.images)))


@dataclass(frozen=True)
class PlaneBlowupAtlas:
    """The two charts of the blown-up plane and their gluing, as monomial maps.

    chart1 pulls back (x, y) to (x1, x1*y1); chart2 pulls back to (x2*y2, y2).
    The gluing identifies the charts on the overlap: forward sends x1 to
    x2*y2 and y1 to x2**-1, backward sends x2 to y1**-1 and y2 to x1*y1.
    """

    prime: int
    chart1_pullback: MonomialMap
    chart2_pullback: MonomialMap
    glue_forward: MonomialMap
    glue_backward: MonomialMap

    def roundtrip(self, exps) -> tuple[Fraction, tuple[PAdicFrac, ...]]:
        c1, mid = self.glue_forward.apply_vector(exps)
        c2, back = self.glue_backward.apply_vector(mid)
        return c1 * c2, back


def blowup_plane_charts(p: int) -> PlaneBlowupAtlas:
    """Chart coordinate maps and gluing for the plane blown up at the origin.

    The maps have the same integer exponents for every p; the tests check
    that the composite identification is the identity on Laurent monomials
    of the overlap.
    """

    def mono(e0, e1):
        return FracMonomial(Fraction(1), (PAdicFrac(e0, 0, p), PAdicFrac(e1, 0, p)))

    chart1 = MonomialMap(p, (mono(1, 0), mono(1, 1)))     # x->x1, y->x1*y1
    chart2 = MonomialMap(p, (mono(1, 1), mono(0, 1)))     # x->x2*y2, y->y2
    forward = MonomialMap(p, (mono(1, 1), mono(-1, 0)))   # x1->x2*y2, y1->x2^-1
    backward = MonomialMap(p, (mono(0, -1), mono(1, 1)))  # x2->y1^-1, y2->x1*y1
    return PlaneBlowupAtlas(p, chart1, chart2, forward, backward)
