"""Weight-by-weight Cech complexes on the standard cover, with exact ranks.

The Cech differential preserves monomial weight, so the full complex splits
into one tiny subcomplex per weight vector l = (l_0, ..., l_n).  The weight
occurs in the localization at a nonempty index set S iff every exponent
outside S is non-negative; equivalently, the spots present are exactly the
supersets of the set of strictly negative positions.  Cohomology is computed
two independent ways: the sign case analysis (classify_weight) and exact
fraction-free integer elimination on the +-1 incidence matrices
(cohomology_ranks, through _int_rank, the library's one exact rank, which
intersect's quotient oracle uses too), built once as the sparse rows
{column: +-1} that _int_rank reads.  verify_theorems runs both for every
weight of the requested degrees and cross-checks the totals against the
closed forms.  Both depend only on the number k of negative entries, so each
is computed once per count of negative entries, and only for the counts the
box holds, decided by an interval test on k.  The exact ranks are shared
further, by complement size: for k >= 1 the spots are S u U, U a subset of
the r = n + 1 - k positions outside S, so the complex is the augmented
cochain complex of the simplex on r vertices shifted k - 1 levels, and for
k = 0 it is that complex on n + 1 vertices without its empty face.  One
elimination per r <= _MAX_N + 1, the one rank cache (_simplex_ranks), serves
every n.  Weights are counted in closed form: the box's total always, and
the weights of one count only when that count adds to a total (nonzero exact
ranks that agree with the case analysis).  The box is walked only when a
count's two profiles disagree, to list its weights as counterexamples.

The incidence sign of (T, T - t) is (-1)**(position of t in T), so d o d = 0
by construction; n <= _MAX_N bounds the complexes the library can build, and
the tests check d o d = 0 on every one of them, so no build re-checks it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, gcd

from .enumeration import _graded_count
from .errors import DomainError
from .exponents import PAdicFrac, _as_padic, _require_prime, normalize
from .fracpoly import _check_vector

_MAX_N = 6  # spot count 2**(n+1), at most n + 2 ranked complexes per n; desk-scale


@dataclass(frozen=True)
class WeightVector:
    """Exponent vector of one monomial x_0**l_0 ... x_n**l_n."""

    entries: tuple[PAdicFrac, ...]

    def __post_init__(self):
        if not self.entries:
            raise DomainError("empty weight vector")
        _check_vector(self.entries)

    @property
    def prime(self) -> int:
        return self.entries[0].prime

    def degree(self) -> PAdicFrac:
        total = self.entries[0]
        for e in self.entries[1:]:
            total = total + e
        return total

    def negative_mask(self) -> int:
        return _neg_mask(e.num for e in self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"


@dataclass
class CechComplex:
    """Explicit weight-component complex: present spots and +-1 incidence matrices.

    spots[k] lists the present index-set bitmasks of size k+1 (sorted);
    differentials[k] maps level k to level k+1 as sparse rows, one per spot
    of spots[k+1], in order: {column: +-1}, the column the index of a spot
    of spots[k], absent entries zero (the rows were dense lists before).
    """

    n: int
    weight: WeightVector | None
    spots: list[list[int]]
    differentials: list[list[dict[int, int]]]

    def dim(self, k: int) -> int:
        return len(self.spots[k])


def classify_weight(w: WeightVector, n: int) -> tuple[int, ...]:
    """Cohomology profile by sign pattern: H^0 iff all l_j >= 0, H^n iff all < 0."""
    if len(w.entries) != n + 1:
        raise DomainError("weight length does not match n + 1")
    return _classify_mask(n, w.negative_mask())


def _classify_mask(n: int, neg_mask: int) -> tuple[int, ...]:
    profile = [0] * (n + 1)
    if neg_mask == 0:
        profile[0] = 1
    elif neg_mask == (1 << (n + 1)) - 1:
        profile[n] = 1
    return tuple(profile)


def _spot_masks(n: int, neg_mask: int) -> list[list[int]]:
    """Present spots by level: nonempty index sets containing all negative positions."""
    spots: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, 1 << (n + 1)):
        if mask & neg_mask == neg_mask:
            spots[mask.bit_count() - 1].append(mask)
    return spots


def _build_from_mask(n: int, neg_mask: int, weight: WeightVector | None) -> CechComplex:
    spots = _spot_masks(n, neg_mask)
    index = [{m: i for i, m in enumerate(level)} for level in spots]
    differentials = []
    for k in range(n):
        rows = []
        for target in spots[k + 1]:
            row, sign, rest = {}, 1, target
            while rest:  # the elements t of target, in increasing order
                low = rest & -rest
                col = index[k].get(target ^ low)
                if col is not None:
                    row[col] = sign
                sign, rest = -sign, rest ^ low
            rows.append(row)
        differentials.append(rows)
    return CechComplex(n, weight, spots, differentials)


def build_complex(w: WeightVector, n: int) -> CechComplex:
    if len(w.entries) != n + 1:
        raise DomainError("weight length does not match n + 1")
    if n > _MAX_N:
        raise DomainError(f"dimension cap exceeded: n <= {_MAX_N}")
    return _build_from_mask(n, w.negative_mask(), w)


def _int_rank(rows) -> int:
    """Rank over Q of an integer matrix given as sparse rows {column: nonzero
    int}, by fraction-free elimination; the rows are not modified.

    Each pivot row is kept under its greatest column.  A row is reduced by
    the pivot row of its greatest column until that column has none, where
    it becomes a pivot row, or until it vanishes; every step clears the
    greatest column and adds none above it.  Pivot rows have distinct
    greatest columns, so they are independent and the rank is their number.
    An entry v over a pivot c = +-1 is cleared by subtracting v*c times the
    pivot row, which keeps the entries integral with no gcd; over any other
    c, row <- c*row - v*(pivot row), and the row's content is divided out.
    """
    pivots: dict[int, dict[int, int]] = {}  # greatest column -> pivot row
    for row in rows:
        row = dict(row)
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            v, c = row[col], pivot[col]
            unit = c == 1 or c == -1
            if unit:
                v *= c
            else:
                row = {j: c * a for j, a in row.items()}
            for j, a in pivot.items():
                entry = row.get(j, 0) - v * a
                if entry:
                    row[j] = entry
                else:
                    del row[j]
            if not unit:
                g = gcd(*row.values())
                if g > 1:
                    row = {j: a // g for j, a in row.items()}
    return len(pivots)


def cohomology_ranks(c: CechComplex) -> tuple[int, ...]:
    """Exact ranks H^k = dim ker d_k - rank d_{k-1} by integer elimination."""
    ranks_d = [_int_rank(d) for d in c.differentials]
    out = []
    for k in range(c.n + 1):
        dim_k = c.dim(k)
        rk = ranks_d[k] if k < len(ranks_d) else 0
        rk_prev = ranks_d[k - 1] if k >= 1 else 0
        out.append(dim_k - rk - rk_prev)
    return tuple(out)


def _ranks_for_count(n: int, k: int) -> tuple[int, ...]:
    """Exact ranks of the complex of every negative mask S with k = |S|
    entries, read from the ranks of the complex of the complement size
    (_simplex_ranks, the one cache).

    A permutation of the coordinates sending S to {0, ..., k-1} maps the
    spots (the index sets containing S) onto those of the mask (1 << k) - 1
    and keeps the face relation.  The incidence sign of (T, T - t) changes
    by e(T) e(T - t), e(T) the sign of sorting the image of T: a diagonal
    +-1 change of basis.  The complexes are isomorphic, so they have the
    same ranks.

    For S = {0, ..., k-1}, k >= 1, the spots are S u U, U any subset of the
    r = n + 1 - k other positions, at level k - 1 + |U|; t in U sits k
    places further in S u U than in U, so every incidence sign is (-1)**k
    times that of (U, t), and (-1)**(k-1) times that of the complex of
    _simplex_ranks(r).  A uniform sign keeps the ranks: the complex is the
    augmented cochain complex of the simplex on r vertices, shifted k - 1
    levels.  For k = 0 it is that complex on n + 1 vertices without the
    empty face, which leaves every level above the vertices as it was; the
    vertices gain the rank of the differential out of the empty face, 1 - H
    of that face, whose level has dimension 1.
    """
    if k:
        return (0,) * (k - 1) + _simplex_ranks(n + 1 - k)
    augmented = _simplex_ranks(n + 1)
    return (augmented[1] + 1 - augmented[0], *augmented[2:])


@lru_cache(maxsize=None)
def _simplex_ranks(r: int) -> tuple[int, ...]:
    """Exact ranks of the augmented cochain complex of the simplex on r
    vertices, level j holding its faces of j vertices, j = 0..r: the complex
    of the mask 1 on r + 1 coordinates.  n <= _MAX_N needs r <= _MAX_N + 1,
    so a process eliminates at most _MAX_N + 2 complexes."""
    return cohomology_ranks(_build_from_mask(r, 1, None))


@dataclass
class DegreeSummary:
    degree: PAdicFrac
    weights_checked: int
    h0_total: int
    middle_total: int
    hn_total: int
    h0_expected: int
    hn_expected: int

    @property
    def ok(self) -> bool:
        return (self.h0_total == self.h0_expected
                and self.hn_total == self.hn_expected
                and self.middle_total == 0)

    def to_json_dict(self) -> dict:
        return {
            "degree": str(self.degree),
            "weights": self.weights_checked,
            "h0": self.h0_total,
            "middle": self.middle_total,
            "hn": self.hn_total,
            "h0_expected": self.h0_expected,
            "hn_expected": self.hn_expected,
            "ok": self.ok,
        }


@dataclass
class CechReport:
    n: int
    prime: int
    grade: int
    per_degree: list[DegreeSummary] = field(default_factory=list)
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples and all(s.ok for s in self.per_degree)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.prime,
            "grade": self.grade,
            "degrees": [s.to_json_dict() for s in self.per_degree],
            "counterexamples": self.counterexamples,
            "ok": self.ok,
        }


def _neg_mask(ints) -> int:
    return sum(1 << j for j, v in enumerate(ints) if v < 0)


def _capped_compositions(total: int, n: int, first: int, cap: int, cap_rest: int) -> int:
    """Solutions of y_0 + ... + y_n = total with `first` parts in [0, cap]
    and the other n + 1 - first in [0, cap_rest], both caps >= 0.

    Inclusion-exclusion over the i parts of the first kind and the j of the
    second pushed past their caps: one signed stars-and-bars binomial
    C(top + n, n) per term with top = total - i*(cap+1) - j*(cap_rest+1) >= 0,
    and only those terms are visited; the coefficient
    (-1)**(i + j) C(first, i) C(n + 1 - first, j) is carried from term to term.
    """
    rest, out, ci = n + 1 - first, 0, 1
    for i in range(min(first, total // (cap + 1)) + 1):
        top, cj = total - i * (cap + 1), ci
        for j in range(min(rest, top // (cap_rest + 1)) + 1):
            out += cj * comb(top - j * (cap_rest + 1) + n, n)
            cj = -cj * (rest - j) // (j + 1)
        ci = -ci * (first - i) // (i + 1)
    return out


def _weights_in_box(n: int, target: int, bound: int) -> int:
    """Integer weights in [-bound, bound]**(n+1) summing to target: shifted
    by bound, the compositions of target + (n+1)*bound into n+1 parts in
    [0, 2*bound], n + 2 binomials at most."""
    return _capped_compositions(target + (n + 1) * bound, n, n + 1, 2 * bound, 0)


def _counts_with_weights(n: int, target: int, bound: int) -> range:
    """The k for which some integer weight in [-bound, bound]**(n+1), bound
    >= 1, sums to target with exactly k negative entries.

    Those k entries sum to every integer of [-k*bound, -k] and the others to
    every integer of [0, (n+1-k)*bound], so k qualifies iff
    -k*bound <= target <= (n+1-k)*bound - k: k >= -target/bound and
    k*(bound+1) <= (n+1)*bound - target.
    """
    return range(max(0, -(target // bound)),
                 min(n + 1, ((n + 1) * bound - target) // (bound + 1)) + 1)


def _weights_per_mask(n: int, target: int, bound: int, k: int) -> int:
    """Integer weights in [-bound, bound]**(n+1), bound >= 1, summing to
    target whose negative entries are a given set of k positions.

    Shifting each negative entry x to x + bound makes them the solutions of
    sum = target + k*bound in n+1-k parts in [0, bound] and k parts in
    [0, bound - 1].
    """
    return _capped_compositions(target + k * bound, n, n + 1 - k, bound, bound - 1)


def _weights_with_counts(n: int, target: int, bound: int, counts):
    """The weights of the box summing to target whose number of negative
    entries is in counts, in walk order."""
    for head in itertools.product(range(-bound, bound + 1), repeat=n):
        last = target - sum(head)
        if -bound <= last <= bound:
            ints = head + (last,)
            if _neg_mask(ints).bit_count() in counts:
                yield ints


def verify_theorems(n: int, degrees, i: int, p: int) -> CechReport:
    """Cross-check the case analysis against exact ranks, degree by degree.

    For each degree this checks every weight with denominator exponent
    <= i and entries in [-B, B], B = floor(|degree|) + 2.  The box covers
    all weights that can carry nonzero cohomology (all-non-negative or
    all-negative vectors of the degree), so the per-degree totals are exact
    and must equal the closed forms, with zero middle cohomology.  Both
    profiles depend only on the number k of negative entries, so the check
    runs once per count: k is classified and ranked on the mask
    (1 << k) - 1 (_ranks_for_count reads the cached ranks), and stands for its
    comb(n + 1, k) masks.

    At grade i the box is [-M, M]**(n+1) in integers, M = B p**i, around
    the target t = degree * p**i, and no weight is visited to count it.  It
    holds a weight with k negative entries iff -k M <= t <= (n+1-k) M - k
    (_counts_with_weights), and only those k are checked.  The weights
    checked are the box's total, one count of at most n + 2 binomials.  The
    weights of one count k are counted (_weights_per_mask) only when they
    enter a total, that is when the exact ranks equal the profile and are
    nonzero: in a correct run k = 0 if t >= 0 and k = n + 1 if
    t <= -(n+1), at most n + 2 binomials more.  A count whose ranks differ
    from its profile adds to no total; only then is the box walked, in
    order, to list the counterexamples.
    """
    _require_prime(p)
    degrees = [_as_padic(degree, p) for degree in degrees]
    if n < 1:
        raise DomainError("n must be at least 1")
    if n > _MAX_N:
        raise DomainError(f"dimension cap exceeded: n <= {_MAX_N}")
    report = CechReport(n, p, i)
    for d in degrees:
        target = d.scaled(i)  # raises if the grade is too small for d
        bound_abs = -d.num if d.num < 0 else d.num
        bound = bound_abs // p**d.pexp + 2  # floor(|d|) + 2, integer arithmetic
        m_int = bound * p**i
        h0_total = middle_total = hn_total = 0
        mismatched = {}
        for k in _counts_with_weights(n, target, m_int):
            profile, ranks = _classify_mask(n, (1 << k) - 1), _ranks_for_count(n, k)
            if profile != ranks:
                mismatched[k] = (profile, ranks)
            elif any(ranks):
                count = comb(n + 1, k) * _weights_per_mask(n, target, m_int, k)
                h0_total += count * ranks[0]
                hn_total += count * ranks[n]
                middle_total += count * sum(ranks[1:n])
        if mismatched:  # walk the box, in order, to report them
            for ints in _weights_with_counts(n, target, m_int, mismatched):
                classified, ranks = mismatched[_neg_mask(ints).bit_count()]
                report.counterexamples.append({
                    "degree": str(d),
                    "weight": str(WeightVector(tuple(normalize(v, i, p) for v in ints))),
                    "classified": list(classified),
                    "ranks": list(ranks),
                })
        # the closed forms at the target already checked
        h0_expected = _graded_count(n, target, i, p, False, False) if d.num >= 0 else 0
        hn_expected = _graded_count(n, -target, i, p, False, True) if d.num < 0 else 0
        report.per_degree.append(DegreeSummary(
            d, _weights_in_box(n, target, m_int), h0_total, middle_total, hn_total,
            h0_expected, hn_expected))
    return report
