"""Weight-by-weight Cech complexes on the standard cover, with exact ranks.

The Cech differential preserves monomial weight, so the full complex splits
into one tiny subcomplex per weight vector l = (l_0, ..., l_n).  The weight
occurs in the localization at a nonempty index set S iff every exponent
outside S is non-negative; equivalently, the spots present are exactly the
supersets of the set of strictly negative positions.  Cohomology is computed
two independent ways: the sign case analysis (classify_weight) and exact
fraction-free integer elimination on the +-1 incidence matrices
(cohomology_ranks).  verify_theorems runs both for every weight of the
requested degrees and cross-checks the totals against the closed forms.
Both depend only on the number k of negative entries, so each is computed
once per count of negative entries; the weights with k negative entries
are counted in closed form, so no weight is visited unless a count's two
profiles disagree.

The incidence sign of (T, T - t) is (-1)**(position of t in T), so d o d = 0
by construction; n <= _MAX_N bounds the complexes the library can build, and
the tests check d o d = 0 on every one of them, so no build re-checks it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, gcd

from .enumeration import count_h0_monomials, count_hn_monomials
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
    differentials[k] maps level k to level k+1, rows indexed by spots[k+1].
    """

    n: int
    weight: WeightVector | None
    spots: list[list[int]]
    differentials: list[list[list[int]]]

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
            spots[bin(mask).count("1") - 1].append(mask)
    return spots


def _build_from_mask(n: int, neg_mask: int, weight: WeightVector | None) -> CechComplex:
    spots = _spot_masks(n, neg_mask)
    index = [{m: i for i, m in enumerate(level)} for level in spots]
    differentials = []
    for k in range(n):
        rows = [[0] * len(spots[k]) for _ in spots[k + 1]]
        for r, target in enumerate(spots[k + 1]):
            elems = [j for j in range(n + 1) if target >> j & 1]
            for pos, t in enumerate(elems):
                source = target & ~(1 << t)
                col = index[k].get(source)
                if col is not None:
                    rows[r][col] = (-1) ** pos
        differentials.append(rows)
    return CechComplex(n, weight, spots, differentials)


def build_complex(w: WeightVector, n: int) -> CechComplex:
    if len(w.entries) != n + 1:
        raise DomainError("weight length does not match n + 1")
    if n > _MAX_N:
        raise DomainError(f"dimension cap exceeded: n <= {_MAX_N}")
    return _build_from_mask(n, w.negative_mask(), w)


def _int_rank(rows: list[list[int]], ncols: int) -> int:
    """Fraction-free elimination rank of an integer matrix."""
    rank = 0
    rows = [r for r in rows if any(r)]
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
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
                    if g == 1:
                        break
                rows[i] = [entry // g for entry in new] if g > 1 else new
        rank += 1
        if rank == len(rows):
            break
    return rank


def cohomology_ranks(c: CechComplex) -> tuple[int, ...]:
    """Exact ranks H^k = dim ker d_k - rank d_{k-1} by integer elimination."""
    ranks_d = [_int_rank(d, c.dim(k)) for k, d in enumerate(c.differentials)]
    out = []
    for k in range(c.n + 1):
        dim_k = c.dim(k)
        rk = ranks_d[k] if k < len(ranks_d) else 0
        rk_prev = ranks_d[k - 1] if k >= 1 else 0
        out.append(dim_k - rk - rk_prev)
    return tuple(out)


@lru_cache(maxsize=None)
def _ranks_for_count(n: int, k: int) -> tuple[int, ...]:
    """Exact ranks of the complex of every negative mask S with k = |S|
    entries, computed on the mask (1 << k) - 1.

    A permutation of the coordinates sending S to {0, ..., k-1} maps the
    spots (the index sets containing S) onto those of the mask (1 << k) - 1
    and keeps the face relation.  The incidence sign of (T, T - t) changes
    by e(T) e(T - t), e(T) the sign of sorting the image of T: a diagonal
    +-1 change of basis.  The complexes are isomorphic, so they have the
    same ranks.
    """
    return cohomology_ranks(_build_from_mask(n, (1 << k) - 1, None))


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


def _weights_by_count(n: int, target: int, bound: int) -> list[int]:
    """Integer weights in [-bound, bound]**(n+1) summing to target whose
    negative entries are a given set of k positions, at index k = 0..n+1.

    The count is a closed form in k, so no weight is visited.  Shifting each
    negative entry x to x + bound makes those weights the solutions of
    sum = target + k*bound in n+1-k parts in [0, bound] and k parts in
    [0, bound - 1].  Inclusion-exclusion over the i parts of the first kind
    and j of the second pushed past their caps counts them as signed
    stars-and-bars terms C(top + n, n).
    """
    by_k = []
    for k in range(n + 2):
        total = 0
        for i, j in itertools.product(range(n + 2 - k), range(k + 1)):
            top = target + k * bound - i * (bound + 1) - j * bound
            if top >= 0:
                total += (-1) ** (i + j) * comb(n + 1 - k, i) * comb(k, j) * comb(top + n, n)
        by_k.append(total)
    return by_k


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
    <= i and entries in [-B, B], B = floor(|degree|) + 2.  The box covers all
    weights that can carry nonzero cohomology (all-non-negative or
    all-negative vectors of the degree), so the per-degree totals are exact
    and must equal the closed forms, with zero middle cohomology.  Both
    profiles depend only on the number k of negative entries, so the check
    runs once per count of negative entries: k is classified and ranked on
    the mask (1 << k) - 1 and stands for its comb(n + 1, k) masks, whose
    weights are counted in closed form.  No weight is visited unless a count
    mismatches: only then is the box walked, in order, to list the
    counterexamples.
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
        h0_total = middle_total = hn_total = checked = 0
        mismatched = {}
        for k, per_mask in enumerate(_weights_by_count(n, target, m_int)):
            if not per_mask:
                continue
            count = comb(n + 1, k) * per_mask
            profile = _classify_mask(n, (1 << k) - 1)
            ranks = _ranks_for_count(n, k)
            checked += count
            if profile != ranks:
                mismatched[k] = (profile, ranks)
                continue
            h0_total += count * ranks[0]
            hn_total += count * ranks[n]
            middle_total += count * sum(ranks[1:n])
        if mismatched:  # walk the box again, in order, to report them
            for ints in _weights_with_counts(n, target, m_int, mismatched):
                classified, ranks = mismatched[_neg_mask(ints).bit_count()]
                report.counterexamples.append({
                    "degree": str(d),
                    "weight": str(WeightVector(tuple(normalize(v, i, p) for v in ints))),
                    "classified": list(classified),
                    "ranks": list(ranks),
                })
        h0_expected = count_h0_monomials(n, d, i, p) if d.num >= 0 else 0
        hn_expected = count_hn_monomials(n, -d, i, p) if d.num < 0 else 0
        report.per_degree.append(DegreeSummary(
            d, checked, h0_total, middle_total, hn_total,
            h0_expected, hn_expected))
    return report
