import io
import itertools
import json
from fractions import Fraction
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (cli_in_child, dense_square_zero, densified, mask_ranks,
                     rational_rank, verify_by_mask, weights_by_count)

from perfproj import (
    DomainError,
    WeightVector,
    build_complex,
    classify_weight,
    cohomology_ranks,
    count_h0_monomials,
    count_hn_monomials,
    enumerate_h0_monomials,
    enumerate_hn_monomials,
    verify_theorems,
)
import perfproj.cech as cech_mod
from perfproj.cech import (_MAX_N, _build_from_mask, _counts_with_weights, _int_rank,
                           _ranks_for_count, _simplex_ranks, _weights_in_box,
                           _weights_per_mask)
from perfproj.cli import _digit_limit_message, run
from perfproj.exponents import PAdicFrac, normalize


def W(*ints, p=2, pexp=0):
    return WeightVector(tuple(normalize(v, pexp, p) for v in ints))


def test_classify_examples():
    assert classify_weight(W(-1, -1, -1), 2) == (0, 0, 1)
    frac = WeightVector((normalize(-1, 1, 2), normalize(-1, 1, 2), PAdicFrac(-2, 0, 2)))
    assert classify_weight(frac, 2) == (0, 0, 1)
    assert classify_weight(W(1, 0, -1), 2) == (0, 0, 0)
    assert classify_weight(W(0, 0, 0), 2) == (1, 0, 0)


def test_build_complex_spot_rules():
    # one sparse row {column: +-1} per spot of the level above; the sign of
    # (T, T - t) is (-1)**(position of t in T)
    c = build_complex(W(0, 0), 1)
    assert c.spots == [[0b01, 0b10], [0b11]]
    assert c.differentials == [[{1: 1, 0: -1}]]

    c = build_complex(W(-1, -1), 1)
    assert c.spots == [[], [0b11]]
    assert c.differentials == [[{}]]

    c = build_complex(W(2, -1), 1)
    # spots {x1-localized} and {both}: masks with the negative position included
    assert c.spots == [[0b10], [0b11]]
    assert c.differentials == [[{0: 1}]]


def test_weight_vector_checks_its_entries_as_an_exponent_vector():
    with pytest.raises(TypeError, match="^exponent 1 is not a PAdicFrac$"):
        WeightVector((1, 2))
    with pytest.raises(DomainError, match="^mixed primes in exponent vector$"):
        WeightVector((PAdicFrac(1, 0, 2), PAdicFrac(1, 0, 3)))
    with pytest.raises(DomainError, match="^empty weight vector$"):
        WeightVector(())


def test_weight_vector_prime_and_degree():
    w = WeightVector((normalize(1, 1, 2), PAdicFrac(-3, 0, 2)))
    assert w.prime == 2
    assert w.degree() == normalize(-5, 1, 2)


@pytest.mark.parametrize("check", [classify_weight, build_complex])
def test_a_weight_of_the_wrong_length_is_rejected(check):
    with pytest.raises(DomainError, match=r"^weight length does not match n \+ 1$"):
        check(W(0, 0), 2)


def test_verify_theorems_converts_degrees_before_its_other_checks():
    with pytest.raises(DomainError, match="^4 is not a prime$"):
        verify_theorems(0, [Fraction(1, 6)], 0, 4)
    with pytest.raises(DomainError, match="^denominator not a power of 2$"):
        verify_theorems(0, [Fraction(1, 6)], 0, 2)


def test_dimension_cap():
    with pytest.raises(DomainError, match="cap"):
        build_complex(WeightVector(tuple(PAdicFrac(0, 0, 2) for _ in range(9))), 8)


def test_cohomology_rank_examples():
    assert cohomology_ranks(build_complex(W(-1, -1, -1), 2)) == (0, 0, 1)
    assert cohomology_ranks(build_complex(W(0, 0, 0), 2)) == (1, 0, 0)
    assert cohomology_ranks(build_complex(W(-1, -2), 1)) == (0, 1)


def test_case_analysis_equals_ranks_on_sample():
    for n in (1, 2):
        values = range(-2, 3)
        for ints in itertools.product(values, repeat=n + 1):
            w = W(*ints)
            ranks = cohomology_ranks(build_complex(w, n))
            assert ranks == classify_weight(w, n)
            assert sum(ranks) <= 1
            assert all(r == 0 for k, r in enumerate(ranks) if 0 < k < n)


def test_fractional_weights_sample():
    for ints in itertools.product(range(-4, 5), repeat=2):
        w = W(*ints, p=3, pexp=1)
        assert cohomology_ranks(build_complex(w, 1)) == classify_weight(w, 1)


def test_verify_theorems_classical_degree_minus3():
    report = verify_theorems(2, [-3], 0, 2)
    assert report.ok
    s = report.per_degree[0]
    assert (s.h0_total, s.middle_total, s.hn_total) == (0, 0, 1)


def test_verify_theorems_positive_degree():
    report = verify_theorems(2, [2], 1, 3)
    assert report.ok
    assert report.per_degree[0].h0_total == 28  # comb(3*2+2, 2)


def test_verify_theorems_fractional_row():
    report = verify_theorems(1, [-1], 1, 3)
    assert report.ok
    assert report.per_degree[0].hn_total == 2


def test_verify_theorems_grid():
    for n in (1, 2):
        for p in (2, 3):
            degrees = list(range(-4, 5))
            report = verify_theorems(n, degrees, 1, p)
            assert report.ok, report.to_json_dict()
            for s, d in zip(report.per_degree, degrees):
                if d >= 0:
                    assert s.h0_total == count_h0_monomials(n, d, 1, p)
                    assert s.hn_total == 0
                else:
                    assert s.h0_total == 0
                    assert s.hn_total == count_hn_monomials(n, -d, 1, p)


def test_report_json():
    report = verify_theorems(1, [-2, 1], 1, 2)
    payload = report.to_json_dict()
    json.dumps(payload)
    assert payload["ok"] is True
    assert payload["counterexamples"] == []
    assert len(payload["degrees"]) == 2


def test_grade_too_small_for_fractional_degree():
    with pytest.raises(DomainError):
        verify_theorems(1, [normalize(1, 2, 3)], 1, 3)


def test_multiple_pairings_against_fixed_section():
    # a fixed degree-d section pairs with several distinct weights of degree
    # -(n+1)-d at grade >= 1: the classical dual basis is not unique here
    n, d, p = 2, 2, 3
    section = enumerate_h0_monomials(n, d, 0, p).vectors[0]
    bases = enumerate_hn_monomials(n, n + 1, 1, p).vectors
    assert len(bases) >= 2
    partners = []
    for base in bases:
        w = tuple(b - s for b, s in zip(base, section))
        weight = WeightVector(w)
        assert classify_weight(weight, n)[n] == 1  # lives in top cohomology
        partners.append(w)
    assert len(set(partners)) == len(bases)


def test_every_complex_the_library_builds_squares_to_zero():
    # build_complex caps n at _MAX_N, so these are all the complexes it can build
    for n in range(_MAX_N + 1):
        for mask in range(1 << (n + 1)):
            assert dense_square_zero(_build_from_mask(n, mask, None)), (n, mask)
    for ints in [(0, 0, 0), (-1, 2, -1), (1, -1, 1), (-2, -2, -2)]:
        assert dense_square_zero(build_complex(W(*ints), 2))
    # the oracle sees a single flipped sign, on an entry that is present
    c = _build_from_mask(3, 0, None)
    row = c.differentials[1][0]
    row[min(row)] *= -1
    assert not dense_square_zero(c)


def test_ranks_depend_only_on_the_count_of_negative_entries():
    # the per-mask elimination the cache skips, kept here as the oracle
    for n in range(1, 7):
        for mask in range(1 << (n + 1)):
            c = _build_from_mask(n, mask, None)
            assert _ranks_for_count(n, mask.bit_count()) == cohomology_ranks(c), (n, mask)


def test_the_eliminated_complexes_match_rational_ranks_on_dense_rows():
    # the complexes _simplex_ranks eliminates, r = 0.._MAX_N + 1, ranked a
    # second way: Gaussian elimination over Q on the densified rows
    for r in range(_MAX_N + 2):
        c = _build_from_mask(r, 1, None)
        ranks_d = [rational_rank(densified(c, k)) for k in range(r)] + [0]
        dense = tuple(c.dim(k) - ranks_d[k] - (ranks_d[k - 1] if k else 0)
                      for k in range(r + 1))
        assert cohomology_ranks(c) == _simplex_ranks(r) == dense, r


def _count_builds(monkeypatch, call):
    """(complexes built, distinct negative-entry counts of the masks checked)
    while call() runs on an empty rank cache."""
    built, counts = [], set()
    build, classify = cech_mod._build_from_mask, cech_mod._classify_mask

    def counting_build(n, mask, weight):
        built.append(mask)
        return build(n, mask, weight)

    def recording_classify(n, mask):
        counts.add(mask.bit_count())
        return classify(n, mask)

    monkeypatch.setattr(cech_mod, "_build_from_mask", counting_build)
    monkeypatch.setattr(cech_mod, "_classify_mask", recording_classify)
    _simplex_ranks.cache_clear()
    call()
    return len(built), len(counts)


def test_one_complex_per_count_of_negative_entries(monkeypatch):
    # no weight of degree -3 has all seven entries negative: counts 0..6,
    # complement sizes 7 (k = 0, without the empty face) and 6..1
    assert _count_builds(monkeypatch, lambda: verify_theorems(6, [-3, 0, 2], 1, 2)) == (7, 7)
    # degree -8 adds the all-negative mask: all n + 2 counts, of 2**(n+1) masks
    argv = ["cech-check", "--n", "6", "--degrees=-8,0,2", "--i", "1", "--p", "2", "--json"]
    out, err = io.StringIO(), io.StringIO()
    assert _count_builds(monkeypatch, lambda: run(argv, out, err)) == (8, 8)
    assert json.loads(out.getvalue())["ok"] is True


def test_every_dimension_shares_one_complex_per_complement_size(monkeypatch):
    # all n + 2 counts of every n up to _MAX_N: 33 (n, k) pairs, complement sizes 0..7
    def every_count():
        for n in range(1, _MAX_N + 1):
            assert verify_theorems(n, [-(n + 2), 0, 2], 1, 2).ok
    assert _count_builds(monkeypatch, every_count) == (_MAX_N + 2, _MAX_N + 2)


def _sparse(rows):
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


@st.composite
def int_matrices(draw):
    """(ncols, rows): small integer matrices, often with zero rows, repeated
    rows or rows that are integer combinations of other rows, with entries
    of a few bits or past 2**64."""
    ncols = draw(st.integers(0, 5))
    entry = st.integers(-6, 6) | st.integers(-2**70, 2**70)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        r, t = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append([a * x + b * y for x, y in zip(r, t)])
    return ncols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(int_matrices())
def test_int_rank_equals_rational_rank(matrix):
    _, rows = matrix
    sparse = _sparse(rows)
    before = [dict(r) for r in sparse]
    assert _int_rank(sparse) == rational_rank(rows)
    assert sparse == before  # the input is not modified


def test_int_rank_edge_cases():
    assert _int_rank([]) == _int_rank([{}]) == _int_rank([{}, {}]) == 0
    assert _int_rank(_sparse([[2, 4], [3, 6], [0, 0]])) == 1
    assert _int_rank(_sparse([[0, 2, 1], [0, 4, 2], [5, 0, 0]])) == 2
    # non-unit pivots only; then two matrices one sign apart, of rank 2 and 3
    assert _int_rank(_sparse([[2, 3, 0], [3, 5, 0], [4, 6, 0]])) == 2
    assert _int_rank(_sparse([[1, 1, 0], [0, 1, 1], [1, 0, -1]])) == 2
    assert _int_rank(_sparse([[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 3
    big = 2**64 + 1
    assert _int_rank([{0: big, 1: big * 3}, {0: 2 * big, 1: 6 * big}]) == 1
    assert _int_rank({j: 1} for j in range(4)) == 4  # any iterable of rows


def test_spot_flags_are_monotone():
    # spot(S) and S subset of T implies spot(T): spots are exactly the
    # supersets of the negative-position set
    for ints in [(1, -1, 0), (-2, -2, 1), (0, 0, 0), (-1, -1, -1)]:
        w = W(*ints)
        c = build_complex(w, 2)
        present = {mask for level in c.spots for mask in level}
        for mask in present:
            for bigger in range(1, 8):
                if bigger & mask == mask:
                    assert bigger in present


def test_weights_checked_is_the_whole_box():
    # B = floor(|d|) + 2 at grade i: entries in [-B p^i, B p^i] summing to d p^i
    for n, d, i, p in [(1, -2, 1, 3), (2, 1, 0, 2), (2, -1, 1, 2), (3, 2, 0, 3)]:
        m_int = (abs(d) + 2) * p**i
        box = sum(1 for head in itertools.product(range(-m_int, m_int + 1), repeat=n)
                  if -m_int <= d * p**i - sum(head) <= m_int)
        assert verify_theorems(n, [d], i, p).per_degree[0].weights_checked == box


def test_counterexamples_in_walk_order(monkeypatch):
    true_ranks = cech_mod._ranks_for_count
    wrong = {0: (0, 1, 0), 2: (0, 0, 1)}  # no and two negative entries
    monkeypatch.setattr(cech_mod, "_ranks_for_count",
                        lambda n, k: wrong.get(k) or true_ranks(n, k))
    report = verify_theorems(2, [1, -1], 0, 2)
    # weights (a, b, 1-a-b) in [-3, 3]^3, heads (a, b) in lexicographic order:
    # every mask with 0 or 2 negative entries, interleaved as the walk meets them
    walk = ["(-1,-1,3)", "(-1,3,-1)", "(0,0,1)", "(0,1,0)", "(1,0,0)", "(3,-1,-1)"]
    h0_weights = {"(0,0,1)", "(0,1,0)", "(1,0,0)"}
    expected = [{"degree": "1", "weight": w,
                 "classified": [1, 0, 0] if w in h0_weights else [0, 0, 0],
                 "ranks": [0, 1, 0] if w in h0_weights else [0, 0, 1]}
                for w in walk]
    # degree -1: no weight has no negative entry, and those with two are
    # (a, b, -1-a-b) in the same order
    walk = ["(-3,-1,3)", "(-3,3,-1)", "(-2,-2,3)", "(-2,-1,2)", "(-2,2,-1)", "(-2,3,-2)",
            "(-1,-3,3)", "(-1,-2,2)", "(-1,-1,1)", "(-1,1,-1)", "(-1,2,-2)", "(-1,3,-3)",
            "(1,-1,-1)", "(2,-2,-1)", "(2,-1,-2)", "(3,-3,-1)", "(3,-2,-2)", "(3,-1,-3)"]
    expected += [{"degree": "-1", "weight": w, "classified": [0, 0, 0], "ranks": [0, 0, 1]}
                 for w in walk]
    assert report.counterexamples == expected
    pos, neg = report.per_degree
    # 36 weights of each degree in the box: counterexamples are checked but do
    # not count toward the totals
    assert (pos.weights_checked, pos.h0_total, pos.middle_total, pos.hn_total) == (36, 0, 0, 0)
    assert (pos.h0_expected, pos.ok) == (3, False)
    assert (neg.weights_checked, neg.h0_total, neg.middle_total, neg.hn_total) == (36, 0, 0, 0)
    assert (neg.hn_expected, neg.ok) == (0, True)
    assert not report.ok
    assert json.loads(json.dumps(report.to_json_dict()))["counterexamples"] == expected


def test_counterexample_weights_render_fractions(monkeypatch):
    true_ranks = cech_mod._ranks_for_count
    monkeypatch.setattr(cech_mod, "_ranks_for_count",
                        lambda n, k: (1, 1) if k == 1 else true_ranks(n, k))
    report = verify_theorems(1, [normalize(1, 1, 2)], 1, 2)
    # (a/2, b/2) with a + b = 1 and a, b in [-4, 4]: the weights with one
    # negative entry mismatch, (0,1/2) and (1/2,0) are sections
    weights = [c["weight"] for c in report.counterexamples]
    assert weights == ["(-3/2,2)", "(-1,3/2)", "(-1/2,1)", "(1,-1/2)", "(3/2,-1)", "(2,-3/2)"]
    s = report.per_degree[0]
    assert (s.weights_checked, s.h0_total, s.middle_total, s.hn_total) == (8, 2, 0, 0)
    assert (s.h0_expected, s.ok) == (2, True)


def test_weights_by_mask_matches_a_walk():
    from collections import Counter, defaultdict

    for n, bounds in [(1, 4), (2, 4), (3, 4), (4, 3), (5, 3), (6, 3)]:
        for bound in range(bounds):
            # one walk of the box, bucketed by sum and negative mask
            walk = defaultdict(Counter)
            for ints in itertools.product(range(-bound, bound + 1), repeat=n + 1):
                walk[sum(ints)][sum(1 << j for j, v in enumerate(ints) if v < 0)] += 1
            # one unreachable target past each end: every mask reads 0
            for target in range(-(n + 1) * bound - 1, (n + 1) * bound + 2):
                by_k = weights_by_count(n, target, bound)
                assert len(by_k) == n + 2
                for mask in range(1 << (n + 1)):
                    assert walk[target][mask] == by_k[mask.bit_count()], (n, bound, target, mask)
                assert _weights_in_box(n, target, bound) == sum(walk[target].values())
                if bound:  # the runtime bound is at least 2
                    for k in range(n + 2):
                        assert _weights_per_mask(n, target, bound, k) == by_k[k], (n, bound, target, k)
                    assert list(_counts_with_weights(n, target, bound)) == [
                        k for k, v in enumerate(by_k) if v]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 10**6) | st.integers(1, 2**80), st.data())
def test_counts_match_the_all_counts_oracle_for_large_bounds(n, bound, data):
    ends = (n + 1) * bound + 2
    target = data.draw(st.integers(-ends, ends) | st.sampled_from(
        [-ends, -(n + 1) * bound, -(n + 1), -1, 0, 1, (n + 1) * bound, ends]))
    by_k = weights_by_count(n, target, bound)
    assert [_weights_per_mask(n, target, bound, k) for k in range(n + 2)] == by_k
    assert list(_counts_with_weights(n, target, bound)) == [k for k, v in enumerate(by_k) if v]
    assert _weights_in_box(n, target, bound) == sum(
        comb(n + 1, k) * v for k, v in enumerate(by_k))


@pytest.mark.parametrize("n,degrees,i,p", [
    (6, [-3, 0, 2], 1, 2), (6, [-8, 0, 2], 1, 2), (1, [-4, -1, 0, 3], 2, 3),
    (4, [-3, 2, 5], 2, 5), (5, [normalize(-7, 1, 3), normalize(5, 2, 3)], 2, 3),
])
def test_binomials_per_degree_are_at_most_three_per_count(monkeypatch, n, degrees, i, p):
    # a run without mismatches evaluates the box total and at most one
    # count's inclusion-exclusion per degree: no more than 3(n + 2)
    # binomials, where the count of every k takes sum (n+2-k)(k+1) of them
    calls = []
    monkeypatch.setattr(cech_mod, "comb", lambda a, b: calls.append((a, b)) or comb(a, b))
    for d in degrees:
        calls.clear()
        assert verify_theorems(n, [d], i, p).ok
        assert 0 < len(calls) <= 3 * (n + 2), (d, len(calls))


def test_verify_theorems_large_box():
    # eleven billion weights: a box far too large to walk
    report = verify_theorems(4, [-3, 2, 5], 2, 5)
    assert report.ok
    assert [s.weights_checked for s in report.per_degree] == [
        2_163_776_251, 916_089_126, 7_949_203_626]
    assert [s.h0_total for s in report.per_degree] == [0, 316_251, 11_009_376]
    assert [s.hn_total for s in report.per_degree] == [1_150_626, 0, 0]


def test_a_large_grade_ends_in_the_digit_limit_within_a_cpu_limit():
    # at grade 400000 the box bound is about 2**400000: the counts take
    # binomials of numbers of 120,000 digits, and the JSON payload cannot
    # print them; the box total and one count take a few seconds of CPU,
    # every count's inclusion-exclusion about 31 s; the child caps its own
    # CPU time at 20 s
    done = cli_in_child("RLIMIT_CPU", 20, ["cech-check", "--n", "6", "--degrees=-3,1,2",
                                           "--i", "400000", "--p", "2", "--json"])
    assert done.returncode == 2
    assert json.loads(done.stdout) == {
        "error": {"category": "computation", "message": _digit_limit_message()}}
    assert done.stderr == f"error: computation: {_digit_limit_message()}\n"


def test_verify_theorems_classifies_once_per_count(monkeypatch):
    # once per count of negative entries, n + 2 of them, not per sign mask, 2**(n+1)
    calls = []
    classify = cech_mod._classify_mask
    monkeypatch.setattr(cech_mod, "_classify_mask",
                        lambda n, mask: calls.append(mask) or classify(n, mask))
    report = verify_theorems(6, [-8, 0, 2], 1, 2)
    assert report.ok
    assert len(calls) <= 3 * (6 + 2)
    assert all(mask & (mask + 1) == 0 for mask in calls)  # masks (1 << k) - 1


@st.composite
def cech_checks(draw, size=4):
    """(n, degrees, i, p) for n <= 3, i <= 1, p in {2, 3}: one to three
    integer or fractional degrees of either sign, at most size in size."""
    n, i, p = draw(st.integers(1, 3)), draw(st.integers(0, 1)), draw(st.sampled_from([2, 3]))
    degree = st.integers(0, i).flatmap(lambda e: st.integers(-size * p**e, size * p**e).map(
        lambda num: normalize(num, e, p)))
    return n, draw(st.lists(degree, min_size=1, max_size=3)), i, p


@settings(max_examples=100, deadline=None)
@given(cech_checks())
def test_verify_theorems_matches_the_per_mask_check(check):
    assert verify_theorems(*check).to_json_dict() == verify_by_mask(*check)


@settings(max_examples=40, deadline=None)
@given(cech_checks(size=2), st.data())  # each mismatch walks the box, in both checks
def test_a_rank_fault_is_reported_as_the_per_mask_check_reports_it(check, data):
    n = check[0]
    profile = st.tuples(*[st.integers(0, 1)] * (n + 1))
    fault = data.draw(st.dictionaries(st.integers(0, n + 1), profile, min_size=1, max_size=2))
    true_ranks = cech_mod._ranks_for_count
    with mock.patch.object(cech_mod, "_ranks_for_count",
                           lambda n, k: fault.get(k) or true_ranks(n, k)):
        got = verify_theorems(*check).to_json_dict()
    assert got == verify_by_mask(
        *check, ranks=lambda n, mask: fault.get(mask.bit_count()) or mask_ranks(n, mask))
