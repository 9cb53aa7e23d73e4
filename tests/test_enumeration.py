from itertools import islice

import pytest

from oracles import count_compositions, count_positive_compositions, enumerate_compositions

from perfproj import (
    DomainError,
    PAdicFrac,
    count_h0_monomials,
    count_hn_monomials,
    enumerate_h0_monomials,
    enumerate_hn_monomials,
    iter_h0_monomials,
    iter_hn_monomials,
)
from perfproj.enumeration import _compositions, _graded_count, _scaled_vectors
from perfproj.exponents import normalize
from math import comb


def test_count_h0_examples():
    assert count_h0_monomials(1, 2, 1, 3) == 7
    assert count_h0_monomials(1, 2, 2, 3) == 19
    assert count_h0_monomials(2, 2, 0, 3) == 6


def test_count_hn_examples():
    assert count_hn_monomials(1, 5, 1, 3) == 14
    assert count_hn_monomials(1, 1, 0, 3) == 0
    assert count_hn_monomials(2, 3, 0, 5) == 1


def test_enumerate_h0_grade1_table_row():
    piece = enumerate_h0_monomials(1, 2, 1, 3)
    scaled = [tuple(e.scaled(1) for e in v) for v in piece.vectors]
    assert scaled == [(6, 0), (5, 1), (4, 2), (3, 3), (2, 4), (1, 5), (0, 6)]


def test_enumerate_h0_fractional_degree():
    piece = enumerate_h0_monomials(1, normalize(2, 1, 3), 1, 3)
    assert piece.vectors == (
        (normalize(2, 1, 3), normalize(0, 0, 3)),
        (normalize(1, 1, 3), normalize(1, 1, 3)),
        (normalize(0, 0, 3), normalize(2, 1, 3)),
    )


def test_enumerate_h0_single_variable():
    piece = enumerate_h0_monomials(0, 5, 2, 2)
    assert piece.count == 1
    assert piece.vectors[0] == (PAdicFrac(5, 0, 2),)


def test_enumerate_hn_examples():
    piece = enumerate_hn_monomials(1, 1, 1, 3)
    assert piece.vectors == (
        (normalize(-1, 1, 3), normalize(-2, 1, 3)),
        (normalize(-2, 1, 3), normalize(-1, 1, 3)),
    )
    piece = enumerate_hn_monomials(2, 3, 1, 2)
    half = normalize(-1, 1, 2)
    assert (half, half, PAdicFrac(-2, 0, 2)) in piece.vectors
    piece = enumerate_hn_monomials(1, 2, 0, 3)
    assert piece.vectors == ((PAdicFrac(-1, 0, 3), PAdicFrac(-1, 0, 3)),)


def test_grade_too_small_rejected():
    with pytest.raises(DomainError, match="grade too small"):
        count_h0_monomials(1, normalize(2, 1, 3), 0, 3)


def test_negative_degree_rejected():
    with pytest.raises(DomainError):
        count_h0_monomials(1, -1, 0, 3)
    with pytest.raises(DomainError):
        count_hn_monomials(1, 0, 0, 3)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_counts_match_enumeration_lengths(n, p):
    for d in range(0, 6):
        for i in range(0, 3):
            piece = enumerate_h0_monomials(n, d, i, p)
            assert piece.count == count_h0_monomials(n, d, i, p)
            assert len(set(piece.vectors)) == piece.count
    for m in range(1, 6):
        for i in range(0, 3):
            piece = enumerate_hn_monomials(n, m, i, p)
            assert piece.count == count_hn_monomials(n, m, i, p)
            assert len(set(piece.vectors)) == piece.count
    # the private path on signed totals: p**i * d for h0, -p**i * m for hn
    for total in [*range(-5, 0), *range(0, 6)]:
        for i in range(0, 3):
            for reduced in (False, True):
                signed = total * p**i
                vectors = list(_scaled_vectors(n, signed, i, p, reduced))
                assert _graded_count(n, signed, i, p, reduced) == len(vectors)
                if total < 0:
                    assert all(max(v) <= -1 and sum(v) == signed for v in vectors)


def test_counts_match_bruteforce_small():
    # the full sweep of the acceptance suite is criterion 6; spot spread here
    for (n, d, i, p) in [(1, 2, 1, 3), (2, 3, 1, 2), (3, 2, 1, 3), (2, 4, 2, 2)]:
        assert count_h0_monomials(n, d, i, p) == count_compositions(p**i * d, n + 1)
    for (n, m, i, p) in [(1, 5, 1, 3), (2, 3, 0, 5), (2, 2, 2, 2), (3, 4, 1, 2)]:
        assert count_hn_monomials(n, m, i, p) == count_positive_compositions(p**i * m, n + 1)


def test_enumerate_matches_bruteforce_vectors():
    piece = enumerate_h0_monomials(2, 2, 1, 3)
    brute = {tuple(normalize(c, 1, 3) for c in comp)
             for comp in enumerate_compositions(6, 3)}
    assert set(piece.vectors) == brute


@pytest.mark.parametrize("sign", [1, -1])
def test_compositions_walk_the_oracle_in_descending_order(sign):
    # the walk recurses on halves; the oracle peels off one part at a time
    least = 1 if sign < 0 else 0
    for parts in range(1, 9):
        for total in range(11):
            brute = sorted((tuple(sign * c for c in comp)
                            for comp in enumerate_compositions(total, parts)
                            if min(comp) >= least), reverse=True)
            assert list(_compositions(total, parts, sign)) == brute


def test_monotone_in_grade():
    for p in (2, 3, 5):
        for n in (1, 2):
            for d in range(0, 5):
                counts = [count_h0_monomials(n, d, i, p) for i in range(4)]
                assert counts == sorted(counts)
            for m in range(1, 5):
                counts = [count_hn_monomials(n, m, i, p) for i in range(4)]
                assert counts == sorted(counts)


def test_grade_zero_is_classical():
    for n in (1, 2, 3):
        for d in range(0, 5):
            assert count_h0_monomials(n, d, 0, 5) == comb(d + n, n)
        for m in range(1, 5):
            assert count_hn_monomials(n, m, 0, 5) == comb(m - 1, n)


def test_reduced_mode():
    # reduced = cumulative(i) - cumulative(i-1)
    for n in (1, 2):
        for d in range(0, 4):
            for i in range(0, 3):
                cum = count_h0_monomials(n, d, i, 3)
                prev = count_h0_monomials(n, d, i - 1, 3) if i else 0
                assert count_h0_monomials(n, d, i, 3, reduced=True) == cum - prev
                piece = enumerate_h0_monomials(n, d, i, 3, reduced=True)
                assert piece.count == cum - prev
    # a fractional degree has no grade below its own denominator exponent
    frac = normalize(2, 1, 3)
    assert count_h0_monomials(1, frac, 1, 3, reduced=True) == 3


def test_graded_piece_sums_and_signs():
    piece = enumerate_h0_monomials(2, 3, 1, 2)
    for v in piece.vectors:
        total = v[0]
        for e in v[1:]:
            total = total + e
        assert total == piece.degree
        assert all(e.num >= 0 for e in v)
    neg = enumerate_hn_monomials(2, 3, 1, 2)
    for v in neg.vectors:
        assert all(e.num < 0 for e in v)


def test_json_serialization():
    piece = enumerate_h0_monomials(1, normalize(2, 1, 3), 1, 3)
    assert piece.to_json() == ["(2/3,0)", "(1/3,1/3)", "(0,2/3)"]


def test_iterators_check_arguments_at_call_time():
    # no next(): a bad argument must raise when the iterator is made
    with pytest.raises(DomainError):
        iter_h0_monomials(1, -1, 0, 3)
    with pytest.raises(DomainError, match="grade too small"):
        iter_h0_monomials(1, normalize(2, 1, 3), 0, 3)
    with pytest.raises(DomainError):
        iter_hn_monomials(1, 0, 0, 3)
    with pytest.raises(DomainError):
        iter_hn_monomials(1, 2, 0, 4)


def test_iterators_are_lazy_prefixes_of_the_pieces():
    head = list(islice(iter_h0_monomials(2, 4, 2, 3), 3))
    assert head == list(enumerate_h0_monomials(2, 4, 2, 3).vectors[:3])
    assert [tuple(e.scaled(2) for e in v) for v in head] == [
        (36, 0, 0), (35, 1, 0), (35, 0, 1)]
    piece = enumerate_hn_monomials(2, normalize(4, 1, 3), 2, 3, reduced=True)
    assert tuple(iter_hn_monomials(2, normalize(4, 1, 3), 2, 3, reduced=True)) == piece.vectors


@pytest.mark.parametrize("fn", [count_h0_monomials, count_hn_monomials,
                                enumerate_h0_monomials, enumerate_hn_monomials,
                                iter_h0_monomials, iter_hn_monomials])
def test_negative_dimension_rejected(fn):
    # no next(): the iterators must raise when they are made, before any
    # composition of the total into n + 1 = 0 parts is attempted
    with pytest.raises(DomainError, match="projective dimension must be non-negative"):
        fn(-1, 2, 1, 2)
