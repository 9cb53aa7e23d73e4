import io
import operator
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import is_prime_by_trial_division

from perfproj import (DomainError, PAdicFrac, arith, bezout_chi, bezout_line,
                      blowup_plane_charts, cmp, count_h0_monomials, count_hn_monomials,
                      enumerate_hn_monomials, exponents, is_prime, iter_h0_monomials,
                      line_bundle, normalize, verify_theorems, veronese)
from perfproj.cli import run
from perfproj.exponents import _PRIME_BOUND

primes = st.sampled_from([2, 3, 5])
padics = st.builds(normalize, st.integers(-300, 300), st.integers(0, 4), primes)


def padic_pairs():
    return primes.flatmap(lambda p: st.tuples(
        st.builds(normalize, st.integers(-300, 300), st.integers(0, 4), st.just(p)),
        st.builds(normalize, st.integers(-300, 300), st.integers(0, 4), st.just(p)),
        st.builds(normalize, st.integers(-300, 300), st.integers(0, 4), st.just(p)),
    ))


def test_normalize_examples():
    assert normalize(6, 1, 3) == PAdicFrac(2, 0, 3)
    assert normalize(0, 5, 2) == PAdicFrac(0, 0, 2)
    assert normalize(9, 2, 3) == PAdicFrac(1, 0, 3)


def test_normalize_rejects_bad_input():
    with pytest.raises(DomainError):
        normalize(1, 0, 4)
    with pytest.raises(DomainError):
        normalize(1, -1, 3)
    for p in (0, 1, -3, "3"):
        with pytest.raises(DomainError):
            normalize(6, 2, p)
    with pytest.raises(DomainError):
        PAdicFrac(6, 1, 3)  # not in lowest terms
    with pytest.raises(DomainError, match="^pexp must be non-negative$"):
        PAdicFrac(1, -1, 2)
    with pytest.raises(DomainError, match=r"^zero must be represented as \(0, 0\)$"):
        PAdicFrac(0, 1, 2)


def test_arith_examples():
    assert normalize(1, 1, 3) + normalize(2, 1, 3) == PAdicFrac(1, 0, 3)
    total = PAdicFrac(2, 0, 2) + PAdicFrac(1, 2, 2)
    assert (total.num, total.pexp) == (9, 2)
    assert cmp(normalize(1, 2, 3), normalize(1, 1, 3)) == -1
    assert arith(normalize(1, 1, 3), normalize(2, 1, 3), "add") == PAdicFrac(1, 0, 3)
    assert arith(normalize(1, 2, 3), normalize(1, 1, 3), "cmp") == -1
    assert arith(PAdicFrac(5, 0, 3), PAdicFrac(5, 0, 3), "neg") == PAdicFrac(-5, 0, 3)
    assert arith(normalize(1, 1, 3), normalize(2, 1, 3), "sub") == normalize(-1, 1, 3)
    assert arith(normalize(1, 1, 3), normalize(2, 1, 3), "mul") == normalize(2, 2, 3)
    with pytest.raises(DomainError, match="^unknown operation 'div'$"):
        arith(normalize(1, 1, 3), normalize(2, 1, 3), "div")
    assert 1 - normalize(1, 1, 2) == normalize(1, 1, 2)


def test_mixed_primes_rejected():
    with pytest.raises(DomainError):
        PAdicFrac(1, 0, 2) + PAdicFrac(1, 0, 3)
    with pytest.raises(DomainError, match="^mixed primes 3 and 2$"):
        line_bundle(1, PAdicFrac(1, 0, 3), 2)


@pytest.mark.parametrize("op, message", [
    (operator.add, "unsupported operand type(s) for +: 'PAdicFrac' and 'NoneType'"),
    (operator.sub, "unsupported operand type(s) for -: 'PAdicFrac' and 'NoneType'"),
    (operator.mul, "unsupported operand type(s) for *: 'PAdicFrac' and 'NoneType'"),
    (operator.lt, "'<' not supported between instances of 'PAdicFrac' and 'NoneType'"),
], ids=["add", "sub", "mul", "lt"])
def test_a_non_number_operand_is_left_to_python(op, message):
    with pytest.raises(TypeError) as info:
        op(PAdicFrac(1, 0, 2), None)
    assert str(info.value) == message


def test_order_key_examples():
    assert PAdicFrac(5, 0, 3).order_key() == (5, 0)
    assert normalize(2, 2, 3).order_key() == (2, 2)
    assert PAdicFrac(0, 0, 3).order_key() == (0, 0)


def test_text_rendering():
    assert str(normalize(7, 2, 3)) == "7/9"
    assert repr(normalize(7, 2, 3)) == "PAdicFrac(7/9, p=3)"
    assert str(PAdicFrac(5, 0, 3)) == "5"
    assert str(normalize(-2, 1, 3)) == "-2/3"


@given(padics)
def test_normalize_idempotent(x):
    again = normalize(x.num, x.pexp, x.prime)
    assert (again.num, again.pexp, again.prime) == (x.num, x.pexp, x.prime)


@given(padic_pairs())
def test_ring_laws(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == PAdicFrac(0, 0, a.prime)


@given(padic_pairs())
def test_cmp_matches_cross_multiplication(triple):
    a, b, _ = triple
    p = a.prime
    lhs = a.num * p**b.pexp
    rhs = b.num * p**a.pexp
    assert cmp(a, b) == (lhs > rhs) - (lhs < rhs)
    assert cmp(a, b) == (a.as_fraction() > b.as_fraction()) - (a.as_fraction() < b.as_fraction())


@given(padic_pairs())
def test_order_key_total_order(triple):
    a, b, _ = triple
    if a != b:
        assert (a < b) != (b < a)
        assert Fraction(a.num, a.prime**a.pexp) != Fraction(b.num, b.prime**b.pexp)


@given(padics, st.integers(0, 6))
def test_scaled_matches_fraction(x, extra):
    i = x.pexp + extra
    assert x.scaled(i) == x.as_fraction() * x.prime**i


def test_scaled_rejects_small_grade():
    with pytest.raises(DomainError):
        normalize(1, 2, 3).scaled(1)


def test_is_prime():
    assert [q for q in range(2, 20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


def test_is_prime_matches_trial_division():
    assert all(is_prime(q) == is_prime_by_trial_division(q) for q in range(-3, 10**5))


def test_is_prime_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; 2047 and 3215031751 are strong pseudoprimes
    # to base 2 and to the bases 2, 3, 5, 7
    for q in (561, 2047, 3215031751):
        assert not is_prime(q)
    # strong pseudoprimes to every prime base up to 23, and up to 37
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1) and is_prime(1000000000000037)


def test_is_prime_refuses_at_its_bound():
    for q in (_PRIME_BOUND, 2**127 - 1):
        with pytest.raises(DomainError, match=str(_PRIME_BOUND)):
            is_prime(q)
        with pytest.raises(DomainError, match=str(_PRIME_BOUND)):
            normalize(1, 1, q)
    out, err = io.StringIO(), io.StringIO()
    argv = ["h0", "--n", "1", "--deg", "1", "--p", str(_PRIME_BOUND), "--grades", "1", "--json"]
    assert run(argv, out, err) == 1
    assert str(_PRIME_BOUND) in out.getvalue() and str(_PRIME_BOUND) in err.getvalue()


@pytest.mark.parametrize("p", ["1000000000000037", "2305843009213693951"])
def test_large_prime_is_checked_in_bounded_time(p):
    # trial division took 12 s of CPU on the first and did not finish the second
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    code = run(["h0", "--n", "1", "--deg", "1", "--p", p, "--grades", "1", "--json"], out, err)
    assert time.process_time() - start < 2.0
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().startswith(f'{{"p": {p}, ')


def test_each_prime_is_proven_once(monkeypatch):
    proofs = []

    def recording_is_prime(p):
        proofs.append(p)
        return is_prime(p)

    exponents._proven_prime.cache_clear()
    monkeypatch.setattr(exponents, "is_prime", recording_is_prime)
    for _ in range(3):
        PAdicFrac(1, 1, 3)
        normalize(4, 2, 2)
        with pytest.raises(DomainError, match="^4 is not a prime$"):
            PAdicFrac(1, 0, 4)
    assert proofs == [3, 2, 4]


def test_a_prime_that_is_no_int_never_reaches_the_cache():
    exponents._proven_prime.cache_clear()
    for p in (2.0, True, [2]):
        message = f"^{re.escape(repr(p))} is not a prime$"
        for build in (PAdicFrac, normalize):
            with pytest.raises(DomainError, match=message):
                build(1, 0, p)
        with pytest.raises(DomainError, match=message):
            line_bundle(1, 1, p)
    assert exponents._proven_prime.cache_info().currsize == 0


_PRIME_TAKERS = {
    "count_h0_monomials": lambda p: count_h0_monomials(1, 1, 0, p),
    "count_hn_monomials": lambda p: count_hn_monomials(1, 1, 0, p),
    "iter_h0_monomials": lambda p: iter_h0_monomials(1, 1, 0, p),
    "enumerate_hn_monomials": lambda p: enumerate_hn_monomials(1, 1, 0, p),
    "bezout_chi": lambda p: bezout_chi(2, 1, 1, 3, p),
    "bezout_line": lambda p: bezout_line(1, 1, 3, p),
    "blowup_plane_charts": blowup_plane_charts,
    "from_fraction": lambda p: PAdicFrac.from_fraction(Fraction(1, 2), p),
    # the prime is checked before the value is read
    "from_fraction of text": lambda p: PAdicFrac.from_fraction("x", p),
    "line_bundle": lambda p: line_bundle(1, 1, p),
    "verify_theorems": lambda p: verify_theorems(1, [], 0, p),
    "veronese": lambda p: veronese(1, 1, 0, p),
}


@pytest.mark.parametrize("p", [4, 1, 0, -3, 2.0])
@pytest.mark.parametrize("name", list(_PRIME_TAKERS))
def test_every_public_function_rejects_a_non_prime(name, p):
    # each checks the prime once, where its first number is converted or
    # built, or on its own when it converts none (an empty degree list)
    with pytest.raises(DomainError, match=f"^{re.escape(repr(p))} is not a prime$"):
        _PRIME_TAKERS[name](p)


def test_public_numbers_convert_exactly():
    # each of these truncated a Fraction or a float to an int
    half = PAdicFrac(1, 1, 2)
    assert line_bundle(1, Fraction(1, 2), 2).degree == half
    with pytest.raises(DomainError, match="^denominator not a power of 2$"):
        line_bundle(1, Fraction(1, 3), 2)
    with pytest.raises(TypeError, match="^2.5 is not an int, a Fraction or a PAdicFrac$"):
        count_h0_monomials(1, 2.5, 0, 2)
    chi = bezout_chi(Fraction(7, 2), 1, 1, 3, 2)
    assert chi.generator_desc == "bezout_chi(d=7/2,degF=1,degG=1)"
    report = verify_theorems(1, [Fraction(1, 2)], 1, 2).to_json_dict()
    assert [d["degree"] for d in report["degrees"]] == ["1/2"]
    assert (bezout_line(Fraction(1, 2), 1, 3, 2).to_json_dict()
            == bezout_line(half, 1, 3, 2).to_json_dict())
    assert line_bundle(1, Fraction(4, 2), 3).degree == PAdicFrac(2, 0, 3)
