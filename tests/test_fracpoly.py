from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfproj import (
    DomainError,
    FracMonomial,
    FracPoly,
    PAdicFrac,
    ParseError,
    monomial_string,
    parse_poly,
)
from perfproj.exponents import normalize
from perfproj.fracpoly import _tokenize
from oracles import tokenize_by_characters


def P(text, nvars=2, p=2):
    return parse_poly(text, nvars, p)


def test_parse_quartic_example():
    f = P("y^(1/4) - x^(1/4) + x^(1/2)")
    assert f.num_terms == 3
    assert f.coefficient((normalize(0, 0, 2), normalize(1, 2, 2))) == 1
    assert f.coefficient((normalize(1, 2, 2), normalize(0, 0, 2))) == -1
    assert f.coefficient((normalize(1, 1, 2), normalize(0, 0, 2))) == 1


def test_parse_cancellation_to_zero():
    f = parse_poly("x*y - x*y", 2, 3)
    assert f.is_zero and f.num_terms == 0


def test_parse_two_thirds_example():
    f = parse_poly("y^(2/3) - x", 2, 3)
    assert f.coefficient((normalize(0, 0, 3), normalize(2, 1, 3))) == 1
    assert f.coefficient((normalize(1, 0, 3), normalize(0, 0, 3))) == -1


def test_parse_coefficients_and_implicit_multiplication():
    f = P("3x^2*y + 1/2 - 2*x")
    assert f.coefficient((normalize(2, 0, 2), normalize(1, 0, 2))) == 3
    assert f.constant_term() == Fraction(1, 2)
    assert f.coefficient((normalize(1, 0, 2), normalize(0, 0, 2))) == -2


def test_parse_numbered_variables():
    f = parse_poly("x0*x3 - x2^2", 4, 3)
    assert f.num_terms == 2


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        P("x +")
    assert exc.value.position is not None
    with pytest.raises(ParseError, match="unknown variable"):
        P("x + z")  # nvars=2
    with pytest.raises(ParseError, match="denominator not a power of 2"):
        P("x^(1/6)")
    with pytest.raises(ParseError, match="unexpected"):
        P("x ? y")


@pytest.mark.parametrize("text, message, position", [
    ("x ? y", "unexpected character '?'", 2),
    ("x +", "expected a coefficient or monomial", 3),
    ("*x", "expected a coefficient or monomial", 0),
    ("(x)", "expected a coefficient or monomial", 0),
    ("", "expected a coefficient or monomial", 0),
    ("x*", "expected a coefficient or monomial", 2),
    ("x)", "unexpected ')'", 1),
    ("3/", "expected integer after '/'", 2),
    ("3/0*x", "zero denominator", 2),
    ("x^(1/0)", "zero denominator", 5),
    ("x + z", "unknown variable name 'z'", 4),
    ("x^", "expected integer exponent", 2),
    ("x^-", "expected integer exponent", 3),
    ("x^(1", "expected '/' in fractional exponent", 4),
    ("x^(1/", "expected integer denominator", 5),
    ("x^(1/2", "expected ')'", 6),
    ("x^(1/6)", "denominator not a power of 2", 5),
])
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_poly(text, 2, 2)
    assert exc.value.position == position
    assert str(exc.value) == f"{message} (at position {position})"


# the grammar's characters, Unicode spaces, and stray characters; non-ASCII
# digits are left out, since the character loop takes them for digits and the
# grammar deliberately does not
_GRAMMAR_CHARS = st.sampled_from("0123456789xyz+-*^/() ")
_SPACES = st.sampled_from(["\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1f", "\x85",
                           "\xa0", "\u2003", "\u2028", "\u3000"])
_STRAY = st.characters().filter(lambda ch: not ch.isdigit() or ch in "0123456789")


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=500)
@given(st.lists(st.one_of(_GRAMMAR_CHARS, _GRAMMAR_CHARS, _SPACES, _STRAY),
                max_size=16).map("".join))
def test_tokenize_matches_the_character_loop(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(tokenize_by_characters, text)


def test_rescale_to_grade_examples():
    cusp = P("y - x^(3/2)")
    assert cusp.rescale_to_grade(1) == P("y^2 - x^3")
    f = parse_poly("x*y", 2, 3)
    assert f.rescale_to_grade(0) == f
    g = parse_poly("x^(1/9) + y^(2/3)", 2, 3)
    assert g.rescale_to_grade(2) == parse_poly("x + y^6", 2, 3)
    with pytest.raises(DomainError, match="grade too small"):
        g.rescale_to_grade(1)


def test_substitute_chart_examples():
    one = PAdicFrac(1, 0, 2)
    x_times_v = FracMonomial(Fraction(1), (one, one))
    f = P("y - x^(3/2)")
    assert f.substitute(1, x_times_v) == P("x*y - x^(3/2)")

    one3 = PAdicFrac(1, 0, 3)
    y_times_u = FracMonomial(Fraction(1), (one3, one3))
    g = parse_poly("y^(2/3) - x", 2, 3)
    assert g.substitute(0, y_times_u) == parse_poly("y^(2/3) - y*x", 2, 3)

    x = P("x")
    ident = FracMonomial(Fraction(1), (one, PAdicFrac(0, 0, 2)))
    assert x.substitute(0, ident) == x


def test_substitute_rejects_bad_replacement():
    f = P("x + y")
    with pytest.raises(DomainError, match="coefficient"):
        f.substitute(0, FracMonomial(Fraction(2), (PAdicFrac(1, 0, 2), PAdicFrac(0, 0, 2))))
    with pytest.raises(DomainError, match="non-negative"):
        f.substitute(0, FracMonomial(Fraction(1), (PAdicFrac(-1, 0, 2), PAdicFrac(0, 0, 2))))


def test_substitute_negative_unit_coefficient():
    minus_x = FracMonomial(Fraction(-1), (PAdicFrac(1, 0, 2), PAdicFrac(0, 0, 2)))
    f = P("x^2 + x*y")
    assert f.substitute(0, minus_x) == P("x^2 - x*y")
    g = P("x^(1/2)")
    with pytest.raises(DomainError, match="fractional power"):
        g.substitute(0, minus_x)


def test_extract_power_examples():
    e, cof = P("x*y - x^(3/2)").extract_power(0)
    assert e == PAdicFrac(1, 0, 2)
    assert cof == P("y - x^(1/2)")

    e, cof = parse_poly("y^(2/3) - y*x", 2, 3).extract_power(1)
    assert e == normalize(2, 1, 3)
    assert cof == parse_poly("1 - y^(1/3)*x", 2, 3)

    e, cof = P("x^3", 1).extract_power(0)
    assert e == PAdicFrac(3, 0, 2)
    assert cof == P("1", 1)

    with pytest.raises(DomainError, match="zero polynomial"):
        FracPoly.zero(2, 2).extract_power(0)


def test_homogeneous_degree():
    assert P("x^2 + x*y").homogeneous_degree() == PAdicFrac(2, 0, 2)
    assert P("x^2 + y").homogeneous_degree() is None


def test_render_examples():
    assert P("y^(1/4) - x^(1/4) + x^(1/2)").render() == "x^(1/2) - x^(1/4) + y^(1/4)"
    assert FracPoly.zero(2, 2).render() == "0"
    assert P("-x + 3").render() == "-x + 3"
    assert P("1/2*x*y^2").render() == "1/2*x*y^2"


def test_monomial_string_of_the_unit_is_one():
    zero = PAdicFrac(0, 0, 3)
    assert monomial_string((zero, zero, zero)) == "1"


def test_too_few_names_raise_instead_of_dropping_a_variable():
    f = P("x*y^(1/2) + 1")
    with pytest.raises(IndexError):
        f.render(["x"])
    with pytest.raises(IndexError):
        monomial_string(f.terms()[0].exps, ["x"])


# -- random round-trip property ------------------------------------------------------

def poly_strategy():
    def build(p, nvars):
        exp = st.builds(normalize, st.integers(0, 9), st.integers(0, 2), st.just(p))
        coeff = st.fractions(min_value=-5, max_value=5).filter(lambda c: c != 0)
        term = st.tuples(st.tuples(*[exp] * nvars), coeff)
        return st.lists(term, min_size=0, max_size=6).map(
            lambda items: FracPoly(nvars, p, items))
    return st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 4)).flatmap(
        lambda args: build(*args))


@given(poly_strategy())
def test_parse_render_round_trip(f):
    assert parse_poly(f.render(), f.nvars, f.prime) == f


@given(poly_strategy(), st.integers(0, 3))
def test_rescale_round_trip(f, extra):
    i = f.max_pexp() + extra
    scaled = f.rescale_to_grade(i)
    # formally substituting u_j = x_j**(1/p**i) recovers f: exponents divide back
    back = FracPoly(f.nvars, f.prime,
                    [(tuple(normalize(e.num, i, f.prime) for e in mon.exps), mon.coeff)
                     for mon in scaled.terms()])
    assert back == f


@given(poly_strategy())
def test_extract_power_reconstruction(f):
    if f.is_zero:
        return
    e, cof = f.extract_power(0)
    monomial = FracPoly.monomial(f.nvars, f.prime, 1,
                                 [e] + [PAdicFrac(0, 0, f.prime)] * (f.nvars - 1))
    assert monomial * cof == f
    assert any(mon.exps[0].is_zero for mon in cof.terms())


@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.lists(
    st.builds(normalize, st.integers(-9, 9), st.integers(0, 2), st.just(p)),
    min_size=1, max_size=4)))
def test_monomial_string_is_the_render_of_the_unit_term(exps):
    f = FracPoly(len(exps), exps[0].prime, [(exps, 1)])
    assert monomial_string(tuple(exps)) == f.render()
