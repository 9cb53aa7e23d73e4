import operator
import sys
from fractions import Fraction
from math import lcm

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
from oracles import (FractionPoly, RecursiveParser, grammar_accepts, padic_parse_terms,
                     tokenize_by_characters)


def P(text, nvars=2, p=2):
    return parse_poly(text, nvars, p)


def test_parse_quartic_example():
    f = P("y^(1/4) - x^(1/4) + x^(1/2)")
    assert f.num_terms == 3
    assert f.coefficient((normalize(0, 0, 2), normalize(1, 2, 2))) == 1
    assert f.coefficient((normalize(1, 2, 2), normalize(0, 0, 2))) == -1
    assert f.coefficient((normalize(1, 1, 2), normalize(0, 0, 2))) == 1


def test_coefficient_outside_the_terms_is_zero():
    f = P("x^(1/2)*y + 3")
    assert f.coefficient((normalize(1, 1, 2), normalize(1, 0, 2))) == 1
    assert f.coefficient((normalize(0, 0, 2), normalize(0, 0, 2))) == 3
    for exps in [(normalize(1, 2, 2), normalize(1, 0, 2)),   # over the grade of f
                 (normalize(1, 1, 3), normalize(1, 0, 3)),   # another prime
                 (normalize(1, 1, 2),),                      # another length
                 (0, 0)]:                                    # not exponents at all
        assert f.coefficient(exps) == 0


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


# factors of curve text, several of them with denominators, so that random
# texts are often valid and fractional
_FACTORS = ["x", "y", "z", "x^2", "y^-1", "x^(1/2)", "y^(3/4)", "z^(-5/8)", "x^(2/4)",
            "x^(6/3)", "x^(1/3)", "x^(1/9)", "y^(4/6)", "3", "1/2"]
_PIECES = st.sampled_from(_FACTORS + ["2/0", " + ", " - ", "*", "^", "(", ")", " "])
_TERMS = st.lists(st.tuples(st.sampled_from("+-"),
                            st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=3)),
                  min_size=1, max_size=4)


def _parsed_terms_or_error(text, p):
    try:
        return {m.exps: m.coeff for m in parse_poly(text, 3, p).terms()}
    except ParseError as exc:
        return str(exc), exc.position


def _padic_terms_or_error(text, p):
    try:
        return padic_parse_terms(text, 3, p)
    except ParseError as exc:
        return str(exc), exc.position


@settings(max_examples=500)
@given(st.one_of(
    st.lists(st.one_of(_GRAMMAR_CHARS, _GRAMMAR_CHARS, _SPACES, _STRAY), max_size=16)
    .map("".join),
    st.lists(_PIECES, max_size=10).map("".join),
    _TERMS.map(lambda terms: "".join(f" {s} " + "*".join(fs) for s, fs in terms))),
    st.sampled_from([2, 3]))
def test_parse_matches_the_padic_parser(text, p):
    assert _parsed_terms_or_error(text, p) == _padic_terms_or_error(text, p)


# the errors of a text that is grammatical but names an unknown variable or
# divides by zero or by a number that is no power of p
_SEMANTIC = ("unknown variable name", "zero denominator", "denominator not a power of")


def _parse_accepts(text, p):
    """Whether parse accepts text once each semantic error is mended where
    it is reported: a variable becomes x or x0, a denominator 1, each of the
    same length, so the token kinds stay as they were."""
    while True:
        try:
            parse_poly(text, 3, p)
            return True
        except ParseError as exc:
            if not str(exc).startswith(_SEMANTIC):
                return False
            [(kind, word, at)] = [tok for tok in _tokenize(text) if tok[2] == exc.position]
            mend = ("x0" if len(word) == 2 else "x") if kind == "var" else "1".zfill(len(word))
            text = text[:at] + mend + text[at + len(word):]


@settings(max_examples=1000, deadline=None)
@given(st.one_of(
    st.lists(st.one_of(_GRAMMAR_CHARS, st.sampled_from(["**", " * *", "***"])), max_size=16)
    .map("".join),
    st.lists(st.tuples(st.sampled_from(["+", "-", "*", "**", ""]), st.sampled_from(_FACTORS)),
             min_size=1, max_size=5).map(lambda parts: "".join(a + b for a, b in parts))),
    st.sampled_from([2, 3]))
def test_parse_accepts_exactly_the_grammar(text, p):
    assert _parse_accepts(text, p) == grammar_accepts(text)


def test_a_second_star_is_a_parse_error():
    for text, position in [("x**2", 2), ("2**3", 2), ("y**2 - x**3", 2), ("x * * y", 4)]:
        with pytest.raises(ParseError, match=r"^expected a coefficient or monomial "
                                             rf"\(at position {position}\)$") as info:
            P(text)
        assert info.value.position == position


def test_rescale_to_grade_examples():
    cusp = P("y - x^(3/2)")
    assert cusp.rescale_to_grade(1) == P("y^2 - x^3")
    f = parse_poly("x*y", 2, 3)
    assert f.rescale_to_grade(0) == f
    g = parse_poly("x^(1/9) + y^(2/3)", 2, 3)
    assert g.rescale_to_grade(2) == parse_poly("x + y^6", 2, 3)
    with pytest.raises(DomainError, match="grade too small"):
        g.rescale_to_grade(1)


def test_equal_polynomials_give_equal_grade_errors():
    f, g = P("x^(1/4) + y^(1/2)"), P("y^(1/2) + x^(1/4)")
    assert f == g and hash(f) == hash(g)
    for h in (f, g):
        with pytest.raises(DomainError, match="^grade too small: grade 0 too small for "
                                              "denominator exponent 2$"):
            h.rescale_to_grade(0)


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
    with pytest.raises(DomainError, match="^mixed primes in replacement$"):
        f.substitute(0, FracMonomial(Fraction(1), (PAdicFrac(1, 0, 3), PAdicFrac(0, 0, 3))))


def test_a_monomial_checks_its_exponent_vector():
    # the replacement is checked where it is built, before substitute sees it
    with pytest.raises(TypeError, match="^exponent 1 is not a PAdicFrac$"):
        P("x").substitute(0, FracMonomial(Fraction(1), (1, 0)))
    with pytest.raises(DomainError, match="^mixed primes in exponent vector$"):
        FracMonomial(Fraction(1), (PAdicFrac(1, 0, 2), PAdicFrac(1, 0, 3)))


def test_a_monomial_needs_an_exponent():
    with pytest.raises(DomainError, match="^empty exponent vector$"):
        FracMonomial(Fraction(1), ())


def test_monomial_degree():
    m = FracMonomial(Fraction(3), (normalize(1, 1, 2), PAdicFrac(2, 0, 2)))
    assert m.degree == normalize(5, 1, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: FracMonomial(Fraction(0), (PAdicFrac(1, 0, 2),)),
     "monomial coefficient must be nonzero"),
    (lambda: FracPoly(0, 2), "nvars must be positive"),
    (lambda: FracPoly(2, 2, [((PAdicFrac(1, 0, 2),), 1)]),
     "exponent vector length does not match nvars"),
    (lambda: P("x") + P("x", nvars=1), "polynomials from different ambient rings"),
    (lambda: P("x").substitute(0, FracMonomial(Fraction(1), (PAdicFrac(1, 0, 2),))),
     "replacement lives in a different variable space"),
    (lambda: P("x^-1 + y").set_var_zero(0), "cannot evaluate a negative power at zero"),
    (lambda: P("x + x*y").restrict_to_var(0), "polynomial involves other variables"),
    (lambda: parse_poly("x", 11, 2), "nvars must be between 1 and 10"),
], ids=["zero-coefficient", "no-variables", "vector-length", "add-across-rings",
        "substitute-other-space", "negative-power-at-zero", "other-variables",
        "parse-eleven-variables"])
def test_public_domain_errors(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


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


@pytest.mark.parametrize("method", ["min_exp", "extract_power", "set_var_zero",
                                    "restrict_to_var"])
@pytest.mark.parametrize("var", [-1, 2])
def test_variable_index_is_checked_first(method, var):
    # -1 used to read the last variable, and 2 to raise IndexError
    f = P("x^2*y + x*y^3", p=3)
    with pytest.raises(DomainError) as info:
        getattr(f, method)(var)
    assert str(info.value) == "variable index out of range"


def test_homogeneous_degree():
    assert P("x^2 + x*y").homogeneous_degree() == PAdicFrac(2, 0, 2)
    assert P("x^2 + y").homogeneous_degree() is None


def test_render_examples():
    assert P("y^(1/4) - x^(1/4) + x^(1/2)").render() == "x^(1/2) - x^(1/4) + y^(1/4)"
    assert FracPoly.zero(2, 2).render() == "0"
    assert P("-x + 3").render() == "-x + 3"
    assert P("1/2*x*y^2").render() == "1/2*x*y^2"
    assert str(P("y^(1/4) - x^(1/4) + x^(1/2)")) == "x^(1/2) - x^(1/4) + y^(1/4)"
    assert (P("1") == 1) is False  # a FracPoly equals only a FracPoly


def test_monomial_string_of_the_unit_is_one():
    zero = PAdicFrac(0, 0, 3)
    assert monomial_string((zero, zero, zero)) == "1"


def test_an_exponent_that_is_not_a_padic_fraction_is_named():
    with pytest.raises(TypeError, match="exponent 1 is not a PAdicFrac"):
        FracPoly(2, 2, [((1, 0), 1)])
    with pytest.raises(TypeError, match=r"exponent Fraction\(1, 2\) is not a PAdicFrac"):
        monomial_string((PAdicFrac(1, 0, 2), Fraction(1, 2)))


def test_monomial_string_rejects_mixed_primes_as_the_constructor_does():
    exps = (PAdicFrac(1, 1, 2), PAdicFrac(1, 1, 3))
    for build in (lambda: monomial_string(exps), lambda: FracPoly(2, 2, [(exps, 1)])):
        with pytest.raises(DomainError, match="^mixed primes in exponent vector$"):
            build()


def test_too_few_names_raise_instead_of_dropping_a_variable():
    f = P("x*y^(1/2) + 1")
    for render in (lambda: f.render(["x"]), lambda: monomial_string(f.terms()[0].exps, ["x"]),
                   lambda: parse_poly("x*y + 1", 2, 3).render(["a"]),
                   lambda: FracPoly.zero(2, 2).render(["a"]),
                   lambda: monomial_string(f.terms()[-1].exps, ["x"])):
        with pytest.raises(DomainError, match="^too few names: 1 for 2 variables$"):
            render()
    # more names than variables are allowed; the extra ones go unused
    assert f.render(["a", "b", "c"]) == "a*b^(1/2) + 1"
    assert monomial_string(f.terms()[0].exps, "uvw") == "u*v^(1/2)"


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


def _largest_pexp(f):
    return max((e.pexp for m in f.terms() for e in m.exps), default=0)


def poly_pair_strategy():
    """Two polynomials of one ring, by poly_strategy's recipe."""
    def build(p, nvars):
        exp = st.builds(normalize, st.integers(0, 9), st.integers(0, 2), st.just(p))
        coeff = st.fractions(min_value=-5, max_value=5).filter(lambda c: c != 0)
        term = st.tuples(st.tuples(*[exp] * nvars), coeff)
        poly = st.lists(term, max_size=6).map(lambda items: FracPoly(nvars, p, items))
        return st.tuples(poly, poly)
    return st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 4)).flatmap(
        lambda args: build(*args))


def test_cancellation_lowers_the_grade():
    f = P("x^(1/4) + y") - P("x^(1/4)")
    assert f == P("y") and f.max_pexp() == 0
    g = P("x^(1/2)") * P("x^(1/2)*y^(3/4)")
    assert g == P("x*y^(3/4)") and g.max_pexp() == 2
    e, cof = P("x^(1/2)*y + x^(1/2)").extract_power(0)
    assert (e, cof, cof.max_pexp()) == (normalize(1, 1, 2), P("y + 1"), 0)


@given(poly_pair_strategy())
def test_max_pexp_is_the_largest_denominator_of_the_terms(pair):
    f, g = pair
    results = [f, f + g, f - g, f - f, (f + g) - g, f * g, -f, f * Fraction(1, 2)]
    if not f.is_zero:
        results.append(f.extract_power(0)[1])
    rest = f
    for var in range(1, f.nvars):
        rest = rest.set_var_zero(var)
    results += [rest, rest.restrict_to_var(0)]
    for h in results:
        assert h.max_pexp() == _largest_pexp(h)


@given(poly_pair_strategy())
def test_equal_polynomials_hash_alike(pair):
    f, g = pair
    unit = FracPoly.monomial(f.nvars, f.prime, 1, [PAdicFrac(0, 0, f.prime)] * f.nvars)
    alike = [parse_poly(f.render(), f.nvars, f.prime),
             FracPoly(f.nvars, f.prime, [(m.exps, m.coeff) for m in f.terms()]),
             (f + g) - g, f * unit, -(-f), f * 2 - f]
    for h in alike:
        assert h == f and hash(h) == hash(f)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
@pytest.mark.parametrize("other", [1, Fraction(1, 2), 2.5, None, "x"])
def test_arithmetic_with_a_foreign_operand_raises_type_error(op, other):
    f = P("x + y")
    if op is operator.mul and isinstance(other, (int, Fraction)):
        # rational scalars multiply, on either side
        assert op(f, other) == op(other, f) == P("x + y") * P(str(other))
        return
    with pytest.raises(TypeError):
        op(f, other)
    with pytest.raises(TypeError):
        op(other, f)


# -- integer numerators over one denominator, against the Fraction model ------------

def _items(p, nvars):
    exp = st.builds(normalize, st.integers(0, 9), st.integers(0, 2), st.just(p))
    coeff = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=12))
    return st.lists(st.tuples(st.tuples(*[exp] * nvars), coeff), max_size=6)


def _model_cases():
    """(p, nvars, items of f, items of g, an image for substitute)."""
    def build(p, nvars):
        exp = st.builds(normalize, st.integers(0, 4), st.integers(0, 2), st.just(p))
        image = st.builds(FracMonomial, st.sampled_from([Fraction(1), Fraction(-1)]),
                          st.tuples(*[exp] * nvars))
        return st.tuples(st.just(p), st.just(nvars), _items(p, nvars), _items(p, nvars),
                         st.integers(0, nvars - 1), image)
    return st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 4)).flatmap(
        lambda args: build(*args))


def _agrees(f, model):
    """f holds the model's terms as numerators over their least common
    denominator, and shows them alike."""
    assert f.max_pexp() == model.k
    assert {v: Fraction(c, f._den) for v, c in f._terms.items()} == model.terms
    assert f._den == lcm(*(c.denominator for c in model.terms.values()))
    assert [(m.coeff, m.exps) for m in f.terms()] == model.terms_list()
    assert f.render() == model.render()


def _outcome(op):
    try:
        return op()
    except DomainError as exc:
        return str(exc)


@settings(max_examples=300)
@given(_model_cases(), st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6)),
       st.integers(0, 2))
def test_fracpoly_matches_the_fraction_model(case, scalar, extra):
    p, nvars, items_f, items_g, var, image = case
    f, g = FracPoly(nvars, p, items_f), FracPoly(nvars, p, items_g)
    mf, mg = FractionPoly.of(nvars, p, items_f), FractionPoly.of(nvars, p, items_g)
    grade = max(f.max_pexp(), g.max_pexp()) + extra
    for h, m in [(f, mf), (g, mg), (f + g, mf + mg), (f - g, mf - mg), (f * g, mf * mg),
                 (-f, mf * -1), (f * scalar, mf * scalar), (scalar * g, mg * scalar),
                 ((f + g).rescale_to_grade(grade), (mf + mg).rescale_to_grade(grade))]:
        _agrees(h, m)
    if not f.is_zero:
        e, cofactor = f.extract_power(var)
        e_model, cofactor_model = mf.extract_power(var)
        assert e == e_model
        _agrees(cofactor, cofactor_model)
    substituted = _outcome(lambda: f.substitute(var, image))
    if isinstance(substituted, str):
        assert substituted == _outcome(lambda: mf.substitute(var, image))
    else:
        _agrees(substituted, mf.substitute(var, image))
    for exps, _ in items_f + items_g:
        assert f.coefficient(exps) == mf.coefficient(exps)
    assert f.constant_term() == mf.coefficient([normalize(0, 0, p)] * nvars)


def test_equal_polynomials_hold_equal_numerators():
    half_x = FracPoly(2, 2, [((normalize(1, 0, 2), normalize(0, 0, 2)), Fraction(1, 2))])
    for a, b in [(P("1/2*x + 1/2*x"), P("x")), (P("2/4*x"), P("1/2*x")), (half_x, P("1/2*x")),
                 (P("6/4*x + 1/2*y") * 2, P("3*x + y")), (P("1/3*x") * 3, P("x"))]:
        assert a == b and hash(a) == hash(b)
        assert (a._terms, a._den) == (b._terms, b._den)
    assert (P("1/2*x + 1/3*y")._den, P("2/3 - 1/6*x")._den) == (6, 6)
    assert P("1/2*x + 1/2*y") != P("x + y")


@settings(max_examples=1000)
@given(st.one_of(
    st.lists(st.one_of(_GRAMMAR_CHARS, _GRAMMAR_CHARS, _SPACES, _STRAY,
                       st.sampled_from(["**", " * *", "***"])), max_size=16).map("".join),
    st.lists(_PIECES, max_size=10).map("".join),
    _TERMS.map(lambda terms: "".join(f" {s} " + "*".join(fs) for s, fs in terms))),
    st.sampled_from([2, 3]))
def test_parse_matches_the_recursive_parser(text, p):
    def read(parse):
        try:
            return parse()
        except ParseError as exc:
            return str(exc), exc.position
    assert read(lambda: parse_poly(text, 3, p)) == read(
        lambda: RecursiveParser(text, 3, p).parse_poly())


def test_a_stray_character_is_reported_before_a_too_long_integer():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ValueError, match="integer string conversion"):
        P(f"{digits}*x")
    with pytest.raises(ParseError, match=r"^unexpected character '\?'"):
        P(f"{digits}*x ?")
    with pytest.raises(ParseError, match=r"^unexpected character '\?'"):
        P(f"x^({digits}/2) ?")
