import io
import json
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (bezout_chi_by_counts, count_compositions, fracpoly_blowup_charts,
                     padic_substitute, padic_substitute_vector, padic_veronese_coordinates,
                     veronese_inclusion_by_sets, veronese_strings_by_join)

from perfproj.cli import _blowup_lines, run

from perfproj import (
    DomainError,
    FracMonomial,
    FracPoly,
    MonomialMap,
    PAdicFrac,
    bezout_chi,
    bezout_line,
    blowup_origin,
    blowup_plane_charts,
    count_h0_monomials,
    parse_poly,
    veronese,
    veronese_tower_inclusion,
)
from perfproj import fracpoly, geometry
from perfproj.exponents import normalize


def test_bezout_chi_values():
    assert bezout_chi(3, 1, 2, 1, 3).at(0) == 2
    assert bezout_chi(5, 2, 3, 2, 3).at(1) == 54
    assert bezout_chi(2, 1, 1, 3, 2).grades_list() == [1, 4, 16]


def test_bezout_chi_formula_sweep():
    for p in (2, 3):
        for (nf, mg) in [(1, 1), (1, 2), (2, 3)]:
            for d in (nf + mg, nf + mg + 2):
                dim = bezout_chi(d, nf, mg, 3, p)
                for j in range(3):
                    assert dim.at(j) == p ** (2 * j) * nf * mg


def test_bezout_chi_matches_enumeration_alternating_sum():
    p, nf, mg, d = 3, 2, 3, 6
    dim = bezout_chi(d, nf, mg, 2, p)
    for j in range(2):
        q = p**j
        total = (count_compositions(q * d, 3)
                 - count_compositions(q * (d - nf), 3)
                 - count_compositions(q * (d - mg), 3)
                 + count_compositions(q * (d - nf - mg), 3))
        assert dim.at(j) == total


def test_bezout_chi_fractional_degree():
    d = normalize(16, 1, 3)  # 16/3 >= 5
    dim = bezout_chi(d, 2, 3, 2, 3)
    assert dim.offset == 1
    assert dim.at(0) == 0
    assert dim.at(1) == 3**2 * 6
    assert dim.at(2) == 3**4 * 6


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), degF=st.integers(1, 4), degG=st.integers(1, 4),
       k=st.integers(0, 2), excess=st.integers(0, 40), grades=st.integers(1, 4))
@example(p=2, degF=1, degG=1, k=0, excess=0, grades=1)  # d = degF + degG
@example(p=3, degF=2, degG=3, k=1, excess=0, grades=2)  # d = 5, offset 0
@example(p=3, degF=2, degG=3, k=1, excess=1, grades=2)  # d = 16/3
def test_bezout_chi_matches_the_four_count_sum(p, degF, degG, k, excess, grades):
    # d = (degF + degG) * p**k + excess, over p**k: fractional unless p divides it
    d = normalize((degF + degG) * p**k + excess, k, p)
    dim = bezout_chi(d, degF, degG, grades, p)
    assert dim.offset == d.pexp
    assert dim.window(0, d.pexp) == [0] * d.pexp
    for label in range(d.pexp, d.pexp + grades + 3):
        assert dim.at(label) == bezout_chi_by_counts(d, degF, degG, label)


def test_bezout_chi_counts_nothing(monkeypatch):
    import perfproj.geometry as geometry

    def refuse(*args, **kwargs):
        raise AssertionError("bezout_chi counted monomials")

    monkeypatch.setattr(geometry, "count_h0_monomials", refuse)
    assert bezout_chi(5, 2, 3, 3, 3).grades_list() == [6, 54, 486]
    dim = bezout_chi(normalize(16, 1, 3), 2, 3, 2, 3)
    assert dim.to_json_dict() == {"p": 3, "offset": 1, "grades": [54, 486],
                                  "generator": "bezout_chi(d=16/3,degF=2,degG=3)"}


def test_bezout_chi_rejects_small_d():
    with pytest.raises(DomainError, match="too small"):
        bezout_chi(4, 2, 3, 2, 3)


def test_bezout_chi_converts_d_before_its_other_checks():
    with pytest.raises(DomainError, match="^denominator not a power of 3$"):
        bezout_chi(Fraction(1, 6), 0, 3, 2, 3)
    with pytest.raises(DomainError, match="^curve degrees must be positive$"):
        bezout_chi(Fraction(1, 3), 0, 3, 2, 3)


def test_too_few_names_for_the_veronese_coordinates_raise():
    v = veronese(2, 1, 0, 2)
    for read in (lambda: v.coordinate_strings(["a", "b"]), lambda: v.bracket("ab"),
                 lambda: veronese(0, 2, 1, 3).coordinate_strings([])):
        with pytest.raises(DomainError, match="^too few names: [02] for [13] variables$"):
            read()
    assert v.coordinate_strings("uvwz") == ["u", "v", "w"]


def test_bezout_line_examples():
    assert bezout_line(2, 3, 3, 3).grades_list() == [1, 1, 1]
    assert bezout_line(1, 1, 4, 2).grades_list() == [1, 1, 1, 1]


def test_bezout_line_constant_one_sweep():
    for p in (2, 3, 5):
        for s in range(1, 5):
            for t in range(1, 5):
                assert bezout_line(s, t, 4, p).grades_list() == [1] * 4


def test_bezout_line_fractional_degrees():
    # degrees -5/3, -2/3, -3/3: the identity holds from grade 1 on
    dim = bezout_line(normalize(2, 1, 3), PAdicFrac(1, 0, 3), 4, 3)
    assert dim.window(0, 4) == [0, 1, 1, 1]


def test_bezout_line_reads_1_from_the_larger_offset_on():
    # label 0: hn(-17/3) and hn(-2/3) are not yet reached and read 0, hn(-5) is 4
    assert bezout_line(normalize(2, 1, 3), 5, 3, 3).grades_list() == [-4, 1, 1, 1]
    # label 1: hn(-4/9) and hn(-1/9) are not yet reached, and hn(-1/3) is 0
    dim = bezout_line(normalize(1, 1, 3), normalize(1, 2, 3), 2, 3)
    assert (dim.offset, dim.grades_list()) == (1, [0, 1, 1])


def test_veronese_tower():
    v0 = veronese(1, 2, 0, 3)
    v1 = veronese(1, 2, 1, 3)
    v2 = veronese(1, 2, 2, 3)
    assert (v0.target_dim, v1.target_dim, v2.target_dim) == (2, 6, 18)
    assert v0.bracket() == "[x^2:x*y:y^2]"
    assert "x^(1/3)*y^(5/3)" in v1.coordinate_strings()
    assert veronese_tower_inclusion(v0, v1)
    assert veronese_tower_inclusion(v1, v2)


def test_veronese_counts_match_enumeration():
    for i in range(3):
        v = veronese(2, 2, i, 2)
        assert v.target_dim + 1 == count_h0_monomials(2, 2, i, 2)
        assert v.monomials.count == v.target_dim + 1



@st.composite
def _veronese_args(draw, max_n=9, max_d=8, primes=(2, 3, 5, 7)):
    n, d = draw(st.integers(0, max_n)), draw(st.integers(1, max_d))
    p, i = draw(st.sampled_from(primes)), draw(st.integers(0, 3))
    # at most 2,000 monomials: lower the grade first, then the degree
    while count_h0_monomials(n, d, i, p) > 2000:
        if i:
            i -= 1
        else:
            d -= 1
    return n, d, i, p


@settings(max_examples=200, deadline=None)
@given(args=_veronese_args(), extra=st.integers(0, 2),
       names=st.lists(st.text("abuvw_", min_size=1, max_size=3), min_size=12, max_size=12))
@example(args=(0, 8, 3, 7), extra=0, names=["u"] * 12)
@example(args=(9, 1, 0, 2), extra=0, names=["u"] * 12)
def test_veronese_coordinates_match_the_padic_path(args, extra, names):
    v = veronese(*args)
    expected = padic_veronese_coordinates(*args)
    assert v.coordinate_strings() == expected
    assert len(expected) == v.target_dim + 1
    names = names[:args[0] + 1 + extra]  # n + 1 names or a few more
    expected = padic_veronese_coordinates(*args, names)
    assert v.coordinate_strings(names) == expected
    assert v.bracket(names) == "[" + ":".join(expected) + "]"


_NAMES = st.lists(st.text("abuvw_", min_size=1, max_size=3), min_size=5, max_size=5)


@settings(max_examples=300, deadline=None)
@given(args=_veronese_args(max_n=4, max_d=7, primes=(2, 3, 5)), names=st.none() | _NAMES)
@example(args=(4, 1, 0, 2), names=None)
@example(args=(1, 7, 3, 2), names=["u", "v", "w", "a", "b"])
def test_veronese_rows_match_the_per_vector_join(args, names):
    # heads and rows against the join of every vector through its n+1 tables
    assert veronese(*args).coordinate_strings(names) == veronese_strings_by_join(*args, names)


@settings(max_examples=200, deadline=None)
@given(total=st.integers(0, 400), i=st.integers(0, 4), p=st.sampled_from([2, 3, 5, 7]))
def test_suffix_table_matches_power_suffix_at_every_slot(total, i, p):
    table = geometry._suffixes(total, i, p)
    assert table == [fracpoly._power_suffix(c, i, p) for c in range(total + 1)]


_SMALL_VERONESE = {"n": st.integers(0, 2), "d": st.integers(1, 3),
                   "i": st.integers(0, 2), "p": st.sampled_from([2, 3])}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_tower_inclusion_matches_the_set_comparison(data):
    lower = {key: data.draw(values) for key, values in _SMALL_VERONESE.items()}
    # the upper map keeps each of n, d and p of the lower one half the time
    upper = {key: lower[key] if key != "i" and data.draw(st.booleans()) else data.draw(values)
             for key, values in _SMALL_VERONESE.items()}
    lower, upper = veronese(**lower), veronese(**upper)
    assert veronese_tower_inclusion(lower, upper) == veronese_inclusion_by_sets(lower, upper)

def test_blowup_quartic_example():
    u, v = blowup_origin(parse_poly("y^(1/4) - x^(1/4) + x^(1/2)", 2, 2))
    assert not u.exceptional.empty
    assert u.exceptional.constraint == "v^(1/4) = 1"
    assert not v.exceptional.empty
    assert v.exceptional.constraint == "u^(1/4) = 1"
    assert u.extracted == "x^(1/4)"
    assert v.extracted == "y^(1/4)"


def test_blowup_cuspidal_half_exponent_form():
    u, v = blowup_origin(parse_poly("y - x^(3/2)", 2, 2))
    assert u.exceptional.point == "(1:0)"
    assert u.exceptional.constraint == "v = 0"
    # slot 1 of the u-chart is the coordinate v: cofactor is v - x^(1/2)
    assert u.transformed == parse_poly("y - x^(1/2)", 2, 2)
    assert u.transformed.render(u.names) == "-x^(1/2) + v"
    assert v.exceptional.empty
    assert v.exceptional.constraint == "u^(3/2)*y^(1/2) = 1"


def test_blowup_cuspidal_third_exponent_form():
    u, v = blowup_origin(parse_poly("y^(2/3) - x", 2, 3))
    assert u.exceptional.point == "(1:0)"
    assert v.exceptional.empty
    assert v.exceptional.constraint == "u*y^(1/3) = 1"


def test_blowup_matches_classical_charts():
    # the integer-exponent cuspidal cubic gives the same exceptional data as
    # its half-exponent form
    u, v = blowup_origin(parse_poly("y^2 - x^3", 2, 2))
    uf, vf = blowup_origin(parse_poly("y - x^(3/2)", 2, 2))
    assert u.exceptional.point == uf.exceptional.point == "(1:0)"
    assert v.exceptional.empty and vf.exceptional.empty
    assert u.transformed == parse_poly("y^2 - x", 2, 2)  # slot 1 is v


def test_blowup_transformed_has_zero_exponent_term():
    for text, p in [("y^(1/4) - x^(1/4) + x^(1/2)", 2), ("y - x^(3/2)", 2),
                    ("y^(2/3) - x", 3), ("y^2 - x^3", 2)]:
        for chart in blowup_origin(parse_poly(text, 2, p)):
            blown = 0 if chart.chart == "u" else 1
            assert any(mon.exps[blown].is_zero for mon in chart.transformed.terms())


def test_blowup_rejects_bad_curves():
    with pytest.raises(DomainError, match="origin not on curve"):
        blowup_origin(parse_poly("x + 1", 2, 2))
    with pytest.raises(DomainError, match="zero polynomial"):
        blowup_origin(FracPoly.zero(2, 2))


# each curve fails the first check in this order and would pass the earlier ones:
# 1 + x^-1 has the origin on no chart, but its negative exponent is found first
_BLOWUP_CHECKS = [
    ("x + y + z", 3, "blow-up expects a plane curve in 2 variables"),
    ("x - x", 2, "zero polynomial rejected"),
    ("1 + x^-1", 2, "curve exponents must be non-negative"),
    ("x + 1", 2, "origin not on curve"),
]


@pytest.mark.parametrize("text, nvars, message", _BLOWUP_CHECKS)
def test_blowup_input_checks_and_their_order(text, nvars, message):
    with pytest.raises(DomainError) as info:
        blowup_origin(parse_poly(text, nvars, 2))
    assert str(info.value) == message


# the command line names x and y only, so it cannot send the 3-variable curve
@pytest.mark.parametrize("text, nvars, message", _BLOWUP_CHECKS[1:])
def test_blowup_command_input_checks_and_their_order(text, nvars, message):
    out, err = io.StringIO(), io.StringIO()
    code = run(["blowup", "--f", text, "--p", "2", "--json"], out, err)
    assert (code, out.getvalue(), err.getvalue()) == (
        1, json.dumps({"error": {"category": "usage", "message": message}}) + "\n",
        f"error: usage: {message}\n")


def test_blowup_json_shape():
    u, v = blowup_origin(parse_poly("y - x^(3/2)", 2, 2))
    payload = u.to_json_dict()
    json.dumps(payload)
    assert payload["chart"] == "u"
    assert payload["exceptional"]["point"] == "(1:0)"


def test_plane_charts_pullbacks_and_gluing():
    atlas = blowup_plane_charts(2)
    p = 2
    x = FracPoly(2, p, [((PAdicFrac(1, 0, p), PAdicFrac(0, 0, p)), 1)])
    y_over_x = FracPoly(2, p, [((PAdicFrac(-1, 0, p), PAdicFrac(1, 0, p)), 1)])
    x1 = FracPoly(2, p, [((PAdicFrac(1, 0, p), PAdicFrac(0, 0, p)), 1)])
    y1 = FracPoly(2, p, [((PAdicFrac(0, 0, p), PAdicFrac(1, 0, p)), 1)])
    assert atlas.chart1_pullback.apply(x) == x1
    assert atlas.chart1_pullback.apply(y_over_x) == y1
    # round trip through both gluing maps is the identity
    coeff, back = atlas.roundtrip((PAdicFrac(1, 0, p), PAdicFrac(0, 0, p)))
    assert coeff == 1 and back == (PAdicFrac(1, 0, p), PAdicFrac(0, 0, p))
    fwd = atlas.glue_forward.apply(x1)
    assert atlas.glue_backward.apply(fwd) == x1
    fwd_y = atlas.glue_forward.apply(y1)
    assert atlas.glue_backward.apply(fwd_y) == y1


@st.composite
def _substitution(draw):
    """A polynomial, a variable and a +-1 monomial image for it."""
    p = draw(st.sampled_from([2, 3]))
    nvars = draw(st.integers(1, 3))
    exponent = st.builds(normalize, st.integers(0, 5), st.integers(0, 1), st.just(p))
    exps = st.tuples(*[exponent] * nvars)
    terms = draw(st.lists(st.tuples(exps, st.integers(-3, 3).filter(bool)),
                          min_size=1, max_size=4))
    image = FracMonomial(Fraction(draw(st.sampled_from([1, -1]))), draw(exps))
    return FracPoly(nvars, p, terms), draw(st.integers(0, nvars - 1)), image


def _x(e0, e1, coeff=1):
    return FracPoly(2, 2, [((normalize(*e0, 2), normalize(*e1, 2)), coeff)])


_MINUS_Y = FracMonomial(Fraction(-1), (normalize(0, 0, 2), normalize(1, 0, 2)))


@given(_substitution())
@example((_x((3, 0), (1, 0)), 0, _MINUS_Y))  # x^3*y with x = -y: -y^4
@example((_x((1, 1), (0, 0)), 0, _MINUS_Y))  # x^(1/2) with x = -y: undefined
def test_substitute_is_the_monomial_map_with_identity_elsewhere(case):
    f, var, image = case
    p, nvars = f.prime, f.nvars

    def unit(k):
        return FracMonomial(Fraction(1), tuple(normalize(int(j == k), 0, p)
                                               for j in range(nvars)))

    mapping = MonomialMap(p, tuple(image if k == var else unit(k) for k in range(nvars)))
    try:
        expected = padic_substitute(f, {var: image})
    except DomainError as exc:
        assert str(exc) == "fractional power of a negative monomial"
        assert image.coeff == -1
        for substitute in (lambda: f.substitute(var, image), lambda: mapping.apply(f)):
            with pytest.raises(DomainError, match="^fractional power of a negative monomial$"):
                substitute()
        return
    assert f.substitute(var, image) == expected == mapping.apply(f)


@st.composite
def _laurent_map(draw):
    """A Laurent polynomial with exponents of denominator up to p**2 and a
    +-1 Laurent monomial image for each of its first variables."""
    p = draw(st.sampled_from([2, 3]))
    nvars = draw(st.integers(1, 3))
    exponent = st.builds(normalize, st.integers(-9, 9), st.integers(0, 2), st.just(p))
    exps = st.tuples(*[exponent] * nvars)
    terms = draw(st.lists(st.tuples(exps, st.integers(-3, 3).filter(bool)),
                          min_size=1, max_size=4))
    sign = st.sampled_from([Fraction(1), Fraction(-1)])
    images = draw(st.lists(st.builds(FracMonomial, sign, exps), max_size=nvars))
    return FracPoly(nvars, p, terms), MonomialMap(p, tuple(images))


@settings(max_examples=300, deadline=None)
@given(_laurent_map())
@example((_x((3, 0), (1, 0)), MonomialMap(2, (_MINUS_Y,))))  # x^3*y: -y^4
@example((_x((1, 1), (-1, 0)), MonomialMap(2, (_MINUS_Y,))))  # x^(1/2)/y: undefined
def test_monomial_map_is_the_padic_substitution(case):
    f, mapping = case
    images = dict(enumerate(mapping.images))
    message = "^fractional power of a negative monomial$"
    try:
        expected = padic_substitute(f, images)
    except DomainError as exc:
        assert str(exc) == "fractional power of a negative monomial"
        with pytest.raises(DomainError, match=message):
            mapping.apply(f)
    else:
        assert mapping.apply(f) == expected
    for mon in f.terms():
        try:
            expected = padic_substitute_vector(mon.exps, images, f.prime)
        except DomainError:
            with pytest.raises(DomainError, match=message):
                mapping.apply_vector(mon.exps)
        else:
            assert mapping.apply_vector(mon.exps) == expected


def test_monomial_map_checks_its_images_and_its_input():
    zero, one = normalize(0, 0, 2), normalize(1, 0, 2)
    f = parse_poly("x^2*y", 2, 2)
    wide = FracMonomial(Fraction(1), (one, zero, one))
    for images in [(wide,), (FracMonomial(Fraction(1), (one, zero)),) * 3]:
        with pytest.raises(DomainError, match="^replacement lives in a different variable space$"):
            MonomialMap(2, images).apply(f)
        with pytest.raises(DomainError, match="^replacement lives in a different variable space$"):
            MonomialMap(2, images).apply_vector((one, one))
    third = FracMonomial(Fraction(1), (normalize(1, 1, 3), normalize(0, 0, 3)))
    with pytest.raises(DomainError, match="^mixed primes in exponent vector$"):
        MonomialMap(2, (third,))
    with pytest.raises(DomainError, match="^mixed primes in replacement$"):
        MonomialMap(3, (third,)).apply(f)
    with pytest.raises(TypeError, match="^exponent 1 is not a PAdicFrac$"):
        MonomialMap(2, (FracMonomial(Fraction(1), (1, 0)),))


@pytest.mark.parametrize("p", [2, 3, 5, 2**61 - 1])
def test_plane_chart_gluing_round_trip_is_the_identity(p):
    # the five integer samples are those blowup_plane_charts once checked
    # on every call; the others are fractional and Laurent
    atlas = blowup_plane_charts(p)
    samples = [((1, 0), (0, 0)), ((0, 0), (1, 0)), ((2, 0), (-3, 0)), ((-1, 0), (5, 0)),
               ((4, 0), (4, 0)), ((1, 1), (0, 0)), ((-7, 2), (3, 1)), ((5, 3), (-5, 3))]
    for a, b in samples:
        exps = (normalize(*a, p), normalize(*b, p))
        assert atlas.roundtrip(exps) == (1, exps)
        f = FracPoly(2, p, [(exps, 3), ((normalize(*b, p), normalize(*a, p)), -1)])
        assert atlas.glue_backward.apply(atlas.glue_forward.apply(f)) == f


def test_a_negative_image_flips_the_sign_of_odd_powers():
    y = FracMonomial(Fraction(1), (normalize(0, 0, 2), normalize(1, 0, 2)))
    assert _x((3, 0), (1, 0)).substitute(0, _MINUS_Y) == _x((0, 0), (4, 0), -1)
    assert _x((2, 0), (1, 0)).substitute(0, _MINUS_Y) == _x((0, 0), (3, 0))
    assert MonomialMap(2, (_MINUS_Y, y)).apply(_x((3, 0), (1, 0))) == _x((0, 0), (4, 0), -1)


def test_monomial_map_compares_primes_and_leaves_vectors_to_the_monomials(monkeypatch):
    # every FracMonomial checked its own vector when it was built
    third = FracMonomial(Fraction(1), (normalize(1, 1, 3), normalize(0, 0, 3)))
    half = FracMonomial(Fraction(1), (normalize(1, 1, 2), normalize(1, 0, 2)))

    def refuse(*args):
        raise AssertionError("checked a vector again")

    monkeypatch.setattr(fracpoly, "_check_vector", refuse)
    assert MonomialMap(2, (half, half)).images == (half, half)
    with pytest.raises(DomainError, match="^mixed primes in exponent vector$"):
        MonomialMap(2, (half, third))
    with pytest.raises(DomainError, match="^mixed primes in exponent vector$"):
        MonomialMap(3, (third, half))
    monkeypatch.undo()
    with pytest.raises(DomainError, match="^empty exponent vector$"):
        MonomialMap(2, (FracMonomial(Fraction(1), ()),))


def test_monomial_map_rejects_a_coefficient_other_than_a_sign():
    # x -> 2*x would send x^2*y to 4*x^2*y, which apply() cannot express
    zero, one = normalize(0, 0, 2), normalize(1, 0, 2)
    double_x = FracMonomial(Fraction(2), (one, zero))
    y = FracMonomial(Fraction(1), (zero, one))
    message = "^non-monomial replacement rejected: coefficient must be \\+-1$"
    with pytest.raises(DomainError, match=message):
        MonomialMap(2, (double_x, y))
    with pytest.raises(DomainError, match=message):
        parse_poly("x^2*y", 2, 2).substitute(0, double_x)


@st.composite
def _curve_through_origin(draw):
    """1-4 terms with non-negative exponents of denominator up to p**2, no constant."""
    p = draw(st.sampled_from([2, 3, 5]))
    exponent = st.builds(normalize, st.integers(0, 7), st.integers(0, 2), st.just(p))
    exps = st.tuples(exponent, exponent).filter(lambda v: not (v[0].is_zero and v[1].is_zero))
    coeff = st.fractions(-3, 3, max_denominator=3).filter(bool)
    F = FracPoly(2, p, draw(st.lists(st.tuples(exps, coeff), min_size=1, max_size=4)))
    assume(not F.is_zero)
    return F


@settings(max_examples=200, deadline=None)
@given(_curve_through_origin())
@example(parse_poly("y - x^(3/2)", 2, 2))  # a point fiber and an empty one
@example(parse_poly("x^2", 2, 3))  # empty fiber with witness 1 = 0
@example(parse_poly("y^(2/9) - 1/2*x^(4/3) + x*y", 2, 3))
@example(parse_poly("-y^(1/25) - x^(2/5) + 3*x^(1/5)", 2, 5))
@example(parse_poly("x*y - 2/3*x^(1/5)*y^(4/5)", 2, 5))
@example(parse_poly("y - 2*x + x^(1/2)*y", 2, 2))  # fibers with a constant and more
@example(parse_poly("y^(2/3) - x^(2/3) + 1/2*x^(1/3)*y^(1/3)", 2, 3))
def test_blowup_charts_match_the_fracpoly_chain(F):
    charts = blowup_origin(F)
    expected = fracpoly_blowup_charts(F)
    assert [c.to_json_dict() for c in charts] == [c.to_json_dict() for c in expected]
    assert _blowup_lines(charts) == _blowup_lines(expected)
    for chart, want in zip(charts, expected):
        assert (chart.power_extracted, chart.transformed) == (want.power_extracted,
                                                                want.transformed)


def test_blowup_builds_no_fracpoly_per_chart_step(monkeypatch):
    def refuse(*args):
        raise AssertionError("a FracPoly chart step ran")

    for name in ("substitute", "extract_power", "set_var_zero", "restrict_to_var"):
        monkeypatch.setattr(FracPoly, name, refuse)
    for text, p in [("y - x^(3/2)", 2), ("x^2", 3), ("y^(1/4) - x^(1/4) + x^(1/2)", 2),
                    ("y^2 - x^2 - x^3", 5)]:
        u, v = blowup_origin(parse_poly(text, 2, p))
        assert u.chart == "u" and v.chart == "v"
