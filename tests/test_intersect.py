import io
import copy
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (CERTIFICATE_PRIMES, CURVE_CORPUS_TEXT, cli_in_child, curve_corpus,
                     dense_at_mod_ell, dense_coprime_mod_ell, dense_gcd_degree_mod_ell,
                     dense_truncated_quotient_dim, fulton_loop, fulton_multiplicity,
                     mixed_by_depth_brute, monomial_staircase_by_loop, rooted_texts,
                     run_in_child, shares_a_component_through_origin, shares_an_axis)

import perfproj.braided as braided_mod
import perfproj.intersect as intersect_mod
from perfproj import (
    DomainError,
    FracPoly,
    INFINITE_RANK,
    PAdicFrac,
    QuotientCapExceeded,
    blowup_origin,
    braided_multiplicity,
    is_prime,
    local_multiplicity,
    parse_poly,
    quotient_dim_oracle,
)
from perfproj.cli import run
from perfproj.fracpoly import _plane_terms
from perfproj.intersect import (
    _ELL,
    _bezout_bound,
    _gcd_degree_mod_ell,
    _newton,
    _newton_polygon,
    _newton_stage,
    _scaled,
    _truncated_quotient_dim,
)


def P(text, p=2):
    return parse_poly(text, 2, p)


def test_local_multiplicity_examples():
    assert local_multiplicity(P("x"), P("y")) == 1
    assert local_multiplicity(P("y^2 - x^3"), P("x")) == 2
    assert local_multiplicity(P("y - x^2"), P("y + x^2")) == 2
    assert local_multiplicity(P("x*y"), P("x")) == INFINITE_RANK


def test_local_multiplicity_known_values():
    assert local_multiplicity(P("x^2"), P("y^3")) == 6
    assert local_multiplicity(P("y - x^2"), P("x")) == 1
    assert local_multiplicity(P("y - x^2"), P("y - x^3")) == 2
    assert local_multiplicity(P("y^2 - x^3"), P("y^2 - x^5")) == 6
    # transversal smooth branches and a unit
    assert local_multiplicity(P("y - x"), P("y + x")) == 1
    assert local_multiplicity(P("x + 1"), P("y")) == 0


def test_local_multiplicity_shared_components():
    assert local_multiplicity(P("x^2*y"), P("x")) == INFINITE_RANK
    assert local_multiplicity(P("y^2"), P("x*y")) == INFINITE_RANK
    # shared component away from the origin stays finite
    f = P("x*y - x")          # x*(y-1)
    assert local_multiplicity(f, P("y*x - y")) == 1
    # rational coefficients: 1/2*y - x divides (y - 2*x)*(x + 1)
    assert local_multiplicity(P("1/2*y - x"), P("x*y + y - 2*x^2 - 2*x")) == INFINITE_RANK
    # shared component y = 2/3 away from the origin, fractional coefficients
    f = P("1/2*x*y - 1/3*x")  # x*(y/2 - 1/3)
    g = P("1/2*y^2 - 1/3*y")  # y*(y/2 - 1/3)
    assert local_multiplicity(f, g) == 1 == quotient_dim_oracle(f, g)


_COEFF = st.fractions(-3, 3, max_denominator=4).filter(bool)
_TERMS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), _COEFF),
                  min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(h=st.none() | _TERMS, h_const=st.sampled_from([None, 0, Fraction(1, 2)]),
       a=_TERMS, b=_TERMS, a_y_free=st.booleans(), b_y_free=st.booleans(),
       q=st.sampled_from([1, 1, 2, 3]))
def test_common_component_matches_sympy_gcd(h, h_const, a, b, a_y_free, b_y_free, q):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def poly(terms, y_free=False):
        return sum((sympy.Rational(c.numerator, c.denominator) * x**i * y**(0 if y_free else j)
                    for i, j, c in terms), sympy.Integer(0))

    # F = H*A, G = H*B; H is 1, or has its constant term kept, removed or set to 1/2
    H = sympy.Integer(1) if h is None else poly(h)
    if h is not None and h_const is not None:
        H = sympy.expand(H - H.subs({x: 0, y: 0}) + sympy.Rational(h_const))
    F = sympy.expand(H * poly(a, a_y_free))
    G = sympy.expand(H * poly(b, b_y_free))
    F = sympy.expand(F.subs(x, x**q))  # x -> x^q on one side
    assume(F != 0 and G != 0)

    def curve(e):
        return _poly((i, j, Fraction(int(c.p), int(c.q)))
                     for (i, j), c in sympy.Poly(e, x, y).terms())

    g = sympy.gcd(F, G)
    expected = sympy.Poly(g, x, y).total_degree() >= 1 and g.subs({x: 0, y: 0}) == 0
    # the pipeline: the Newton stage's inf on a shared axis, the truncated
    # loop's on any other shared component through the origin
    assert (local_multiplicity(curve(F), curve(G)) == INFINITE_RANK) == expected, (F, G, g)


def test_local_multiplicity_rejects_bad_input():
    with pytest.raises(DomainError, match="zero polynomial"):
        local_multiplicity(P("x - x"), P("y"))
    with pytest.raises(DomainError, match="integer exponents"):
        local_multiplicity(P("y - x^(3/2)"), P("x"))


@pytest.mark.parametrize("fn", [local_multiplicity, quotient_dim_oracle])
@pytest.mark.parametrize("curve, message", [
    # the terms are checked in rendering order: y^(1/2) comes before -x^-1
    (P("-x^-1 + y^(1/2)"), "integer exponents required; rescale first"),
    (P("x*y^-1 + y^(1/2)"), "curve exponents must be non-negative"),
    (parse_poly("x + y + z", 3, 2), "plane curves require exactly 2 variables"),
])
def test_curve_input_checks_and_their_order(fn, curve, message):
    for F, G in [(curve, P("x")), (P("y"), curve)]:
        with pytest.raises(DomainError) as info:
            fn(F, G)
        assert str(info.value) == message


# the 3-variable curve would fail every later check too: it has a constant
# term, a negative and a fractional exponent; each entry point reads the
# other curve of a pair, a plane curve, as well
@pytest.mark.parametrize("curve", [parse_poly("1 + x^-1 + y^(1/2) + z", 3, 2),
                                   FracPoly.zero(3, 2)], ids=["terms", "zero"])
@pytest.mark.parametrize("entry", [
    lambda C: local_multiplicity(C, P("x")),
    lambda C: local_multiplicity(P("y"), C),
    lambda C: braided_multiplicity(C, P("x"), 1),
    lambda C: braided_multiplicity(P("y"), C, 1),
    lambda C: quotient_dim_oracle(C, P("x")),
    lambda C: quotient_dim_oracle(P("y"), C),
    blowup_origin,
], ids=["local_F", "local_G", "braided_F", "braided_G", "oracle_F", "oracle_G", "blowup"])
def test_every_plane_curve_entry_point_checks_the_variable_count_first(entry, curve):
    with pytest.raises(DomainError) as info:
        entry(curve)
    assert str(info.value) == "plane curves require exactly 2 variables"


def test_mult_negative_exponent_is_a_usage_error():
    argv = ["--f", "y - x^-1", "--g", "y", "--p", "2", "--grades", "1", "--json"]
    message = "curve exponents must be non-negative"
    assert _mult(argv) == (
        1, json.dumps({"error": {"category": "usage", "message": message}}) + "\n",
        f"error: usage: {message}\n")


def test_oracle_examples():
    assert quotient_dim_oracle(P("x"), P("y")) == 1
    assert quotient_dim_oracle(P("x^2"), P("y^3")) == 6
    assert quotient_dim_oracle(P("y - x^2"), P("x")) == 1


def test_monomial_staircase_matches_the_loop():
    exps = [(a, b) for a in range(7) for b in range(7)]
    for g1 in exps:
        for g2 in exps:
            assert intersect_mod._monomial_staircase(g1, g2) == \
                monomial_staircase_by_loop(g1, g2), (g1, g2)


def test_oracle_cap_exceeded_on_shared_component():
    with pytest.raises(QuotientCapExceeded):
        quotient_dim_oracle(P("y^2 - x^3"), P("y^4 - x^3*y^2"), cap=10)


def test_fulton_equals_oracle_on_corpus():
    corpus = curve_corpus()
    for i, F in enumerate(corpus):
        for G in corpus[i:]:
            mu = fulton_multiplicity(F, G)
            assert local_multiplicity(F, G) == mu, (F, G)
            if mu == INFINITE_RANK:
                try:
                    assert quotient_dim_oracle(F, G, cap=14) == INFINITE_RANK
                except QuotientCapExceeded:
                    pass
            else:
                assert mu == quotient_dim_oracle(F, G), (F, G)


def test_symmetry_at_integer_grade():
    corpus = curve_corpus()
    for i, F in enumerate(corpus):
        for G in corpus[i:]:
            assert local_multiplicity(F, G) == local_multiplicity(G, F)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("y - x^2", "x"), ("y^2 - x^3", "x"), ("x", "y"),
                        ("y - x^2", "y + x^2"), ("y - x^3", "y - x")]),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-2, 2)), min_size=0, max_size=3))
def test_invariance_under_multiple_shift(pair, hterms):
    F = P(pair[0])
    G = P(pair[1])
    items = [((PAdicFrac(a, 0, 2), PAdicFrac(b, 0, 2)), c) for a, b, c in hterms]
    H = FracPoly(2, 2, items)
    shifted = G + H * F
    if shifted.is_zero:
        return
    assert local_multiplicity(F, shifted) == local_multiplicity(F, G)


def test_heavy_rooted_entries_pinned():
    # reaches (s, t) = (3, 0): F(U^27, V^27) against G, certified by G's Newton polygon
    tup = braided_multiplicity(parse_poly("y^2 - x^3", 2, 3),
                               parse_poly("y^3 - x^2 + x*y", 2, 3), 3)
    assert tup.to_json_dict() == {
        "p": 3,
        "diagonal": [4, 4, 4, 4],
        "mixed": [[4], [4, 12, 12, 36], [4, 12, 36, 12, 36, 108, 36, 108, 324],
                  [4, 12, 36, 108, 12, 36, 108, 324, 36, 108, 324, 972,
                   108, 324, 972, 2916]],
    }


def test_mixed_row_coordinate_axes():
    for p in (2, 3):
        tup = braided_multiplicity(parse_poly("x", 2, p), parse_poly("y", 2, p), 1)
        assert tup.flattened_row(1) == [1, p, p, p * p]
        assert tup.flattened_row(0) == [1]
        assert tup.diagonal.grades_list() == [1, 1]


def test_mixed_matrix_general_pattern_for_axes():
    # entry at root depths (a, b) in grade i is p**((i-a)+(i-b))
    for p in (2, 3):
        x, y = parse_poly("x", 2, p), parse_poly("y", 2, p)
        tup = braided_multiplicity(x, y, 2)
        for i in range(3):
            for a in range(i + 1):
                for b in range(i + 1):
                    assert tup.mixed[i][(a, b)] == p ** ((i - a) + (i - b))
        # verified against the independent oracle
        for s in range(3):
            for t in range(3):
                Fs = x.rescale_to_grade(s)
                Gt = y.rescale_to_grade(t)
                assert quotient_dim_oracle(Fs, Gt) == p ** (s + t)


def test_diagonal_consistency_invariants():
    for text_f, text_g in [("x", "y"), ("y^2 - x^3", "x"), ("y - x^2", "y + x^2")]:
        tup = braided_multiplicity(P(text_f), P(text_g), 2)
        classical = tup.mixed[0][(0, 0)]
        for i in range(3):
            assert tup.mixed[i][(i, i)] == tup.diagonal.at(i) == classical


def test_multiplicities_render_no_curve(monkeypatch):
    # no output prints a description of the diagonal, so nothing renders one
    def refuse(self, *args):
        raise AssertionError("rendered a curve")

    F, G = P("y^2 - x^3"), P("x")
    monkeypatch.setattr(FracPoly, "render", refuse)
    assert braided_multiplicity(F, G, 1).diagonal.to_json_dict() == {
        "p": F.prime, "offset": 0, "grades": [2, 2]}
    for mode in ([], ["--json"]):
        argv = ["mult", "--f", "y^2 - x^3", "--g", "x", "--p", "2", "--grades", "1"]
        assert run(argv + mode, io.StringIO(), io.StringIO()) == 0


def test_cuspidal_grade_one_matrix():
    # values frozen from the quotient-dimension oracle
    tup = braided_multiplicity(P("y^2 - x^3"), P("x"), 1)
    assert tup.diagonal.grades_list() == [2, 2]
    assert tup.mixed[1] == {(1, 1): 2, (1, 0): 4, (0, 1): 4, (0, 0): 8}
    f1 = P("y^2 - x^3").rescale_to_grade(1)
    assert quotient_dim_oracle(f1, P("x")) == 4
    assert quotient_dim_oracle(f1, P("x^2")) == 8
    assert quotient_dim_oracle(P("y^2 - x^3"), P("x^2")) == 4


def test_swapping_curves_transposes_the_matrix():
    # the matrix is explicitly index-ordered with the F root depth first:
    # swapping the curves transposes every grade's matrix
    for text_f, text_g in [("y^2 - x^3", "x"), ("y - x^2", "y^3"), ("x", "y")]:
        fw = braided_multiplicity(P(text_f), P(text_g), 2)
        bw = braided_multiplicity(P(text_g), P(text_f), 2)
        for i in range(3):
            for (a, b), value in fw.mixed[i].items():
                assert bw.mixed[i][(b, a)] == value


def test_fractional_inputs_zero_below_native_grade():
    F = P("y - x^(3/2)")  # native grade 1
    tup = braided_multiplicity(F, P("x"), 2)
    assert tup.diagonal.at(0) == 0
    assert tup.diagonal.at(1) == 2 and tup.diagonal.at(2) == 2
    assert all(v == 0 for v in tup.flattened_row(0))
    assert tup.mixed[1][(1, 1)] == 0  # F cannot be rooted past the grade
    assert tup.mixed[1][(0, 1)] == 2


def _rescalings(monkeypatch, F, G, grades):
    """braided_multiplicity(F, G, grades) and the number of rescalings it
    made: each distinct entry(s, t) with s, t >= 1 scales a base entry once,
    by braided._mul."""
    count = []
    mul = braided_mod._mul
    monkeypatch.setattr(braided_mod, "_mul", lambda a, b: count.append(1) or mul(a, b))
    tup = braided_multiplicity(F, G, grades)
    monkeypatch.undo()
    return tup, len(count)


@pytest.mark.parametrize("f, g, rescalings", [
    # kF = 1, kG = 0: s = i - 1 - a runs over 1..3 and t = i - b over 1..4
    ("y - x^(3/2)", "x", 12),
    # a self pair reads entry(t, s) for s > t: the pairs 1 <= s <= t <= 4
    ("y^2 - x^3", "y^2 - x^3", 10),
])
def test_each_distinct_entry_is_computed_once(monkeypatch, f, g, rescalings):
    F, G = P(f), P(g)
    tup, count = _rescalings(monkeypatch, F, G, 4)
    assert count == rescalings
    assert tup.mixed == mixed_by_depth_brute(F, G, 4)


def test_integer_curves_build_no_fraction(monkeypatch):
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    codes = set()
    for f in CURVE_CORPUS_TEXT:
        for mode in ([], ["--json"]):
            codes.add(run(["blowup", "--f", f, "--p", "3"] + mode, io.StringIO(), io.StringIO()))
            for g in CURVE_CORPUS_TEXT[::3]:
                argv = ["mult", "--f", f, "--g", g, "--p", "2", "--grades", "2"] + mode
                codes.add(run(argv, io.StringIO(), io.StringIO()))
        for g in ["y - x", "y^2 - x^3"]:
            try:
                quotient_dim_oracle(P(f), P(g))
            except QuotientCapExceeded:
                pass
    monkeypatch.undo()
    assert codes == {0} and built == []


def test_infinite_pair_serializes():
    tup = braided_multiplicity(P("x*y"), P("x"), 1)
    payload = tup.to_json_dict()
    json.dumps(payload)
    assert payload["diagonal"] == ["inf", "inf"]
    assert payload["mixed"][1] == ["inf"] * 4


def test_mixed_prime_rejected():
    with pytest.raises(DomainError):
        braided_multiplicity(parse_poly("x", 2, 2), parse_poly("y", 2, 3), 1)


# -- base entries, the x-power rule, the certificate and the step budget -------------

def _mult(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(["mult", *argv], out, err)
    return code, out.getvalue(), err.getvalue()


def test_curve_against_x_uses_the_x_power_rule():
    # the Newton stage answers all seven base entries and the loop never
    # runs; the entries (d, 0) read the polygon of x, so they pin the
    # stage's a * ord_y term: a = 1 times ord_y of the curve rooted 5**d
    # times, 3 * 5**d
    code, out, err = _mult(["--f", "y^3-x^2+x*y", "--g", "x", "--p", "5",
                            "--grades", "3", "--json"])
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "p": 5,
        "diagonal": [3, 3, 3, 3],
        "mixed": [[3], [3, 15, 15, 75], [3, 15, 75, 15, 75, 375, 75, 375, 1875],
                  [3, 15, 75, 375, 15, 75, 375, 1875, 75, 375, 1875, 9375,
                   375, 1875, 9375, 46875]],
    }
    # the entries 3 and 15 of grade 1 are the base entries every other value
    # scales: mu(F, x), mu(F, x^5) and mu(F(U^5, V^5), x)
    F, x = P("y^3-x^2+x*y", 5), P("x", 5)
    assert quotient_dim_oracle(F, x) == 3 == local_multiplicity(F, x)
    for f, g in [(F, x.rescale_to_grade(1)), (F.rescale_to_grade(1), x)]:
        assert quotient_dim_oracle(f, g) == 15 == local_multiplicity(f, g)


def test_x_power_rule_matches_oracle():
    # the last two pairs leave the Newton stage undecided (both edge
    # polynomials are y - 1), so the loop starts with y dividing A, then B:
    # they pin its y-power rule on each side
    for f, g in [("x^3*y - x^3 + x^4", "y^2 - x"), ("x^2*y - x^3", "y^3 - x^2 + x*y"),
                 ("x*y^2 + x^2", "y - x^2"), ("x^2", "y^2 - x^3 + x*y^3"),
                 ("y^2 - x^2*y", "y - x^2 + x^4"), ("y - x^2 + x^4", "y^2 - x^2*y")]:
        F, G = P(f), P(g)
        assert local_multiplicity(F, G) == fulton_multiplicity(F, G) == \
            quotient_dim_oracle(F, G), (f, g)
    F, G = P("x^2*y - x^3"), P("x*y + x")
    assert local_multiplicity(F, G) == fulton_multiplicity(F, G) == INFINITE_RANK


def _counting_base_entries(monkeypatch):
    # every base entry is first offered to the Newton stage, once
    calls = []
    inner = intersect_mod._newton

    def counted(stage, q):
        calls.append((stage, q))
        return inner(stage, q)

    monkeypatch.setattr(intersect_mod, "_newton", counted)
    return calls


def test_self_pair_computes_half_the_base_entries(monkeypatch):
    calls = _counting_base_entries(monkeypatch)
    F = parse_poly("y^3-x^2+x*y", 2, 3)
    tup = braided_multiplicity(F, F, 2)
    assert tup.to_json_dict()["mixed"][2] == ["inf", 17, 47, 17, "inf", 153, 47, 153, "inf"]
    assert len(calls) == 3


@pytest.mark.parametrize("text_f,text_g,p", [
    ("y^2 - x^3", "y^3 - x^2 + x*y", 3), ("y - x^(3/2)", "x", 2),
    ("y^(1/2) - x", "x^(1/4)*y - x^2", 2), ("x*y", "x", 2), ("y - x^2", "y - x^2", 2),
    ("y - x^(3/2)", "y - x^(3/2)", 2), ("y^2 - x^3", "y^2 - x^3", 3),
])
def test_base_entry_count(monkeypatch, text_f, text_g, p):
    calls = _counting_base_entries(monkeypatch)
    for grades in (1, 2, 3):
        calls.clear()
        braided_multiplicity(parse_poly(text_f, 2, p), parse_poly(text_g, 2, p), grades)
        assert len(calls) <= (grades + 1 if text_f == text_g else 2 * grades + 1)


@st.composite
def _mult_pair(draw):
    p = draw(st.sampled_from([2, 3]))
    # mixed_by_depth_brute runs the untruncated Fulton loop on every entry,
    # which needs minutes on some entries past these bounds: p = 3 at grade 3
    # reaches (y^2 - x^3)(U^27, V^27) against the node y^2 - x^2 - x^3, and a
    # shared factor y + x^2 times the node against itself at p = 2, grade 2
    # (with y - x^2 every pair here is fast)
    grades = draw(st.integers(1, 3 if p == 2 else 2))
    texts = CURVE_CORPUS_TEXT + rooted_texts(p)
    F = parse_poly(draw(st.sampled_from(texts)), 2, p)
    G = F if draw(st.booleans()) else parse_poly(draw(st.sampled_from(texts)), 2, p)
    shared = draw(st.sampled_from([None, "y - x", "y^2 - x^3", "x", "y - x^2"]))
    if shared is not None:
        H = parse_poly(shared, 2, p)
        F, G = H * F, H * G
    return F, G, grades


@pytest.mark.parametrize("text_f,text_g,p", [
    ("y^2 - x^3", "y^3 - x^2 + x*y", 3), ("y - x^(3/2)", "x", 2),
    ("y^(1/2) - x", "x^(1/4)*y - 1/3*x^2", 2), ("y - x^2", "y - x^2", 2),
])
def test_base_entries_rescale_each_curve_at_most_once(monkeypatch, text_f, text_g, p):
    calls = []
    rescale = FracPoly.rescale_to_grade

    def counted(self, i):
        calls.append(self)
        return rescale(self, i)

    monkeypatch.setattr(FracPoly, "rescale_to_grade", counted)
    F, G = parse_poly(text_f, 2, p), parse_poly(text_g, 2, p)
    braided_multiplicity(F, G, 3)
    assert len(calls) == len({id(curve) for curve in calls}) <= 2
    # a base entry's rows are the native terms with every exponent scaled
    for curve in (F, G):
        k = curve.max_pexp()
        for s in range(3):
            assert _scaled(_plane_terms(curve, k), p**s) == \
                _scaled(_plane_terms(rescale(curve, k + s), 0), 1)


@settings(max_examples=60, deadline=None)
@given(_mult_pair())
def test_base_entries_match_every_entry_computed(pair):
    F, G, grades = pair
    tup = braided_multiplicity(F, G, grades)
    assert tup.mixed == mixed_by_depth_brute(F, G, grades)


def _poly(terms):
    return FracPoly(2, 2, [((PAdicFrac(a, 0, 2), PAdicFrac(b, 0, 2)), c) for a, b, c in terms])


def _rooted(terms: dict, q: int) -> dict:
    """Integer terms (_plane_terms) of a curve rescaled by X -> X**q, Y -> Y**q."""
    return {(i * q, j * q): c for (i, j), c in terms.items()}


# the reference's certificate of coprimality: dense_coprime_mod_ell at these
# points modulo _ELL, ahead of its remainder sequence over Z
_CERT_POINTS = (3, 5, 7)


def _certified_coprime(F: dict, G: dict) -> bool:
    return dense_coprime_mod_ell(F, G, _CERT_POINTS, _ELL)


@settings(max_examples=150, deadline=None)
@given(h=_TERMS, a=_TERMS, b=_TERMS)
def test_certificate_never_holds_on_a_shared_factor(h, a, b):
    H, A, B = _poly(h), _poly(a), _poly(b)
    assume(not (H.is_zero or A.is_zero or B.is_zero))
    assume(max(e[1].num for e in (m.exps for m in H.terms())) >= 1)  # deg_y H >= 1
    assert not _certified_coprime(_scaled(_plane_terms(H * A, 0), 1),
                                  _scaled(_plane_terms(H * B, 0), 1))


def test_certificate_falls_back_when_every_point_is_bad():
    H = P("x^3*y - 15*x^2*y + 71*x*y - 105*y + x")  # (x-3)(x-5)(x-7)*y + x
    lead = _scaled(_plane_terms(H, 0), 1)[1]
    assert all(sum(c * x0**e for e, c in lead.items()) % _ELL == 0 for x0 in _CERT_POINTS)
    # a shared factor: the remainder sequence finds it, and so does the loop
    F, G = (_scaled(_plane_terms(H * P(g), 0), 1) for g in ("y + 1", "x + y"))
    assert not _certified_coprime(F, G)
    assert shares_a_component_through_origin(F, G)
    assert local_multiplicity(H * P("y + 1"), H * P("x + y")) == INFINITE_RANK
    # coprime, but neither leading coefficient survives at any point: the
    # remainder sequence decides
    partner = H - P("2*x")
    F, G = _scaled(_plane_terms(H, 0), 1), _scaled(_plane_terms(partner, 0), 1)
    assert not _certified_coprime(F, G)
    assert not shares_a_component_through_origin(F, G)
    assert local_multiplicity(H, partner) == fulton_multiplicity(H, partner) == \
        quotient_dim_oracle(H, partner)
    # one leading coefficient that survives is enough
    assert _certified_coprime(_scaled(_plane_terms(H, 0), 1),
                              _scaled(_plane_terms(P("y - x^2"), 0), 1))


def test_certificate_holds_on_coprime_curves():
    for f, g in [("y^2 - x^3", "y - x^2"), ("y^3 - x^2 + x*y", "x"), ("x*y + 1", "y")]:
        assert _certified_coprime(_scaled(_plane_terms(P(f), 0), 1),
                                  _scaled(_plane_terms(P(g), 0), 1))


def test_step_budget_names_its_numbers(monkeypatch):
    # a tangent pair: both edge polynomials are y - 1, so the Newton stage
    # leaves base entry (0, 0) to the loop
    monkeypatch.setattr(intersect_mod, "_FUEL", 2)
    argv = ["--f", "y-x-x^2", "--g", "y-x", "--p", "3", "--grades", "1"]
    message = ("multiplicity recursion exceeded its step budget of 2 steps (Bezout bound "
               "N = 2, step bound (N + 1)(2N + 1) = 15) at base entry (s, t) = (0, 0)")
    code, out, err = _mult(argv + ["--json"])
    assert code == 2
    assert json.loads(out) == {"error": {"category": "computation", "message": message}}
    assert err == f"error: computation: {message}\n"
    code, out, err = _mult(argv)
    assert (code, out, err) == (2, "", f"error: computation: {message}\n")


@pytest.mark.parametrize("f,g,q", [
    ("y^2 + x*y", "x^3*y + y^2", 1),
    ("y^2 + x*y", "x^3*y + y^2", 4),
    # the benchmark's shared pairs with C = y: y times a constant plus one term
    ("2*y - x^2*y^3", "-y + 3*x*y^2", 1),
    ("3*y + y^2", "y - 2*x*y^3", 9),
])
def test_axis_test_decides_a_shared_y_without_the_remainder_sequence(monkeypatch, f, g, q):
    def refuse(a, b):
        raise AssertionError("the loop ran")

    monkeypatch.setattr(intersect_mod, "_local", refuse)
    F, G = _rooted(_plane_terms(P(f), 0), q), _rooted(_plane_terms(P(g), 0), q)
    assert _newton(_newton_stage(_newton_polygon(F), G), 1) == INFINITE_RANK
    assert _newton(_newton_stage(_newton_polygon(G), F), 1) == INFINITE_RANK


def _in_child(limit: str, value: int, code: str) -> str:
    """The stdout of the Python code, run by run_in_child, which must succeed."""
    done = run_in_child(limit, value, code)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def _mult_in_child(limit: str, value: int, argv: list[str]) -> dict:
    """The JSON payload of `perfproj mult argv --json`, run by cli_in_child,
    which must succeed."""
    done = cli_in_child(limit, value, ["mult", *argv, "--json"])
    assert (done.returncode, done.stderr) == (0, "")
    return json.loads(done.stdout)


def test_one_surviving_leading_coefficient_certifies_within_a_cpu_limit(monkeypatch):
    # G's y-leading coefficient -(2**61 - 1)*x**27 vanishes modulo 2**61 - 1;
    # when a certificate needed both leading coefficients, the remainder
    # sequence ran past 30 s of CPU; the child caps its own at 10 s and runs
    # the loop alone
    f = ("2305843009213693952*y^24 + 2305843009213693951*x^8"
         " + 2305843009213693952*x^8*y^24 + 4611686018427387899*x^16*y^8")
    g = "2305843009213693952*x^18 - 2305843009213693951*x^27*y^27"
    out = _in_child("RLIMIT_CPU", 10, (
        "from perfproj import parse_poly\n"
        "from perfproj.fracpoly import _plane_terms\n"
        "from perfproj.intersect import _local, _scaled\n"
        f"F, G = (_scaled(_plane_terms(parse_poly(text, 2, 2), 0), 1) for text in ({f!r}, {g!r}))\n"
        "print(_local(F, G))\n"))
    assert out == "432\n"

    def refuse(*args):
        raise AssertionError("the base entry reached the loop")

    monkeypatch.setattr(intersect_mod, "_local", refuse)  # the Newton stage answers
    assert braided_multiplicity(P(f), P(g), 0).diagonal.grades_list() == [432]


def test_a_deep_grade_stays_within_a_memory_limit():
    # the dense certificate built a list of p**grades + 1 entries for y
    # rooted 40 times; the child caps its own address space at 1 GiB
    payload = _mult_in_child("RLIMIT_AS", 1 << 30,
                             ["--f", "x", "--g", "y", "--p", "2", "--grades", "40"])
    assert payload["diagonal"] == [1] * 41
    assert payload["mixed"][40][0] == 1 and payload["mixed"][40][-1] == 4**40


def test_a_two_term_initial_form_at_a_deep_grade_is_certified_within_a_cpu_limit():
    # every base entry of y - x against y - 2x needs the per-q gcd in
    # F_ell[y]: the edge polynomial y - 1 against the initial form
    # y**q - 2; the Fulton loop alone ran out of fuel from grade 16 on; the
    # child caps its own CPU time at 10 s
    payload = _mult_in_child("RLIMIT_CPU", 10,
                             ["--f", "y-x", "--g", "y-2*x", "--p", "2", "--grades", "30"])
    assert payload["diagonal"] == [1] * 31
    row = payload["mixed"][30]
    assert row[0] == 1 and row[30] == row[930] == 2**30 and row[-1] == 4**30


def test_local_multiplicity_of_the_rooted_cusp_against_the_node_stays_within_a_cpu_limit():
    # the cusp rooted 27 times against the node at p = 3 took about a minute
    # of CPU in the Fulton loop; the Newton polygon of the rooted cusp
    # answers 27 * 4 = 108; the child caps its own CPU time at 10 s
    out = _in_child("RLIMIT_CPU", 10, (
        "from perfproj import local_multiplicity, parse_poly\n"
        "F = parse_poly('y^2-x^3', 2, 3).rescale_to_grade(3)\n"
        "print(local_multiplicity(F, parse_poly('y^2-x^2-x^3', 2, 3)))\n"))
    assert out == "108\n"


def test_the_cusp_against_the_node_stays_within_a_cpu_limit():
    # base entry (3, 0), the cusp rooted 27 times against the node, took
    # about a minute in the Fulton loop; the Newton polygon of the node
    # answers it, 2 * 2 * 27 = 108; the child caps its own CPU time at 10 s
    payload = _mult_in_child("RLIMIT_CPU", 10,
                             ["--f", "y^2-x^3", "--g", "y^2-x^2-x^3", "--p", "3", "--grades", "3"])
    assert payload == {
        "p": 3,
        "diagonal": [4, 4, 4, 4],
        "mixed": [[4], [4, 12, 12, 36], [4, 12, 36, 12, 36, 108, 36, 108, 324],
                  [4, 12, 36, 108, 12, 36, 108, 324, 36, 108, 324, 972,
                   108, 324, 972, 2916]],
    }
    assert payload["mixed"][3][12] == 108  # grade 3, root depths (0, 3): entry (3, 0)


_INF = "inf"


@pytest.mark.parametrize("f,g,p,grades,row", [
    # G = F * (F + x^7), a tangent pair: the Newton stage certifies no
    # entry, and the untruncated loop took 187 s on entry (0, 4) and 44 s
    # on (4, 0); it agrees with these values through grade 3
    ("y-x-x^2", "y^2-2*x*y-2*x^2*y+x^2+2*x^3+x^4+x^7*y-x^8-x^9", 2, 4,
     [_INF, 6, 10, 18, 34, 6, _INF, 24, 40, 72, 10, 24, _INF, 96, 160,
      18, 40, 96, _INF, 384, 34, 72, 160, 384, _INF]),
    # (y + x^2)(y^2 - x^2 - x^3) against itself: the untruncated loop took
    # about 10 s on entry (0, 2) and did not finish this request in 400 s;
    # Noether's formula over the blow-ups gives 22, 42 and 82 for (0, 1) to
    # (0, 3) too
    ("y^3-x^2*y-x^3*y+x^2*y^2-x^4-x^5", "y^3-x^2*y-x^3*y+x^2*y^2-x^4-x^5", 2, 3,
     [_INF, 22, 42, 82, 22, _INF, 88, 168, 42, 88, _INF, 352, 82, 168, 352, _INF]),
    # a 3-term curve against itself: the untruncated loop gives the same
    # 17, 47 and 137 in about 3.5 s
    ("y^3-x^2+x*y", "y^3-x^2+x*y", 3, 3,
     [_INF, 17, 47, 137, 17, _INF, 153, 423, 47, 153, _INF, 1377, 137, 423, 1377, _INF]),
    # shared components with every rooting of the other curve, which the
    # remainder sequence over Z used to decide: every entry is infinite
    ("y^2-x^3", "y^2-x^3", 2, 8, [_INF] * 81),
    ("y^2-3*x*y+2*x^2", "y-x", 2, 10, [_INF] * 121),  # (y - x)(y - 2x) against y - x
], ids=["tangent-pair", "self-pair-p2", "self-pair-p3", "shared-cusp", "shared-line"])
def test_undecided_base_entries_stay_within_a_cpu_limit(f, g, p, grades, row):
    # the base entries the Newton stage leaves undecided run the loop
    # truncated at the Bezout bound; the child caps its own CPU time at 10 s.
    # Grade i flattens (a, b) at s * (i + 1) + t, s = i - a and t = i - b, so
    # entry (0, d) of the last grade sits at d and (d, 0) at d * (i + 1)
    payload = _mult_in_child("RLIMIT_CPU", 10,
                             ["--f", f, "--g", g, "--p", str(p), "--grades", str(grades)])
    assert payload["diagonal"] == [_INF] * (grades + 1)
    assert payload["mixed"][grades] == row


_CERT_COEFF = st.sampled_from([1, -1, 2, -3, _ELL, -_ELL, _ELL + 1, 2 * _ELL - 3])
_CERT_TERMS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), _CERT_COEFF),
                       min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(a=_CERT_TERMS, b=_CERT_TERMS, h=st.none() | _CERT_TERMS,
       q=st.sampled_from([1, 2, 3, 4, 8]), r=st.sampled_from([1, 2, 3]))
def test_sparse_certificate_matches_the_dense_one(a, b, h, q, r):
    A, B = _poly(a), _poly(b)
    if h is not None:
        A, B = _poly(h) * A, _poly(h) * B
    assume(not (A.is_zero or B.is_zero))
    F, G = _scaled(_plane_terms(A, 0), q), _scaled(_plane_terms(B, 0), r)
    for x0 in _CERT_POINTS:  # F(x0, y) and G(x0, y) in F_ell[y], sparse and dense
        dense_f, dense_g = dense_at_mod_ell(F, x0, _ELL), dense_at_mod_ell(G, x0, _ELL)
        f, g = ({b: v for b, v in enumerate(h) if v} for h in (dense_f, dense_g))
        if dense_f[-1] and dense_g[-1]:
            assert _gcd_degree_mod_ell(f, g) == dense_gcd_degree_mod_ell(dense_f, dense_g, _ELL)


@settings(max_examples=200, deadline=None)
@given(e=st.integers(0, 600), g=st.dictionaries(st.integers(0, 12), _CERT_COEFF, min_size=1))
def test_y_power_modulo_matches_repeated_multiplication_by_y(e, g):
    g = {d: v % _ELL for d, v in g.items() if v % _ELL}
    assume(g)
    dg, inv = max(g), pow(g[max(g)], -1, _ELL)
    r = [1] + [0] * dg  # y**0, dense, reduced one degree at a time
    for _ in range(e):
        r = [0] + r[:dg]
        c = r[dg] * inv % _ELL
        r = [(v - c * g.get(d, 0)) % _ELL for d, v in enumerate(r)]
    assert intersect_mod._y_power_mod(e, g) == {d: v for d, v in enumerate(r[:dg]) if v}


def test_certificate_reduces_a_deep_power_in_log_q_products(monkeypatch):
    # y - 3 against y**q + 3, q = 2**61 - 1: y**q modulo y - 3 is one
    # square-and-multiply, one remainder per bit of q, not q steps
    calls = []
    rem = intersect_mod._rem_mod_ell

    def counted(f, g):
        calls.append(len(f))
        return rem(f, g)

    monkeypatch.setattr(intersect_mod, "_rem_mod_ell", counted)
    q = 2**61 - 1
    assert _gcd_degree_mod_ell({1: 1, 0: _ELL - 3}, {q: 1, 0: 3}) == 0
    assert len(calls) <= 2 * q.bit_length()


# -- the Newton stage ----------------------------------------------------------------

def _rows_poly(rows):
    """The FracPoly (p = 2, grade 0) of integer rows."""
    return _poly((a, b, c) for b, row in rows.items() for a, c in row.items())


_NEWTON_Q = st.sampled_from([1, 2, 3, 4, 8, 9])
# _ELL + 1 is 1 modulo _ELL, a coefficient the Newton stage's gcds modulo _ELL
# see as 1.  Terms with equal exponents merge, so a sum such as _ELL + 1 - 1
# is a multiple of _ELL; the reference's shared-component check then needs its
# second certificate prime (oracles.CERTIFICATE_PRIMES), since modulo _ELL
# alone it would leave the curves to its exact remainder sequence, which took
# minutes on _NEWTON_D4
_NEWTON_TERMS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                   st.sampled_from([1, -1, 2, -3, _ELL + 1])),
                         min_size=1, max_size=4)
# B = _ELL - x^2 y - 3 x^3 y^2 is a unit, but modulo _ELL it shares the factor
# y with A, rooted
_NEWTON_D4 = {"a": [(2, 1, 1), (3, 3, 1), (0, 1, -3)],
              "c": [(2, 1, -1), (0, 0, -1), (3, 2, -3), (0, 0, _ELL + 1)],
              "h": None, "qa": 8, "q": 9}


@settings(max_examples=200, deadline=None)
@given(a=_NEWTON_TERMS, c=_NEWTON_TERMS, h=st.none() | _NEWTON_TERMS, qa=_NEWTON_Q, q=_NEWTON_Q)
@example(**_NEWTON_D4)
def test_newton_stage_matches_the_fulton_loop(a, c, h, qa, q):
    # A is a curve rooted qa times and B a curve rooted q times; with h they
    # share the factor H rooted q times (qa = q then)
    A0, C0 = _poly(a), _poly(c)
    if h is not None:
        H = _poly(h)
        A0, C0, qa = H * A0, H * C0, q
    assume(not (A0.is_zero or C0.is_zero))
    At, C = _rooted(_plane_terms(A0, 0), qa), _plane_terms(C0, 0)
    mu = _newton(_newton_stage(_newton_polygon(At), C), q)
    if h is not None and not H.is_zero and H.constant_term() == 0:
        # a shared factor through the origin is never certified finite
        assert mu is None or mu == INFINITE_RANK
    if mu is None:
        return
    A, B = _scaled(At, 1), _scaled(C, q)
    if mu == INFINITE_RANK:  # only on a shared axis, which the loop may not meet
        assert shares_an_axis(A, B)
        assert fulton_multiplicity(_rows_poly(A), _rows_poly(B)) == INFINITE_RANK
        return
    assert not shares_a_component_through_origin(A, B)
    assert fulton_loop(_scaled(At, 1), _scaled(C, q)) == mu
    if mu <= 22:  # the oracle stabilizes by total degree mu + 2 <= 24
        assert quotient_dim_oracle(_rows_poly(A), _rows_poly(B)) == mu


def test_the_newton_reference_decides_d4_within_a_cpu_limit():
    # the whole check of _NEWTON_D4, in a child that caps its CPU at 10 s:
    # modulo _ELL alone the reference's remainder sequence ran for minutes.
    # Its assume() holds on d4; outside a hypothesis run it only warns
    tests = Path(__file__).resolve().parent
    out = _in_child("RLIMIT_CPU", 10, (
        f"sys.path.insert(0, {str(tests)!r})\n"
        "import warnings\n"
        "warnings.simplefilter('ignore')\n"
        "import test_intersect as t\n"
        "t.test_newton_stage_matches_the_fulton_loop.hypothesis.inner_test(**t._NEWTON_D4)\n"
        "print('done')\n"))
    assert out == "done\n"


def test_the_certificate_primes_are_prime():
    assert [is_prime(ell) for ell in CERTIFICATE_PRIMES] == [True, True]


_COEFF = st.sampled_from([1, -1, 2, -3, 6]) | st.integers(-2**70, 2**70).filter(bool)
_INT_ROWS = st.dictionaries(st.integers(0, 5), st.dictionaries(st.integers(0, 5), _COEFF,
                                                               min_size=1, max_size=4),
                            max_size=4)


@settings(max_examples=300, deadline=None)
@given(_INT_ROWS, _INT_ROWS, st.integers(1, 8))
def test_truncated_quotient_dim_matches_the_dense_elimination(F, G, N):
    # the reference reads integer rows, _truncated_quotient_dim their terms
    terms = [{(a, b): c for b, row in R.items() for a, c in row.items()} for R in (F, G)]
    before = repr(terms)
    assert _truncated_quotient_dim(*terms, N) == dense_truncated_quotient_dim(F, G, N)
    assert repr(terms) == before  # the terms are not modified


_PIPELINE_TERMS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                     st.sampled_from([1, -1, 2, -3])), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(a=_PIPELINE_TERMS, b=_PIPELINE_TERMS, q=st.sampled_from([1, 2, 3, 4]),
       shared=st.sampled_from([None, "x", "y", "x*y", "y - x", "y^2 - x^3", "y - x^2 + 1"]),
       unit=st.booleans(), swap=st.booleans())
def test_local_multiplicity_matches_the_fulton_loop(a, b, q, shared, unit, swap):
    # B rooted q times against A; with shared, both times that factor (an
    # axis, a curve through the origin or one off it); with unit, A plus 1
    A, B = _poly(a + [(0, 0, 1)] if unit else a), _poly(b)
    assume(not (A.is_zero or B.is_zero))
    B = _rows_poly(_scaled(_plane_terms(B, 0), q))
    if shared is not None:
        A, B = P(shared) * A, P(shared) * B
    F, G = (B, A) if swap else (A, B)
    assert local_multiplicity(F, G) == fulton_multiplicity(F, G), (F, G)


# (T, n, m, h): a curve T through the origin with one edge of inner normal
# w = (n, m) and weight h, whose edge polynomial has the root 1 or -1; adding
# terms of w-weight above h keeps the edge and its polynomial, and rooting
# keeps a root in common, so the Newton stage leaves most of these pairs to
# the loop
_TANGENTS = [("y - x", 1, 1, 1), ("y + x", 1, 1, 1), ("y - x^2", 2, 1, 2),
             ("y^2 - x^3", 2, 3, 6), ("y^2 - x^2", 1, 1, 2)]


@st.composite
def _tangent_pair(draw):
    """Two curves T + higher terms with a common tangent T, one side rooted
    q times."""
    text, n, m, h = draw(st.sampled_from(_TANGENTS))
    higher = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3),
                                st.sampled_from([1, -1, 2, -3])), max_size=3)
    A, B = (P(text) + _poly([(i, j, c) for i, j, c in draw(higher) if n * i + m * j > h])
            for _ in range(2))
    assume(not (A.is_zero or B.is_zero))
    B = _rows_poly(_scaled(_plane_terms(B, 0), draw(st.sampled_from([1, 2, 3, 4]))))
    return (B, A) if draw(st.booleans()) else (A, B)


@settings(max_examples=200, deadline=None)
@given(_tangent_pair())
def test_local_multiplicity_matches_the_untruncated_loop_on_tangent_pairs(pair):
    # the Bezout truncation of the loop changes no answer
    F, G = pair
    assert local_multiplicity(F, G) == fulton_multiplicity(F, G), (F, G)


@st.composite
def _pair_sharing_a_curve_off_the_origin(draw):
    A, B = _poly(draw(_PIPELINE_TERMS)), _poly(draw(_PIPELINE_TERMS))
    assume(not (A.is_zero or B.is_zero))
    H = P(draw(st.sampled_from(["1", "x + 1", "y - x^2 + 1", "1 - x*y"])))
    return H * A, H * _rows_poly(_scaled(_plane_terms(B, 0), draw(st.sampled_from([1, 2, 3]))))


@settings(max_examples=200, deadline=None)
@given(_tangent_pair() | _pair_sharing_a_curve_off_the_origin())
def test_a_finite_multiplicity_is_at_most_the_bezout_bound(pair):
    # the loop may drop every term past the bound only because mu never exceeds it
    F, G = pair
    mu = fulton_multiplicity(F, G)
    N = _bezout_bound(_scaled(_plane_terms(F, 0), 1), _scaled(_plane_terms(G, 0), 1))
    assert mu == INFINITE_RANK or mu <= N, (F, G)


# -- shared components: the truncated loop decides them ------------------------

_SMALL_TERMS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                  st.sampled_from([1, -1, 2, -3])), min_size=1, max_size=3)


@st.composite
def _pair_sharing_a_curve(draw, through_origin: bool):
    """Integer rows of H*F1 against H*G1 rooted q times, sharing no axis.
    H through the origin has a pure power of each variable, so no axis
    divides it; H off the origin has a constant term as well."""
    c = st.sampled_from([1, -1, 2, -3])
    h = [(0, draw(st.integers(1, 2)), draw(c)), (draw(st.integers(1, 2)), 0, draw(c))]
    h += draw(_SMALL_TERMS) + ([] if through_origin else [(0, 0, draw(c))])
    H, F1, G1 = _poly(h), _poly(draw(_SMALL_TERMS)), _poly(draw(_SMALL_TERMS))
    assume(not (H.is_zero or F1.is_zero or G1.is_zero))
    assume((H.constant_term() == 0) == through_origin)
    G1 = _rows_poly(_scaled(_plane_terms(G1, 0), draw(st.sampled_from([1, 2, 3]))))
    F, G = _scaled(_plane_terms(H * F1, 0), 1), _scaled(_plane_terms(H * G1, 0), 1)
    assume(not shares_an_axis(F, G))
    return F, G


def _local_and_steps(F: dict, G: dict):
    """_local on fresh copies of integer rows, with the Bezout bound N and
    the count of _reduce calls, the steps of the loop."""
    with mock.patch.object(intersect_mod, "_reduce", wraps=intersect_mod._reduce) as reduce:
        mu = intersect_mod._local(copy.deepcopy(F), copy.deepcopy(G))
    return mu, _bezout_bound(F, G), reduce.call_count


@settings(max_examples=300, deadline=None)
@given(_pair_sharing_a_curve(through_origin=True))
def test_the_loop_answers_inf_on_a_shared_component_through_the_origin(pair):
    assert _local_and_steps(*pair)[0] == INFINITE_RANK, pair


@settings(max_examples=100, deadline=None)
@given(_pair_sharing_a_curve(through_origin=False))
def test_the_loop_matches_the_reference_on_a_shared_component_off_the_origin(pair):
    F, G = pair
    assert _local_and_steps(F, G)[0] == fulton_multiplicity(_rows_poly(F), _rows_poly(G)), pair


@settings(max_examples=150, deadline=None)
@given(_pair_sharing_a_curve(through_origin=True) | _pair_sharing_a_curve(through_origin=False)
       | _tangent_pair().map(lambda pair: tuple(_scaled(_plane_terms(f, 0), 1) for f in pair)))
def test_the_loop_takes_at_most_the_proven_step_bound(pair):
    # between two y-power splits a step lowers deg A(x, 0) + deg B(x, 0) <=
    # 2(N - acc), and a split raises acc
    if shares_an_axis(*pair):  # a tangent pair may; _local is not offered one
        return
    _, N, steps = _local_and_steps(*pair)
    assert steps <= (N + 1) * (2 * N + 1), pair


def test_y_dividing_both_curves_inside_the_loop_is_an_infinite_exit():
    # (x^2 - y)(2x^3 + y^3) against (x^2 - y)(3xy - x + 3y): the loop
    # reaches a pair that y divides; without an exit for it, the y-power
    # split read ord_x B(x, 0) of a curve with no row 0 and raised TypeError
    code, out, err = _mult(["--f", "2*x^5-2*x^3*y+x^2*y^3-y^4",
                            "--g", "x*y-3*y^2-3*x*y^2-x^3+3*x^2*y+3*x^3*y",
                            "--p", "2", "--grades", "1", "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"p": 2, "diagonal": [_INF, _INF],
                               "mixed": [[_INF], [_INF, _INF, _INF, _INF]]}


def test_an_edge_whose_leading_coefficient_vanishes_modulo_ell_certifies_nothing():
    A = _plane_terms(_poly([(0, 1, _ELL), (1, 0, -1)]), 0)  # _ELL*y - x
    B = _plane_terms(P("y + x"), 0)
    polygon = _newton_polygon(A)
    assert polygon == (0, 0, [(1, 1, 1, {0: -1, 1: _ELL})])
    assert _newton(_newton_stage(polygon, B), 1) is None
    assert intersect_mod._local(_scaled(A, 1), _scaled(B, 1)) == 1


def test_a_one_term_initial_form_is_decided_for_every_q_without_a_euclid(monkeypatch):
    # the edge polynomial of y - _ELL*x is y - _ELL, with a nonzero constant
    # term: it is coprime to the initial form 1 of x + y^2 and to the
    # initial form y**q of y + x^2 at every q, and neither needs a gcd in
    # F_ell[y], though it is y modulo _ELL
    def refuse(f, g):
        raise AssertionError("a Euclid ran")

    monkeypatch.setattr(intersect_mod, "_gcd_degree_mod_ell", refuse)
    A = _plane_terms(_poly([(0, 1, 1), (1, 0, -_ELL)]), 0)
    coprime = _newton_stage(_newton_polygon(A), _plane_terms(P("x + y^2"), 0))
    assert coprime == (1, [])
    assert [_newton(coprime, q) for q in (1, 4, 2**61 - 1)] == [1, 4, 2**61 - 1]
    sharing_y = _newton_stage(_newton_polygon(A), _plane_terms(P("y + x^2"), 0))
    assert sharing_y == (1, []) and _newton(sharing_y, 4) == 4
    assert intersect_mod._local(_scaled(A, 1), _scaled(_plane_terms(P("y + x^2"), 0), 4)) == 4


def test_the_newton_stage_answers_a_unit_at_once():
    # an edge polynomial whose leading coefficient, or a constant term,
    # vanishes modulo _ELL leaves no certificate, yet a unit on either side
    # gets 0 from the Newton stage's formula, with no form left to certify;
    # the loop's first exit would answer a unit too
    for f, g in [([(0, 1, _ELL), (1, 0, -1)], [(0, 0, 1), (1, 0, 1)]),  # _ELL*y - x, 1 + x
                 ([(0, 1, 1), (1, 0, -1)], [(0, 0, _ELL), (1, 0, 1)])]:  # y - x, _ELL + x
        F, G = _poly(f), _poly(g)
        Ft, Gt = _plane_terms(F, 0), _plane_terms(G, 0)
        assert _newton_stage(_newton_polygon(Ft), Gt) == (0, [])
        assert _newton_stage(_newton_polygon(Gt), Ft) == (0, [])
        assert _newton(_newton_stage(_newton_polygon(Ft), Gt), 1) == 0
        assert _newton(_newton_stage(_newton_polygon(Gt), Ft), 1) == 0
        assert local_multiplicity(F, G) == fulton_multiplicity(F, G) == 0 == \
            quotient_dim_oracle(F, G)


def test_a_unit_against_a_deeply_rooted_curve_stays_within_a_cpu_limit():
    # F's edge polynomial loses its leading term modulo _ELL = 2**61 - 1, and
    # both y-leading coefficients vanish modulo _ELL, so without the Newton
    # stage's answer for a unit, base entry (0, 40) ran the remainder
    # sequence of G rooted 2**40 times, about 2**39 pseudo-division steps;
    # the child caps its own CPU time at 10 s
    payload = _mult_in_child("RLIMIT_CPU", 10, [
        "--f", f"{_ELL}*y^2 - x", "--g", f"{_ELL} + x + {_ELL}*y", "--p", "2", "--grades", "40"])
    assert payload["diagonal"] == [0] * 41
    assert all(v == 0 for grade in payload["mixed"] for v in grade)


# (A, B, q, mu): the Newton stage certifies mu(A, B rooted q times) = mu
_NEWTON_CASES = [
    # base entries (3, 0) and (0, 3) of the cusp and the node at p = 3: the
    # Fulton loop gives 108 too, in about a minute for (3, 0)
    ("y^2 - x^2 - x^3", "y^2 - x^3", 27, 108),
    ("y^2 - x^3", "y^2 - x^2 - x^3", 27, 108),
    ("y - x", "x*y + y^2 + x^3", 1, 2),  # B_w(1, y) = y*(y + 1): y divides it
    ("y^3 - x^2*y + x^5", "x*y + y^3 + x^4", 1, 8),  # an edge polynomial y**3 - y
    ("x*y - x^3", "y^2 - x^3", 1, 5),  # A = x * (y - x^2)
    ("x^2*y^3 - x^3*y^2 + x^6*y", "y^2 - x^3 + x*y^3", 2, 24),  # A = x^2*y * A1
]


def _newton_failures(polygon_of) -> list:
    """The cases of _NEWTON_CASES that the Newton stage, reading polygons
    from polygon_of, leaves uncertified or answers differently."""
    failures = []
    for f, g, q, mu in _NEWTON_CASES:
        stage = _newton_stage(polygon_of(_plane_terms(P(f), 0)), _plane_terms(P(g), 0))
        if _newton(stage, q) != mu:
            failures.append((f, g, q))
    return failures


def test_newton_stage_certifies_the_pinned_cases():
    assert _newton_failures(_newton_polygon) == []
    for f, g, q, mu in _NEWTON_CASES[2:]:
        B = _rows_poly(_scaled(_plane_terms(P(g), 0), q))
        assert local_multiplicity(P(f), B) == fulton_multiplicity(P(f), B) == mu == \
            quotient_dim_oracle(P(f), B)


@pytest.mark.parametrize("mutate", [
    lambda a, b, edges: (a, b, [(n, m, length + 1, P) for n, m, length, P in edges]),
    lambda a, b, edges: (a, b, [(n, m, length, {e: -v if e % 2 else v for e, v in P.items()})
                                for n, m, length, P in edges]),  # P(-y): roots negated
    lambda a, b, edges: (0, 0, edges),  # the monomial factor x**a * y**b dropped
], ids=["wrong-lattice-length", "negated-edge-roots", "dropped-monomial-factor"])
def test_each_mutation_of_the_polygon_is_caught(mutate):
    assert _newton_failures(lambda terms: mutate(*_newton_polygon(terms)))
