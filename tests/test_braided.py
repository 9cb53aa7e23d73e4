import io
import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cli_in_child, count_compositions, kunneth_lazy

from perfproj import (
    INFINITE_RANK,
    BraidedDim,
    DomainError,
    HorizonError,
    IndeterminateForm,
    LineBundle,
    bundle_cohomology,
    euler,
    h0,
    hn_top,
    kunneth,
    line_bundle,
    middle_vanishing,
    tuple_arith,
)
from perfproj import braided as braided_mod
from perfproj.cli import run
from perfproj.enumeration import count_h0_monomials, count_hn_monomials
from perfproj.exponents import normalize


def test_h0_table_p3_degree2():
    dim = h0(line_bundle(1, 2, 3), 3)
    assert dim.grades_list() == [3, 7, 19]
    assert dim.offset == 0


def test_h0_fractional_offset():
    dim = h0(LineBundle(1, normalize(2, 1, 3)), 3)
    assert dim.offset == 1
    assert dim.grades_list() == [3, 7, 19]
    assert dim.at(0) == 0 and dim.at(1) == 3


def test_h0_degree_zero_and_negative():
    assert h0(line_bundle(2, 0, 3), 4).grades_list() == [1, 1, 1, 1]
    assert h0(line_bundle(1, -3, 3), 3).grades_list() == [0, 0, 0]


def test_hn_examples():
    assert hn_top(line_bundle(1, -5, 3), 3).grades_list() == [4, 14, 44]
    assert hn_top(line_bundle(1, -1, 3), 4).grades_list() == [0, 2, 8, 26]
    assert hn_top(line_bundle(2, -3, 2), 1).at(0) == 1
    assert hn_top(line_bundle(1, 2, 3), 3).grades_list() == [0, 0, 0]


def test_fractional_shift_matches_integer_values():
    for p in (2, 3):
        for m in range(1, 5):
            if m % p == 0:
                continue  # m/p^k would not be in lowest terms
            for k in (1, 2):
                frac = h0(LineBundle(1, normalize(m, k, p)), 4)
                plain = h0(line_bundle(1, m, p), 4)
                assert frac.grades_list() == plain.grades_list()
                assert frac.offset == k
                neg_frac = hn_top(LineBundle(1, normalize(-m, k, p)), 4)
                neg_plain = hn_top(line_bundle(1, -m, p), 4)
                assert neg_frac.grades_list() == neg_plain.grades_list()
                assert neg_frac.offset == k


def test_grade_zero_classical():
    for n in (1, 2, 3):
        for d in range(0, 4):
            assert h0(line_bundle(n, d, 2), 1).at(0) == comb(d + n, n)
        for m in range(1, 4):
            assert hn_top(line_bundle(n, -m, 2), 1).at(0) == comb(m - 1, n)


def test_h0_matches_bruteforce():
    for n in (1, 2):
        for d in range(0, 4):
            dim = h0(line_bundle(n, d, 3), 3)
            for j in range(3):
                assert dim.at(j) == count_compositions(3**j * d, n + 1)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), n=st.integers(0, 4), num=st.integers(-6, 6),
       k=st.integers(0, 2), grades=st.integers(0, 3), reduced=st.booleans())
def test_tuples_read_the_public_counts(p, n, num, k, grades, reduced):
    # each grade of a tuple is the count its degree has at that label, and 0
    # below the degree's denominator exponent
    bundle = LineBundle(n, normalize(num, k, p))
    d = bundle.degree

    def want_h0(label):
        if d.num < 0 or label < d.pexp:
            return 0
        return count_h0_monomials(n, d, label, p, reduced)

    def want_hn(label):
        if d.num >= 0 or label < d.pexp:
            return 0
        return count_hn_monomials(n, -d, label, p, reduced)

    for dim, want in ((h0(bundle, grades, reduced), want_h0),
                      (hn_top(bundle, grades, reduced), want_hn),
                      (euler(bundle, grades, reduced),
                       lambda label: want_h0(label) + (-1)**n * want_hn(label))):
        labels = range(dim.offset, dim.offset + grades + 3)
        assert [dim.at(label) for label in labels] == [want(label) for label in labels]


def test_middle_vanishing():
    assert middle_vanishing(2, 1, 3, 4).grades_list() == [0, 0, 0, 0]
    assert middle_vanishing(3, 2, 2, 3).grades_list() == [0, 0, 0]
    assert middle_vanishing(5, 1, 2, 2).grades_list() == [0, 0]
    with pytest.raises(DomainError):
        middle_vanishing(2, 2, 3)
    with pytest.raises(DomainError):
        middle_vanishing(1, 1, 3)


def test_tuple_arith_bezout_rows():
    p = 3
    a = hn_top(line_bundle(1, -5, p), 3)
    b = hn_top(line_bundle(1, -2, p), 3)
    c = hn_top(line_bundle(1, -3, p), 3)
    diff = tuple_arith(tuple_arith(a, b, "sub"), c, "sub")
    assert diff.grades_list() == [1, 1, 1]


def test_tuple_arith_identities():
    x = BraidedDim(3, 0, [1, 1])
    zero = BraidedDim.zeros(3, 2)
    assert tuple_arith(x, zero, "add").grades_list() == [1, 1]
    assert tuple_arith(x, x, "add").grades_list() == [2, 2]


def test_tuple_arith_offset_alignment():
    frac = BraidedDim(3, 1, [4, 14])      # starts at grade 1
    plain = BraidedDim(3, 0, [1, 1, 1])
    total = frac + plain
    assert total.offset == 0
    assert total.grades_list() == [1, 5, 15]


def test_tuple_arith_infinity():
    inf_tuple = BraidedDim(3, 0, [INFINITE_RANK, 1])
    fin = BraidedDim(3, 0, [1, 1])
    assert (inf_tuple + fin).at(0) == INFINITE_RANK
    assert (inf_tuple - fin).grades_list() == [INFINITE_RANK, 0]
    assert (inf_tuple - BraidedDim(3, 0, [7, 1])).grades_list() == [INFINITE_RANK, 0]
    assert (fin + inf_tuple).grades_list() == [INFINITE_RANK, 2]
    assert BraidedDim(3, 0, [2, INFINITE_RANK, 3]).total_rank() == INFINITE_RANK
    assert (BraidedDim(3, 0, [0, -2]) * BraidedDim(3, 0, [INFINITE_RANK] * 2)).grades_list() == [
        0, INFINITE_RANK]
    # no float holds an int from 2**1024 on: Python's inf + n and inf - n raise
    # OverflowError there, and every sum of tuple values still reads inf
    big = BraidedDim(3, 0, [2**1024, 1])
    assert (inf_tuple + big).grades_list() == [INFINITE_RANK, 2]
    assert (big + inf_tuple).grades_list() == [INFINITE_RANK, 2]
    assert (inf_tuple - big).grades_list() == [INFINITE_RANK, 0]
    assert big.total_rank() == 2**1024 + 1
    assert BraidedDim(3, 0, [2**1024, INFINITE_RANK]).total_rank() == INFINITE_RANK
    one = BraidedDim(3, 0, [1, 1])
    # output 1 is inf_tuple * one + big * one
    assert kunneth([inf_tuple, big], [one, one], 2)[1].grades_list() == [INFINITE_RANK, 2]
    assert braided_mod._sum_of_products([(inf_tuple, one), (big, one)], 0) == INFINITE_RANK
    with pytest.raises(IndeterminateForm):
        tuple_arith(inf_tuple, inf_tuple, "sub")
    with pytest.raises(IndeterminateForm):
        tuple_arith(fin, inf_tuple, "sub")


def test_mixed_primes_rejected():
    with pytest.raises(DomainError):
        tuple_arith(BraidedDim(2, 0, [1]), BraidedDim(3, 0, [1]), "add")


@pytest.mark.parametrize("call, message", [
    (lambda: BraidedDim(3, offset=-1), "offset must be non-negative"),
    (lambda: BraidedDim(3, 0, [1]) + 1, "can only combine with another BraidedDim"),
    (lambda: tuple_arith(BraidedDim(3, 0, [1]), BraidedDim(3, 0, [2]), "mul"),
     "unknown tuple operation 'mul'"),
    (lambda: kunneth([], [BraidedDim(3, 0, [1])], 1), "empty cohomology list"),
    (lambda: kunneth([BraidedDim(3, 0, [1])], [BraidedDim(2, 0, [1])], 1),
     "mixed primes in kunneth inputs"),
], ids=["negative-offset", "add-an-int", "tuple-arith-mul", "kunneth-empty",
        "kunneth-mixed-primes"])
def test_public_domain_errors(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_horizon_error_without_generator():
    stub = BraidedDim(3, 0, [1, 2])
    with pytest.raises(HorizonError):
        stub.at(5)


def test_equality_is_horizon_bounded():
    a = h0(line_bundle(1, 2, 3), 3)
    b = BraidedDim(3, 0, [3, 7, 19, 55])
    assert a.equal_up_to(b, horizon=4)
    c = BraidedDim(3, 0, [3, 7, 19, 56], generator=lambda label: 56)
    assert a.equal_up_to(c, horizon=3)
    assert not a.equal_up_to(c, horizon=4)
    # tuples over different primes are never equal, whatever their values
    assert not BraidedDim(2, 0, [1]).equal_up_to(BraidedDim(3, 0, [1]))


def test_euler_examples():
    assert euler(line_bundle(1, -5, 3), 3).grades_list() == [-4, -14, -44]
    assert euler(line_bundle(1, 0, 3), 3).grades_list() == [1, 1, 1]
    chi = euler(line_bundle(2, 1, 2), 2)
    assert chi.at(0) == 3 and chi.at(1) == 6


def test_euler_additivity_constant_across_grades():
    # chi(-s-t) - chi(-s) - chi(-t) is one constant, equal to its grade-0 value
    for p in (2, 3):
        for s in range(1, 5):
            for t in range(1, 5):
                diff = (euler(line_bundle(1, -(s + t), p), 4)
                        - euler(line_bundle(1, -s, p), 4)
                        - euler(line_bundle(1, -t, p), 4))
                values = diff.grades_list()
                assert values == [values[0]] * 4
                assert values[0] == -1


def test_total_rank():
    assert h0(line_bundle(1, 2, 3), 3).total_rank() == INFINITE_RANK
    assert BraidedDim.zeros(3, 4).total_rank() == 0
    assert BraidedDim(3, 0, [1, 2]).total_rank() == 3


# total_rank probes the first _PROBE grades of a generator; ROADMAP item 12's
# exact polynomial form must flip both of these
@pytest.mark.xfail(strict=True, reason="item 12: a nonzero grade past the probe")
def test_total_rank_sees_a_nonzero_grade_past_the_probe():
    dim = hn_top(line_bundle(100000, -1, 2), 4)
    assert dim.at(17) > 0
    assert dim.total_rank() == INFINITE_RANK


@pytest.mark.xfail(strict=True, reason="item 12: one nonzero grade is taken as infinitely many")
def test_total_rank_of_one_nonzero_grade_is_finite():
    dim = h0(line_bundle(0, 1, 2), 4, reduced=True)
    assert dim.grades_list() == [1, 0, 0, 0]
    assert dim.total_rank() == 1


def _h0_grades(out, n):
    assert out == {"p": 2, "offset": 0, "grades": [comb(2**i + n, n) for i in range(4)],
                   "generator": f"h0(n={n},d=1)"}


def _kunneth_grades(out, n):
    # h0 of O(1) on P^n times h0 of O(1) on P^1 has n + 2 cohomology indices;
    # index 0 is the product of the two h0 tuples
    assert len(out["cohomology"]) == n + 2
    assert out["cohomology"][0]["grades"] == [
        comb(2**i + n, n) * comb(2**i + 1, 1) for i in range(2)]


@pytest.mark.parametrize("argv, check", [
    # C(Q + n, n), Q = 2**i, read in closed form at each grade: the same
    # count expanded as a polynomial in Q has n + 1 coefficients, O(n**2)
    # big-int products at n = 100000
    (["h0", "--n", "100000", "--deg", "1", "--p", "2", "--grades", "4", "--json"], _h0_grades),
    # Kunneth reads only the index pairs that exist: scanning every factor
    # index for each output index took minutes at this n
    (["kunneth", "--n", "100000", "--m", "1", "--a", "1", "--b", "1", "--p", "2",
      "--grades", "2", "--json"], _kunneth_grades),
], ids=["h0", "kunneth"])
def test_h0_of_a_large_dimension_stays_within_a_cpu_limit(argv, check):
    # the child caps its own CPU time at 10 s
    done = cli_in_child("RLIMIT_CPU", 10, argv)
    assert (done.returncode, done.stderr) == (0, "")
    check(json.loads(done.stdout), 100_000)


def test_reads_never_change_a_tuple():
    e = h0(line_bundle(1, 2, 3), 3)
    before = e.to_json_dict()
    assert e.total_rank() == INFINITE_RANK
    assert e.equal_up_to(h0(line_bundle(1, 2, 3), 2), horizon=10)
    assert e.at(5) == 2 * 3**5 + 1
    assert e.to_json_dict() == before
    assert (e - h0(line_bundle(1, 1, 3), 3)).grades_list() == [1, 3, 9]
    with pytest.raises(HorizonError):
        BraidedDim(3, 0, [1, 2]).at(2)


def test_json_shape():
    payload = h0(line_bundle(1, 2, 3), 3).to_json_dict()
    assert payload == {"p": 3, "offset": 0, "grades": [3, 7, 19],
                       "generator": "h0(n=1,d=2)"}
    json.dumps(payload)
    assert repr(BraidedDim(3, 1, [4, 14])) == "BraidedDim(p=3, offset=1, values=[4, 14])"


def test_ample_predicate():
    assert line_bundle(1, 2, 3).is_ample
    assert line_bundle(1, normalize(1, 2, 3), 3).is_very_ample
    assert not line_bundle(1, 0, 3).is_ample
    assert not line_bundle(1, -2, 3).is_ample


def test_kunneth_h0_squares():
    hA = bundle_cohomology(line_bundle(1, 1, 3), 3)
    out = kunneth(hA, hA, 3)
    assert out[0].window(0, 3) == [4, 16, 100]
    assert out[1].window(0, 3) == [0, 0, 0]
    assert out[2].window(0, 3) == [0, 0, 0]


def test_kunneth_trivial_bundle():
    hA = bundle_cohomology(line_bundle(1, 0, 3), 3)
    out = kunneth(hA, hA, 3)
    assert out[0].window(0, 3) == [1, 1, 1]
    assert all(dim.window(0, 3) == [0, 0, 0] for dim in out[1:])


def test_kunneth_h2_product_of_h1():
    hA = bundle_cohomology(line_bundle(1, -2, 3), 3)
    out = kunneth(hA, hA, 3)
    assert out[2].window(0, 2) == [1, 25]


def test_kunneth_symmetry():
    for a in range(-2, 3):
        for b in range(-2, 3):
            hA = bundle_cohomology(line_bundle(1, a, 2), 3)
            hB = bundle_cohomology(line_bundle(1, b, 2), 3)
            left = kunneth(hA, hB, 3)
            right = kunneth(hB, hA, 3)
            assert [d.window(0, 3) for d in left] == [d.window(0, 3) for d in right]


def _cohomology(n, num, k, p, grades):
    return bundle_cohomology(LineBundle(n, normalize(num, k, p)), grades)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), n=st.integers(1, 3), m=st.integers(1, 3),
       a=st.integers(-4, 4), b=st.integers(-4, 4), ka=st.integers(0, 3),
       kb=st.integers(0, 3), grades=st.integers(1, 4))
def test_kunneth_matches_the_lazy_sum(p, n, m, a, b, ka, kb, grades):
    args = (_cohomology(n, a, ka, p, grades), _cohomology(m, b, kb, p, grades), grades)
    got, want = kunneth(*args), kunneth_lazy(*args)
    assert [d.to_json_dict() for d in got] == [d.to_json_dict() for d in want]
    # past the reported grades too
    assert [d.window(0, grades + 2) for d in got] == [d.window(0, grades + 2) for d in want]


@pytest.mark.parametrize("a, b", [(2, 2), (-2, 2), (-4, -1)])
def test_kunneth_reads_each_factor_grade_once(monkeypatch, a, b):
    import perfproj.braided as braided

    calls = []
    real = braided._graded_count
    monkeypatch.setattr(braided, "_graded_count",
                        lambda *args: calls.append(args) or real(*args))
    hA, hB = _cohomology(2, a, 1, 3, 4), _cohomology(1, b, 0, 3, 4)
    for dim in kunneth(hA, hB, 4):
        dim.grades_list()
    # one nonzero generator per factor (h0 or hn), read once at each label
    # from its offset (1 for a/3, 0 for b) to 3
    assert sorted(calls) == sorted({args for args in calls})
    assert len(calls) == (4 - 1) + 4
    # a tuple given in both factors is one object, read once
    calls.clear()
    for dim in kunneth(hA, hA, 4):
        dim.grades_list()
    assert len(calls) == 4 - 1


def test_kunneth_horizon_mismatch():
    hA = bundle_cohomology(line_bundle(1, 1, 3), 3)
    stub = [BraidedDim(3, 0, [1]), BraidedDim(3, 0, [0])]
    with pytest.raises(HorizonError):
        kunneth(hA, stub, 3)


def test_kunneth_on_data_factors():
    hA = bundle_cohomology(line_bundle(1, 1, 3), 3)
    stub = [BraidedDim(3, 0, [1, 2, 3]), BraidedDim(3, 0, [0, 5, 0])]
    got = [d.to_json_dict() for d in kunneth(hA, stub, 3)]
    assert got == [d.to_json_dict() for d in kunneth_lazy(hA, stub, 3)]
    assert got == [{"p": 3, "offset": 0, "grades": [2, 8, 30]},
                   {"p": 3, "offset": 0, "grades": [0, 20, 0]},
                   {"p": 3, "offset": 0, "grades": [0, 0, 0]}]
    # an output with a data factor is finite: it reads nothing past grades
    with pytest.raises(HorizonError):
        kunneth(hA, stub, 3)[0].at(3)
    # a factor missing a label below grades still raises, whichever side it is on
    for short in ([BraidedDim(3, 0, [1, 1])], hA[:1] + [BraidedDim(3, 0, [1])]):
        with pytest.raises(HorizonError, match=r"^grade horizon mismatch: grade \d+ beyond"):
            kunneth(short, hA, 3)
        with pytest.raises(HorizonError, match=r"^grade horizon mismatch: grade \d+ beyond"):
            kunneth(hA, short, 3)


def test_kunneth_reads_no_data_past_grades():
    five, four = [BraidedDim(3, 0, [1] * 5)], [BraidedDim(3, 0, [1] * 4)]
    # the lazy sum read every label its factors report, and grade 4 was missing
    with pytest.raises(HorizonError, match="grade 4"):
        kunneth_lazy(five, four, 3)
    assert [d.grades_list() for d in kunneth(five, four, 3)] == [[1, 1, 1]]


def test_a_kunneth_request_builds_one_tuple_per_factor_and_output(monkeypatch):
    built = []
    real_init = BraidedDim.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(BraidedDim, "__init__", counting_init)
    # n != m: at n = m = 2 the count per factor list, 3, is also n + 1
    n, m = 1, 4
    out, err = io.StringIO(), io.StringIO()
    assert run(["kunneth", "--n", str(n), "--m", str(m), "--a", "1", "--b", "1", "--p", "3",
                "--grades", "6", "--json"], out, err) == 0
    assert err.getvalue() == ""
    assert len(json.loads(out.getvalue())["cohomology"]) == n + m + 1
    # 3 tuples per factor list (h0, hn and one zero tuple, built even when
    # no middle index lists it), n + m + 1 outputs, and no tuple in between
    assert len(built) == 3 + 3 + (n + m + 1)


def test_bundle_cohomology_shape():
    out = bundle_cohomology(line_bundle(2, -4, 2), 2)
    assert len(out) == 3
    assert out[0].grades_list() == [0, 0]
    assert out[1].grades_list() == [0, 0]
    assert out[2].at(0) == comb(3, 2)


def test_bundle_cohomology_lists_one_zero_tuple():
    middle = bundle_cohomology(line_bundle(4, 1, 2), 3)[1:4]
    assert len({id(t) for t in middle}) == 1
    assert middle[0].grades_list() == [0, 0, 0]


def test_concurrent_lazy_extension():
    import threading

    dim = h0(line_bundle(1, 2, 3), 1)
    results = []

    def reader():
        results.append([dim.at(j) for j in range(40)])

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected = [3**j * 2 + 1 for j in range(40)]
    assert all(r == expected for r in results)


def test_generators_answer_past_length():
    for n in (1, 2, 3):
        for deg in (normalize(-7, 1, 3), normalize(5, 2, 3), normalize(-2, 0, 3)):
            b = LineBundle(n, deg)
            e, a, c = euler(b, 3), h0(b, 3), hn_top(b, 3)
            sign = 1 if n % 2 == 0 else -1
            for j in range(11):
                assert e.at(j) == a.at(j) + sign * c.at(j)


def test_mult_diagonal_empty_below_first_grade():
    out = io.StringIO()
    argv = ["mult", "--f", "y-x^(1/4)", "--g", "y", "--p", "2", "--grades", "1", "--json"]
    assert run(argv, out, io.StringIO()) == 0
    payload = json.loads(out.getvalue())
    assert payload["diagonal"] == []
    assert payload["mixed"] == [[0], [0, 0, 0, 0]]
