import random
import re
from functools import lru_cache
from math import prod

import pytest
from hypothesis import given, strategies as st

from coxcat.qseries import (
    FAMILIES,
    GroupType,
    InexactDivisionError,
    QPoly,
    cat_number,
    coxeter_number,
    degrees,
    gen_poly,
    is_palindromic,
    q_binomial,
    q_factorial,
    q_integer,
    qcat_a,
    qcat_product,
)
from coxcat import qseries, signedperm
from coxcat.qseries import _pairing, _qcat, _signed
from oracles import coeff, degree, divexact, is_palindromic_loop, mul_schoolbook, series_qcat, substitute_power


def oracle_q_binomial(k, l):
    # independent route: quotient of q-factorials by long division
    return divexact(cached_q_factorial(k), cached_q_factorial(l) * cached_q_factorial(k - l))


cached_q_factorial = lru_cache(maxsize=None)(q_factorial)


class TestPackedProduct:
    """``QPoly.__mul__`` packs the sign parts of each factor; the schoolbook loop is its oracle."""

    def test_random_signed_polynomials(self):
        rng = random.Random(2007)
        for _ in range(300):
            a, b = ([rng.randint(-10**rng.randrange(1, 30), 10**rng.randrange(1, 30)) * rng.randrange(2) for _ in range(rng.randrange(8))] for _ in range(2))
            assert QPoly(a) * QPoly(b) == mul_schoolbook(QPoly(a), QPoly(b))

    @given(st.lists(st.integers(-1000, 1000), max_size=12), st.lists(st.integers(-1000, 1000), max_size=12))
    def test_hypothesis(self, a, b):
        assert QPoly(a) * QPoly(b) == mul_schoolbook(QPoly(a), QPoly(b))

    def test_edge_cases(self):
        one, zero = QPoly.one(), QPoly()
        assert one * zero == zero * one == zero
        assert QPoly([1, -1]) * QPoly([1, 1]) == QPoly([1, 0, -1])  # cancellation to a lower degree field
        assert QPoly([0, 0, 5]) * QPoly([-3]) == QPoly([0, 0, -15])
        assert q_factorial(24) == mul_schoolbook(q_factorial(23), q_integer(24))
        big = QPoly([-(2**200), 2**199, 1])
        assert big * big == mul_schoolbook(big, big)


class TestQPoly:
    def test_normalization(self):
        assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPoly([0, 0]).coeffs == ()
        assert not QPoly()
        assert degree(QPoly([3])) == 0
        assert degree(QPoly([1, 1])) == 1
        assert degree(QPoly()) == -1
        assert coeff(QPoly([1, 2]), 1) == 2 and coeff(QPoly([1, 2]), 2) == coeff(QPoly([1, 2]), -1) == 0

    def test_str(self):
        assert str(QPoly()) == "0"
        assert str(QPoly([1, 0, 2, 1])) == "1 + 2q^2 + q^3"
        assert str(QPoly([0, 1])) == "q"
        assert str(QPoly([-1, 0, 1])) == "-1 + q^2"
        assert str(QPoly([1, -2])) == "1 - 2q"

    def test_int_operands_hash_and_repr(self):
        p = QPoly([1, 0, 3])
        assert QPoly([4]) == 4 and p != 1 and QPoly() == 0
        assert p != "1 + 3q^2"
        assert p * 2 == 2 * p == QPoly([2, 0, 6])
        assert hash(p) == hash(QPoly([1, 0, 3, 0]))
        assert repr(p) == "QPoly([1, 0, 3])"

    def test_json_round_trip(self):
        p = QPoly([1, 0, 3])
        assert QPoly.from_json(p.to_json()) == p

    def test_from_json_accepts_int_lists(self):
        assert QPoly.from_json({"coeffs": []}) == QPoly()
        assert QPoly.from_json({"coeffs": [-1, 0, 10**30, 0]}) == QPoly([-1, 0, 10**30])

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"coeffs": [1.5, True]}, "coefficient 1.5 is not an int"),
            ({"coeffs": [1, True]}, "coefficient True is not an int"),
            ({"coeffs": [2.0]}, "coefficient 2.0 is not an int"),
            ({"coeffs": [1, "2"]}, "coefficient '2' is not an int"),
            ({"coeffs": [None]}, "coefficient None is not an int"),
            ({"coeffs": "ab"}, "got {'coeffs': 'ab'}"),
            ({"coeffs": (1, 2)}, "got {'coeffs': (1, 2)}"),
            ({}, "got {}"),
            ([1, 2], "got [1, 2]"),
        ],
    )
    def test_from_json_rejects_what_is_not_a_list_of_ints(self, data, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            QPoly.from_json(data)

    def test_divexact_failure(self):
        with pytest.raises(InexactDivisionError):
            divexact(QPoly([1, 1, 1]), QPoly([1, 1]))

    def test_substitute_power(self):
        assert substitute_power(QPoly([1, 2, 3]), 2) == QPoly([1, 0, 2, 0, 3])

    @given(
        st.lists(st.integers(-9, 9), max_size=6),
        st.lists(st.integers(-9, 9), max_size=6),
        st.lists(st.integers(-9, 9), max_size=6),
    )
    def test_ring_axioms(self, a, b, c):
        pa, pb, pc = QPoly(a), QPoly(b), QPoly(c)
        assert pa * (pb + pc) == pa * pb + pa * pc
        assert pa * pb == pb * pa
        assert (pa + pb)(3) == pa(3) + pb(3)
        assert (pa * pb)(3) == pa(3) * pb(3)

    @given(st.lists(st.integers(-9, 9), max_size=6), st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_divexact_inverts_mul(self, a, b):
        pa, pb = QPoly(a), QPoly(b)
        if not pb:
            return
        assert divexact(pa * pb, pb) == pa


class TestQInteger:
    def test_examples(self):
        assert q_integer(0) == QPoly()
        assert q_integer(1) == QPoly([1])
        assert q_integer(3) == QPoly([1, 1, 1])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_integer(-1)


class TestQBinomial:
    def test_examples(self):
        assert q_binomial(5, 0) == QPoly([1])
        assert q_binomial(2, 1) == QPoly([1, 1])
        # frozen from the factorial-quotient oracle
        assert q_binomial(4, 2) == QPoly([1, 1, 2, 1, 1])
        assert q_binomial(4, 2) == oracle_q_binomial(4, 2)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="need l <= k"):
            q_binomial(2, 3)
        with pytest.raises(ValueError, match=r"^k must be >= 0 and an int, got -1$"):
            q_binomial(-1, 0)

    @pytest.mark.parametrize("k", range(25))
    def test_symmetry_and_oracle(self, k):
        for l in range(k + 1):
            b = q_binomial(k, l)
            assert b == q_binomial(k, k - l)
            assert b == oracle_q_binomial(k, l)
            assert all(c >= 0 for c in b.coeffs)
            assert b(1) == _binom(k, l)

    @pytest.mark.parametrize("k", range(25, 61))
    def test_value_at_one_and_palindromy(self, k):
        # past the factorial-quotient oracle's range: qbinom(k, l) has degree l(k - l) and reads the same backwards
        for l in range(k + 1):
            b = q_binomial(k, l)
            assert b(1) == _binom(k, l)
            assert is_palindromic(b, l * (k - l)) and b.coeffs[-1] == 1


def _binom(k, l):
    out = 1
    for i in range(l):
        out = out * (k - i) // (i + 1)
    return out


class TestQCat:
    def test_qcat_a_examples(self):
        assert qcat_a(1) == QPoly([1])
        # (1 + q + 2q^2 + q^3 + q^4) / (1 + q + q^2), frozen by hand division
        assert qcat_a(2) == QPoly([1, 0, 1])
        # maj values over the five paths of semilength 3: {0, 2, 3, 4, 6}
        assert qcat_a(3) == QPoly([1, 0, 1, 1, 1, 0, 1])
        with pytest.raises(ValueError, match="n must be >= 0"):
            qcat_a(-1)

    def test_qcat_product_examples(self):
        assert qcat_product(GroupType("A", 2)) == qcat_a(3)
        assert qcat_product(GroupType("A", 1)) == QPoly([1, 0, 1])
        assert qcat_product(GroupType("B", 2)) == substitute_power(q_binomial(4, 2), 2)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_qcat_a_matches_product_and_count(self, n):
        p = qcat_a(n)
        if n >= 2:
            assert p == qcat_product(GroupType("A", n - 1))
            assert p(1) == cat_number(GroupType("A", n - 1))
        else:
            assert p(1) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_qcat_a_palindromic(self, n):
        assert is_palindromic(qcat_a(n), n * (n - 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_qcat_b_palindromic(self, n):
        assert is_palindromic(qcat_product(GroupType("B", n)), 2 * n * n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_qcat_b_is_doubled_binomial(self, n):
        assert qcat_product(GroupType("B", n)) == substitute_power(q_binomial(2 * n, n), 2)


def dense_qcat(ds, h):
    """prod [d + h]_q over prod [d]_q as dense products, by long division."""
    num, den = QPoly.one(), QPoly.one()
    for d in ds:
        num = num * q_integer(d + h)
        den = den * q_integer(d)
    return divexact(num, den)


def verdict(qcat, ds, h):
    """The quotient's coefficients, or None if it is not a polynomial."""
    try:
        return qcat(ds, h).coeffs
    except InexactDivisionError:
        return None


def exact_table(rng):
    """Blocks c, 2c, ..., kc with c dividing h: each is a q^c-binomial, so the table is exact."""
    h = rng.randint(0, 40)
    ds = []
    while rng.random() < 0.8:
        c = rng.choice([c for c in range(1, 41) if h % c == 0])
        k = rng.randint(1, 3)
        if len(ds) + k > 8:
            break
        ds += [c * i for i in range(1, k + 1)]
    rng.shuffle(ds)
    return ds, h


EVERY_FAMILY = (
    [GroupType("A", r) for r in (1, 4, 9)]
    + [GroupType("B", r) for r in (1, 4, 8)]
    + [GroupType("D", r) for r in (2, 4, 7)]
    + [GroupType("I2", k) for k in (2, 5, 12)]
    + [GroupType(f, r) for f, r in [("H3", 3), ("H4", 4), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)]]
)


def fields_id(t):
    """A row's test id from its two fields, family then rank (``E88``, ``I212``), so the
    ids stay put when ``GroupType``'s display name changes."""
    return f"{t.family}{t.rank}"


class TestQIntegerKernels:
    @pytest.mark.parametrize("n", range(41))
    def test_qcat_a_matches_pascal_quotient(self, n):
        assert qcat_a(n) == divexact(q_binomial(2 * n, n), q_integer(n + 1))

    def test_every_family_is_sampled(self):
        assert {t.family for t in EVERY_FAMILY} == set(FAMILIES)

    @pytest.mark.parametrize("t", EVERY_FAMILY, ids=fields_id)
    def test_qcat_product_matches_dense_quotient(self, t):
        assert qcat_product(t) == dense_qcat(degrees(t), coxeter_number(t))

    @given(st.lists(st.integers(1, 7), max_size=4), st.integers(0, 6))
    def test_qcat_agrees_with_the_dense_quotient(self, ds, h):
        try:
            want = dense_qcat(ds, h)
        except InexactDivisionError:
            with pytest.raises(InexactDivisionError):
                _qcat(ds, h)
        else:
            assert _qcat(ds, h) == want

    def test_qcat_rejects_a_non_polynomial_quotient(self):
        with pytest.raises(InexactDivisionError):
            _qcat((3,), 2)  # [5]_q / [3]_q
        with pytest.raises(InexactDivisionError):
            _qcat((2, 2), 1)  # ([3]_q / [2]_q)^2
        # [4]_q [3]_q / [3]_q [2]_q: exact as a whole, though [4]_q / [3]_q is not
        assert _qcat((3, 2), 1) == QPoly([1, 0, 1])
        with pytest.raises(ZeroDivisionError):
            _qcat((2, 0), 1)

    @pytest.mark.parametrize("n", range(61))
    def test_qcat_a_matches_the_series_oracle(self, n):
        assert qcat_a(n) == series_qcat(range(2, n + 1), n)

    @pytest.mark.parametrize("t", EVERY_FAMILY, ids=fields_id)
    def test_qcat_product_matches_the_series_oracle(self, t):
        assert qcat_product(t) == series_qcat(degrees(t), coxeter_number(t))

    @given(st.lists(st.integers(1, 40), max_size=8), st.integers(0, 40))
    def test_qcat_agrees_with_the_series_oracle(self, ds, h):
        assert verdict(_qcat, ds, h) == verdict(series_qcat, ds, h)

    def test_qcat_agrees_with_the_series_oracle_on_seeded_tables(self):
        rng = random.Random(2008)
        exact = 0
        for i in range(5000):
            if i % 2:
                ds, h = exact_table(rng)
            else:
                ds, h = [rng.randint(1, 40) for _ in range(rng.randint(0, 8))], rng.randint(0, 40)
            want = verdict(series_qcat, ds, h)
            assert verdict(_qcat, ds, h) == want, (ds, h)
            exact += want is not None
        assert 2500 <= exact < 5000  # both verdicts are exercised

    def test_qcat_pairs_each_degree_with_a_numerator_it_divides(self, monkeypatch):
        divided = []
        over = qseries._over

        def spy_over(cs, d):
            divided.append(d)
            return over(cs, d)

        monkeypatch.setattr(qseries, "_over", spy_over)

        def run(ds, h):
            divided.clear()
            got = verdict(_qcat, ds, h)
            assert got == verdict(series_qcat, ds, h)
            return got, _pairing(ds, h), list(divided)

        # h = 0: every pair has m = d, and the quotient is 1
        assert run((5, 3, 3, 1), 0) == ((1,), ([(5, 1), (3, 1), (3, 1), (1, 1)], [], []), [])
        # m = 2d: [6]_q / [3]_q = 1 + q^3
        assert run((3,), 3) == ((1, 0, 0, 1), ([(3, 2)], [], []), [])
        # m = 3d: [6]_q / [2]_q = [3]_{q^2}, with no division
        assert run((2,), 4) == ((1, 0, 1, 0, 1), ([(2, 3)], [], []), [])
        # 2 divides no numerator exponent 3: both stay unpaired, and the first division fails
        assert run((2, 2), 1) == (None, ([], [3, 3], [2, 2]), [2])
        # exact as a whole, though [4]_q / [3]_q is not: 3 pairs with 3 and 2 with 4
        assert run((3, 2), 1) == ((1, 0, 1), ([(3, 1), (2, 2)], [], []), [])
        # qcat_a(4): 4 and 3 pair with 8 and 6, and only the unpaired degree 2 divides, exactly, into 1 - q^7
        assert run((2, 3, 4), 4) == (qcat_a(4).coeffs, ([(4, 2), (3, 2)], [7], [2]), [2])

    # ds = (2,) * c + (1,) * a with h = 1: the 2s take the numerators 2, the 1s the 2s left
    # and then the 3s, so prod k * 2^(unpaired numerators) is 2^|a - c| * 3^min(a, c), and the
    # table is exact iff a >= c.  Each bound sits just below or at 2^7, 2^15, 2^31 or 2^63, or past 64 bits.
    @pytest.mark.parametrize(
        "a,c,bound,width",
        [
            (5, 3, 108, 1), (7, 0, 2**7, 2), (3, 5, 108, 1), (0, 7, 2**7, 2),
            (13, 3, 27 * 2**10, 2), (15, 0, 2**15, 4), (3, 13, 27 * 2**10, 2), (0, 15, 2**15, 4),
            (29, 3, 27 * 2**26, 4), (31, 0, 2**31, 8), (3, 29, 27 * 2**26, 4), (0, 31, 2**31, 8),
            (61, 3, 27 * 2**58, 8), (63, 0, 2**63, 9), (3, 61, 27 * 2**58, 8), (0, 63, 2**63, 9),
            (80, 0, 2**80, 11),  # (1 + q)^80, whose middle coefficient needs 77 bits
        ],
    )
    def test_qcat_field_width_boundaries(self, monkeypatch, a, c, bound, width):
        ds = (2,) * c + (1,) * a
        pairs, free, _ = _pairing(ds, 1)
        assert prod(k for _, k in pairs) << len(free) == bound
        widths = []
        signed = qseries._signed
        monkeypatch.setattr(qseries, "_signed", lambda packed, w, *rest: widths.append(w) or signed(packed, w, *rest))
        got = verdict(_qcat, ds, 1)
        assert widths == [width]
        assert (got is not None) == (a >= c)
        assert got == verdict(series_qcat, ds, 1) == verdict(dense_qcat, ds, 1)

    def test_qcat_a_60_needs_fields_past_64_bits(self, monkeypatch):
        widths = []
        signed = qseries._signed
        monkeypatch.setattr(qseries, "_signed", lambda packed, w, *rest: widths.append(w) or signed(packed, w, *rest))
        got = qcat_a(60)
        assert widths == [11]  # prod k * 2^(unpaired numerators) has 83 bits
        # the Pascal quotient stands in for dense_qcat, whose long division takes seconds here
        assert got == series_qcat(range(2, 61), 60) == divexact(q_binomial(120, 60), q_integer(61))

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 9])
    def test_signed_decode_round_trips(self, width):
        top = 2 ** (8 * width - 1)
        rng = random.Random(width)
        for cs in ([], [0], [-top], [top - 1, -top, 0, 1, -1, 0, 0], [rng.randint(-top, top - 1) for _ in range(200)]):
            packed = sum(c << (8 * width * i) for i, c in enumerate(cs))
            assert _signed(packed, width, len(cs), sum(cs)) == cs

    def test_a_signed_field_one_byte_too_narrow_raises(self):
        # 200 needs two signed bytes: one byte a field reads [-3, 0, -56, 1], since 200 wraps and carries 1
        packed = -3 + (200 << 16)
        assert _signed(packed, 2, 2, 197) == [-3, 200]
        with pytest.raises(OverflowError, match="1-byte signed fields add up to -58, not 197"):
            _signed(packed, 1, 4, 197)

    def test_qcat_product_rejects_an_inconsistent_degree_table(self, monkeypatch):
        monkeypatch.setattr(qseries, "degrees", lambda t: (3, 4))  # [7]_q [8]_q / [3]_q [4]_q
        with pytest.raises(ArithmeticError, match="degree table for A2 is inconsistent"):
            qcat_product.__wrapped__(GroupType("A", 2))  # past the cache


class TestCatNumbers:
    def test_table(self):
        assert cat_number(GroupType("B", 2)) == 6
        assert cat_number(GroupType("H3", 3)) == 32
        assert cat_number(GroupType("H4", 4)) == 280
        assert cat_number(GroupType("F4", 4)) == 105
        assert cat_number(GroupType("E6", 6)) == 833
        assert cat_number(GroupType("E7", 7)) == 4160
        assert cat_number(GroupType("E8", 8)) == 25080
        assert cat_number(GroupType("I2", 7)) == 9

    @pytest.mark.parametrize("n", range(1, 9))
    def test_classical_formulas(self, n):
        assert cat_number(GroupType("A", n)) == _binom(2 * (n + 1), n + 1) // (n + 2)
        assert cat_number(GroupType("B", n)) == _binom(2 * n, n)
        if n >= 2:
            assert cat_number(GroupType("D", n)) == _binom(2 * n, n) - _binom(2 * n - 2, n - 1)

    def test_degrees_consistency(self):
        for t in [GroupType("A", 4), GroupType("B", 4), GroupType("D", 4)]:
            ds = degrees(t)
            assert len(ds) == t.rank
            # number of positive roots equals sum of (d_i - 1)
            assert sum(d - 1 for d in ds) == {"A": 10, "B": 16, "D": 12}[t.family]
            assert coxeter_number(t) == max(ds)


class TestPalindromic:
    def test_examples(self):
        assert is_palindromic(QPoly([1, 0, 1]), 2)
        assert not is_palindromic(QPoly([1, 1]), 2)
        assert is_palindromic(qcat_a(3), 6)
        assert is_palindromic(QPoly(), 5)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_the_coefficient_loop(self, n):
        # centres one below, at and one above the true centre n(n - 1) of qcat_a(n)
        p = qcat_a(n)
        for center in (n * (n - 1) - 1, n * (n - 1), n * (n - 1) + 1):
            assert is_palindromic(p, center) == is_palindromic_loop(p, center)
        assert is_palindromic(p, n * (n - 1))

    @pytest.mark.parametrize(
        "coeffs,center",
        [((), -2), ((), 0), ((1,), -1), ((1,), 0), ((0, 1), 2), ((0, 1), 1), ((1, 0, 1), 3), ((2, 1, 2), 2)],
    )
    def test_edges_match_the_coefficient_loop(self, coeffs, center):
        p = QPoly(coeffs)
        assert is_palindromic(p, center) == is_palindromic_loop(p, center)


class TestGenPoly:
    def test_counts_values(self):
        assert gen_poly([0, 2, 2, 3, 0, 2]) == QPoly([2, 0, 3, 1])

    def test_empty_input_is_zero(self):
        assert gen_poly([]) == QPoly()
        assert str(gen_poly(iter(()))) == "0"

    def test_accepts_a_generator(self):
        assert gen_poly(k % 3 for k in range(7)) == QPoly([3, 2, 2])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            gen_poly([1, -1])

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=50))
    def test_value_at_one_counts_inputs(self, values):
        poly = gen_poly(values)
        assert poly(1) == len(values)
        assert all(coeff(poly, k) == values.count(k) for k in range(32))


# each size-taking entry outside ``paths`` (whose four take the same values in
# ``test_paths.py::TestPolynomials::test_n_that_is_not_an_int_is_refused``), by the
# name its error gives the size, with the other arguments valid
SIZE_ENTRIES = {
    "q_integer": ("k", q_integer),
    "q_factorial": ("k", q_factorial),
    "q_binomial-k": ("k", lambda k: q_binomial(k, 0)),
    "q_binomial-l": ("l", lambda l: q_binomial(3, l)),
    "qcat_a": ("n", qcat_a),
    "identity": ("n", signedperm.identity),
    "word_to_perm": ("n", lambda n: signedperm.word_to_perm((), n, "A")),  # an empty word has no letter to range-test
    "coxeter_element": ("n", lambda n: signedperm.coxeter_element("A", n)),
    "from_cycles": ("n", lambda n: signedperm.from_cycles([], n)),
}


class TestSizeRule:
    """Every size argument is read by ``qseries._size``: an int >= 0, else a ValueError naming it."""

    @pytest.mark.parametrize("value", [True, False, 2.0, 2.5, -1, "3", None])
    @pytest.mark.parametrize("entry", SIZE_ENTRIES)
    def test_bad_size_is_refused(self, entry, value):
        # True and False would answer as 1 and 0, and 2.0 and 2.5 would raise TypeError
        name, call = SIZE_ENTRIES[entry]
        with pytest.raises(ValueError, match=f"^{name} must be >= 0 and an int, got {re.escape(repr(value))}$"):
            call(value)


class TestGroupType:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupType("Z", 3)
        with pytest.raises(ValueError):
            GroupType("A", 0)
        with pytest.raises(ValueError):
            GroupType("D", 1)
        with pytest.raises(ValueError):
            GroupType("H3", 4)
        with pytest.raises(ValueError, match=r"I2\(k\) needs k >= 2"):
            GroupType("I2", 1)

    @pytest.mark.parametrize("family,rank", [("H3", 3), ("H4", 4), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)])
    def test_exceptional_rank_is_its_degree_count(self, family, rank):
        assert len(degrees(GroupType(family, rank))) == rank
        for wrong in (rank - 1, rank + 1):
            with pytest.raises(ValueError, match=f"^{family} has rank {rank}$"):
                GroupType(family, wrong)

    @pytest.mark.parametrize("family,rank", [("A", True), ("B", 2.0), ("A", "3"), ("E8", 8.0), ("I2", None)])
    def test_rank_that_is_not_an_int_is_refused(self, family, rank):
        # True would print as ATrue, and 2.0 or "3" would fail later inside degrees or a comparison
        with pytest.raises(ValueError, match=f"^rank must be an int, got {re.escape(repr(rank))}$"):
            GroupType(family, rank)

    @pytest.mark.parametrize("family,rank", [("A", 0), ("B", 0), ("D", -1)])
    def test_rank_error_names_what_it_got(self, family, rank):
        with pytest.raises(ValueError, match=f"rank must be >= 1, got {family}{rank}$"):
            GroupType(family, rank)

    def test_classical_index(self):
        assert GroupType("A", 8).n == 9
        assert GroupType("B", 5).n == 5
        assert str(GroupType("D", 4)) == "D4"
        # a fixed-rank family's name carries its rank, and I2's parameter goes in parentheses
        assert [str(GroupType(f, r)) for f, r in [("E8", 8), ("F4", 4), ("H3", 3), ("I2", 6), ("A", 4), ("B", 3)]] == [
            "E8", "F4", "H3", "I2(6)", "A4", "B3"]
        with pytest.raises(ValueError, match="no classical index for family E8"):
            GroupType("E8", 8).n


def test_doctests():
    import doctest

    from coxcat import qseries

    assert doctest.testmod(qseries).failed == 0
