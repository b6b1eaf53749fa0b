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
from coxcat.qseries import _over_q_integer, _qcat, _times_q_integer
from oracles import divexact, is_palindromic_loop, substitute_power


def oracle_q_binomial(k, l):
    # independent route: quotient of q-factorials by long division
    return divexact(q_factorial(k), q_factorial(l) * q_factorial(k - l))


class TestQPoly:
    def test_normalization(self):
        assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPoly([0, 0]).coeffs == ()
        assert not QPoly()
        assert QPoly([3]).degree() == 0
        assert QPoly([1, 1]).degree() == 1

    def test_str(self):
        assert str(QPoly()) == "0"
        assert str(QPoly([1, 0, 2, 1])) == "1 + 2q^2 + q^3"
        assert str(QPoly([0, 1])) == "q"
        assert str(QPoly([-1, 0, 1])) == "-1 + q^2"
        assert str(QPoly([1, -2])) == "1 - 2q"

    def test_json_round_trip(self):
        p = QPoly([1, 0, 3])
        assert QPoly.from_json(p.to_json()) == p

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
        with pytest.raises(ValueError):
            q_binomial(2, 3)

    @pytest.mark.parametrize("k", range(13))
    def test_symmetry_and_oracle(self, k):
        for l in range(k + 1):
            b = q_binomial(k, l)
            assert b == q_binomial(k, k - l)
            assert b == oracle_q_binomial(k, l)
            assert all(c >= 0 for c in b.coeffs)
            assert b(1) == _binom(k, l)


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


def dense_qcat(t):
    """prod [d + h]_q over prod [d]_q as dense products, by long division."""
    h = coxeter_number(t)
    num, den = QPoly.one(), QPoly.one()
    for d in degrees(t):
        num = num * q_integer(d + h)
        den = den * q_integer(d)
    return divexact(num, den)


EVERY_FAMILY = (
    [GroupType("A", r) for r in (1, 4, 9)]
    + [GroupType("B", r) for r in (1, 4, 8)]
    + [GroupType("D", r) for r in (2, 4, 7)]
    + [GroupType("I2", k) for k in (2, 5, 12)]
    + [GroupType(f, r) for f, r in [("H3", 3), ("H4", 4), ("F4", 4), ("E6", 6), ("E7", 7), ("E8", 8)]]
)


class TestQIntegerKernels:
    @pytest.mark.parametrize("n", range(41))
    def test_qcat_a_matches_pascal_quotient(self, n):
        assert qcat_a(n) == divexact(q_binomial(2 * n, n), q_integer(n + 1))

    def test_every_family_is_sampled(self):
        assert {t.family for t in EVERY_FAMILY} == set(FAMILIES)

    @pytest.mark.parametrize("t", EVERY_FAMILY, ids=str)
    def test_qcat_product_matches_dense_quotient(self, t):
        assert qcat_product(t) == dense_qcat(t)

    @given(st.lists(st.integers(-5, 5), max_size=8), st.integers(1, 6))
    def test_times_is_the_dense_product_and_over_inverts_it(self, cs, k):
        times = _times_q_integer(cs, k)
        assert QPoly(times) == QPoly(cs) * q_integer(k)
        assert QPoly(_over_q_integer(times, k)) == QPoly(cs)

    @given(st.lists(st.integers(-5, 5), max_size=8), st.integers(1, 6))
    def test_over_agrees_with_long_division(self, cs, d):
        try:
            want = divexact(QPoly(cs), q_integer(d))
        except InexactDivisionError:
            with pytest.raises(InexactDivisionError):
                _over_q_integer(cs, d)
        else:
            assert QPoly(_over_q_integer(cs, d)) == want

    def test_over_rejects_a_non_multiple(self):
        with pytest.raises(InexactDivisionError):
            _over_q_integer([1, 1, 1], 2)
        with pytest.raises(InexactDivisionError):
            _over_q_integer([1], 2)
        with pytest.raises(InexactDivisionError):
            _over_q_integer([0, 1, 0], 5)  # a divisor of higher degree
        with pytest.raises(InexactDivisionError):
            _qcat((3,), 2)  # [5]_q / [3]_q
        with pytest.raises(ZeroDivisionError):
            _over_q_integer([1], 0)

    def test_shift(self):
        assert QPoly([1, 2]).shift(3) == QPoly([0, 0, 0, 1, 2])
        assert QPoly().shift(2) == QPoly()
        with pytest.raises(ValueError):
            QPoly.one().shift(-1)


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
        assert all(poly.coeff(k) == values.count(k) for k in range(32))


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

    @pytest.mark.parametrize("family,rank", [("A", 0), ("B", 0), ("D", -1)])
    def test_rank_error_names_what_it_got(self, family, rank):
        with pytest.raises(ValueError, match=f"rank must be >= 1, got {family}{rank}$"):
            GroupType(family, rank)

    def test_classical_index(self):
        assert GroupType("A", 8).n == 9
        assert GroupType("B", 5).n == 5
        assert str(GroupType("D", 4)) == "D4"


def test_doctests():
    import doctest

    from coxcat import qseries

    assert doctest.testmod(qseries).failed == 0
