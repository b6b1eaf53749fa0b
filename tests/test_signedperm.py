import itertools
from collections import deque
from math import prod

import pytest
from hypothesis import given, strategies as st

from coxcat import signedperm as sp
from coxcat import sortable as so
from coxcat.qseries import GroupType, SizeGuardError, degrees
from oracles import check_perm_abs, des_set, enumerate_group, group_order, ides_set, inv_word, inv_word_pairs, leq_t, length_t_bfs, nc_coxeter_element, neg, reflections, stats


def bfs_simple_length(target, family):
    """Word length over simple reflections, by plain BFS from the identity."""
    n = len(target)
    if family == "A":
        gens = [sp.simple_reflection(i, n, "A") for i in range(1, n)]
    else:
        gens = [sp.simple_reflection(i, n, family) for i in range(0, n)]
    start = sp.identity(n)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        if w == target:
            return dist[w]
        for g in gens:
            u = sp.mul(w, g)
            if u not in dist:
                dist[u] = dist[w] + 1
                queue.append(u)
    raise AssertionError("target not generated")


def signed_perms(n):
    return st.permutations(range(1, n + 1)).flatmap(
        lambda base: st.tuples(*[st.sampled_from([v, -v]) for v in base])
    )


class TestBasics:
    def test_inv_examples(self):
        assert inv_word([1, 2, 3]) == 0
        assert inv_word([-1, -2]) == 1
        assert inv_word([1, 3, -4, -2]) == 4

    def test_mul_inverse(self):
        p = (3, -1, 2)
        assert sp.mul(p, sp.inverse(p)) == sp.identity(3)
        assert sp.mul(sp.inverse(p), p) == sp.identity(3)

    def test_check(self):
        with pytest.raises(ValueError):
            sp.check_perm((1, 1))
        with pytest.raises(ValueError):
            sp.check_perm((1, -2), "A")
        with pytest.raises(ValueError):
            sp.check_perm((1, -2), "D")
        sp.check_perm((-1, -2), "D")
        for p in (("1", 2), (None, 1)):  # entries that do not add
            with pytest.raises(ValueError, match="entries must be integers"):
                sp.check_perm(p)


class TestKernelsAgainstDefinitions:
    @pytest.mark.parametrize("family,n", [("A", n) for n in range(7)] + [("B", n) for n in range(6)])
    def test_inv_word_on_whole_groups(self, family, n):
        for p in enumerate_group(family, n):
            assert inv_word(p) == inv_word_pairs(p)
            # the bit count in length_s against the insertion count
            assert sp.length_s(p, family) == inv_word(p) - sum(v for v in p if v < 0)

    @pytest.mark.parametrize(
        "w", [[], [3, 3, 3], [2, -1, 2, -1, 0], [-5, -5, 4, -5, 4, 4], [1, 0, 0, 1, -1, -1, 2, -2]]
    )
    def test_inv_word_on_repeated_and_negative_entries(self, w):
        assert inv_word(w) == inv_word_pairs(w)

    @pytest.mark.parametrize("family", "ABD")
    def test_check_perm_refuses_what_the_absolute_check_refuses(self, family):
        def outcome(check, p):
            try:
                check(p, family)
            except ValueError as exc:
                return str(exc)
            return None

        words = [w for k in range(5) for w in itertools.product(range(-4, 5), repeat=k)]
        words += [(1.0, 2), (2, 1.0), ("1", 2), (None, 1), (True,), (1, 2, 3, 3), (3, 1, 2, 5)]
        refused = 0
        for p in words:
            want = outcome(check_perm_abs, p)
            assert outcome(sp.check_perm, p) == want
            refused += want is not None
        assert 0 < refused < len(words)

    @given(st.lists(st.integers(-20, 20), max_size=16))
    def test_inv_and_maj_word(self, w):
        pairs = [(i, j) for i in range(len(w)) for j in range(i + 1, len(w))]
        assert inv_word(w) == sum(1 for i, j in pairs if w[i] > w[j])
        assert sp.maj_word(w) == sum(des_set(w))

    @given(
        st.one_of(st.lists(st.integers(-4, 4), max_size=4), signed_perms(4).map(list)),
        st.sampled_from("ABD"),
    )
    def test_check_perm(self, p, family):
        p = tuple(p)
        negatives = sum(1 for v in p if v < 0)
        valid = (
            sorted(abs(v) for v in p) == list(range(1, len(p) + 1))
            and 0 not in p
            and not (family == "A" and negatives)
            and not (family == "D" and negatives % 2)
        )
        if valid:
            sp.check_perm(p, family)
        else:
            with pytest.raises(ValueError):
                sp.check_perm(p, family)

    def test_empty_perm(self):
        for family in "ABD":
            sp.check_perm((), family)
            assert sp.length_s((), family) == sp.maj((), family) == 0


class TestLengthS:
    def test_examples(self):
        assert sp.length_s(sp.identity(4), "B") == 0
        assert sp.length_s((-1, -2), "B") == 4
        assert sp.length_s((7, 3, 4, 5, 2, 6, 9, 8, 1), "A") == 17

    def test_bfs_oracle_b2_b3(self):
        for n, fam in [(2, "B"), (3, "B"), (4, "A"), (3, "D")]:
            for w in enumerate_group(fam, n):
                assert sp.length_s(w, fam) == bfs_simple_length(w, fam)


def _mask(positions) -> int:
    return sum(1 << i for i in positions)


class TestStats:
    """The one-pass oracle ``stats`` against the single statistics and the oracle descent sets."""

    @pytest.mark.parametrize("fam,n", [("A", n) for n in range(7)] + [(f, n) for f in "BD" for n in range(6)])
    def test_matches_the_single_statistics(self, fam, n):
        for w in enumerate_group(fam, n):
            want = sp.length_s(w, fam), sp.maj(w, fam), sp.imaj(w, fam), _mask(des_set(w)), _mask(ides_set(w)), neg(w)
            assert stats(w, fam) == want

    def test_worked_example(self):
        sigma = (7, 3, 4, 5, 2, 6, 9, 8, 1)
        assert stats(sigma, "A") == (17, 20, 17, _mask({1, 4, 7, 8}), _mask({1, 2, 6, 8}), 0)
        assert stats((-2, -1), "D") == (1, 1, 1, 0, 0, 2)  # s_0, an involution

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            stats((1,), "E")


class TestMaj:
    def test_examples(self):
        assert sp.maj(sp.identity(3), "B") == 0
        sigma = (7, 3, 4, 5, 2, 6, 9, 8, 1)
        assert des_set(sigma) == {1, 4, 7, 8}
        assert sp.maj(sigma, "A") == 20
        assert ides_set(sigma) == {1, 2, 6, 8}
        assert sp.imaj(sigma, "A") == 17
        assert sp.maj((-1, 2), "B") == 1

    @pytest.mark.parametrize(
        "fam,n", [("A", 5), ("A", 6), ("A", 7), ("B", 3), ("B", 4), ("B", 5), ("D", 3), ("D", 4)]
    )
    def test_equidistribution_with_length(self, fam, n):
        majs: dict[int, int] = {}
        lens: dict[int, int] = {}
        for w in enumerate_group(fam, n):
            m = sp.maj(w, fam)
            l = sp.length_s(w, fam)
            majs[m] = majs.get(m, 0) + 1
            lens[l] = lens.get(l, 0) + 1
        assert majs == lens


class TestRev:
    def test_examples(self):
        assert sp.rev((2, -4, 3, -1)) == (2, -1, 3, -4)
        assert sp.rev(sp.identity(5)) == sp.identity(5)
        assert sp.rev((-3, -2, -1)) == (-1, -2, -3)

    @given(signed_perms(5))
    def test_involution(self, p):
        assert sp.rev(sp.rev(p)) == p


class TestCycles:
    def test_notation_quadruple(self):
        assert sp.to_cycles((4, 2, 6, 5, 1, 3)) == ((1, 4, 5), (3, 6))
        assert sp.to_cycles((4, 2, -6, 5, 1, -3)) == ((1, 4, 5), (3, -6))
        assert sp.to_cycles((4, 2, -6, 5, 1, 3)) == ((1, 4, 5), (3, -6, -3))
        assert sp.to_cycles((4, 2, 6, 5, -1, -3)) == ((1, 4, 5, -1), (3, 6, -3))

    def test_strings(self):
        cycles = sp.to_cycles((4, 2, -6, 5, 1, 3))
        assert sp.cycles_str(cycles) == "(1,4,5)(3,-6,-3)"
        assert sp.parse_cycles("(1,4,5)(3,-6,-3)") == cycles
        assert sp.parse_cycles("()") == ()
        assert sp.cycles_str(()) == "()"

    @pytest.mark.parametrize("s", ["(1,,2)", "(1,2,)", "(,1,2)", "(1,2)()", "(1,2)(,)"])
    def test_parse_cycles_rejects_empty_entries(self, s):
        with pytest.raises(ValueError, match="bad cycle string"):
            sp.parse_cycles(s)

    def test_from_cycles_errors(self):
        with pytest.raises(ValueError):
            sp.from_cycles([(1, 2), (2, 3)], 3)
        with pytest.raises(ValueError):
            sp.from_cycles([(1,)], 3)
        with pytest.raises(ValueError):
            sp.from_cycles([(1, 5)], 3)

    def test_round_trip_b3(self):
        for w in enumerate_group("B", 3):
            assert sp.from_cycles(sp.to_cycles(w), 3) == w

    @given(signed_perms(6))
    def test_round_trip_random(self, p):
        assert sp.from_cycles(sp.to_cycles(p), 6) == p


# (family, n): A1-A5, B1-B4 and D2-D4
WALK_GROUPS = [("A", n) for n in range(2, 7)] + [("B", n) for n in range(1, 5)] + [("D", n) for n in range(2, 5)]


class TestWalks:
    @pytest.mark.parametrize("fam,n", WALK_GROUPS)
    def test_walks_read_the_cycles(self, fam, n):
        for w in enumerate_group(fam, n):
            walks = sp._walks(w)
            # the walks cover 1..n once by absolute value
            assert sorted(abs(v) for walk, _ in walks for v in walk) == list(range(1, n + 1))
            for walk, crossed in walks:
                # each starts at its cycle's least absolute entry, with positive sign
                assert walk[0] == min(map(abs, walk)) > 0
                # and follows w until |w| returns to walk[0], as -walk[0] exactly when crossed
                assert [sp.apply_value(w, v) for v in walk] == walk[1:] + [-walk[0] if crossed else walk[0]]
            assert [walk[0] for walk, _ in walks] == sorted(walk[0] for walk, _ in walks)
            # length_t is n minus the walks that do not cross sign
            assert sp.length_t(w) == n - sum(not crossed for _, crossed in walks)

    def test_examples(self):
        assert sp._walks((4, 2, -6, 5, 1, 3)) == [([1, 4, 5], False), ([2], False), ([3, -6], True)]
        assert sp._walks((-1,)) == [([1], True)]
        assert sp._walks(()) == []


class TestLengthT:
    def test_examples(self):
        assert sp.length_t(sp.identity(4)) == 0
        assert sp.length_t((4, 2, 6, 5, 1, 3)) == 3
        assert sp.length_t((-3, -2, -1)) == 2

    def test_reflections_have_length_one(self):
        for fam, n in [("A", 4), ("B", 3), ("D", 3)]:
            for t in reflections(fam, n):
                assert length_t_bfs(t, fam) == 1
                assert sp.length_t(t) == 1

    @pytest.mark.parametrize(
        "fam,n",
        [("A", 4), ("A", 5), ("A", 6), ("B", 2), ("B", 3), ("D", 2), ("D", 3), ("D", 4), ("D", 5)],
    )
    def test_cycle_formula_matches_bfs(self, fam, n):
        # one-line size 6 covers the rank-5 symmetric-group case
        for w in enumerate_group(fam, n):
            assert sp.length_t(w) == length_t_bfs(w, fam)

    def test_at_most_ls(self):
        for fam, n in [("A", 4), ("B", 3), ("D", 3)]:
            for w in enumerate_group(fam, n):
                lt = length_t_bfs(w, fam)
                assert lt <= sp.length_s(w, fam)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            length_t_bfs(sp.identity(8), "B")


class TestLeqT:
    def test_examples(self):
        c = nc_coxeter_element("B", 3)
        assert leq_t(sp.identity(3), c)
        assert leq_t((-3, -2, -1), c)
        refl = (2, 1, 3)
        assert not leq_t(c, refl)

    def test_coxeter_elements_attain_max(self):
        for fam, n in [("A", 4), ("B", 3)]:
            c = nc_coxeter_element(fam, n)
            top = max(sp.length_t(w) for w in enumerate_group(fam, n))
            assert sp.length_t(c) == top


class TestCoxeterElement:
    def test_variants(self):
        perm, word = sp.coxeter_element("A", 3)
        assert word == (2, 1)
        assert perm == (3, 1, 2)
        assert nc_coxeter_element("B", 4) == (2, 3, 4, -1)
        perm, word = sp.coxeter_element("A", 2)
        assert perm == (2, 1)
        assert sp.word_to_perm((1, 2), 3, "A") == (2, 3, 1)

    def test_word_evaluation_pinned(self):
        # right multiplication: s_1 then s_2 sends the identity to [2,3,1]
        assert sp.word_to_perm((1, 2), 3, "A") == (2, 3, 1)
        assert sp.word_to_perm((0,), 2, "B") == (-1, 2)
        assert sp.word_to_perm((0,), 4, "D") == (-2, -1, 3, 4)

    @pytest.mark.parametrize("word", [(-1,), (3,), (1, 2, 3), (1, -1)])
    def test_letter_out_of_range_rejected(self, word):
        with pytest.raises(ValueError, match="outside 0..2"):
            sp.word_to_perm(word, 3, "B")

    @pytest.mark.parametrize("word", [(1.0,), (True,), (2, 1.0), ("1",), (None,)])
    def test_letter_that_is_not_an_int_rejected(self, word):
        # True == 1 would evaluate to s_1, and 1.0 would index the one-line list
        with pytest.raises(ValueError, match="letter that is not an int in"):
            sp.word_to_perm(word, 3, "A")

    def test_type_d_s0_needs_two_entries(self):
        with pytest.raises(ValueError, match="type D's s_0 .* needs n >= 2, got n = 1"):
            sp.word_to_perm((0,), 1, "D")
        assert sp.word_to_perm((0,), 1, "B") == (-1,)
        assert sp.word_to_perm((), 1, "D") == (1,)

    def test_word_read_once(self):
        # a one-shot iterator is read into a tuple before its letters are checked
        assert sp.word_to_perm((x for x in (2, 1)), 3, "A") == sp.word_to_perm((2, 1), 3, "A")
        with pytest.raises(ValueError, match=r"outside 0..2 in \(3,\)"):
            sp.word_to_perm(iter((3,)), 3, "B")

    def test_type_a_has_no_s0(self):
        with pytest.raises(ValueError, match="type A has no s_0"):
            sp.word_to_perm((0,), 3, "A")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family 'X'"):
            sp.word_to_perm((1,), 3, "X")
        with pytest.raises(ValueError, match="unknown family 'E'"):
            sp.coxeter_element("E", 3)
        for read in (sp.check_perm, sp.length_s, sp.maj, sp.imaj):
            with pytest.raises(ValueError, match="unknown family 'X'"):
                read((1, 2), "X")
        for scan in (so.c_sorting_word, so.is_c_sortable):
            with pytest.raises(ValueError, match="unknown family 'X'"):
                scan((-2, -1, 3), (2, 1, 0), "X")
        with pytest.raises(ValueError, match="unknown family 'X'"):
            group_order("X", 2)

    def test_simple_reflection_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside 0..2"):
            sp.simple_reflection(3, 3)

    def test_words_are_reduced(self):
        for fam, n in [("A", 5), ("B", 4), ("D", 4)]:
            perm, word = sp.coxeter_element(fam, n)
            assert sp.length_s(perm, fam) == len(word)
            if fam != "D":
                assert sp.length_s(nc_coxeter_element(fam, n), fam) == len(word)


class TestGroupEnumeration:
    def test_orders(self):
        assert len(list(enumerate_group("A", 4))) == 24
        assert len(list(enumerate_group("B", 3))) == 48
        assert len(list(enumerate_group("D", 3))) == 24
        assert group_order("D", 4) == 192

    def test_order_past_fifteen(self):
        assert group_order("A", 16) == 20922789888000
        assert group_order("B", 16) == 20922789888000 << 16

    @pytest.mark.parametrize("fam", "ABD")
    def test_negative_order_refused(self, fam):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            group_order(fam, -1)

    @pytest.mark.parametrize(
        "t",
        [GroupType("A", r) for r in range(1, 6)] + [GroupType("B", r) for r in range(1, 5)] + [GroupType("D", r) for r in range(2, 6)],
        ids=str,
    )
    def test_order_is_the_product_of_the_degrees(self, t):
        assert prod(degrees(t)) == group_order(t.family, t.n) == len(set(enumerate_group(t.family, t.n)))

    @pytest.mark.parametrize(
        "t,order",
        [
            (GroupType(family, rank), order)
            for family, rank, order in [
                ("H3", 3, 120), ("H4", 4, 14400), ("F4", 4, 1152), ("E6", 6, 51840),
                ("E7", 7, 2903040), ("E8", 8, 696729600), ("I2", 5, 10),
            ]
        ],
        ids=str,
    )
    def test_known_orders_from_the_degrees(self, t, order):
        assert prod(degrees(t)) == order


def test_doctests():
    import doctest

    assert doctest.testmod(sp).failed == 0
