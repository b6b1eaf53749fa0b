import itertools

import pytest

from coxcat import signedperm as sp
from coxcat import sortable as so
from coxcat.qseries import GroupType, QPoly, SizeGuardError, cat_number
from coxcat.rootposets import cat_q
from oracles import avoids_231, parse_sorting_word


def oracle_231(p):
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if p[k] < p[i] < p[j]:
                    return False
    return True


def slow_left_descent(w, s, family):
    if s == 0:
        g = sp.simple_reflection(0, len(w), family)
    else:
        g = sp.simple_reflection(s, len(w), "A" if family == "A" else family)
    return sp.length_s(sp.mul(g, w), family) < sp.length_s(w, family)


class TestSortingWord:
    def test_s3_table(self):
        c = (2, 1)
        words = {w: str(so.c_sorting_word(w, c, "A")) for w in sp.enumerate_group("A", 3)}
        assert words == {
            (1, 2, 3): "e",
            (1, 3, 2): "s2",
            (3, 1, 2): "s2 s1",
            (3, 2, 1): "s2 s1 | s2",
            (2, 1, 3): "s1",
            (2, 3, 1): "s1 | s2",
        }

    def test_worked_example_a(self):
        sw = so.c_sorting_word((6, 2, 1, 5, 4, 3), (5, 4, 3, 2, 1), "A")
        assert sw.factors == ((5, 4, 3, 2, 1), (5, 4, 2), (5,))
        assert str(sw) == "s5 s4 s3 s2 s1 | s5 s4 s2 | s5"

    def test_worked_example_b(self):
        sw = so.c_sorting_word((1, -2, -6, 5, 4, 3), (5, 4, 3, 2, 1, 0), "B")
        assert sw.factors == ((5, 4, 3, 2, 1, 0), (5, 4, 2, 1, 0), (5, 2, 1))

    def test_identity(self):
        assert so.c_sorting_word(sp.identity(4), (3, 2, 1), "A").factors == ()

    def test_parse_round_trip(self):
        sw = so.SortingWord(((5, 4), (5,)))
        assert parse_sorting_word(str(sw)) == sw
        assert parse_sorting_word("e") == so.SortingWord(())

    def test_bad_c_word(self):
        with pytest.raises(ValueError):
            so.c_sorting_word((2, 1), (1, 1), "A")

    @pytest.mark.parametrize("fam,n", [("A", 5), ("B", 3), ("D", 4)])
    def test_reduced_and_evaluates_back(self, fam, n):
        c = tuple(range(n - 1, 0, -1)) if fam == "A" else tuple(range(n - 1, -1, -1))
        for w in sp.enumerate_group(fam, n):
            sw = so.c_sorting_word(w, c, fam)
            assert len(sw) == sp.length_s(w, fam)
            assert sp.word_to_perm(sw.letters, n, fam) == w
            assert all(set(f) <= set(c) for f in sw.factors)

    @pytest.mark.parametrize("fam,n", [("B", 3), ("D", 4)])
    def test_descent_criteria_match_length_drop(self, fam, n):
        for w in sp.enumerate_group(fam, n):
            pos = [0] * n
            for p, v in enumerate(w, start=1):
                pos[abs(v) - 1] = p if v > 0 else -p
            for s in range(n):
                if s == 0:
                    fast = pos[0] < 0 if fam == "B" else pos[0] + pos[1] < 0
                else:
                    fast = pos[s - 1] > pos[s]
                assert fast == slow_left_descent(w, s, fam)


def lex_first_subword_positions(w, c_word, family):
    """Brute force: the lexicographically least position set within c|c|c|...
    whose letters multiply to w.  Combinations are generated in lex order,
    so the first hit is the sorting word."""
    import itertools

    from coxcat.signedperm import length_s, word_to_perm

    l = length_s(w, family)
    if l == 0:
        return ()
    window = list(c_word) * (l + 1)
    for positions in itertools.combinations(range(len(window)), l):
        letters = tuple(window[p] for p in positions)
        if word_to_perm(letters, len(w), family) == w:
            return positions
    raise AssertionError("no subword found")


class TestLexicographicallyFirst:
    @pytest.mark.parametrize(
        "fam,n,c_word", [("A", 3, (2, 1)), ("A", 4, (3, 2, 1)), ("A", 4, (1, 2, 3)), ("B", 2, (1, 0))]
    )
    def test_greedy_is_lex_first(self, fam, n, c_word):
        for w in sp.enumerate_group(fam, n):
            sw = so.c_sorting_word(w, c_word, fam)
            greedy_positions = []
            offset = 0
            for factor in sw.factors:
                it = iter(enumerate(c_word))
                for letter in factor:
                    for idx, c_letter in it:
                        if c_letter == letter:
                            greedy_positions.append(offset + idx)
                            break
                offset += len(c_word)
            assert tuple(greedy_positions) == lex_first_subword_positions(w, c_word, fam)


class TestSortable:
    def test_231_examples(self):
        assert avoids_231(sp.identity(4))
        assert not avoids_231((2, 3, 1))
        assert avoids_231((6, 2, 1, 5, 4, 3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_231_oracle(self, n):
        for w in sp.enumerate_group("A", n):
            assert avoids_231(w) == oracle_231(w)

    def test_only_231_blocks_s3(self):
        assert not so.is_c_sortable((2, 3, 1), (2, 1), "A")
        for w in sp.enumerate_group("A", 3):
            assert so.is_c_sortable(w, (2, 1), "A") == (w != (2, 3, 1))

    def test_worked_example_b_sortable(self):
        assert so.is_c_sortable((1, -2, -6, 5, 4, 3), (5, 4, 3, 2, 1, 0), "B")

    @pytest.mark.parametrize("n", range(2, 8))
    def test_sortable_iff_231_avoiding(self, n):
        c = tuple(range(n - 1, 0, -1))
        for w in sp.enumerate_group("A", n):
            assert so.is_c_sortable(w, c, "A") == avoids_231(w)

    def test_commutation_invariance_spot_check(self):
        # s_0 and s_2 commute in B_3, so the words (1,2,0) and (1,0,2) are
        # reduced words for the same Coxeter element and must classify alike
        for w in sp.enumerate_group("B", 3):
            assert so.is_c_sortable(w, (1, 2, 0), "B") == so.is_c_sortable(w, (1, 0, 2), "B")


def sortable_filter_oracle(fam, n, c_word):
    """The sortable elements by filtering the whole group."""
    return [w for w in sp.enumerate_group(fam, n) if so.is_c_sortable(w, c_word, fam)]


def default_c_word(fam, n):
    return tuple(range(n - 1, 0, -1)) if fam == "A" else tuple(range(n - 1, -1, -1))


class TestSortableWalkAgainstFilter:
    @pytest.mark.parametrize(
        "fam,n",
        [("A", n) for n in range(2, 9)] + [("B", n) for n in range(1, 6)] + [("D", n) for n in range(2, 5)],
    )
    def test_default_c_word(self, fam, n):
        t = GroupType(fam, n - 1 if fam == "A" else n)
        assert so.enumerate_sortables(t) == sortable_filter_oracle(fam, n, default_c_word(fam, n))

    @pytest.mark.parametrize("fam,rank", [("A", 5), ("B", 3), ("B", 4), ("D", 4)])
    def test_every_c_word(self, fam, rank):
        t = GroupType(fam, rank)
        for c_word in itertools.permutations(default_c_word(fam, t.n)):
            assert so.enumerate_sortables(t, c_word) == sortable_filter_oracle(fam, t.n, c_word)

    def test_bad_c_word(self):
        with pytest.raises(ValueError):
            so.enumerate_sortables(GroupType("A", 2), (1, 1))


class TestEnumerateSortables:
    def test_counts(self):
        assert len(so.enumerate_sortables(GroupType("A", 1))) == 2
        assert len(so.enumerate_sortables(GroupType("A", 2), (2, 1))) == 5

    def test_b2_generating_polynomial(self):
        elems = so.enumerate_sortables(GroupType("B", 2), (1, 0))
        assert len(elems) == 6
        lengths = [sp.length_s(w, "B") for w in elems]
        counts = [0] * 5
        for v in lengths:
            counts[v] += 1
        assert QPoly(counts) == QPoly([1, 2, 1, 1, 1])
        assert QPoly(counts) == cat_q(GroupType("B", 2))

    # |Sort(W, c)| = Cat(W) (Reading 2007), which the psi verifier's count route
    # rests on: every rank the sortable guard allows for the default word
    @pytest.mark.parametrize(
        "fam,rank", [("A", r) for r in range(1, 9)] + [("B", r) for r in range(1, 6)] + [("D", r) for r in range(2, 5)]
    )
    def test_counts_match_catalan(self, fam, rank):
        t = GroupType(fam, rank)
        assert len(so.enumerate_sortables(t)) == cat_number(t)

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            so.enumerate_sortables(GroupType("B", 6))


class TestUncheckedBodies:
    """The private bodies the verifiers call after one ``check_perm`` per element."""

    @pytest.mark.parametrize(
        "fam,n", [("A", n) for n in range(1, 6)] + [("B", n) for n in range(1, 5)] + [("D", n) for n in range(2, 5)]
    )
    def test_bodies_equal_the_public_forms(self, fam, n):
        c = default_c_word(fam, n)
        for w in sp.enumerate_group(fam, n):
            assert sp._length_s(w, fam) == sp.length_s(w, fam)
            assert sp._maj(w, fam) == sp.maj(w, fam)
            assert sp._imaj(w, fam) == sp.imaj(w, fam) == sp.maj(sp.inverse(w), fam)
            sw = so._sorting_word(w, c, fam)
            assert sw == so.c_sorting_word(w, c, fam)
            assert len(sw) == sp.length_s(w, fam)

    @pytest.mark.parametrize(
        "p,fam",
        [((1, 1), "B"), ((5, 1), "B"), ((0, 1), "A"), ((2, 3), "A"), ((1, -2), "A"), ((1, -2), "D")],
    )
    def test_public_forms_still_check(self, p, fam):
        for stat in (sp.length_s, sp.maj, sp.imaj):
            with pytest.raises(ValueError):
                stat(p, fam)
        with pytest.raises(ValueError):
            so.c_sorting_word(p, default_c_word(fam, len(p)), fam)
