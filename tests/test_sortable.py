import itertools

import pytest

from coxcat import signedperm as sp
from coxcat import sortable as so
from coxcat.cli import main
from coxcat.qseries import GroupType, QPoly, cat_number
from coxcat.rootposets import cat_q
from oracles import avoids_231, enumerate_group, is_sortable_chain, letters, parse_sorting_word, refuse, sortable_walk, stats


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
        words = {w: str(so.c_sorting_word(w, c, "A")) for w in enumerate_group("A", 3)}
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
        for p, c_word, fam in [((2, 1), (1, 1), "A"), ((2, 1), (), "A"), ((2, 1), (1,), "B"), ((1, 2, 3), (2, 1, 1), "A")]:
            with pytest.raises(ValueError, match="not a Coxeter word"):
                so.c_sorting_word(p, c_word, fam)
        assert so.c_sorting_word((1,), (), "A") == so.SortingWord(())

    @pytest.mark.parametrize("c_word", [(2.0, 1), (True, 2), (2, 1.0)])
    def test_letter_that_is_not_an_int_rejected(self, c_word):
        # 2.0 == 2 and True == 1 pass the set test, so the letters' type is checked
        for check in (so.c_sorting_word, so.is_c_sortable):
            with pytest.raises(ValueError, match=r"not a Coxeter word for A3: \("):
                check((2, 1, 3), c_word, "A")
        with pytest.raises(ValueError, match="not a Coxeter word"):
            so.enumerate_sortables(GroupType("A", 2), c_word)

    def test_type_d_needs_two_entries(self):
        # s_0 of type D acts on the first two entries: refused, not an IndexError inside the scan
        for check in (so.c_sorting_word, so.is_c_sortable):
            with pytest.raises(ValueError, match="type D's s_0 .* needs n >= 2, got n = 1"):
                check((1,), (0,), "D")

    def test_c_word_read_once(self):
        # a one-shot iterator is read into a tuple at the public entry
        t, c_word = GroupType("B", 3), (2, 1, 0)
        assert so.enumerate_sortables(t, iter(c_word)) == so.enumerate_sortables(t, c_word)
        for w in ((3, -1, 2), (-2, 1, 3)):
            assert so.c_sorting_word(w, iter(c_word), "B") == so.c_sorting_word(w, c_word, "B")
            assert so.is_c_sortable(w, (s for s in c_word), "B") == so.is_c_sortable(w, c_word, "B")

    def test_sortable_chain(self):
        assert is_sortable_chain(so.SortingWord(()))
        assert is_sortable_chain(so.SortingWord(((2, 1),)))
        assert is_sortable_chain(so.SortingWord(((3, 2, 1), (3, 1), (1,), (1,))))
        assert not is_sortable_chain(so.SortingWord(((2,), (2, 1))))
        assert not is_sortable_chain(so.SortingWord(((3, 2), (1,))))
        assert len(so.SortingWord(())) == 0 and len(so.SortingWord(((3, 2), (1,)))) == 3

    @pytest.mark.parametrize("fam,n", [("A", 5), ("B", 3), ("D", 4)])
    def test_reduced_and_evaluates_back(self, fam, n):
        c = tuple(range(n - 1, 0, -1)) if fam == "A" else tuple(range(n - 1, -1, -1))
        for w in enumerate_group(fam, n):
            sw = so.c_sorting_word(w, c, fam)
            assert len(sw) == sp.length_s(w, fam)
            assert sp.word_to_perm(letters(sw), n, fam) == w
            assert all(set(f) <= set(c) for f in sw.factors)

    @pytest.mark.parametrize("fam,n", [("B", 3), ("D", 4)])
    def test_descent_criteria_match_length_drop(self, fam, n):
        for w in enumerate_group(fam, n):
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
        for w in enumerate_group(fam, n):
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
        for w in enumerate_group("A", n):
            assert avoids_231(w) == oracle_231(w)

    def test_only_231_blocks_s3(self):
        assert not so.is_c_sortable((2, 3, 1), (2, 1), "A")
        for w in enumerate_group("A", 3):
            assert so.is_c_sortable(w, (2, 1), "A") == (w != (2, 3, 1))

    def test_worked_example_b_sortable(self):
        assert so.is_c_sortable((1, -2, -6, 5, 4, 3), (5, 4, 3, 2, 1, 0), "B")

    @pytest.mark.parametrize("n", range(2, 8))
    def test_sortable_iff_231_avoiding(self, n):
        c = tuple(range(n - 1, 0, -1))
        for w in enumerate_group("A", n):
            assert so.is_c_sortable(w, c, "A") == avoids_231(w)

    def test_commutation_invariance_spot_check(self):
        # s_0 and s_2 commute in B_3, so the words (1,2,0) and (1,0,2) are
        # reduced words for the same Coxeter element and must classify alike
        for w in enumerate_group("B", 3):
            assert so.is_c_sortable(w, (1, 2, 0), "B") == so.is_c_sortable(w, (1, 0, 2), "B")


def sortable_filter_oracle(fam, n, c_word):
    """The sortable elements by filtering the whole group."""
    return [w for w in enumerate_group(fam, n) if so.is_c_sortable(w, c_word, fam)]


def default_c_word(fam, n):
    return tuple(range(n - 1, 0, -1)) if fam == "A" else tuple(range(n - 1, -1, -1))


class TestSortableWalkAgainstFilter:
    @pytest.mark.parametrize(
        "fam,n",
        [("A", n) for n in range(2, 9)] + [("B", n) for n in range(1, 6)] + [("D", n) for n in range(2, 5)],
    )
    def test_default_c_word(self, fam, n):
        t = GroupType(fam, n - 1 if fam == "A" else n)
        assert sorted(so.enumerate_sortables(t)) == sorted(sortable_filter_oracle(fam, n, default_c_word(fam, n)))

    @pytest.mark.parametrize("fam,rank", [("A", 5), ("B", 3), ("B", 4), ("D", 4)])
    def test_every_c_word(self, fam, rank):
        t = GroupType(fam, rank)
        for c_word in itertools.permutations(default_c_word(fam, t.n)):
            assert sorted(so.enumerate_sortables(t, c_word)) == sorted(sortable_filter_oracle(fam, t.n, c_word))

    def test_bad_c_word(self):
        with pytest.raises(ValueError):
            so.enumerate_sortables(GroupType("A", 2), (1, 1))


def every_c_word(t):
    return itertools.permutations(range(1, t.n) if t.family == "A" else range(t.n))


class TestSortableTree:
    """``_sortable_tree`` against the walk that scans every candidate."""

    @pytest.mark.parametrize(
        "t",
        [GroupType("A", r) for r in range(1, 6)] + [GroupType("B", r) for r in range(2, 6)] + [GroupType("D", r) for r in range(2, 6)],
        ids=str,
    )
    def test_every_c_word(self, t):
        for c_word in every_c_word(t):
            nodes = list(so._sortable_tree(t, c_word))
            elements = [w for w, _ in nodes]
            assert len(set(elements)) == len(elements)  # each element once
            assert set(elements) == set(sortable_walk(t, c_word))
            assert [length for _, length in nodes] == [len(so.c_sorting_word(w, c_word, t.family)) for w in elements]

    @pytest.mark.parametrize(
        "t",
        [GroupType("A", r) for r in range(1, 4)] + [GroupType("B", r) for r in range(1, 5)] + [GroupType("D", r) for r in range(2, 5)],
        ids=str,
    )
    def test_walk_order_for_every_c_word(self, t):
        for c_word in every_c_word(t):
            assert_tree_order(t, c_word, so.enumerate_sortables(t, c_word))

    @pytest.mark.parametrize(
        "t",
        [GroupType("A", r) for r in range(4, 8)] + [GroupType("B", r) for r in range(5, 7)] + [GroupType("D", r) for r in range(5, 7)],
        ids=str,
    )
    def test_walk_order_for_the_default_word(self, t):
        assert_tree_order(t, sp.coxeter_element(t.family, t.n)[1], so.enumerate_sortables(t))


class TestSortableNodes:
    """Each node's inversion cells and cover mask against group products."""

    @staticmethod
    def bit_of(bit, r):
        # the bit of the reflection r, read off its least moved value
        x = next(i for i, v in enumerate(r, start=1) if v != i)
        return bit[x][r[x - 1]]

    @pytest.mark.parametrize("t", [GroupType("A", 3), GroupType("B", 3), GroupType("D", 4)], ids=str)
    def test_inversions_and_covers(self, t):
        fam, n = t.family, t.n
        bit = so._reflection_bits(n)
        gens = {s: sp.simple_reflection(s, n, fam) for s in (range(1, n) if fam == "A" else range(n))}
        for c_word in every_c_word(t):
            for u, length, inversions, covers in so._sortable_nodes(t, c_word):
                cells = []
                while inversions is not None:
                    r, inversions = inversions
                    cells.append(r)
                word = letters(so.c_sorting_word(u, c_word, fam))
                want = []
                for k, s in enumerate(word):
                    p = sp.word_to_perm(word[:k], n, fam)
                    want.append(self.bit_of(bit, sp.mul(sp.mul(p, gens[s]), sp.inverse(p))))
                assert cells[::-1] == want and len(word) == length
                cover = 0
                for g in gens.values():
                    if sp.length_s(sp.mul(u, g), fam) < sp.length_s(u, fam):
                        cover |= self.bit_of(bit, sp.mul(sp.mul(u, g), sp.inverse(u)))
                assert covers == cover

    def test_tree_is_the_nodes_projected(self):
        t = GroupType("D", 5)
        word = sp.coxeter_element("D", 5)[1]
        assert list(so._sortable_tree(t, word)) == [(u, length) for u, length, _, _ in so._sortable_nodes(t, word)]

    def test_bits_built_once_per_rank(self):
        assert so._reflection_bits(5) is so._reflection_bits(5)


def assert_tree_order(t, c_word, listed):
    """``listed``, from ``enumerate_sortables``, has the elements in the order of the depth
    first walk down ``_sortable_tree``, each once: e first, and every other
    element after its parent, the element of its sorting word without the
    last letter."""
    fam, n = t.family, t.n
    assert listed == [w for w, _ in so._sortable_tree(t, c_word)]
    assert len(set(listed)) == len(listed)
    assert set(listed) == set(sortable_walk(t, c_word))
    assert listed[0] == sp.identity(n)
    place = {w: i for i, w in enumerate(listed)}
    for i, w in enumerate(listed[1:], start=1):
        parent = sp.word_to_perm(letters(so.c_sorting_word(w, c_word, fam))[:-1], n, fam)
        assert place[parent] < i


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

    def test_guard(self, capsys, monkeypatch):
        # the CLI refuses B6's sortables before it enumerates any
        refuse(monkeypatch, "enumerate_sortables")
        assert main(["enumerate", "--object", "sortable", "--type", "B", "--n", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sortable enumeration guarded at rank 5 for type B\n"


class TestUncheckedBodies:
    """The private bodies beside the checked public forms, and the one-pass oracle ``stats``."""

    @pytest.mark.parametrize(
        "fam,n", [("A", n) for n in range(1, 6)] + [("B", n) for n in range(1, 5)] + [("D", n) for n in range(2, 5)]
    )
    def test_bodies_equal_the_public_forms(self, fam, n):
        c = default_c_word(fam, n)
        for w in enumerate_group(fam, n):
            assert stats(w, fam)[:3] == (sp.length_s(w, fam), sp.maj(w, fam), sp.imaj(w, fam))
            assert sp.imaj(w, fam) == sp.maj(sp.inverse(w), fam)
            sw = so._sorting_word(w, c, fam)
            assert sw == so.c_sorting_word(w, c, fam)
            assert len(sw) == sp.length_s(w, fam)

    @pytest.mark.parametrize(
        "p,fam",
        [((1, 1), "B"), ((5, 1), "B"), ((0, 1), "A"), ((2, 3), "A"), ((1, -2), "A"), ((1, -2), "D"), ((1.0, 2), "A"), ((2, -1.0), "B")],
    )
    def test_public_forms_still_check(self, p, fam):
        for stat in (sp.length_s, sp.maj, sp.imaj):
            with pytest.raises(ValueError):
                stat(p, fam)
        with pytest.raises(ValueError):
            so.c_sorting_word(p, default_c_word(fam, len(p)), fam)


class TestEarlyExitScan:
    """``_is_sortable`` stops at the first letter that breaks the chain; the
    factors of ``_sorting_word`` are its reference, and ``_scan`` yields
    their letters keyed by (factor index from 1, letter)."""

    @pytest.mark.parametrize(
        "t",
        [GroupType("A", r) for r in range(1, 5)] + [GroupType("B", r) for r in range(1, 5)] + [GroupType("D", r) for r in range(2, 5)],
        ids=str,
    )
    def test_equals_the_factor_chain_for_every_ordering(self, t):
        fam, n = t.family, t.n
        elements = list(enumerate_group(fam, n))
        for c in itertools.permutations(range(1, n) if fam == "A" else range(n)):
            for w in elements:
                sw = so.c_sorting_word(w, c, fam)
                want = is_sortable_chain(so._sorting_word(w, c, fam))
                assert so._is_sortable(w, c, fam) == want
                assert so.is_c_sortable(w, c, fam) == want
                assert list(so._scan(w, c, fam)) == [(f, s) for f, factor in enumerate(sw.factors, 1) for s in factor]

    @pytest.mark.parametrize(
        "p,c_word,fam",
        [((1, 1), (1, 0), "B"), ((2, 3), (1,), "A"), ((1, -2), (1,), "A"), ((1, -2), (1, 0), "D"), ((2, 1), (1, 1), "A"), ((1.0, 2), (1,), "A")],
    )
    def test_public_form_still_checks(self, p, c_word, fam):
        with pytest.raises(ValueError):
            so.is_c_sortable(p, c_word, fam)
