import itertools
import re
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from coxcat import paths
from coxcat import rootposets as rp
from coxcat.cli import main
from coxcat.qseries import GroupType, QPoly, cat_number, gen_poly, q_binomial, qcat_a, qcat_product
from oracles import (
    cells_a,
    cells_b,
    check_dyck,
    conjugate_a,
    descent_set,
    is_dyck_a,
    is_dyck_b,
    monomial,
    neg_b,
    partition_of_path,
    path_from_partition,
    split_lower_upper,
    stat_counts_dfs,
    stat_counts_lists,
    substitute_power,
)


def oracle_area(word, family):
    """Column-based area scan, independent of the row-based implementation."""
    n = len(word) // 2
    east_positions = [p for p, c in enumerate(word) if c == "E"]
    total_n = word.count("N")
    area = 0
    jmax = lambda i: n - 1 if family == "A" else 2 * n - 1 - i
    for i in range(2 * n):
        if i < len(east_positions):
            height = word[: east_positions[i]].count("N")
        else:
            height = total_n
        for j in range(i + 1, jmax(i) + 1):
            if height >= j + 1:
                area += 1
    return area


def oracle_maj(word, weight_2n=True, order="NE"):
    rank = {order[0]: 0, order[1]: 1}
    total = 0
    for i in range(1, len(word)):
        if rank[word[i - 1]] > rank[word[i]]:
            total += (len(word) - i) if weight_2n else i
    return total


FIG_PATH_A8 = "NNENNEENENNENEEE"


class TestEnumerate:
    def test_counts(self):
        assert paths.enumerate_a(2) == ["NENE", "NNEE"]
        assert len(paths.enumerate_b(2)) == 6
        assert paths.enumerate_b(0) == [""]
        for n in range(7):
            cat = [1, 1, 2, 5, 14, 42, 132][n]
            assert len(paths.enumerate_a(n)) == cat
            assert len(set(paths.enumerate_a(n))) == cat
        for n in range(6):
            binom = [1, 2, 6, 20, 70, 252][n]
            assert len(paths.enumerate_b(n)) == binom
            assert len(set(paths.enumerate_b(n))) == binom

    def test_validators(self):
        assert paths.is_dyck_a("NNEE")
        assert not paths.is_dyck_a("NENN")
        assert paths.is_dyck_b("NENN")
        assert not paths.is_dyck_b("ENNN")
        with pytest.raises(ValueError):
            paths.area_a("NEN")

    def test_one_validator_matches_the_reference(self):
        # the public predicates and the per-word maj read the word once, through
        # ``_dyck_columns``; each agrees with the three-read reference ``check_dyck``
        words = ["".join(w) for k in range(11) for w in itertools.product("NE", repeat=k)]
        words += ["X", "NX", "NEX", "NNEEx", "nE", "N E", "NNEE\n", "NENE ", "NE-E"]
        refused = {"A": 0, "B": 0}
        for word in words:
            assert paths.is_dyck_a(word) == is_dyck_a(word)
            assert paths.is_dyck_b(word) == is_dyck_b(word)
            for family, maj in (("A", paths.maj_a), ("B", paths.maj_b)):
                try:
                    check_dyck(word, family)
                except ValueError as exc:
                    refused[family] += 1
                    with pytest.raises(ValueError) as got:
                        maj(word)
                    assert str(got.value) == str(exc)
                else:
                    assert maj(word) == (oracle_maj(word) if family == "A" else 2 * oracle_maj(word[::-1], weight_2n=False))
        assert 0 < refused["B"] < refused["A"] < len(words)


class TestCells:
    def test_figure_cells(self):
        want = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                (1, 3), (4, 6), (5, 7)}
        assert cells_a(FIG_PATH_A8) == frozenset(want)

    def test_extremes(self):
        n = 5
        full = "N" * n + "E" * n
        assert len(cells_a(full)) == n * (n - 1) // 2
        assert cells_a("NE" * n) == frozenset()

    def test_area_b_examples(self):
        assert paths.area_b("NNNN") == 4
        assert paths.area_b("NENE") == 0
        assert paths.area_b("NENN") == 1
        assert cells_b("NENN") == frozenset({(1, 2)})

    @pytest.mark.parametrize("n", range(7))
    def test_area_oracle_a(self, n):
        for w in paths.enumerate_a(n):
            assert paths.area_a(w) == oracle_area(w, "A")

    @pytest.mark.parametrize("n", range(5))
    def test_area_oracle_b(self, n):
        for w in paths.enumerate_b(n):
            assert paths.area_b(w) == oracle_area(w, "B")

    @pytest.mark.parametrize("n", range(6))
    def test_staircase_closure_and_round_trip(self, n):
        for w in paths.enumerate_a(n):
            cells = cells_a(w)
            for i, j in cells:
                if i + 1 < j:
                    assert (i + 1, j) in cells
                if j - 1 > i:
                    assert (i, j - 1) in cells
            if n >= 2:  # the cells name the roots of an ideal of A_{n-1}, whose path is w
                ideal = frozenset(rp.root_of_cell_a(c, n) for c in cells)
                assert rp.ideal_to_dyck(GroupType("A", n - 1), ideal) == w
        for w in paths.enumerate_b(n):
            cells = cells_b(w)
            for i, j in cells:
                if i + 1 < j and j <= 2 * n - 1 - (i + 1):
                    assert (i + 1, j) in cells
                if j - 1 > i:
                    assert (i, j - 1) in cells
            if n >= 1:
                ideal = frozenset(rp.root_of_cell_b(c, n) for c in cells)
                assert rp.ideal_to_dyck(GroupType("B", n), ideal) == w


class TestMaj:
    def test_maj_a_examples(self):
        assert paths.maj_a("NNNEEE") == 0
        # Des(NENENE) = {2, 4}; (6-2) + (6-4)
        assert paths.maj_a("NENENE") == 6
        assert descent_set("NNNEENNENNENENEEEE") == {5, 8, 11, 13}
        assert paths.maj_a("NNNEENNENNENENEEEE") == 35

    def test_maj_b_worked_example(self):
        word = "NENNENNNENNE"
        assert neg_b(word) == 4
        assert descent_set(word) == {2, 5, 9}
        assert paths.maj_b(word) == 48
        assert paths.maj_b("N" * 8) == 0
        # Des(NENN) = {2}: 2 * (1 + (4-2))
        assert paths.maj_b("NENN") == 6

    @pytest.mark.parametrize("n", range(6))
    def test_maj_b_reverse_formulation(self, n):
        # doubling the positional major index of the reversed word agrees
        for w in paths.enumerate_b(n):
            rev = w[::-1]
            assert paths.maj_b(w) == 2 * oracle_maj(rev, weight_2n=False)

    @pytest.mark.parametrize("n", range(7))
    def test_maj_oracle(self, n):
        for w in paths.enumerate_a(n):
            assert paths.maj_a(w) == oracle_maj(w)


def dyck_word(bits, family):
    """The type-``family`` Dyck word of len(bits) steps that steps north on a
    set bit whenever both steps are allowed, and otherwise takes the one allowed."""
    top = len(bits) // 2 if family == "A" else len(bits)
    word, norths = [], 0
    for k, bit in enumerate(bits):
        north = norths < top and (bit or 2 * norths == k)
        word.append("N" if north else "E")
        norths += north
    return "".join(word)


def cell_stats(word, family):
    """Area and maj from the cell and descent-set oracles."""
    weight = sum(len(word) - i for i in descent_set(word))
    if family == "A":
        return len(cells_a(word)), weight
    return len(cells_b(word)), 2 * (word.count("E") + weight)


class TestNorthColumnStats:
    """``area_*``/``maj_*`` read the north columns; the cell sets and descent sets are the oracles."""

    STATS = {"A": (paths.area_a, paths.maj_a), "B": (paths.area_b, paths.maj_b)}

    @pytest.mark.parametrize("family,n", [("A", n) for n in range(9)] + [("B", n) for n in range(7)])
    def test_every_word(self, family, n):
        area, maj = self.STATS[family]
        for w in paths.enumerate_a(n) if family == "A" else paths.enumerate_b(n):
            assert (area(w), maj(w)) == cell_stats(w, family)

    @given(st.sampled_from([("A", 30), ("B", 20)]).flatmap(
        lambda case: st.tuples(st.just(case[0]), st.lists(st.booleans(), min_size=2 * case[1], max_size=2 * case[1]))
    ))
    def test_random_words(self, case):
        family, bits = case
        word = dyck_word(bits, family)
        assert (paths.is_dyck_a if family == "A" else paths.is_dyck_b)(word)
        area, maj = self.STATS[family]
        assert (area(word), maj(word)) == cell_stats(word, family)


class TestConjugate:
    def test_examples(self):
        assert conjugate_a("NENE") == "NENE"
        assert conjugate_a("NNEE") == "NNEE"
        assert conjugate_a("NNEENE") == "NENNEE"

    @pytest.mark.parametrize("n", range(9))
    def test_involution_and_equidistribution(self, n):
        words = paths.enumerate_a(n)
        for w in words:
            assert conjugate_a(conjugate_a(w)) == w
        assert sorted(paths.maj_a(w) for w in words) == sorted(
            paths.maj_a(conjugate_a(w)) for w in words
        )


@lru_cache(maxsize=None)
def cached_area(family, n):
    return paths.area_polynomial(family, n)


class TestPolynomials:
    def test_examples(self):
        assert paths.area_polynomial("B", 2) == QPoly([1, 2, 1, 1, 1])
        assert paths.area_polynomial("A", 1) == QPoly([1])
        assert paths.maj_polynomial("B", 2) == qcat_product(GroupType("B", 2))

    def test_guards(self, capsys):
        # the path guard stands in front of these polynomials at the CLI, for paths and
        # for the ideals under them, which refuses A13 and B9; the polynomials answer there
        assert main(["poly", "--object", "dyck", "--stat", "area", "--type", "A", "--n", "13"]) == 2
        assert main(["poly", "--object", "dyck", "--stat", "maj", "--type", "B", "--n", "9"]) == 2
        assert main(["poly", "--object", "ideal", "--stat", "area", "--type", "A", "--n", "13"]) == 2
        assert main(["poly", "--object", "ideal", "--stat", "maj", "--type", "B", "--n", "9"]) == 2
        assert capsys.readouterr().err == 2 * (
            "error: path enumeration guarded at n <= 12 for type A\n"
            "error: path enumeration guarded at n <= 8 for type B\n"
        )
        assert paths.area_polynomial("A", 13)(1) == cat_number(GroupType("A", 12))
        assert paths.maj_polynomial("B", 9)(1) == cat_number(GroupType("B", 9))

    @pytest.mark.parametrize(
        "family,n", [("A", n) for n in range(1, 11)] + [("B", n) for n in range(1, 8)]
    )
    def test_one_pass_matches_per_word_statistics(self, family, n):
        # the per-word statistics over the enumerated words are the oracle for the tree fold
        words = paths.enumerate_a(n) if family == "A" else paths.enumerate_b(n)
        area, maj = (paths.area_a, paths.maj_a) if family == "A" else (paths.area_b, paths.maj_b)
        assert paths.area_polynomial(family, n) == gen_poly(map(area, words))
        assert paths.maj_polynomial(family, n) == gen_poly(map(maj, words))

    def test_empty_path_and_negative_n(self):
        assert paths.area_polynomial("A", 0) == paths.maj_polynomial("B", 0) == QPoly([1])
        with pytest.raises(ValueError, match="n must be >= 0"):
            paths.maj_polynomial("A", -1)
        with pytest.raises(ValueError, match="n must be >= 0"):
            paths.enumerate_a(-1)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "3", None, False, -1])
    def test_n_that_is_not_an_int_is_refused(self, n):
        # 2.5 would enumerate words that are no Dyck paths, and True would answer as n = 1
        for build in (paths.enumerate_a, paths.enumerate_b, lambda n: paths.area_polynomial("A", n), lambda n: paths.maj_polynomial("B", n)):
            with pytest.raises(ValueError, match=f"^n must be >= 0 and an int, got {re.escape(repr(n))}$"):
                build(n)

    @pytest.mark.parametrize("family,n", [("A", n) for n in range(13)] + [("B", n) for n in range(9)])
    def test_lattice_pass_matches_the_dfs(self, family, n):
        # the old depth-first pass, one leaf per path, is the oracle for both polynomials of the tree fold
        assert paths._stat_counts(family, n) == stat_counts_dfs(family, n)

    @pytest.mark.parametrize("family,n", [("A", n) for n in range(15)] + [("B", n) for n in range(11)])
    def test_packed_pass_matches_the_list_pass(self, family, n):
        # the step-by-step pass the tree fold replaced, on coefficient lists, is the oracle for the fold
        assert paths._stat_counts(family, n) == stat_counts_lists(family, n)

    @pytest.mark.parametrize("family,n", [("A", 6), ("B", 4)])
    def test_a_tree_short_of_a_child_fails_the_path_count(self, monkeypatch, family, n):
        # the fold reads the prefix tree, and the closed-form path count, not the tree, checks what it reads
        children, below = paths._path_tree(family, n)
        pruned = list(map(list, children))
        j = len(pruned) // 2
        pruned[j][0] = pruned[j][0][:-1]
        monkeypatch.setattr(paths, "_path_tree", lambda *args: (pruned, below))
        with pytest.raises(OverflowError, match="add up to"):
            paths._stat_counts(family, n)

    @pytest.mark.parametrize("family", ["D", "a", "X"])
    @pytest.mark.parametrize("n", [0, 3])
    def test_only_types_a_and_b_have_paths(self, family, n):
        for f in (paths.area_polynomial, paths.maj_polynomial, paths._row_columns):
            with pytest.raises(ValueError, match=f"no paths of type {family!r}"):
                f(family, n)

    @pytest.mark.parametrize("n", range(20))
    def test_area_recurrence_a(self, n):
        # Carlitz-Riordan: Cat_{n+1}(q) = sum q^k Cat_k(q) Cat_{n-k}(q), up to A n = 20
        lhs = cached_area("A", n + 1)
        rhs = QPoly()
        for k in range(n + 1):
            rhs = rhs + monomial(k) * cached_area("A", k) * cached_area("A", n - k)
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(15))
    def test_area_recurrence_b(self, n):
        lhs = cached_area("B", n)
        rhs = cached_area("A", n)
        for k in range(n):
            rhs = rhs + monomial(2 * k + 1) * cached_area("B", k) * cached_area("A", n - k)
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(21))
    def test_maj_generating_function_a(self, n):
        # MacMahon, past the CLI's path guard (A n <= 12) up to A n = 20
        assert paths.maj_polynomial("A", n) == qcat_a(n)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_maj_generating_function_b(self, n):
        # past the CLI's path guard (B n <= 8) up to B n = 14
        assert paths.maj_polynomial("B", n) == substitute_power(q_binomial(2 * n, n), 2)


class TestUnfold:
    def test_examples(self):
        assert paths.unfold_lattice_to_b("EN") == "NN"
        assert paths.unfold_lattice_to_b("NNEE") == "NNEE"
        fig_lattice = "NEENEENNENNE"
        assert paths.lattice_maj(fig_lattice) == 24
        assert paths.unfold_lattice_to_b(fig_lattice) == "NENNENNNENNE"
        assert paths.maj_b("NENNENNNENNE") == 2 * 24

    def test_malformed(self):
        with pytest.raises(ValueError):
            paths.unfold_lattice_to_b("NNE")

    @pytest.mark.parametrize("word", ["XYZ", "NEX", "NxE"])
    def test_lattice_maj_refuses_other_letters(self, word):
        with pytest.raises(ValueError, match=f"not an N/E word: '{word}'"):
            paths.lattice_maj(word)

    @given(st.integers(1, 6).flatmap(lambda n: st.permutations(list("N" * n + "E" * n))))
    def test_unfold_random_words(self, letters):
        w = "".join(letters)
        img = paths.unfold_lattice_to_b(w)
        assert is_dyck_b(img)
        assert paths.maj_b(img) == 2 * paths.lattice_maj(w)

    @pytest.mark.parametrize("n", range(6))
    def test_bijection_and_maj_relation(self, n):
        # every word of n N's and n E's, from the positions of its N steps
        words = sorted(
            "".join("N" if i in norths else "E" for i in range(2 * n))
            for norths in itertools.combinations(range(2 * n), n)
        )
        images = [paths.unfold_lattice_to_b(w) for w in words]
        assert len(set(images)) == len(words)
        assert sorted(images) == paths.enumerate_b(n)
        for w, img in zip(words, images):
            assert paths.maj_b(img) == 2 * paths.lattice_maj(w)


class TestSplit:
    def test_examples(self):
        assert split_lower_upper("NNNNEEENNNNE") == ("NNNNEEENNEEE", "NNE")
        assert split_lower_upper("NNEE") == ("NNEE", "")
        n = 3
        assert split_lower_upper("N" * 2 * n) == ("N" * n + "E" * n, "N" * n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_lower_part_is_dyck(self, n):
        for w in paths.enumerate_b(n):
            lower, upper = split_lower_upper(w)
            assert is_dyck_a(lower)
            assert lower[: len(w) - len(upper)] == w[: len(w) - len(upper)]


class TestPartitionCodec:
    def test_figure_partition(self):
        assert partition_of_path(FIG_PATH_A8) == (5, 4, 4, 3, 1, 1)
        assert path_from_partition((5, 4, 4, 3, 1, 1), 8) == FIG_PATH_A8

    @pytest.mark.parametrize("n", range(7))
    def test_round_trip_and_area(self, n):
        for w in paths.enumerate_a(n):
            lam = partition_of_path(w)
            assert path_from_partition(lam, n) == w
            assert len(cells_a(w)) == n * (n - 1) // 2 - sum(lam)
