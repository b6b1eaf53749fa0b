from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from coxcat import paths
from coxcat import rootposets as rp
from coxcat.qseries import GroupType, QPoly, SizeGuardError, gen_poly, q_binomial, qcat_a, qcat_product
from oracles import (
    conjugate_a,
    monomial,
    neg_b,
    partition_of_path,
    path_from_partition,
    split_lower_upper,
    stat_counts_dfs,
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
            paths.cells_a("NEN")


class TestCells:
    def test_figure_cells(self):
        want = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                (1, 3), (4, 6), (5, 7)}
        assert paths.cells_a(FIG_PATH_A8) == frozenset(want)

    def test_extremes(self):
        n = 5
        full = "N" * n + "E" * n
        assert len(paths.cells_a(full)) == n * (n - 1) // 2
        assert paths.cells_a("NE" * n) == frozenset()

    def test_area_b_examples(self):
        assert paths.area_b("NNNN") == 4
        assert paths.area_b("NENE") == 0
        assert paths.area_b("NENN") == 1
        assert paths.cells_b("NENN") == frozenset({(1, 2)})

    @pytest.mark.parametrize("n", range(7))
    def test_area_oracle_a(self, n):
        for w in paths.enumerate_a(n):
            assert len(paths.cells_a(w)) == oracle_area(w, "A")

    @pytest.mark.parametrize("n", range(5))
    def test_area_oracle_b(self, n):
        for w in paths.enumerate_b(n):
            assert len(paths.cells_b(w)) == oracle_area(w, "B")

    @pytest.mark.parametrize("n", range(6))
    def test_staircase_closure_and_round_trip(self, n):
        for w in paths.enumerate_a(n):
            cells = paths.cells_a(w)
            for i, j in cells:
                if i + 1 < j:
                    assert (i + 1, j) in cells
                if j - 1 > i:
                    assert (i, j - 1) in cells
            if n >= 2:  # the cells name the roots of an ideal of A_{n-1}, whose path is w
                ideal = frozenset(rp.root_of_cell_a(c, n) for c in cells)
                assert rp.ideal_to_dyck(GroupType("A", n - 1), ideal) == w
        for w in paths.enumerate_b(n):
            cells = paths.cells_b(w)
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
        assert paths.descent_set("NNNEENNENNENENEEEE") == {5, 8, 11, 13}
        assert paths.maj_a("NNNEENNENNENENEEEE") == 35

    def test_maj_b_worked_example(self):
        word = "NENNENNNENNE"
        assert neg_b(word) == 4
        assert paths.descent_set(word) == {2, 5, 9}
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
def area_unguarded(family, n):
    return paths.area_polynomial(family, n, unsafe=True)


class TestPolynomials:
    def test_examples(self):
        assert paths.area_polynomial("B", 2) == QPoly([1, 2, 1, 1, 1])
        assert paths.area_polynomial("A", 1) == QPoly([1])
        assert paths.maj_polynomial("B", 2) == qcat_product(GroupType("B", 2))

    def test_guards(self):
        with pytest.raises(SizeGuardError):
            paths.area_polynomial("A", 13)
        with pytest.raises(SizeGuardError):
            paths.maj_polynomial("B", 9)

    @pytest.mark.parametrize(
        "family,n", [("A", n) for n in range(1, 11)] + [("B", n) for n in range(1, 8)]
    )
    def test_one_pass_matches_per_word_statistics(self, family, n):
        # the per-word statistics over the enumerated words are the oracle for the lattice-point pass
        words = paths.enumerate_a(n) if family == "A" else paths.enumerate_b(n)
        area, maj = (paths.area_a, paths.maj_a) if family == "A" else (paths.area_b, paths.maj_b)
        assert paths.area_polynomial(family, n) == gen_poly(map(area, words))
        assert paths.maj_polynomial(family, n) == gen_poly(map(maj, words))

    def test_empty_path_and_negative_n(self):
        assert paths.area_polynomial("A", 0) == paths.maj_polynomial("B", 0) == QPoly([1])
        with pytest.raises(ValueError, match="n must be >= 0"):
            paths.maj_polynomial("A", -1)

    @pytest.mark.parametrize("family,n", [("A", n) for n in range(13)] + [("B", n) for n in range(9)])
    def test_lattice_pass_matches_the_dfs(self, family, n):
        # the old depth-first pass, one leaf per path, is the oracle for both polynomials
        assert paths._stat_counts(family, n) == stat_counts_dfs(family, n)

    @pytest.mark.parametrize("n", range(20))
    def test_area_recurrence_a(self, n):
        # Carlitz-Riordan: Cat_{n+1}(q) = sum q^k Cat_k(q) Cat_{n-k}(q), up to A n = 20
        lhs = area_unguarded("A", n + 1)
        rhs = QPoly()
        for k in range(n + 1):
            rhs = rhs + monomial(k) * area_unguarded("A", k) * area_unguarded("A", n - k)
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(15))
    def test_area_recurrence_b(self, n):
        lhs = area_unguarded("B", n)
        rhs = area_unguarded("A", n)
        for k in range(n):
            rhs = rhs + monomial(2 * k + 1) * area_unguarded("B", k) * area_unguarded("A", n - k)
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(21))
    def test_maj_generating_function_a(self, n):
        # MacMahon, past the path guard (A n <= 12) up to A n = 20
        assert paths.maj_polynomial("A", n, unsafe=True) == qcat_a(n)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_maj_generating_function_b(self, n):
        # past the path guard (B n <= 8) up to B n = 14
        assert paths.maj_polynomial("B", n, unsafe=True) == substitute_power(q_binomial(2 * n, n), 2)


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

    @given(st.integers(1, 6).flatmap(lambda n: st.permutations(list("N" * n + "E" * n))))
    def test_unfold_random_words(self, letters):
        w = "".join(letters)
        img = paths.unfold_lattice_to_b(w)
        assert paths.is_dyck_b(img)
        assert paths.maj_b(img) == 2 * paths.lattice_maj(w)

    @pytest.mark.parametrize("n", range(6))
    def test_bijection_and_maj_relation(self, n):
        from itertools import permutations

        words = sorted(set("".join(p) for p in permutations("N" * n + "E" * n)))
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
            assert paths.is_dyck_a(lower)
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
            assert len(paths.cells_a(w)) == n * (n - 1) // 2 - sum(lam)
