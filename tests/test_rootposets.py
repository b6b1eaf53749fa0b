import random

import pytest

from coxcat import paths
from coxcat import rootposets as rp
from coxcat.cli import main
from coxcat.qseries import GroupType, QPoly, cat_number, gen_poly
from oracles import (
    cell_of_root_a,
    cell_of_root_b,
    check_partition_a,
    ideal_des,
    ideal_to_arc_partition_a,
    is_antichain,
    is_dyck_a,
    is_dyck_b,
    maximal_elements,
    not_ideal_message,
    refuse,
    root_poset,
    upper_covers,
)


A8_IDEAL = frozenset(
    rp.diff(a, b)
    for a, b in [
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
        (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (7, 9), (1, 4), (2, 5), (3, 6),
    ]
)


class TestRoots:
    def test_counts(self):
        assert len(rp.positive_roots(GroupType("A", 2))) == 3
        assert len(rp.positive_roots(GroupType("B", 2))) == 4
        assert len(rp.positive_roots(GroupType("B", 3))) == 9
        assert len(rp.positive_roots(GroupType("D", 4))) == 12

    def test_b2_covers(self):
        poset = root_poset(GroupType("B", 2))
        up = {
            rp.root_str(r): sorted(rp.root_str(poset.roots[j]) for j in upper_covers(poset)[poset.index[r]])
            for r in poset.roots
        }
        assert up == {
            "e1": ["e2"],
            "e2-e1": ["e2"],
            "e2": ["e1+e2"],
            "e1+e2": [],
        }

    def test_b3_highest(self):
        roots = rp.positive_roots(GroupType("B", 3))
        assert rp.root_str(roots[-1]) == "e2+e3"
        assert rp.root_height(roots[-1], "B") == 5

    def test_str_round_trip(self):
        for t in [GroupType("A", 3), GroupType("B", 3), GroupType("D", 4)]:
            for r in rp.positive_roots(t):
                assert rp.parse_root(rp.root_str(r)) == r
        with pytest.raises(ValueError):
            rp.parse_root("x1")


class TestIdeals:
    def test_counts_small(self):
        assert len(rp.ideals(GroupType("A", 1))) == 2
        assert len(rp.ideals(GroupType("B", 2))) == 6
        assert len(rp.ideals(GroupType("D", 4))) == 50

    @pytest.mark.parametrize("rank", range(1, 9))
    def test_counts_match_catalan_a(self, rank):
        assert len(rp.ideals(GroupType("A", rank))) == cat_number(GroupType("A", rank))

    @pytest.mark.parametrize("rank", range(2, 6))
    def test_counts_match_catalan_b(self, rank):
        assert len(rp.ideals(GroupType("B", rank))) == cat_number(GroupType("B", rank))

    def test_guard(self, capsys, monkeypatch):
        # the CLI refuses A10's ideals before it enumerates any
        refuse(monkeypatch, "ideals")
        assert main(["enumerate", "--object", "ideal", "--type", "A", "--n", "11"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ideal enumeration guarded at rank 9 for type A\n"

    def test_all_downward_closed_and_unique(self):
        t = GroupType("B", 3)
        poset = root_poset(t)
        ideals = rp.ideals(t)
        assert len(set(ideals)) == len(ideals)
        for ideal in ideals:
            assert poset.is_ideal(ideal)

    def test_antichain_round_trip(self):
        for t in [GroupType("A", 4), GroupType("B", 3), GroupType("D", 4)]:
            poset = root_poset(t)
            for ideal in rp.ideals(t):
                maximal = maximal_elements(poset, ideal)
                assert is_antichain(poset, maximal)
                assert poset.ideal_from_antichain(maximal) == ideal


class TestMaskPoset:
    """The bitmask poset against the frozenset ``RootPoset`` of the oracles."""

    @pytest.mark.parametrize(
        "t",
        [GroupType("A", r) for r in range(1, 8)]
        + [GroupType("B", r) for r in range(1, 6)]
        + [GroupType("D", r) for r in range(2, 7)],
        ids=str,
    )
    def test_covers_and_ideals_match_the_oracle(self, t):
        oracle = root_poset(t)
        roots, below = rp._poset(t)
        assert roots == tuple(oracle.roots)
        assert below == tuple(sum(1 << k for k in covers) for covers in oracle.lower_covers)
        got, want = rp.ideals(t), oracle.ideals()
        assert len(got) == len(set(got)) == len(want)
        assert set(got) == set(want)

    @pytest.mark.parametrize("rank", range(2, 9))
    def test_type_d_cat_q_counts_the_ideals(self, rank):
        t = GroupType("D", rank)
        assert rp.cat_q(t)(1) == cat_number(t)

    @pytest.mark.parametrize("t", [GroupType("A", 4), GroupType("B", 4)], ids=str)
    def test_not_ideal_message_matches_the_oracle(self, t):
        rng = random.Random(20081)
        oracle = root_poset(t)
        checked = 0
        while checked < 300:
            rs = frozenset(rng.sample(oracle.roots, rng.randint(1, len(oracle.roots))))
            if oracle.is_ideal(rs):
                continue
            want = not_ideal_message(t, rs)
            assert rp._not_ideal_message(t, rs) == want
            with pytest.raises(ValueError) as exc:
                rp.ideal_row_starts(t, rs)
            assert str(exc.value) == want
            checked += 1


class TestCatQ:
    def test_b2_example(self):
        assert rp.cat_q(GroupType("B", 2)) == QPoly([1, 2, 1, 1, 1])

    def test_a1(self):
        assert rp.cat_q(GroupType("A", 1)) == QPoly([1, 1])

    def test_a7_contribution(self):
        # the worked 10-root ideal contributes q^10
        word = "NNENNEENENNENEEE"
        t = GroupType("A", 7)
        ideal = rp.dyck_to_ideal(t, word)
        assert len(ideal) == 10

    @pytest.mark.parametrize("rank", range(1, 8))
    def test_matches_area_polynomial_a(self, rank):
        assert rp.cat_q(GroupType("A", rank)) == paths.area_polynomial("A", rank + 1)

    @pytest.mark.parametrize("rank", range(2, 6))
    def test_matches_area_polynomial_b(self, rank):
        assert rp.cat_q(GroupType("B", rank)) == paths.area_polynomial("B", rank)


    @pytest.mark.parametrize(
        "t", [GroupType("A", r) for r in range(1, 9)] + [GroupType("B", r) for r in range(1, 7)], ids=str
    )
    def test_matches_ideal_sizes(self, t):
        # the frozenset recursion is the oracle for the one-pass route
        assert rp.cat_q(t) == gen_poly(map(len, rp.ideals(t)))

    def test_type_d_enumerates_ideals(self):
        t = GroupType("D", 4)
        assert rp.cat_q(t) == gen_poly(map(len, rp.ideals(t)))
        assert rp.cat_q(t)(1) == cat_number(t)

    def test_guard(self, capsys, monkeypatch):
        # Cat(W, q) past its guard: the CLI's poly refuses it before cat_q or the path pass
        # runs; A/B ideals answer to the path guard, type-D ideals to the ideal mask guard
        refuse(monkeypatch, "cat_q")
        refuse(monkeypatch, "_stat_counts")
        for family, n in (("A", 13), ("B", 9), ("D", 10)):
            assert main(["poly", "--object", "ideal", "--stat", "area", "--type", family, "--n", str(n)]) == 2
        assert capsys.readouterr().err == (
            "error: path enumeration guarded at n <= 12 for type A\n"
            "error: path enumeration guarded at n <= 8 for type B\n"
            "error: ideal mask enumeration guarded at rank 9 for type D\n"
        )


class TestCellDictionary:
    def test_b_examples(self):
        assert rp.root_of_cell_b((0, 1), 3) == rp.diff(2, 3)
        assert rp.root_of_cell_b((2, 3), 3) == rp.short(1)
        assert rp.root_of_cell_b((1, 4), 3) == rp.sum_root(1, 2)
        assert cell_of_root_b(rp.sum_root(1, 2), 3) == (1, 4)

    def test_invalid_cell(self):
        with pytest.raises(ValueError):
            rp.root_of_cell_b((2, 5), 3)
        with pytest.raises(ValueError):
            rp.root_of_cell_a((1, 3), 3)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_b_cell_poset_isomorphism(self, n):
        """Cover-preserving bijection between cells and the B_n root poset."""
        t = GroupType("B", n)
        poset = root_poset(t)
        cells = [(i, j) for i in range(n) for j in range(i + 1, 2 * n - i)]
        assert len(cells) == len(poset.roots) == n * n
        for r in poset.roots:
            assert rp.root_of_cell_b(cell_of_root_b(r, n), n) == r

        def cell_covers(c):  # covers within the staircase region
            i, j = c
            out = []
            if j - 1 > i:
                out.append((i, j - 1))
            if i + 1 < j and j <= 2 * n - 1 - (i + 1):
                out.append((i + 1, j))
            return out  # cells covered BY c

        for c in cells:
            r = rp.root_of_cell_b(c, n)
            below_cells = {rp.root_of_cell_b(d, n) for d in cell_covers(c)}
            idx = poset.index[r]
            below_roots = {poset.roots[k] for k in poset.lower_covers[idx]}
            assert below_cells == below_roots

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_ideal_dyck_round_trip_a(self, rank):
        t = GroupType("A", rank)
        n = t.n
        seen = set()
        for ideal in rp.ideals(t):
            word = rp.ideal_to_dyck(t, ideal)
            assert is_dyck_a(word)
            assert paths.area_a(word) == len(ideal)
            assert rp.dyck_to_ideal(t, word) == ideal
            seen.add(word)
        assert seen == set(paths.enumerate_a(n))

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_ideal_dyck_round_trip_b(self, rank):
        t = GroupType("B", rank)
        seen = set()
        for ideal in rp.ideals(t):
            word = rp.ideal_to_dyck(t, ideal)
            assert is_dyck_b(word)
            assert paths.area_b(word) == len(ideal)
            assert rp.dyck_to_ideal(t, word) == ideal
            seen.add(word)
        assert seen == set(paths.enumerate_b(rank))

    def test_pinned_paths(self):
        t = GroupType("B", 2)
        assert rp.ideal_to_dyck(t, frozenset()) == "NENE"
        assert rp.ideal_to_dyck(t, frozenset(rp.positive_roots(t))) == "NNNN"
        assert rp.ideal_to_dyck(t, frozenset([rp.short(1)])) == "NENN"
        ta = GroupType("A", 3)
        assert rp.ideal_to_dyck(ta, frozenset()) == "NENENENE"
        assert rp.ideal_to_dyck(ta, frozenset(rp.positive_roots(ta))) == "NNNNEEEE"


class TestRowStarts:
    RANKS = [("A", r) for r in range(1, 7)] + [("B", r) for r in range(1, 6)]

    @pytest.mark.parametrize("fam,rank", RANKS)
    def test_planar_cells_match_dictionary(self, fam, rank):
        t = GroupType(fam, rank)
        n = t.n
        cell_of, rows, caps = rp.planar_cells(t)
        assert caps == paths._caps(fam, n)
        assert caps == (tuple(range(n)) if fam == "A" else tuple(min(j, 2 * n - j) for j in range(2 * n)))
        assert set(cell_of) == set(rp.positive_roots(t))
        assert [len(row) for row in rows] == list(caps)
        to_cell = cell_of_root_a if fam == "A" else cell_of_root_b
        for r, (i, j) in cell_of.items():
            assert to_cell(r, n) == (i, j)
            assert rows[j][i] == r

    @pytest.mark.parametrize("fam,rank", RANKS)
    def test_covers_are_up_a_row_and_left_a_column(self, fam, rank):
        t = GroupType(fam, rank)
        poset = root_poset(t)
        cell_of, rows, caps = rp.planar_cells(t)
        for r, (i, j) in cell_of.items():
            above = {
                rows[b][a]
                for a, b in [(i, j + 1), (i - 1, j)]
                if 0 <= a and b < len(caps) and a < caps[b]
            }
            assert above == {poset.roots[k] for k in upper_covers(poset)[poset.index[r]]}

    @pytest.mark.parametrize("fam,rank", RANKS)
    def test_round_trip(self, fam, rank):
        t = GroupType(fam, rank)
        rows = rp.planar_cells(t).rows
        for ideal in rp.ideals(t):
            x = rp.ideal_row_starts(t, ideal)
            assert frozenset(r for row, start in zip(rows, x) for r in row[start:]) == ideal
            if fam == "A":
                assert x == paths._dyck_columns(rp.ideal_to_dyck(t, ideal), "A")

    def test_rejects_type_d(self):
        with pytest.raises(ValueError, match="type D"):
            rp.ideal_row_starts(GroupType("D", 4), frozenset())
        with pytest.raises(ValueError, match="maj is undefined for type-D ideals"):
            rp.ideal_maj(GroupType("D", 4), frozenset())

    def test_repeated_roots_rejected(self):
        t = GroupType("A", 2)
        with pytest.raises(ValueError, match="not a set of distinct roots of A2"):
            rp.ideal_row_starts(t, [rp.diff(1, 2), rp.diff(1, 2)])


class TestCodecRejects:
    """The ideal/path codec refuses what is not an ideal or a type-t Dyck word."""

    @pytest.mark.parametrize("fn", [rp.ideal_to_dyck, rp.ideal_maj, ideal_des, rp.lift_delta])
    def test_non_ideal_names_its_missing_cover(self, fn):
        with pytest.raises(ValueError, match="it holds e3-e1 but not e2-e1"):
            fn(GroupType("A", 2), frozenset([rp.diff(1, 3)]))

    def test_non_ideal_b(self):
        with pytest.raises(ValueError, match="not an order ideal of B3"):
            rp.ideal_to_dyck(GroupType("B", 3), frozenset([rp.sum_root(1, 2)]))

    @pytest.mark.parametrize(
        "fam,rank,word", [("A", 3, "NENE"), ("A", 3, "NNEE"), ("A", 3, "NNNNNEEEEE"), ("B", 3, "NNNN")]
    )
    def test_dyck_word_of_the_wrong_length(self, fam, rank, word):
        with pytest.raises(ValueError, match=f"has {len(word)} steps"):
            rp.dyck_to_ideal(GroupType(fam, rank), word)

    def test_non_dyck_word(self):
        with pytest.raises(ValueError, match="not a type-A Dyck word"):
            rp.dyck_to_ideal(GroupType("A", 3), "NNEENEEN")


class TestIdealStatistics:
    def test_worked_example(self):
        t = GroupType("A", 8)
        assert ideal_des(t, A8_IDEAL) == {5, 8, 11, 13}
        assert rp.ideal_maj(t, A8_IDEAL) == 35
        # the empty ideal maps to (NE)^n, whose descents at 2,4,...,2n-2 give n(n-1);
        # this is what the maj identity requires, since phi(empty) is the identity
        assert rp.ideal_maj(t, frozenset()) == 72
        assert rp.ideal_maj(GroupType("A", 1), frozenset(rp.positive_roots(GroupType("A", 1)))) == 0

    def test_lift_worked_examples(self):
        t = GroupType("A", 8)
        lifted = rp.lift_delta(t, A8_IDEAL)
        t10 = GroupType("A", 9)
        assert ideal_des(t10, lifted) == {6, 9, 12, 14}
        assert rp.ideal_maj(t10, lifted) == 39
        assert len(lifted) == len(A8_IDEAL) + 9

    def test_lift_checks_its_output(self, monkeypatch):
        # a lift that loses a root below another is caught, naming the pair
        t = GroupType("A", 2)
        rows = rp._ideal_of_rows
        monkeypatch.setattr(rp, "_ideal_of_rows", lambda t, x: rows(t, x) - {rp.diff(1, 2)})
        with pytest.raises(AssertionError, match="^lift produced a non-ideal: .* holds e3-e1 but not e2-e1$"):
            rp.lift_delta(t, frozenset(rp.positive_roots(t)))

    def test_lift_empty_a1(self):
        t = GroupType("A", 1)
        lifted = rp.lift_delta(t, frozenset())
        assert lifted == frozenset([rp.diff(1, 2), rp.diff(2, 3)])

    def test_lift_b_bottom_rows(self):
        t = GroupType("B", 2)
        lifted = rp.lift_delta(t, frozenset())
        # the two bottom diagonals of B_3: heights 1 and 2
        assert lifted == frozenset(
            r for r in rp.positive_roots(GroupType("B", 3)) if rp.root_height(r, "B") <= 2
        )

    @pytest.mark.parametrize("fam,rank", [("A", 4), ("B", 3)])
    def test_lift_is_injective_ideal_map(self, fam, rank):
        t = GroupType(fam, rank)
        big = GroupType(fam, rank + 1)
        poset = root_poset(big)
        images = set()
        shift = 1 if fam == "A" else 2
        bottom = len(rp.positive_roots(big)) - len(rp.positive_roots(t)) if fam == "A" else None
        for ideal in rp.ideals(t):
            lifted = rp.lift_delta(t, ideal)
            assert poset.is_ideal(lifted)
            images.add(lifted)
            if fam == "A":
                assert len(lifted) == len(ideal) + big.n - 1
            else:
                assert len(lifted) == len(ideal) + 2 * big.n - 1
        assert len(images) == len(rp.ideals(t))


class TestArcPartition:
    def test_figure(self):
        t = GroupType("A", 7)
        ideal = rp.dyck_to_ideal(t, "NNENNEENENNENEEE")
        want = frozenset(
            [frozenset({1, 3}), frozenset({2, 4, 5, 7, 8}), frozenset({6})]
        )
        assert ideal_to_arc_partition_a(t, ideal) == want

    def test_extremes(self):
        t = GroupType("A", 4)
        singletons = frozenset(frozenset({i}) for i in range(1, 6))
        assert ideal_to_arc_partition_a(t, frozenset()) == singletons
        bottom = frozenset(rp.diff(i, i + 1) for i in range(1, 5))
        assert ideal_to_arc_partition_a(t, bottom) == frozenset([frozenset(range(1, 6))])

    def test_nonnesting_and_counted(self):
        t = GroupType("A", 4)
        seen = set()
        for ideal in rp.ideals(t):
            part = ideal_to_arc_partition_a(t, ideal)
            check_partition_a(part, 5)
            # non-nesting: no arcs a<b<c<d with a,d adjacent in one block and b,c in another
            arcs = []
            for block in part:
                vals = sorted(block)
                arcs += list(zip(vals, vals[1:]))
            for a, d in arcs:
                for b, c in arcs:
                    if a < b and b < c and c < d:
                        assert False, "nesting found"
            seen.add(part)
        assert len(seen) == cat_number(t)


class TestSerialization:
    def test_ideal_json(self):
        t = GroupType("B", 2)
        ideal = frozenset([rp.short(1), rp.diff(1, 2)])
        data = rp.ideal_to_json(ideal)
        assert data == {"roots": ["e1", "e2-e1"]}
        assert rp.ideal_from_json(data) == ideal

    def test_ideal_from_json_accepts_a_bare_list(self):
        assert rp.ideal_from_json(["e1", "e2-e1"]) == frozenset([rp.short(1), rp.diff(1, 2)])

    @pytest.mark.parametrize(
        "data,repeat", [({"roots": ["e1", "e2-e1", "e1"]}, "e1"), (["e2 - e1", "e1", "e2-e1", "e1"], "e2-e1")]
    )
    def test_ideal_from_json_rejects_a_repeated_root(self, data, repeat):
        with pytest.raises(ValueError, match=f"^root '{repeat}' is repeated$"):
            rp.ideal_from_json(data)

    @pytest.mark.parametrize("data", [{"root": ["e1"]}, {"roots": "e1"}, [1, 2], "e1", None, ["e1", 2]])
    def test_ideal_from_json_rejects_other_shapes(self, data):
        with pytest.raises(ValueError, match="expected a list of root strings"):
            rp.ideal_from_json(data)
