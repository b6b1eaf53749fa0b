import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from coxcat import bijmaps as bm
from coxcat import noncrossing as nc
from coxcat import paths
from coxcat import rootposets as rp
from coxcat import signedperm as sp
from coxcat import sortable as so
from coxcat.noncrossing import rev_nc
from coxcat.qseries import GroupType, cat_number
from coxcat.sortable import SortingWord, c_sorting_word, enumerate_sortables
from oracles import (
    _span_cycles,
    cells_a,
    cells_b,
    check_dyck,
    des,
    enumerate_group,
    group_order,
    ideal_des,
    ides,
    ides_set,
    inv_word,
    is_antichain,
    is_sortable_chain,
    letters,
    leq,
    maximal_elements,
    north_columns,
    phi_inverse_table,
    phi_rows_spans,
    psi_inverse_table,
    refuse,
    root_poset,
    row_stream,
    split_lower_upper,
    stats,
    verify_phi_theorems_frozensets,
    verify_phi_theorems_rows,
    verify_psi_theorems_rows,
    verify_psi_theorems_words,
)


A8_IDEAL = frozenset(
    rp.diff(a, b)
    for a, b in [
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
        (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (7, 9), (1, 4), (2, 5), (3, 6),
    ]
)

B4_IDEAL_ANTICHAIN = [rp.diff(1, 4), rp.short(1)]


def b4_ideal():
    return root_poset(GroupType("B", 4)).ideal_from_antichain(B4_IDEAL_ANTICHAIN)


# -- oracles: the frozenset shelling loop and the per-diagonal psi scans --------
#
# A root unfolds to one or two intervals over the signed baseline
# -n < ... < -1 < 1 < ... < n:
#
#   diff(a, b)  -> (a, b) and (-b, -a),
#   short(b)    -> (-1, b) and (-b, 1),
#   sum(a, b)   -> (-(a+1), b) and (-b, a+1),
#
# where coinciding mirror images (the right-boundary roots) collapse to a
# single symmetric interval.  A shell's intervals, sorted by left endpoint,
# are read into cycles as ``oracles._span_cycles`` does.


def _unfold_spans_oracle(root, family):
    if family == "A":
        return {(root[1], root[2])}
    if root[0] == "diff":
        return {(root[1], root[2]), (-root[2], -root[1])}
    if root[0] == "short":
        return {(-1, root[1]), (-root[1], 1)}
    a, b = root[1], root[2]
    return {(-(a + 1), b), (-b, a + 1)}


def _spans_oracle(maximal, family):
    return sorted(span for r in maximal for span in _unfold_spans_oracle(r, family))


def shell_cycles_oracle(maximal, family):
    spans = _spans_oracle(maximal, family)
    if any(a[0] >= b[0] or a[1] >= b[1] for a, b in zip(spans, spans[1:])):
        raise ValueError("not an antichain: nested or repeated spans")
    blocks = []
    for span in spans:
        if blocks and blocks[-1][-1][1] >= span[0]:
            blocks[-1].append(span)
        else:
            blocks.append([span])
    cycles = []
    for block in blocks:
        seq = [block[0][0]]
        for prev, cur in zip(block, block[1:]):
            if cur[0] == prev[1]:
                seq.append(cur[0])
        seq.append(block[-1][1])
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise ValueError("block endpoints are not increasing")
        if seq[0] == -seq[-1]:
            if set(seq) != {-v for v in seq}:
                raise ValueError("fold block is not symmetric")
            positives = [v for v in seq if v > 0]
            cycles.append(tuple(positives) + (-positives[0],))
        elif seq[0] > 0:
            cycles.append(tuple(seq))
        elif seq[-1] >= 0:
            raise ValueError("asymmetric block straddling the fold")
    return tuple(cycles)


def strip_ideal(t, ideal):
    """Shrink every cell (i, j) with j - i > 2 to (i+1, j-1); drop the rest."""
    cell_of, rows, _ = rp.planar_cells(t)
    try:
        cells = [cell_of[r] for r in ideal]
    except KeyError as exc:
        raise ValueError(f"{rp.root_str(exc.args[0])} is not a positive root of {t.family}{t.rank}") from None
    return frozenset(rows[j - 1][i + 1] for i, j in cells if j - i > 2)


def phi_oracle(t, ideal):
    """Shell by frozensets: the maximal elements, then strip_ideal, until empty."""
    poset = root_poset(t)
    cycles = []
    cur = ideal
    while cur:
        cycles.extend(shell_cycles_oracle(maximal_elements(poset, cur), t.family))
        cur = strip_ideal(t, cur)
    return sp.from_cycles(cycles, t.n)


def psi_a_oracle(word):
    """Rescan the cell set once per diagonal."""
    n = len(word) // 2
    cells = cells_a(word)
    factors = []
    for f in range(1, n):
        diag = sorted((i, j) for i, j in cells if j - i == f)
        if not diag:
            break
        factors.append(tuple(n - 1 - i for i, _ in diag))
    sw = SortingWord(tuple(factors))
    return sp.word_to_perm(letters(sw), n, "A"), sw


def psi_b_oracle(word):
    n = len(word) // 2
    ordered = sorted(cells_b(word))
    factors = []
    for f in range(1, 2 * n):
        factor = [n - 1 - i for i, j in ordered if j < n and j - i == f]
        factor += [2 * n - 1 - i - j for i, j in ordered if j >= n and i == n - f]
        if not factor:
            break
        factors.append(tuple(factor))
    sw = SortingWord(tuple(factors))
    return sp.word_to_perm(letters(sw), n, "B"), sw


def _words_up_to(length):
    return ["".join(w) for k in range(length + 1) for w in itertools.product("NE", repeat=k)]


FOREIGN_WORDS = ["X", "NX", "NEX", "NNEEx", "nE", "N E", "NNEE\n", "NENE ", "NE-E"]


class TestOnePassDyckReader:
    """``psi_a``/``psi_b``/``dyck_to_ideal`` read a word once, through
    ``paths._dyck_columns``; each must refuse what ``oracles.check_dyck`` refuses,
    with its message, and otherwise give what the check-then-read route gave."""

    WORDS = _words_up_to(10) + FOREIGN_WORDS

    @pytest.mark.parametrize("fam", ["A", "B"])
    def test_psi(self, fam):
        psi = bm.psi_a if fam == "A" else bm.psi_b

        def check_then_read(word):
            n = check_dyck(word, fam)
            return bm._psi(north_columns(word), n, fam)

        refused = 0
        for word in self.WORDS:
            want = _outcome(check_then_read, word)
            assert _outcome(psi, word) == want
            refused += want[0] == "ValueError"
        assert 0 < refused < len(self.WORDS)

    @pytest.mark.parametrize("t", [GroupType("A", r) for r in range(1, 5)] + [GroupType("B", r) for r in range(1, 6)], ids=str)
    def test_dyck_to_ideal(self, t):
        def check_then_read(word):
            if check_dyck(word, t.family) != t.n:
                raise ValueError(f"{word!r} has {len(word)} steps, but {t.family}{t.rank} needs {2 * t.n}")
            return rp._ideal_of_rows(t, north_columns(word))

        read = 0
        for word in self.WORDS:
            want = _outcome(check_then_read, word)
            assert _outcome(rp.dyck_to_ideal, t, word) == want
            read += isinstance(want, frozenset)
        assert read == (cat_number(t) if t.family == "A" else len(paths.enumerate_b(t.n)))


class TestShellCycles:
    def test_a_worked_example(self):
        maximal = [rp.diff(1, 4), rp.diff(2, 5), rp.diff(3, 6), rp.diff(5, 7), rp.diff(7, 9)]
        assert shell_cycles_oracle(maximal, "A") == ((1, 7, 9),)

    def test_b_worked_example(self):
        assert shell_cycles_oracle([rp.diff(1, 4), rp.short(1)], "B") == ((1, 4, -1),)

    def test_b_strict_overlap_through_fold(self):
        # pinned by the oracle suite: the unique choice keeping l_S = area
        assert shell_cycles_oracle([rp.short(2), rp.diff(1, 4)], "B") == ((4, -4),)

    def test_two_short_sum_roots(self):
        # {e_3, e_1+e_2} is an antichain in B_3 with two fold-touching roots
        assert shell_cycles_oracle([rp.short(3), rp.sum_root(1, 2)], "B") == ((3, -3),)

    def test_touching_chains(self):
        # [5,7] and [7,9] touch, so 7 is a chain point; [1,4]..[3,6] overlap strictly
        maximal = [rp.diff(2, 3), rp.diff(3, 4), rp.diff(4, 5)]
        assert shell_cycles_oracle(maximal, "A") == ((2, 3, 4, 5),)

    def test_split_blocks(self):
        maximal = [rp.diff(1, 2), rp.diff(3, 4)]
        assert shell_cycles_oracle(maximal, "A") == ((1, 2), (3, 4))

    def test_nested_rejected(self):
        with pytest.raises(ValueError):
            shell_cycles_oracle([rp.diff(1, 4), rp.diff(2, 3)], "A")


class TestStrip:
    def test_a_worked_example(self):
        t = GroupType("A", 8)
        got = strip_ideal(t, A8_IDEAL)
        assert got == frozenset([rp.diff(2, 3), rp.diff(3, 4), rp.diff(4, 5)])

    def test_low_ideals_empty(self):
        t = GroupType("A", 4)
        low = frozenset([rp.diff(1, 2), rp.diff(1, 3)])
        assert strip_ideal(t, low) == frozenset()

    def test_full_b3(self):
        t = GroupType("B", 3)
        full = frozenset(rp.positive_roots(t))
        assert strip_ideal(t, full) == frozenset(
            [rp.diff(1, 2), rp.short(1), rp.short(2), rp.sum_root(1, 2)]
        )

    def test_root_outside_the_rank(self):
        with pytest.raises(ValueError, match="e9-e1 is not a positive root of A2"):
            strip_ideal(GroupType("A", 2), frozenset([rp.diff(1, 9)]))

    @pytest.mark.parametrize("fam,rank", [("A", 5), ("B", 4)])
    def test_strip_yields_ideals(self, fam, rank):
        t = GroupType(fam, rank)
        poset = root_poset(t)
        for ideal in rp.ideals(t):
            assert poset.is_ideal(strip_ideal(t, ideal))


class TestPhi:
    def test_a8_worked_example(self):
        t = GroupType("A", 8)
        sigma = bm.phi(t, A8_IDEAL)
        assert sigma == (7, 3, 4, 5, 2, 6, 9, 8, 1)
        assert sp.to_cycles(sigma) == ((1, 7, 9), (2, 3, 4, 5))
        assert sp.length_s(sigma, "A") == len(A8_IDEAL) == 17
        # 35 + 20 + 17 = 72 = 9 * 8
        assert rp.ideal_maj(t, A8_IDEAL) + sp.maj(sigma, "A") + sp.imaj(sigma, "A") == 72

    def test_a8_lift_worked_example(self):
        t, big = GroupType("A", 8), GroupType("A", 9)
        lifted = rp.lift_delta(t, A8_IDEAL)
        sigma = bm.phi(big, lifted)
        assert sigma == (10, 6, 3, 4, 5, 7, 2, 9, 8, 1)
        assert sp.to_cycles(sigma) == ((1, 10), (2, 6, 7), (8, 9))
        # 39 + 26 + 25 = 90 = 9 * 10
        assert rp.ideal_maj(big, lifted) + sp.maj(sigma, "A") + sp.imaj(sigma, "A") == 90

    def test_b4_worked_example(self):
        t = GroupType("B", 4)
        ideal = b4_ideal()
        sigma = bm.phi(t, ideal)
        assert sigma == (4, 3, 2, -1)
        assert sp.length_s(sigma, "B") == len(ideal) == 7

    def test_b4_lift_worked_example(self):
        t, big = GroupType("B", 4), GroupType("B", 5)
        lifted = rp.lift_delta(t, b4_ideal())
        assert bm.phi(big, lifted) == (4, 3, 2, -1, -5)

    def test_b2_full_ideal(self):
        t = GroupType("B", 2)
        assert bm.phi(t, frozenset(rp.positive_roots(t))) == (-1, -2)

    def test_empty(self):
        assert bm.phi(GroupType("A", 3), frozenset()) == sp.identity(4)

    @pytest.mark.parametrize("fam,rank", [("A", 2), ("A", 5), ("B", 2), ("B", 4)])
    def test_bijection_onto_rev_nc(self, fam, rank):
        t = GroupType(fam, rank)
        images = [bm.phi(t, ideal) for ideal in rp.ideals(t)]
        assert len(set(images)) == len(images)
        assert set(images) == set(rev_nc(t))

    def test_inverse_table(self):
        t = GroupType("B", 3)
        table = phi_inverse_table(t)
        for ideal in rp.ideals(t):
            assert table[bm.phi(t, ideal)] == ideal


class TestPsi:
    def test_a_worked_example(self):
        sigma, sw = bm.psi_a("NNNNEEENNEEE")
        assert sigma == (6, 2, 1, 5, 4, 3)
        assert sw.factors == ((5, 4, 3, 2, 1), (5, 4, 2), (5,))
        assert sp.length_s(sigma, "A") == paths.area_a("NNNNEEENNEEE") == 9

    def test_b_worked_example(self):
        sigma, sw = bm.psi_b("NNNNEEENNNNE")
        assert sigma == (1, -2, -6, 5, 4, 3)
        assert sw.factors == ((5, 4, 3, 2, 1, 0), (5, 4, 2, 1, 0), (5, 2, 1))
        assert sp.length_s(sigma, "B") == paths.area_b("NNNNEEENNNNE") == 14
        # inv 6 plus dropped negatives 8
        assert inv_word(sigma) == 6

    def test_small_cases(self):
        assert bm.psi_a("NENE")[0] == (1, 2)
        assert bm.psi_a("NNEE") == ((2, 1), bm.SortingWord(((1,),)))
        sigma, sw = bm.psi_b("NENN")
        assert sigma == (-1, 2)
        assert sw.factors == ((0,),)

    def test_b_split_product(self):
        # the image factors as psi_a(lower part) times the upper-cell product
        word = "NNNNEEENNNNE"
        sigma, _ = bm.psi_b(word)
        lower, upper = split_lower_upper(word)
        sigma1, _ = bm.psi_a(lower)
        upper_word = (0, 1, 2, 0, 1)
        sigma2 = sp.word_to_perm(upper_word, 6, "B")
        assert sigma == sp.mul(sigma1, sigma2)
        assert ides_set(sigma) == ides_set(sigma1)

    def test_skips_the_public_range_check(self, monkeypatch):
        # psi builds its letters in 0..n-1, so it evaluates them without word_to_perm's check
        want = bm.psi_a("NNNNEEENNEEE"), bm.psi_b("NNNNEEENNNNE")

        refuse(monkeypatch, "word_to_perm")
        assert (bm.psi_a("NNNNEEENNEEE"), bm.psi_b("NNNNEEENNNNE")) == want

    @pytest.mark.parametrize("fam,n", [("A", 2), ("A", 6), ("B", 2), ("B", 4)])
    def test_bijection_onto_sortables(self, fam, n):
        words = paths.enumerate_a(n) if fam == "A" else paths.enumerate_b(n)
        fn = bm.psi_a if fam == "A" else bm.psi_b
        images = [fn(w)[0] for w in words]
        assert len(set(images)) == len(images)
        assert set(images) == set(enumerate_sortables(GroupType(fam, n - 1 if fam == "A" else n)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_round_trip_by_table(self, n):
        table = psi_inverse_table(GroupType("A", n - 1))
        for w in paths.enumerate_a(n):
            assert table[bm.psi_a(w)[0]] == w


class TestPreimage:
    """``preimage`` reads phi's row-start table and psi's sorting words; the tables of
    ideals and words are the oracles."""

    @pytest.mark.parametrize("t", [GroupType("A", r) for r in range(1, 7)] + [GroupType("B", r) for r in range(1, 7)], ids=str)
    def test_matches_the_tables(self, t):
        assert len(bm._inverse_rows(t)) == cat_number(t)
        for via, table in (("phi", phi_inverse_table(t)), ("psi", psi_inverse_table(t))):
            assert len(table) == cat_number(t)
            for image, want in table.items():
                assert bm.preimage(t, via, image) == want
            others = [w for w in enumerate_group(t.family, t.n) if w not in table][:5]
            assert len(others) == min(5, group_order(t.family, t.n) - len(table))
            for image in others + [sp.identity(t.n + 1)]:
                assert bm.preimage(t, via, image) is None

    @pytest.mark.parametrize("t", [GroupType("A", r) for r in range(1, 9)] + [GroupType("B", r) for r in range(1, 7)], ids=str)
    def test_psi_inverts_every_path(self, t):
        for image, word in psi_inverse_table(t).items():
            assert bm.preimage(t, "psi", image) == word

    @pytest.mark.parametrize("t", [GroupType("A", r) for r in range(1, 7)] + [GroupType("B", r) for r in range(1, 6)], ids=str)
    def test_psi_refuses_every_non_image(self, t):
        table = psi_inverse_table(t)
        others = [w for w in enumerate_group(t.family, t.n) if w not in table]
        assert len(others) == group_order(t.family, t.n) - cat_number(t)
        assert [w for w in others if bm.preimage(t, "psi", w) is not None] == []

    @pytest.mark.parametrize("image", [(1, 1, 2), (1, 2), (0, 1, 2), (1, 2, 4), (2, 3, 1, 4), (1, -1, 2), (1.0, 2, 3), (2, 3, 1.0), ("1", 2), (None, 1), ("3", 1, 2)])
    def test_psi_refuses_what_is_no_signed_permutation_of_the_rank(self, image):
        for t in (GroupType("A", 2), GroupType("B", 3)):
            assert bm.preimage(t, "psi", image) is None

    @pytest.mark.parametrize("image", [(1.0, 2, 3, 4), ("1", 2, 3, 4), (1, 2, 3), (1, 2, 3, 5)])
    def test_phi_refuses_what_psi_refuses_before_its_table(self, monkeypatch, image):
        # 1.0 == 1 would find the identity's row starts in phi's table
        t = GroupType("A", 3)
        assert bm.preimage(t, "psi", image) is None

        refuse(monkeypatch, "_inverse_rows")
        assert bm.preimage(t, "phi", image) is None

    @pytest.mark.parametrize("image", [(-1, 2, 3), (3, -1, 2), (-3, -2, -1)])
    def test_psi_refuses_signs_in_type_a(self, image):
        assert bm.preimage(GroupType("A", 2), "psi", image) is None

    def test_reads_any_sequence_as_its_tuple(self):
        t = GroupType("A", 1)
        for via in ("phi", "psi"):
            assert bm.preimage(t, via, [2, 1]) == bm.preimage(t, via, (2, 1)) is not None

    @pytest.mark.parametrize("via", ["xyz", "phiA", "psiB", "", None])
    def test_refuses_a_map_other_than_phi_or_psi(self, via):
        with pytest.raises(ValueError, match="preimage inverts phi or psi"):
            bm.preimage(GroupType("A", 2), via, (1, 2, 3))

    def test_psi_builds_no_table(self, monkeypatch):
        for name in ("_inverse_rows", "_rank", "_row_columns"):
            refuse(monkeypatch, name)
        t = GroupType("B", 40)
        word = "N" * 30 + "E" * 10 + "NE" * 20
        assert bm.preimage(t, "psi", bm.psi_b(word)[0]) == word

    def test_seeded_round_trip_in_wider_lanes(self):
        # at B8, 2|Phi+| = 128 no longer fits an 8-bit field's guard bit
        t = GroupType("B", 8)
        _, _, _, lanes, _ = bm._rank(t)
        assert lanes.bits == 16
        for word in random.Random(20251).sample(paths.enumerate_b(t.n), 200):
            ideal = rp.dyck_to_ideal(t, word)
            assert bm.preimage(t, "phi", bm.phi(t, ideal)) == ideal
            assert bm.preimage(t, "psi", bm.psi_b(word)[0]) == word


class TestVerifiers:
    @pytest.mark.parametrize("fam,rank", [("A", 4), ("B", 3)])
    def test_clean_reports(self, fam, rank):
        t = GroupType(fam, rank)
        for verify in (bm.verify_phi_theorems, bm.verify_psi_theorems):
            report = verify(t)
            assert report["failures"] == []
            assert report["checked"] == len(rp.ideals(t))
            assert set(report) >= {"identity", "rank", "checked", "failures"}

    def test_generating_function_identity(self):
        # sum over ideals of q^maj equals sum over rev(NC) of q^(2N - maj - imaj)
        for t in [GroupType("A", 4), GroupType("B", 3)]:
            n = t.n
            two_n = n * (n - 1) if t.family == "A" else 2 * n * n
            lhs: dict[int, int] = {}
            for ideal in rp.ideals(t):
                m = rp.ideal_maj(t, ideal)
                lhs[m] = lhs.get(m, 0) + 1
            rhs: dict[int, int] = {}
            for w in rev_nc(t):
                m = two_n - sp.maj(w, t.family) - sp.imaj(w, t.family)
                rhs[m] = rhs.get(m, 0) + 1
            assert lhs == rhs


def _row_columns_taking(lanes_from):
    """A stand-in for ``paths._row_columns`` in which lane k takes lane
    ``lanes_from[k]``'s row starts in every column, keeping the lane count."""
    kernel = paths._row_columns

    def stand_in(family, n):
        return [bytes(col[lanes_from.get(k, k)] for k in range(len(col))) for col in kernel(family, n)]

    return stand_in


class TestRowColumns:
    """``paths._row_columns`` and the lanes ``_rank`` reads off its columns,
    against the depth-first oracle ``row_stream``, leaf for leaf."""

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(1, 11)] + [("B", r) for r in range(1, 9)])
    def test_columns_and_lanes_are_the_oracle_leaves(self, fam, rank):
        t = GroupType(fam, rank)
        leaves = row_stream(fam, t.n)
        assert list(zip(*paths._row_columns(fam, t.n))) == [x for x, *_ in leaves]
        area, maj, descents, lanes, xs = bm._rank(t)
        assert lanes.count == len(leaves) == (cat_number(t) if fam == "A" else math.comb(2 * t.n, t.n))
        assert lanes.bits == (16 if (fam, rank) == ("B", 8) else 8)  # B8 covers the 16-bit fields
        assert list(zip(*map(lanes.unpack, xs))) == [x for x, *_ in leaves]
        assert list(zip(*map(lanes.unpack, (area, maj, descents)))) == [tuple(leaf[1:]) for leaf in leaves]

    @pytest.mark.parametrize("fam,rank", [("A", 3), ("A", 5), ("B", 2), ("B", 4)])
    def test_a_copied_path_is_reported(self, monkeypatch, fam, rank):
        # the count still equals Cat(W), so a clean-run shortcut on the count alone would pass
        t = GroupType(fam, rank)
        monkeypatch.setattr(paths, "_row_columns", _row_columns_taking({0: 1}))
        for verify in (bm.verify_phi_theorems, bm.verify_psi_theorems):
            report = verify(t)
            assert report["checked"] == cat_number(t)
            assert {f["check"] for f in report["failures"]} == {"injectivity", "image-set"}

    @pytest.mark.parametrize("fam,rank", [("A", 4), ("B", 3)])
    def test_paths_in_another_order_are_checked_in_full(self, monkeypatch, fam, rank):
        # swapped lanes leave the prefix tree's order, which the psi verifier's shortcut
        # needs: its full checks run instead, and pass
        t = GroupType(fam, rank)
        assert bm._falling(*bm._rank(t)[3:])
        monkeypatch.setattr(paths, "_row_columns", _row_columns_taking({0: 1, 1: 0}))
        assert not bm._falling(*bm._rank(t)[3:])
        full, repeats = [], bm._repeats
        monkeypatch.setattr(bm, "_repeats", lambda images: full.append(t) or repeats(images))
        assert bm.verify_phi_theorems(t)["failures"] == bm.verify_psi_theorems(t)["failures"] == []
        assert full == [t]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestAgainstOracles:
    @pytest.mark.parametrize(
        "fam,rank", [("A", r) for r in range(1, 9)] + [("B", r) for r in range(1, 7)]
    )
    def test_phi_on_every_ideal(self, fam, rank):
        t = GroupType(fam, rank)
        for ideal in rp.ideals(t):
            assert bm.phi(t, ideal) == phi_oracle(t, ideal)

    @pytest.mark.parametrize("fam,n", [("A", n) for n in range(1, 10)] + [("B", n) for n in range(1, 7)])
    def test_psi_on_every_word(self, fam, n):
        words = paths.enumerate_a(n) if fam == "A" else paths.enumerate_b(n)
        fn, oracle = (bm.psi_a, psi_a_oracle) if fam == "A" else (bm.psi_b, psi_b_oracle)
        for word in words:
            assert fn(word) == oracle(word)

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(1, 5)] + [("B", r) for r in range(1, 4)])
    def test_phi_rejects_exactly_the_non_ideals(self, fam, rank):
        t = GroupType(fam, rank)
        poset = root_poset(t)
        for k in range(len(poset.roots) + 1):
            for subset in itertools.combinations(poset.roots, k):
                rs = frozenset(subset)
                if poset.is_ideal(rs):
                    assert bm.phi(t, rs) == phi_oracle(t, rs)
                else:
                    with pytest.raises(ValueError, match="not an order ideal"):
                        bm.phi(t, rs)

    @pytest.mark.parametrize("fam,rank", [("A", 5), ("B", 3), ("B", 4)])
    def test_shell_cycles_on_small_subsets(self, fam, rank):
        # the kernel's span reader, on the oracle's unfolding of every small subset
        roots = rp.positive_roots(GroupType(fam, rank))
        for k in (1, 2, 3):
            for subset in itertools.combinations(roots, k):
                spans = _spans_oracle(subset, fam)
                assert _outcome(lambda: tuple(_span_cycles(spans))) == _outcome(
                    shell_cycles_oracle, subset, fam
                )


def _stream(t):
    return list(row_stream(t.family, t.n))


def _full_lane(t):
    """The lane of t's full path, the path with row starts all 0 (the full ideal's rows)."""
    rows = [x for x, *_ in _stream(t)]
    return rows.index((0,) * len(rows[0]))


def _put_lane(lanes, cols, k, image):
    """``cols`` with lane k's entries replaced by ``image``'s."""
    bit = lanes.pack([int(i == k) for i in range(lanes.count)])
    return [lanes.select(bit, (v + lanes.off) * lanes.one, c) for c, v in zip(cols, image)]


def _corrupt_phi_lane(t, image):
    """A ``_phi_lanes`` that puts ``image`` in the lane of t's full ideal at rank t
    only; the type-B lift's call, at the next rank, is left alone."""
    kernel, k = bm._phi_lanes, _full_lane(t)

    def corrupt(lanes, xs, u):
        cols = kernel(lanes, xs, u)
        return _put_lane(lanes, cols, k, image) if u == t else cols

    return corrupt


class TestRowKernel:
    """The verifier's row-start stream and ``_phi_rows`` against the frozenset oracles.

    ``phi`` is ``_phi_rows`` on ``ideal_row_starts``, so ``test_phi_on_every_ideal``
    holds the kernel to ``phi_oracle`` on every ideal's rows; the lift test
    does so on the padded rows.
    """

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(1, 9)] + [("B", r) for r in range(1, 7)])
    def test_stream_lists_every_ideal_once_with_its_statistics(self, fam, rank):
        t = GroupType(fam, rank)
        want = {
            tuple(rp.ideal_row_starts(t, ideal)): (len(ideal), rp.ideal_maj(t, ideal), len(ideal_des(t, ideal)))
            for ideal in root_poset(t).ideals()
        }
        got = _stream(t)
        assert len(got) == len(want)
        assert {x: (area, maj, descents) for x, area, maj, descents in got} == want

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(1, 8)] + [("B", r) for r in range(1, 6)])
    def test_padded_rows_are_the_lift(self, fam, rank):
        t, big = GroupType(fam, rank), GroupType(fam, rank + 1)
        pad = (0,) if fam == "A" else (0, 0)
        for x, *_ in _stream(t):
            lifted = rp.lift_delta(t, rp._ideal_of_rows(t, x))
            assert list(pad + x) == rp.ideal_row_starts(big, lifted)
            assert bm._phi_rows(big, pad + x) == phi_oracle(big, lifted)

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(1, 8)] + [("B", r) for r in range(1, 7)])
    def test_verifier_reports_match_the_frozenset_verifier(self, fam, rank):
        t = GroupType(fam, rank)
        report = bm.verify_phi_theorems(t)
        assert report == verify_phi_theorems_frozensets(t) == verify_phi_theorems_rows(t)
        assert report["checked"] == len(rp.ideals(t)) and report["failures"] == []

    def test_clean_run_names_no_ideal(self, monkeypatch):
        refuse(monkeypatch, "_ideal_of_rows")
        for t in (GroupType("A", 5), GroupType("B", 4)):
            assert bm.verify_phi_theorems(t)["failures"] == []

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(1, 8)] + [("B", r) for r in range(1, 7)])
    def test_corrupted_image_is_reported(self, monkeypatch, fam, rank):
        # send the full ideal to the identity, the empty ideal's image: in its lane
        # for the verifier, and in the shell walk for the oracles
        t = GroupType(fam, rank)
        full = tuple(rp.ideal_row_starts(t, frozenset(rp.positive_roots(t))))
        kernel = bm._phi_rows

        def corrupt(u, x):
            return sp.identity(u.n) if u == t and tuple(x) == full else kernel(u, x)

        monkeypatch.setattr(bm, "_phi_rows", corrupt)
        monkeypatch.setattr(bm, "_phi_lanes", _corrupt_phi_lane(t, sp.identity(t.n)))
        report = bm.verify_phi_theorems(t)
        assert report == verify_phi_theorems_frozensets(t) == verify_phi_theorems_rows(t)
        checks = [f["check"] for f in report["failures"]]
        assert {"length", "maj-identity", "injectivity", "image-set"} <= set(checks)
        assert ("des-sum" in checks) == (fam == "A") and ("lift-identity" in checks) == (fam == "B")
        roots = repr(sorted(map(rp.root_str, rp.positive_roots(t))))
        identity = repr(sp.identity(t.n))
        assert {"check": "length", "ideal": roots, "image": identity} in report["failures"]
        assert {"check": "injectivity", "image": identity} in report["failures"]

    @pytest.mark.parametrize(
        "fam,rank,bad", [("A", 4, (1, 1, 3, 4, 5)), ("A", 4, (1, -2, 3, 4, 5)), ("B", 3, (1, 3, -3)), ("B", 3, (0, 2, 3))]
    )
    def test_image_that_is_no_signed_permutation_raises(self, monkeypatch, fam, rank, bad):
        # the lanes' validity test stands in for check_perm: the bad image raises check_perm's error
        t = GroupType(fam, rank)
        full = tuple(rp.ideal_row_starts(t, frozenset(rp.positive_roots(t))))
        kernel = bm._phi_rows
        monkeypatch.setattr(bm, "_phi_rows", lambda u, x: bad if u == t and tuple(x) == full else kernel(u, x))
        monkeypatch.setattr(bm, "_phi_lanes", _corrupt_phi_lane(t, bad))
        with pytest.raises(ValueError) as want:
            verify_phi_theorems_frozensets(t)
        with pytest.raises(ValueError) as rows:
            verify_phi_theorems_rows(t)
        with pytest.raises(ValueError) as got:
            bm.verify_phi_theorems(t)
        assert str(got.value) == str(want.value) == str(rows.value)

    def test_des_ides_reads_images_and_non_images_in_target_order(self, monkeypatch):
        # The target gains two elements with des != ides, and the full ideal's image
        # becomes one of them: that one is an image, whose masks the loop stored, and the
        # other and the lost image are not, so their statistics are read after it.
        t = GroupType("A", 4)
        n = t.n
        full = tuple(rp.ideal_row_starts(t, frozenset(rp.positive_roots(t))))
        kernel, scan = bm._phi_rows, bm._nc_scan
        extras = [(2, 4, 1, 3, 5), (3, 1, 4, 2, 5)]
        lost = kernel(t, full)
        assert all(des(w) != ides(w) for w in extras) and des(lost) == ides(lost)

        def corrupt(u, x):
            return extras[0] if u == t and tuple(x) == full else kernel(u, x)

        def widened(family, m, under_rev=False):
            return scan(family, m, under_rev) + (extras if (family, m) == ("A", n) else [])

        monkeypatch.setattr(bm, "_phi_rows", corrupt)
        monkeypatch.setattr(bm, "_phi_lanes", _corrupt_phi_lane(t, extras[0]))
        monkeypatch.setattr(bm, "_nc_scan", widened)
        report = bm.verify_phi_theorems(t)
        assert report == verify_phi_theorems_rows(t)
        target = set(widened("A", n))
        want = [{"check": "des-ides", "image": repr(w)} for w in target if des(w) != ides(w)]
        assert [f for f in report["failures"] if f["check"] == "des-ides"] == want
        assert [f["image"] for f in want] == [repr(w) for w in target if w in extras]
        assert {"check": "image-set", "missing": repr(sorted([lost, extras[1]]))} in report["failures"]


def _random_row_starts(t, count, seed):
    """Row starts of ``count`` seeded random type-t paths: uniform Dyck words
    in type A (the cycle lemma), unfolded random lattice words in type B."""
    rng = random.Random(seed)
    n = t.n
    out = []
    for _ in range(count):
        if t.family == "A":
            steps = ["N"] * n + ["E"] * (n + 1)
            rng.shuffle(steps)
            level = lowest = cut = 0
            for k, step in enumerate(steps, start=1):
                level += 1 if step == "N" else -1
                if level < lowest:
                    lowest, cut = level, k
            word = "".join(steps[cut:] + steps[:cut])[:-1]
        else:
            steps = ["N"] * n + ["E"] * n
            rng.shuffle(steps)
            word = paths.unfold_lattice_to_b("".join(steps))
        out.append(tuple(rp.ideal_row_starts(t, rp.dyck_to_ideal(t, word))))
    return out


class TestPhiWalk:
    """The streaming shell walk ``_phi_rows`` against the span-list reader
    ``oracles.phi_rows_spans`` that it replaced."""

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(1, 9)] + [("B", r) for r in range(1, 8)])
    def test_every_row_start(self, fam, rank):
        t = GroupType(fam, rank)
        for x, *_ in _stream(t):
            assert bm._phi_rows(t, x) == phi_rows_spans(t, x)

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(1, 8)] + [("B", r) for r in range(1, 6)])
    def test_padded_lift_rows(self, fam, rank):
        t, big = GroupType(fam, rank), GroupType(fam, rank + 1)
        pad = (0,) if fam == "A" else (0, 0)
        for x, *_ in _stream(t):
            assert bm._phi_rows(big, pad + x) == phi_rows_spans(big, pad + x)

    @pytest.mark.parametrize("t", [GroupType("A", 13), GroupType("B", 10)], ids=str)
    def test_random_row_starts_past_the_exhaustive_ranks(self, t):
        rows = _random_row_starts(t, 2000, seed=20081)
        assert len(set(rows)) > 1900
        for x in rows:
            assert bm._phi_rows(t, x) == phi_rows_spans(t, x)


def _phi_lane_images(t, rows, filled=0):
    """``bm._phi_lanes`` at rank t on ``rows`` under ``filled`` filled bottom rows, read back as images."""
    lanes = bm._Lanes(len(rows), 2 * t.n + 2, t.n + 1)
    cols = bm._phi_lanes(lanes, [0] * filled + [lanes.pack(col) for col in zip(*rows)], t)
    return list(zip(*map(lanes.values, cols)))


class TestPhiLanes:
    """The lane kernel ``_phi_lanes`` against the shell walk ``_phi_rows``, which
    public ``phi`` keeps, and the span-list reader ``oracles.phi_rows_spans``."""

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(1, 9)] + [("B", r) for r in range(1, 7)])
    def test_every_row_start(self, fam, rank):
        t = GroupType(fam, rank)
        rows = [x for x, *_ in _stream(t)]
        want = [bm._phi_rows(t, x) for x in rows]
        assert _phi_lane_images(t, rows) == want
        assert want == [phi_rows_spans(t, x) for x in rows]

    @pytest.mark.parametrize("t", [GroupType("A", 13), GroupType("B", 10)], ids=str)
    def test_random_row_starts_past_the_exhaustive_ranks(self, t):
        # ideal_row_starts pads type B's rows to 2n at their caps, as _phi_rows needs
        rows = _random_row_starts(t, 2000, seed=20241)
        assert len(set(rows)) > 1900
        want = [bm._phi_rows(t, x) for x in rows]
        assert _phi_lane_images(t, rows) == want
        assert want == [phi_rows_spans(t, x) for x in rows]

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_lift(self, rank):
        # the verifier's lift: two filled bottom rows, mapped at the next rank
        t, big = GroupType("B", rank), GroupType("B", rank + 1)
        rows = [x for x, *_ in _stream(t)]
        lifted = _phi_lane_images(big, rows, filled=2)
        assert lifted == [bm._phi_rows(big, (0, 0) + x) for x in rows]
        assert lifted == [image + (-(rank + 1),) for image in _phi_lane_images(t, rows)]

    def test_clean_run_walks_no_shell(self, monkeypatch):
        calls = []
        kernel = bm._phi_rows

        def counted(u, x):
            calls.append(u)
            return kernel(u, x)

        monkeypatch.setattr(bm, "_phi_rows", counted)
        for t in (GroupType("A", 6), GroupType("B", 5)):
            assert bm.verify_phi_theorems(t)["failures"] == []
        assert calls == []

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_clean_run_builds_one_lane_layout(self, monkeypatch, rank):
        # the images and the type-B lift share the rank's lanes
        built = []
        layout = bm._Lanes

        def counted(*args):
            built.append(args)
            return layout(*args)

        monkeypatch.setattr(bm, "_Lanes", counted)
        assert bm.verify_phi_theorems(GroupType("B", rank))["failures"] == []
        assert len(built) == 1


def _lanes_of(elements, n):
    """The elements' one-line columns in one lane layout, each entry stored as value + n + 2."""
    lanes = bm._Lanes(len(elements), 2 * n + 4, n + 2)
    return lanes, [lanes.pack(v + lanes.off for v in col) for col in zip(*elements)]


def _phi_checks(w, fam):
    """What the phi verifier's checks other than the image set read of an image: l_S, maj + imaj,
    and in type A des and whether des = ides."""
    length, maj, imaj, dmask, imask, _ = stats(w, fam)
    return (length, maj + imaj) + ((dmask.bit_count(), dmask.bit_count() == imask.bit_count()) if fam == "A" else ())


def _put_phi_image(monkeypatch, t, k, image):
    """Stand-ins for ``_phi_rows`` and ``_phi_lanes`` that send lane k's ideal at rank t to
    ``image``, and in type B its lift to ``image`` with -(n + 1) appended, as a true image's is."""
    x = _stream(t)[k][0]
    big, lifted = GroupType(t.family, t.rank + 1), image + (-(t.n + 1),)
    kernel, lane_kernel = bm._phi_rows, bm._phi_lanes

    def walk(u, y):
        y = tuple(y)
        return image if (u, y) == (t, x) else lifted if (u, y) == (big, (0, 0) + x) else kernel(u, y)

    def columns(lanes, xs, u):
        cols = lane_kernel(lanes, xs, u)
        return _put_lane(lanes, cols, k, image if u == t else lifted) if u in (t, big) else cols

    monkeypatch.setattr(bm, "_phi_rows", walk)
    monkeypatch.setattr(bm, "_phi_lanes", columns)


class TestPhiImageSet:
    """The verifier's proof of phi's image set: every lane passes the arc test
    ``_nc_lanes``, the lanes' keys ``_image_keys`` are distinct, and there are
    Cat(W) lanes.  The scan ``_nc_scan`` is the arc test's oracle, and a fault
    in any of the three falls back to it and reports as the per-path verifier."""

    @pytest.mark.parametrize("fam,n", [("A", n) for n in range(1, 8)] + [("B", n) for n in range(1, 6)])
    def test_arc_test_selects_the_scan_from_the_whole_group(self, fam, n):
        group = list(enumerate_group(fam, n))
        lanes, cols = _lanes_of(group, n)
        chosen = lanes.unpack(bm._nc_lanes(lanes, cols, fam))
        assert {w for w, m in zip(group, chosen) if m} == set(nc._nc_scan(fam, n, under_rev=True))

    @pytest.mark.parametrize("fam,n", [("A", 3), ("A", 8), ("A", 9), ("A", 13), ("B", 9), ("B", 17)])
    def test_keys_count_the_distinct_images(self, fam, n):
        # past eight columns a key spans two or three 64-bit words; the repeats differ from
        # other elements only in their last two columns
        rng = random.Random(20261)
        elements = []
        for _ in range(300):
            w = rng.sample(range(1, n + 1), n)
            elements.append(tuple(v * rng.choice((1, -1)) if fam == "B" else v for v in w))
        elements += [w[:-2] + w[:-3:-1] for w in elements[:40]] + elements[40:60]
        rng.shuffle(elements)
        assert len(bm._image_keys(*_lanes_of(elements, n))) == len(set(elements))

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(2, 8)] + [("B", r) for r in range(2, 7)])
    def test_an_image_outside_the_target_is_caught_by_the_arc_test_alone(self, monkeypatch, fam, rank):
        # the first lane whose image shares its statistics with an element outside the
        # target, which then passes every check but the arc test; S_2 and B_1 lie wholly in
        # the target, so the ranks start at 2
        t = GroupType(fam, rank)
        target = set(nc._nc_scan(fam, t.n, under_rev=True))
        outside = {}
        for w in enumerate_group(fam, t.n):
            if w not in target:
                outside.setdefault(_phi_checks(w, fam), w)
        images = [bm._phi_rows(t, x) for x, *_ in _stream(t)]
        k, lost = next((k, u) for k, u in enumerate(images) if _phi_checks(u, fam) in outside)
        _put_phi_image(monkeypatch, t, k, outside[_phi_checks(lost, fam)])
        report = bm.verify_phi_theorems(t)
        assert report == verify_phi_theorems_rows(t)
        assert report["failures"] == [{"check": "image-set", "missing": repr([lost])}]

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(4, 8)] + [("B", r) for r in range(3, 7)])
    def test_a_repeated_image_is_caught_by_the_keys_alone(self, monkeypatch, fam, rank):
        # lane j takes the image of an earlier lane i with the same statistics, so every
        # image stays in the target; below A4 and B3 no two images share their statistics
        t = GroupType(fam, rank)
        images = [bm._phi_rows(t, x) for x, *_ in _stream(t)]
        first = {}
        for j, u in enumerate(images):
            i = first.setdefault(_phi_checks(u, fam), j)
            if i < j:
                break
        _put_phi_image(monkeypatch, t, j, images[i])
        report = bm.verify_phi_theorems(t)
        assert report == verify_phi_theorems_rows(t)
        assert report["failures"] == [
            {"check": "injectivity", "image": repr(images[i])},
            {"check": "image-set", "missing": repr([images[j]])},
        ]

    @pytest.mark.parametrize("rank", range(2, 7))
    def test_an_image_left_unreversed_is_reported(self, monkeypatch, rank):
        # the full ideal's image u is in rev([1, c]), and w = rev(u) is in [1, c] but not
        # in phi's target; B_1's one negative element is fixed by rev
        t = GroupType("B", rank)
        k = _full_lane(t)
        w = sp.rev(bm._phi_rows(t, _stream(t)[k][0]))
        assert w in nc._nc_scan("B", t.n) and w not in nc._nc_scan("B", t.n, under_rev=True)
        _put_phi_image(monkeypatch, t, k, w)
        report = bm.verify_phi_theorems(t)
        assert report == verify_phi_theorems_rows(t)
        assert "image-set" in [f["check"] for f in report["failures"]]

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(1, 8)] + [("B", r) for r in range(1, 7)])
    def test_clean_run_scans_no_target(self, monkeypatch, fam, rank):
        t = GroupType(fam, rank)
        want = verify_phi_theorems_rows(t)
        refuse(monkeypatch, "_nc_scan")
        assert bm.verify_phi_theorems(t) == want
        assert want["failures"] == []


def _corrupt_lane(t, image, drop_word):
    """A ``_psi_lanes`` that puts ``image`` in the lane of t's full path, the
    path with row starts all 0, and with ``drop_word`` clears the lane's word;
    type B's lower-part call, on the first n rows, is left alone."""
    kernel, k = bm._psi_lanes, _full_lane(t)
    width = t.n if t.family == "A" else 2 * t.n

    def corrupt(lanes, xs, n):
        cols, word = kernel(lanes, xs, n)
        if len(xs) < width:
            return cols, word
        bit = lanes.pack([int(i == k) for i in range(lanes.count)])
        cols = _put_lane(lanes, cols, k, image)
        if drop_word:
            word = {key: m & ~bit for key, m in word.items() if m & ~bit}
        return cols, word

    return corrupt


def _twin_lanes(t):
    """The first two lanes j < k whose paths every psi check but injectivity reads alike:
    the same area and maj, and the same east steps after the last north step (type A),
    or the same lower rows and number of upper rows with cells (type B)."""
    n, caps = t.n, rp.planar_cells(t).caps
    seen = {}
    for k, (x, area, maj, _) in enumerate(_stream(t)):
        uppers = sum(a < cap for a, cap in zip(x[n:], caps[n:]))
        key = (area, maj, x[n - 1]) if t.family == "A" else (area, maj, x[:n], uppers)
        if key in seen:
            return seen[key], k
        seen[key] = k
    raise ValueError(f"no twin lanes at {t}")


class TestPsiRows:
    """``_psi`` on streamed row starts and the psi verifier against the word verifier."""

    @pytest.mark.parametrize("fam,n", [("A", n) for n in range(1, 9)] + [("B", n) for n in range(1, 7)])
    def test_stream_rows_are_the_words_in_order(self, fam, n):
        words = paths.enumerate_a(n) if fam == "A" else paths.enumerate_b(n)
        psi = bm.psi_a if fam == "A" else bm.psi_b
        rows = [x for x, *_ in row_stream(fam, n)]
        assert [paths._word_of_rows(fam, n, x) for x in rows] == words
        for x, word in zip(rows, words):
            assert bm._psi(x, n, fam) == psi(word)

    @pytest.mark.parametrize("fam,n", [("A", n) for n in range(2, 9)] + [("B", n) for n in range(1, 7)])
    def test_verifier_reports_match_the_word_verifier(self, fam, n):
        t = GroupType(fam, n - 1 if fam == "A" else n)
        report = bm.verify_psi_theorems(t)
        assert report == verify_psi_theorems_words(t) == verify_psi_theorems_rows(t)
        assert report["checked"] == len(rp.ideals(t)) and report["failures"] == []

    def test_clean_run_names_no_word(self, monkeypatch):
        refuse(monkeypatch, "_word_of_rows")
        for t in (GroupType("A", 5), GroupType("B", 4)):
            assert bm.verify_psi_theorems(t)["failures"] == []

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(1, 8)] + [("B", r) for r in range(1, 7)])
    def test_corrupted_kernel_is_reported(self, monkeypatch, fam, rank):
        # send the full path's rows to the identity, the image of the path with no cells:
        # in its lane for the verifier, and in the per-word kernel for the word verifier
        t = GroupType(fam, rank)
        n = t.n
        full = (0,) * (n if fam == "A" else 2 * n)
        kernel = bm._psi

        def corrupt(x, m, family):
            if family == fam and m == n and tuple(x) == full:
                return sp.identity(n), SortingWord(())
            return kernel(x, m, family)

        monkeypatch.setattr(bm, "_psi", corrupt)
        monkeypatch.setattr(bm, "_psi_lanes", _corrupt_lane(t, sp.identity(n), drop_word=True))
        report = bm.verify_psi_theorems(t)
        assert report == verify_psi_theorems_words(t) == verify_psi_theorems_rows(t)
        checks = {f["check"] for f in report["failures"]}
        assert {"length", "maj-identity", "injectivity", "image-set"} <= checks
        word = repr(paths._word_of_rows(fam, n, full))
        identity = repr(sp.identity(n))
        assert {"check": "length", "word": word, "image": identity} in report["failures"]
        assert {"check": "injectivity", "image": identity} in report["failures"]

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(4, 8)] + [("B", 5), ("B", 6)])
    def test_two_lanes_with_one_image_are_reported(self, monkeypatch, fam, rank):
        # lane k takes the image and the word of lane j < k, a path that every other check
        # reads alike, so only injectivity and the image set fail, and on lane k alone
        t = GroupType(fam, rank)
        n = t.n
        j, k = _twin_lanes(t)
        rows = [x for x, *_ in _stream(t)]
        kernel, lanes_kernel = bm._psi, bm._psi_lanes
        image = kernel(rows[j], n, fam)[0]
        target = paths._word_of_rows(fam, n, rows[k])

        def corrupt(x, m, family):
            hit = family == fam and m == n and paths._word_of_rows(fam, n, x) == target
            return kernel(rows[j] if hit else x, m, family)

        def corrupt_lanes(lanes, xs, m):
            cols, word = lanes_kernel(lanes, xs, m)
            if len(xs) < len(rows[k]):  # type B's lower-part call
                return cols, word
            bit, src = (lanes.pack([int(i == lane) for i in range(lanes.count)]) for lane in (k, j))
            word = {key: mask & ~bit | bit * (mask & src == src) for key, mask in word.items()}
            return _put_lane(lanes, cols, k, image), {key: mask for key, mask in word.items() if mask}

        monkeypatch.setattr(bm, "_psi", corrupt)
        monkeypatch.setattr(bm, "_psi_lanes", corrupt_lanes)
        report = bm.verify_psi_theorems(t)
        assert report == verify_psi_theorems_words(t) == verify_psi_theorems_rows(t)
        assert report["failures"][0] == {"check": "injectivity", "image": repr(image)}
        assert [f["check"] for f in report["failures"]] == ["injectivity", "image-set"]

    def test_clean_run_unpacks_no_image(self, monkeypatch):
        # the sorting words read back every lane's row starts, so no image tuple is built
        monkeypatch.delattr(bm._Lanes, "values")
        refuse(monkeypatch, "_repeats")
        for t in (GroupType("A", 6), GroupType("B", 5)):
            assert bm.verify_psi_theorems(t)["failures"] == []

    @pytest.mark.parametrize("fam,n", [("A", n) for n in range(2, 9)] + [("B", n) for n in range(1, 6)])
    def test_clean_run_walks_no_sortables(self, monkeypatch, fam, n):
        # distinct sortable images that number Cat(W) are all of Sort(W, c)
        t = GroupType(fam, n - 1 if fam == "A" else n)
        expected = verify_psi_theorems_words(t)

        refuse(monkeypatch, "_sortable_tree")
        assert bm.verify_psi_theorems(t) == expected

    @pytest.mark.parametrize("fam,rank", [("A", 7), ("B", 5)])
    def test_clean_run_sorts_each_image_once(self, monkeypatch, fam, rank):
        # each image is sorted once, in its lane by ``_sort_lanes``: no per-object scan runs
        t = GroupType(fam, rank)
        body = so._sorting_word
        calls = []

        def counted(*args):
            calls.append(args[0])
            return body(*args)

        monkeypatch.setattr(so, "_sorting_word", counted)
        assert bm.verify_psi_theorems(t)["failures"] == []
        assert calls == []

    def test_clean_run_holds_one_copy_of_the_words(self):
        # the scan is checked against the emitted word in place, so no second set of word masks
        # is held: 7.75 MiB at A10, against 10.98 MiB when the scan built its own words
        t = GroupType("A", 10)
        bm.verify_psi_theorems(t)  # warm the rank's cached row columns
        tracemalloc.start()
        try:
            report = bm.verify_psi_theorems(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["checked"] == 58786 and report["failures"] == []
        assert peak < 9 * 2**20

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(2, 8)] + [("B", r) for r in range(2, 7)])
    def test_non_sortable_image_is_caught_by_membership(self, monkeypatch, fam, rank):
        # the full path's image becomes an element outside Sort(W, c): the images stay
        # distinct and number Cat(W), so only the sorting-word check sees it
        t = GroupType(fam, rank)
        n = t.n
        full = (0,) * (n if fam == "A" else 2 * n)
        c_word = sp.coxeter_element(fam, n)[1]
        bad = next(w for w in enumerate_group(fam, n) if not so.is_c_sortable(w, c_word, fam))
        kernel = bm._psi
        lost = kernel(full, n, fam)[0]

        def corrupt(x, m, family):
            sigma, sw = kernel(x, m, family)
            if family == fam and m == n and tuple(x) == full:
                return bad, sw
            return sigma, sw

        monkeypatch.setattr(bm, "_psi", corrupt)
        monkeypatch.setattr(bm, "_psi_lanes", _corrupt_lane(t, bad, drop_word=False))
        report = bm.verify_psi_theorems(t)
        assert report == verify_psi_theorems_words(t) == verify_psi_theorems_rows(t)
        checks = {f["check"] for f in report["failures"]}
        assert {"sorting-word", "image-set"} <= checks and "injectivity" not in checks
        assert {"check": "image-set", "missing": repr([lost])} in report["failures"]

    def test_type_d_is_refused_by_name(self):
        # not an error from inside the loop ("type D needs an even number of negatives")
        with pytest.raises(ValueError, match="no planar cells for type D"):
            bm.verify_psi_theorems(GroupType("D", 4))


class TestPsiInvariants:
    """What lets ``_word_starts`` decode with no range check and ``_psi_lanes``
    emit with no cut at an empty factor, on every element and every path."""

    @pytest.mark.parametrize("t", [GroupType("A", r) for r in range(1, 7)] + [GroupType("B", r) for r in range(1, 6)], ids=str)
    def test_every_scan_key_names_a_row(self, t):
        # letter s of pass f is a cell of row n-1+f-s: below the last row, and a lower row in type A
        fam, n = t.family, t.n
        c_word = sp.coxeter_element(fam, n)[1]
        rows = len(paths._caps(fam, n))
        for w in enumerate_group(fam, n):
            for f, s in so._scan(w, c_word, fam):
                assert 0 <= n - 1 + f - s < rows
                assert fam == "B" or s >= f

    @pytest.mark.parametrize("t", [GroupType("A", r) for r in range(1, 9)] + [GroupType("B", r) for r in range(1, 7)], ids=str)
    def test_non_empty_factors_form_a_prefix(self, t):
        # every cell under a path is read, by ``_psi`` and in every lane of ``_psi_lanes``
        fam, n = t.family, t.n
        _, _, _, lanes, xs = bm._rank(t)
        cells = sum(rp.planar_cells(t).caps)
        for x in zip(*map(lanes.unpack, xs)):
            assert len(bm._psi(x, n, fam)[1]) == cells - sum(x)
        _, word = bm._psi_lanes(lanes, xs, n)
        assert sum(word.values()) == cells * lanes.one - sum(xs)
        factors = [0] * (n + 1)
        for (f, _), mask in word.items():
            factors[f] |= mask
        for f in range(2, n + 1):
            assert factors[f] & ~factors[f - 1] == 0


class TestLanes:
    """The lane layer against the per-object kernels: ``_psi_lanes`` against
    ``_psi``, ``_sort_lanes`` against ``_sorting_word`` and ``_lane_stats``
    against the one-pass oracle ``stats``, past the exhaustive ranks."""

    @staticmethod
    def _per_lane(lanes, lane_masks):
        """Each lane's bitmask of the 1-indexed positions whose mask holds it."""
        rows = [lanes.unpack(m) for m in lane_masks]
        return [sum(bits[k] << i for i, bits in enumerate(rows, 1)) for k in range(lanes.count)]

    def _check_stats(self, lanes, cols, fam, elements):
        q, valid, *values, dms, ims, negs = bm._lane_stats(lanes, cols, fam)
        assert valid == lanes.one
        inverses = list(zip(*map(lanes.unpack, q)))
        read = list(zip(*(lanes.unpack(v) for v in values), self._per_lane(lanes, dms), self._per_lane(lanes, ims), lanes.unpack(negs)))
        for k, sigma in enumerate(elements):
            assert read[k] == stats(sigma, fam)
            assert tuple(v - lanes.off for v in inverses[k]) == sp.inverse(sigma)
        return q

    @pytest.mark.parametrize("t", [GroupType("A", 13), GroupType("B", 10)], ids=str)
    def test_random_row_starts_past_the_exhaustive_ranks(self, t):
        fam, n = t.family, t.n
        rows = _random_row_starts(t, 2000, seed=20231)
        assert len(set(rows)) > 1900
        c_word = sp.coxeter_element(fam, n)[1]
        lanes = bm._Lanes(len(rows), 2 * sum(rp.planar_cells(t).caps), n + 1)
        assert lanes.bits == 16
        xs = [lanes.pack(col) for col in zip(*rows)]
        cols, word = bm._psi_lanes(lanes, xs, n)
        images = [tuple(v - lanes.off for v in image) for image in zip(*map(lanes.unpack, cols))]
        want = [bm._psi(x, n, fam) for x in rows]
        assert images == [sigma for sigma, _ in want]
        fields = {key: lanes.unpack(m) for key, m in word.items()}
        assert [SortingWord.of(key for key, bits in fields.items() if bits[k]) for k in range(len(rows))] == [sw for _, sw in want]
        q = self._check_stats(lanes, cols, fam, images)
        assert bm._sort_lanes(lanes, q, c_word, word) == 0
        assert all(so._sorting_word(sigma, c_word, fam) == sw for sigma, sw in want)
        # phi's images from the shell walk, transposed into lanes
        images = [bm._phi_rows(t, x) for x in rows]
        self._check_stats(lanes, [lanes.pack(map(lanes.off.__add__, col)) for col in zip(*images)], fam, images)

    @pytest.mark.parametrize("t", [GroupType("A", r) for r in range(1, 8)] + [GroupType("B", r) for r in range(1, 7)], ids=str)
    def test_sort_lanes_flags_each_lane_off_the_word(self, t):
        # the scan checks the word in place: one lane's bit moved at one key flags that lane alone
        fam, n = t.family, t.n
        _, _, _, lanes, xs = bm._rank(t)
        c_word = sp.coxeter_element(fam, n)[1]
        cols, word = bm._psi_lanes(lanes, xs, n)
        q = bm._lane_stats(lanes, cols, fam)[0]
        assert bm._sort_lanes(lanes, q, c_word, word) == 0
        rng = random.Random(2007)
        last = max(f for f, _ in word) + 1  # the scan's last pass, which takes no letter
        visited = [(f, s) for f in range(1, last + 1) for s in c_word]
        checked = 0
        for key in visited + [(last + 1, c_word[0]), (n + 2, 0)]:  # then two keys the scan never visits
            held = lanes.differ(word.get(key, 0))
            for chosen in (held, set(range(lanes.count)) - held):  # remove one lane's bit, then add one
                if not chosen:
                    continue
                k = rng.choice(sorted(chosen))
                bit = lanes.spread(bytes(k) + b"\1" + bytes(lanes.count - k - 1))
                moved = {**word, key: word.get(key, 0) ^ bit}
                assert bm._sort_lanes(lanes, q, c_word, {at: m for at, m in moved.items() if m}) == bit
                checked += 1
        assert checked >= len(word) + 2

    def test_invalid_lanes_are_flagged(self):
        elements = [(1, 1, 3), (2, 3, 1), (1, -2, 3), (3, 0, 1), (-3, -2, -1)]
        lanes = bm._Lanes(len(elements), 8, 4)
        cols = [lanes.pack(map(lanes.off.__add__, col)) for col in zip(*elements)]
        assert list(lanes.unpack(bm._lane_stats(lanes, cols, "A")[1])) == [0, 1, 0, 0, 0]
        assert list(lanes.unpack(bm._lane_stats(lanes, cols, "B")[1])) == [0, 1, 1, 0, 1]

    def test_comparison_across_lanes(self):
        rng = random.Random(7)
        a, b = ([rng.randrange(128) for _ in range(500)] for _ in range(2))
        lanes = bm._Lanes(500, 127, 0)
        assert list(lanes.unpack(lanes.gt(lanes.pack(a), lanes.pack(b)))) == [int(u > v) for u, v in zip(a, b)]
        assert lanes.differ(lanes.pack(a), lanes.pack(b)) == {k for k, (u, v) in enumerate(zip(a, b)) if u != v}
        assert list(lanes.unpack(lanes.eq(lanes.pack(a), lanes.pack(b)))) == [int(u == v) for u, v in zip(a, b)]
        mask = lanes.gt(lanes.pack(a), lanes.pack(b))
        assert list(lanes.unpack(lanes.select(mask, lanes.pack(a), lanes.pack(b)))) == list(map(max, a, b))

    def test_signed_values(self):
        # entries stored as value + off, negatives included, across every field width
        for bound, off in ((20, 9), (300, 140), (40000, 20000)):
            lanes = bm._Lanes(7, bound, off)
            values = [-off, -1, 0, 1, off, 3, -2]
            assert list(lanes.values(lanes.pack([v + off for v in values]))) == values

    def test_low_bytes_invert_spread(self):
        # every field width, with the higher bytes of each field set in a packed lane
        small = bytes(random.Random(11).randrange(128) for _ in range(300))
        for bound in (100, 300, 40000, 1 << 40):
            lanes = bm._Lanes(300, bound, 0)
            assert lanes.low_bytes(lanes.spread(small)) == small
            assert lanes.low_bytes(lanes.pack(v + 256 * (bound > 127) for v in small)) == small

    def test_one_lane_class(self):
        # the verifiers and the D4 report share the layout defined in signedperm
        assert bm._Lanes is sp._Lanes is nc._Lanes

    def test_overflowing_field_raises(self):
        lanes = bm._Lanes(3, 127, 0)
        assert (lanes.bits, bm._Lanes(3, 128, 0).bits, bm._Lanes(3, 40000, 0).bits) == (8, 16, 32)
        assert list(lanes.unpack(lanes.pack([0, 127, 5]))) == [0, 127, 5]
        for values in ([0, 128, 5], [0, -1, 5], [1, 2]):
            with pytest.raises(OverflowError):
                lanes.pack(values)


class TestPhiRejects:
    def test_root_outside_rank_is_named(self):
        with pytest.raises(ValueError, match="e9-e1 is not a positive root of A2"):
            bm.phi(GroupType("A", 2), frozenset([rp.diff(1, 9)]))

    def test_short_root_in_type_a(self):
        with pytest.raises(ValueError, match="e1 is not a positive root of A3"):
            bm.phi(GroupType("A", 3), frozenset([rp.short(1)]))

    def test_missing_lower_cover_is_named(self):
        with pytest.raises(ValueError, match="holds e3-e1 but not e2-e1"):
            bm.phi(GroupType("A", 2), frozenset([rp.diff(1, 3)]))

    def test_gap_in_upper_row_b(self):
        # e1+e2 needs e2, which needs e1 and e2-e1
        t = GroupType("B", 2)
        with pytest.raises(ValueError, match="not an order ideal of B2"):
            bm.phi(t, frozenset([rp.diff(1, 2), rp.short(1), rp.sum_root(1, 2)]))

    def test_type_d_has_no_planar_cells(self):
        with pytest.raises(ValueError, match="type D"):
            bm.phi(GroupType("D", 4), frozenset([rp.diff(1, 2)]))


# -- properties past the exhaustive ranks ---------------------------------------

A16 = GroupType("A", 15)
B10 = GroupType("B", 10)


@st.composite
def random_ideals(draw, t):
    """The down-set of a random antichain: the maximal roots of a random draw."""
    poset = root_poset(t)
    drawn = set(draw(st.lists(st.sampled_from(poset.roots), max_size=6)))
    antichain = [r for r in drawn if not any(r != s and leq(poset, r, s) for s in drawn)]
    assert is_antichain(poset, antichain)
    return poset.ideal_from_antichain(antichain)


def _phi_identities(t, ideal):
    n = t.n
    two_n = n * (n - 1) if t.family == "A" else 2 * n * n
    sigma = bm.phi(t, ideal)
    assert sigma == phi_oracle(t, ideal)
    assert sp.length_s(sigma, t.family) == len(ideal)
    total = rp.ideal_maj(t, ideal) + sp.maj(sigma, t.family) + sp.imaj(sigma, t.family)
    assert total == two_n
    return sigma


def _psi_identities(t, ideal):
    fam, n = t.family, t.n
    word = rp.ideal_to_dyck(t, ideal)
    sigma, sw = bm.psi_a(word) if fam == "A" else bm.psi_b(word)
    c_word = tuple(range(n - 1, 0, -1)) if fam == "A" else tuple(range(n - 1, -1, -1))
    assert c_sorting_word(sigma, c_word, fam) == sw
    assert is_sortable_chain(sw)
    area = paths.area_a(word) if fam == "A" else paths.area_b(word)
    assert len(sw) == sp.length_s(sigma, fam) == area


@st.composite
def random_dyck_words(draw, t):
    """A Dyck word of t's paths, one drawn bit per step: north where the bit is set
    and a north step is left, or where an east step would cross the diagonal."""
    n, word = t.n, []
    for up in draw(st.lists(st.booleans(), min_size=2 * t.n, max_size=2 * t.n)):
        norths = word.count("N")
        free = t.family == "B" or norths < n
        word.append("N" if free and (up or 2 * norths == len(word)) else "E")
    return "".join(word)


class TestRandomPastExhaustive:
    @given(random_ideals(A16))
    def test_phi_a16(self, ideal):
        _phi_identities(A16, ideal)

    @given(random_ideals(B10))
    def test_phi_b10_and_lift(self, ideal):
        sigma = _phi_identities(B10, ideal)
        lifted = bm.phi(GroupType("B", 11), rp.lift_delta(B10, ideal))
        assert lifted == sigma + (-11,)

    @given(random_ideals(A16))
    def test_psi_a16(self, ideal):
        _psi_identities(A16, ideal)

    @given(random_ideals(B10))
    def test_psi_b10(self, ideal):
        _psi_identities(B10, ideal)

    @given(random_dyck_words(GroupType("A", 30)))
    def test_psi_inverse_a30(self, word):
        t = GroupType("A", 30)
        image = bm.psi_a(word)[0]
        assert bm.preimage(t, "psi", image) == word

    @given(random_dyck_words(GroupType("B", 20)))
    def test_psi_inverse_b20(self, word):
        t = GroupType("B", 20)
        image = bm.psi_b(word)[0]
        assert bm.preimage(t, "psi", image) == word
