import itertools
import re
import signal

import pytest

from coxcat import noncrossing as nc
from coxcat import rootposets as rp
from coxcat import signedperm as sp
from coxcat import sortable as so
from coxcat.qseries import GroupType, QPoly, cat_number
from oracles import (
    conj,
    coxeter_elements_d4,
    d4_intervals,
    enumerate_group,
    is_noncrossing_a,
    is_noncrossing_b,
    leq_t,
    length_t_bfs,
    nc_coxeter_element,
    nc_walk,
    orbit_blocks,
    order_key_b,
    partition_to_perm_a,
    partition_to_perm_b,
    refuse,
)


def oracle_crossing(blocks, key):
    """Literal quadruple scan: a < b < c < d with a,c in one block, b,d in another."""
    blocks = [sorted(b, key=key) for b in blocks]
    elems = sorted((v for b in blocks for v in b), key=key)
    idx = {v: i for i, v in enumerate(elems)}
    who = {v: i for i, b in enumerate(blocks) for v in b}
    for a in elems:
        for b in elems:
            for c in elems:
                for d in elems:
                    if not (idx[a] < idx[b] < idx[c] < idx[d]):
                        continue
                    if who[a] == who[c] and who[b] == who[d] and who[a] != who[b]:
                        return True
    return False


class TestNonCrossingPredicates:
    def test_a_examples(self):
        singles = frozenset(frozenset({i}) for i in range(1, 5))
        assert is_noncrossing_a(singles)
        assert not is_noncrossing_a(frozenset([frozenset({1, 3}), frozenset({2, 4})]))
        p = frozenset([frozenset({1, 7, 9}), frozenset({2, 3, 4, 5}), frozenset({6}), frozenset({8})])
        assert is_noncrossing_a(p)

    def test_b_examples(self):
        singles = frozenset(frozenset({v}) for v in [1, -1, 2, -2, 3, -3])
        assert is_noncrossing_b(singles, 3)
        p = frozenset([frozenset({1, -3}), frozenset({-1, 3}), frozenset({2, -2})])
        assert is_noncrossing_b(p, 3)
        q = frozenset([frozenset({1, 2}), frozenset({-1, -2}), frozenset({3, -3})])
        assert is_noncrossing_b(q, 3) == (not oracle_crossing(q, order_key_b))

    def test_b_invariant_violations(self):
        with pytest.raises(ValueError):
            is_noncrossing_b(frozenset([frozenset({1, 2}), frozenset({-1}), frozenset({-2})]), 2)
        two_symmetric = frozenset([frozenset({1, -1}), frozenset({2, -2})])
        with pytest.raises(ValueError):
            is_noncrossing_b(two_symmetric, 2)

    def test_against_oracle_a(self):
        def partitions(values):
            if not values:
                yield []
                return
            first, rest = values[0], values[1:]
            for sub in partitions(rest):
                for i in range(len(sub)):
                    yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
                yield [[first]] + sub

        for blocks in partitions(list(range(1, 6))):
            p = frozenset(frozenset(b) for b in blocks)
            assert is_noncrossing_a(p) == (not oracle_crossing(p, int))


class TestNCInterval:
    def test_a2(self):
        t = GroupType("A", 2)
        assert len(nc.nc_elements(t)) == 5

    def test_b2_listed(self):
        t = GroupType("B", 2)
        elems = set(nc.nc_elements(t))
        want = {
            (1, 2), (2, 1), (-2, -1), (-1, 2), (1, -2), (2, -1),
        }
        assert elems == want

    def test_b3_count(self):
        assert len(nc.nc_elements(GroupType("B", 3))) == 20

    def test_not_coxeter_rejected(self):
        for t, c in [
            (GroupType("B", 2), (2, 1)),  # a reflection, l_T = 1
            # l_T is the rank, but |c| is not one n-cycle (types A and B) or a fixed point and an (n-1)-cycle (D)
            (GroupType("B", 2), (-1, -2)),
            (GroupType("B", 3), (-1, 3, -2)),
            (GroupType("D", 4), (-1, -2, -3, -4)),
        ]:
            with pytest.raises(ValueError, match="is not a Coxeter element"):
                nc.nc_elements(t, c)

    @pytest.mark.parametrize("t,c", [(GroupType("A", 2), (2, 3, 1)), (GroupType("B", 2), (2, -1)), (GroupType("D", 4), (-1, -4, 2, 3))], ids=str)
    def test_reads_a_list_as_its_tuple(self, t, c):
        assert nc.nc_elements(t, list(c)) == nc.nc_elements(t, c)

    @pytest.mark.parametrize(
        "t", [GroupType("A", 3), GroupType("A", 4), GroupType("B", 3), GroupType("B", 4), GroupType("D", 4)], ids=str
    )
    def test_refuses_exactly_what_is_no_coxeter_element(self, t):
        coxeter = set(coxeter_elements_d4() if t.family == "D" else coxeter_class(t.family, t.n))
        for w in enumerate_group(t.family, t.n):
            try:
                nc.nc_elements(t, w)
            except ValueError:
                assert w not in coxeter, w
            else:
                assert w in coxeter, w

    @pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3)])
    def test_count_independent_of_coxeter_element(self, fam, rank):
        t = GroupType(fam, rank)
        n = t.n
        want = cat_number(t)
        target_lt = rank
        count = 0
        for c in enumerate_group(fam, n):
            if sp.length_t(c) != target_lt:
                continue
            # restrict to genuine Coxeter elements: conjugates of the standard one
            if sorted(len(cyc) for cyc in sp.to_cycles(c)) != sorted(
                len(cyc) for cyc in sp.to_cycles(nc_coxeter_element(fam, n))
            ):
                continue
            count += 1
            assert len(nc.nc_elements(t, c)) == want
        assert count > 1


class TestNCScan:
    """The default A/B interval comes from ``_nc_scan``; the walk ``oracles.nc_walk`` is its oracle."""

    @pytest.mark.parametrize("fam,rank", [("A", 8), ("B", 6)])
    def test_scan_equals_walk(self, fam, rank):
        t = GroupType(fam, rank)
        c = nc_coxeter_element(fam, t.n)
        assert sorted(nc.nc_elements(t)) == sorted(nc_walk(t, c))

    @pytest.mark.parametrize("fam,rank", [("A", 9), ("B", 7)])
    def test_beyond_the_walk(self, fam, rank):
        t = GroupType(fam, rank)
        c = nc_coxeter_element(fam, t.n)
        elems = nc.nc_elements(t)
        assert len(set(elems)) == len(elems) == cat_number(t)
        assert all(leq_t(w, c) for w in elems)
        assert all(sp.length_t(w) <= t.rank for w in elems)

    @pytest.mark.parametrize("fam,rank", [("A", 4), ("B", 4)])
    def test_no_group_arithmetic(self, fam, rank, monkeypatch):
        refuse(monkeypatch, "mul")
        refuse(monkeypatch, "length_t")
        assert len(nc.nc_elements(GroupType(fam, rank))) == cat_number(GroupType(fam, rank))

    @pytest.mark.parametrize(
        "fam,rank,c",
        [
            ("A", 3, (2, 3, 4, 1, 5)),  # one entry too many
            ("A", 3, (2, 3, 1)),  # one entry too few
            ("A", 3, (2, 3, 4, 4)),  # not a permutation
            ("A", 3, (2, 3, 4, -1)),  # a sign in type A
            ("D", 4, (2, 3, -4, 1)),  # an odd number of signs in type D
        ],
    )
    def test_malformed_c_rejected(self, fam, rank, c):
        with pytest.raises(ValueError):
            nc.nc_elements(GroupType(fam, rank), c)


class TestNCTree:
    """The default type-D interval is Reading's nc_c of the sortable tree; the
    walk down from c0 (``oracles.nc_walk``) is its oracle."""

    @pytest.mark.parametrize("n", range(2, 8))
    def test_tree_equals_the_walk(self, n):
        t = GroupType("D", n)
        elems = nc.nc_elements(t)
        assert len(set(elems)) == len(elems) == cat_number(t)
        assert elems[0] == sp.identity(n)
        assert set(elems) == set(nc_walk(t, sp.coxeter_element("D", n)[0]))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_absolute_length_is_the_descent_count(self, n):
        # nc_elements(t) lists nc_c(w) for the sortable elements w in tree order
        t = GroupType("D", n)
        gens = [sp.simple_reflection(i, n, "D") for i in range(n)]
        for w, x in zip(so.enumerate_sortables(t), nc.nc_elements(t), strict=True):
            descents = sum(sp.length_s(sp.mul(w, s), "D") < sp.length_s(w, "D") for s in gens)
            assert sp.length_t(x) == descents

    @pytest.mark.parametrize("n", range(2, 9))
    def test_no_absolute_length(self, n, monkeypatch):
        refuse(monkeypatch, "length_t")
        refuse(monkeypatch, "mul")
        elems = nc.nc_elements(GroupType("D", n))
        assert len(set(elems)) == len(elems) == cat_number(GroupType("D", n))
        assert elems[0] == tuple(range(1, n + 1))

    @pytest.mark.parametrize(
        "t",
        [GroupType("A", r) for r in range(1, 5)] + [GroupType("B", r) for r in range(1, 5)] + [GroupType("D", r) for r in range(2, 5)],
        ids=str,
    )
    def test_every_c_word(self, t):
        # nc_c holds for every Coxeter word, not only the default one
        for word in itertools.permutations(range(1, t.n) if t.family == "A" else range(t.n)):
            got = nc._nc_tree(t, word)
            assert len(set(got)) == len(got)
            assert set(got) == set(nc_walk(t, sp.word_to_perm(word, t.n, t.family)))


class TestNCConjugation:
    """Any other c: the default interval conjugated by ``_conjugator``'s g."""

    @pytest.mark.parametrize("t", [GroupType("A", 4), GroupType("B", 4), GroupType("D", 5)], ids=str)
    def test_conjugator_sends_c0_to_c(self, t):
        # D4's class is checked by TestD4Counterexample::test_one_pass_conjugation_is_the_product
        c0 = sp.coxeter_element("D", t.n)[0] if t.family == "D" else nc_coxeter_element(t.family, t.n)
        for c in coxeter_class(t.family, t.n):
            assert conj(nc._conjugator(t, c), c0) == c

    @pytest.mark.parametrize("t", [GroupType("A", 9), GroupType("B", 7), GroupType("D", 8)], ids=str)
    def test_past_the_walk(self, t, monkeypatch):
        # a bipartite Coxeter element: the even letters, then the odd ones
        word = sorted(range(1, t.n) if t.family == "A" else range(t.n), key=lambda s: (s % 2, s))
        c = sp.word_to_perm(word, t.n, t.family)
        assert c != (sp.coxeter_element("D", t.n)[0] if t.family == "D" else nc_coxeter_element(t.family, t.n))
        with monkeypatch.context() as patched:
            refuse(patched, "length_t")
            elems = nc.nc_elements(t, c)
        assert len(set(elems)) == len(elems) == cat_number(t)
        assert elems[0] == sp.identity(t.n)
        assert c in elems
        assert all(leq_t(w, c) for w in elems)


def nc_filter_oracle(t, c=None):
    """The interval [1, c] by filtering the whole group with leq_t."""
    if c is None:
        c = sp.coxeter_element("D", t.n)[0] if t.family == "D" else nc_coxeter_element(t.family, t.n)
    return [w for w in enumerate_group(t.family, t.n) if leq_t(w, c)]


def coxeter_class(fam, n):
    """All conjugates of the standard Coxeter element, sorted."""
    gens = [sp.simple_reflection(i, n, fam) for i in range(1 if fam == "A" else 0, n)]
    c0 = nc_coxeter_element(fam, n)
    cls, frontier = {c0}, [c0]
    while frontier:
        w = frontier.pop()
        for s in gens:
            u = sp.mul(sp.mul(s, w), s)
            if u not in cls:
                cls.add(u)
                frontier.append(u)
    return sorted(cls)


class TestNCWalkAgainstFilter:
    @pytest.mark.parametrize(
        "fam,rank", [("A", r) for r in range(1, 8)] + [("B", r) for r in range(1, 7)]
    )
    def test_standard_c(self, fam, rank):
        t = GroupType(fam, rank)
        assert sorted(nc.nc_elements(t)) == sorted(nc_filter_oracle(t))

    @pytest.mark.parametrize("fam,rank,size", [("A", 3, 6), ("A", 4, 24), ("B", 3, 8)])
    def test_every_coxeter_element(self, fam, rank, size):
        t = GroupType(fam, rank)
        cls = coxeter_class(fam, t.n)
        assert len(cls) == size
        for c in cls:
            assert sorted(nc.nc_elements(t, c)) == sorted(nc_filter_oracle(t, c))

    def test_every_coxeter_element_d4(self):
        t = GroupType("D", 4)
        for c in coxeter_elements_d4():
            assert sorted(nc.nc_elements(t, c)) == sorted(nc_filter_oracle(t, c))


class TestPartitionCodec:
    def test_a_examples(self):
        n = 4
        whole = frozenset([frozenset(range(1, n + 1))])
        assert partition_to_perm_a(whole, n) == (2, 3, 4, 1)
        p = frozenset([frozenset({1, 3}), frozenset({2}), frozenset({4})])
        assert partition_to_perm_a(p, 4) == (3, 2, 1, 4)
        with pytest.raises(ValueError):
            partition_to_perm_a(frozenset([frozenset({1, 3}), frozenset({2, 4})]), 4)

    def test_b_zero_block_example(self):
        p = frozenset([frozenset({2, -2}), frozenset({1, -3}), frozenset({-1, 3})])
        assert partition_to_perm_b(p, 3) == (-3, -2, -1)

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_round_trip_a(self, rank):
        t = GroupType("A", rank)
        for w in nc.nc_elements(t):
            blocks = nc.partition_blocks(w, "A")
            assert_in_serialized_order(blocks)
            p = frozenset(map(frozenset, blocks))
            assert is_noncrossing_a(p)
            assert partition_to_perm_a(p, t.n) == w

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_round_trip_b(self, rank):
        t = GroupType("B", rank)
        for w in nc.nc_elements(t):
            blocks = nc.partition_blocks(w, "B")
            assert_in_serialized_order(blocks)
            p = frozenset(map(frozenset, blocks))
            assert is_noncrossing_b(p, rank)
            assert partition_to_perm_b(p, rank) == w
            symmetric = [b for b in p if frozenset(-v for v in b) == b]
            assert len(symmetric) <= 1

    @pytest.mark.parametrize("n", range(1, 6))
    def test_orbits_noncrossing_exactly_below_c(self, n):
        # w <= (1, 2, ..., n) iff its cycles increase and its orbits do not cross
        c = nc_coxeter_element("A", n)
        for w in enumerate_group("A", n):
            increasing = all(list(cyc) == sorted(cyc) for cyc in sp.to_cycles(w))
            p = frozenset(map(frozenset, nc.partition_blocks(w, "A")))
            assert (increasing and is_noncrossing_a(p)) == leq_t(w, c)

    @pytest.mark.parametrize("fam,rank", [("A", r) for r in range(1, 6)] + [("B", r) for r in range(1, 5)])
    def test_blocks_are_the_orbits_of_every_element(self, fam, rank):
        n = GroupType(fam, rank).n
        for w in enumerate_group(fam, n):
            assert nc.partition_blocks(w, fam) == orbit_blocks(w, fam)

    def test_b_blocks_example(self):
        # (1, -3)(-1, 3) with the zero block {2, -2}
        assert nc.partition_blocks((-3, -2, -1), "B") == [[-3, 1], [-2, 2], [-1, 3]]

    @pytest.mark.parametrize(
        "p,fam,message",
        [
            ((1, 1), "A", "not a signed permutation"),
            ((2, 2), "B", "not a signed permutation"),
            ((-1, 1), "B", "not a signed permutation"),
            ((1, 3), "A", "not a signed permutation"),
            ((-1, 2), "A", "type A forbids negative entries"),
            ((1, 2.0), "B", "entries must be integers"),
            ((2, 1), "X", "unknown family 'X'"),
            ((2, 1), "D", "no type-D set partitions"),
        ],
    )
    def test_blocks_refuse_what_has_no_set_partition(self, p, fam, message):
        # the cycle walk never returns on the first three, so an alarm turns a hang into a failure
        def hang(signum, frame):
            raise AssertionError(f"partition_blocks({p!r}, {fam!r}) did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match=re.escape(message)):
                nc.partition_blocks(p, fam)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def assert_in_serialized_order(blocks):
    """Each block sorted, the blocks in strictly increasing order of their least entries."""
    assert all(b == sorted(b) for b in blocks)
    firsts = [b[0] for b in blocks]
    assert firsts == sorted(set(firsts))


class TestRevNC:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_scan_writes_the_rev_images(self, n):
        assert nc._nc_scan("B", n, under_rev=True) == [sp.rev(w) for w in nc._nc_scan("B", n)]

    @pytest.mark.parametrize("t", [GroupType("A", 4), GroupType("B", 4), GroupType("D", 4)], ids=str)
    def test_rev_nc_in_walk_order(self, t):
        assert nc.rev_nc(t) == [sp.rev(w) for w in nc.nc_elements(t)]

    def test_b2_length_multiset(self):
        t = GroupType("B", 2)
        lengths = sorted(sp.length_s(w, "B") for w in nc.rev_nc(t))
        assert lengths == [0, 1, 1, 2, 3, 4]

    def test_a_rev_is_identity(self):
        t = GroupType("A", 3)
        assert sorted(nc.rev_nc(t)) == sorted(nc.nc_elements(t))

    def test_b3_max_length(self):
        t = GroupType("B", 3)
        elems = nc.rev_nc(t)
        assert len(elems) == 20
        best = max(elems, key=lambda w: sp.length_s(w, "B"))
        assert best == (-1, -2, -3)
        assert sp.length_s(best, "B") == 9


class TestD4Counterexample:
    def test_class_of_coxeter_elements(self):
        cls = coxeter_elements_d4()
        assert all(length_t_bfs(c, "D") == 4 for c in cls)
        assert len(cls) > 1

    def test_conjugated_intervals_equal_the_walk(self):
        t = GroupType("D", 4)
        pairs = list(d4_intervals())
        assert [c for c, _ in pairs] == list(coxeter_elements_d4())
        assert len(pairs) == 32
        for c, interval in pairs:
            assert sorted(interval) == sorted(nc_walk(t, c))

    def test_one_pass_conjugation_is_the_product(self):
        c0 = sp.coxeter_element("D", 4)[0]
        base = nc.nc_elements(GroupType("D", 4), c0)
        for c, g in nc._coxeter_class_d4():
            assert conj(g, c0) == c
            g_inv = sp.inverse(g)
            for w in base:
                u = conj(g, w)
                assert u == sp.mul(sp.mul(g, w), g_inv)
                sp.check_perm(u, "D")

    def test_lane_conjugates_and_rev_lengths(self):
        # each conjugate's columns, and l_D(rev u) read off them, element by element
        t = GroupType("D", 4)
        lanes, cols = nc._pack_d(nc.nc_elements(t), t.n)
        signed = [v for v in range(-t.n, t.n + 1) if v]
        hits = [{v: lanes.eq(col, (v + lanes.off) * lanes.one) for v in signed} for col in cols]
        for (c, g), (c1, interval) in zip(nc._coxeter_class_d4(), d4_intervals(), strict=True):
            assert c == c1
            conjugated = nc._conj_lanes(lanes, hits, g)
            assert list(zip(*map(lanes.values, conjugated))) == interval
            got = lanes.unpack(nc._lengths_d(lanes, conjugated))
            assert list(got) == [sp.length_s(sp.rev(u), "D") for u in interval]

    def test_lane_lengths_of_every_walk(self):
        t = GroupType("D", 4)
        for word in itertools.permutations(range(4)):
            sortables = so.enumerate_sortables(t, word)
            lanes, cols = nc._pack_d(sortables, t.n)
            assert list(lanes.unpack(nc._lengths_d(lanes, cols))) == [sp.length_s(sp.rev(w), "D") for w in sortables]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_lane_lengths_on_the_whole_group(self, n):
        # every sign pattern, at D2-D6 beside D4
        elements = list(enumerate_group("D", n))[::7]
        lanes, cols = nc._pack_d(elements, n)
        got = lanes.unpack(nc._lengths_d(lanes, cols))
        assert list(got) == [sp.length_s(sp.rev(w), "D") for w in elements]

    def test_report(self):
        report = nc.d4_counterexample()
        assert report["failures"] == []
        assert report["checked"] == len(coxeter_elements_d4()) + 24

    @staticmethod
    def expected_failures(nc_check, sortable_check):
        return [{"check": nc_check, "c": repr(c)} for c in coxeter_elements_d4()] + [
            {"check": sortable_check, "word": repr(word)} for word in itertools.permutations(range(4))
        ]

    def test_corrupted_equality_names_every_c_and_word(self, monkeypatch):
        # every polynomial read as Cat_D4(q) itself: both sides then claim the identity
        cat_d4 = rp.cat_q(GroupType("D", 4))
        monkeypatch.setattr(nc, "gen_poly", lambda values: cat_d4)
        report = nc.d4_counterexample()
        assert report["failures"] == self.expected_failures("nc-side-equality", "sortable-side-equality")

    def test_corrupted_cardinality_names_every_c_and_word(self, monkeypatch):
        # one element short on each side: the counts at q = 1 no longer agree
        nc_elements, tree = nc.nc_elements, nc._sortable_tree
        monkeypatch.setattr(nc, "nc_elements", lambda t, c=None: nc_elements(t, c)[1:])
        monkeypatch.setattr(nc, "_sortable_tree", lambda t, word: list(tree(t, word))[1:])
        report = nc.d4_counterexample()
        assert report["failures"] == self.expected_failures("nc-side-cardinality", "sortable-side-cardinality")

    def test_one_corrupted_length_claims_the_identity(self, monkeypatch):
        # (0, 1, 2, 3)'s polynomial is Cat_D4(q) with one q^7 moved to q^10, so reading one
        # of its lengths 10 as 7 makes that ordering, and no other, claim the identity
        tree = nc._sortable_tree

        def corrupted(t, word):
            nodes = list(tree(t, word))
            if word == (0, 1, 2, 3):
                k = next(k for k, (_, length) in enumerate(nodes) if length == 10)
                nodes[k] = (nodes[k][0], 7)
            return nodes

        monkeypatch.setattr(nc, "_sortable_tree", corrupted)
        report = nc.d4_counterexample()
        assert report["failures"] == [{"check": "sortable-side-equality", "word": repr((0, 1, 2, 3))}]

    def test_one_conjugates_lengths_claim_the_identity(self, monkeypatch):
        # one conjugate's lane lengths read as Cat_D4(q)'s multiset: that c, and no other
        # c or ordering, claims the identity, and the counts still agree at q = 1
        cat_d4 = rp.cat_q(GroupType("D", 4))
        claimed = [d for d, k in enumerate(cat_d4.coeffs) for _ in range(k)]
        c, g = nc._coxeter_class_d4()[5]
        conj_lanes, lengths_d = nc._conj_lanes, nc._lengths_d
        seen = []

        def conjugated(lanes, hits, h):
            seen.append(h)
            return conj_lanes(lanes, hits, h)

        def corrupted(lanes, cols):
            return lanes.pack(claimed) if seen[-1] == g else lengths_d(lanes, cols)

        monkeypatch.setattr(nc, "_conj_lanes", conjugated)
        monkeypatch.setattr(nc, "_lengths_d", corrupted)
        report = nc.d4_counterexample()
        assert len(seen) == len(coxeter_elements_d4())
        assert report["failures"] == [{"check": "nc-side-equality", "c": repr(c)}]

    def test_a3_control_equality_holds(self):
        t = GroupType("A", 3)
        lengths = [sp.length_s(w, "A") for w in nc.rev_nc(t)]
        counts = [0] * (max(lengths) + 1)
        for v in lengths:
            counts[v] += 1
        assert QPoly(counts) == rp.cat_q(t)
