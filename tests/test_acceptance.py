"""Acceptance suite: one test per criterion, exact integer arithmetic throughout.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and asserts the criterion.
"""

import pytest

from coxcat import bijmaps as bm
from coxcat import noncrossing as nc
from coxcat import paths
from coxcat import rootposets as rp
from coxcat import signedperm as sp
from coxcat import sortable as so
from coxcat.qseries import GroupType, QPoly, cat_number, q_binomial, qcat_a, qcat_product, is_palindromic
from oracles import avoids_231, ideal_des, length_t_bfs, monomial, substitute_power


def gen_poly(values) -> QPoly:
    counts = [0] * (max(values, default=0) + 1)
    for v in values:
        counts[v] += 1
    return QPoly(counts)


def report(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_counting():
    ok = True
    for n in range(2, 10):
        ok &= len(rp.ideals(GroupType("A", n - 1))) == cat_number(GroupType("A", n - 1))
    ok &= len(rp.ideals(GroupType("A", 8))) == 4862
    for n in range(2, 7):
        ok &= len(rp.ideals(GroupType("B", n))) == cat_number(GroupType("B", n))
    ok &= len(rp.ideals(GroupType("B", 6))) == 924
    ok &= len(rp.ideals(GroupType("D", 4))) == 50
    report(1, "ideal counts match Cat(W)", ok)


def test_criterion_02_cat_b2_three_routes():
    want = QPoly([1, 2, 1, 1, 1])
    by_area = gen_poly([paths.area_b(w) for w in paths.enumerate_b(2)])
    by_ideals = rp.cat_q(GroupType("B", 2))
    by_revnc = gen_poly([sp.length_s(w, "B") for w in nc.rev_nc(GroupType("B", 2))])
    ok = by_area == by_ideals == by_revnc == want
    report(2, "Cat_B2(q) by three independent routes", ok)


def test_criterion_03_recurrences():
    ok = True
    for n in range(0, 8):
        lhs = paths.area_polynomial("A", n + 1)
        rhs = QPoly()
        for k in range(n + 1):
            rhs = rhs + monomial(k) * paths.area_polynomial("A", k) * paths.area_polynomial("A", n - k)
        ok &= lhs == rhs
    for n in range(0, 7):
        lhs = paths.area_polynomial("B", n)
        rhs = paths.area_polynomial("A", n)
        for k in range(n):
            rhs = rhs + monomial(2 * k + 1) * paths.area_polynomial("B", k) * paths.area_polynomial("A", n - k)
        ok &= lhs == rhs
    report(3, "area recurrences (types A and B)", ok)


def test_criterion_04_maj_generating_functions():
    ok = True
    for n in range(0, 9):
        p = gen_poly([paths.maj_a(w) for w in paths.enumerate_a(n)])
        ok &= p == qcat_a(n)
        ok &= is_palindromic(p, n * (n - 1))
    for n in range(1, 7):
        p = gen_poly([paths.maj_b(w) for w in paths.enumerate_b(n)])
        ok &= p == substitute_power(q_binomial(2 * n, n), 2)
        ok &= p == qcat_product(GroupType("B", n))
        ok &= is_palindromic(p, 2 * n * n)
    report(4, "maj generating functions and palindromicity", ok)


def test_criterion_05_equidistribution():
    ok = True
    ranges = [("A", range(2, 8)), ("B", range(1, 6)), ("D", range(2, 5))]
    for fam, ns in ranges:
        for n in ns:
            majs = gen_poly([sp.maj(w, fam) for w in sp.enumerate_group(fam, n)])
            lens = gen_poly([sp.length_s(w, fam) for w in sp.enumerate_group(fam, n)])
            ok &= majs == lens
    report(5, "maj equidistributed with length over W", ok)


@pytest.mark.parametrize("fam,ranks", [("A", range(1, 8)), ("B", range(1, 6))])
def test_criterion_06_phi(fam, ranks):
    ok = True
    for rank in ranks:
        t = GroupType(fam, rank)
        rep = bm.verify_phi_theorems(t)
        ok &= rep["failures"] == []
        # the two generating-function identities follow elementwise; assert them as polynomials
        revnc = nc.rev_nc(t)
        ok &= gen_poly([sp.length_s(w, fam) for w in revnc]) == rp.cat_q(t)
        majimaj = gen_poly([sp.maj(w, fam) + sp.imaj(w, fam) for w in revnc])
        ok &= majimaj == (qcat_a(t.n) if fam == "A" else qcat_product(t))
    report(6, f"phi bijection and statistics (type {fam})", ok)


@pytest.mark.parametrize("fam,ranks", [("A", range(1, 8)), ("B", range(1, 6))])
def test_criterion_07_psi(fam, ranks):
    ok = True
    for rank in ranks:
        t = GroupType(fam, rank)
        rep = bm.verify_psi_theorems(t)
        ok &= rep["failures"] == []
        sortables = so.enumerate_sortables(t)
        ok &= gen_poly([sp.length_s(w, fam) for w in sortables]) == rp.cat_q(t)
        majimaj = gen_poly([sp.maj(w, fam) + sp.imaj(w, fam) for w in sortables])
        ok &= majimaj == (qcat_a(t.n) if fam == "A" else qcat_product(t))
    report(7, f"psi bijection and statistics (type {fam})", ok)


def test_criterion_08_worked_example_regression():
    ok = True
    # phi_9 and its lift
    ideal = frozenset(
        rp.diff(a, b)
        for a, b in [
            (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
            (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (7, 9), (1, 4), (2, 5), (3, 6),
        ]
    )
    t9, t10 = GroupType("A", 8), GroupType("A", 9)
    sigma = bm.phi(t9, ideal)
    ok &= sigma == (7, 3, 4, 5, 2, 6, 9, 8, 1)
    ok &= ideal_des(t9, ideal) == {5, 8, 11, 13} and rp.ideal_maj(t9, ideal) == 35
    ok &= sp.maj(sigma, "A") == 20 and sp.imaj(sigma, "A") == 17
    lifted = rp.lift_delta(t9, ideal)
    ok &= bm.phi(t10, lifted) == (10, 6, 3, 4, 5, 7, 2, 9, 8, 1)
    ok &= rp.ideal_maj(t10, lifted) == 39
    # phi_4 and its lift
    t4, t5 = GroupType("B", 4), GroupType("B", 5)
    ideal_b = rp.root_poset(t4).ideal_from_antichain([rp.diff(1, 4), rp.short(1)])
    ok &= bm.phi(t4, ideal_b) == (4, 3, 2, -1)
    ok &= bm.phi(t5, rp.lift_delta(t4, ideal_b)) == (4, 3, 2, -1, -5)
    # psi words
    sig_a, sw_a = bm.psi_a("NNNNEEENNEEE")
    ok &= sig_a == (6, 2, 1, 5, 4, 3) and sw_a.factors == ((5, 4, 3, 2, 1), (5, 4, 2), (5,))
    sig_b, sw_b = bm.psi_b("NNNNEEENNNNE")
    ok &= sig_b == (1, -2, -6, 5, 4, 3)
    ok &= sw_b.factors == ((5, 4, 3, 2, 1, 0), (5, 4, 2, 1, 0), (5, 2, 1))
    # path statistics
    ok &= paths.maj_b("NENNENNNENNE") == 48
    ok &= paths.lattice_maj("NEENEENNENNE") == 24
    ok &= paths.unfold_lattice_to_b("NEENEENNENNE") == "NENNENNNENNE"
    # cycle notation quadruple
    ok &= sp.to_cycles((4, 2, 6, 5, 1, 3)) == ((1, 4, 5), (3, 6))
    ok &= sp.to_cycles((4, 2, -6, 5, 1, -3)) == ((1, 4, 5), (3, -6))
    ok &= sp.to_cycles((4, 2, -6, 5, 1, 3)) == ((1, 4, 5), (3, -6, -3))
    ok &= sp.to_cycles((4, 2, 6, 5, -1, -3)) == ((1, 4, 5, -1), (3, 6, -3))
    # rev example
    ok &= sp.rev((2, -4, 3, -1)) == (2, -1, 3, -4)
    # S_3 sorting words and the unique unsortable element
    words = {w: str(so.c_sorting_word(w, (2, 1), "A")) for w in sp.enumerate_group("A", 3)}
    ok &= words[(2, 3, 1)] == "s1 | s2" and not so.is_c_sortable((2, 3, 1), (2, 1), "A")
    ok &= sorted(words.values()) == sorted(["e", "s2", "s2 s1", "s2 s1 | s2", "s1", "s1 | s2"])
    report(8, "worked-example regressions", ok)


def test_criterion_09_d4_negative_result():
    rep = nc.d4_counterexample()
    ok = rep["failures"] == [] and rep["checked"] >= 25
    report(9, "type-D counterexamples (both sides, q=1 agreement)", ok)


def test_criterion_10_oracle_cross_checks():
    ok = True
    # rank 5 in the symmetric-group family means one-line size 6
    for fam, ns in [("A", range(2, 7)), ("B", range(1, 4)), ("D", range(2, 6))]:
        for n in ns:
            for w in sp.enumerate_group(fam, n):
                ok &= sp.length_t(w) == length_t_bfs(w, fam)
    # cell poset is isomorphic to the B_n root poset, covers both ways
    for n in range(1, 7):
        t = GroupType("B", n)
        poset = rp.root_poset(t)
        cells = [(i, j) for i in range(n) for j in range(i + 1, 2 * n - i)]
        ok &= len(cells) == len(poset.roots)
        for c in cells:
            i, j = c
            covered = []
            if j - 1 > i:
                covered.append((i, j - 1))
            if i + 1 < j and j <= 2 * n - 1 - (i + 1):
                covered.append((i + 1, j))
            r = rp.root_of_cell_b(c, n)
            want = {poset.roots[k] for k in poset.lower_covers[poset.index[r]]}
            ok &= {rp.root_of_cell_b(d, n) for d in covered} == want
    # sortable iff 231-avoiding
    for n in range(1, 8):
        c_word = tuple(range(n - 1, 0, -1))
        for w in sp.enumerate_group("A", n):
            ok &= so.is_c_sortable(w, c_word, "A") == avoids_231(w)
    report(10, "independent oracle cross-checks", ok)
