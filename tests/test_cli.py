import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxcat import bijmaps, cli, paths, qseries, rootposets
from coxcat.cli import main
from oracles import refuse


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestPoly:
    def test_pinned_example(self, capsys):
        code, out = run(capsys, ["poly", "--object", "ideal", "--type", "B", "--n", "2", "--stat", "area"])
        assert code == 0
        assert out.strip() == "1 + 2q + q^2 + q^3 + q^4"

    def test_json_format(self, capsys):
        code, out = run(capsys, ["poly", "--object", "dyck", "--type", "B", "--n", "2", "--stat", "area", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"coeffs": [1, 2, 1, 1, 1]}

    def test_sortable_ls(self, capsys):
        code, out = run(capsys, ["poly", "--object", "sortable", "--type", "B", "--n", "2", "--stat", "ls"])
        assert code == 0
        assert out.strip() == "1 + 2q + q^2 + q^3 + q^4"

    def test_revnc_majimaj(self, capsys):
        code, out = run(capsys, ["poly", "--object", "revnc", "--type", "B", "--n", "2", "--stat", "majimaj"])
        assert code == 0
        assert out.strip() == "1 + q^2 + 2q^4 + q^6 + q^8"


class TestPolyUsageErrors:
    """An object/statistic pair with no meaning exits 2 before anything is enumerated."""

    @pytest.mark.parametrize(
        "obj,stat,kind",
        [("dyck", "ls", "path"), ("ideal", "lt", "ideal"), ("nc", "area", "perm"), ("partition", "maj", "partition")],
    )
    def test_undefined_statistic_fails_before_enumerating(self, capsys, monkeypatch, obj, stat, kind):
        refuse(monkeypatch, "_enumerate_objects")
        assert main(["poly", "--object", obj, "--stat", stat, "--type", "A", "--n", "12"]) == 2
        assert capsys.readouterr().err == f"error: statistic {stat!r} undefined for {kind}\n"

    def test_every_listed_statistic_runs_and_no_other(self, capsys):
        assert tuple(cli._KIND) == cli._OBJECTS
        assert set(cli._STAT_READERS) < set(cli._KIND.values())
        for obj, kind in cli._KIND.items():
            for stat in cli._STATS:
                code = main(["poly", "--object", obj, "--stat", stat, "--type", "B", "--n", "2"])
                err = capsys.readouterr().err
                if stat in cli._STAT_READERS.get(kind, {}):
                    assert (code, err) == (0, ""), (obj, stat)
                else:
                    assert (code, err) == (2, f"error: statistic {stat!r} undefined for {kind}\n"), (obj, stat)

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--object", "ideal", "--type", "D", "--n", "4", "--format", "csv"],
            ["poly", "--object", "ideal", "--type", "D", "--n", "4", "--stat", "maj"],
            ["enumerate", "--object", "ideal", "--type", "D", "--n", "6", "--format", "csv"],
            ["poly", "--object", "ideal", "--type", "D", "--n", "6", "--stat", "maj"],
            ["poly", "--object", "ideal", "--type", "D", "--n", "8", "--stat", "maj", "--unsafe"],
        ],
        ids=" ".join,
    )
    def test_type_d_ideals_have_no_maj(self, capsys, monkeypatch, argv):
        # refused before the ideal guard (D6 is past it) and before any ideal is listed
        refuse(monkeypatch, "ideals")
        refuse(monkeypatch, "_ideal_masks")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: maj is undefined for type-D ideals: it is read off the Dyck path, which exists only in types A and B\n"
        )


class TestPathPolynomials:
    """``poly`` of A/B paths and ideals by area or maj: one path DFS, no enumeration."""

    @pytest.mark.parametrize("family,rank", [("A", r) for r in range(1, 9)] + [("B", r) for r in range(1, 7)])
    def test_ideal_polys_match_ideal_enumeration(self, capsys, family, rank):
        t = qseries.GroupType(family, rank)
        ideals = rootposets.ideals(t)
        want = {"area": qseries.gen_poly(map(len, ideals)), "maj": qseries.gen_poly(rootposets.ideal_maj(t, i) for i in ideals)}
        for stat, poly in want.items():
            code, out = run(capsys, ["poly", "--object", "ideal", "--stat", stat, "--type", family, "--n", str(t.n), "--format", "json"])
            assert code == 0
            assert qseries.QPoly.from_json(json.loads(out)) == poly

    def test_nothing_is_enumerated_or_rechecked(self, capsys, monkeypatch):
        refuse(monkeypatch, "_ideal_masks")
        refuse(monkeypatch, "_dyck_columns")
        refuse(monkeypatch, "enumerate_a")
        for obj in ("dyck", "ideal"):
            code, out = run(capsys, ["poly", "--object", obj, "--stat", "maj", "--type", "A", "--n", "6"])
            assert code == 0
            assert out.strip() == str(qseries.qcat_a(6))
        assert rootposets.cat_q(qseries.GroupType("A", 5))(1) == 132
        # the patches bite on the routes that still enumerate
        with pytest.raises(AssertionError):
            rootposets.cat_q(qseries.GroupType("D", 4))
        with pytest.raises(AssertionError):
            main(["poly", "--object", "ideal", "--stat", "area", "--type", "D", "--n", "4"])
        with pytest.raises(AssertionError):
            main(["enumerate", "--object", "dyck", "--type", "A", "--n", "6"])
        with pytest.raises(AssertionError):
            paths.maj_a("NE")

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_type_d_ideal_area_is_cat_q(self, capsys, monkeypatch, n):
        # one route for ideal area in every type: cat_q, with no frozenset ideal built
        refuse(monkeypatch, "ideals")
        code, out = run(capsys, ["poly", "--object", "ideal", "--stat", "area", "--type", "D", "--n", str(n), "--format", "json"])
        assert code == 0
        assert qseries.QPoly.from_json(json.loads(out)) == rootposets.cat_q(qseries.GroupType("D", n))

    def test_each_route_checks_one_guard_and_reads_the_pass(self, capsys, monkeypatch):
        refuse(monkeypatch, "area_polynomial")
        refuse(monkeypatch, "maj_polynomial")
        for obj in ("dyck", "ideal"):
            for stat in ("area", "maj"):
                code, out = run(capsys, ["poly", "--object", obj, "--stat", stat, "--type", "B", "--n", "3"])
                assert code == 0
                assert out.strip() == str(paths._stat_counts("B", 3)[stat == "maj"])
        assert rootposets.cat_q(qseries.GroupType("B", 3)) == paths._stat_counts("B", 3)[0]
        assert main(["poly", "--object", "dyck", "--stat", "maj", "--type", "A", "--n", "13"]) == 2
        assert capsys.readouterr().err == "error: path enumeration guarded at n <= 12 for type A\n"

    def test_unsafe_ideal_meets_no_path_guard(self, capsys, monkeypatch):
        # type-D ideals, which have no paths, answer to the ideal mask guard (D9) alone
        monkeypatch.setattr(rootposets, "cat_q", lambda t: qseries.QPoly([t.rank]))
        code, out = run(capsys, ["poly", "--object", "ideal", "--stat", "area", "--type", "D", "--n", "12", "--unsafe"])
        assert (code, out) == (0, "12\n")
        assert main(["poly", "--object", "ideal", "--stat", "area", "--type", "D", "--n", "10"]) == 2
        assert capsys.readouterr().err == "error: ideal mask enumeration guarded at rank 9 for type D\n"

    @pytest.mark.parametrize("family,n", [("A", 12), ("B", 8)])
    def test_ideal_answers_to_the_path_guard(self, capsys, monkeypatch, family, n):
        # A/B ideals read the paths' tree fold at the same n as paths, past the ideal guard
        # (A11 and B8 are ideals the ideal row refuses to list), and meet the path guard one step on
        monkeypatch.setattr(rootposets, "cat_q", lambda t: pytest.fail("poly went through cat_q"))
        for stat in ("area", "maj"):
            code, out = run(capsys, ["poly", "--object", "ideal", "--stat", stat, "--type", family, "--n", str(n), "--format", "json"])
            assert code == 0
            assert qseries.QPoly.from_json(json.loads(out)) == paths._stat_counts(family, n)[stat == "maj"]
        assert main(["poly", "--object", "ideal", "--stat", "area", "--type", family, "--n", str(n + 1)]) == 2
        assert capsys.readouterr().err == f"error: path enumeration guarded at n <= {n} for type {family}\n"
        assert main(["enumerate", "--object", "ideal", "--type", family, "--n", str(n)]) == 2


class TestEnumerate:
    def test_empty_b_path(self, capsys):
        code, out = run(capsys, ["enumerate", "--object", "dyck", "--type", "B", "--n", "0"])
        assert code == 0
        assert out == "\n"

    def test_b2_paths_sorted(self, capsys):
        code, out = run(capsys, ["enumerate", "--object", "dyck", "--type", "B", "--n", "2"])
        lines = out.splitlines()
        assert lines == sorted(lines)
        assert set(lines) == {"NENE", "NENN", "NNEE", "NNEN", "NNNE", "NNNN"}

    def test_ideals_json(self, capsys):
        code, out = run(capsys, ["enumerate", "--object", "ideal", "--type", "B", "--n", "2"])
        lines = [json.loads(l) for l in out.splitlines()]
        assert len(lines) == 6
        assert {"roots": []} in lines

    def test_partition_listing(self, capsys):
        code, out = run(capsys, ["enumerate", "--object", "partition", "--type", "A", "--n", "3"])
        lines = [json.loads(l) for l in out.splitlines()]
        assert len(lines) == 5
        assert [[1], [2], [3]] in lines
        assert [[1, 2, 3]] in lines

    @pytest.mark.parametrize("n", [4, 6])
    def test_no_type_d_partitions(self, capsys, n):
        # refused before the non-crossing guard, which D6 would exceed
        assert main(["enumerate", "--object", "partition", "--type", "D", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no type-D set partitions\n"

    def test_nc_json(self, capsys):
        code, out = run(capsys, ["enumerate", "--object", "nc", "--type", "B", "--n", "2", "--format", "json"])
        assert code == 0
        lines = [json.loads(l) for l in out.splitlines()]
        assert len(lines) == 6
        assert lines[0] == {"oneline": [-1, 2]}
        assert all(list(line) == ["oneline"] for line in lines)

    def test_csv(self, capsys):
        code, out = run(capsys, ["enumerate", "--object", "dyck", "--type", "A", "--n", "2", "--format", "csv"])
        rows = [l.split(",") for l in out.splitlines()]
        assert rows == [["NENE", "0", "2"], ["NNEE", "1", "0"]]

    @pytest.mark.parametrize("family,n", [("A", 13), ("B", 9), ("D", 3)])
    def test_dyck_guard_exit_code(self, capsys, family, n):
        code = main(["enumerate", "--object", "dyck", "--type", family, "--n", str(n)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_guard_exit_code(self, capsys):
        code, _ = run(capsys, ["enumerate", "--object", "ideal", "--type", "B", "--n", "9"])
        assert code == 2

    @pytest.mark.parametrize(
        "obj,family,n", [("nc", "A", 11), ("revnc", "B", 7), ("partition", "A", 11), ("nc", "D", 6)]
    )
    def test_nc_guard_exit_code(self, capsys, obj, family, n):
        code = main(["enumerate", "--object", obj, "--type", family, "--n", str(n)])
        assert code == 2
        assert "non-crossing enumeration guarded" in capsys.readouterr().err

    def test_nc_at_guard_allowed(self, capsys):
        code, out = run(capsys, ["poly", "--object", "nc", "--type", "B", "--n", "6", "--stat", "lt"])
        assert code == 0
        assert out.strip() == "1 + 36q + 225q^2 + 400q^3 + 225q^4 + 36q^5 + q^6"

    def test_unsafe_overrides_every_guard(self, capsys):
        argv = ["poly", "--object", "nc", "--type", "D", "--n", "7", "--stat", "ls", "--format", "json"]
        code = main(argv)
        assert code == 2
        assert "non-crossing enumeration guarded at rank 5 for type D" in capsys.readouterr().err
        code, out = run(capsys, argv + ["--unsafe"])
        assert code == 0
        assert sum(json.loads(out)["coeffs"]) == 2508  # Cat(D7)

    def test_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--object", "nonsense", "--n", "2"])
        assert exc.value.code == 2

    def test_poly_has_no_csv(self, capsys):
        # csv rows carry per-object statistics, so only enumerate has them
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--object", "dyck", "--type", "A", "--n", "3", "--stat", "area", "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestMap:
    IDEAL_LINE = json.dumps({
        "roots": [
            "e2-e1", "e3-e2", "e4-e3", "e5-e4", "e6-e5", "e7-e6", "e8-e7", "e9-e8",
            "e3-e1", "e4-e2", "e5-e3", "e6-e4", "e7-e5", "e9-e7",
            "e4-e1", "e5-e2", "e6-e3",
        ]
    })

    def test_phi_a_pinned(self, capsys, monkeypatch):
        code, out = run(capsys, ["map", "--via", "phiA", "--n", "9"], stdin=self.IDEAL_LINE, monkeypatch=monkeypatch)
        assert code == 0
        assert out.strip() == "[7,3,4,5,2,6,9,8,1]  ls=17"

    def test_phi_a_json(self, capsys, monkeypatch):
        code, out = run(capsys, ["map", "--via", "phiA", "--n", "9", "--format", "json"], stdin=self.IDEAL_LINE, monkeypatch=monkeypatch)
        data = json.loads(out)
        assert data["image"]["oneline"] == [7, 3, 4, 5, 2, 6, 9, 8, 1]
        assert data["ls"] == 17
        assert data["majimaj"] == 37

    def test_psi_b(self, capsys, monkeypatch):
        code, out = run(capsys, ["map", "--via", "psiB", "--n", "6"], stdin="NNNNEEENNNNE\n", monkeypatch=monkeypatch)
        assert code == 0
        assert out.strip() == "[1,-2,-6,5,4,3]  ls=14"

    def test_text_mode_reads_no_maj(self, capsys, monkeypatch):
        refuse(monkeypatch, "imaj")
        code, out = run(capsys, ["map", "--via", "psiA", "--n", "3"], stdin="NNNEEE\n", monkeypatch=monkeypatch)
        assert code == 0
        assert out.strip() == "[3,2,1]  ls=3"

    def test_psi_a_json_steps(self, capsys, monkeypatch):
        code, out = run(capsys, ["map", "--via", "psiA", "--n", "6"], stdin='{"steps": "NNNNEEENNEEE"}\n', monkeypatch=monkeypatch)
        assert out.strip() == "[6,2,1,5,4,3]  ls=9"

    def test_bad_input(self, capsys, monkeypatch):
        code, _ = run(capsys, ["map", "--via", "phiA", "--n", "3"], stdin='{"roots": ["x"]}\n', monkeypatch=monkeypatch)
        assert code == 2

    def test_phi_rejects_non_ideal(self, capsys, monkeypatch):
        # e3-e1 sits above e2-e1 and e3-e2, so {e3-e1} alone is not an order ideal
        monkeypatch.setattr("sys.stdin", io.StringIO('{"roots":["e3-e1"]}\n'))
        code = main(["map", "--via", "phiA", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "line 1: not an order ideal of A2: it holds e3-e1 but not e2-e1" in captured.err

    def test_phi_names_root_outside_rank(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"roots":["e2-e1"]}\n{"roots":["e9-e1"]}\n'))
        code = main(["map", "--via", "phiA", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.strip() == "[2,1,3]  ls=1"
        assert "line 2: e9-e1 is not a positive root of A2" in captured.err

    @pytest.mark.parametrize("line", ['{"root": ["e2-e1"]}', "[1, 2]", '"e2-e1"', "e2-e1", '{"roots": [e2-e1]}'])
    def test_phi_rejects_malformed_line(self, capsys, monkeypatch, line):
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        code = main(["map", "--via", "phiA", "--n", "3"])
        assert code == 2
        assert "line 1: expected a list of root strings" in capsys.readouterr().err

    def test_phi_b_rejects_non_ideal(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"roots":["e2"]}\n'))
        code = main(["map", "--via", "phiB", "--n", "2"])
        assert code == 2
        assert "line 1: not an order ideal of B2" in capsys.readouterr().err

    @pytest.mark.parametrize("via,n,word", [("psiA", 5, "NNEE"), ("psiB", 2, "NNN"), ("psiA", 2, "NNEENE")])
    def test_psi_word_length_must_be_2n(self, capsys, monkeypatch, via, n, word):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{word}\n"))
        code = main(["map", "--via", via, "--n", str(n)])
        assert code == 2
        assert repr(word) in capsys.readouterr().err

    def test_inverse_accepts_cycle_notation(self, capsys, monkeypatch):
        code, out = run(
            capsys,
            ["map", "--via", "phiA", "--n", "9", "--inverse"],
            stdin="(1,7,9)(2,3,4,5)\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        roots = json.loads(out.split("  ")[0])["roots"]
        assert len(roots) == 17 and "e9-e7" in roots
        assert out.strip().endswith("ls=17")

    def test_inverse_psi(self, capsys, monkeypatch):
        code, out = run(
            capsys,
            ["map", "--via", "psiB", "--n", "6", "--inverse"],
            stdin="[1,-2,-6,5,4,3]\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out.strip() == "NNNNEEENNNNE  ls=14"

    def test_inverse_psi_json(self, capsys, monkeypatch):
        code, out = run(
            capsys,
            ["map", "--via", "psiA", "--n", "2", "--inverse", "--format", "json"],
            stdin="[2,1]\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out) == {"preimage": {"steps": "NNEE"}, "ls": 1}

    def test_inverse_psi_builds_no_table(self, capsys, monkeypatch):
        # B9 is past the path guard; psi's inverse reads one sorting word per line
        refuse(monkeypatch, "_inverse_rows")
        words = ["NNENENNENNENENENEN", "NENENENENENENENENE", "N" * 18]
        lines = [json.dumps(list(bijmaps.psi_b(word)[0])) for word in words]
        code, out = run(capsys, ["map", "--via", "psiB", "--n", "9", "--inverse"], stdin="\n".join(lines) + "\n", monkeypatch=monkeypatch)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == words

    @pytest.mark.parametrize("via,n", [("psiA", 30), ("psiB", 20)])
    def test_inverse_psi_round_trip_past_the_path_guard(self, capsys, monkeypatch, via, n):
        word = "N" * (n // 2) + "NE" * (n // 2) + "E" * (n // 2) if via == "psiA" else "NNE" * (n // 2) + "N" * (n // 2)
        code, image = run(capsys, ["map", "--via", via, "--n", str(n)], stdin=word + "\n", monkeypatch=monkeypatch)
        assert code == 0
        code, out = run(capsys, ["map", "--via", via, "--n", str(n), "--inverse"], stdin=image.split()[0] + "\n", monkeypatch=monkeypatch)
        assert code == 0
        assert out.split()[0] == word

    @pytest.mark.parametrize("line", ["NENEX", "NENE extra", "NEXE", '{"steps": "NENEX"}'])
    def test_psi_rejects_non_step_characters(self, capsys, monkeypatch, line):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"NENE\n{line}\n"))
        code = main(["map", "--via", "psiA", "--n", "2"])
        captured = capsys.readouterr()
        word = json.loads(line)["steps"] if line.startswith("{") else line
        assert code == 2
        assert captured.out.strip() == "[1,2]  ls=0"
        assert captured.err == f"error: line 2: not a type-A Dyck word: {word!r}\n"

    @pytest.mark.parametrize("line", ['{"roots": ["e2-e1", "e2-e1"]}', '["e2-e1", "e3-e2", "e2-e1"]'])
    def test_phi_rejects_a_repeated_root(self, capsys, monkeypatch, line):
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert main(["map", "--via", "phiA", "--n", "3"]) == 2
        assert capsys.readouterr().err == "error: line 1: root 'e2-e1' is repeated\n"

    def test_inverse_phi_guarded_like_ideal_enumeration(self, capsys, monkeypatch):
        # A10 has paths of semilength 11, inside the path guard, but is past the ideal guard
        monkeypatch.setattr("sys.stdin", io.StringIO("[1,2,3,4,5,6,7,8,9,10,11]\n"))
        code = main(["map", "--via", "phiA", "--n", "11", "--inverse"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "ideal enumeration guarded at rank 9 for type A" in captured.err

    def test_inverse_outside_image(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[2,3,1]\n"))
        assert main(["map", "--via", "psiA", "--n", "3", "--inverse"]) == 2
        assert capsys.readouterr().err == "error: line 1: (2, 3, 1) is not in the image of psiA\n"

    @pytest.mark.parametrize("via,line", [("psiA", "[1,2,3]"), ("phiB", "[1,-2]"), ("psiB", "[2,1,3,4,5,6,7,8,9]")])
    def test_inverse_checks_the_length_before_building_the_table(self, capsys, monkeypatch, via, line):
        refuse(monkeypatch, "_inverse_rows")
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        code = main(["map", "--via", via, "--n", "8", "--inverse"])
        captured = capsys.readouterr()
        image = tuple(json.loads(line))
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: line 1: {image} has {len(image)} entries, but --n 8 needs 8\n"

    @pytest.mark.parametrize(
        "args,message",
        [
            ([], 'expected a step string or {"steps": "..."}'),
            (["--inverse"], 'expected a list of integers or {"oneline": [...]}'),
        ],
    )
    def test_json_object_without_its_key(self, capsys, monkeypatch, args, message):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"a":1}\n'))
        code = main(["map", "--via", "psiA", "--n", "2", *args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"line 1: {message}" in captured.err

    @pytest.mark.parametrize(
        "line", ['{"steps": 3}', '{"steps": ["N", "E", "N", "E"]}', '{"steps": null}', '{"steps": NENE', '"NENE']
    )
    def test_psi_rejects_non_string_steps(self, capsys, monkeypatch, line):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"NENE\n{line}\n"))
        code = main(["map", "--via", "psiA", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.strip() == "[1,2]  ls=0"
        assert "line 2: expected a step string" in captured.err

    @pytest.mark.parametrize(
        "line", ["[1.7,2]", "[1.0,2]", "[true,2]", '["1",2]', '{"oneline": [2.0, 1]}', "7", "1,2", "[1,2"]
    )
    def test_inverse_rejects_non_integer_entries(self, capsys, monkeypatch, line):
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        code = main(["map", "--via", "psiA", "--n", "2", "--inverse"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "line 1: expected a list of integers" in captured.err

    @pytest.mark.parametrize(
        "line,message",
        [
            ("[3,1,2]", "(3, 1, 2) has 3 entries, but --n 2 needs 2"),
            ("(1,5)", "entry out of range in cycle (1, 5)"),
            ("[1,1]", "not a signed permutation: (1, 1)"),
            ("(1,x)", "bad cycle string '(1,x)'"),
            ("(1,1)", "repeated entry in cycle (1, 1)"),
            ("(1,2", "bad cycle string '(1,2'"),
            ("(1,,2)", "bad cycle string '(1,,2)'"),
            ("(1,2,)", "bad cycle string '(1,2,)'"),
        ],
    )
    def test_inverse_errors_name_the_line(self, capsys, monkeypatch, line, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"[2,1]\n\n{line}\n"))
        code = main(["map", "--via", "psiA", "--n", "2", "--inverse"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.strip() == "NNEE  ls=1"
        assert f"line 3: {message}" in captured.err

    @pytest.mark.parametrize(
        "args,line,message",
        [
            (["--via", "phiA", "--n", "3"], "e2-e1", 'expected a list of root strings or {"roots": [...]}, got \'e2-e1\''),
            (["--via", "psiA", "--n", "2", "--inverse"], "1,2", 'expected a list of integers or {"oneline": [...]}, got \'1,2\''),
            (["--via", "psiA", "--n", "2"], '{"steps": NENE', 'expected a step string or {"steps": "..."}, got \'{"steps": NENE\''),
        ],
    )
    def test_line_that_is_not_json_names_the_expected_shape(self, capsys, monkeypatch, args, line, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        assert main(["map", *args]) == 2
        assert capsys.readouterr().err == f"error: line 1: {message}\n"


class TestVerify:
    def test_single(self, capsys):
        code, out = run(capsys, ["verify", "--which", "phiB", "--n", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["identity"] == "phiB"
        assert report["checked"] == 20
        assert report["failures"] == []

    def test_d4(self, capsys):
        code, out = run(capsys, ["verify", "--which", "d4"])
        assert code == 0
        (report,) = [json.loads(l) for l in out.splitlines()]
        assert report["checked"] == 56
        assert report["failures"] == []

    def test_all_defaults(self, capsys):
        code, out = run(capsys, ["verify", "--all"])
        assert code == 0
        reports = [json.loads(l) for l in out.splitlines()]
        assert any(r["identity"] == "d4-counterexample" for r in reports)
        assert all(r["failures"] == [] for r in reports)

    def test_sweep_past_a_guard_prints_nothing(self, capsys, monkeypatch):
        # every task is checked against the verify guard before the first one runs
        refuse(monkeypatch, "_row_columns")
        code = main(["verify", "--all", "--max-n", "9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: verify enumeration guarded at rank 8 for type B\n"

    @pytest.mark.parametrize(
        "which,n,message", [("psiA", "12", "rank 10 for type A"), ("phiB", "9", "rank 8 for type B")], ids=["psiA", "phiB"]
    )
    def test_guard_comes_before_the_paths(self, capsys, monkeypatch, which, n, message):
        refuse(monkeypatch, "_row_columns")
        code = main(["verify", "--which", which, "--n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: verify enumeration guarded at {message}\n"

    def test_deeper_sweep_passes_every_guard(self, capsys):
        code, out = run(capsys, ["verify", "--all", "--max-n", "6"])
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert len(reports) == 21
        assert ("psiB", 6) in [(r["identity"], r["rank"]) for r in reports]
        assert all(r["failures"] == [] for r in reports)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--all", "--n", "9"], "--n goes only with a single phi/psi identity, not with --which all"),
            (["--which", "d4", "--n", "9"], "--n goes only with a single phi/psi identity, not with --which d4"),
            (["--which", "phiA", "--n", "4", "--max-n", "9"], "--max-n goes only with --which all, not with --which phiA"),
            (["--which", "d4", "--max-n", "5"], "--max-n goes only with --which all, not with --which d4"),
        ],
    )
    def test_ignored_flag_is_refused_before_any_report(self, capsys, argv, message):
        code = main(["verify", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_requires_n(self, capsys):
        code = main(["verify", "--which", "phiA"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: --which phiA needs --n" in captured.err

    @pytest.mark.parametrize("max_n", ["1", "-1", "-5"])
    def test_max_n_below_two_is_refused_before_any_report(self, capsys, max_n):
        # a sweep capped below 2 would drop every phi/psi task and check only d4
        code = main(["verify", "--all", "--max-n", max_n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"--max-n must be 0 or at least 2, got {max_n}" in captured.err

    def test_rank_error_names_the_group(self, capsys):
        # --n is the classical n, so --n 1 in type A would ask for A0
        code = main(["verify", "--which", "phiA", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --n 1 is too small for type A: it needs --n >= 2\n"

    @pytest.mark.parametrize(
        "argv,stdin,message",
        [
            (["verify", "--which", "psiB", "--n", "0"], "", "--n 0 is too small for type B: it needs --n >= 1"),
            (["map", "--via", "psiA", "--n", "1", "--inverse"], "[1]\n", "--n 1 is too small for type A: it needs --n >= 2"),
            (["map", "--via", "psiB", "--n", "0"], "\n", "--n 0 is too small for type B: it needs --n >= 1"),
            (["enumerate", "--object", "ideal", "--type", "D", "--n", "1"], "", "--n 1 is too small for type D: it needs --n >= 2"),
            (["enumerate", "--object", "dyck", "--n", "-1"], "", "--n -1 is too small for paths: it needs --n >= 0"),
            (["poly", "--object", "dyck", "--stat", "maj", "--type", "B", "--n", "-2"], "", "--n -2 is too small for paths: it needs --n >= 0"),
        ],
    )
    def test_too_small_n_names_the_option(self, capsys, monkeypatch, argv, stdin, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("which,n", [("phiA", "2"), ("psiB", "1")])
    def test_smallest_n_is_accepted(self, capsys, which, n):
        code, out = run(capsys, ["verify", "--which", which, "--n", n])
        assert code == 0
        assert json.loads(out)["failures"] == []

    def test_import_leaves_the_process_pool_out(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = "import sys, coxcat.cli; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()
        first = cli.build_parser().parse_args(["verify", "--which", "psiA", "--n", "4"])
        second = cli.build_parser().parse_args(["verify", "--all"])
        assert (first.which, first.n, first.max_n) == ("psiA", 4, 0)
        assert (second.which, second.n, second.max_n) == ("all", None, 0)


class TestBugsAreNoUsageErrors:
    """Only a ValueError is a usage error (exit 2); a KeyError can only come from a bug, and propagates."""

    @pytest.mark.parametrize(
        "module,name,argv",
        [
            (cli, "_selftest_cases", ["selftest"]),
            (paths, "_stat_counts", ["poly", "--object", "dyck", "--stat", "maj", "--n", "3"]),
        ],
    )
    def test_key_error_propagates(self, capsys, monkeypatch, module, name, argv):
        def broken(*args):
            raise KeyError("x")

        monkeypatch.setattr(module, name, broken)
        with pytest.raises(KeyError):
            main(argv)  # neither returns 2 nor prints "error: 'x'"
        assert capsys.readouterr().err == ""


class TestSelftest:
    def test_passes(self, capsys):
        code, out = run(capsys, ["selftest"])
        assert code == 0
        assert "FAIL" not in out
        assert out.count("ok:") >= 20
        assert "ok: Cat_D4(q) by ideal sizes\n" in out and "ok: Cat_D7(1) by ideal sizes\n" in out

    def test_python_dash_m(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "coxcat", "selftest"], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert "FAIL" not in proc.stdout
        assert proc.stdout.count("ok:") >= 20


class TestBrokenPipe:
    """A reader that leaves early (``| head -1``) ends the run with 141, 128 + SIGPIPE,
    and nothing on stderr: exit 1 would read as a verification failure."""

    @pytest.mark.parametrize(
        "argv,keep",
        [
            (["enumerate", "--object", "dyck", "--type", "A", "--n", "10"], 1),  # leaves mid-listing
            (["verify", "--which", "d4"], 0),  # leaves before the report
            (["selftest"], 0),  # leaves before the flush at exit
        ],
        ids=["enumerate", "verify", "selftest"],
    )
    def test_exits_141_quietly(self, argv, keep):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "coxcat", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        lines = [proc.stdout.readline() for _ in range(keep)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""
        assert lines == [b"NENENENENENENENENENE\n"][:keep]
