"""Command-line front end: enumerate, poly, map, verify, selftest.

Objects stream one per line; paths serialize verbatim as step strings in
text mode and as {"steps": ...} in JSON mode, permutations as one-line
JSON arrays, ideals as {"roots": [...]}.  Enumerations print in
lexicographic order of the serialized form.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import lru_cache

from . import bijmaps, noncrossing, paths, rootposets, signedperm, sortable
from .qseries import GroupType, SizeGuardError, cat_number, check_guard, gen_poly, qcat_a

_OBJECTS = ("dyck", "ideal", "nc", "revnc", "sortable", "partition")
_STATS = ("area", "maj", "ls", "lt", "majimaj")
_VIAS = ("phiA", "phiB", "psiA", "psiB")


def _group(family: str, n: int) -> GroupType:
    """The group whose paths have semilength n: A_{n-1}, B_n or D_n."""
    return GroupType(family, n - 1 if family == "A" else n)


def _enumerate_objects(args):
    family, n = args.type, args.n
    if args.object == "dyck":
        check_guard("path", family, n, args.unsafe)
        return [("path", w) for w in (paths.enumerate_a if family == "A" else paths.enumerate_b)(n)]
    t = _group(family, n)
    if args.object == "ideal":
        return [("ideal", i) for i in rootposets.ideals(t, unsafe=args.unsafe)]
    if args.object == "sortable":
        return [("perm", w) for w in sortable.enumerate_sortables(t, unsafe=args.unsafe)]
    check_guard("non-crossing", family, t.rank, args.unsafe)
    if args.object == "nc":
        return [("perm", w) for w in noncrossing.nc_elements(t)]
    if args.object == "revnc":
        return [("perm", w) for w in noncrossing.rev_nc(t)]
    if family == "D":
        raise ValueError("no type-D set partitions")
    to_partition = noncrossing.perm_to_partition_a if family == "A" else noncrossing.perm_to_partition_b
    return [("partition", to_partition(w)) for w in noncrossing.nc_elements(t)]


def _serialize(kind: str, obj, fmt: str) -> str:
    if kind == "path":
        return json.dumps({"steps": obj}) if fmt == "json" else obj
    if kind == "perm":
        if fmt == "json":
            return json.dumps({"oneline": list(obj)})
        return json.dumps(list(obj), separators=(",", ":"))
    if kind == "ideal":
        return json.dumps(rootposets.ideal_to_json(obj), separators=(",", ":"))
    if kind == "partition":
        blocks = noncrossing.partition_to_json(obj)
        if fmt == "json":
            return json.dumps({"blocks": blocks}, separators=(",", ":"))
        return json.dumps(blocks, separators=(",", ":"))
    raise ValueError(kind)


def _stat_value(kind: str, obj, stat: str, args) -> int:
    family = args.type
    if kind == "path":
        if stat == "area":
            return paths.area_a(obj) if family == "A" else paths.area_b(obj)
        if stat == "maj":
            return paths.maj_a(obj) if family == "A" else paths.maj_b(obj)
    if kind == "ideal":
        if stat == "area":
            return len(obj)
        if stat == "maj":
            return rootposets.ideal_maj(_group(family, args.n), obj)
    if kind == "perm":
        if stat == "ls":
            return signedperm.length_s(obj, family)
        if stat == "lt":
            return signedperm.length_t(obj)
        if stat == "maj":
            return signedperm.maj(obj, family)
        if stat == "majimaj":
            return signedperm.maj(obj, family) + signedperm.imaj(obj, family)
    raise ValueError(f"statistic {stat!r} undefined for {kind}")


_DEFAULT_STATS = {"path": ("area", "maj"), "ideal": ("area", "maj"), "perm": ("ls", "majimaj")}
# what ``_enumerate_objects`` yields for each object, and the statistics ``_stat_value`` defines on it
_KIND = {"dyck": "path", "ideal": "ideal", "nc": "perm", "revnc": "perm", "sortable": "perm", "partition": "partition"}
_KIND_STATS = {"path": ("area", "maj"), "ideal": ("area", "maj"), "perm": ("ls", "lt", "maj", "majimaj")}


def cmd_enumerate(args) -> int:
    objs = _enumerate_objects(args)
    lines = []
    for kind, obj in objs:
        line = _serialize(kind, obj, args.format)
        if args.format == "csv":
            stats = _DEFAULT_STATS.get(kind, ())
            vals = [str(_stat_value(kind, obj, s, args)) for s in stats]
            line = ",".join([_serialize(kind, obj, "text").replace(",", ";")] + vals)
        lines.append(line)
    for line in sorted(lines):
        print(line)
    return 0


def _path_poly(args):
    """Area or maj of type-A/B paths or ideals, by the O(n^4) lattice-point pass; None otherwise.

    An ideal's row starts are its Dyck path, |I| is the path's area and
    ``ideal_maj`` is the path's maj, so both objects share the path
    polynomials.  An ideal answers to the ideal guard alone.
    """
    family = args.type
    if family == "D" or args.object not in ("dyck", "ideal") or args.stat not in ("area", "maj"):
        return None
    unsafe = args.unsafe
    if args.object == "ideal":
        check_guard("ideal", family, _group(family, args.n).rank, unsafe)
        unsafe = True
    poly = paths.area_polynomial if args.stat == "area" else paths.maj_polynomial
    return poly(family, args.n, unsafe)


def cmd_poly(args) -> int:
    kind = _KIND[args.object]
    if args.stat not in _KIND_STATS.get(kind, ()):
        raise ValueError(f"statistic {args.stat!r} undefined for {kind}")
    poly = _path_poly(args)
    if poly is None:
        poly = gen_poly(_stat_value(kind, obj, args.stat, args) for kind, obj in _enumerate_objects(args))
    if args.format == "json":
        print(json.dumps(poly.to_json()))
    else:
        print(poly)
    return 0


def _parse_path_line(line: str) -> str:
    line = line.strip()
    if not line.startswith(("{", '"')):
        return line
    data = json.loads(line)
    word = data.get("steps") if isinstance(data, dict) else data
    if not isinstance(word, str):
        raise ValueError(f'expected a step string or {{"steps": "..."}}, got {line!r}')
    return word


def _parse_perm_line(line: str, n: int):
    line = line.strip()
    if line.startswith("("):
        return signedperm.from_cycles(signedperm.parse_cycles(line), n)
    data = json.loads(line)
    p = data.get("oneline") if isinstance(data, dict) else data
    # type(), not isinstance(): a bool is an int; floats are refused, not truncated
    if not isinstance(p, list) or not all(type(v) is int for v in p):
        raise ValueError(f'expected a list of integers or {{"oneline": [...]}}, got {line!r}')
    p = tuple(p)
    signedperm.check_perm(p)
    return p


def _map_line(args, t: GroupType, line: str) -> str:
    family, n = t.family, t.n
    if args.inverse:
        image = _parse_perm_line(line, n)
        if args.via.startswith("phi"):
            kind, preimage = "ideal", bijmaps.phi_inverse_table(t).get(image)
        else:
            kind, preimage = "path", bijmaps.psi_inverse_table(t).get(image)
        if preimage is None:
            raise ValueError(f"{image!r} is not in the image of {args.via}")
        serialized = _serialize(kind, preimage, args.format)
        ls = signedperm.length_s(image, family)
        if args.format == "json":
            return json.dumps({"preimage": json.loads(serialized) if kind == "ideal" else {"steps": preimage}, "ls": ls})
        return f"{serialized}  ls={ls}"
    if args.via.startswith("phi"):
        image = bijmaps.phi(t, rootposets.ideal_from_json(json.loads(line)))
    else:
        word = _parse_path_line(line)
        if len(word) != 2 * n:
            raise ValueError(f"{line.strip()!r} has {len(word)} steps, but --n {n} needs {2 * n}")
        image = (bijmaps.psi_a if family == "A" else bijmaps.psi_b)(word)[0]
    ls = signedperm.length_s(image, family)
    mm = signedperm.maj(image, family) + signedperm.imaj(image, family)
    if args.format == "json":
        return json.dumps({"image": {"oneline": list(image)}, "ls": ls, "majimaj": mm})
    return f"{json.dumps(list(image), separators=(',', ':'))}  ls={ls}"


def cmd_map(args) -> int:
    t = _group("A" if args.via.endswith("A") else "B", args.n)
    for lineno, line in enumerate(sys.stdin, start=1):
        if not line.strip():
            continue
        try:
            print(_map_line(args, t, line))
        except SizeGuardError:
            raise
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return 0


_VERIFY_DEFAULT_A = 6
_VERIFY_DEFAULT_B = 4


def _verify_task(task) -> dict:
    which, n = task
    if which == "d4":
        return noncrossing.d4_counterexample()
    t = _group(which[-1], n)
    if which.startswith("phi"):
        return bijmaps.verify_phi_theorems(t)
    return bijmaps.verify_psi_theorems(t)


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.n is not None and args.which in ("all", "d4"):
        raise ValueError(f"--n goes only with a single phi/psi identity, not with --which {args.which}")
    if args.max_n and args.which != "all":
        raise ValueError(f"--max-n goes only with --which all, not with --which {args.which}")
    if args.max_n and args.max_n < 2:
        raise ValueError(f"--max-n must be 0 or at least 2, got {args.max_n}")
    tasks = []
    if args.which == "all":
        max_a = args.max_n if args.max_n else _VERIFY_DEFAULT_A
        max_b = args.max_n if args.max_n else _VERIFY_DEFAULT_B
        for n in range(2, max_a + 1):
            tasks += [("phiA", n), ("psiA", n)]
        for n in range(2, max_b + 1):
            tasks += [("phiB", n), ("psiB", n)]
        tasks.append(("d4", 4))
    elif args.which == "d4":
        tasks = [("d4", 4)]
    else:
        if args.n is None:
            raise ValueError(f"--which {args.which} needs --n")
        tasks = [(args.which, args.n)]
    bad = 0
    with ProcessPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else nullcontext() as pool:
        # print each report once it is ready, in task order, so that a later
        # task's error (a size guard, say) keeps the reports already computed
        for report in (pool.map if pool else map)(_verify_task, tasks):
            print(json.dumps(report), flush=True)
            bad += len(report["failures"])
    return 1 if bad else 0


def _selftest_cases():
    tA8 = GroupType("A", 8)
    ideal17 = frozenset(
        rootposets.diff(a, b)
        for a, b in [
            (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
            (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (7, 9), (1, 4), (2, 5), (3, 6),
        ]
    )
    tB4 = GroupType("B", 4)
    idealB4 = rootposets.root_poset(tB4).ideal_from_antichain(
        [rootposets.diff(1, 4), rootposets.short(1)]
    )

    def eq(name, got, want):
        return (name, got, want)

    cases = [
        eq("qcat_a(3)", str(qcat_a(3)), "1 + q^2 + q^3 + q^4 + q^6"),
        eq("Cat_B2(q) by areas", str(rootposets.cat_q(GroupType("B", 2))), "1 + 2q + q^2 + q^3 + q^4"),
        eq("cat numbers", (cat_number(GroupType("H3", 3)), cat_number(GroupType("E8", 8)), cat_number(GroupType("B", 2))), (32, 25080, 6)),
        eq("B2 path count", len(paths.enumerate_b(2)), 6),
        eq("B2 areas", sorted(paths.area_b(w) for w in paths.enumerate_b(2)), [0, 1, 1, 2, 3, 4]),
        eq("maj of B6 path", paths.maj_b("NENNENNNENNE"), 48),
        eq("lattice maj", paths.lattice_maj("NEENEENNENNE"), 24),
        eq("lattice unfold", paths.unfold_lattice_to_b("NEENEENNENNE"), "NENNENNNENNE"),
        eq("cycle notation", signedperm.cycles_str(signedperm.to_cycles((4, 2, -6, 5, 1, 3))), "(1,4,5)(3,-6,-3)"),
        eq("rev example", signedperm.rev((2, -4, 3, -1)), (2, -1, 3, -4)),
        eq("phi9 image", bijmaps.phi(tA8, ideal17), (7, 3, 4, 5, 2, 6, 9, 8, 1)),
        eq("phi9 maj pair", (rootposets.ideal_maj(tA8, ideal17), signedperm.maj((7, 3, 4, 5, 2, 6, 9, 8, 1), "A"), signedperm.imaj((7, 3, 4, 5, 2, 6, 9, 8, 1), "A")), (35, 20, 17)),
        eq("phi10 lift", bijmaps.phi(GroupType("A", 9), rootposets.lift_delta(tA8, ideal17)), (10, 6, 3, 4, 5, 7, 2, 9, 8, 1)),
        eq("phi4 image", bijmaps.phi(tB4, idealB4), (4, 3, 2, -1)),
        eq("phi5 lift", bijmaps.phi(GroupType("B", 5), rootposets.lift_delta(tB4, idealB4)), (4, 3, 2, -1, -5)),
        eq("psiA word", str(bijmaps.psi_a("NNNNEEENNEEE")[1]), "s5 s4 s3 s2 s1 | s5 s4 s2 | s5"),
        eq("psiA image", bijmaps.psi_a("NNNNEEENNEEE")[0], (6, 2, 1, 5, 4, 3)),
        eq("psiB word", str(bijmaps.psi_b("NNNNEEENNNNE")[1]), "s5 s4 s3 s2 s1 s0 | s5 s4 s2 s1 s0 | s5 s2 s1"),
        eq("psiB image", bijmaps.psi_b("NNNNEEENNNNE")[0], (1, -2, -6, 5, 4, 3)),
        eq("S3 sorting words", sorted(str(sortable.c_sorting_word(w, (2, 1), "A")) for w in signedperm.enumerate_group("A", 3)), sorted(["e", "s2", "s2 s1", "s2 s1 | s2", "s1", "s1 | s2"])),
        eq("[2,3,1] unsortable", sortable.is_c_sortable((2, 3, 1), (2, 1), "A"), False),
    ]
    return cases


def cmd_selftest(args) -> int:
    bad = 0
    for name, got, want in _selftest_cases():
        ok = got == want
        bad += not ok
        status = "ok" if ok else "FAIL"
        print(f"{status}: {name}" + ("" if ok else f" (got {got!r}, want {want!r})"))
    return 1 if bad else 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="coxcat")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, need_n=True):
        p.add_argument("--type", choices=("A", "B", "D"), default="A")
        if need_n:
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--unsafe", action="store_true", help="override rank guards")

    p_enum = sub.add_parser("enumerate", help="list objects one per line")
    common(p_enum)
    p_enum.add_argument("--object", choices=_OBJECTS, required=True)
    p_enum.set_defaults(fn=cmd_enumerate)

    p_poly = sub.add_parser("poly", help="generating polynomial of a statistic")
    common(p_poly)
    p_poly.add_argument("--object", choices=_OBJECTS, required=True)
    p_poly.add_argument("--stat", choices=_STATS, required=True)
    p_poly.set_defaults(fn=cmd_poly)

    p_map = sub.add_parser("map", help="apply a bijection to objects from stdin")
    p_map.add_argument("--via", choices=_VIAS, required=True)
    p_map.add_argument("--n", type=int, required=True)
    p_map.add_argument("--format", choices=("text", "json"), default="text")
    p_map.add_argument(
        "--inverse",
        action="store_true",
        help="read permutations (one-line arrays or cycle strings) and return preimages",
    )
    p_map.set_defaults(fn=cmd_map)

    p_ver = sub.add_parser("verify", help="run theorem verifiers; nonzero exit on failure")
    p_ver.add_argument("--which", choices=_VIAS + ("d4", "all"), default="all")
    p_ver.add_argument("--all", action="store_const", const="all", dest="which")
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--max-n", type=int, default=0, help="cap for --which all sweeps")
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.set_defaults(fn=cmd_verify)

    p_self = sub.add_parser("selftest", help="fixed regression assertions")
    p_self.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
