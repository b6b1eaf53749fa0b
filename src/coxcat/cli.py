"""Command-line front end: enumerate, poly, map, verify, selftest.

Objects stream one per line; paths serialize verbatim as step strings in
text mode and as {"steps": ...} in JSON mode, permutations as one-line
JSON arrays, ideals as {"roots": [...]}.  Enumerations print in
lexicographic order of the serialized form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache, partial
from itertools import permutations
from math import comb

from . import bijmaps, noncrossing, paths, rootposets, signedperm, sortable
from .qseries import GroupType, SizeGuardError, cat_number, check_guard, gen_poly, q_binomial, qcat_a, qcat_product

_OBJECTS = ("dyck", "ideal", "nc", "revnc", "sortable", "partition")
_STATS = ("area", "maj", "ls", "lt", "majimaj")
_VIAS = ("phiA", "phiB", "psiA", "psiB")


_MIN_N = {"A": 2, "B": 1, "D": 2}


def _group(family: str, n: int) -> GroupType:
    """The group whose paths have semilength n: A_{n-1}, B_n or D_n."""
    if n < _MIN_N[family]:
        raise ValueError(f"--n {n} is too small for type {family}: it needs --n >= {_MIN_N[family]}")
    return GroupType(family, n - 1 if family == "A" else n)


def _path_guard(args) -> None:
    """The path guard, and a negative --n refused with an error that names the option."""
    check_guard("path", args.type, args.n, args.unsafe)
    if args.n < 0:
        raise ValueError(f"--n {args.n} is too small for paths: it needs --n >= 0")


def _enumerate_objects(args, stats=()):
    """The objects of --object; ``stats`` names the statistics to be read off them."""
    family, n = args.type, args.n
    if args.object == "dyck":
        _path_guard(args)
        return (paths.enumerate_a if family == "A" else paths.enumerate_b)(n)
    if args.object == "partition" and family == "D":
        raise ValueError("no type-D set partitions")
    if args.object == "ideal" and family == "D" and "maj" in stats:
        raise ValueError(rootposets.NO_TYPE_D_MAJ)
    t = _group(family, n)
    guard = args.object if args.object in ("ideal", "sortable") else "non-crossing"
    check_guard(guard, family, t.rank, args.unsafe)
    if args.object == "ideal":
        return rootposets.ideals(t)
    if args.object == "sortable":
        return sortable.enumerate_sortables(t)
    if args.object == "nc":
        return noncrossing.nc_elements(t)
    if args.object == "revnc":
        return noncrossing.rev_nc(t)
    return [noncrossing.partition_blocks(w, family) for w in noncrossing.nc_elements(t)]


def _serialize(kind: str, obj, fmt: str) -> str:
    if kind == "path":
        return json.dumps({"steps": obj}) if fmt == "json" else obj
    if kind == "perm":
        if fmt == "json":
            return json.dumps({"oneline": list(obj)})
        return json.dumps(list(obj), separators=(",", ":"))
    if kind == "ideal":
        return json.dumps(rootposets.ideal_to_json(obj), separators=(",", ":"))
    return json.dumps({"blocks": obj} if fmt == "json" else obj, separators=(",", ":"))


# each kind's statistics, as readers of (object, args); the first two are its csv columns
_STAT_READERS = {
    "path": {
        "area": lambda w, args: (paths.area_a if args.type == "A" else paths.area_b)(w),
        "maj": lambda w, args: (paths.maj_a if args.type == "A" else paths.maj_b)(w),
    },
    "ideal": {
        "area": lambda ideal, args: len(ideal),
        "maj": lambda ideal, args: rootposets.ideal_maj(_group(args.type, args.n), ideal),
    },
    "perm": {
        "ls": lambda p, args: signedperm.length_s(p, args.type),
        "majimaj": lambda p, args: signedperm.maj(p, args.type) + signedperm.imaj(p, args.type),
        "lt": lambda p, args: signedperm.length_t(p),
        "maj": lambda p, args: signedperm.maj(p, args.type),
    },
}
# the kind of the objects ``_enumerate_objects`` returns for each --object
_KIND = {"dyck": "path", "ideal": "ideal", "nc": "perm", "revnc": "perm", "sortable": "perm", "partition": "partition"}


def cmd_enumerate(args) -> int:
    kind = _KIND[args.object]
    stats = list(_STAT_READERS.get(kind, {}))[:2] if args.format == "csv" else []
    lines = []
    for obj in _enumerate_objects(args, stats):
        line = _serialize(kind, obj, args.format)
        if args.format == "csv":
            vals = [str(_STAT_READERS[kind][stat](obj, args)) for stat in stats]
            line = ",".join([_serialize(kind, obj, "text").replace(",", ";")] + vals)
        lines.append(line)
    for line in sorted(lines):
        print(line)
    return 0


def _path_poly(args):
    """Area or maj of paths or ideals, with no object listed; None otherwise.

    In types A and B an ideal's row starts are its Dyck path, its size the
    path's area and ``ideal_maj`` the path's maj, so ideals read the
    paths' tree fold (``paths._stat_counts``) and answer to the path guard
    at the same n.  Type-D ideal area is ``cat_q``, which counts ideal masks under its
    own guard.
    """
    family = args.type
    if args.object not in ("dyck", "ideal") or args.stat not in ("area", "maj") or (
        family == "D" and (args.object, args.stat) != ("ideal", "area")
    ):
        return None
    if args.object == "ideal":
        t = _group(family, args.n)
        if family == "D":
            check_guard("ideal mask", family, t.rank, args.unsafe)
            return rootposets.cat_q(t)
    _path_guard(args)
    area, maj = paths._stat_counts(family, args.n)
    return area if args.stat == "area" else maj


def cmd_poly(args) -> int:
    kind = _KIND[args.object]
    read = _STAT_READERS.get(kind, {}).get(args.stat)
    if read is None:
        raise ValueError(f"statistic {args.stat!r} undefined for {kind}")
    poly = _path_poly(args)
    if poly is None:
        poly = gen_poly(read(obj, args) for obj in _enumerate_objects(args, (args.stat,)))
    if args.format == "json":
        print(json.dumps(poly.to_json()))
    else:
        print(poly)
    return 0


def _json_or_none(line: str):
    """The JSON value of a line, or None when the line is not JSON."""
    try:
        return json.loads(line)
    except ValueError:
        return None


def _parse_path_line(line: str) -> str:
    line = line.strip()
    if not line.startswith(("{", '"')):
        return line
    data = _json_or_none(line)
    word = data.get("steps") if isinstance(data, dict) else data
    if not isinstance(word, str):
        raise ValueError(f'expected a step string or {{"steps": "..."}}, got {line!r}')
    return word


def _parse_perm_line(line: str, n: int):
    line = line.strip()
    if line.startswith("("):
        return signedperm.from_cycles(signedperm.parse_cycles(line), n)
    data = _json_or_none(line)
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
        if len(image) != n:
            raise ValueError(f"{image!r} has {len(image)} entries, but --n {n} needs {n}")
        # phi's inverse table holds every ideal at the rank; psi's inverse reads one sorting word
        if args.via.startswith("phi"):
            check_guard("ideal", family, t.rank)
        preimage = bijmaps.preimage(t, args.via[:3], image)
        if preimage is None:
            raise ValueError(f"{image!r} is not in the image of {args.via}")
        kind, obj = ("ideal" if args.via.startswith("phi") else "path"), preimage
    else:
        if args.via.startswith("phi"):
            data = _json_or_none(line)
            image = bijmaps.phi(t, rootposets.ideal_from_json(line.strip() if data is None else data))
        else:
            word = _parse_path_line(line)
            if len(word) != 2 * n and set(word) <= {"N", "E"}:  # else psi names the word as no Dyck word
                raise ValueError(f"{line.strip()!r} has {len(word)} steps, but --n {n} needs {2 * n}")
            image = (bijmaps.psi_a if family == "A" else bijmaps.psi_b)(word)[0]
        kind, obj = "perm", image
    # one answer: the preimage under --inverse, else the image, with ls of the permutation ``image``
    serialized, ls = _serialize(kind, obj, args.format), signedperm.length_s(image, family)
    if args.format == "text":
        return f"{serialized}  ls={ls}"  # text mode reads no maj
    tail = {} if args.inverse else {"majimaj": signedperm.maj(image, family) + signedperm.imaj(image, family)}
    return json.dumps({"preimage" if args.inverse else "image": json.loads(serialized), "ls": ls, **tail})


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


_VERIFY_DEFAULT = {"A": 6, "B": 4}


def cmd_verify(args) -> int:
    if args.n is not None and args.which in ("all", "d4"):
        raise ValueError(f"--n goes only with a single phi/psi identity, not with --which {args.which}")
    if args.max_n and args.which != "all":
        raise ValueError(f"--max-n goes only with --which all, not with --which {args.which}")
    if args.max_n and args.max_n < 2:
        raise ValueError(f"--max-n must be 0 or at least 2, got {args.max_n}")
    if args.which == "all":
        pairs = [(kind + fam, n) for fam, top in _VERIFY_DEFAULT.items()
                 for n in range(2, (args.max_n or top) + 1) for kind in ("phi", "psi")]
    elif args.which == "d4":
        pairs = []
    elif args.n is None:
        raise ValueError(f"--which {args.which} needs --n")
    else:
        pairs = [(args.which, args.n)]
    groups = [(which, _group(which[-1], n)) for which, n in pairs]
    for _, t in groups:  # every task is checked against the verifier limit before the first report prints
        check_guard("verify", t.family, t.rank)
    # the verifiers are read off their module here, so a wrapper bound on it sees every call
    tasks = [partial(bijmaps.verify_phi_theorems if w[:3] == "phi" else bijmaps.verify_psi_theorems, t) for w, t in groups]
    if args.which in ("all", "d4"):
        tasks.append(noncrossing.d4_counterexample)
    bad = 0
    for task in tasks:
        report = task()
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
    idealB4 = rootposets.dyck_to_ideal(tB4, "NNNNEEEN")
    return [
        ("qcat_a(3)", str(qcat_a(3)), "1 + q^2 + q^3 + q^4 + q^6"),
        ("Cat_B2(q) by areas", str(rootposets.cat_q(GroupType("B", 2))), "1 + 2q + q^2 + q^3 + q^4"),
        ("Cat_D4(q) by ideal sizes", str(rootposets.cat_q(GroupType("D", 4))), "1 + 4q + 6q^2 + 7q^3 + 7q^4 + 6q^5 + 6q^6 + 4q^7 + 3q^8 + 3q^9 + q^10 + q^11 + q^12"),
        ("Cat_D7(1) by ideal sizes", (rootposets.cat_q(GroupType("D", 7))(1), cat_number(GroupType("D", 7))), (2508, 2508)),
        ("cat numbers", (cat_number(GroupType("H3", 3)), cat_number(GroupType("E8", 8)), cat_number(GroupType("B", 2))), (32, 25080, 6)),
        ("B2 path count", len(paths.enumerate_b(2)), 6),
        ("B2 areas", sorted(paths.area_b(w) for w in paths.enumerate_b(2)), [0, 1, 1, 2, 3, 4]),
        ("maj of B6 path", paths.maj_b("NENNENNNENNE"), 48),
        ("A12 maj polynomial", paths.maj_polynomial("A", 12), qcat_a(12)),
        ("B8 maj polynomial", paths.maj_polynomial("B", 8), qcat_product(GroupType("B", 8))),
        ("q-binomial (20, 10) at q = 1", q_binomial(20, 10)(1), comb(20, 10)),
        ("lattice maj", paths.lattice_maj("NEENEENNENNE"), 24),
        ("lattice unfold", paths.unfold_lattice_to_b("NEENEENNENNE"), "NENNENNNENNE"),
        ("cycle notation", signedperm.cycles_str(signedperm.to_cycles((4, 2, -6, 5, 1, 3))), "(1,4,5)(3,-6,-3)"),
        ("rev example", signedperm.rev((2, -4, 3, -1)), (2, -1, 3, -4)),
        ("phi9 image", bijmaps.phi(tA8, ideal17), (7, 3, 4, 5, 2, 6, 9, 8, 1)),
        ("phi9 maj pair", (rootposets.ideal_maj(tA8, ideal17), signedperm.maj((7, 3, 4, 5, 2, 6, 9, 8, 1), "A"), signedperm.imaj((7, 3, 4, 5, 2, 6, 9, 8, 1), "A")), (35, 20, 17)),
        ("phi10 lift", bijmaps.phi(GroupType("A", 9), rootposets.lift_delta(tA8, ideal17)), (10, 6, 3, 4, 5, 7, 2, 9, 8, 1)),
        ("phi4 image", bijmaps.phi(tB4, idealB4), (4, 3, 2, -1)),
        ("phi5 lift", bijmaps.phi(GroupType("B", 5), rootposets.lift_delta(tB4, idealB4)), (4, 3, 2, -1, -5)),
        ("psiA word", str(bijmaps.psi_a("NNNNEEENNEEE")[1]), "s5 s4 s3 s2 s1 | s5 s4 s2 | s5"),
        ("psiA image", bijmaps.psi_a("NNNNEEENNEEE")[0], (6, 2, 1, 5, 4, 3)),
        ("psiB word", str(bijmaps.psi_b("NNNNEEENNNNE")[1]), "s5 s4 s3 s2 s1 s0 | s5 s4 s2 s1 s0 | s5 s2 s1"),
        ("psiB image", bijmaps.psi_b("NNNNEEENNNNE")[0], (1, -2, -6, 5, 4, 3)),
        ("S3 sorting words", sorted(str(sortable.c_sorting_word(w, (2, 1), "A")) for w in permutations(range(1, 4))), sorted(["e", "s2", "s2 s1", "s2 s1 | s2", "s1", "s1 | s2"])),
        ("[2,3,1] unsortable", sortable.is_c_sortable((2, 3, 1), (2, 1), "A"), False),
    ]


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

    def common(p, formats):
        p.add_argument("--type", choices=("A", "B", "D"), default="A")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--unsafe", action="store_true", help="override rank guards")

    p_enum = sub.add_parser("enumerate", help="list objects one per line")
    common(p_enum, ("text", "json", "csv"))
    p_enum.add_argument("--object", choices=_OBJECTS, required=True)
    p_enum.set_defaults(fn=cmd_enumerate)

    p_poly = sub.add_parser("poly", help="generating polynomial of a statistic")
    common(p_poly, ("text", "json"))
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
    p_ver.set_defaults(fn=cmd_verify)

    p_self = sub.add_parser("selftest", help="fixed regression assertions")
    p_self.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that left shows here, not in the flush at exit
        return code
    except ValueError as exc:  # a usage error; a KeyError or any other exception is a bug, and propagates
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (``| head``): send what is still buffered to devnull, so the
        # flush at exit raises nothing, and exit as a process killed by SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
