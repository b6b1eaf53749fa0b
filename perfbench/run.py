"""Benchmark for coxcat: exhaustive verification, per-object maps and q-series.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

Each run loads the library from ``src/``, sets up its workload from the
seed, then repeats the workload in rounds (single process, closed loop:
one call at a time) until ``--seconds`` is spent.  Every answer is checked.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (counted over checks) and ``metrics``.  The line
before it carries the run's seed, Python version, CPU count and commit, and
the same record, with the traced spans and per-function table, is written
to ``perfbench/out/``.

Workloads, and why each exists:

* ``verify_sweep``: ``coxcat verify`` for phiA/psiA at n=2..8, phiB at
  n=2..6, psiB at n=2..5 and d4, one in-process ``cli.main`` call each.
  This is the paper's core job; nearly all its time is spent filtering the
  whole group into non-crossing and sortable elements.
* ``map_stream``: seeded uniform random Dyck words past the exhaustive
  range (A n=14, B n=10), turned into ideals during set-up; each round
  applies ``phi`` and ``psi_a``/``psi_b`` to every object and checks
  l_S = |I| and the maj + imaj identity.  No group enumeration, so only the
  per-object layers carry its time.
* ``series``: ``coxcat poly`` for dyck maj (A n=12, B n=8), ideal maj and
  area (A n=10) and ideal maj (B n=6), compared with the closed forms;
  ``cat_q`` against ``paths.area_polynomial``; and the palindromicity of
  ``qcat_a(n)`` for n <= 30.  Bulk ideal and path enumeration, and the
  q-series arithmetic.

The seed draws the map_stream words and orders the verify_sweep calls;
series runs fixed ranks.

End-to-end metrics (``--trace 0``): median per-round ``wall_s`` and
``objects_per_s``; ``latency_p50_us``/``latency_p99_us``, per-round
percentiles of one request (one mapped object and its statistics on
map_stream, one ``cli.main`` call on the others), median over rounds;
``setup_s``, the median over several set-ups of a fresh library import
plus input generation; ``peak_rss_mb``; and ``pass_ratio``, the share of
checks that passed (1 - fail ratio; anything below 1 also makes
``correct`` false).  Every time is scaled to a reference CPU by the
calibration kernel timed during the same work (see ``Calibrator``); the
raw seconds and scale factors are in the meta line.

Per-layer metrics (``--trace 1``): rounds alternate untraced and traced
(see ``tracer.py``).  Values are raw
seconds and counts per traced round, except ``rootposets.dyck_to_ideal.s``,
which is per traced set-up.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer  # noqa: E402

# Reported times are scaled to a CPU on which calibration_kernel() takes
# CAL_REF_S (a 2.0 GHz Xeon vCPU when quiet).  A shared machine changes
# speed by 20-40% within seconds; timing the kernel every CAL_INTERVAL_S
# during the work, and scaling by its mean, cancels most of that drift.
CAL_REF_S = 1.0e-3
CAL_INTERVAL_S = 0.02
CAL_WINDOW_S = 0.05  # a request is scaled by the kernel timings this close to it
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 3, 20, 1.0

# The D4 report checks each of the 32 Coxeter elements (|W| / h = 192 / 6)
# and each of the 4! orderings of the simple reflections.
D4_CHECKS = 32 + 24

FULL = {
    "verify_sweep": {"phiA": range(2, 9), "psiA": range(2, 9), "phiB": range(2, 7), "psiB": range(2, 6), "d4": True},
    "map_stream": {"A": (14, 4000), "B": (10, 4000)},
    "series": {"dyck_a": 12, "dyck_b": 8, "ideal_a": 10, "ideal_b": 6, "palindromic": 30},
}


def load_library() -> dict:
    """Import coxcat afresh from ``src/``, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "coxcat" or m.startswith("coxcat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = {"coxcat": importlib.import_module("coxcat")}
    for name in LAYERS:
        lib[name] = importlib.import_module(f"coxcat.{name}")
    if Path(lib["coxcat"].__file__).resolve().parent != SRC / "coxcat":
        raise ImportError(f"coxcat was imported from {lib['coxcat'].__file__}, not from {SRC}")
    return lib


def calibration_kernel() -> int:
    """Fixed pure-Python work (tuples, dict updates, a sort): the speed yardstick.

    It stays in the core's own caches, so its speed follows the core (its
    clock and any neighbour sharing it) and not what the workload does with
    the caches between ticks.
    """
    seen: dict = {}
    for i in range(1000):
        key = (i % 61, i % 53)
        seen[key] = seen.get(key, 0) + i
    return len(sorted(seen.items()))


class Calibrator:
    """Times ``calibration_kernel()`` every ``CAL_INTERVAL_S`` from a SIGALRM handler.

    ``clock()`` is ``perf_counter()`` with the handler's time taken out, and
    ``scale()`` turns seconds of that clock into seconds on the reference
    CPU.  An inactive calibrator is the plain clock with scale 1.
    """

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[float] = []
        self.times: list[float] = []  # clock() at each sample
        self.stolen = 0.0
        if not active:
            self.clock = time.perf_counter

    def _tick(self, signum=None, frame=None) -> None:
        # a collection of the workload's heap inside the kernel would be timed as slowness
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        calibration_kernel()
        spent = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(spent)
        self.times.append(start - self.stolen)
        self.stolen += spent

    def __enter__(self) -> "Calibrator":
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
            self._tick()
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if stolen == self.stolen:  # no tick ran between the two reads
                return now - stolen

    def scale(self) -> float:
        return CAL_REF_S / statistics.fmean(self.samples) if self.samples else 1.0

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` scaled by the kernel timings within CAL_WINDOW_S of it."""
        lo = bisect.bisect_left(self.times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CAL_WINDOW_S)
        near = self.samples[lo:hi]
        return (end - start) * (CAL_REF_S / statistics.fmean(near) if near else self.scale())


class Tally:
    """What one round did: objects handled, request latencies, checks."""

    def __init__(self, clock):
        self.clock = clock
        self.objects = 0
        self.requests: list[tuple[float, float]] = []  # start and end of each request
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def request_done(self, start: float) -> None:
        self.requests.append((start, self.clock()))


def report_error(what) -> None:
    print(f"check failed with an exception: {what!r}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def call_cli(lib: dict, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = lib["cli"].main(argv)
    return rc, out.getvalue()


def batch(tracer, name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext()


# -- verify_sweep -------------------------------------------------------------


def catalan(family: str, n: int) -> int:
    """Cat(A_{n-1}) = C(2n, n)/(n+1) and Cat(B_n) = C(2n, n)."""
    return math.comb(2 * n, n) // (n + 1 if family == "A" else 1)


def verify_setup(lib: dict, rng: random.Random, size: dict) -> list:
    tasks = []
    for which in ("phiA", "psiA", "phiB", "psiB"):
        for n in size[which]:
            tasks.append((["verify", "--which", which, "--n", str(n)], catalan(which[-1], n)))
    if size["d4"]:
        tasks.append((["verify", "--which", "d4"], D4_CHECKS))
    rng.shuffle(tasks)
    return tasks


def verify_round(lib: dict, tasks: list, tally: Tally, tracer) -> None:
    clock = tally.clock
    for argv, expected in tasks:
        start = clock()
        try:
            rc, out = call_cli(lib, argv)
            tally.request_done(start)
            reports = [json.loads(line) for line in out.splitlines()]
            ok = rc == 0 and len(reports) == 1 and reports[0]["failures"] == []
            ok = ok and reports[0]["checked"] == expected
            tally.objects += sum(r["checked"] for r in reports)
        except (Exception, SystemExit):
            report_error(argv)
            ok = False
        tally.check(ok)


# -- map_stream ---------------------------------------------------------------


def random_dyck_a(rng: random.Random, n: int) -> str:
    """Uniform Dyck word by the cycle lemma: n N's and n+1 E's, rotated."""
    steps = ["N"] * n + ["E"] * (n + 1)
    rng.shuffle(steps)
    level, lowest, cut = 0, 0, 0
    for k, step in enumerate(steps, start=1):
        level += 1 if step == "N" else -1
        if level < lowest:
            lowest, cut = level, k
    # the rotation starting after the first minimum stays >= 0 until its last E
    return "".join(steps[cut:] + steps[:cut])[:-1]


def word_maj(word: str, family: str) -> int:
    """maj of a Dyck word with N < E; type B doubles it and adds the E count."""
    n = len(word) // 2
    base = sum(2 * n - i for i in range(1, len(word)) if word[i - 1] == "E" and word[i] == "N")
    return base if family == "A" else 2 * (word.count("E") + base)


def map_setup(lib: dict, rng: random.Random, size: dict) -> list:
    qseries, paths, rootposets = lib["qseries"], lib["paths"], lib["rootposets"]
    streams = []
    for family in ("A", "B"):
        n, count = size[family]
        if family == "A":
            t = qseries.GroupType("A", n - 1)
            words = [random_dyck_a(rng, n) for _ in range(count)]
        else:
            t = qseries.GroupType("B", n)
            balanced = ["N"] * n + ["E"] * n
            words = []
            for _ in range(count):
                rng.shuffle(balanced)
                words.append(paths.unfold_lattice_to_b("".join(balanced)))
        objects = [(w, rootposets.dyck_to_ideal(t, w), word_maj(w, family)) for w in words]
        top = n * (n - 1) if family == "A" else 2 * n * n
        streams.append((family, t, top, objects))
    return streams


def map_round(lib: dict, streams: list, tally: Tally, tracer) -> None:
    bijmaps, signedperm = lib["bijmaps"], lib["signedperm"]
    clock = tally.clock
    for family, t, top, objects in streams:
        psi = bijmaps.psi_a if family == "A" else bijmaps.psi_b
        maps = (("phi", lambda word, ideal: bijmaps.phi(t, ideal)), ("psi", lambda word, ideal: psi(word)[0]))
        for name, apply in maps:
            with batch(tracer, f"{name} {family}"):
                for word, ideal, maj_word in objects:
                    start = clock()
                    try:
                        sigma = apply(word, ideal)
                        ls = signedperm.length_s(sigma, family)
                        mm = signedperm.maj(sigma, family) + signedperm.imaj(sigma, family)
                        tally.request_done(start)
                        ok = ls == len(ideal) and maj_word + mm == top
                    except Exception:
                        report_error((name, word))
                        ok = False
                    tally.check(ok)
            tally.objects += len(objects)


# -- series -------------------------------------------------------------------


def expected_poly(lib: dict, stat: str, family: str, n: int):
    """The closed form a ``coxcat poly`` answer must equal."""
    qseries = lib["qseries"]
    if stat == "area":
        return lib["paths"].area_polynomial(family, n)
    if family == "A":
        return qseries.qcat_a(n)
    return qseries.qcat_product(qseries.GroupType("B", n))


def series_setup(lib: dict, rng: random.Random, size: dict) -> list:
    tasks = [
        ("dyck", "maj", "A", size["dyck_a"]),
        ("dyck", "maj", "B", size["dyck_b"]),
        ("ideal", "maj", "A", size["ideal_a"]),
        ("ideal", "area", "A", size["ideal_a"]),
        ("ideal", "maj", "B", size["ideal_b"]),
    ]
    return {"polys": tasks, "palindromic": size["palindromic"]}


def series_round(lib: dict, tasks: dict, tally: Tally, tracer) -> None:
    qseries, rootposets = lib["qseries"], lib["rootposets"]
    clock = tally.clock
    area = None
    for obj, stat, family, n in tasks["polys"]:
        argv = ["poly", "--object", obj, "--stat", stat, "--type", family, "--n", str(n), "--format", "json"]
        start = clock()
        try:
            rc, out = call_cli(lib, argv)
            tally.request_done(start)
            got = qseries.QPoly.from_json(json.loads(out))
            want = expected_poly(lib, stat, family, n)
            if stat == "area":
                area = (n, want)
            tally.objects += sum(got.coeffs)
            ok = rc == 0 and got == want
        except (Exception, SystemExit):
            report_error(argv)
            ok = False
        tally.check(ok)
    with batch(tracer, "cat_q"):
        try:
            n, want = area
            got = rootposets.cat_q(qseries.GroupType("A", n - 1))
            tally.objects += sum(got.coeffs) + sum(want.coeffs)
            ok = got == want
        except Exception:
            report_error("cat_q")
            ok = False
        tally.check(ok)
    with batch(tracer, "palindromic"):
        for n in range(1, tasks["palindromic"] + 1):
            try:
                ok = qseries.is_palindromic(qseries.qcat_a(n), n * (n - 1))
            except Exception:
                report_error(("qcat_a", n))
                ok = False
            tally.check(ok)


WORKLOADS = {
    "verify_sweep": (verify_setup, verify_round),
    "map_stream": (map_setup, map_round),
    "series": (series_setup, series_round),
}


# -- measuring ----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


@dataclass
class Round:
    """One round's results; latencies are already scaled."""

    wall: float  # seconds of the calibrated clock
    scale: float
    p50: float
    p99: float
    requests: int
    objects: int
    attempted: int
    failed: int
    traced: bool


def measure(run_round, lib: dict, state, seconds: float, tracer: Tracer | None = None) -> list[Round]:
    """Repeat rounds while another round of the last one's length fits.

    With a tracer, rounds alternate untraced and traced, ending after a
    traced one.  Traced rounds are not calibrated, so their frames and the
    benchmark's own time add up to their wall time.
    """
    rounds = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        round_tracer = tracer if traced else None
        gc.collect()
        with Calibrator(active=not traced) as cal, round_tracer or contextlib.nullcontext():
            tally = Tally(cal.clock)
            start = cal.clock()
            with batch(round_tracer, "round"):
                run_round(lib, state, tally, round_tracer)
            wall = cal.clock() - start
        if traced:
            tracer.end_round(wall)
        latencies = [cal.scaled(s, e) for s, e in tally.requests] or [0.0]  # [0.0]: every request raised
        rounds.append(Round(
            wall, cal.scale(), statistics.median(latencies), percentile(latencies, 99),
            len(latencies), tally.objects, tally.attempted, tally.failed, traced,
        ))
        out_of_time = time.perf_counter() - begin + wall > seconds
        if out_of_time and (tracer is None or traced):
            return rounds


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    return {
        "wall_s": (statistics.median(r.wall * r.scale for r in rounds), "s"),
        "objects_per_s": (statistics.median(r.objects / (r.wall * r.scale) for r in rounds), "1/s"),
        "latency_p50_us": (statistics.median(r.p50 for r in rounds) * 1e6, "us"),
        "latency_p99_us": (statistics.median(r.p99 for r in rounds) * 1e6, "us"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": (1 - sum(r.failed for r in rounds) / sum(r.attempted for r in rounds), "ratio"),
    }


def per_layer(tracer: Tracer, setup_tracer: Tracer, rounds: list[Round]) -> dict:
    per_round = 1 / tracer.rounds

    def calls(*names):
        return sum(tracer.calls[tracer.fid(n)] for n in names) * per_round

    def items(*names):
        return sum(tracer.items[tracer.fid(n)] for n in names) * per_round

    def incl(*names):
        return sum(tracer.incl[tracer.fid(n)] for n in names) * per_round

    def mean_us(*names):
        count = sum(tracer.calls[tracer.fid(n)] for n in names)
        return sum(tracer.incl[tracer.fid(n)] for n in names) / count * 1e6 if count else 0.0

    def filter_yield(name):
        kept = tracer.items[tracer.fid(name)]
        scanned = tracer.scanned.get(name, 0) or kept  # nothing scanned: generated directly
        return kept / scanned if scanned else 0.0

    metrics = {f"{layer}.self_s": (tracer.layer_self(layer) * per_round, "s") for layer in LAYERS}
    metrics.update({
        "bench.self_s": ((tracer.round_wall - tracer.top_time) * per_round, "s"),
        "trace.wall_s": (tracer.round_wall * per_round, "s"),
        "trace.overhead_ratio": (
            statistics.median(rd.wall for rd in rounds if rd.traced)
            / statistics.median(rd.wall for rd in rounds if not rd.traced),
            "ratio",
        ),
        "signedperm.group_elements": (sum(tracer.scanned.values()) * per_round, "count"),
        "signedperm.leq_t.calls": (calls("signedperm.leq_t"), "count"),
        "signedperm.stat_calls": (calls("signedperm.length_s", "signedperm.maj", "signedperm.imaj"), "count"),
        "noncrossing.nc_elements.s": (incl("noncrossing.nc_elements"), "s"),
        "noncrossing.filter_yield": (filter_yield("noncrossing.nc_elements"), "ratio"),
        "sortable.enumerate_sortables.s": (incl("sortable.enumerate_sortables"), "s"),
        "sortable.c_sorting_word.calls": (calls("sortable.c_sorting_word"), "count"),
        "sortable.filter_yield": (filter_yield("sortable.enumerate_sortables"), "ratio"),
        "bijmaps.phi.calls": (calls("bijmaps.phi"), "count"),
        "bijmaps.phi.mean_us": (mean_us("bijmaps.phi"), "us"),
        "bijmaps.psi.calls": (calls("bijmaps.psi_a", "bijmaps.psi_b"), "count"),
        "bijmaps.psi.mean_us": (mean_us("bijmaps.psi_a", "bijmaps.psi_b"), "us"),
        "rootposets.ideals.s": (incl("rootposets.ideals"), "s"),
        "rootposets.ideals.count": (items("rootposets.ideals"), "count"),
        "rootposets.ideal_maj.mean_us": (mean_us("rootposets.ideal_maj"), "us"),
        "rootposets.dyck_to_ideal.s": (setup_tracer.incl[setup_tracer.fid("rootposets.dyck_to_ideal")], "s"),
        "paths.enumerate.s": (incl("paths.enumerate_a", "paths.enumerate_b"), "s"),
        "paths.enumerate.count": (items("paths.enumerate_a", "paths.enumerate_b"), "count"),
        "qseries.calls": (sum(c for c, layer in zip(tracer.calls, tracer.layer_of) if layer == "qseries") * per_round, "count"),
    })
    return metrics


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_setups(setup, seed: int, size: dict) -> tuple[dict, object, float, list[float]]:
    """Set up at least SETUP_MIN_REPEATS times, each with a fresh import.

    Returns the last library and state, the median scaled set-up time and
    the raw times.
    """
    scaled, raw = [], []
    begin = time.perf_counter()
    while len(raw) < SETUP_MIN_REPEATS or (
        len(raw) < SETUP_MAX_REPEATS and time.perf_counter() - begin < SETUP_MIN_S
    ):
        with Calibrator() as cal:
            start = cal.clock()
            lib = load_library()
            state = setup(lib, random.Random(seed), size)
            raw.append(cal.clock() - start)
        scaled.append(raw[-1] * cal.scale())
    return lib, state, statistics.median(scaled), raw


def run(workload: str, seed: int, seconds: float, trace: bool, size: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the record to save."""
    setup, run_round = WORKLOADS[workload]
    size = size or FULL[workload]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    if trace:
        lib = load_library()
        with Tracer(lib) as setup_tracer:
            state = setup(lib, random.Random(seed), size)
        tracer = Tracer(lib)
        rounds = measure(run_round, lib, state, seconds, tracer)
        metrics = per_layer(tracer, setup_tracer, rounds)
        record["functions"] = tracer.function_table()
        record["spans"] = tracer.span_records()
    else:
        lib, state, setup_s, record["raw_setup_s"] = timed_setups(setup, seed, size)
        rounds = measure(run_round, lib, state, seconds)
        metrics = end_to_end(rounds, setup_s)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    record["rounds"] = len(rounds)
    record["latency_samples_per_round"] = rounds[0].requests
    record["raw_round_s"] = [r.wall for r in rounds]
    record["round_scale"] = [r.scale for r in rounds]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot load coxcat from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))
    meta = {
        k: record[k]
        for k in ("workload", "seed", "python", "nproc", "commit", "rounds", "latency_samples_per_round", "raw_round_s", "round_scale")
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
