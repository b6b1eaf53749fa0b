"""Per-layer tracing for the benchmark, installed from outside the library.

A layer is one module of ``coxcat``.  ``Tracer`` wraps the boundary
functions listed in ``BOUNDARY`` by rebinding the module attribute and
every ``from ... import`` alias of it in the loaded ``coxcat`` modules, so
the library source is never edited.  Each wrapped call is a frame on one
stack; a frame's self time is its duration minus the time of the wrapped
calls beneath it, and is charged to the frame's layer.  Time outside every
frame belongs to the benchmark itself, so per round the layers' self times
plus the benchmark's own time add up to the round's wall time.

Hot helpers called hundreds of thousands of times from inside their own
layer (``check_perm``, ``to_cycles``, ``apply_value``, ``mul``, ``inverse``,
``length_t``, ``descent_set``, the ``QPoly`` arithmetic) stay unwrapped:
their time is charged to whichever wrapped caller runs them.

Task-level calls (``SPAN_FUNCTIONS``) and the benchmark's own batches also
record spans with name, start, end, parent and round; spans stay in memory
until the caller writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

BOUNDARY = {
    "cli": ["main"],
    "bijmaps": ["phi", "psi_a", "psi_b", "verify_phi_theorems", "verify_psi_theorems"],
    "noncrossing": ["nc_elements", "rev_nc", "d4_counterexample", "coxeter_elements_d4"],
    "sortable": ["enumerate_sortables", "is_c_sortable", "c_sorting_word"],
    "signedperm": [
        "enumerate_group", "leq_t", "length_s", "maj", "imaj", "des", "ides",
        "des_set", "ides_set", "neg", "rev", "from_cycles", "word_to_perm",
        "coxeter_element", "simple_reflection", "length_t_bfs",
    ],
    "rootposets": [
        "ideals", "root_poset", "RootPoset.maximal_elements", "RootPoset.is_ideal",
        "cat_q", "dyck_to_ideal", "ideal_to_dyck", "ideal_maj", "ideal_des",
        "ideal_cells", "ideal_from_cells", "lift_delta", "ideal_to_json", "root_str",
    ],
    "paths": [
        "enumerate_a", "enumerate_b", "cells_a", "cells_b", "area_a", "area_b",
        "maj_a", "maj_b", "neg_b", "split_lower_upper", "unfold_lattice_to_b",
        "area_polynomial", "maj_polynomial",
    ],
    "qseries": [
        "cat_number", "qcat_a", "qcat_product", "q_binomial", "q_factorial",
        "is_palindromic", "QPoly.__eq__", "QPoly.divexact",
    ],
}

LAYERS = tuple(BOUNDARY)

# Generator functions: their frames cover only the time spent inside next().
GENERATORS = {"signedperm.enumerate_group"}

# Functions whose returned collection size is recorded as ``items``.
COUNTED = {
    "rootposets.ideals", "paths.enumerate_a", "paths.enumerate_b",
    "noncrossing.nc_elements", "sortable.enumerate_sortables",
}

SPAN_FUNCTIONS = {
    "cli.main", "bijmaps.verify_phi_theorems", "bijmaps.verify_psi_theorems",
    "noncrossing.d4_counterexample",
}


class Tracer:
    """Wraps the boundary functions of one loaded library while entered.

    It can be entered again; counts and times accumulate.

    ``lib`` maps layer names to the loaded ``coxcat`` modules, plus the
    package itself under ``"coxcat"``.
    """

    def __init__(self, lib: dict):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.items: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self.scanned: dict[str, int] = {}  # generator yields, by the wrapped caller that made the generator
        self.top_time = 0.0  # inclusive time of frames with no wrapped caller
        self.rounds = 0
        self.round_wall = 0.0
        self.spans: list[list] = []
        self._open_spans: list[int] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._index: dict[str, int] = {}
        self._find_patches(lib)

    # -- installing ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _find_patches(self, lib: dict) -> None:
        """Pair each boundary function with its wrapper; a name the library
        no longer has is skipped, and its counts stay 0."""
        modules = list(lib.values())
        for layer, entries in BOUNDARY.items():
            module = lib[layer]
            for entry in entries:
                fid = self._register(f"{layer}.{entry}", layer)
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    owner = getattr(module, cls_name, None)
                    original = vars(owner).get(attr) if owner is not None else None
                    if original is not None:
                        self._patches.append((owner, attr, original, self._wrap(fid, original)))
                    continue
                original = getattr(module, entry, None)
                if original is None:
                    continue
                wrapper = self._wrap(fid, original)
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is original:
                            self._patches.append((m, attr, original, wrapper))

    def _register(self, name: str, layer: str) -> int:
        self._index[name] = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.items.append(0)
        self.incl.append(0.0)
        self.self_time.append(0.0)
        return self._index[name]

    def _wrap(self, fid: int, fn):
        name = self.names[fid]
        if name in GENERATORS:
            return self._wrap_generator(fid, fn)
        stack, clock = self._stack, time.perf_counter
        calls, incl, self_time, items = self.calls, self.incl, self.self_time, self.items
        counted, span = name in COUNTED, name in SPAN_FUNCTIONS

        def wrapper(*args, **kwargs):
            frame = [0.0, fid]  # time of wrapped calls beneath, function
            stack.append(frame)
            if span:
                span_id = self._open_span(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counted:
                    items[fid] += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                if span:
                    self._close_span(span_id, start, end)
                duration = end - start
                calls[fid] += 1
                incl[fid] += duration
                self_time[fid] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_time += duration

        return wrapper

    def _wrap_generator(self, fid: int, fn):
        stack, clock = self._stack, time.perf_counter
        incl, self_time, scanned = self.incl, self.self_time, self.scanned
        names = self.names

        def resume(gen, owner):
            while True:
                start = clock()
                try:
                    value = next(gen)
                except StopIteration:
                    return
                finally:
                    duration = clock() - start
                    incl[fid] += duration
                    self_time[fid] += duration
                    if stack:
                        stack[-1][0] += duration
                    else:
                        self.top_time += duration
                scanned[owner] = scanned.get(owner, 0) + 1
                yield value

        def wrapper(*args, **kwargs):
            self.calls[fid] += 1
            owner = names[stack[-1][1]] if stack else ""
            return resume(fn(*args, **kwargs), owner)

        return wrapper

    # -- spans --------------------------------------------------------------

    def _open_span(self, name: str) -> int:
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append([name, None, None, parent, self.rounds])
        self._open_spans.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close_span(self, span_id: int, start: float, end: float) -> None:
        self._open_spans.pop()
        self.spans[span_id][1] = start
        self.spans[span_id][2] = end

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own work (a round or a batch of calls)."""
        span_id = self._open_span(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close_span(span_id, start, time.perf_counter())

    def end_round(self, wall: float) -> None:
        self.rounds += 1
        self.round_wall += wall

    # -- reading ------------------------------------------------------------

    def fid(self, name: str) -> int:
        return self._index[name]

    def layer_self(self, layer: str) -> float:
        return sum(t for t, l in zip(self.self_time, self.layer_of) if l == layer)

    def function_table(self) -> list[dict]:
        return [
            {"name": n, "calls": c, "items": i, "incl_s": t, "self_s": s}
            for n, c, i, t, s in zip(self.names, self.calls, self.items, self.incl, self.self_time)
            if c
        ]

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "round": r}
            for n, s, e, p, r in self.spans
        ]
