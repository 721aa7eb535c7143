"""Span recorder for the traced benchmark run.

``install`` wraps every public function of the six pipeline modules and
binds each wrapper in every package module that holds the function, so calls
through ``from .x import f`` names are recorded too.  ``core`` and
``_linalg`` stay unwrapped: they run once per word, and their time counts in
the caller's self time.  Spans stay in memory and are written once, by
``dump``, when the traced process ends.

``summarize`` turns the spans of one or more processes into self times,
call counts and work counters; it needs nothing from the package.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "positroid_hstar"
LAYERS = ("positroid", "triangulation", "halfopen", "ehrhart", "tree", "cli")
# Private entry points the benchmark calls directly; they become root spans.
ENTRY_POINTS = {"cli._exhaustive_worker"}


def _labels(counts, args, result):
    n = args[0].n
    counts["triangulation.words_scanned"] += math.factorial(n - 1) if n > 1 else 0
    counts["triangulation.labels_kept"] += len(result)


def _edges(counts, args, result):
    counts["triangulation.graph_edges"] += sum(map(len, result.neighbors.values())) // 2


def _points(counts, args, result):
    counts["ehrhart.points_counted"] += result


def _faces(counts, args, result):
    counts["halfopen.faces"] += len(result.nodes) - 1


def _faces_counted(counts, args, result):
    top = args[0].top
    counts["halfopen.faces_counted"] += sum(1 for node, mu in result.items() if mu and node != top)


def _extensions(counts, args, result):
    counts["tree.extensions_kept"] += len(result)


# Work counters read off a call's arguments and result, after its span ends.
COUNTERS = {
    "triangulation.enumerate_labels": _labels,
    "triangulation.build_graph": _edges,
    "ehrhart.count_constrained": _points,
    "halfopen.face_poset_of_uppers": _faces,
    "halfopen.moebius": _faces_counted,
    "tree.circular_extensions": _extensions,
}


class Recorder:
    """Spans (name, start, end, parent index) of one process, in call order."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: k for k, name in enumerate(names)}
        doc = {"names": names,
               "spans": [(index[n], a, b, p) for n, a, b, p in self.spans],
               "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(recorder: Recorder) -> int:
    """Wrap the layers' public functions; return how many bindings changed."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and (not attr.startswith("_") or name in ENTRY_POINTS)):
                wrappers[obj] = recorder.wrap(name, obj)
    bound = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                bound += 1
    return bound


# ---------------------------------------------------------------------------
# analysis (harness side)
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span are disjoint
    sub-intervals of it.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


_COUNT_CALLERS = (
    ("ehrhart.count.face_s", {"ehrhart.face_hstar"}),
    ("ehrhart.count.halfopen_s", {"halfopen.half_open_profile",
                                  "halfopen.hstar_half_open_by_counting"}),
)


def _count_bucket(spans, idx: int) -> str:
    parent = spans[idx][3]
    while parent >= 0:
        for bucket, callers in _COUNT_CALLERS:
            if spans[parent][0] in callers:
                return bucket
        parent = spans[parent][3]
    return "ehrhart.count.closed_s"


def load(path: str) -> dict:
    """Read a dump back as {'spans': [(name, start, end, parent)], 'counts': {...}}."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = doc["names"]
    return {"spans": [(names[k], a, b, p) for k, a, b, p in doc["spans"]],
            "counts": doc["counts"]}


def summarize(processes: list[dict]) -> dict:
    """Per-function and per-layer aggregates over several traced processes.

    Returns {'functions': {name: {calls, self_s, max_call_s, first_call_s}},
    'counts': {...}, 'count_split': {...}, 'attributed_s': float}.
    ``first_call_s`` is the median over processes of the first call's length.
    """
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    max_call: defaultdict = defaultdict(float)
    firsts: defaultdict = defaultdict(list)
    counts: Counter = Counter()
    split: defaultdict = defaultdict(float)
    attributed = 0.0
    for proc in processes:
        spans = proc["spans"]
        own = self_times(spans)
        seen = set()
        for idx, (name, start, end, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += own[idx]
            max_call[name] = max(max_call[name], end - start)
            if name not in seen:
                seen.add(name)
                firsts[name].append(end - start)
            if name == "ehrhart.count_constrained":
                split[_count_bucket(spans, idx)] += own[idx]
        attributed += sum(own)
        counts.update(proc["counts"])
    functions = {name: {"calls": calls[name], "self_s": self_s[name],
                        "max_call_s": max_call[name],
                        "first_call_s": statistics.median(firsts[name])}
                 for name in calls}
    return {"functions": functions, "counts": dict(counts), "count_split": dict(split),
            "attributed_s": attributed}
