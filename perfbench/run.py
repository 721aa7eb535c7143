"""Benchmark of the positroid-hstar pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` (``PYTHONPATH=src``), never from an installed copy.  Every query runs
in a child process, one at a time.  Inputs are generated from the seed
before any timing starts, and every answer is checked.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it is a JSON note on the machine and the run.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150.0     # a hang guard: a cold query takes seconds, a sweep child under a minute
RUN_BUDGET_S = 170.0        # every child is stopped before this, so the run ends in time
SETUP_SAMPLES = 9
PROBE_REPEATS = 9           # speed probe after each child; the sweep child probes 3 times per item
SWEEP_OVERHEAD_EVERY = 6    # traced sweep: untraced reference on every 6th instance

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

_FUNCTION_FIELDS = (
    ("triangulation.enumerate_labels", ("calls", "self_s", "first_call_s")),
    ("triangulation.build_graph", ("self_s",)),
    ("triangulation.shelling_poset", ("self_s",)),
    ("triangulation.affine_consistency_check", ("self_s",)),
    ("triangulation.simplex_is_unimodular", ("self_s",)),
    ("ehrhart.count_constrained", ("calls", "self_s", "max_call_s")),
    ("ehrhart.face_hstar", ("self_s",)),
    ("ehrhart.ehrhart_interpolate", ("self_s",)),
    ("ehrhart.hstar_from_counts", ("self_s",)),
    ("halfopen.canonical_facets", ("calls", "self_s")),
    ("halfopen.face_poset_of_uppers", ("calls", "self_s")),
    ("halfopen.moebius", ("calls", "self_s")),
    ("halfopen.hstar_half_open", ("calls", "self_s")),
    ("halfopen.hstar_closed_via_inclusion_exclusion", ("calls", "self_s")),
    ("positroid.bases_from_necklace", ("calls", "self_s")),
    ("positroid.is_connected", ("calls", "self_s")),
    ("positroid.h_representation", ("calls", "self_s")),
    ("positroid.vertices", ("calls", "self_s")),
    ("tree.circular_extensions", ("self_s",)),
    ("tree.positroid_from_subdivision", ("self_s",)),
    ("tree.hstar_tree", ("self_s",)),
    ("cli.parse_input", ("self_s",)),
    ("cli.emit", ("self_s",)),
)

PER_LAYER = (
    tuple((f"{fn}.{fld}", "count" if fld == "calls" else "s")
          for fn, fields in _FUNCTION_FIELDS for fld in fields)
    + tuple((f"{layer}.self_s", "s") for layer in tracing.LAYERS)
    + (
        ("triangulation.words_scanned", "count"),
        ("triangulation.labels_kept", "count"),
        ("triangulation.label_yield", "ratio"),
        ("triangulation.graph_edges", "count"),
        ("ehrhart.points_counted", "count"),
        ("ehrhart.points_per_s", "1/s"),
        ("ehrhart.count.closed_s", "s"),
        ("ehrhart.count.face_s", "s"),
        ("ehrhart.count.halfopen_s", "s"),
        ("halfopen.faces", "count"),
        ("halfopen.faces_counted", "count"),
        ("tree.extensions_kept", "count"),
        ("trace.wall_s", "s"),
        ("trace.attributed_s", "s"),
        ("trace.harness_s", "s"),
        ("trace.overhead_frac", "ratio"),
    )
)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

TAIL_GRID = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(count: int) -> float | None:
    """Highest grid percentile with at least ten samples beyond it; None = use the maximum."""
    for p in TAIL_GRID:
        if count * round(1000 - 10 * p) >= 10 * 1000:  # count * (1 - p/100) >= 10, exactly
            return p
    return None


def tail(samples: list[float]) -> tuple[float, str]:
    """(value, label) of the tail latency: nearest-rank percentile or the maximum."""
    ordered = sorted(samples)
    p = tail_percentile(len(ordered))
    if p is None:
        return ordered[-1], "max"
    rank = -(-len(ordered) * round(10 * p) // 1000)  # ceil(p/100 * N), the nearest rank
    return ordered[rank - 1], f"p{p:g}"


# ---------------------------------------------------------------------------
# answer checks: each returns None when the report is right, else a reason
# ---------------------------------------------------------------------------

Check = Callable[[dict], "str | None"]


def _routes_agree(report: dict, routes: set[str]) -> str | None:
    got = report.get("hstar", {})
    if set(got) != routes:
        return f"routes {sorted(got)} instead of {sorted(routes)}"
    if len({tuple(v) for v in got.values()}) != 1:
        return f"routes disagree: {got}"
    if len(routes) > 1 and report.get("verdict") != "PASS":
        return f"verdict {report.get('verdict')}"
    return None


def closed_check(routes: set[str], expected: list[int] | None = None) -> Check:
    def check(report):
        problem = _routes_agree(report, routes)
        if problem:
            return problem
        h = next(iter(report["hstar"].values()))
        if h[0] != 1 or min(h) < 0:
            return f"closed h* {h} is not a valid h*-vector"
        if sum(h) != report.get("num_simplices"):
            return f"h*(1) = {sum(h)} but num_simplices = {report.get('num_simplices')}"
        if expected is not None and h != expected:
            return f"h* {h}, closed form {expected}"
        return None
    return check


def half_open_check(routes: set[str], volume: int | None = None) -> Check:
    def check(report):
        problem = _routes_agree(report, routes)
        if problem:
            return problem
        h = next(iter(report["hstar"].values()))
        if h[0] != 0 or min(h) < 0:
            return f"half-open h* {h} has the wrong shape"
        if sum(h) != report.get("num_simplices"):
            return f"descent sum {sum(h)} but num_simplices = {report.get('num_simplices')}"
        if volume is not None and sum(h) != volume:
            return f"descent sum {sum(h)}, closed-form volume {volume}"
        return None
    return check


def triangulate_check(expected: list[int]) -> Check:
    def check(report):
        h = report.get("hstar")
        if h != expected:
            return f"h* {h}, closed form {expected}"
        if not report.get("num_simplices") == len(report.get("labels", ())) == sum(h):
            return "num_simplices, label count and h*(1) differ"
        if sum(report["covers"].values()) != len(report["edges"]):
            return "cover sum differs from the edge count"
        if report.get("affine_consistent") is not True:
            return "affine windows are inconsistent"
        return None
    return check


def tree_check(report: dict) -> str | None:
    h = report.get("hstar")
    if not h or h[0] != 1 or min(h) < 0:
        return f"tree h* {h} is not a valid h*-vector"
    if sum(h) != len(report.get("extensions", ())):
        return f"h*(1) = {sum(h)} but {len(report['extensions'])} circular extensions"
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Query:
    """CLI calls timed together, each in a fresh process, each with its check."""

    name: str
    calls: list[tuple[list[str], Check]]


# Three connected positroids on 7 elements, drawn once from seeded random
# permutations, with the h* all three closed routes agree on.  Each pass uses
# a rotation of each, and the passes of one run use distinct seeded random
# rotations: a rotation keeps the h* but changes the input, and keeps the
# counting cost within about 20% (fresh random positroids of one rank vary it
# about threefold).
CROSSCHECK_REFERENCE = (
    ("123,235,345,457,567,267,237", [1, 21, 81, 65, 10]),
    ("1234,2345,3456,4567,1567,1367,1237", [1, 27, 127, 116, 21]),
    ("12345,23456,13456,14567,12567,12467,12347", [1, 12, 27, 7]),
)
NOMINAL_PASS_S = {"sweep6": 30.0, "crosscheck7": 10.0, "frontier8": 15.0}


def crosscheck7_passes(rng: random.Random, passes: int) -> list[list[Query]]:
    shifts = [rng.sample(range(7), 7) for _ in CROSSCHECK_REFERENCE]
    u37 = ("U(3,7)", inputs.compact(inputs.uniform(3, 7)), inputs.hypersimplex_hstar(3, 7))
    out = []
    for p in range(passes):
        cases = [u37]
        for (text, hstar), shift in zip(CROSSCHECK_REFERENCE, shifts):
            necklace = inputs.rotate(inputs.parse_compact(text), shift[p % 7])
            cases.append((f"rank{len(necklace[0])}", inputs.compact(necklace), hstar))
        out.append([Query(label, [
            (["hstar", text, "--method", "all"],
             closed_check({"shelling", "inclusion-exclusion", "oracle"}, hstar)),
            (["hstar", text, "--half-open", "--method", "all"],
             half_open_check({"descents", "oracle"}, sum(hstar))),
        ]) for label, text, hstar in cases])
    return out


def frontier8_passes(rng: random.Random, passes: int) -> list[list[Query]]:
    return [frontier8_pass(rng) for _ in range(passes)]


def frontier8_pass(rng: random.Random) -> list[Query]:
    u38, u48 = inputs.uniform(3, 8), inputs.uniform(4, 8)
    a = inputs.random_connected(rng, 8)
    b = inputs.random_connected(rng, 8)
    return [
        Query("U(3,8) shelling", [(["hstar", inputs.compact(u38), "--method", "shelling"],
                                   closed_check({"shelling"}, inputs.hypersimplex_hstar(3, 8)))]),
        Query("A shelling", [(["hstar", inputs.compact(a), "--method", "shelling"],
                              closed_check({"shelling"}))]),
        Query("B descents", [(["hstar", inputs.compact(b), "--half-open", "--method", "descents"],
                              half_open_check({"descents"}))]),
        Query("U(4,8) triangulate", [(["triangulate", inputs.compact(u48)],
                                      triangulate_check(inputs.hypersimplex_hstar(4, 8)))]),
        Query("tree", [(["tree", inputs.random_subdivision(rng, 8)], tree_check)]),
    ]


COLD_WORKLOADS = {"crosscheck7": crosscheck7_passes, "frontier8": frontier8_passes}
WORKLOAD_NAMES = ("sweep6", "crosscheck7", "frontier8")


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """Everything measured in one benchmark run.

    Every child runs between two speed probes, so each measured time is kept
    both raw and at the reference speed (see speed.py).
    """

    deadline: float
    env: dict
    tmp: str
    passes: list[list[float]] = field(default_factory=list)      # reference seconds per query
    raw_passes: list[list[float]] = field(default_factory=list)  # measured seconds per query
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    last_probe: float = field(default_factory=lambda: speed.probe(PROBE_REPEATS))

    def child(self, argv: list[str], stdin: str | None = None) -> tuple[int, str, str, float, float]:
        """Run one child to completion: (exit code, stdout, stderr, seconds, reference seconds)."""
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return -1, "", "run budget exhausted", 0.0, 0.0
        before = self.last_probe
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, input=stdin, capture_output=True, text=True,
                                  env=self.env, cwd=ROOT, timeout=timeout)
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            rc, out, err = -1, "", f"timed out after {timeout:.0f} s"
        seconds = time.perf_counter() - start
        self.last_probe = speed.probe(PROBE_REPEATS)
        self.probes.append(self.last_probe)
        return rc, out, err, seconds, speed.normalize(seconds, before, self.last_probe)

    def record(self, raw: list[float], reference: list[float]) -> None:
        """The per-query times of one pass; its wall time is their sum."""
        self.raw_passes.append(raw)
        self.passes.append(reference)

    def fail(self, item: str, problems: list[str]) -> None:
        """Count the item as failed if it has any problem."""
        if problems:
            self.failed += 1
            self.problems += [f"{item}: {p}" for p in problems]


def pin_to_one_cpu() -> int | None:
    """Keep the harness and its children on one CPU, so that the speed probe
    and the work it scales run on the same core."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(run: Run) -> list[float]:
    """Reference seconds for fresh interpreters to import the CLI and build its parser."""
    code = "import positroid_hstar.cli as c; c.build_parser()"
    samples = []
    for _ in range(SETUP_SAMPLES):
        rc, _, err, _, seconds = run.child([sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError(f"cannot import positroid_hstar.cli: {err.strip()[-300:]}")
        samples.append(seconds)
    return samples


def cold_pass(run: Run, queries: list[Query], traced: bool) -> tuple[list[float], list[float]]:
    """Run each query's calls in fresh processes: (seconds, reference seconds) per query."""
    raw, reference, dumps = [], [], []
    for q in queries:
        run.attempted += 1
        problems = []
        raw.append(0.0)
        reference.append(0.0)
        for k, (args, check) in enumerate(q.calls):
            if traced:
                path = os.path.join(run.tmp, f"q{run.attempted}-{k}.json")
                argv = [sys.executable, str(HERE / "child.py"), "--trace-out", path, "cli", *args]
            else:
                argv = [sys.executable, "-m", "positroid_hstar.cli", *args]
            rc, out, err, seconds, ref_seconds = run.child(argv)
            raw[-1] += seconds
            reference[-1] += ref_seconds
            if rc != 0:
                problems.append(f"{args[0]}: exit {rc}: {err.strip()[-300:]}")
                continue
            try:
                problem = check(json.loads(out))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                problem = f"unreadable report: {exc!r}"
            if problem:
                problems.append(f"{args[0]}: {problem}")
            if traced:
                dumps.append(path)
        run.fail(q.name, problems)
    run.traces += [tracing.load(path) for path in dumps]
    return raw, reference


def sweep_pass(run: Run, items: list[str], expected: dict[str, list[int]],
               trace_out: str | None = None) -> tuple[list[float], list[float]]:
    """One warm child runs the per-positroid check on every item.

    Returns (seconds, reference seconds) per item; the child probes the
    machine speed between items.
    """
    argv = [sys.executable, str(HERE / "child.py")]
    if trace_out:
        argv += ["--trace-out", trace_out]
    rc, out, err, _, _ = run.child(argv + ["sweep"], stdin=json.dumps(items))
    run.attempted += len(items)
    if rc != 0:
        run.failed += len(items)
        run.problems.append(f"sweep child: exit {rc}: {err.strip()[-300:]}")
        return [], []
    doc = json.loads(out.splitlines()[-1])
    for text in items:
        problems = [doc["problems"][text]] if text in doc["problems"] else []
        got = doc["uniform_hstar"].get(text)
        if text in expected and got != expected[text]:
            problems.append(f"shelling h* {got}, closed form {expected[text]}")
        run.fail(text, problems)
    if trace_out:
        run.traces.append(tracing.load(trace_out))
    raw, probes = doc["latencies_s"], doc["probes_s"]
    run.probes += probes
    return raw, [speed.normalize(t, probes[k], probes[k + 1]) for k, t in enumerate(raw)]


def sweep_items(rng: random.Random) -> tuple[list[str], dict[str, list[int]], list[str]]:
    """(seeded order, closed-form h* of the uniform instances, canonical order)."""
    canonical = [inputs.compact(nk) for nk in inputs.connected_necklaces(6)]
    expected = {inputs.compact(inputs.uniform(k, n)): inputs.hypersimplex_hstar(k, n)
                for n in range(2, 7) for k in range(1, n)}
    order = list(canonical)
    rng.shuffle(order)
    return order, expected, canonical


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def per_query(passes: list[list[float]]) -> list[float]:
    """Each query's latency: the median over the passes, which repeat the same queries."""
    return [statistics.median(times) for times in zip(*passes)]


def summary(passes: list[list[float]]) -> tuple[dict, str]:
    """wall_s, latency_ms_p50 and latency_ms_tail of a run's passes, and the tail's label."""
    latencies = per_query(passes)
    value, label = tail(latencies)
    return {"wall_s": statistics.median(sum(p) for p in passes),
            "latency_ms_p50": 1000 * statistics.median(latencies),
            "latency_ms_tail": 1000 * value}, label


def end_to_end(run: Run, setup: list[float]) -> tuple[dict, dict]:
    metrics, label = summary(run.passes)
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    probes = {"median_s": statistics.median(run.probes), "mean_s": statistics.fmean(run.probes),
              "count": len(run.probes)}
    return metrics, {"tail_percentile": label, "queries": len(run.passes[0]),
                     "passes": len(run.passes), "measured": summary(run.raw_passes)[0],
                     "probe": probes}


def per_layer(run: Run, overhead: float) -> dict:
    """Per-layer metrics of the traced pass; its times are measured seconds."""
    summary = tracing.summarize(run.traces)
    fns, counts, split = summary["functions"], summary["counts"], summary["count_split"]
    out = {}
    for fn, fields in _FUNCTION_FIELDS:
        for fld in fields:
            out[f"{fn}.{fld}"] = fns.get(fn, {}).get(fld, 0)
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(v["self_s"] for name, v in fns.items()
                                     if name.split(".")[0] == layer)
    words = counts.get("triangulation.words_scanned", 0)
    labels = counts.get("triangulation.labels_kept", 0)
    points = counts.get("ehrhart.points_counted", 0)
    count_s = fns.get("ehrhart.count_constrained", {}).get("self_s", 0)
    wall = sum(run.raw_passes[-1])
    out.update({
        "triangulation.words_scanned": words,
        "triangulation.labels_kept": labels,
        "triangulation.label_yield": labels / words if words else 0,
        "triangulation.graph_edges": counts.get("triangulation.graph_edges", 0),
        "ehrhart.points_counted": points,
        "ehrhart.points_per_s": points / count_s if count_s else 0,
        "ehrhart.count.closed_s": split.get("ehrhart.count.closed_s", 0),
        "ehrhart.count.face_s": split.get("ehrhart.count.face_s", 0),
        "ehrhart.count.halfopen_s": split.get("ehrhart.count.halfopen_s", 0),
        "halfopen.faces": counts.get("halfopen.faces", 0),
        "halfopen.faces_counted": counts.get("halfopen.faces_counted", 0),
        "tree.extensions_kept": counts.get("tree.extensions_kept", 0),
        "trace.wall_s": wall,
        "trace.attributed_s": summary["attributed_s"],
        "trace.harness_s": wall - summary["attributed_s"],
        "trace.overhead_frac": overhead,
    })
    return out


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def machine_note(workload: str, seed: int, trace: bool) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(), "cpu": cpu,
        "loadavg_start": list(os.getloadavg()), "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return ref_file.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next(line.split()[0] for line in packed if line.endswith(" " + ref[5:]))
        return ref
    except (OSError, StopIteration):
        return "unknown"


def measure(workload: str, seed: int, seconds: int, trace: bool, run: Run) -> float | None:
    """Run the workload's passes; a traced run returns the tracing overhead.

    The overhead is traced / untraced - 1 in reference seconds.  A traced
    sweep compares an untraced child on every SWEEP_OVERHEAD_EVERY-th
    instance with the same instances in the traced pass; a traced cold
    workload runs each query untraced, then traced.
    """
    rng = random.Random(f"{workload}:{seed}")
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    if workload == "sweep6":
        order, expected, canonical = sweep_items(rng)
        if not trace:
            for _ in range(passes):
                run.record(*sweep_pass(run, order, expected))
            return None
        subset = canonical[::SWEEP_OVERHEAD_EVERY]
        untraced = sum(sweep_pass(run, subset, expected)[1])
        raw, reference = sweep_pass(run, order, expected, os.path.join(run.tmp, "sweep.json"))
        run.record(raw, reference)
        by_item = dict(zip(order, reference))
        return sum(by_item[text] for text in subset) / untraced - 1 if untraced and raw else None
    make_passes = COLD_WORKLOADS[workload]
    if not trace:
        for queries in make_passes(rng, passes):
            run.record(*cold_pass(run, queries, traced=False))
        return None
    untraced, traced = [], ([], [])
    for query in make_passes(rng, 1)[0]:
        untraced += cold_pass(run, [query], traced=False)[1]
        raw, reference = cold_pass(run, [query], traced=True)
        traced[0].extend(raw)
        traced[1].extend(reference)
    run.record(*traced)
    return sum(traced[1]) / sum(untraced) - 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "positroid_hstar" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    note = machine_note(args.workload, args.seed, bool(args.trace))
    note["pinned_cpu"] = pin_to_one_cpu()
    tmp = tempfile.mkdtemp(prefix=".run-", dir=HERE)
    run = Run(time.monotonic() + RUN_BUDGET_S, child_env(), tmp)
    try:
        setup = measure_setup(run)
        overhead = measure(args.workload, args.seed, args.seconds, bool(args.trace), run)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not run.passes or not run.passes[0] or (args.trace and overhead is None):
        print("error: no pass completed: " + "; ".join(run.problems[:3]), file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(run, overhead)
        units = dict(PER_LAYER)
    else:
        values, extra = end_to_end(run, setup)
        note.update(extra)
        units = dict(END_TO_END)
    failed = run.failed
    note.update({"attempted": run.attempted, "failed": failed,
                 "failed_frac": failed / run.attempted, "problems": run.problems[:5]})
    print(json.dumps({"note": note}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
