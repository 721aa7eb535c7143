"""Child process of the benchmark: runs the program, optionally traced.

    python3 perfbench/child.py [--trace-out FILE] cli <positroid-hstar args>
    python3 perfbench/child.py [--trace-out FILE] sweep < instances.json

``cli`` is the shim for cold queries: it installs the span wrappers and calls
``cli.main(argv)``.  ``sweep`` is the warm n <= 6 sweep: it reads a JSON list
of compact necklaces from stdin, runs the per-positroid check of
``verify --scope exhaustive`` on each in one process, times each, probes the
machine speed before the first and after every item, and prints one JSON
object.  With ``--trace-out`` the spans are written to FILE once the
traced work ends.
"""

from __future__ import annotations

import json
import sys
import time

import inputs
import speed
import tracing


def run_cli(argv: list[str], trace_out: str | None) -> int:
    from positroid_hstar import cli

    recorder = tracing.Recorder() if trace_out else None
    if recorder:
        tracing.install(recorder)
    try:
        return cli.main(argv)
    finally:
        if recorder:
            recorder.dump(trace_out)


def run_sweep(trace_out: str | None) -> int:
    from positroid_hstar import cli, positroid, triangulation

    items = json.load(sys.stdin)
    recorder = tracing.Recorder() if trace_out else None
    if recorder:
        tracing.install(recorder)
    worker = cli._exhaustive_worker
    latencies, probes, problems = [], [speed.probe()], {}
    clock = time.perf_counter
    for text in items:
        subsets = tuple(tuple(sorted(s)) for s in inputs.parse_compact(text))
        start = clock()
        _, ok, detail = worker(subsets)
        latencies.append(clock() - start)
        probes.append(speed.probe())
        if not ok:
            problems[text] = detail
    if recorder:
        recorder.dump(trace_out)
    # Untimed: the shelling h* of every uniform instance, for the closed-form check.
    hstar = {}
    for text in items:
        necklace = inputs.parse_compact(text)
        n, k = len(necklace), len(necklace[0])
        if 0 < k < n and necklace == inputs.uniform(k, n):
            poly = triangulation.hstar_shelling(positroid.validate_necklace(necklace))
            hstar[text] = cli.poly_ints(poly)
    json.dump({"latencies_s": latencies, "probes_s": probes, "problems": problems,
               "uniform_hstar": hstar}, sys.stdout)
    sys.stdout.write("\n")
    return 0


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return run_cli(rest, trace_out)
    if mode == "sweep":
        return run_sweep(trace_out)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
