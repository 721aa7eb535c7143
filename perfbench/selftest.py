"""Self-test of the benchmark's own arithmetic and inputs.

    python3 perfbench/selftest.py

Covers the tail-percentile rule, the self-time arithmetic, the closed-form
hypersimplex h*, the consistency of BENCHMARK.json with run.py, and, when
the package source is present, that the generated inputs match the
package's own enumeration and that the wrappers bind in every module.
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class TailRule(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(252), 95.0)     # 12.6 beyond p95, 2.5 beyond p99
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertIsNone(run.tail_percentile(99))
        self.assertIsNone(run.tail_percentile(24))

    def test_nearest_rank(self):
        samples = list(range(1, 253))
        random.Random(0).shuffle(samples)
        self.assertEqual(run.tail(samples), (240, "p95"))     # ceil(0.95 * 252) = 240
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, "max"))


class SelfTime(unittest.TestCase):
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    SPANS = [("cli.main", 0.0, 10.0, -1), ("ehrhart.face_hstar", 1.0, 4.0, 0),
             ("ehrhart.count_constrained", 2.0, 3.0, 1), ("ehrhart.count_constrained", 5.0, 9.0, 0)]

    def test_duration_minus_children(self):
        self.assertEqual(tracing.self_times(self.SPANS), [3.0, 2.0, 1.0, 4.0])

    def test_self_times_add_up_to_the_roots(self):
        spans = self.SPANS + [("cli.main", 12.0, 13.5, -1)]
        roots = sum(end - start for _, start, end, parent in spans if parent < 0)
        self.assertEqual(sum(tracing.self_times(spans)), roots)

    def test_summary_splits_counting_by_caller(self):
        summary = tracing.summarize([{"spans": self.SPANS, "counts": {"x": 2}},
                                     {"spans": self.SPANS[:1], "counts": {"x": 3}}])
        count = summary["functions"]["ehrhart.count_constrained"]
        self.assertEqual((count["calls"], count["self_s"], count["max_call_s"]), (2, 5.0, 4.0))
        self.assertEqual(summary["functions"]["cli.main"]["first_call_s"], 10.0)
        self.assertEqual(summary["count_split"], {"ehrhart.count.face_s": 1.0,
                                                  "ehrhart.count.closed_s": 4.0})
        self.assertEqual(summary["counts"], {"x": 5})
        self.assertEqual(summary["attributed_s"], 20.0)


class ClosedForm(unittest.TestCase):
    def test_small_hypersimplices(self):
        self.assertEqual(inputs.hypersimplex_hstar(1, 4), [1])
        self.assertEqual(inputs.hypersimplex_hstar(2, 4), [1, 2, 1])
        self.assertEqual(inputs.hypersimplex_hstar(2, 5), [1, 5, 5])

    def test_volume_is_an_eulerian_number(self):
        def eulerian(m, k):  # permutations of m letters with k descents
            row = [1]
            for size in range(2, m + 1):
                row = [(j + 1) * (row[j] if j < len(row) else 0)
                       + (size - j) * (row[j - 1] if j else 0) for j in range(size)]
            return row[k]
        for n in range(2, 10):
            for k in range(1, n):
                self.assertEqual(sum(inputs.hypersimplex_hstar(k, n)), eulerian(n - 1, k - 1))

    def test_rotation_and_uniform(self):
        u = inputs.uniform(3, 7)
        self.assertEqual(inputs.compact(u), "123,234,345,456,567,167,127")
        self.assertEqual(inputs.rotate(u, 3), u)
        necklace = inputs.parse_compact(run.CROSSCHECK_REFERENCE[0][0])
        self.assertEqual(inputs.rotate(inputs.rotate(necklace, 2), 5), necklace)


class BenchmarkFile(unittest.TestCase):
    def test_names_match_run_py(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]], list(run.PER_LAYER))


@unittest.skipUnless((ROOT / "src" / "positroid_hstar").is_dir(), "package source absent")
class AgainstPackage(unittest.TestCase):
    def test_sweep_inputs_are_the_connected_positroids(self):
        from positroid_hstar import cli
        theirs = {tuple(nk.subsets) for n in range(1, 7) for nk in cli.connected_necklaces(n)}
        ours = inputs.connected_necklaces(6)
        self.assertEqual(len(ours), 252)
        self.assertEqual(set(ours), theirs)

    def test_random_inputs_parse(self):
        from positroid_hstar import cli, positroid
        rng = random.Random(1)
        for _ in range(20):
            necklace = inputs.random_connected(rng, 8)
            kind, value = cli.parse_input(inputs.compact(necklace))
            self.assertTrue(positroid.is_connected(positroid.bases_from_necklace(value)))
            kind, _ = cli.parse_input(inputs.random_subdivision(rng, 8))
            self.assertEqual(kind, "subdivision")

    def test_wrappers_bind_everywhere(self):
        from positroid_hstar import halfopen, triangulation
        recorder = tracing.Recorder()
        from positroid_hstar import positroid
        original = triangulation.enumerate_labels
        necklace = positroid.validate_necklace(inputs.uniform(2, 5))
        try:
            self.assertGreater(tracing.install(recorder), 0)
            self.assertIs(halfopen.enumerate_labels, triangulation.enumerate_labels)
            halfopen.hstar_half_open(necklace)
        finally:
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("positroid_hstar"):
                    for attr, obj in list(vars(module).items()):
                        if hasattr(obj, "__wrapped__"):
                            setattr(module, attr, obj.__wrapped__)
        names = [s[0] for s in recorder.spans]
        self.assertEqual(names[0], "halfopen.hstar_half_open")
        self.assertIn("triangulation.enumerate_labels", names)
        self.assertEqual(recorder.counts["triangulation.labels_kept"], 11)
        self.assertEqual(recorder.counts["triangulation.words_scanned"], 24)
        self.assertIs(triangulation.enumerate_labels, original)


if __name__ == "__main__":
    unittest.main()
