"""The benchmark harness's own self-test, run as part of the suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def test_sweep_child_runs_the_exhaustive_worker():
    # the sweep child calls cli._exhaustive_worker and cli.poly_ints directly
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "perfbench/child.py", "sweep"], cwd=ROOT, env=env,
                            input=json.dumps(["12,23,34,45,15", "12,23,13,14"]),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["problems"] == {}
    assert doc["uniform_hstar"] == {"12,23,34,45,15": [1, 5, 5]}


def test_tracing_still_wraps_every_layer():
    # the traced run wraps the public functions of tracing.LAYERS, and the sweep
    # child's root span is cli._exhaustive_worker, bound by its home module
    code = """if True:
        import importlib, json, sys
        sys.path.insert(0, "perfbench")
        import tracing
        from positroid_hstar import cli
        tracing.install(tracing.Recorder())
        wrapped = {layer: sorted(
            name for name, obj in vars(importlib.import_module("positroid_hstar." + layer)).items()
            if not name.startswith("_") and hasattr(obj, "__wrapped__"))
            for layer in tracing.LAYERS}
        print(json.dumps({"worker": hasattr(cli._exhaustive_worker, "__wrapped__"),
                          "wrapped": wrapped}))
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["worker"]
    assert all(doc["wrapped"].values()), doc["wrapped"]
    assert {"parse_input", "emit", "main"} <= set(doc["wrapped"]["cli"])


def test_traced_triangulate_records_its_stages_and_edges():
    # the traced run counts graph edges through TriangulationGraph.neighbors and
    # times the triangulate stages by these names
    code = """if True:
        import contextlib, io, json, sys
        sys.path.insert(0, "perfbench")
        import tracing
        from positroid_hstar import cli
        from positroid_hstar import triangulation as tg
        pentagon = "12,23,34,45,15"
        graph = tg.build_graph(tg.enumerate_labels(cli.parse_compact_necklace(pentagon)))
        recorder = tracing.Recorder()
        tracing.install(recorder)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["triangulate", pentagon])
        print(json.dumps({"code": code, "edges": len(graph.edges()),
                          "reported": len(json.loads(out.getvalue())["edges"]),
                          "counts": dict(recorder.counts),
                          "names": sorted({span[0] for span in recorder.spans})}))
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert (doc["code"], doc["edges"], doc["reported"]) == (0, 15, 15)
    assert doc["counts"]["triangulation.graph_edges"] == doc["edges"]
    assert {"triangulation.build_graph", "triangulation.shelling_poset",
            "triangulation.affine_consistency_check", "cli.emit"} <= set(doc["names"])


def test_every_name_the_harness_reads_resolves():
    # perfbench calls, traces or reads these by name, so a rename or deletion
    # must fail here and not only in a benchmark run
    from positroid_hstar import cli, halfopen, positroid, tree, triangulation

    names = {
        cli: ("main", "build_parser", "parse_input", "emit", "poly_ints", "connected_necklaces",
              "_exhaustive_worker"),
        positroid: ("validate_necklace", "bases_from_necklace", "is_connected"),
        triangulation: ("hstar_shelling", "build_graph"),
        halfopen: ("enumerate_labels", "face_poset_of_uppers"),
        tree: ("positroid_from_subdivision", "hstar_tree", "circular_extensions"),
    }
    for module, attrs in names.items():
        for attr in attrs:
            assert callable(getattr(module, attr, None)), (module.__name__, attr)
    necklace = positroid.validate_necklace([[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
    graph = triangulation.build_graph(triangulation.enumerate_labels(necklace))
    assert sum(map(len, graph.neighbors.values())) == 2 * len(graph.edges())
    poset = halfopen.face_poset_of_uppers(necklace)
    assert poset.top in poset.nodes
    assert halfopen.enumerate_labels is triangulation.enumerate_labels
