"""Tests of the benchmark harness; they run its self-check mode.

    python -m pytest bench
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(scope="module")
def report():
    done = subprocess.run([sys.executable, str(BENCH / "run.py"),
                           "--self-check"], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode in (0, 1), done.stderr
    return json.loads(done.stdout)


def test_self_check_passes(report):
    assert report["ok"], report


def test_reference_check_passes_at_small_grid(report):
    for workload, entry in report["workloads"].items():
        assert entry["problems"] == [], workload
        assert all(p["exit"] == 0 for p in entry["processes"])


def test_per_process_accounting(report):
    acct = report["accounting"]
    assert acct["hog_rss_mb"] >= 160
    assert acct["small_rss_mb"] < acct["hog_rss_mb"] / 4
    # what RUSAGE_CHILDREN would have reported for the small process
    assert acct["rusage_children_mb"] >= acct["hog_rss_mb"]
    for entry in report["workloads"].values():
        for p in entry["processes"]:
            assert p["rss_mb"] > 0 and p["cpu_s"] > 0
            assert 0 < p["setup_s"] < p["wall_s"]


def test_corrupted_output_counts_as_failure(report):
    assert report["corruption"] == {"file_changed": True,
                                    "wrong_value": True,
                                    "last_digit": False}


def test_root_span_equals_sum_of_self_times(report):
    for entry in report["workloads"].values():
        assert entry["root_equals_self_sum"]


def test_layer_split(report):
    layers = {w: e["layers"] for w, e in report["workloads"].items()}
    for figures in layers.values():
        assert all(v is not None for v in figures.values())
    assert layers["short_cmds"]["detection.probes"] == 0
    assert layers["hom"]["detection.scans"] == 1
    assert layers["hom"]["detection.probes"] == 9
    # index reaches elements and detection through their own imports
    assert layers["hom"]["dispersion.index_calls"] > 0


def test_self_times_add_up():
    # spans: root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1),
             (1, 5.0, 9.0, 0)]
    own = tracer.self_times(spans)
    assert own == [3.0, 2.0, 1.0, 4.0]
    assert sum(own) == 10.0
    names = ["root", "a", "b"]
    assert tracer.outermost(spans, names, {"a", "b"}) == 7.0


def test_missing_names_are_absent_not_zero(monkeypatch):
    def index(model, pol, wavelength, temperature=None):
        return wavelength

    dispersion = types.ModuleType("qpic.dispersion")
    index.__module__ = dispersion.__name__
    dispersion.index = index
    detection = types.ModuleType("qpic.detection")
    detection.index = index  # as ``from .dispersion import index``
    for layer in tracer.LAYERS:
        monkeypatch.delitem(sys.modules, f"qpic.{layer}", raising=False)
    monkeypatch.setitem(sys.modules, "qpic.dispersion", dispersion)
    monkeypatch.setitem(sys.modules, "qpic.detection", detection)

    t = tracer.Tracer()
    t.install()
    assert detection.index is dispersion.index is not index
    main = t.span(tracer.ROOT_SPAN, lambda: detection.index(
        None, "H", [1.5, 1.6]) + dispersion.index(None, "V", [1.5]))
    main()
    t.uninstall()
    assert detection.index is index

    figures = tracer.process_metrics(
        json.loads(json.dumps({"names": t.names, "spans": t.spans,
                               "counts": t.counts, "absent": t.absent})))
    metrics = figures["metrics"]
    assert metrics["dispersion.index_calls"] == 2
    assert metrics["dispersion.index_points"] == 3
    assert metrics["elements.evaluations"] is None
    assert metrics["elements.self_s"] is None
    assert metrics["detection.scans"] is None
    assert metrics["circuit.compositions"] is None


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == list(run.workloads.WORKLOADS)
