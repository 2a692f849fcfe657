"""Self-tests of the benchmark's own logic.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pkgutil
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_sources()

import layers  # noqa: E402
import passes  # noqa: E402
from spans import Span, SpanRecorder, self_times, span_totals  # noqa: E402


def test_self_time_is_duration_minus_child_spans():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("a.child", 1.5, 2.5, 1),   # inside a: not subtracted from root
        Span("b", 2.5, 4.0, 0),         # overlaps a: covered once
        Span("c", 9.0, 12.0, 0),        # runs past root: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([10 - (3.0 + 1.0), 1.0, 1.0, 1.5, 3.0])
    totals = span_totals(spans + [Span("a", 20.0, 21.0, None)])
    assert totals["a"].inclusive == pytest.approx(3.0)
    assert totals["a"].self == pytest.approx(2.0)
    assert totals["a"].calls == 2


def test_recorder_nests_spans_and_restores_originals():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    recorder.patch("outer", Layer, "outer")
    recorder.patch("inner", Layer, "inner")
    with recorder:
        assert Layer().outer() == 2
    assert Layer.__dict__["outer"] is original
    assert Layer().outer() == 2 and len(recorder.spans) == 2
    outer, inner = recorder.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", None, "inner", 0)
    totals = recorder.totals()
    assert totals["outer"].inclusive == 3.0 and totals["outer"].self == 2.0


def test_every_repro_module_maps_to_exactly_one_layer():
    import repro

    modules = ["repro"] + [
        name for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    unplaced = [m for m in modules if layers.layer_of_module(m) is None]
    assert not unplaced, f"add these modules to layers.MODULE_LAYERS: {unplaced}"
    assert set(layers.MODULE_LAYERS.values()) == set(layers.LAYERS)
    assert layers.layer_of_module("repro.net.qdisc.htb") == "net.qdisc"
    assert layers.layer_of_module("repro.sim.watchdog") == "sim.watchdog"
    assert layers.layer_of_module("reprox.sim") is None


def test_benchmark_json_matches_the_command():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_end_to_end_passes_the_exactness_checks(workload, tmp_path):
    tally = passes.Tally()
    samples = passes.end_to_end(workload, 1, 0.0, tmp_path, tally, tiny=True,
                                min_repeats=1, setup_n=1)
    assert tally.failed == 0, tally.problems
    # reference, run, observed, cold and the warm passes, per scenario
    n = len(passes.workloads.build(workload, 1, tiny=True))
    assert tally.attempted == (4 + passes.WARM_PASSES) * n
    assert set(samples) == set(run.END_TO_END)
    assert all(v > 0 for values in samples.values() for v in values)


def test_tiny_per_layer_reports_every_metric(tmp_path):
    tally = passes.Tally()
    metrics = passes.per_layer("study-grid", 1, 0.0, tmp_path, tally, tiny=True,
                               min_repeats=1, setup_n=1)
    assert tally.failed == 0, tally.problems
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["experiments.cache_hit_ratio"] == 1.0
    assert metrics["net.switch.fast_path_share"] == 1.0
    assert metrics["placement.profile_s"] > 0 and metrics["placement.assign_s"] > 0
    assert metrics["collectives.self_share"] > 0
    # the observation channels' shares come from another profile
    shares = [metrics[f"{layer}.self_share"] for layer in layers.LAYERS
              if layer not in layers.OBSERVATION]
    assert 0.5 < sum(shares) <= 1.0 + 1e-9


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2-fifo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench_work").exists()
