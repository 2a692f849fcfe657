"""The passes of one benchmark invocation, and the checks on their outputs.

Two modes, both over the scenarios of one workload (``workloads.py``):

* :func:`end_to_end` — timed passes with every observation channel off,
  using only the public API.  Each repeat runs a *run pass* (``materialize``
  then ``Runtime.run`` per scenario; ``run_s`` sums the ``Runtime.run``
  walls) and an *observed pass* (the same with ``metrics=True,
  watchdog="warn"``) in alternating order, then a cold campaign (fresh
  ``ResultCache``, journal on, fingerprint store reset) and warm campaigns
  that only read the same cache.  ``setup_s`` is the wall of a fresh interpreter that
  imports ``repro.api`` and sets the workload up; it is sampled several
  times per invocation.
* :func:`per_layer` — a separate traced invocation: span wrappers around
  the layers' public entry points during one cold and one warm campaign,
  and a cProfile pass over a cold campaign (fingerprint store warm, so the
  profile covers exactly the workload's simulations) folded onto layers,
  once with observation off and once on.  Exact work counters come from
  the simulator's own counters after an untraced run pass and from the
  profile's call counts.

Every operation — a scenario execution or a warm cache read — is checked:
it must not raise, every job must finish with a finite JCT, the watchdog
(where on) must report nothing, and the result's content hash must equal
the packet-granularity reference (``materialize(..., fast_path=False)``,
run once per invocation, untimed).  A warm read must hash equal to the
cold result it was cached from.  Failures are counted in :class:`Tally`.
"""

from __future__ import annotations

import cProfile
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import (
    Campaign,
    CampaignJournal,
    ExperimentResult,
    FingerprintStore,
    ResultCache,
    Runtime,
    Scenario,
    get_placement_policy,
    materialize,
)
from repro.experiments import export as export_module
from repro.experiments import runtime as runtime_module
from repro.experiments.export import result_content_hash
from repro.net.qdisc.htb import HTBQdisc
from repro.net.qdisc.tbf import TokenBucket
from repro.net.switch import VirtualOutputPort
from repro.placement import fingerprint as fingerprint_module
from repro.placement.policies import all_placement_policies

import layers
import workloads
from spans import SpanRecorder, SpanTotal

BENCH_DIR = Path(__file__).resolve().parent

#: timed repeats per invocation, at least (more while time remains)
MIN_REPEATS = 3
#: warm campaigns per repeat: a warm pass is short, so it takes several
#: samples for its median to settle as well as the longer passes' do
WARM_PASSES = 3
#: fresh-interpreter set-up samples per invocation (after one warm-up
#: that also compiles bytecode in a fresh checkout)
SETUP_SAMPLES = 5
TRACE_SETUP_SAMPLES = 3
#: per-child limit; a set-up that hangs is a failure, not a wait
SETUP_TIMEOUT_S = 120

#: runs in a fresh interpreter: argv = src dir, benchmark dir, workload,
#: seed, tiny flag; prints the import and set-up seconds it measured
SETUP_CHILD = """\
import json, sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import repro.api
t1 = time.perf_counter()
import workloads
workloads.set_up(sys.argv[3], int(sys.argv[4]), tiny=sys.argv[5] == "1")
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "set_up_s": t2 - t1}))
"""


@dataclass
class Tally:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, problem: Optional[str], what: str) -> None:
        """Count one operation; ``problem`` is ``None`` when it succeeded."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")


def result_problem(result: ExperimentResult, expected_hash: Optional[str]) -> Optional[str]:
    """Why ``result`` is wrong, or ``None``."""
    jcts = list(result.jcts.values())
    if not jcts or not all(math.isfinite(j) and j > 0 for j in jcts):
        return f"bad JCTs {jcts}"
    if result.watchdog_violations:
        return f"{len(result.watchdog_violations)} watchdog violations"
    if expected_hash is None:
        return "no reference hash to compare with"
    if result_content_hash(result) != expected_hash:
        return "content hash differs from the reference"
    return None


def reference_hashes(scenarios: Sequence[Scenario], tally: Tally) -> List[Optional[str]]:
    """Content hashes of every scenario run at packet granularity."""
    hashes: List[Optional[str]] = []
    for scenario in scenarios:
        try:
            result = materialize(scenario, fast_path=False).run()
        except Exception as exc:  # counted; the reference stays missing
            tally.record(f"{type(exc).__name__}: {exc}", f"reference [{scenario.label}]")
            hashes.append(None)
            continue
        expected = result_content_hash(result)
        tally.record(result_problem(result, expected), f"reference [{scenario.label}]")
        hashes.append(expected)
    return hashes


def sim_counters(runtime: Runtime, result: ExperimentResult) -> Dict[str, int]:
    """The simulator's own exact counters after one run."""
    hosts = [runtime.cluster.host(h) for h in runtime.cluster.host_ids]
    switch = runtime.cluster.network.switch
    return {
        "events": runtime.sim.steps_executed,
        "events_elided": runtime.sim.events_elided,
        "segments_tx": sum(h.nic.segments_tx for h in hosts),
        "retransmits": sum(h.transport.segments_retransmitted for h in hosts),
        "messages": sum(h.transport.messages_sent for h in hosts),
        "drops": switch.total_drops,
        "forwarded": switch.segments_forwarded,
        "reconfigurations": result.tc_reconfigurations,
    }


def run_pass(
    scenarios: Sequence[Scenario],
    reference: Sequence[Optional[str]],
    tally: Tally,
    observed: bool = False,
    counters: Optional[Dict[str, int]] = None,
) -> Tuple[float, List[ExperimentResult]]:
    """Materialize and run every scenario; returns summed ``Runtime.run`` wall."""
    gc.collect()
    what = "observed run" if observed else "run"
    wall = 0.0
    results = []
    for scenario, expected in zip(scenarios, reference):
        try:
            runtime = materialize(
                scenario, metrics=observed, watchdog="warn" if observed else None,
            )
            start = time.perf_counter()
            result = runtime.run()
            wall += time.perf_counter() - start
        except Exception as exc:  # counted; the pass goes on
            tally.record(f"{type(exc).__name__}: {exc}", f"{what} [{scenario.label}]")
            continue
        tally.record(result_problem(result, expected), f"{what} [{scenario.label}]")
        results.append(result)
        if counters is not None:
            for key, value in sim_counters(runtime, result).items():
                counters[key] = counters.get(key, 0) + value
    return wall, results


def new_campaign(workdir: Path, observed: bool = False, warm: bool = False) -> Campaign:
    """A serial campaign caching under ``workdir``.

    A cold campaign writes a journal; a ``warm`` one only reads the cache.
    """
    return Campaign(
        cache=ResultCache(workdir / "cache"),
        journal=not warm,
        journal_dir=workdir / "journals",
        on_failure="report",
        observe_metrics=observed,
        watchdog="warn" if observed else None,
    )


def timed_campaign(campaign: Campaign, scenarios: Sequence[Scenario],
                   profiler: Optional[cProfile.Profile] = None):
    """Run the campaign once; returns ``(wall seconds, CampaignResult)``."""
    gc.collect()
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        out = campaign.run(scenarios)
    finally:
        if profiler is not None:
            profiler.disable()
    return time.perf_counter() - start, out


def check_campaign(out, expected: Sequence[Optional[str]], tally: Tally,
                   what: str, warm: bool = False) -> None:
    """Check every slot of a campaign result against its expected hash.

    A warm pass must serve every slot from the cache: if it simulated
    anything, every one of its reads counts as failed.
    """
    failures = {f.index: f for f in out.failures}
    for index, (scenario, result) in enumerate(out.pairs()):
        label = f"{what} [{scenario.label}]"
        if index in failures:
            tally.record(failures[index].describe(), label)
        elif warm and out.executed:
            tally.record(f"warm pass simulated {out.executed} scenarios", label)
        else:
            tally.record(result_problem(result, expected[index]), label)


def cold_hashes(out) -> List[Optional[str]]:
    """Content hashes of a cold campaign's results: what a warm read must return."""
    return [None if r is None else result_content_hash(r) for r in out.results]


def journal_records(workdir: Path, run_id: Optional[str]) -> int:
    """Records the campaign ``run_id`` wrote to its journal."""
    if run_id is None:
        return 0
    path = workdir / "journals" / f"{run_id}.jsonl"
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def setup_samples(name: str, seed: int, n: int, tiny: bool) -> List[Dict[str, float]]:
    """``n`` fresh-interpreter set-ups (after one untimed warm-up).

    Each sample holds ``wall`` (spawn to exit, measured here) and the
    child's own ``import_s`` and ``set_up_s``.
    """
    src = Path(sys.modules["repro"].__file__).resolve().parent.parent
    cmd = [sys.executable, "-c", SETUP_CHILD, str(src), str(BENCH_DIR),
           name, str(seed), "1" if tiny else "0"]
    samples = []
    for i in range(n + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=False)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        if i == 0:
            continue
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["wall"] = wall
        samples.append(sample)
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name: str, seed: int, seconds: float, workdir: Path, tally: Tally,
               tiny: bool = False, min_repeats: int = MIN_REPEATS,
               setup_n: int = SETUP_SAMPLES) -> Dict[str, List[float]]:
    """Timed passes; returns every end-to-end metric's samples."""
    samples: Dict[str, List[float]] = defaultdict(list)
    samples["setup_s"] = [s["wall"] for s in setup_samples(name, seed, setup_n, tiny)]
    scenarios = workloads.build(name, seed, tiny)
    reference = reference_hashes(scenarios, tally)
    start = time.perf_counter()
    repeat = 0
    while repeat < min_repeats or time.perf_counter() - start < seconds:
        for observed in ((False, True) if repeat % 2 == 0 else (True, False)):
            wall, results = run_pass(scenarios, reference, tally, observed)
            samples["observed_run_s" if observed else "run_s"].append(wall)
        if not samples["sim_avg_jct_s"] and results:
            samples["sim_avg_jct_s"].append(
                statistics.fmean(r.avg_jct for r in results))
        FingerprintStore.reset_default()
        campaign_dir = workdir / f"campaign-{repeat}"
        wall, cold = timed_campaign(new_campaign(campaign_dir), scenarios)
        samples["campaign_cold_s"].append(wall)
        check_campaign(cold, reference, tally, "cold campaign")
        cached = cold_hashes(cold)
        for _ in range(WARM_PASSES):
            wall, warm = timed_campaign(new_campaign(campaign_dir, warm=True), scenarios)
            samples["campaign_warm_s"].append(wall)
            check_campaign(warm, cached, tally, "warm campaign", warm=True)
        repeat += 1
    samples["peak_rss_mb"].append(peak_rss_mb())
    return samples


def span_recorder() -> SpanRecorder:
    """Spans around the public entry points of the experiments and placement layers."""
    recorder = SpanRecorder()
    recorder.patch("campaign", Campaign, "run")
    recorder.patch("materialize", runtime_module, "materialize")
    recorder.patch("run", Runtime, "run")
    recorder.patch("hash", export_module, "result_content_hash")
    recorder.patch("export", export_module, "result_to_full_dict")
    recorder.patch("cache_put", ResultCache, "put")
    recorder.patch("cache_get", ResultCache, "get")
    recorder.patch("journal_append", CampaignJournal, "append")
    recorder.patch("profile", fingerprint_module, "profile_job_shape")
    owners = {
        next(c for c in type(get_placement_policy(n)).__mro__ if "assign" in vars(c))
        for n in all_placement_policies()
    }
    for owner in sorted(owners, key=lambda c: c.__name__):
        recorder.patch("assign", owner, "assign")
    return recorder


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(name: str, seed: int, seconds: float, workdir: Path, tally: Tally,
              tiny: bool = False, min_repeats: int = 2,
              setup_n: int = TRACE_SETUP_SAMPLES) -> Dict[str, float]:
    """Traced passes; returns every per-layer metric."""
    start = time.perf_counter()
    children = setup_samples(name, seed, setup_n, tiny)
    scenarios = workloads.build(name, seed, tiny)
    reference = reference_hashes(scenarios, tally)
    src = Path(sys.modules["repro"].__file__).resolve().parent.parent

    counters: Dict[str, int] = {}
    run_walls = [run_pass(scenarios, reference, tally, counters=counters)[0]]

    # spans: one cold and one warm campaign, store reset so profiling shows
    FingerprintStore.reset_default()
    span_dir = workdir / "spans"
    cold_spans, warm_spans = span_recorder(), span_recorder()
    with cold_spans:
        _, cold = timed_campaign(new_campaign(span_dir), scenarios)
    check_campaign(cold, reference, tally, "cold campaign")
    with warm_spans:
        _, warm = timed_campaign(new_campaign(span_dir, warm=True), scenarios)
    check_campaign(warm, cold_hashes(cold), tally, "warm campaign", warm=True)
    cold_t, warm_t = cold_spans.totals(), warm_spans.totals()

    def spent(totals, key, inclusive=False):
        total = totals.get(key, SpanTotal())
        return total.inclusive if inclusive else total.self

    # cProfile: cold campaigns with the fingerprint store already warm
    profiles = {}
    profiled_wall = 0.0
    for observed in (False, True):
        profiler = cProfile.Profile()
        wall, out = timed_campaign(
            new_campaign(workdir / f"profile-{int(observed)}", observed),
            scenarios, profiler)
        check_campaign(out, reference, tally,
                       "profiled observed campaign" if observed else "profiled campaign")
        profiles[observed] = layers.profile_layers(profiler, src)
        if not observed:
            profiled_wall = wall

    cold_walls = []
    repeat = 0
    while repeat < min_repeats or time.perf_counter() - start < seconds:
        run_walls.append(run_pass(scenarios, reference, tally)[0])
        wall, out = timed_campaign(new_campaign(workdir / f"untraced-{repeat}"), scenarios)
        check_campaign(out, reference, tally, "cold campaign")
        cold_walls.append(wall)
        repeat += 1

    plain = profiles[False]
    seg = counters["segments_tx"]
    heap_pushes = plain.builtin_calls("<built-in method _heapq.heappush>")
    refills = plain.calls_of(TokenBucket.refill)
    htb_dequeues = plain.calls_of(HTBQdisc.dequeue)
    metrics = {
        f"{layer}.self_share": profiles[layer in layers.OBSERVATION].share(layer)
        for layer in layers.LAYERS
    }
    metrics.update({
        "sim.events": counters["events"],
        "sim.events_elided": counters["events_elided"],
        "sim.heap_pushes": heap_pushes,
        "sim.heap_pushes_per_event": _ratio(heap_pushes, counters["events"]),
        "sim.events_per_s": _ratio(counters["events"], statistics.median(run_walls)),
        "net.transport.calls_per_segment": _ratio(plain.calls.get("net.transport", 0), seg),
        "net.transport.retransmits": counters["retransmits"],
        "net.transport.retransmit_ratio": _ratio(counters["retransmits"], seg),
        "net.nic.calls_per_segment": _ratio(plain.calls.get("net.nic", 0), seg),
        "net.nic.segments_tx": seg,
        "net.switch.drops": counters["drops"],
        "net.switch.fast_path_share": _ratio(
            plain.calls_of(VirtualOutputPort.admit), counters["forwarded"]),
        "net.qdisc.calls_per_segment": _ratio(plain.calls.get("net.qdisc", 0), seg),
        "net.qdisc.tb_refills": refills,
        "net.qdisc.tb_refills_per_dequeue": _ratio(refills, htb_dequeues),
        "net.qdisc.htb_dequeues": htb_dequeues,
        "dl.messages": counters["messages"],
        "tensorlights.reconfigurations": counters["reconfigurations"],
        "placement.profile_s": spent(cold_t, "profile", inclusive=True),
        "placement.assign_s": spent(cold_t, "assign", inclusive=True),
        "experiments.import_s": statistics.median(c["import_s"] for c in children),
        "experiments.materialize_s": spent(cold_t, "materialize"),
        "experiments.hash_s": spent(cold_t, "hash"),
        "experiments.export_s": spent(cold_t, "export", inclusive=True),
        "experiments.cache_put_s": spent(cold_t, "cache_put"),
        "experiments.journal_append_s": spent(cold_t, "journal_append", inclusive=True),
        "experiments.journal_records": journal_records(span_dir, cold.run_id),
        "experiments.cache_get_s": spent(warm_t, "cache_get", inclusive=True),
        "experiments.cache_hits": warm.cache_hits,
        "experiments.cache_hit_ratio": _ratio(warm.cache_hits, len(scenarios)),
        "trace.overhead_ratio": _ratio(profiled_wall, statistics.median(cold_walls)),
    })
    return metrics
