"""The simulator's benchmark: one workload, one seed, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig2-fifo --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (host time unless noted; each
timing is the median over the invocation's repeats, printed with its
quartiles); ``--trace 1`` makes a separate traced invocation and reports
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Every
operation (a scenario execution or a warm cache read) is checked for
exactness (see ``passes.py``); the command exits 1 if any check failed and
2, without a result, if the checkout holds no ``src/repro`` to measure.

End-to-end metrics, per workload (``workloads.py``):

* ``setup_s`` — a fresh interpreter importing ``repro.api`` and setting
  the workload up (materialize for fig2, scenario build for the grid);
* ``run_s`` — ``Runtime.run()`` wall, summed over the workload's scenarios;
* ``observed_run_s`` — the same with ``metrics=True, watchdog="warn"``;
* ``campaign_cold_s`` / ``campaign_warm_s`` — a serial, journaled
  ``Campaign`` over an empty ``ResultCache``, then one that only reads the
  filled cache;
* ``peak_rss_mb`` — this process's peak resident set;
* ``sim_avg_jct_s`` — simulated seconds: mean JCT over the scenarios.
  Deterministic per seed, so a speed-only change leaves it bit-identical.

The failed share of operations is ``failed / attempted`` in the result
line (it is 0 on a correct run, so it is not a metric with a bound).
Per-layer metrics are listed in :data:`PER_LAYER`; shares are of cProfile
self time, counts are exact and repeat on any machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout, removed when the invocation ends
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("fig2-fifo", "fig2-tls-one", "study-grid")

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "run_s": "s",
    "observed_run_s": "s",
    "campaign_cold_s": "s",
    "campaign_warm_s": "s",
    "peak_rss_mb": "MB",
    "sim_avg_jct_s": "s",
}

PER_LAYER: Dict[str, str] = {
    "sim.self_share": "ratio",
    "sim.events": "count",
    "sim.events_elided": "count",
    "sim.heap_pushes": "count",
    "sim.heap_pushes_per_event": "pushes/event",
    "sim.events_per_s": "1/s",
    "net.transport.self_share": "ratio",
    "net.transport.calls_per_segment": "calls/segment",
    "net.transport.retransmits": "count",
    "net.transport.retransmit_ratio": "ratio",
    "net.nic.self_share": "ratio",
    "net.nic.calls_per_segment": "calls/segment",
    "net.nic.segments_tx": "count",
    "net.switch.self_share": "ratio",
    "net.switch.drops": "count",
    "net.switch.fast_path_share": "ratio",
    "net.qdisc.self_share": "ratio",
    "net.qdisc.calls_per_segment": "calls/segment",
    "net.qdisc.tb_refills": "count",
    "net.qdisc.tb_refills_per_dequeue": "ratio",
    "net.qdisc.htb_dequeues": "count",
    "cluster.self_share": "ratio",
    "dl.self_share": "ratio",
    "dl.messages": "count",
    "collectives.self_share": "ratio",
    "tensorlights.self_share": "ratio",
    "tensorlights.reconfigurations": "count",
    "placement.self_share": "ratio",
    "placement.profile_s": "s",
    "placement.assign_s": "s",
    "experiments.self_share": "ratio",
    "experiments.import_s": "s",
    "experiments.materialize_s": "s",
    "experiments.hash_s": "s",
    "experiments.export_s": "s",
    "experiments.cache_put_s": "s",
    "experiments.journal_append_s": "s",
    "experiments.journal_records": "count",
    "experiments.cache_get_s": "s",
    "experiments.cache_hits": "count",
    "experiments.cache_hit_ratio": "ratio",
    "telemetry.self_share": "ratio",
    "sim.watchdog.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: environment switches that would change what the program does; the
#: benchmark measures the defaults, so they are cleared for it and its
#: set-up children
PROGRAM_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_CHAOS_KILL",
    "REPRO_FAST_PATH",
    "REPRO_FINGERPRINT_DIR",
    "REPRO_WATCHDOG",
)


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no {SRC / 'repro'} to measure", file=sys.stderr)
        sys.exit(2)
    for path in (str(Path(__file__).resolve().parent), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def quartiles(values: List[float]):
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the repeats measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    import passes

    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True)
    tally = passes.Tally()
    try:
        if args.trace:
            values = passes.per_layer(args.workload, args.seed, args.seconds,
                                      workdir, tally)
            units = PER_LAYER
            for name in units:
                print(f"{name:34s} {values[name]:>16.6g} {units[name]}")
        else:
            samples = passes.end_to_end(args.workload, args.seed, args.seconds,
                                        workdir, tally)
            units = END_TO_END
            values = {}
            for name in units:
                q1, med, q3 = quartiles(samples[name])
                values[name] = med
                print(f"{name:18s} {med:>12.6g} {units[name]:3s} "
                      f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])}]")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another invocation still works there

    print(f"failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
