"""Measure the benchmark's baseline and write ``perfbench/baseline.json``.

Run from the root of a checkout::

    python3 perfbench/baseline.py --seeds 1-10

Every workload runs once per seed with ``--trace 0``; each end-to-end
metric is summarized by the median, quartiles and spread (interquartile
range over median) of its per-seed values.  Each workload then runs twice
with ``--trace 1`` at the first seed, and the ``count`` metrics of the two
runs must match exactly: they are the machine-independent work counters a
later change can be compared on.  The command exits 1 if any run was not
correct or a counter did not repeat.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import run

NOTE = (
    "The BENCH_simulator.json, BENCH_metrics.json and BENCH_watchdog.json "
    "anchors at the repository root do not compare with these numbers: they "
    "report best-of-N wall times without interleaving, on other scenario "
    "sizes. Host times here swing by up to a third between minutes on a "
    "shared 2-core machine; the exact counters are the machine-independent "
    "comparison."
)


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def invoke(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["returncode"] = proc.returncode
    print(f"{workload} seed {seed} trace {trace}: correct={out['correct']} "
          f"failed={out['failed']}/{out['attempted']}", flush=True)
    return out


def summarize(values):
    q1, med, q3 = run.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--output", default=str(Path(__file__).with_name("baseline.json")))
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)

    ok = True
    report = {
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.processor() or ''}".strip(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "note": NOTE,
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        runs = [invoke(spec, workload, seed, 0) for seed in seeds]
        traced = [invoke(spec, workload, seeds[0], 1) for _ in range(2)]
        counts = {
            name: traced[0]["metrics"][name]["value"]
            for name, unit in run.PER_LAYER.items() if unit == "count"
        }
        repeat = all(traced[1]["metrics"][n]["value"] == v for n, v in counts.items())
        ok &= repeat and all(r["correct"] for r in runs + traced)
        report["workloads"][workload] = {
            "incorrect_seeds": [s for s, r in zip(seeds, runs) if not r["correct"]],
            "failed_operations": {str(s): [r["failed"], r["attempted"]]
                                  for s, r in zip(seeds, runs)},
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r in runs])
                for name in run.END_TO_END
            },
            "per_layer_seed": seeds[0],
            "per_layer": {n: m["value"] for n, m in traced[0]["metrics"].items()},
            "exact_counters": counts,
            "exact_counters_repeat": repeat,
        }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
