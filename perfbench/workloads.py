"""The benchmark's workloads: the scenarios each one runs, built from a seed.

Every workload is a list of :class:`~repro.experiments.scenario.Scenario`
objects run serially in one process.  The seed given to the benchmark is
the only input: the same seed gives the same scenarios.

* ``fig2-fifo`` — the paper's contention case, Table I placement 1 (all 21
  PS tasks on one host, 20 workers each, 10 Gbps, fast path on) under
  FIFO.  The event loop is bound by transport, NIC, switch and the kernel;
  qdisc work is small, so a qdisc change should not move it.
* ``fig2-tls-one`` — the same scenario under TLs-One: HTB and token
  buckets carry a large share of the loop, and the controller installs
  its bands.
* ``study-grid`` — many small scenarios (placements, policies, ring
  all-reduce, mixed, contention-aware placement policies), with seeds
  derived from the workload seed, run through a cached, journaled
  campaign.  Each event loop is short, so set-up, collectives, TLs-RR
  rotation, placement and the campaign's own work weigh more.

``tiny=True`` shrinks every workload to a few seconds for the self-tests.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from repro.api import Architecture, ExperimentConfig, Policy, Scenario, materialize

#: training iterations per job in the fig2 workloads
FIG2_ITERATIONS = 5
#: grid seeds per study-grid invocation
GRID_SEEDS = 4
#: sync iterations of one grid scenario
GRID_ITERATIONS = 2

PLACEMENT_POLICIES = ("least-contended", "phase-interleave", "greedy-pack")


def fig2(policy: Policy, seed: int, tiny: bool = False) -> List[Scenario]:
    """The Table I placement-1 scenario under ``policy``."""
    if tiny:
        config = ExperimentConfig.tiny(
            placement_index=1, policy=policy, seed=seed, iterations=3,
        )
    else:
        config = ExperimentConfig(
            iterations=FIG2_ITERATIONS, placement_index=1, policy=policy,
            seed=seed,
        )
    return [Scenario(config=config)]


def study_grid(seed: int, tiny: bool = False) -> List[Scenario]:
    """A grid of small scenarios, one block per derived seed.

    A block covers placements {1, 2, 4, 8} x {FIFO, TLs-One, TLs-RR, DRR},
    the contention-aware placement policies under FIFO and TLs-One, and
    ring all-reduce and mixed clusters under FIFO, TLs-One and TLs-RR.
    """
    rng = random.Random(seed)
    n_seeds = 1 if tiny else GRID_SEEDS
    scenarios: List[Scenario] = []
    for _ in range(n_seeds):
        base = ExperimentConfig.tiny(
            iterations=GRID_ITERATIONS, seed=rng.randrange(2**31),
        )
        configs = [
            base.replace(placement_index=index, policy=policy)
            for index in (1, 2, 4, 8)
            for policy in Policy
        ]
        configs += [
            base.replace(placement_policy=name, policy=policy)
            for name in PLACEMENT_POLICIES
            for policy in (Policy.FIFO, Policy.TLS_ONE)
        ]
        configs += [
            base.replace(architecture=arch, policy=policy)
            for arch in (Architecture.ALLREDUCE, Architecture.MIXED)
            for policy in (Policy.FIFO, Policy.TLS_ONE, Policy.TLS_RR)
        ]
        scenarios += [Scenario(config=c) for c in configs]
    return scenarios


WORKLOADS: Dict[str, Callable[..., List[Scenario]]] = {
    "fig2-fifo": lambda seed, tiny=False: fig2(Policy.FIFO, seed, tiny),
    "fig2-tls-one": lambda seed, tiny=False: fig2(Policy.TLS_ONE, seed, tiny),
    "study-grid": study_grid,
}


def build(name: str, seed: int, tiny: bool = False) -> List[Scenario]:
    """The scenarios of workload ``name`` for ``seed``."""
    return WORKLOADS[name](seed, tiny=tiny)


def set_up(name: str, seed: int, tiny: bool = False) -> List[Scenario]:
    """What a user pays before the first run: build the scenarios, and
    materialize a workload of one scenario (a grid's scenarios are
    materialized by its campaign)."""
    scenarios = build(name, seed, tiny)
    if len(scenarios) == 1:
        materialize(scenarios[0])
    return scenarios
