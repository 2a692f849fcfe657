"""Which layer each ``repro`` module belongs to, and a cProfile pass per layer.

The layers are the simulator's packages, split where a package holds more
than one layer (``net``) or an observation channel (``sim.watchdog``,
``sim.trace`` and the layer ``invariants`` modules feed the watchdog and
telemetry, not the simulation).  :func:`layer_of_module` resolves a module
by its longest listed prefix; there is deliberately no catch-all for the
package root, so a new top-level module must be placed here explicitly
(the self-tests walk the package and fail on an unplaced module).

:func:`profile_layers` aggregates one :mod:`cProfile` pass by layer.  The
self time of a function outside ``repro`` (a builtin such as
``heapq.heappush``, or the standard library) goes to the layers of the
callers it was spent for, in proportion to the self time cProfile records
per caller.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

#: the layers of the breakdown, in reporting order
LAYERS = (
    "sim",
    "net.transport",
    "net.nic",
    "net.switch",
    "net.qdisc",
    "cluster",
    "dl",
    "collectives",
    "tensorlights",
    "placement",
    "experiments",
    "telemetry",
    "sim.watchdog",
)

#: the observation channels, measured on a pass with them switched on
OBSERVATION = ("telemetry", "sim.watchdog")

#: module prefix -> layer; the longest matching prefix wins
MODULE_LAYERS: Dict[str, str] = {
    # the package root and the front-end modules beside it: harness code
    "repro": "experiments",
    "repro.api": "experiments",
    "repro.cli": "experiments",
    "repro.errors": "experiments",
    "repro.units": "experiments",
    "repro.analysis": "experiments",
    "repro.experiments": "experiments",
    # fault plans are scenario inputs that materialize arms
    "repro.faults": "experiments",
    "repro.sim": "sim",
    "repro.sim.trace": "telemetry",
    "repro.sim.watchdog": "sim.watchdog",
    # link, topology, two-tier fabric and the switch: the fabric
    "repro.net": "net.switch",
    "repro.net.addressing": "net.transport",
    "repro.net.packet": "net.transport",
    "repro.net.transport": "net.transport",
    "repro.net.nic": "net.nic",
    "repro.net.qdisc": "net.qdisc",
    "repro.net.invariants": "sim.watchdog",
    "repro.cluster": "cluster",
    "repro.dl": "dl",
    "repro.dl.invariants": "sim.watchdog",
    "repro.collectives": "collectives",
    "repro.tensorlights": "tensorlights",
    "repro.tensorlights.invariants": "sim.watchdog",
    "repro.placement": "placement",
    "repro.telemetry": "telemetry",
}

#: where self time that no ``repro`` frame asked for goes
OTHER = "other"


def layer_of_module(module: str) -> Optional[str]:
    """The layer of a ``repro`` module, or ``None`` if it is not placed."""
    if module == "repro":
        return MODULE_LAYERS["repro"]
    parts = module.split(".")
    for end in range(len(parts), 1, -1):
        layer = MODULE_LAYERS.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return None


def module_of_file(filename: str, src: Path) -> Optional[str]:
    """``src/repro/net/nic.py`` -> ``repro.net.nic`` (``None`` outside ``src``)."""
    try:
        rel = Path(filename).resolve().relative_to(src)
    except (ValueError, OSError):
        return None
    if rel.suffix != ".py":
        return None
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


FuncKey = Tuple[str, int, str]


@dataclass
class LayerProfile:
    """One cProfile pass folded onto the layers."""

    #: self seconds per layer (plus :data:`OTHER`)
    seconds: Dict[str, float] = field(default_factory=dict)
    #: calls of ``repro`` functions per layer
    calls: Dict[str, int] = field(default_factory=dict)
    #: calls per function, for the counters read by name
    ncalls: Dict[FuncKey, int] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def share(self, layer: str) -> float:
        """The layer's share of all self time in the pass."""
        total = self.total_seconds
        return self.seconds.get(layer, 0.0) / total if total > 0 else 0.0

    def calls_of(self, fn) -> int:
        """How often the Python function ``fn`` was called in the pass."""
        code = fn.__code__
        return self.ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)

    def builtin_calls(self, label: str) -> int:
        """Calls of the builtin that cProfile labels ``label``."""
        return self.ncalls.get(("~", 0, label), 0)


def profile_layers(profiler: cProfile.Profile, src: Path) -> LayerProfile:
    """Fold a finished profiler's statistics onto :data:`LAYERS`."""
    stats = pstats.Stats(profiler).stats  # func -> (cc, nc, tt, ct, callers)
    layer_of: Dict[FuncKey, Optional[str]] = {}
    for func in stats:
        module = module_of_file(func[0], src) if func[0] != "~" else None
        layer_of[func] = (layer_of_module(module) or OTHER) if module else None

    split_memo: Dict[FuncKey, Dict[str, float]] = {}

    def split(func: FuncKey, visiting: set) -> Dict[str, float]:
        """Fractions of ``func``'s self time per layer (sums to 1)."""
        layer = layer_of.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in split_memo:
            return split_memo[func]
        callers = stats[func][4] if func in stats else {}
        if not callers or func in visiting:
            return {OTHER: 1.0}
        visiting.add(func)
        weights = {c: v[2] for c, v in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: float(v[1]) for c, v in callers.items()}
        total = sum(weights.values()) or 1.0
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            for caller_layer, frac in split(caller, visiting).items():
                out[caller_layer] = out.get(caller_layer, 0.0) + frac * weight / total
        visiting.discard(func)
        split_memo[func] = out
        return out

    result = LayerProfile()
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        result.ncalls[func] = nc
        layer = layer_of[func]
        if layer is not None and layer != OTHER:
            result.calls[layer] = result.calls.get(layer, 0) + nc
        for target, frac in split(func, set()).items():
            result.seconds[target] = result.seconds.get(target, 0.0) + tt * frac
    return result
