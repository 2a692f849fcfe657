"""``metrics`` — the simulation-wide metrics registry.

Counters, gauges and histograms with Prometheus-flavoured names and
labels, owned by the simulator (``sim.metrics``) exactly like the event
tracer (``sim.trace``).  The registry follows the same zero-cost
discipline: it is **disabled by default**, and every hot-path push site
guards on the flag::

    if sim.metrics.enabled:
        sim.metrics.counter("nic_tx_bytes", host=self.host_id).inc(seg.size)

so a disabled registry costs one attribute read per instrumented event.
``perfbench/run.py`` measures the enabled cost as ``observed_run_s``
against ``run_s``.

Instruments are identified by ``(name, labels)``; the first caller of a
name fixes its type, and requesting the same name as a different type
raises (a silent counter/gauge mixup would corrupt every export).
:meth:`MetricsRegistry.snapshot` flattens everything into a JSON-safe
dict that :mod:`repro.telemetry.exporter` serializes as JSONL/CSV keyed
by scenario content hash.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from itertools import accumulate
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.errors import ConfigError

#: Default histogram buckets: log-spaced durations in seconds, spanning
#: sub-microsecond NIC events up to multi-hundred-second training runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0,
)

#: Canonical label rendering: ``name{k=v,k2=v2}`` with keys sorted.
LabelItems = Tuple[Tuple[str, str], ...]


def _render_key(name: str, labels: LabelItems) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (events, bytes, drops)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease by {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (backlog depth, scraped cumulative totals)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """A distribution: count/sum/min/max plus cumulative bucket counts.

    Buckets are upper bounds; observations above the last bound land in
    the implicit ``+Inf`` bucket (tracked by ``count``).
    """

    __slots__ = ("name", "labels", "buckets", "_raw_counts",
                 "count", "sum", "min", "max")

    def __init__(self, name: str, labels: LabelItems,
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(buckets):
            raise ConfigError(f"histogram {name}: buckets must strictly increase")
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self._raw_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # One C-level bisect instead of a Python loop over every bucket:
        # observe() runs per message on the transport latency path.
        # Counts are stored per-bucket and cumulated on read (reads are
        # rare — percentile / export), keeping the published
        # ``bucket_counts`` shape identical.
        i = bisect_left(self.buckets, value)
        if i < len(self.buckets):
            self._raw_counts[i] += 1

    @property
    def bucket_counts(self) -> list:
        """Cumulative counts per bucket bound (Prometheus style)."""
        return list(accumulate(self._raw_counts))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in ``[0, 1]``) from buckets.

        Linear interpolation within the bucket containing the target
        rank, Prometheus ``histogram_quantile`` style, clamped to the
        observed ``[min, max]`` so log-spaced buckets cannot produce an
        estimate outside the data.  Ranks landing in the implicit
        ``+Inf`` bucket return ``max``; an empty histogram returns 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"percentile q must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        if target <= 0:
            return self.min
        prev_cum = 0
        lower = self.min
        for bound, cum in zip(self.buckets, self.bucket_counts):
            if cum >= target:
                frac = (target - prev_cum) / (cum - prev_cum)
                est = lower + frac * (bound - lower)
                return min(max(est, self.min), self.max)
            prev_cum = cum
            lower = bound
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        out["buckets"] = {
            f"{bound:g}": n for bound, n in zip(self.buckets, self.bucket_counts)
        }
        out["buckets"]["+Inf"] = self.count
        return out


class MetricsRegistry:
    """Get-or-create instrument store with a global enable flag.

    Mirrors :class:`~repro.sim.trace.Tracer`: created disabled alongside
    the simulator, clock-bound lazily, enabled per run by the caller
    (``materialize(scenario, metrics=True)``) — never by the scenario
    itself, so enabling metrics cannot change scenario identity or any
    simulated result.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._now: Callable[[], float] = lambda: 0.0
        #: Bumped by :meth:`clear`.  Hot instrument sites cache their
        #: Counter/Histogram handles keyed by this generation instead of
        #: re-resolving ``(name, labels)`` per event — resolving rebuilds
        #: the sorted label tuple every call, which dominated the
        #: metrics-enabled overhead.  A stale generation means the cached
        #: handle was dropped by clear() and must be re-resolved.
        self.generation = 0
        #: name -> instrument class (type registry; first caller wins)
        self._types: Dict[str, type] = {}
        self._instruments: Dict[Tuple[str, LabelItems], Any] = {}

    def bind_clock(self, now_fn: Callable[[], float]) -> None:
        """Attach the simulator clock (done lazily to avoid a cycle)."""
        self._now = now_fn

    # -- instrument access (get-or-create) --------------------------------

    def _get(self, cls: type, name: str, labels: Dict[str, Any],
             **extra: Any) -> Any:
        items: LabelItems = tuple(
            sorted((k, str(v)) for k, v in labels.items())
        )
        key = (name, items)
        registered = self._types.get(name)
        if registered is None:
            self._types[name] = cls
        elif registered is not cls:
            raise ConfigError(
                f"metric {name!r} already registered as "
                f"{registered.__name__}, requested as {cls.__name__}"
            )
        inst = self._instruments.get(key)
        if inst is not None:
            return inst
        inst = cls(name, items, **extra)
        self._instruments[key] = inst
        return inst

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Optional[Tuple[float, ...]] = None,
                  **labels: Any) -> Histogram:
        if buckets is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, buckets=buckets)

    @contextmanager
    def span(self, name: str, **labels: Any) -> Iterator[None]:
        """Time a block against the bound (simulation) clock.

        The elapsed simulated duration is observed into histogram
        ``name``.  A no-op when the registry is disabled, so spans can
        wrap hot paths unguarded::

            with sim.metrics.span("tc_reconcile_seconds"):
                controller.reconcile()
        """
        if not self.enabled:
            yield
            return
        start = self._now()
        try:
            yield
        finally:
            self.histogram(name, **labels).observe(self._now() - start)

    # -- export -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Flatten every instrument into a JSON-safe dict.

        Schema (``repro.telemetry.exporter`` feeds on this)::

            {"counters":   {"name{k=v}": value, ...},
             "gauges":     {...},
             "histograms": {"name{k=v}": {"count": ..., "sum": ...,
                                          "mean": ..., "min": ..., "max": ...,
                                          "buckets": {"0.001": n, ..., "+Inf": n}}}}
        """
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for (name, labels), inst in sorted(self._instruments.items()):
            key = _render_key(name, labels)
            if isinstance(inst, Counter):
                counters[key] = inst.value
            elif isinstance(inst, Gauge):
                gauges[key] = inst.value
            else:
                histograms[key] = inst.to_dict()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def clear(self) -> None:
        """Drop every instrument (type registrations included)."""
        self._types.clear()
        self._instruments.clear()
        self.generation += 1

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover
        state = "enabled" if self.enabled else "disabled"
        return f"<MetricsRegistry {state} instruments={len(self._instruments)}>"
