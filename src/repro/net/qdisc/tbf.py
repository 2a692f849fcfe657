"""``tbf`` — token bucket filter (rate shaping).

Wraps a child qdisc.  Segments become eligible only when the bucket holds
enough tokens; tokens refill at ``rate`` bytes/second up to ``burst``
bytes.  Used standalone for the rate-control ablation (paper §VII argues
that inaccurate sender rate allocation loses utilization) and as the
building block of HTB classes.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import QdiscError
from repro.net.packet import Segment
from repro.net.qdisc.base import Qdisc
from repro.net.qdisc.fifo import PFifo


#: Absolute tolerance (in bytes) when testing token availability.  Guards
#: against float-rounding deadlocks where a bucket is short by ~1e-10
#: bytes and the computed refill delay underflows the clock.
TOKEN_EPSILON = 1e-6


class TokenBucket:
    """A plain token bucket: ``rate`` bytes/s refill, ``burst`` bytes cap.

    The state is the level at the last charge (``tokens``) and the time of
    that charge (``last_update``); the level at any later time is a pure
    function of the two (:meth:`level`).  Reads (:meth:`level`,
    :meth:`can_consume`, :meth:`time_until`) never write, so a bucket's
    float trajectory does not depend on how often it is inspected.  Only
    :meth:`refill` writes: a charge (:meth:`consume`) settles through it,
    and so does HTB before re-rating a class.
    """

    __slots__ = ("rate", "burst", "tokens", "last_update")

    def __init__(self, rate: float, burst: float, start_full: bool = True) -> None:
        if rate <= 0:
            raise QdiscError(f"token bucket rate must be positive, got {rate}")
        if burst <= 0:
            raise QdiscError(f"token bucket burst must be positive, got {burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = burst if start_full else 0.0
        self.last_update = 0.0

    def level(self, now: float) -> float:
        """Tokens available at ``now``, without changing the bucket."""
        if now > self.last_update:
            level = self.tokens + (now - self.last_update) * self.rate
            return level if level < self.burst else self.burst
        return self.tokens

    def refill(self, now: float) -> None:
        """Settle the bucket at ``now``: bank the tokens earned since the
        last settle (a stale ``now`` changes nothing)."""
        if now > self.last_update:
            tokens = self.tokens + (now - self.last_update) * self.rate
            self.tokens = tokens if tokens < self.burst else self.burst
            self.last_update = now

    def can_consume(self, amount: float, now: float) -> bool:
        return self.level(now) >= amount - TOKEN_EPSILON

    def consume(self, amount: float, now: float) -> None:
        self.refill(now)
        self.tokens -= amount  # may go negative when HTB force-charges

    def time_until(self, amount: float, now: float) -> float:
        """Seconds from ``now`` until ``amount`` tokens are available."""
        deficit = amount - TOKEN_EPSILON - self.level(now)
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


class TokenBucketFilter(Qdisc):
    """Shapes a child qdisc to ``rate`` bytes/second."""

    work_conserving = False

    def __init__(
        self,
        rate: float,
        burst: float,
        child: Optional[Qdisc] = None,
    ) -> None:
        self.bucket = TokenBucket(rate, burst)
        self.child = child if child is not None else PFifo()
        self.drops = 0

    def enqueue(self, seg: Segment, now: float) -> bool:
        ok = self.child.enqueue(seg, now)
        if not ok:
            self._note_drop()
        return ok

    def _head(self) -> Optional[Segment]:
        # PFifo-specific peek; generic children fall back to None-checking
        # via dequeue/enqueue round trip, which we avoid by requiring PFifo.
        queue = getattr(self.child, "_queue", None)
        if queue:
            return queue[0]
        return None

    def dequeue(self, now: float) -> Optional[Segment]:
        head = self._head()
        if head is None:
            return None
        if not self.bucket.can_consume(head.size, now):
            return None
        seg = self.child.dequeue(now)
        assert seg is head
        self.bucket.consume(seg.size, now)
        return seg

    def next_ready_time(self, now: float) -> Optional[float]:
        head = self._head()
        if head is None:
            return None
        return now + self.bucket.time_until(head.size, now)

    def drain_all(self, now: float) -> list[Segment]:
        return self.child.drain_all(now)

    def __len__(self) -> int:
        return len(self.child)

    @property
    def backlog_bytes(self) -> int:
        return self.child.backlog_bytes
