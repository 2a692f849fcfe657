"""A frozen copy of the straightforward HTB dequeue, kept as a test oracle.

:class:`ReferenceHTB` scans every backlogged leaf on every dequeue: it
collects all green leaves (own rate and ceil buckets cover the head
segment), and when there are none it computes a lender for every
backlogged leaf, then hands the candidates to priority-then-DRR
selection.  It shares the class tree, configuration and pure token
buckets of :class:`~repro.net.qdisc.htb.HTBQdisc` but none of its
datapath, so the differential tests can require the production dequeue
to make exactly the same decisions with less work.  Do not optimize it.
"""

from __future__ import annotations

from typing import Optional

from repro.net.packet import Segment
from repro.net.qdisc.htb import HTBClass, HTBQdisc


def _ancestors(cls: HTBClass):
    node = cls.parent
    while node is not None:
        yield node
        node = node.parent


class ReferenceHTB(HTBQdisc):
    """HTB with the full-scan dequeue."""

    def _green(self, leaf: HTBClass, size: int, now: float) -> bool:
        """Leaf can send within its own guaranteed rate (and its ceil)."""
        return leaf.bucket.can_consume(size, now) and leaf.cbucket.can_consume(size, now)

    def _lender(self, leaf: HTBClass, size: int, now: float) -> Optional[HTBClass]:
        if not leaf.cbucket.can_consume(size, now):
            return None
        for anc in _ancestors(leaf):
            if not anc.cbucket.can_consume(size, now):
                return None
            if anc.bucket.can_consume(size, now):
                return anc
        return None

    def _charge(self, leaf: HTBClass, lender: Optional[HTBClass], size: int, now: float) -> None:
        if lender is None:
            leaf.bucket.consume(size, now)
        else:
            lender.bucket.consume(size, now)
        leaf.cbucket.consume(size, now)
        for anc in _ancestors(leaf):
            anc.cbucket.consume(size, now)
            if anc is lender:
                break
        leaf.sent_bytes += size

    def _select(self, candidates: list[HTBClass]) -> HTBClass:
        best_prio = min(c.prio for c in candidates)
        peers = [c for c in candidates if c.prio == best_prio]
        if len(peers) == 1:
            chosen = peers[0]
        else:
            chosen = None
            while chosen is None:
                ready = [c for c in peers if c.deficit >= c.queue[0].size]
                if ready:
                    chosen = min(
                        ready, key=lambda c: (self._last_served.get(c.classid, -1), c.classid)
                    )
                else:
                    for cls in peers:
                        cls.deficit += cls.quantum
        self._serve_seq += 1
        self._last_served[chosen.classid] = self._serve_seq
        return chosen

    def dequeue(self, now: float) -> Optional[Segment]:
        if self._len == 0:
            return None
        backlogged = [c for c in self._leaves if c.queue]
        if not backlogged:
            return None

        green = [c for c in backlogged if self._green(c, c.queue[0].size, now)]
        if green:
            leaf = self._select(green)
            lender = None
        else:
            lenders = {
                c.classid: self._lender(c, c.queue[0].size, now) for c in backlogged
            }
            yellow = [c for c in backlogged if lenders[c.classid] is not None]
            if not yellow:
                return None
            leaf = self._select(yellow)
            lender = lenders[leaf.classid]

        seg = leaf.queue.popleft()
        leaf.queued_bytes -= seg.size
        leaf.deficit = max(0.0, leaf.deficit - seg.size)
        self._len -= 1
        self._bytes -= seg.size
        self._charge(leaf, lender, seg.size, now)
        return seg

    def next_ready_time(self, now: float) -> Optional[float]:
        best: Optional[float] = None
        for leaf in self.classes.values():
            if not leaf.is_leaf or not leaf.queue:
                continue
            size = leaf.queue[0].size
            t_green = max(
                leaf.bucket.time_until(size, now),
                leaf.cbucket.time_until(size, now),
            )
            candidate = t_green
            t_path = leaf.cbucket.time_until(size, now)
            for anc in _ancestors(leaf):
                t_hop = anc.cbucket.time_until(size, now)
                t_lend = max(t_path, t_hop, anc.bucket.time_until(size, now))
                candidate = min(candidate, t_lend)
                t_path = max(t_path, t_hop)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return None
        return now + best
