"""``htb`` — hierarchical token bucket.

This is the qdisc the paper actually configures (``tc ... htb``): a class
tree where every class has a guaranteed ``rate``, a ``ceil`` it may burst
to by *borrowing* from its parent, and a ``prio`` that orders classes when
excess (borrowed) bandwidth is handed out.

Faithful semantics implemented here:

* guaranteed rates are always honored: a class whose own bucket has tokens
  ("green") sends before any class that needs to borrow ("yellow"),
  regardless of priority;
* excess bandwidth goes to the *lowest prio value* among borrowing-capable
  classes; ties are broken by deficit round robin with per-class quantum;
* ``ceil`` is a hard cap enforced with a second (ceiling) bucket;
* borrowing charges the lender's rate bucket and every hop's ceil bucket,
  so a mid-tree class's ceil constrains its whole subtree;
* with a root class of ``rate == ceil == link rate`` the qdisc is
  work-conserving — TensorLights relies on this (paper §IV-B, advantage 3).

TensorLights' standard configuration (built by
:mod:`repro.tensorlights.tc`) is a root class at the link rate plus one
leaf per priority band with a tiny guaranteed rate, ``ceil`` = link rate
and ``prio`` = band index — which behaves as a work-conserving strict
priority scheduler with starvation protection.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import QdiscError
from repro.net.packet import Segment
from repro.net.qdisc.base import Qdisc
from repro.net.qdisc.filters import FlowFilter
from repro.net.qdisc.tbf import TOKEN_EPSILON, TokenBucket

#: Default burst sizing: allow ~this much time of full-rate accumulation.
DEFAULT_BURST_SECONDS = 0.002
#: Minimum burst so tiny-rate classes can still emit one max-size segment.
MIN_BURST_BYTES = 512 * 1024
#: Relative slack that keeps a leaf's cached earliest-green time below the
#: first instant its exact token comparison turns true: float rounding in
#: that comparison is ~1e-16 relative, so 1e-9 is conservative by orders
#: of magnitude and costs only an occasional early re-check.
GREEN_SLACK = 1e-9
#: ``HTBClass.green_at`` when no bound is known: the leaf is checked
_NEVER_SKIP = float("-inf")


def _earliest_green(bucket: TokenBucket, need: float) -> float:
    """A lower bound on when ``bucket`` refills to ``need`` tokens.

    Infinite when ``need`` exceeds the burst; otherwise the exact refill
    time pulled earlier by :data:`GREEN_SLACK`, far more than the float
    rounding in the comparison it stands in for.
    """
    if need > bucket.burst:
        return float("inf")
    last = bucket.last_update
    wait = (need - bucket.tokens) / bucket.rate
    return last + wait - GREEN_SLACK * (1.0 + wait + abs(last) + abs(need) / bucket.rate)


class HTBClass:
    """One node in the HTB class tree."""

    __slots__ = (
        "classid",
        "parent",
        "children",
        "rate",
        "ceil",
        "prio",
        "quantum",
        "bucket",
        "cbucket",
        "queue",
        "queued_bytes",
        "deficit",
        "sent_bytes",
        "green_at",
    )

    def __init__(
        self,
        classid: int,
        rate: float,
        ceil: float,
        prio: int,
        quantum: int,
        parent: Optional["HTBClass"],
        burst: Optional[float] = None,
        cburst: Optional[float] = None,
    ) -> None:
        if rate <= 0:
            raise QdiscError(f"class {classid}: rate must be positive, got {rate}")
        if ceil < rate:
            raise QdiscError(f"class {classid}: ceil ({ceil}) < rate ({rate})")
        self.classid = classid
        self.parent = parent
        self.children: list[HTBClass] = []
        self.rate = rate
        self.ceil = ceil
        self.prio = prio
        self.quantum = quantum
        if burst is None:
            burst = max(MIN_BURST_BYTES, rate * DEFAULT_BURST_SECONDS)
        if cburst is None:
            cburst = max(MIN_BURST_BYTES, ceil * DEFAULT_BURST_SECONDS)
        self.bucket = TokenBucket(rate, burst)
        self.cbucket = TokenBucket(ceil, cburst)
        self.queue: Deque[Segment] = deque()
        self.queued_bytes = 0
        self.deficit = 0.0
        self.sent_bytes = 0
        #: a lower bound on when the rate bucket can cover the head
        #: segment; dequeue skips the leaf's green check before it.  Reset
        #: whenever the bucket is charged, the rate changes or the head
        #: segment shrinks.
        self.green_at = _NEVER_SKIP

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<HTBClass {self.classid} rate={self.rate:.0f} ceil={self.ceil:.0f} "
            f"prio={self.prio} qlen={len(self.queue)}>"
        )


class HTBQdisc(Qdisc):
    """The hierarchical token bucket qdisc."""

    work_conserving = False  # in general; True for the TensorLights config

    def __init__(
        self,
        filter: Optional[FlowFilter] = None,
        default_classid: Optional[int] = None,
    ) -> None:
        self.filter = filter
        self.default_classid = default_classid
        self.classes: Dict[int, HTBClass] = {}
        self.drops = 0
        self._len = 0
        self._bytes = 0
        self._last_served: Dict[int, int] = {}
        self._serve_seq = 0
        #: leaves in classid-insertion order
        self._leaves: Tuple[HTBClass, ...] = ()
        #: the same leaves stably sorted by prio — dequeue walks this and
        #: stops after the first priority that can send
        self._by_prio: Tuple[HTBClass, ...] = ()

    @property
    def leaves(self) -> Tuple[HTBClass, ...]:
        """The leaf classes (the bands segments queue in), in creation order."""
        return self._leaves

    def _rebuild_leaves(self) -> None:
        self._leaves = tuple(c for c in self.classes.values() if c.is_leaf)
        self._rebuild_prio_order()

    def _rebuild_prio_order(self) -> None:
        self._by_prio = tuple(sorted(self._leaves, key=lambda c: c.prio))

    # -- configuration (tc class add/change/del) ---------------------------

    def add_class(
        self,
        classid: int,
        rate: float,
        ceil: Optional[float] = None,
        prio: int = 0,
        quantum: Optional[int] = None,
        parent: Optional[int] = None,
        burst: Optional[float] = None,
        cburst: Optional[float] = None,
    ) -> HTBClass:
        """``tc class add ... classid <id> htb rate R ceil C prio P``."""
        if classid in self.classes:
            raise QdiscError(f"class {classid} already exists")
        parent_cls: Optional[HTBClass] = None
        if parent is not None:
            parent_cls = self.classes.get(parent)
            if parent_cls is None:
                raise QdiscError(f"parent class {parent} does not exist")
            if parent_cls.queue:
                raise QdiscError(
                    f"cannot attach a child to class {parent}: it has queued packets"
                )
        cls = HTBClass(
            classid=classid,
            rate=rate,
            ceil=ceil if ceil is not None else rate,
            prio=prio,
            quantum=quantum if quantum is not None else 200 * 1024,
            parent=parent_cls,
            burst=burst,
            cburst=cburst,
        )
        if parent_cls is not None:
            parent_cls.children.append(cls)
        self.classes[classid] = cls
        self._rebuild_leaves()
        return cls

    def change_class(
        self,
        classid: int,
        rate: Optional[float] = None,
        ceil: Optional[float] = None,
        prio: Optional[int] = None,
        *,
        now: Optional[float] = None,
    ) -> None:
        """``tc class change ...`` — used by TLs-RR to rotate priorities.

        A new ``rate`` or ``ceil`` needs the current time ``now``: the
        re-rated bucket is first settled at its old rate, so tokens
        earned before the change keep the price they were earned at.
        """
        cls = self._get(classid)
        if (rate is not None or ceil is not None) and now is None:
            raise QdiscError(f"class {classid}: changing rate or ceil needs now=")
        new_rate = cls.rate if rate is None else rate
        if ceil is not None and ceil < new_rate:
            raise QdiscError(f"class {classid}: ceil ({ceil}) < rate ({new_rate})")
        if rate is not None:
            cls.bucket.refill(now)
            cls.rate = rate
            cls.bucket.rate = rate
            cls.green_at = _NEVER_SKIP
        if ceil is not None:
            cls.cbucket.refill(now)
            cls.ceil = ceil
            cls.cbucket.rate = ceil
        if prio is not None:
            cls.prio = prio
            self._rebuild_prio_order()

    def del_class(self, classid: int) -> None:
        """``tc class del ...`` — queued packets of the class are dropped."""
        cls = self._get(classid)
        if cls.children:
            raise QdiscError(f"class {classid} still has children")
        if cls.parent is not None:
            cls.parent.children.remove(cls)
        self._len -= len(cls.queue)
        self._bytes -= cls.queued_bytes
        del self.classes[classid]
        self._rebuild_leaves()

    def _get(self, classid: int) -> HTBClass:
        cls = self.classes.get(classid)
        if cls is None:
            raise QdiscError(f"class {classid} does not exist")
        return cls

    # -- datapath -----------------------------------------------------------

    def enqueue(self, seg: Segment, now: float) -> bool:
        classid = self.filter.classify(seg) if self.filter is not None else None
        if classid is None:
            classid = self.default_classid
        leaf = self.classes.get(classid) if classid is not None else None
        if leaf is None or leaf.children:
            # unmatched or non-leaf class id: fall back to the default leaf
            leaf = self.classes.get(self.default_classid)
        if leaf is None or leaf.children:
            self._note_drop()
            return False
        leaf.queue.append(seg)
        leaf.queued_bytes += seg.size
        self._len += 1
        self._bytes += seg.size
        return True

    # The bucket reads below inline TokenBucket.level: they run several
    # times per segment, and a call per read was most of the qdisc's cost.
    # With a monotone clock (now >= last_update) and tokens <= burst,
    # ``level(now) < need`` holds exactly when
    # ``tokens + (now - last_update) * rate < need or burst < need``.

    def _lender(self, leaf: HTBClass, size: int, now: float) -> Optional[HTBClass]:
        """Nearest ancestor whose rate bucket can cover ``size``.

        Every hop on the way up (including the lender) must have ceil
        headroom; otherwise that subtree is capped and cannot borrow
        through it.
        """
        need = size - TOKEN_EPSILON
        b = leaf.cbucket
        if b.tokens + (now - b.last_update) * b.rate < need or b.burst < need:
            return None
        node = leaf.parent
        while node is not None:
            b = node.cbucket
            if b.tokens + (now - b.last_update) * b.rate < need or b.burst < need:
                return None
            b = node.bucket
            if b.tokens + (now - b.last_update) * b.rate >= need and b.burst >= need:
                return node
            node = node.parent
        return None

    def _charge(self, leaf: HTBClass, lender: Optional[HTBClass], size: int, now: float) -> None:
        """Consume tokens after a send.

        The rate bucket of the sender (green) or the lender (yellow) is
        charged; ceil buckets are charged along the whole path so every
        level's cap holds.
        """
        if lender is None:
            leaf.bucket.consume(size, now)
        else:
            lender.bucket.consume(size, now)
        leaf.cbucket.consume(size, now)
        node = leaf.parent
        while node is not None:
            node.cbucket.consume(size, now)
            if node is lender:
                break
            node = node.parent
        leaf.sent_bytes += size

    def _select(self, peers: List[HTBClass]) -> HTBClass:
        """DRR (deficit + quantum) among two or more equal-priority ``peers``.

        Fairness among peers uses a least-recently-served rotation: of the
        peers whose deficit covers their head segment, pick the one served
        longest ago; when no peer has deficit, replenish all by quantum.
        """
        while True:
            ready = [c for c in peers if c.deficit >= c.queue[0].size]
            if ready:
                return min(
                    ready, key=lambda c: (self._last_served.get(c.classid, -1), c.classid)
                )
            for cls in peers:
                cls.deficit += cls.quantum

    def dequeue(self, now: float) -> Optional[Segment]:
        """Send from the best leaf: green leaves (within their own rate)
        before yellow ones (borrowing), lowest ``prio`` first within each
        pass, DRR among equal-prio peers.

        Both passes walk the leaves in prio order and stop after the first
        priority with a leaf that can send; the green pass skips leaves
        whose earliest-green bound lies ahead of ``now``.
        """
        if self._len == 0:
            return None
        peers: Optional[List[HTBClass]] = None
        lenders: Optional[List[HTBClass]] = None
        prio = 0
        for leaf in self._by_prio:
            if peers is not None and leaf.prio != prio:
                break
            queue = leaf.queue
            if not queue or leaf.green_at > now:
                continue
            need = queue[0].size - TOKEN_EPSILON
            b = leaf.bucket
            if b.tokens + (now - b.last_update) * b.rate < need or b.burst < need:
                leaf.green_at = _earliest_green(b, need)
                continue
            b = leaf.cbucket
            if b.tokens + (now - b.last_update) * b.rate < need or b.burst < need:
                continue
            if peers is None:
                peers = [leaf]
                prio = leaf.prio
            else:
                peers.append(leaf)
        if peers is None:
            for leaf in self._by_prio:
                if peers is not None and leaf.prio != prio:
                    break
                queue = leaf.queue
                if not queue:
                    continue
                lender = self._lender(leaf, queue[0].size, now)
                if lender is None:
                    continue
                if peers is None:
                    peers = [leaf]
                    lenders = [lender]
                    prio = leaf.prio
                else:
                    peers.append(leaf)
                    lenders.append(lender)
            if peers is None:
                return None

        leaf = peers[0] if len(peers) == 1 else self._select(peers)
        lender = lenders[peers.index(leaf)] if lenders else None
        self._serve_seq += 1
        self._last_served[leaf.classid] = self._serve_seq
        queue = leaf.queue
        seg = queue.popleft()
        size = seg.size
        leaf.queued_bytes -= size
        deficit = leaf.deficit - size
        leaf.deficit = deficit if deficit > 0.0 else 0.0
        # A green bound that held for the segment just sent still holds
        # for a next segment at least as large, unless the send charged
        # the rate bucket.
        if lender is None or not queue or queue[0].size < size:
            leaf.green_at = _NEVER_SKIP
        self._len -= 1
        self._bytes -= size
        self._charge(leaf, lender, size, now)
        return seg

    def next_ready_time(self, now: float) -> Optional[float]:
        """Earliest time any backlogged leaf could become green or yellow."""
        best: Optional[float] = None
        for leaf in self._leaves:
            if not leaf.queue:
                continue
            size = leaf.queue[0].size
            # Time to green: own rate bucket and own ceil bucket.
            t_path = leaf.cbucket.time_until(size, now)
            candidate = max(leaf.bucket.time_until(size, now), t_path)
            # Time to yellow through the nearest ancestor (hop ceils apply).
            node = leaf.parent
            while node is not None:
                t_hop = node.cbucket.time_until(size, now)
                t_lend = max(t_path, t_hop, node.bucket.time_until(size, now))
                candidate = min(candidate, t_lend)
                t_path = max(t_path, t_hop)
                node = node.parent
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return None
        return now + best

    def drain_all(self, now: float) -> list:
        """Pull every queued segment out, ignoring token state.

        Leaves are drained in (classid) order; within a leaf, FIFO order is
        preserved — sufficient for qdisc replacement, where the new qdisc
        re-classifies everything anyway.
        """
        out = []
        for classid in sorted(self.classes):
            leaf = self.classes[classid]
            leaf.green_at = _NEVER_SKIP
            while leaf.queue:
                seg = leaf.queue.popleft()
                leaf.queued_bytes -= seg.size
                out.append(seg)
        self._len = 0
        self._bytes = 0
        return out

    def __len__(self) -> int:
        return self._len

    @property
    def backlog_bytes(self) -> int:
        return self._bytes

    def class_backlog(self, classid: int) -> int:
        return len(self._get(classid).queue)

    def __repr__(self) -> str:  # pragma: no cover
        leaves = {c.classid: len(c.queue) for c in self._leaves}
        return f"HTBQdisc(leaves={leaves})"
