"""Differential tests: the production HTB dequeue against the full scan.

Both qdiscs receive the same class tree, the same segments and the same
reconfigurations, and are drained by the same NIC-like clock: after a
send the clock advances by the segment's serialization time; after a
``None`` it jumps to ``next_ready_time`` (at least 1 ns later, as the NIC
retries).  They must send the same segments in the same order, report
bit-identical ``next_ready_time`` floats and end with bit-identical token
state.
"""

from typing import List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.net.qdisc import HTBQdisc, PortFilter

from tests.net.helpers import seg
from tests.net.htb_reference import ReferenceHTB

LINK = 1e6  # bytes/s
MIN_RETRY = 1e-9  # the NIC's zero-progress guard
ROOT = 1
SIZES = (100, 600, 1500)
BURSTS = (1000, 1500, 4000, 20000)


@st.composite
def trees(draw):
    """(mids, leaves): mid-tree classes and leaves as add_class kwargs."""
    n_mids = draw(st.integers(0, 2))
    mids = []
    for i in range(n_mids):
        rate = LINK * draw(st.sampled_from((0.1, 0.3, 0.5)))
        ceil = draw(st.sampled_from((rate, LINK / 2, LINK)))
        mids.append(dict(classid=2 + i, rate=rate, ceil=max(ceil, rate), parent=ROOT,
                         burst=draw(st.sampled_from(BURSTS)),
                         cburst=draw(st.sampled_from(BURSTS))))
    n_leaves = draw(st.integers(2, 5))
    capped = draw(st.booleans())  # non-work-conserving bands
    leaves = []
    for i in range(n_leaves):
        if capped:
            rate = ceil = LINK / n_leaves
        else:
            rate = LINK * draw(st.sampled_from((0.001, 0.05, 0.2)))
            ceil = draw(st.sampled_from((rate, LINK / 2, LINK)))
        parent = draw(st.sampled_from([ROOT] + [m["classid"] for m in mids]))
        leaves.append(dict(
            classid=10 + i, rate=rate, ceil=max(ceil, rate), parent=parent,
            prio=draw(st.integers(0, 2)),
            quantum=draw(st.sampled_from((500, 1500, 3000))),
            burst=draw(st.sampled_from(BURSTS)),
            cburst=draw(st.sampled_from(BURSTS)),
        ))
    return mids, leaves


ops = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.integers(0, 5), st.sampled_from(SIZES),
                  st.integers(1, 8)),
        st.tuples(st.just("run"), st.integers(1, 40)),
        st.tuples(st.just("prio"), st.integers(0, 4), st.integers(0, 2)),
        st.tuples(st.just("rate"), st.integers(0, 4), st.sampled_from((0.01, 0.1, 0.5))),
        st.tuples(st.just("delete"), st.integers(0, 4)),
    ),
    min_size=1,
    max_size=25,
)


def build(cls, tree) -> HTBQdisc:
    mids, leaves = tree
    filt = PortFilter()
    q = cls(filter=filt, default_classid=leaves[-1]["classid"])
    q.add_class(ROOT, rate=LINK, ceil=LINK, burst=20000, cburst=20000)
    for kw in mids + leaves:
        q.add_class(**kw)
    for i, kw in enumerate(leaves):
        filt.add_match(5000 + i, kw["classid"])
    return q


def step(q: HTBQdisc, now: float) -> Tuple[Optional[object], Optional[float], float]:
    """One NIC serializer step: (sent segment, next_ready_time, new clock)."""
    sent = q.dequeue(now)
    if sent is not None:
        return sent, None, now + sent.size / LINK
    ready = q.next_ready_time(now)
    if ready is None:
        return None, None, now
    return None, ready, now + max(ready - now, MIN_RETRY)


def bucket_state(q: HTBQdisc) -> List[tuple]:
    return [
        (c.classid, c.bucket.tokens, c.bucket.last_update, c.cbucket.tokens,
         c.cbucket.last_update, c.sent_bytes, c.deficit, len(c.queue))
        for c in q.classes.values()
    ]


@settings(max_examples=120)
@given(trees(), ops)
def test_dequeue_matches_full_scan_reference(tree, script):
    new, ref = build(HTBQdisc, tree), build(ReferenceHTB, tree)
    leaf_ids = [kw["classid"] for kw in tree[1]]
    now = 0.0
    for op in script + [("run", 400)]:
        kind = op[0]
        if kind == "enqueue":
            _, port, size, count = op
            for _ in range(count):
                s = seg(size, sport=5000 + port)
                assert new.enqueue(s, now) == ref.enqueue(s, now)
        elif kind == "run":
            for _ in range(op[1]):
                sent, ready, clock = step(new, now)
                ref_sent, ref_ready, ref_clock = step(ref, now)
                assert sent is ref_sent
                assert ready == ref_ready
                assert clock == ref_clock
                if sent is None and ready is None:
                    break
                now = clock
        else:
            classid = leaf_ids[op[1] % len(leaf_ids)]
            if classid not in new.classes:
                continue
            if kind == "prio":
                new.change_class(classid, prio=op[2])
                ref.change_class(classid, prio=op[2])
            elif kind == "rate":
                rate = min(LINK * op[2], new.classes[classid].ceil)
                new.change_class(classid, rate=rate, now=now)
                ref.change_class(classid, rate=rate, now=now)
            else:
                new.del_class(classid)
                ref.del_class(classid)
        assert len(new) == len(ref)
        assert new.backlog_bytes == ref.backlog_bytes
    assert bucket_state(new) == bucket_state(ref)
    assert new._last_served == ref._last_served


def test_reference_and_production_agree_on_a_tensorlights_tree():
    """A fixed TensorLights shape: root at link rate, tiny guaranteed
    rates, ceil = link, one prio per band, bursts that let bands go green."""
    def tls(cls):
        filt = PortFilter()
        q = cls(filter=filt, default_classid=102)
        q.add_class(ROOT, rate=LINK, ceil=LINK)
        for band in range(3):
            q.add_class(100 + band, rate=LINK / 1000, ceil=LINK, prio=band,
                        parent=ROOT, burst=3000)
            filt.add_match(5000 + band, 100 + band)
        return q

    new, ref = tls(HTBQdisc), tls(ReferenceHTB)
    for i in range(300):
        s = seg(SIZES[i % 3], sport=5000 + i % 3)
        new.enqueue(s, 0.0)
        ref.enqueue(s, 0.0)
    now, order = 0.0, []
    while len(ref):
        sent, ready, clock = step(new, now)
        ref_sent, ref_ready, ref_clock = step(ref, now)
        assert (sent, ready, clock) == (ref_sent, ref_ready, ref_clock)
        if sent is not None:
            order.append(sent.flow.src_port)
        now = clock
    assert len(order) == 300
    # strict priority once the green bursts are spent: bands finish in order
    last = {port: i for i, port in enumerate(order)}
    assert last[5000] < last[5001] < last[5002]
    assert bucket_state(new) == bucket_state(ref)


def test_re_rated_leaf_is_checked_for_green_again():
    """A leaf skipped as far from green turns green sooner after a rate
    increase; the production dequeue must notice, as the full scan does."""
    def two_bands(cls):
        filt = PortFilter()
        q = cls(filter=filt, default_classid=11)
        q.add_class(ROOT, rate=LINK, ceil=LINK, burst=20000, cburst=20000)
        q.add_class(10, rate=1.0, ceil=LINK, prio=0, parent=ROOT, burst=1500)
        q.add_class(11, rate=1.0, ceil=LINK, prio=1, parent=ROOT, burst=1500)
        filt.add_match(5000, 10)
        return q

    new, ref = two_bands(HTBQdisc), two_bands(ReferenceHTB)
    for _ in range(4):
        s = seg(1500, sport=5000)
        new.enqueue(s, 0.0)
        ref.enqueue(s, 0.0)
    now = 0.0
    for _ in range(2):  # one green send, then one borrowed from the root
        sent, _, now = step(new, now)
        assert sent is step(ref, now - sent.size / LINK)[0]
    root_tokens = new.classes[ROOT].bucket.level(now)
    new.change_class(10, rate=LINK, now=now)
    ref.change_class(10, rate=LINK, now=now)
    now += 0.01
    assert new.dequeue(now) is ref.dequeue(now)
    assert new.classes[ROOT].bucket.level(now) >= root_tokens  # sent green
    assert bucket_state(new) == bucket_state(ref)


def test_burst_below_segment_never_covers_it():
    """A bucket whose burst is below the segment size stays short however
    long it idles: the leaf cannot go green, the mid class cannot lend,
    and the root lends instead."""
    def capped_bursts(cls):
        filt = PortFilter()
        q = cls(filter=filt, default_classid=10)
        q.add_class(ROOT, rate=LINK, ceil=LINK, burst=20000, cburst=20000)
        q.add_class(2, rate=LINK / 2, ceil=LINK, parent=ROOT, burst=1000, cburst=20000)
        q.add_class(10, rate=1000.0, ceil=LINK, parent=2, burst=1000, cburst=20000)
        return q

    new, ref = capped_bursts(HTBQdisc), capped_bursts(ReferenceHTB)
    s = seg(1500)
    new.enqueue(s, 10.0)
    ref.enqueue(s, 10.0)
    assert new.dequeue(10.0) is ref.dequeue(10.0) is s
    assert bucket_state(new) == bucket_state(ref)
    assert new.classes[10].bucket.tokens == 1000  # not charged: borrowed
    assert new.classes[2].bucket.tokens == 1000  # not the lender
