"""Unit tests for the token bucket and TBF qdisc."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import QdiscError
from repro.net.qdisc.tbf import TokenBucket, TokenBucketFilter

from tests.net.helpers import seg


# ---------------------------------------------------------------- TokenBucket


def test_bucket_starts_full():
    b = TokenBucket(rate=100.0, burst=500.0)
    assert b.can_consume(500.0, 0.0)
    assert not b.can_consume(501.0, 0.0)


def test_bucket_starts_empty_when_requested():
    b = TokenBucket(rate=100.0, burst=500.0, start_full=False)
    assert not b.can_consume(1.0, 0.0)
    assert b.can_consume(100.0, 1.0)  # refilled at 100 B/s


def test_bucket_refill_capped_at_burst():
    b = TokenBucket(rate=100.0, burst=500.0)
    b.refill(1000.0)
    assert b.tokens == 500.0


def test_bucket_consume_and_time_until():
    b = TokenBucket(rate=100.0, burst=500.0)
    b.consume(500.0, 0.0)
    assert b.tokens == 0.0
    assert b.time_until(100.0, 0.0) == pytest.approx(1.0)
    assert b.time_until(100.0, 0.5) == pytest.approx(0.5)
    assert b.time_until(0.0, 0.5) == 0.0


def test_bucket_refill_never_goes_backwards():
    b = TokenBucket(rate=100.0, burst=500.0)
    b.refill(2.0)
    tokens = b.tokens
    b.refill(1.0)  # stale time must not change anything
    assert b.tokens == tokens


def test_bucket_invalid_params():
    with pytest.raises(QdiscError):
        TokenBucket(rate=0.0, burst=1.0)
    with pytest.raises(QdiscError):
        TokenBucket(rate=1.0, burst=0.0)


@given(
    st.floats(min_value=1.0, max_value=1e6),
    st.floats(min_value=1.0, max_value=1e6),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.floats(min_value=0.0, max_value=1e5),
        ),
        max_size=40,
    ),
)
def test_property_bucket_long_run_rate_bounded(rate, burst, ops):
    """Total consumption over any horizon <= burst + rate * elapsed."""
    b = TokenBucket(rate, burst)
    now = 0.0
    consumed = 0.0
    for dt, amount in ops:
        now += dt
        if b.can_consume(amount, now):
            b.consume(amount, now)
            consumed += amount
    assert consumed <= burst + rate * now + 1e-6


# ---------------------------------------------------------------- pure reads


def test_reads_leave_the_bucket_unchanged():
    b = TokenBucket(rate=100.0, burst=500.0)
    b.consume(300.0, 1.0)
    state = (b.tokens, b.last_update)
    assert b.level(2.0) == 300.0
    assert b.can_consume(300.0, 2.0)
    assert b.time_until(450.0, 2.0) == pytest.approx(1.5)
    assert (b.tokens, b.last_update) == state


def test_level_is_capped_and_ignores_stale_time():
    b = TokenBucket(rate=100.0, burst=500.0)
    b.consume(500.0, 2.0)
    assert b.level(1.0) == 0.0  # before the last charge: nothing earned
    assert b.level(3.0) == 100.0
    assert b.level(100.0) == 500.0


reads = st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=10)


@given(
    st.floats(min_value=1.0, max_value=1e9),
    st.floats(min_value=1.0, max_value=1e7),
    st.lists(
        st.tuples(reads, st.floats(min_value=0.0, max_value=0.1),
                  st.floats(min_value=0.0, max_value=1e5)),
        max_size=20,
    ),
)
def test_property_reads_do_not_change_charges(rate, burst, charges):
    """Charges land on exactly the same floats with or without reads."""
    read, quiet = TokenBucket(rate, burst), TokenBucket(rate, burst)
    now = 0.0
    for fractions, dt, amount in charges:
        for f in fractions:  # reads anywhere in the gap before the charge
            t = now + f * dt
            read.level(t)
            read.can_consume(amount, t)
            read.time_until(amount, t)
        now += dt
        read.consume(amount, now)
        quiet.consume(amount, now)
        assert (read.tokens, read.last_update) == (quiet.tokens, quiet.last_update)


class _RefillOnRead:
    """The earlier bucket, which banked tokens on every read."""

    def __init__(self, rate, burst):
        self.rate, self.burst, self.tokens, self.last = rate, burst, burst, 0.0

    def read(self, now):
        if now > self.last:
            self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
            self.last = now
        return self.tokens


@given(
    st.floats(min_value=1.0, max_value=1e9),
    st.floats(min_value=1.0, max_value=1e7),
    st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=0.01),
                  st.booleans(), st.floats(min_value=0.0, max_value=1e5)),
        max_size=60,
    ),
)
def test_property_level_tracks_the_refill_on_read_trajectory(rate, burst, steps):
    """Reading through ``level`` agrees with banking on every read up to
    float rounding (1e-9 relative to the bucket's scale)."""
    pure, old = TokenBucket(rate, burst), _RefillOnRead(rate, burst)
    now = 0.0
    for dt, charge, amount in steps:
        now += dt
        expected = old.read(now)
        assert pure.level(now) == pytest.approx(expected, rel=1e-9, abs=1e-9 * burst)
        if charge:
            pure.consume(amount, now)
            old.tokens -= amount


# ---------------------------------------------------------------- TBF qdisc


def test_tbf_is_not_work_conserving():
    q = TokenBucketFilter(rate=100.0, burst=50.0)
    assert not q.work_conserving


def test_tbf_passes_within_burst():
    q = TokenBucketFilter(rate=100.0, burst=1000.0)
    s = seg(500)
    q.enqueue(s, 0.0)
    assert q.dequeue(0.0) is s


def test_tbf_shapes_beyond_burst():
    q = TokenBucketFilter(rate=100.0, burst=100.0)
    a, b = seg(100), seg(100)
    q.enqueue(a, 0.0)
    q.enqueue(b, 0.0)
    assert q.dequeue(0.0) is a
    assert q.dequeue(0.0) is None  # bucket empty
    assert q.next_ready_time(0.0) == pytest.approx(1.0)
    assert q.dequeue(1.0) is b


def test_tbf_empty_next_ready_none():
    q = TokenBucketFilter(rate=100.0, burst=100.0)
    assert q.next_ready_time(0.0) is None
    assert q.dequeue(0.0) is None


def test_tbf_backlog_accounting():
    q = TokenBucketFilter(rate=10.0, burst=10.0)
    q.enqueue(seg(100), 0.0)
    q.enqueue(seg(50), 0.0)
    assert len(q) == 2
    assert q.backlog_bytes == 150


def test_tbf_long_run_rate():
    """Dequeuing as eagerly as allowed approaches the configured rate."""
    rate, size = 1000.0, 100.0
    q = TokenBucketFilter(rate=rate, burst=size)
    n = 50
    for _ in range(n):
        q.enqueue(seg(int(size)), 0.0)
    now, sent = 0.0, 0
    while sent < n:
        s = q.dequeue(now)
        if s is not None:
            sent += 1
        else:
            now = max(q.next_ready_time(now), now + 1e-9)
    # n segments at `rate` with a one-segment initial burst:
    assert now == pytest.approx((n - 1) * size / rate, rel=1e-3)
