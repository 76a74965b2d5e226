"""Property tests of the scheduler-ordered waiting queue.

The engine used to keep its waiters in a list that it re-sorted on every
step, by ``(arrival, req_id)``; SLO admission re-sorted it again by
``(-priority, slack, arrival, req_id)`` with ``slack = arrival + target -
now``.  ``WaitQueue`` keeps one heap keyed by ``Scheduler.queue_key``
instead.  These tests pin that the heap pops in key order under any mix
of push, pop and discard, and that its head is the waiter the old
per-step sort put first, at any clock.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.request import Request, RequestTracker
from repro.serving.scheduler import ContinuousBatchScheduler, WaitQueue
from repro.serving.slo import SLOPolicy, SLOScheduler, TenantSLO

#: One tenant per priority, so one TTFT target per priority: the case in
#: which the deadline key and the old slack key agree exactly.
TENANTS = {2: "chat", 1: "agent", 0: "batch"}
POLICY = SLOPolicy(targets=(
    TenantSLO("chat", ttft_target_s=0.010),
    TenantSLO("agent", ttft_target_s=0.020),
    TenantSLO("batch", ttft_target_s=0.050),
))
#: A few shared arrival times force key ties down to ``req_id``.
TIED_ARRIVALS = (0.0, 0.001, 0.0025)


def fcfs():
    return ContinuousBatchScheduler()


def slo():
    return SLOScheduler(policy=POLICY)


def old_fcfs_key(now):
    return lambda t: (t.request.arrival_s, t.req_id)


def old_slo_key(now):
    def urgency(t):
        target = POLICY.target_for(t.request.tenant).ttft_target_s
        return (
            -t.request.priority,
            t.request.arrival_s + target - now,
            t.request.arrival_s,
            t.req_id,
        )
    return urgency


@st.composite
def trackers(draw, min_size=0, max_size=24):
    specs = draw(st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from(TIED_ARRIVALS),
                st.floats(0.0, 10.0, allow_nan=False),
            ),
            st.sampled_from(sorted(TENANTS)),
        ),
        min_size=min_size,
        max_size=max_size,
    ))
    ids = draw(st.permutations(range(len(specs))))
    return [
        RequestTracker(Request(rid, arrival, 8, 4, tenant=TENANTS[prio],
                               priority=prio))
        for rid, (arrival, prio) in zip(ids, specs)
    ]


@st.composite
def interleavings(draw):
    trs = draw(trackers(min_size=1))
    index = st.integers(0, len(trs) - 1)
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("push"), index),
            st.tuples(st.just("pop"), st.just(0)),
            st.tuples(st.just("discard"), index),
        ),
        max_size=60,
    ))
    return trs, ops


@pytest.mark.parametrize("make_sched", [fcfs, slo], ids=["fcfs", "slo"])
@settings(max_examples=150, deadline=None)
@given(case=interleavings())
def test_pop_order_matches_sorted_oracle(make_sched, case):
    trs, ops = case
    key = make_sched().queue_key
    queue = WaitQueue(key)
    queued: list[RequestTracker] = []
    for op, i in ops:
        tr = trs[i]
        if op == "push" and all(t is not tr for t in queued):
            queue.push(tr)
            queued.append(tr)
        elif op == "pop" and queued:
            expect = sorted(queued, key=key)[0]
            assert queue.pop() is expect
            queued.remove(expect)
        elif op == "discard":
            queue.discard(tr)      # a no-op when ``tr`` is not queued
            queued = [t for t in queued if t is not tr]
        assert len(queue) == len(queued)
        assert list(queue) == sorted(queued, key=key)
        if queued:
            assert queue.head() is sorted(queued, key=key)[0]
    drained = [queue.pop() for _ in range(len(queue))]
    assert drained == sorted(queued, key=key)


@pytest.mark.parametrize(
    "make_sched, old_key",
    [(fcfs, old_fcfs_key), (slo, old_slo_key)],
    ids=["fcfs", "slo"],
)
@settings(max_examples=200, deadline=None)
@given(
    trs=trackers(min_size=1),
    now=st.floats(0.0, 20.0, allow_nan=False),
)
def test_head_matches_the_old_per_step_sort(make_sched, old_key, trs, now):
    sched = make_sched()
    sched.begin_step(now)
    queue = WaitQueue(sched.queue_key, trs)
    assert queue.head() is min(trs, key=old_key(now))
    assert [queue.pop() for _ in range(len(trs))] == sorted(trs, key=old_key(now))


def test_discard_of_an_unqueued_tracker_is_a_no_op():
    a, b = (RequestTracker(Request(i, 0.0, 8, 4)) for i in range(2))
    queue = WaitQueue(fcfs().queue_key, [a])
    queue.discard(b)
    assert list(queue) == [a]
    queue.discard(a)
    assert len(queue) == 0 and not queue
