"""Tests for the static and continuous batch-assembly policies."""

import pytest

from repro.core.errors import ConfigError
from repro.core.fp16 import FP16_BYTES
from repro.serving.kvcache import KVCacheConfig, PagedKVCache
from repro.serving.request import Request, RequestTracker
from repro.serving.scheduler import (
    SCHEDULERS,
    ContinuousBatchScheduler,
    StaticBatchScheduler,
    WaitQueue,
    make_scheduler,
)


def cache_with(pages, page_tokens=4):
    cfg = KVCacheConfig(
        heads=1,
        head_size=8,
        n_layers=1,
        page_tokens=page_tokens,
        capacity_bytes=pages * page_tokens * 2 * 8 * FP16_BYTES,
    )
    return PagedKVCache(cfg)


def tracker(req_id, prompt=8, new=4, arrival=0.0):
    return RequestTracker(Request(req_id, arrival, prompt, new))


class TestRegistry:
    def test_make_scheduler(self):
        assert set(SCHEDULERS) == {"static", "continuous", "slo"}
        assert isinstance(make_scheduler("static"), StaticBatchScheduler)
        assert isinstance(make_scheduler("continuous"), ContinuousBatchScheduler)
        assert isinstance(make_scheduler("slo"), ContinuousBatchScheduler)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_scheduler("orca")

    @pytest.mark.parametrize("kwargs", [dict(max_batch_size=0), dict(max_batch_tokens=0)])
    def test_invalid_limits(self, kwargs):
        with pytest.raises(ConfigError):
            make_scheduler("static", **kwargs)


class TestStaticBatchScheduler:
    def test_admits_only_when_device_empty(self):
        sched = make_scheduler("static")
        cache = cache_with(pages=64)
        running = [tracker(99)]
        waiting = WaitQueue(sched.queue_key, [tracker(0)])
        assert sched.admit(waiting, running, cache) == []
        assert len(waiting) == 1            # untouched while batch drains

    def test_reserves_worst_case(self):
        sched = make_scheduler("static")
        cache = cache_with(pages=64, page_tokens=4)
        tr = tracker(0, prompt=8, new=4)    # max_context 12 -> 3 pages
        assert sched.admit(WaitQueue(sched.queue_key, [tr]), [], cache) == [tr]
        assert cache.pages_of(0) == 3

    def test_fcfs_never_skips_head(self):
        """A too-big head blocks the queue; later requests must not jump it."""
        sched = make_scheduler("static")
        cache = cache_with(pages=8, page_tokens=4)
        big = tracker(0, prompt=16, new=8)      # 6 pages
        small = tracker(1, prompt=8, new=4)     # 3 pages > 2 free
        admitted = sched.admit(WaitQueue(sched.queue_key, [big, small]), [], cache)
        assert admitted == [big]                # small waits its turn

    def test_head_that_does_not_fit_waits(self):
        """A head exceeding the currently-free pages just waits; requests
        that can never fit at all are rejected by the engine up front, so
        admit never needs to raise mid-simulation."""
        sched = make_scheduler("static")
        cache = cache_with(pages=2, page_tokens=4)
        huge = tracker(0, prompt=32, new=8)
        waiting = WaitQueue(sched.queue_key, [huge])
        assert sched.admit(waiting, [], cache) == []
        assert list(waiting) == [huge]      # still queued, nothing reserved
        assert cache.used_pages == 0

    def test_token_budget_bounds_batch(self):
        sched = make_scheduler("static", max_batch_tokens=16)
        cache = cache_with(pages=64)
        a, b = tracker(0, prompt=8, new=4), tracker(1, prompt=8, new=4)
        waiting = WaitQueue(sched.queue_key, [a, b])
        assert sched.admit(waiting, [], cache) == [a]   # 12 + 12 > 16

    def test_finished_members_do_not_pad_decode(self):
        """Both policies price exactly the live rows: a drained member in a
        locked static batch contributes no phantom decode work (padded
        replay used to make static steps price cheaper per live row than
        continuous ones, breaking the throughput ordering)."""
        done = tracker(0, prompt=8, new=4)
        done.generated = 4                  # context 12, max_context 12
        live = tracker(1, prompt=8, new=4)
        for name in ("static", "continuous"):
            members = make_scheduler(name).decode_members([done, live])
            assert members == [(live, 8)]

    def test_release_only_on_full_drain(self):
        sched = make_scheduler("static")
        done, live = tracker(0, new=1), tracker(1, new=4)
        done.generated = 1
        assert sched.releasable([done, live]) == []
        live.generated = 4
        assert sched.releasable([done, live]) == [done, live]

    def test_no_preemption(self):
        assert not make_scheduler("static").allows_preemption


class TestContinuousBatchScheduler:
    def test_joins_a_running_batch(self):
        sched = make_scheduler("continuous")
        cache = cache_with(pages=64)
        resident = tracker(0)
        cache.reserve(0, resident.context_len)
        joiner = tracker(1)
        waiting = WaitQueue(sched.queue_key, [joiner])
        assert sched.admit(waiting, [resident], cache) == [joiner]
        assert cache.pages_of(1) == cache.config.pages_for(joiner.context_len)

    def test_reserves_current_context_only(self):
        sched = make_scheduler("continuous")
        cache = cache_with(pages=64, page_tokens=4)
        tr = tracker(0, prompt=8, new=100)   # worst case would be 27 pages
        sched.admit(WaitQueue(sched.queue_key, [tr]), [], cache)
        assert cache.pages_of(0) == 2        # just the prompt

    def test_token_budget_counts_residents(self):
        sched = make_scheduler("continuous", max_batch_tokens=20)
        cache = cache_with(pages=64)
        resident = tracker(0, prompt=16, new=4)
        cache.reserve(0, resident.context_len)
        joiner = tracker(1, prompt=8, new=4)
        waiting = WaitQueue(sched.queue_key, [joiner])
        assert sched.admit(waiting, [resident], cache) == []   # 16 + 8 > 20

    def test_headroom_guard_keeps_decode_pages(self):
        """Admission leaves >= one free page per resident so the very next
        decode step does not immediately preempt."""
        sched = make_scheduler("continuous")
        cache = cache_with(pages=4, page_tokens=4)
        resident = tracker(0, prompt=8, new=4)
        cache.reserve(0, resident.context_len)      # 2 pages
        joiner = tracker(1, prompt=8, new=4)        # would take the last 2
        waiting = WaitQueue(sched.queue_key, [joiner])
        assert sched.admit(waiting, [resident], cache) == []
        assert cache.pages_of(1) == 0               # rolled back

    def test_empty_device_always_admits_solo_fit(self):
        sched = make_scheduler("continuous")
        cache = cache_with(pages=2, page_tokens=4)
        tr = tracker(0, prompt=8, new=4)
        assert sched.admit(WaitQueue(sched.queue_key, [tr]), [], cache) == [tr]

    def test_decode_members_skip_finished(self):
        sched = make_scheduler("continuous")
        done, live = tracker(0, new=1), tracker(1, prompt=8, new=4)
        done.generated = 1
        assert sched.decode_members([done, live]) == [(live, 8)]

    def test_release_immediately(self):
        sched = make_scheduler("continuous")
        done, live = tracker(0, new=1), tracker(1, new=4)
        done.generated = 1
        assert sched.releasable([done, live]) == [done]

    def test_allows_preemption(self):
        assert make_scheduler("continuous").allows_preemption
