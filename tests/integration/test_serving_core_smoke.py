"""Serving-core smoke: the waiting queue does linear work.

The engine keeps its waiters in a heap keyed by the scheduler's
``queue_key``, so each request's key is computed once per push: once on
arrival and once per recompute preemption.  A per-step re-sort would
evaluate it for every waiter on every step instead, which made wall time
quadratic in the queue length when thousands of requests arrive at once.

Two traces guard it: 2000 requests all arriving at t=0 under continuous
batching (the queue is ~1000 deep for thousands of steps), and a
300-request diurnal three-tenant trace under SLO admission with a KV
cache small enough to force preemptions.  A third trace reaches the one
O(n) queue operation, ``WaitQueue.discard``: a request preempted in the
same step its first token finishes it.

CI runs this module under ``-W error``.
"""

import dataclasses

import pytest

from repro.core.rng import RngStream
from repro.gpu.specs import A100
from repro.serving import (
    ServingConfig,
    ServingEngine,
    SLOPolicy,
    SLOScheduler,
    TenantSLO,
    make_scenario,
)
from repro.serving.request import Request, synthetic_trace
from repro.serving.scheduler import ContinuousBatchScheduler, WaitQueue
from repro.serving.spec_decode import SpeculativeConfig


def count_queue_keys(scheduler):
    """Wrap ``scheduler.queue_key`` and return its live call counter."""
    calls = [0]
    key = scheduler.queue_key

    def counted(tr):
        calls[0] += 1
        return key(tr)

    scheduler.queue_key = counted
    return calls


def serve_counted(scheduler, trace, config, seed):
    calls = count_queue_keys(scheduler)
    report = ServingEngine(A100, scheduler, config).run(trace, rng=RngStream(seed))
    return report, calls[0]


@pytest.fixture(scope="module")
def offline_batch():
    trace = [
        dataclasses.replace(r, arrival_s=0.0)
        for r in synthetic_trace(2000, 1.0, rng=RngStream(3))
    ]
    return trace, *serve_counted(
        ContinuousBatchScheduler(), trace, ServingConfig(), seed=3
    )


@pytest.fixture(scope="module")
def slo_diurnal():
    trace = make_scenario("diurnal", n_requests=300, rate_rps=10_000.0).generate(
        RngStream(4)
    )
    policy = SLOPolicy(targets=(
        TenantSLO("chat", ttft_target_s=0.010),
        TenantSLO("agent", ttft_target_s=0.020),
        TenantSLO("batch", ttft_target_s=0.050),
    ))
    return trace, *serve_counted(
        SLOScheduler(64, 65536, policy=policy),
        trace,
        ServingConfig(kv_capacity_frac=0.0005),
        seed=4,
    )


def test_t0_trace_keys_each_request_once(offline_batch):
    trace, report, key_calls = offline_batch
    assert report.completed == len(trace) and report.rejected == 0
    assert report.total_steps > len(trace)      # a per-step key would show
    assert key_calls == len(trace) + report.preemptions


def test_slo_trace_keys_once_per_push(slo_diurnal):
    trace, report, key_calls = slo_diurnal
    assert report.completed == len(trace) and report.rejected == 0
    assert report.preemptions > 0               # re-queues are pushes too
    assert key_calls == len(trace) + report.preemptions


def test_request_preempted_as_it_finishes_leaves_the_queue(monkeypatch):
    """Four long decodes with 8-token speculation on 4-token pages outgrow
    a tiny cache; the 1-token requests streaming in are the latest
    arrivals, so one is evicted in the step its prefill token finishes it.
    It must leave the queue then, not be admitted again."""
    discarded = []
    discard = WaitQueue.discard

    def spy(self, tr):
        discarded.append(tr.req_id)
        discard(self, tr)

    monkeypatch.setattr(WaitQueue, "discard", spy)
    trace = [Request(i, 0.0, 64, 300) for i in range(4)]
    trace += [Request(4 + j, 1e-4 * (j + 1), 48, 1) for j in range(200)]
    config = ServingConfig(
        n_layers=4,
        kv_capacity_frac=0.0003,
        kv_page_tokens=4,
        spec_decode=SpeculativeConfig(draft_tokens=8),
    )
    report, key_calls = serve_counted(
        ContinuousBatchScheduler(), trace, config, seed=0
    )
    assert discarded                             # the path is reached
    assert report.completed == len(trace) and report.rejected == 0
    assert sorted(m.req_id for m in report.requests) == list(range(len(trace)))
    budget = {r.req_id: r.max_new_tokens for r in trace}
    assert all(m.tokens == budget[m.req_id] for m in report.requests)
    assert key_calls == len(trace) + report.preemptions
