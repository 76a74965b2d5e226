"""One definition per serving metric: fleet reports are merged reports.

``ServingReport.merge`` folds replica reports into one; a
``ShardedServingReport`` is such a merge plus the fleet's own fields, so
its percentiles, latency and tenant rows must equal those of a plain
``ServingReport`` over the same per-request metrics.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FleetConfig, SLOPolicy, serve
from repro.core.errors import ConfigError
from repro.parallel import ShardedServingReport
from repro.serving import (
    RequestMetrics,
    ServingConfig,
    ServingReport,
    make_scenario,
    tenant_reports,
)

CONFIG = ServingConfig(heads=4, head_size=16, n_layers=2)


def plain_report(requests, slo_policy) -> ServingReport:
    """A single-run report carrying nothing but ``requests``."""
    return ServingReport(
        policy="continuous", pattern="causal", device="A100",
        n_requests=len(requests), completed=len(requests), makespan_s=1.0,
        total_tokens=0, total_steps=0, preemptions=0, kv_peak_occupancy=0.0,
        requests=list(requests),
        tenants=tenant_reports(requests, slo_policy=slo_policy),
    )


@settings(max_examples=8, deadline=None)
@given(
    dp=st.sampled_from((1, 2, 3)),
    seed=st.integers(0, 2**16),
    autoscale=st.booleans(),
    slo=st.booleans(),
)
def test_fleet_metrics_have_the_single_report_definition(
    dp, seed, autoscale, slo
):
    workload = make_scenario("diurnal", n_requests=24, rate_rps=4000.0)
    policy = SLOPolicy() if slo else None
    fleet = (
        FleetConfig(autoscale=True, max_replicas=dp) if autoscale
        else FleetConfig(shard=f"dp{dp}")
    )
    report = serve(CONFIG, workload, fleet=fleet, slo=policy, seed=seed)
    merged = report.sharded if autoscale else report
    assert isinstance(merged, ShardedServingReport)

    assert [m.req_id for m in merged.requests] == sorted(
        m.req_id for rep in merged.replicas for m in rep.requests
    )
    assert merged.completed == len(merged.requests) == 24
    assert merged.total_tokens == sum(m.tokens for m in merged.requests)

    plain = plain_report(merged.requests, policy)
    for q in (50, 90, 95, 99):
        assert merged.ttft_p(q) == plain.ttft_p(q)
        assert merged.itl_p(q) == plain.itl_p(q)
        assert merged.itl_tail_p(q) == plain.itl_tail_p(q)
    assert merged.itl_max_s == plain.itl_max_s
    assert merged.mean_latency_s == plain.mean_latency_s
    assert len(merged.tenants) > 1          # the trace is multi-tenant
    assert merged.tenants == plain.tenants


def test_merge_of_one_part_returns_that_part():
    workload = make_scenario("diurnal", n_requests=12, rate_rps=4000.0)
    rep = serve(CONFIG, workload, slo=SLOPolicy(), seed=3)
    assert rep.tenants and rep.completed == 12
    merged = ServingReport.merge(
        [rep], n_requests=rep.n_requests, makespan_s=rep.makespan_s,
        slo_policy=SLOPolicy(), plan_cache=rep.plan_cache,
    )
    assert type(merged) is ServingReport
    for f in dataclasses.fields(ServingReport):
        assert getattr(merged, f.name) == getattr(rep, f.name), f.name


def metrics(req_id, tokens=4):
    return RequestMetrics(
        req_id=req_id, arrival_s=0.0, prompt_len=8, tokens=tokens,
        ttft_s=1e-3 * (req_id + 1), finish_s=1e-2, preemptions=0,
        itl_mean_s=1e-4,
    )


def part(ids, rejected=(), **counters):
    fields = dict(
        policy="continuous", pattern="causal", device="A100",
        n_requests=len(ids) + len(rejected), completed=len(ids),
        makespan_s=1.0, total_tokens=4 * len(ids), total_steps=10,
        preemptions=1, kv_peak_occupancy=0.25,
        rejected_ids=tuple(rejected), requests=[metrics(i) for i in ids],
    )
    fields.update(counters)
    return ServingReport(**fields)


def test_merge_adds_counters_and_keeps_the_busiest_device_peak():
    a = part((0, 3), rejected=(5,), kv_peak_occupancy=0.5,
             lora_peak_resident=2, lora_swaps=3, cow_forks=1)
    b = part((1, 2, 4), pattern="causal+random", kv_peak_occupancy=0.25,
             lora_peak_resident=4, lora_swaps=1, prefill_chunks=7)
    merged = ServingReport.merge([a, b], n_requests=6, makespan_s=2.0)
    assert merged.completed == 5 and merged.rejected_ids == (5,)
    assert merged.total_tokens == 20 and merged.total_steps == 20
    assert merged.preemptions == 2 and merged.lora_swaps == 4
    assert merged.cow_forks == 1 and merged.prefill_chunks == 7
    assert merged.kv_peak_occupancy == 0.5
    assert merged.lora_peak_resident == 4
    assert merged.pattern == "causal+random"
    assert [m.req_id for m in merged.requests] == [0, 1, 2, 3, 4]
    assert merged.tenants == ()             # no part reported tenants
    assert merged.n_requests == 6 and merged.makespan_s == 2.0


def test_merge_of_nothing_is_a_config_error():
    with pytest.raises(ConfigError):
        ServingReport.merge([], n_requests=0, makespan_s=0.0)
