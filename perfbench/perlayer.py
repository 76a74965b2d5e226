"""Per-layer metrics of the traced run.

``PER_LAYER`` is the single list of per-layer metric names, units and
directions; ``BENCHMARK.json`` mirrors it.  Every metric is reported on
every workload: a layer a workload does not reach reads 0.

``PREDICTIONS`` records, before any optimisation lands, which end-to-end
metric each layer should move, on which workload, and where the
prediction is no change.
"""

from __future__ import annotations

from layertrace import LayerTracer

#: ``(name, unit, better)``.
PER_LAYER = (
    ("masks.host_s", "s", "lower"),
    ("masks.calls", "count", "lower"),
    ("masks.dense_mb", "MB", "lower"),
    ("mha.host_s", "s", "lower"),
    ("mha.plan_calls", "count", "lower"),
    ("mha.select_calls", "count", "lower"),
    ("mha.run_host_s", "s", "lower"),
    ("gpu.host_s", "s", "lower"),
    ("gpu.estimate_calls", "count", "lower"),
    ("plan.host_s", "s", "lower"),
    ("plan.lookups", "count", "lower"),
    ("plan.hit_rate", "ratio", "higher"),
    ("plan.entries", "count", "lower"),
    ("plan.splits", "count", "lower"),
    ("engine.self_host_s", "s", "lower"),
    ("engine.steps", "count", "lower"),
    ("engine.host_us_per_step", "us", "lower"),
    ("scheduler.host_s", "s", "lower"),
    ("scheduler.calls", "count", "lower"),
    ("scheduler.admitted", "count", "lower"),
    ("slo.host_s", "s", "lower"),
    ("slo.victims", "count", "lower"),
    ("kv.host_s", "s", "lower"),
    ("kv.reserve_calls", "count", "lower"),
    ("kv.reserve_failed", "count", "lower"),
    ("kv.prefix_saved_frac", "ratio", "higher"),
    ("kv.peak_occupancy", "ratio", "lower"),
    ("metrics.host_s", "s", "lower"),
    ("metrics.calls", "count", "lower"),
    ("workload.host_s", "s", "lower"),
    ("spec.host_s", "s", "lower"),
    ("spec.accept_frac", "ratio", "higher"),
    ("lora.host_s", "s", "lower"),
    ("lora.swaps", "count", "lower"),
    ("parallel.host_s", "s", "lower"),
    ("parallel.collective_calls", "count", "lower"),
    ("fleet.scale_events", "count", "lower"),
    ("fleet.peak_replicas", "count", "lower"),
    ("runtime.prepare_host_s", "s", "lower"),
    ("runtime.plan_host_s", "s", "lower"),
    ("runtime.execute_host_s", "s", "lower"),
    ("runtime.unsupported", "count", "lower"),
    ("tuner.host_s", "s", "lower"),
    ("tuner.evaluations", "count", "lower"),
    ("fusion.host_s", "s", "lower"),
    ("models.host_s", "s", "lower"),
    ("codegen.host_s", "s", "lower"),
    ("codegen.calls", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.wrapped_calls", "count", "lower"),
)

#: Metrics whose sum, with ``trace.unattributed_s``, is ``trace.wall_s``:
#: one self-time metric per layer of ``layertrace.LAYERS``.
SELF_TIME = {
    "masks": "masks.host_s",
    "mha": "mha.host_s",
    "gpu": "gpu.host_s",
    "plan": "plan.host_s",
    "engine": "engine.self_host_s",
    "scheduler": "scheduler.host_s",
    "slo": "slo.host_s",
    "kv": "kv.host_s",
    "metrics": "metrics.host_s",
    "workload": "workload.host_s",
    "spec": "spec.host_s",
    "lora": "lora.host_s",
    "parallel": "parallel.host_s",
    "runtime.prepare": "runtime.prepare_host_s",
    "runtime.plan": "runtime.plan_host_s",
    "runtime.execute": "runtime.execute_host_s",
    "tuner": "tuner.host_s",
    "fusion": "fusion.host_s",
    "models": "models.host_s",
    "codegen": "codegen.host_s",
}

#: layer -> (end-to-end metrics it should move, workloads that exercise
#: it, workloads where the prediction is no change).
PREDICTIONS = {
    "masks": (("wall_s", "peak_rss_mb"), ("long-context", "paper-compile"), ("offline-batch",)),
    "mha": (("wall_s",), ("long-context", "paper-compile"), ("offline-batch",)),
    "gpu": (("wall_s",), ("fleet-mix", "paper-compile"), ("long-context",)),
    "plan": (("wall_s",), ("offline-batch", "fleet-mix"), ("long-context",)),
    "engine": (("wall_s", "scaling_exponent"), ("offline-batch",), ("long-context",)),
    "scheduler": (("wall_s", "scaling_exponent"), ("offline-batch",), ("long-context",)),
    "slo": (("wall_s", "sim_slo_attainment"), ("fleet-mix",),
            ("long-context", "offline-batch", "paper-compile")),
    "kv": (("wall_s", "sim_tokens_per_s"), ("fleet-mix", "offline-batch"), ("long-context",)),
    "metrics": (("wall_s",), ("fleet-mix",), ("long-context",)),
    "workload": (("setup_s",), ("offline-batch", "fleet-mix"), ("paper-compile",)),
    "spec": (("sim_tokens_per_s", "sim_itl_p50_ms", "sim_itl_tail_ms"), ("fleet-mix",),
             ("long-context", "offline-batch", "paper-compile")),
    "lora": (("sim_tokens_per_s", "sim_itl_p50_ms", "sim_itl_tail_ms"), ("fleet-mix",),
             ("long-context", "offline-batch", "paper-compile")),
    "parallel": (("wall_s", "sim_gpu_s_per_1k_tokens"), ("fleet-mix",),
                 ("long-context", "offline-batch", "paper-compile")),
    "runtime.prepare": (("wall_s",), ("paper-compile",), ("long-context", "offline-batch", "fleet-mix")),
    "runtime.plan": (("wall_s",), ("paper-compile",), ("long-context", "offline-batch", "fleet-mix")),
    "runtime.execute": (("wall_s",), ("paper-compile",), ("long-context", "offline-batch", "fleet-mix")),
    "tuner": (("wall_s", "sim_tuning_s"), ("paper-compile",), ("long-context", "offline-batch", "fleet-mix")),
    "fusion": (("wall_s",), ("paper-compile",), ("long-context", "offline-batch", "fleet-mix")),
    "models": (("wall_s",), ("paper-compile",), ("long-context", "offline-batch", "fleet-mix")),
    "codegen": (("wall_s",), ("paper-compile",), ("long-context", "offline-batch", "fleet-mix")),
}


def _dense_bytes(extra, args, kwargs, result):
    extra["dense_bytes"] = extra.get("dense_bytes", 0) + getattr(result, "nbytes", 0)


def _from_dense_bytes(extra, args, kwargs, result):
    mask = args[1] if len(args) > 1 else kwargs["mask"]
    extra["dense_bytes"] = extra.get("dense_bytes", 0) + mask.nbytes


def _fingerprint_bytes(extra, args, kwargs, result):
    # The fingerprint hashes the tracker's bool mask at max_context².
    size = args[0].request.max_context
    extra["dense_bytes"] = extra.get("dense_bytes", 0) + size * size


def _admitted(extra, args, kwargs, result):
    extra["admitted"] = extra.get("admitted", 0) + len(result or ())


def _victims(extra, args, kwargs, result):
    extra["victims"] = extra.get("victims", 0) + len(result or ())


def _reserve(extra, args, kwargs, result):
    extra["reserve_failed"] = extra.get("reserve_failed", 0) + (result is False)


def make_tracer() -> tuple[LayerTracer, dict]:
    """A tracer with this benchmark's observers, and the plan caches it
    sees (``id -> PlanCache``, kept alive until their stats are read)."""
    caches: dict[int, object] = {}

    def plan_cache(extra, args, kwargs, result):
        caches.setdefault(id(args[0]), args[0])

    observers = {
        "repro.masks.patterns.make_pattern": _dense_bytes,
        "repro.masks.patterns.causal_mask": _dense_bytes,
        "repro.masks.bsr.BlockSparseMask.from_dense": _from_dense_bytes,
        "repro.serving.request.RequestTracker.full_mask": _dense_bytes,
        "repro.serving.request.RequestTracker.mask_fingerprint": _fingerprint_bytes,
        "repro.serving.scheduler.StaticBatchScheduler.admit": _admitted,
        "repro.serving.scheduler.ContinuousBatchScheduler.admit": _admitted,
        "repro.serving.slo.SLOScheduler.deadline_victims": _victims,
        "repro.serving.kvcache.PagedKVCache.reserve": _reserve,
    }
    for meth in ("get", "put", "get_or_build", "find_family", "get_or_build_family"):
        observers[f"repro.plan.cache.PlanCache.{meth}"] = plan_cache
    return LayerTracer(observers=observers), caches


def collect(tracer: LayerTracer, caches: dict, program_counts: dict,
            traced_wall: float) -> dict[str, float]:
    """The ``PER_LAYER`` metrics of one traced pass, all but the two that
    compare it with untraced passes (``trace.untraced_wall_s``,
    ``trace.overhead_frac``)."""
    selfs = tracer.layer_self_s()
    out = {SELF_TIME[layer]: s for layer, s in selfs.items()}
    stats = [c.stats() for c in caches.values()]
    hits = sum(s["hits"] for s in stats)
    lookups = hits + sum(s["misses"] for s in stats)
    steps = program_counts.get("engine.steps", 0)
    out.update({
        "masks.calls": tracer.calls("masks"),
        "masks.dense_mb": tracer.extra("dense_bytes") / 2**20,
        "mha.plan_calls": (
            tracer.calls("mha", "UnifiedMHA.plan")
            + tracer.calls("mha", "RowWiseKernel.plan")
            + tracer.calls("mha", "plan_rowwise_launches")
        ),
        "mha.select_calls": (
            tracer.calls("mha", "select_block_params") + tracer.calls("mha", "select_kernel")
        ),
        "mha.run_host_s": tracer.self_s("mha", ".run"),
        "gpu.estimate_calls": tracer.calls("gpu"),
        "plan.lookups": lookups,
        "plan.hit_rate": hits / lookups if lookups else 0.0,
        "plan.entries": sum(s["entries"] for s in stats),
        "plan.splits": sum(s["symbolic"]["splits"] for s in stats),
        "engine.steps": steps,
        "engine.host_us_per_step": out["engine.self_host_s"] / steps * 1e6 if steps else 0.0,
        "scheduler.calls": tracer.calls("scheduler"),
        "scheduler.admitted": tracer.extra("admitted"),
        "slo.victims": tracer.extra("victims"),
        "kv.reserve_calls": tracer.calls("kv", ".reserve"),
        "kv.reserve_failed": tracer.extra("reserve_failed"),
        "kv.prefix_saved_frac": program_counts.get("kv.prefix_saved_frac", 0.0),
        "kv.peak_occupancy": program_counts.get("kv.peak_occupancy", 0.0),
        "metrics.calls": tracer.calls("metrics"),
        "spec.accept_frac": program_counts.get("spec.accept_frac", 0.0),
        "lora.swaps": program_counts.get("lora.swaps", 0),
        "parallel.collective_calls": tracer.calls("parallel", "_time"),
        "fleet.scale_events": program_counts.get("fleet.scale_events", 0),
        "fleet.peak_replicas": program_counts.get("fleet.peak_replicas", 0),
        "runtime.unsupported": program_counts.get("runtime.unsupported", 0),
        "tuner.evaluations": tracer.calls("tuner", ".evaluate"),
        "codegen.calls": tracer.calls("codegen"),
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - tracer.top_level_s(),
        "trace.wrapped_calls": sum(s.calls for s in tracer.stats.values()),
    })
    return {name: out[name] for name, _, _ in PER_LAYER if name in out}
