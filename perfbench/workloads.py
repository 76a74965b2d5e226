"""The benchmark's four workloads.

Each workload makes its inputs from the seed (``make_inputs``, timed as
set-up), hands only those inputs to the program (``run``, the timed
phase), and then checks the outputs (``check``), reports its simulated
end-to-end statistics (``sim_metrics``) and hashes every simulated
statistic (``sim_record``, fed to the digest).  Host-side state such as
plan-cache statistics stays out of the digest, so a host-only change
leaves it identical.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.core.errors import ReproError
from repro.core.fp16 import fp16_allclose
from repro.core.rng import RngStream
from repro.mha.problem import AttentionProblem
from repro.mha.reference import reference_attention
from repro.models import ModelConfig
from repro.parallel import FleetConfig
from repro.serving import SLOPolicy, TenantSpec, WorkloadSpec
from repro.serving.lora import LoRAConfig
from repro.serving.request import Request
from repro.serving.slo import TenantSLO
from repro.serving.spec_decode import SpeculativeConfig
from repro.serving.workload import DEFAULT_TENANTS, PoissonArrivals, make_scenario

from measure import geomean, nearest_rank, tail

#: The paper's four evaluation mask patterns (§5.1.2).
PAPER_PATTERNS = ("sliding_window", "dilated", "longformer", "bigbird")


@dataclass
class Outcome:
    """Operations attempted and failed by one pass, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(what)


def _strip_host_state(obj):
    """Drop plan-cache statistics (host-side) from a report's record."""
    if isinstance(obj, dict):
        return {k: _strip_host_state(v) for k, v in obj.items() if k != "plan_cache"}
    if isinstance(obj, list):
        return [_strip_host_state(v) for v in obj]
    return obj


# ------------------------------------------------------------------ serving


class ServingWorkload:
    """Shared checks and metrics of the three ``repro.serve`` workloads."""

    name = ""
    model = "bert-base"
    #: True where a quarter-size pass measures ``scaling_exponent``.
    scales = False

    def serve_kwargs(self) -> dict:
        return {}

    def make_trace(self, seed: int, fraction: float) -> list[Request]:
        raise NotImplementedError

    def make_inputs(self, seed: int, fraction: float = 1.0) -> dict:
        return {"seed": seed, "trace": self.make_trace(seed, fraction)}

    def run(self, inputs: dict):
        return repro.serve(
            self.model, inputs["trace"], seed=inputs["seed"], **self.serve_kwargs()
        )

    @staticmethod
    def view(report):
        """The merged serving report (fleet runs wrap one)."""
        return getattr(report, "sharded", report)

    def check(self, inputs: dict, report) -> Outcome:
        trace = inputs["trace"]
        view = self.view(report)
        out = Outcome(attempted=len(trace))
        budget = {r.req_id: r.max_new_tokens for r in trace}
        done = view.requests
        unfinished = len(trace) - view.completed - view.rejected
        if view.rejected:
            out.fail(f"{view.rejected} requests rejected", view.rejected)
        if unfinished:
            out.fail(f"{unfinished} requests neither finished nor rejected", unfinished)
        if view.completed != len(done):
            out.fail("completed count disagrees with per-request metrics")
        for m in done:
            bad = []
            if m.tokens != budget[m.req_id]:
                bad.append(f"generated {m.tokens} of {budget[m.req_id]} tokens")
            for label, v in (("ttft", m.ttft_s), ("itl", m.itl_mean_s)):
                if math.isnan(v) or v < 0:
                    bad.append(f"{label} = {v}")
            if bad:
                out.fail(f"request {m.req_id}: " + ", ".join(bad))
        if view.kv_peak_used_pages > view.kv_peak_logical_pages:
            out.fail(
                f"shared peak pages {view.kv_peak_used_pages} exceed logical "
                f"peak {view.kv_peak_logical_pages}"
            )
        return out

    def sim_metrics(self, inputs: dict, report) -> dict:
        view = self.view(report)
        ttfts = [m.ttft_s for m in view.requests if m.has_first_token]
        itls = [m.itl_mean_s for m in view.requests if m.tokens > 1]
        ttft_q, ttft_tail = tail(ttfts)
        itl_q, itl_tail = tail(itls)
        return {
            "sim_ttft_p50_ms": nearest_rank(ttfts, 50) * 1e3,
            "sim_ttft_tail_ms": None if ttft_tail is None else ttft_tail * 1e3,
            "sim_ttft_tail_pct": ttft_q,
            "sim_ttft_samples": len(ttfts),
            "sim_itl_p50_ms": nearest_rank(itls, 50) * 1e3,
            "sim_itl_tail_ms": None if itl_tail is None else itl_tail * 1e3,
            "sim_itl_tail_pct": itl_q,
            "sim_itl_samples": len(itls),
            "sim_tokens_per_s": view.tokens_per_s,
        }

    def sim_record(self, inputs: dict, report):
        return _strip_host_state(dataclasses.asdict(report))

    def program_counts(self, inputs: dict, report) -> dict:
        """Per-layer counts the program's own report keeps."""
        view = self.view(report)
        reps = getattr(view, "replicas", [view])
        logical = view.kv_peak_logical_pages
        return {
            "engine.steps": view.total_steps,
            "kv.prefix_saved_frac": (
                1.0 - view.kv_peak_used_pages / logical if logical else 0.0
            ),
            "kv.peak_occupancy": max(r.kv_peak_occupancy for r in reps),
            "spec.accept_frac": (
                view.spec_accepted / view.spec_proposed if view.spec_proposed else 0.0
            ),
            "lora.swaps": view.lora_swaps,
            "fleet.scale_events": getattr(report, "scale_events", 0),
            "fleet.peak_replicas": getattr(report, "peak_replicas", 0),
        }


class LongContext(ServingWorkload):
    """2–4k-token prompts, one tenant per paper mask pattern, below capacity."""

    name = "long-context"
    n_requests = 12
    rate_rps = 20.0
    prompt_range = (2048, 4096)
    max_new_range = (16, 64)

    def make_trace(self, seed: int, fraction: float) -> list[Request]:
        # Prompt lengths are stratified over the range: request k draws
        # its length from the k-th of n equal slices, and slice k goes to
        # pattern k mod 4, so every tenant spans the range.  Host time
        # grows with the sum of L², and peak memory with the masks already
        # held when the longest prompts arrive; plain uniform draws in
        # random order would spread both by ~10% across seeds at this
        # request count.
        n = max(1, round(self.n_requests * fraction))
        rng = RngStream(seed).fork("long-context")
        lo, hi = self.prompt_range
        width = (hi - lo) / n
        arrivals = PoissonArrivals(self.rate_rps)
        clock, trace = 0.0, []
        for k in range(n):
            clock = arrivals.next_arrival(clock, rng)
            pattern = PAPER_PATTERNS[k % len(PAPER_PATTERNS)]
            trace.append(Request(
                req_id=k,
                arrival_s=clock,
                prompt_len=lo + int((k + rng.random()) * width),
                max_new_tokens=int(rng.integers(self.max_new_range[0],
                                                self.max_new_range[1] + 1)),
                pattern=pattern,
                tenant=pattern,
            ))
        return trace


class OfflineBatch(ServingWorkload):
    """Thousands of short causal prompts, all submitted at t=0."""

    name = "offline-batch"
    n_requests = 2000
    scales = True

    def make_trace(self, seed: int, fraction: float) -> list[Request]:
        n = max(1, round(self.n_requests * fraction))
        spec = WorkloadSpec(n, PoissonArrivals(1.0), tenants=(TenantSpec(name=""),))
        trace = spec.generate(RngStream(seed).fork("offline-batch"))
        return [dataclasses.replace(r, arrival_s=0.0) for r in trace]


class FleetMix(ServingWorkload):
    """The production path: autoscaled TP fleet, SLO admission, every feature."""

    name = "fleet-mix"
    n_requests = 1200
    rate_rps = 10000.0
    #: Tight enough that queueing near capacity misses some targets.
    slo = SLOPolicy(targets=(
        TenantSLO("chat", ttft_target_s=0.010, itl_target_s=0.002),
        TenantSLO("agent", ttft_target_s=0.020, itl_target_s=0.003),
        TenantSLO("batch", ttft_target_s=0.050, itl_target_s=0.005),
    ))

    def serve_kwargs(self) -> dict:
        return {
            "fleet": FleetConfig(shard="tp2", autoscale=True),
            "slo": self.slo,
            "spec_decode": SpeculativeConfig(),
            "chunk_prefill_tokens": 512,
            "lora": LoRAConfig(),
        }

    def make_trace(self, seed: int, fraction: float) -> list[Request]:
        n = max(1, round(self.n_requests * fraction))
        tenants = tuple(
            dataclasses.replace(t, adapter_pool=12) if t.name == "batch" else t
            for t in DEFAULT_TENANTS
        )
        spec = make_scenario("diurnal", n_requests=n, rate_rps=self.rate_rps,
                             tenants=tenants)
        return spec.generate(RngStream(seed).fork("fleet-mix"))

    def sim_metrics(self, inputs: dict, report) -> dict:
        out = super().sim_metrics(inputs, report)
        # Failed requests never appear in ``requests``: they count as misses.
        met = 0
        for m in report.sharded.requests:
            target = self.slo.target_for(m.tenant)
            ttft_ok = m.has_first_token and m.ttft_s <= target.ttft_target_s
            itl_ok = m.tokens <= 1 or m.itl_mean_s <= target.itl_target_s
            met += ttft_ok and itl_ok
        out["sim_slo_attainment"] = met / len(inputs["trace"])
        out["sim_gpu_s_per_1k_tokens"] = report.cost_per_1k_tokens
        return out


# ------------------------------------------------------------------ compile


class PaperCompile:
    """The Fig. 12 sweep plus functional runs under every mask pattern."""

    name = "paper-compile"
    scales = False
    models = ("bert-small", "gpt")
    #: The smallest and largest Fig. 12 shapes (the middle one adds host
    #: time but no new code path).
    settings = ((1, 128), (16, 2048))
    device = "a100"
    mask = "bigbird"
    #: Functional runs: a small encoder (the zoo models spend their run
    #: drawing vocabulary-sized weights), checked against PyTorch Native,
    #: and a bare MHA problem checked against dense reference attention.
    functional_model = (
        ModelConfig("bench-small", 2, 0, 256, 4, 1024, vocab=1000), 1, 256,
    )
    functional_mha = dict(batch=1, heads=4, seq_len=256, head_size=64)
    #: Baseline cells the paper itself leaves empty (e.g. ByteTransformer
    #: at seq 2048): results, not failures.
    expected_missing = ("unsupported", "oom")

    def make_inputs(self, seed: int, fraction: float = 1.0) -> dict:
        grid = [(m, bs, seq) for m in self.models for bs, seq in self.settings]
        return {"seed": seed, "grid": grid}

    def run(self, inputs: dict) -> dict:
        seed = inputs["seed"]
        cells, errors = {}, {}
        for model, bs, seq in inputs["grid"]:
            try:
                cells[(model, bs, seq)] = repro.compare_engines(
                    model, bs, seq, device=self.device, mask=self.mask, seed=seed
                )
            except ReproError as exc:
                errors[(model, bs, seq)] = repr(exc)
        model, bs, seq = self.functional_model
        functional = {}
        for pattern in PAPER_PATTERNS:
            stof = repro.compile_model(model, bs, seq, device=self.device,
                                       mask=pattern, seed=seed)
            native = repro.compile_model(model, bs, seq, device=self.device,
                                         mask=pattern, seed=seed,
                                         engine="pytorch-native")
            problem = AttentionProblem.build(
                pattern, rng=RngStream(seed).fork(f"mha-{pattern}"),
                with_tensors=True, **self.functional_mha,
            )
            functional[pattern] = {
                "model": (stof.run(), native.run()),
                "mha": (
                    repro.UnifiedMHA(repro.get_spec(self.device)).run(problem),
                    reference_attention(problem.q, problem.k, problem.v, problem.mask),
                ),
            }
        return {"cells": cells, "errors": errors, "functional": functional}

    def check(self, inputs: dict, result: dict) -> Outcome:
        out = Outcome()
        for point, exc in result["errors"].items():
            out.attempted += 1
            out.fail(f"{point}: {exc}")
        for point, engines in result["cells"].items():
            out.attempted += len(engines)
            for name, cell in engines.items():
                if isinstance(cell, str) and cell not in self.expected_missing:
                    out.fail(f"{point} {name}: {cell}")
            stof, native = engines.get("stof"), engines.get("pytorch-native")
            if isinstance(stof, str) or stof is None:
                out.fail(f"{point}: STOF unsupported")
                continue
            if not stof.latency_s > 0:
                out.fail(f"{point}: STOF latency {stof.latency_s}")
            if not isinstance(native, str) and stof.latency_s > native.latency_s:
                out.fail(f"{point}: STOF slower than PyTorch Native")
        for pattern, runs in result["functional"].items():
            for kind, (got, want) in runs.items():
                out.attempted += 1
                if got.shape != want.shape or not np.all(np.isfinite(got)):
                    out.fail(f"{pattern} {kind}: bad output")
                elif not fp16_allclose(got, want, rtol=1e-1, atol=1e-2):
                    out.fail(f"{pattern} {kind}: output differs from reference")
        return out

    def sim_metrics(self, inputs: dict, result: dict) -> dict:
        speedups, tuning = [], 0.0
        for engines in result["cells"].values():
            stof, native = engines.get("stof"), engines.get("pytorch-native")
            if isinstance(stof, str) or isinstance(native, str):
                continue
            speedups.append(native.latency_s / stof.latency_s)
            tuning += stof.tuning_time_s
        return {
            "sim_stof_speedup_geomean": geomean(speedups) if speedups else None,
            "sim_tuning_s": tuning,
            "sim_grid_points": len(result["cells"]),
        }

    def sim_record(self, inputs: dict, result: dict):
        record = []
        for (model, bs, seq), engines in sorted(result["cells"].items()):
            for name, cell in sorted(engines.items()):
                if isinstance(cell, str):
                    record.append([model, bs, seq, name, cell])
                    continue
                r = cell.report
                record.append([
                    model, bs, seq, name, r.time_s, r.mha_time_s,
                    r.downstream_time_s, r.kernel_launches, r.dram_bytes,
                    r.flops, r.memory_bytes, r.tuning_time_s,
                ])
        return {"grid": record, "errors": sorted(map(str, result["errors"]))}

    def program_counts(self, inputs: dict, result: dict) -> dict:
        return {
            "runtime.unsupported": sum(
                isinstance(c, str)
                for engines in result["cells"].values()
                for c in engines.values()
            ),
        }


WORKLOADS = {w.name: w for w in (LongContext(), OfflineBatch(), FleetMix(), PaperCompile())}
