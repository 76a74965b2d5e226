"""End-to-end instrumentation: compile/tuner spans and kernel/cache counters."""

import numpy as np
import pytest

from repro.api import compile_model
from repro.mha.blockwise import BlockWiseKernel
from repro.mha.problem import AttentionProblem
from repro.mha.rowwise import RowWiseKernel
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import NULL_TRACER, Tracer, current_tracer


def make_problem(seq=64, density=0.4, seed=0):
    """Random-mask problem; low density over a long seq forces gather."""
    g = np.random.default_rng(seed)
    mask = g.random((seq, seq)) < density
    mask[np.arange(seq), np.arange(seq)] = True   # keep every row non-empty
    prob = AttentionProblem(1, 2, seq, 16, mask)
    shape = prob.qkv_shape
    prob.q = (g.standard_normal(shape) * 0.5).astype(np.float16)
    prob.k = (g.standard_normal(shape) * 0.5).astype(np.float16)
    prob.v = (g.standard_normal(shape) * 0.5).astype(np.float16)
    return prob


def causal_problem(seq=64, seed=1):
    prob = make_problem(seq, density=0.0, seed=seed)
    prob.mask[:] = np.tril(np.ones((seq, seq), dtype=bool))
    return prob


@pytest.fixture(scope="module")
def traced_compile():
    tracer = Tracer()
    metrics = MetricsRegistry()
    with use_metrics(metrics):
        compiled = compile_model(
            "bert-small", 1, 64, engine="stof", trace=tracer
        )
    return tracer, metrics, compiled


class TestCompileSpans:
    def test_runtime_plan_span_present(self, traced_compile):
        tracer, _, _ = traced_compile
        plans = tracer.find(name="runtime.plan")
        assert plans
        assert plans[0].args["engine"] == "stof"
        assert plans[0].model_s > 0

    def test_kernel_spans_match_launch_count(self, traced_compile):
        tracer, _, compiled = traced_compile
        plan = tracer.find(name="runtime.plan")[0]
        kernels = tracer.find(cat="mha") + tracer.find(cat="fused")
        assert len(kernels) == plan.args["launches"]
        assert len(kernels) == compiled.report.kernel_launches
        assert all(s.sim for s in kernels)
        # Kernel spans carry pure kernel time; dispatch overhead sits on
        # the host lane.  Together they reproduce the priced report.
        total = sum(s.model_s for s in kernels)
        total += sum(s.dur for s in tracer.find(cat="host"))
        assert total == pytest.approx(
            compiled.report.mha_time_s + compiled.report.downstream_time_s,
            rel=1e-6,
        )

    def test_dispatch_lane_mirrors_kernels(self, traced_compile):
        tracer, _, _ = traced_compile
        dispatches = tracer.find(cat="host")
        kernels = tracer.find(cat="mha") + tracer.find(cat="fused")
        assert len(dispatches) == len(kernels)

    def test_tuner_spans(self, traced_compile):
        tracer, _, _ = traced_compile
        chains = tracer.find(name="tune.chain")
        assert chains
        for chain in chains:
            names = [c.name for c in chain.children]
            assert "tune.stage1" in names and "tune.stage2" in names
            assert chain.args["schemes_tried"] >= 1

    def test_global_tracer_untouched(self, traced_compile):
        assert current_tracer() is NULL_TRACER

    def test_untraced_compile_records_nothing(self):
        compiled = compile_model("bert-small", 1, 64, engine="stof")
        assert compiled.report.time_s > 0
        assert current_tracer() is NULL_TRACER


class TestCompileCounters:
    def test_plan_cache_lookup_counters(self, traced_compile):
        _, metrics, _ = traced_compile
        snap = metrics.as_dict()
        assert "plan_cache.lookups" in snap
        kinds = {
            labels for labels in snap["plan_cache.lookups"]["series"]
        }
        assert any("runtime-chain" in k for k in kinds)
        assert any("outcome=miss" in k for k in kinds)

    def test_tuner_evaluation_counters(self, traced_compile):
        _, metrics, _ = traced_compile
        snap = metrics.as_dict()
        series = snap["tuner.evaluations"]["series"]
        assert series.get("outcome=miss", 0) > 0
        assert snap["tuner.simulated_cost_s"]["series"][""] > 0


class TestKernelCounters:
    def test_rowwise_gather_counters(self):
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            # ~5 columns per row scattered across 512 keys: far past the
            # dense-range locality threshold, so every group gathers.
            RowWiseKernel().run(make_problem(seq=512, density=0.01))
        snap = metrics.as_dict()
        paths = snap["mha.path"]["series"]
        assert any("path=gather" in k for k in paths)
        gather = snap["mha.gather_bytes"]["series"]
        assert sum(gather.values()) > 0
        assert sum(snap["mha.bucket_rows"]["series"].values()) > 0
        assert sum(snap["mha.chunks"]["series"].values()) >= 1

    def test_rowwise_dense_range_counters(self):
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            RowWiseKernel().run(causal_problem())
        paths = metrics.as_dict()["mha.path"]["series"]
        assert any("path=dense_range" in k for k in paths)

    def test_blockwise_counters(self):
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            BlockWiseKernel().run(
                make_problem(),
                {"block_m": 16, "block_n": 16, "num_warps": 4, "padding": 16},
            )
        snap = metrics.as_dict()
        assert any(
            "kernel=" in k for k in snap["mha.path"]["series"]
        )

    @pytest.mark.parametrize("cls", [RowWiseKernel, BlockWiseKernel])
    def test_warm_run_counts_again(self, cls):
        # The second run reuses the bound generated module (no emission)
        # and still records its groups: every series doubles exactly.
        prob = make_problem(seq=512, density=0.01)
        params = cls().default_params(prob, None)
        metrics = MetricsRegistry()
        with use_metrics(metrics):
            cls().run(prob, params)
            cold = {
                name: dict(snap["series"])
                for name, snap in metrics.as_dict().items()
                if name.startswith("mha.")
            }
            cls().run(prob, params)
        warm = metrics.as_dict()
        assert cold and "mha.path" in cold
        for name, series in cold.items():
            assert warm[name]["series"] == {k: 2 * v for k, v in series.items()}

    def test_kernels_silent_by_default(self):
        # No registry installed: the run must not leak series anywhere.
        metrics = MetricsRegistry()
        RowWiseKernel().run(make_problem())
        assert len(metrics) == 0


class TestResultsUnchangedByInstrumentation:
    def test_traced_equals_untraced(self, traced_compile):
        _, _, compiled = traced_compile
        bare = compile_model("bert-small", 1, 64, engine="stof")
        assert bare.report.time_s == pytest.approx(
            compiled.report.time_s, rel=1e-9
        )

    def test_kernel_output_unchanged(self):
        prob = make_problem(seed=7)
        base = RowWiseKernel().run(prob)
        with use_metrics(MetricsRegistry()):
            traced = RowWiseKernel().run(prob)
        np.testing.assert_array_equal(base, traced)
