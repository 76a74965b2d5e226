"""Tests of the benchmark's own helpers.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layertrace  # noqa: E402
from layertrace import LAYERS, LayerTracer, import_all  # noqa: E402
from measure import (  # noqa: E402
    REFERENCE_NOMINAL_S,
    canonical,
    digest,
    nearest_rank,
    samples_beyond,
    scaling_exponent,
    speed_scaled,
    tail,
    tail_percentile,
)
from perlayer import PER_LAYER, PREDICTIONS, SELF_TIME  # noqa: E402


# ------------------------------------------------------------ tail rule


@pytest.mark.parametrize(
    ("n", "expected"),
    [(0, None), (12, None), (99, None), (100, 90), (199, 90), (200, 95),
     (999, 95), (1000, 99), (5000, 99)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_tail_value_is_nearest_rank():
    values = [float(v) for v in range(1, 201)]      # 200 samples
    assert tail(values) == (95, 190.0)
    assert tail(values[:50]) == (None, None)
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0


def test_nearest_rank_matches_the_program():
    from repro.serving.metrics import percentile

    values = [0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.8]
    for q in (1, 50, 90, 95, 99, 100):
        assert nearest_rank(values, q) == percentile(values, q)


# ------------------------------------------------------ scaling exponent


def test_scaling_exponent_recovers_power_law():
    for k in (0.5, 1.0, 1.58, 2.0):
        wall_n = 3.0 * 4000 ** k
        wall_q = 3.0 * 1000 ** k
        assert scaling_exponent(wall_n, wall_q) == pytest.approx(k)
    assert scaling_exponent(8.0, 2.0, factor=2.0) == pytest.approx(2.0)


def test_scaling_exponent_rejects_zero():
    with pytest.raises(ValueError):
        scaling_exponent(1.0, 0.0)


# ------------------------------------------------------------ host speed


def test_speed_scaling_cancels_a_uniform_slowdown():
    assert speed_scaled(2.0, REFERENCE_NOMINAL_S) == pytest.approx(2.0)
    # The host runs everything 1.8x slower: the pass and the reference.
    assert speed_scaled(2.0 * 1.8, REFERENCE_NOMINAL_S * 1.8) == pytest.approx(2.0)


def test_speed_scaling_rejects_zero_reference():
    with pytest.raises(ValueError):
        speed_scaled(1.0, 0.0)


# ---------------------------------------------------------------- digest


def test_digest_spells_floats_exactly():
    assert digest({"a": 0.1 + 0.2}) != digest({"a": 0.3})
    assert digest({"b": [1, 2.0], "a": "x"}) == digest({"a": "x", "b": [1, 2.0]})
    assert canonical({"x": (math.nan, 1.5)}) == {"x": ["nan", "1.5"]}


# --------------------------------------------------------- nested self time


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested_tracer(module):
    clock = FakeClock()

    def leaf(dt):
        clock.now += dt

    def mid(dt_before, leaf_dts):
        clock.now += dt_before
        for dt in leaf_dts:
            module.leaf(dt)

    def top():
        clock.now += 1.0
        module.mid(2.0, [0.5, 0.25])
        module.leaf(4.0)

    module.leaf, module.mid, module.top = leaf, mid, top
    entries = (
        ("a", module.__name__, "leaf"),
        ("b", module.__name__, "mid"),
        ("c", module.__name__, "top"),
    )
    return LayerTracer(entries, clock=clock, packages=(module.__name__,)), clock


def test_self_time_subtracts_nested_wrapped_calls():
    import types

    module = types.ModuleType("fakeprog")
    sys.modules["fakeprog"] = module
    try:
        tracer, clock = _nested_tracer(module)
        with tracer:
            module.top()
            module.leaf(8.0)
        stats = tracer.stats
        assert stats["fakeprog.leaf"].calls == 4
        assert stats["fakeprog.leaf"].self_s == pytest.approx(12.75)
        assert stats["fakeprog.mid"].total_s == pytest.approx(2.75)
        assert stats["fakeprog.mid"].self_s == pytest.approx(2.0)
        assert stats["fakeprog.top"].total_s == pytest.approx(7.75)
        assert stats["fakeprog.top"].self_s == pytest.approx(1.0)
        # Self times partition the top-level calls exactly.
        assert sum(s.self_s for s in stats.values()) == pytest.approx(tracer.top_level_s())
        assert [name for name, _, _ in tracer.spans] == ["fakeprog.top", "fakeprog.leaf"]
        assert tracer.layer_self_s()["a"] == pytest.approx(12.75)
    finally:
        del sys.modules["fakeprog"]


def test_self_time_survives_exceptions():
    import types

    module = types.ModuleType("fakeprog2")
    clock = FakeClock()

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    def outer():
        clock.now += 1.0
        try:
            module.boom()
        except KeyError:
            pass

    module.boom, module.outer = boom, outer
    sys.modules["fakeprog2"] = module
    try:
        tracer = LayerTracer(
            (("l", "fakeprog2", "boom"), ("l", "fakeprog2", "outer")),
            clock=clock, packages=("fakeprog2",),
        )
        with tracer:
            module.outer()
        assert tracer.stats["fakeprog2.outer"].self_s == pytest.approx(1.0)
        assert tracer.stats["fakeprog2.boom"].self_s == pytest.approx(1.0)
        assert tracer._stack == []
    finally:
        del sys.modules["fakeprog2"]


# ------------------------------------------------ wrapping the real program


def _originals():
    """Every (module, name) binding of each wrapped function, and every
    wrapped class attribute, as they are before tracing."""
    import_all()
    bindings = {}
    for _, module, target in layertrace.ENTRY_POINTS:
        for owner, attr, raw, _, _ in layertrace._resolve(module, target):
            if isinstance(owner, type):
                bindings[(owner, attr)] = raw
            else:
                for name, mod in list(sys.modules.items()):
                    if mod is not None and name.split(".")[0] == "repro":
                        for key, value in vars(mod).items():
                            if value is raw:
                                bindings[(mod, key)] = raw
    return bindings


def test_wrappers_rebind_every_by_name_import_and_restore():
    import repro.gpu.cost
    import repro.serving.engine

    before = _originals()
    original = repro.gpu.cost.estimate_kernel_time
    # serving/engine.py imports estimate_kernel_time by name.
    assert repro.serving.engine.estimate_kernel_time is original
    assert (repro.serving.engine, "estimate_kernel_time") in before

    tracer = LayerTracer()
    with tracer:
        for (owner, attr), raw in before.items():
            now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            assert now is not raw, (owner, attr)
        assert repro.serving.engine.estimate_kernel_time.__wrapped__ is original
    for (owner, attr), raw in before.items():
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is raw, (owner, attr)


def test_traced_program_behaves_the_same():
    import repro
    from repro.masks.bsr import BlockSparseMask
    from repro.masks.patterns import make_pattern

    mask = make_pattern("bigbird", 128, rng=repro.RngStream(3))
    plain = BlockSparseMask.from_dense(mask, 16, 16)
    tracer = LayerTracer()
    with tracer:
        traced = BlockSparseMask.from_dense(mask, 16, 16)
    assert isinstance(BlockSparseMask.__dict__["from_dense"], classmethod)
    for name in ("full_row_ptr", "full_col_idx", "part_col_idx", "part_mask"):
        assert (getattr(traced, name) == getattr(plain, name)).all()
    stat = tracer.stats["repro.masks.bsr.BlockSparseMask.from_dense"]
    assert stat.calls == 1 and stat.layer == "masks"


def test_subclass_overrides_take_their_module_layer():
    import_all()
    tracer = LayerTracer()
    with tracer:
        pass
    assert tracer.stats["repro.serving.slo.SLOScheduler.admit"].layer == "slo"
    assert (
        tracer.stats["repro.serving.scheduler.ContinuousBatchScheduler.admit"].layer
        == "scheduler"
    )
    assert tracer.stats["repro.runtime.stof.STOFEngine.prepare"].layer == "runtime.prepare"


# ------------------------------------------------------- benchmark tables


def test_per_layer_tables_agree():
    names = [name for name, _, _ in PER_LAYER]
    assert len(names) == len(set(names))
    assert set(SELF_TIME) == set(LAYERS)
    assert set(PREDICTIONS) == set(LAYERS)
    assert set(SELF_TIME.values()) <= set(names)


def test_benchmark_json_mirrors_per_layer():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)
    from run import END_TO_END, NAMES

    assert {m["name"] for m in doc["end_to_end"]} == {n for n, _, _ in END_TO_END}
    assert [w["name"] for w in doc["workloads"]] == list(NAMES)
