"""Per-layer host-time tracing from outside the program.

The traced run wraps each layer's public entry points in place — methods
on their classes, module functions in every ``repro.*`` module that
imported them by name — and restores the originals afterwards, so the
program's source is untouched.  Each wrapper adds its call's duration to
its entry point's total, and the parent's child time, so self time is a
call's duration minus the time spent in nested wrapped calls.  Counts
and times are aggregated per entry point in memory; only top-level calls
keep a coarse span.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from dataclasses import dataclass, field

#: ``(layer, module, target)``.  ``target`` is a function name, or
#: ``Class.method``; a trailing ``*`` also wraps every subclass that
#: overrides the method.  The layer is named after the module.
ENTRY_POINTS = (
    ("masks", "repro.masks.patterns", "make_pattern"),
    ("masks", "repro.masks.patterns", "causal_mask"),
    ("masks", "repro.masks.bsr", "BlockSparseMask.from_dense"),
    ("masks", "repro.serving.request", "RequestTracker.full_mask"),
    ("masks", "repro.serving.request", "RequestTracker.mask_fingerprint"),
    ("mha", "repro.mha.module", "UnifiedMHA.plan"),
    ("mha", "repro.mha.module", "UnifiedMHA.run"),
    ("mha", "repro.mha.selector", "select_block_params"),
    ("mha", "repro.mha.selector", "select_kernel"),
    ("mha", "repro.mha.rowwise", "RowWiseKernel.plan"),
    ("mha", "repro.mha.rowwise", "plan_rowwise_launches"),
    ("mha", "repro.mha.kernel", "AttentionKernel.run*"),
    ("gpu", "repro.gpu.cost", "estimate_kernel_time"),
    ("plan", "repro.plan.cache", "PlanCache.get"),
    ("plan", "repro.plan.cache", "PlanCache.put"),
    ("plan", "repro.plan.cache", "PlanCache.get_or_build"),
    ("plan", "repro.plan.cache", "PlanCache.find_family"),
    ("plan", "repro.plan.cache", "PlanCache.get_or_build_family"),
    ("engine", "repro.serving.engine", "ServingEngine.run"),
    ("scheduler", "repro.serving.scheduler", "Scheduler.admit*"),
    ("scheduler", "repro.serving.scheduler", "Scheduler.decode_members*"),
    ("scheduler", "repro.serving.scheduler", "Scheduler.releasable*"),
    ("scheduler", "repro.serving.scheduler", "Scheduler.begin_step*"),
    ("scheduler", "repro.serving.scheduler", "Scheduler.deadline_victims*"),
    ("kv", "repro.serving.kvcache", "PagedKVCache.reserve"),
    ("kv", "repro.serving.kvcache", "PagedKVCache.release"),
    ("kv", "repro.serving.kvcache", "PagedKVCache.register_prefix"),
    ("kv", "repro.serving.kvcache", "PagedKVCache.cached_prefix_tokens"),
    ("kv", "repro.serving.kvcache", "PagedKVCache.fits_alone"),
    ("metrics", "repro.serving.metrics", "RequestMetrics.from_tracker"),
    ("metrics", "repro.serving.metrics", "tenant_reports"),
    ("workload", "repro.serving.workload", "WorkloadSpec.generate"),
    ("workload", "repro.serving.request", "synthetic_trace"),
    ("spec", "repro.serving.spec_decode", "SpeculativeConfig.sample_accepted"),
    ("lora", "repro.serving.lora", "AdapterRegistry.gemm_time"),
    ("lora", "repro.serving.lora", "AdapterRegistry.touch"),
    ("parallel", "repro.parallel.serving", "AutoscalingServingEngine.run"),
    ("parallel", "repro.parallel.serving", "ShardedServingEngine.run"),
    ("parallel", "repro.parallel.serving", "TPServingEngine.run"),
    ("parallel", "repro.parallel.interconnect", "Interconnect.all_reduce_time"),
    ("parallel", "repro.parallel.interconnect", "Interconnect.all_gather_time"),
    ("parallel", "repro.parallel.interconnect", "Interconnect.reduce_scatter_time"),
    ("parallel", "repro.parallel.interconnect", "Interconnect.point_to_point_time"),
    ("runtime.prepare", "repro.runtime.frameworks", "Engine.prepare*"),
    ("runtime.plan", "repro.runtime.executor", "PreparedModel.plan"),
    ("runtime.execute", "repro.runtime.executor", "PreparedModel.execute"),
    ("tuner", "repro.tuner.engine", "TwoStageEngine.tune_graph"),
    ("tuner", "repro.tuner.cache", "PerformanceCache.evaluate"),
    ("fusion", "repro.fusion.converter", "extract_chains"),
    ("fusion", "repro.fusion.converter", "FusionSchemeConverter.encode"),
    ("fusion", "repro.fusion.converter", "FusionSchemeConverter.key"),
    ("fusion", "repro.fusion.converter", "FusionSchemeConverter.decode"),
    ("fusion", "repro.fusion.converter", "FusionSchemeConverter.segment"),
    ("fusion", "repro.fusion.converter", "FusionSchemeConverter.template"),
    ("fusion", "repro.fusion.converter", "FusionSchemeConverter.scheme_templates"),
    ("fusion", "repro.fusion.converter", "FusionSchemeConverter.feasible"),
    ("fusion", "repro.fusion.converter", "FusionSchemeConverter.initial_scheme"),
    ("models", "repro.models.build", "build_model"),
    ("codegen", "repro.codegen.backend", "run_blockwise"),
    ("codegen", "repro.codegen.backend", "run_rowwise"),
)

#: Subclass overrides found through a ``*`` row belong to the layer of
#: their own module when it is listed here.
MODULE_LAYERS = {"repro.serving.slo": "slo"}

#: Layers whose self times partition the traced wall time (with
#: ``trace.unattributed_s``), in report order.
LAYERS = tuple(dict.fromkeys(
    [layer for layer, _, _ in ENTRY_POINTS] + list(MODULE_LAYERS.values())
))


@dataclass
class EntryStat:
    """Aggregate of one wrapped entry point."""

    layer: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Extra counts an observer keeps (bytes handled, items returned...).
    extra: dict = field(default_factory=dict)


def import_all(package: str = "repro") -> None:
    """Import every submodule, so every by-name import exists to rebind."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        if not info.name.endswith(".__main__"):    # that one runs the CLI
            importlib.import_module(info.name)


def _resolve(module: str, target: str):
    """``[(owner, attr, raw, qualname, module)]`` for one ENTRY_POINTS row."""
    mod = sys.modules[module]
    if "." not in target:
        return [(mod, target, getattr(mod, target), f"{module}.{target}", module)]
    cls_name, meth = target.split(".")
    subclasses = meth.endswith("*")
    meth = meth.rstrip("*")
    classes = [getattr(mod, cls_name)]
    if subclasses:
        seen, todo = [], list(classes)
        while todo:
            cls = todo.pop()
            if cls not in seen:
                seen.append(cls)
                todo.extend(cls.__subclasses__())
        classes = seen
    out = []
    for cls in classes:
        raw = cls.__dict__.get(meth)
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if fn is None or getattr(fn, "__isabstractmethod__", False):
            continue
        out.append((
            cls, meth, raw, f"{cls.__module__}.{cls.__qualname__}.{meth}",
            cls.__module__,
        ))
    if not out:
        raise LookupError(f"no implementation of {module}.{target}")
    return out


class LayerTracer:
    """Wraps ENTRY_POINTS while active; aggregates calls and self time.

    ``observers`` maps a qualified entry name to
    ``f(extra, args, kwargs, result)``, called after each call, to keep
    extra counts in ``EntryStat.extra``.
    """

    def __init__(self, entry_points=ENTRY_POINTS, observers=None,
                 clock=time.perf_counter, packages=("repro",)):
        self.entry_points = entry_points
        self.observers = observers or {}
        self.clock = clock
        self.packages = packages
        self.stats: dict[str, EntryStat] = {}
        #: ``(name, start_s, dur_s)`` of every top-level wrapped call,
        #: start relative to ``install``.
        self.spans: list[tuple[str, float, float]] = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = 0.0

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str, layer: str):
        stat = self.stats.setdefault(name, EntryStat(layer))
        stack, spans, clock = self._stack, self.spans, self.clock
        observe = self.observers.get(name)
        origin = self._origin

        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    spans.append((name, t0 - origin, dt))
                if observe is not None:
                    observe(stat.extra, args, kwargs, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _modules(self):
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and n.split(".")[0] in self.packages
        ]

    def install(self) -> "LayerTracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._origin = self.clock()
        for layer, module, target in self.entry_points:
            for owner, attr, raw, name, home in _resolve(module, target):
                if isinstance(owner, type):
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    wrapped = self._wrap(fn, name, MODULE_LAYERS.get(home, layer))
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(wrapped)
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                # A module function: rebind it wherever it was imported.
                wrapped = self._wrap(raw, name, layer)
                for mod in self._modules():
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patches.append((mod, key, raw))
                            setattr(mod, key, wrapped)
        return self

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------ results

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for stat in self.stats.values():
            out[stat.layer] = out.get(stat.layer, 0.0) + stat.self_s
        return out

    def top_level_s(self) -> float:
        return sum(dur for _, _, dur in self.spans)

    def calls(self, layer: str, suffix: str = "") -> int:
        return sum(
            s.calls for n, s in self.stats.items()
            if s.layer == layer and n.endswith(suffix)
        )

    def self_s(self, layer: str, suffix: str = "") -> float:
        return sum(
            s.self_s for n, s in self.stats.items()
            if s.layer == layer and n.endswith(suffix)
        )

    def extra(self, key: str) -> float:
        return sum(s.extra.get(key, 0) for s in self.stats.values())
