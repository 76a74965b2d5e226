"""The codegen execution backend the MHA kernels dispatch to.

Bind path for one problem:

1. :func:`codegen_plan_key` — the family *base* :class:`repro.plan.PlanKey`:
   geometry + mask bits + kernel parameters with ``n_bh`` freed (the only
   dimension whose value can steer emission without changing the mask).
   Its ``salt`` carries the template name *and emission version*, so
   bumping a template version changes every digest it produced and stale
   cached modules can never be looked up again.
2. :func:`generated_family_kernel` — consult the :mod:`repro.codegen.cache`
   family index, then its memory and disk tiers (verified by content
   hash), and emit only on a miss.  Emission runs under a
   :class:`repro.plan.symbolic.GuardRecorder`; the recorded guards become
   the family's admission predicate, and every ``n_bh`` the guards admit
   shares one cached module.  A guard failure emits a sibling family —
   never reuses the old module.  Every lookup records a ``codegen.cache``
   tracer span with its outcome; emission records a ``codegen.emit`` span —
   warm runs therefore show *zero* ``codegen.emit`` spans, which the
   round-trip tests pin.
3. ``entry.run(q, k, v)`` — the generated module's ``run`` with its bound
   constant pool.  Operands arrive pre-scaled fp32, exactly as the loop
   oracle receives them.  When a metrics registry is installed, the
   module's ``COUNTERS`` table is scaled by the call's ``n_bh`` and
   recorded as the ``mha.*`` kernel counters.
"""

from __future__ import annotations

import hashlib
from types import ModuleType
from typing import Any, Callable

import numpy as np

from repro.codegen.blockwise import specialize_blockwise
from repro.codegen.cache import CacheEntry, codegen_cache
from repro.codegen.rowwise import specialize_rowwise
from repro.codegen.templates import GeneratedSource, get_template
from repro.masks.bsr import BlockSparseMask
from repro.obs.metrics import current_metrics
from repro.obs.tracer import current_tracer
from repro.plan.key import PlanKey, params_key
from repro.plan.symbolic import GuardRecorder, SymbolicPlanKey


def codegen_plan_key(
    kind: str,
    problem: Any,
    params: dict[str, Any] | None = None,
    template: str = "blockwise",
) -> PlanKey:
    """Content-address one specialization family.

    The key is pure problem identity (geometry + mask bits + kernel
    parameters) — no device spec, because the emitted NumPy is
    device-independent.  Batch and heads are zeroed: their product
    ``n_bh`` is the freed dimension the family's guards range over.
    ``salt`` folds in the template name and version so a template upgrade
    invalidates every module the old emission produced, and marks the key
    as symbolic (``:sym(n_bh)``).
    """
    tmpl = get_template(template)
    return PlanKey(
        kind=kind,
        batch=0,
        heads=0,
        seq_len=problem.seq_len,
        kv_seq_len=problem.kv_seq_len,
        head_size=problem.head_size,
        pattern=problem.pattern,
        mask=problem.mask_fingerprint(),
        params=params_key(params),
        salt=f"codegen:{tmpl.name}:v{tmpl.version}:sym(n_bh)",
    )


def _exec_module(source: str, digest: str) -> ModuleType:
    """Compile + exec generated source as an anonymous module."""
    mod = ModuleType(f"repro_codegen_{digest[:16]}")
    mod.__dict__["__codegen_digest__"] = digest
    code = compile(source, f"<codegen:{digest[:16]}>", "exec")
    exec(code, mod.__dict__)
    return mod


def family_digest(base: PlanKey, guards) -> str:
    """Content address of one guarded family: base digest + guard digest."""
    return hashlib.sha256(
        f"{base.digest}:{guards.digest}".encode()
    ).hexdigest()


def generated_family_kernel(
    base: PlanKey,
    template: str,
    shape: dict[str, int],
    build: Callable[[str, GuardRecorder], GeneratedSource],
) -> CacheEntry:
    """The bound generated kernel for a *family* probe.

    ``base`` is the family base key (:func:`codegen_plan_key`); ``shape``
    binds the freed dims to this problem's concrete values.  The family
    index is scanned first — a family whose guards admit ``shape``
    resolves through the ordinary memory/disk tiers under its family
    digest.  On a miss, ``build`` emits under a
    fresh :class:`GuardRecorder`; the guards it records become the new
    family's admission predicate, and the module is cached under
    ``sha256(base.digest + ":" + guards.digest)``.

    The header digest baked into the source is the *family placeholder*
    (``family:<base16>``), identical across siblings of one base — the
    emitted text must be a pure function of the recorded branches, never
    of the concrete probe values.
    """
    tmpl = get_template(template)
    cache = codegen_cache()
    tracer = current_tracer()
    m = current_metrics()

    with tracer.span(
        "codegen.cache", cat="codegen", template=template, family=True
    ) as sp:
        digest = cache.find_family(base.digest, shape)
        if digest is not None:
            entry = cache.get(digest)
            if entry is not None:
                sp.add(outcome="hit-memory")
                if m.enabled:
                    m.counter(
                        "codegen.cache", template=template, outcome="hit-memory"
                    ).inc()
                return entry
            loaded = cache.load_disk(digest, tmpl.name, tmpl.version)
            if loaded is not None:
                source, consts, meta = loaded
                key = SymbolicPlanKey.from_dict(meta["key"])
                entry = CacheEntry(
                    key, tmpl.name, tmpl.version, source,
                    _exec_module(source, digest), consts,
                )
                cache.put(digest, entry)
                sp.add(outcome="hit-disk")
                if m.enabled:
                    m.counter(
                        "codegen.cache", template=template, outcome="hit-disk"
                    ).inc()
                return entry
        sp.add(outcome="miss")
        if m.enabled:
            m.counter("codegen.cache", template=template, outcome="miss").inc()
    cache.misses += 1

    placeholder = f"family:{base.digest[:16]}"
    with tracer.span("codegen.emit", cat="codegen", template=template) as sp:
        rec = GuardRecorder(**shape)
        gen = build(placeholder, rec)
        guards = rec.guard_set()
        sp.add(
            lines=gen.source.count("\n"),
            consts=len(gen.consts),
            version=gen.version,
            guards=guards.describe(),
        )
        if m.enabled:
            m.counter("codegen.emit", template=template).inc()
    digest = family_digest(base, guards)
    key = SymbolicPlanKey(base, tuple(sorted(shape)), guards)
    entry = CacheEntry(
        key, gen.template, gen.version, gen.source,
        _exec_module(gen.source, digest), gen.consts,
    )
    cache.put(digest, entry)
    cache.store_disk(digest, key, gen.template, gen.version, gen.source, gen.consts)
    cache.put_family(base.digest, guards, digest)
    return entry


def _problem_entry(problem: Any, memo_key: tuple, resolve) -> CacheEntry:
    """Per-problem memo of the resolved cache entry.

    The generated module depends only on mask content, geometry, and
    kernel parameters — all immutable on a problem (like its ``_bsr_cache``
    /``_csr_cache`` views) — so repeated ``run()`` calls skip plan-key
    construction, digest hashing, and cache lookup entirely.  The global
    :func:`codegen_cache` stays the source of truth across problems.
    """
    entries = problem.__dict__.setdefault("_codegen_entries", {})
    entry = entries.get(memo_key)
    if entry is None:
        entry = resolve()
        entries[memo_key] = entry
    return entry


def run_blockwise(
    problem: Any,
    bsr: BlockSparseMask,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    kernel: str,
) -> np.ndarray:
    """Execute one blockwise problem through its generated module."""

    def resolve() -> CacheEntry:
        params = {"block_m": bsr.block_m, "block_n": bsr.block_n}
        return generated_family_kernel(
            codegen_plan_key("codegen-blockwise", problem, params, "blockwise"),
            "blockwise",
            {"n_bh": problem.n_bh},
            lambda digest, rec: specialize_blockwise(
                bsr, rec, digest, problem.pattern, mask=problem.mask
            ),
        )

    entry = _problem_entry(
        problem, ("blockwise", bsr.block_m, bsr.block_n), resolve
    )
    return _traced_run(entry, "blockwise", kernel, q, k, v)


def run_rowwise(
    problem: Any,
    row_ptr: np.ndarray,
    col_idx: np.ndarray,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    kernel: str,
) -> np.ndarray:
    """Execute one rowwise problem through its generated module."""

    def resolve() -> CacheEntry:
        return generated_family_kernel(
            codegen_plan_key("codegen-rowwise", problem, None, "rowwise"),
            "rowwise",
            {"n_bh": problem.n_bh},
            lambda digest, rec: specialize_rowwise(
                row_ptr, col_idx, problem.mask, problem.head_size, rec,
                digest, problem.pattern,
            ),
        )

    entry = _problem_entry(problem, ("rowwise",), resolve)
    return _traced_run(entry, "rowwise", kernel, q, k, v)


def _record_counters(entry: CacheEntry, kernel: str, n_bh: int, d: int) -> None:
    """Record the module's ``COUNTERS`` table, scaled to this call.

    See :func:`repro.codegen.templates.emit_counters` for the row format.
    """
    m = current_metrics()
    if not m.enabled:
        return
    for name, label, value, scale, amount in entry.module.COUNTERS:
        if scale == "chunks":
            amount = -(-n_bh // amount)
        elif scale == "kv_bytes":
            amount = 2.0 * n_bh * amount * d * 4.0
        m.counter(name, kernel=kernel, **{label: value}).inc(amount)


def _traced_run(
    entry: CacheEntry,
    template: str,
    kernel: str,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Run the bound module, under a ``codegen.exec`` span when tracing.

    With the emission span on the cold path and this span on every call,
    a ``repro profile`` trace separates one-time emission cost from warm
    per-call execution — the guarded fast path keeps the untraced hot
    loop at a single attribute check.
    """
    _record_counters(entry, kernel, q.shape[0], q.shape[2])
    tracer = current_tracer()
    if not tracer.enabled:
        return entry.run(q, k, v)
    with tracer.span("codegen.exec", cat="codegen", template=template):
        return entry.run(q, k, v)
