"""Command-line interface.

``python -m repro <command>`` exposes the library's main workflows:

* ``masks``   — the Table-2 feature analysis for any pattern/seq-len.
* ``mha``     — compare attention methods on one masked problem.
* ``e2e``     — compare end-to-end engines on one model workload.
* ``tune``    — run the two-stage search engine and print its trace.
* ``decode``  — KV-cache generation throughput across attention methods.
* ``serve-sim`` — continuous-batching serving simulation (static vs
  continuous scheduling over a synthetic arrival trace).
* ``shard-sim`` — multi-GPU serving simulation: tensor-parallel replicas
  (ring all-reduce collectives) behind a data-parallel request router.
* ``fleet-sim`` — autoscaled multi-tenant fleet: diurnal/bursty arrivals
  over a tenant mix with shared system prompts, SLO-aware scheduling,
  and a cost/throughput frontier against fixed fleet widths.
* ``plan-cache`` — plan-cache effectiveness: the serving simulation with
  and without plan reuse, plus per-kind hit-rate statistics.
* ``trace``   — export a Chrome-trace JSON of one engine's execution plan.
* ``profile`` — run a workload under the observability layer and export
  the span tree (Chrome trace) plus metrics.
* ``report``  — collate benchmark result tables into one markdown report.
* ``devices`` — list the simulated GPU specs.

Mask selection is ``--mask`` and device selection ``--device``
everywhere.  Configuration errors exit with status 2, other library
errors with 1 — never a traceback.

Examples::

    python -m repro masks --seq-len 1024
    python -m repro mha --mask bigbird --batch 8 --seq-len 1024
    python -m repro e2e --model bert-base --batch 8 --seq-len 512
    python -m repro tune --model bert-small --batch 1 --seq-len 128
    python -m repro profile --model bert-small --mask bigbird
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence


from repro.api import ENGINES, compare_engines, compile_model
from repro.core.errors import ConfigError, ReproError
from repro.core.rng import RngStream
from repro.core.units import format_time
from repro.gpu.specs import KNOWN_GPUS, get_spec
from repro.masks import PATTERN_REGISTRY, analyze_mask, make_pattern
from repro.mha.baselines import (
    ByteTransformerAttention,
    FlashAttention2Attention,
    FlexAttention,
    MCFuserAttention,
    NaiveAttention,
)
from repro.mha.module import UnifiedMHA
from repro.mha.problem import AttentionProblem


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--device", default="a100", choices=sorted(KNOWN_GPUS),
        help="simulated GPU",
    )
    parser.add_argument("--seed", type=int, default=0)


def _add_mask(
    parser: argparse.ArgumentParser,
    default: str | None,
    choices: Sequence[str] | None = None,
    help: str = "mask pattern",
) -> None:
    parser.add_argument("--mask", default=default, choices=choices, help=help)


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    """Speculative-decoding / chunked-prefill / multi-LoRA knobs."""
    parser.add_argument("--spec-decode", type=int, default=0, metavar="K",
                        help="speculative decoding with K draft tokens "
                             "per step (0 = off)")
    parser.add_argument("--accept-rate", type=float, default=0.8,
                        help="per-token draft acceptance probability")
    parser.add_argument("--draft-cost-ratio", type=float, default=0.2,
                        help="draft-model forward cost as a fraction of "
                             "the target model's")
    parser.add_argument("--chunk-tokens", type=int, default=0,
                        help="per-step prefill token budget for chunked "
                             "prefill (0 = whole-prompt prefill)")
    parser.add_argument("--lora-adapters", type=int, default=0, metavar="N",
                        help="assign N LoRA adapters round-robin across "
                             "requests (0 = base model only)")
    parser.add_argument("--lora-rank", type=int, default=16)
    parser.add_argument("--lora-max-resident", type=int, default=8,
                        help="adapters resident in device memory before "
                             "LRU swapping")


def cmd_devices(args: argparse.Namespace) -> int:
    for key, spec in KNOWN_GPUS.items():
        print(f"{key:>10}: {spec.name} ({spec.arch}), {spec.sm_count} SMs, "
              f"{spec.memory_bytes / 2**30:.0f} GiB @ "
              f"{spec.dram_bandwidth / 1e9:.0f} GB/s")
    return 0


def cmd_masks(args: argparse.Namespace) -> int:
    from repro.masks.bsr import BlockSparseMask
    from repro.masks.viz import block_summary, render_bsr, render_mask

    rng = RngStream(args.seed)
    patterns = [args.mask] if args.mask else sorted(PATTERN_REGISTRY)
    print(f"{'pattern':>16} {'row':>11} {'column':>11} {'type':>13} {'sparsity':>9}")
    for name in patterns:
        if name not in PATTERN_REGISTRY:
            print(f"unknown pattern {name!r}", file=sys.stderr)
            return 2
        mask = make_pattern(name, args.seq_len, rng=rng.fork(name))
        stats = analyze_mask(
            mask, name, known_random=PATTERN_REGISTRY[name].uses_randomness
        )
        print(f"{name:>16} {stats.row_distribution:>11} "
              f"{stats.col_distribution:>11} {stats.sparsity_type:>13} "
              f"{stats.sparsity_ratio:>8.1%}")
        if args.show:
            print(render_mask(mask, width=args.show_width))
            bsr = BlockSparseMask.from_dense(mask, args.block, args.block)
            print(f"\nblock grid ({args.block}x{args.block}): "
                  f"{block_summary(bsr)}")
            print(render_bsr(bsr))
            print()
    return 0


def cmd_mha(args: argparse.Namespace) -> int:
    spec = get_spec(args.device)
    problem = AttentionProblem.build(
        args.mask, args.batch, args.heads, args.seq_len, args.head_size,
        rng=RngStream(args.seed),
    )
    print(f"{problem}\n")
    plan = UnifiedMHA(spec).plan(problem)
    rows = [("stof", plan.estimated_s, plan.kernel_name)]
    for kernel in (
        NaiveAttention(),
        FlashAttention2Attention(),
        FlexAttention(),
        ByteTransformerAttention(),
        MCFuserAttention(),
    ):
        ok, reason = kernel.supports(problem)
        if not ok:
            rows.append((kernel.name, None, reason))
            continue
        rows.append((kernel.name, kernel.estimate_time(problem, spec), ""))
    base = dict((n, t) for n, t, _ in rows)["pytorch-native"]
    for name, t, note in rows:
        if t is None:
            print(f"  {name:>18}: unsupported ({note})")
        else:
            print(f"  {name:>18}: {format_time(t):>10} "
                  f"({base / t:5.2f}x over native) {note}")
    return 0


def cmd_e2e(args: argparse.Namespace) -> int:
    engines = tuple(args.engines.split(",")) if args.engines else tuple(ENGINES)
    for e in engines:
        if e not in ENGINES:
            print(f"unknown engine {e!r}; known: {sorted(ENGINES)}", file=sys.stderr)
            return 2
    results = compare_engines(
        args.model, args.batch, args.seq_len,
        device=args.device, mask=args.mask, engines=engines, seed=args.seed,
    )
    base = results.get("pytorch-native")
    base_t = base.latency_s if not isinstance(base, str) and base else None
    print(f"{args.model} @ batch {args.batch}, seq {args.seq_len}, "
          f"mask {args.mask}, {get_spec(args.device).name}:\n")
    for name, c in results.items():
        if isinstance(c, str):
            print(f"  {name:>16}: {c.upper()}")
            continue
        rel = f"({base_t / c.latency_s:5.2f}x)" if base_t else ""
        tuning = f"  tuning {c.tuning_time_s:7.1f}s" if c.tuning_time_s else ""
        print(f"  {name:>16}: {format_time(c.latency_s):>10} {rel}{tuning}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    compiled = compile_model(
        args.model, args.batch, args.seq_len,
        device=args.device, mask=args.mask, engine="stof", seed=args.seed,
    )
    print(compiled.summary())
    overhead = compiled.prepared.extras["overhead"]
    print(f"\nframework overhead: {overhead.total_s * 1e3:.1f} ms "
          f"(analytical {overhead.analytical_model_s * 1e3:.1f}, "
          f"conversion {overhead.scheme_conversion_s * 1e3:.1f}, "
          f"reward {overhead.reward_algorithm_s * 1e3:.1f})")
    print("\nfused attention sites:")
    for name, binding in compiled.prepared.attention:
        print(f"  {name}: {binding.kernel.name} {binding.params or ''}")
    print("\ndownstream chains:")
    for cp in compiled.prepared.chains:
        segs = " | ".join(t.segment.names for t in cp.templates)
        print(f"  scheme {cp.scheme}: {segs}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    from repro.mha.decode import DECODE_METHODS, simulate_decode

    spec = get_spec(args.device)
    print(f"decode: mask {args.mask}, prompt {args.prompt}, "
          f"generate {args.generate}, batch {args.batch}, {spec.name}\n")
    for method in DECODE_METHODS:
        rep = simulate_decode(
            args.mask, spec, method,
            batch=args.batch, heads=args.heads, head_size=args.head_size,
            prompt_len=args.prompt, generate=args.generate,
            rng=RngStream(args.seed),
        )
        print(f"  {method:>16}: {rep.tokens_per_s:>12,.0f} tok/s "
              f"(mean step {format_time(rep.mean_step_s)})")
    return 0


def _workload_knobs(args: argparse.Namespace) -> tuple["Any", int, "Any"]:
    """Resolve --spec-decode/--chunk-tokens/--lora-* into config values."""
    from repro.serving import LoRAConfig, SpeculativeConfig

    spec_decode = None
    if args.spec_decode > 0:
        spec_decode = SpeculativeConfig(
            draft_tokens=args.spec_decode,
            accept_rate=args.accept_rate,
            draft_cost_ratio=args.draft_cost_ratio,
        )
    lora = None
    if args.lora_adapters > 0:
        lora = LoRAConfig(
            rank=args.lora_rank, max_resident=args.lora_max_resident
        )
    return spec_decode, args.chunk_tokens, lora


def cmd_serve_sim(args: argparse.Namespace) -> int:
    from repro.serving import (
        ServingConfig,
        assign_adapters,
        make_scheduler,
        simulate_serving,
        synthetic_trace,
    )

    spec = get_spec(args.device)
    trace = synthetic_trace(
        args.num_requests,
        args.rate,
        rng=RngStream(args.seed).fork("trace"),
        prompt_range=(args.prompt_min, args.prompt_max),
        max_new_range=(args.new_min, args.new_max),
        pattern=args.mask,
    )
    spec_decode, chunk_tokens, lora = _workload_knobs(args)
    if lora is not None:
        trace = assign_adapters(trace, args.lora_adapters)
    config = ServingConfig(
        heads=args.heads,
        head_size=args.head_size,
        n_layers=args.layers,
        kv_capacity_frac=args.kv_frac,
        kv_page_tokens=args.page_tokens,
        symbolic_plan_keys=args.symbolic_plan_keys,
        spec_decode=spec_decode,
        chunk_prefill_tokens=chunk_tokens,
        lora=lora,
    )
    policies = ("static", "continuous") if args.policy == "both" else (args.policy,)
    print(
        f"serve-sim: {args.num_requests} requests @ {args.rate:.0f} req/s, "
        f"mask {args.mask}, {spec.name}\n"
    )
    for policy in policies:
        scheduler = make_scheduler(
            policy, args.max_batch, args.max_batch_tokens
        )
        report = simulate_serving(
            trace, spec, scheduler, config, rng=RngStream(args.seed)
        )
        print(report.summary())
        print()
    return 0


def cmd_shard_sim(args: argparse.Namespace) -> int:
    from repro.parallel import (
        DEFAULT_CONTENTION,
        FleetConfig,
        ShardConfig,
        ShardedServingEngine,
        get_link,
    )
    from repro.serving import ServingConfig, synthetic_trace

    spec = get_spec(args.device)
    shard = ShardConfig(
        tp=args.tp, pp=args.pp, dp=args.dp, link=get_link(args.link),
        inter_link=get_link(args.inter_link) if args.inter_link else None,
    )
    trace = synthetic_trace(
        args.num_requests,
        args.rate,
        rng=RngStream(args.seed).fork("trace"),
        prompt_range=(args.prompt_min, args.prompt_max),
        max_new_range=(args.new_min, args.new_max),
        pattern=args.mask,
    )
    config = ServingConfig(
        heads=args.heads,
        head_size=args.head_size,
        n_layers=args.layers,
        kv_capacity_frac=args.kv_frac,
        kv_page_tokens=args.page_tokens,
        symbolic_plan_keys=args.symbolic_plan_keys,
    )
    engine = ShardedServingEngine(
        spec, args.policy, config,
        max_batch_size=args.max_batch,
        max_batch_tokens=args.max_batch_tokens,
        fleet=FleetConfig(
            shard=shard,
            route=args.route,
            overlap=not args.no_overlap,
            micro_batches=args.micro_batches,
            contention=(
                args.contention if args.contention is not None
                else DEFAULT_CONTENTION
            ),
        ),
    )
    report = engine.run(trace, rng=RngStream(args.seed))
    print(
        f"shard-sim: {args.num_requests} requests @ {args.rate:.0f} req/s, "
        f"mask {args.mask}, {shard.world_size}x {spec.name}\n"
    )
    print(report.summary())
    stats = engine.plan_cache.stats()
    print(
        f"  plan cache   : {stats['hit_rate']:.1%} hit rate "
        f"({stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['entries']} entries)"
    )
    return 0


def cmd_fleet_sim(args: argparse.Namespace) -> int:
    from repro.api import serve
    from repro.parallel import (
        FleetConfig,
        ShardConfig,
        cost_throughput_frontier,
        get_link,
    )
    from repro.serving import (
        ServingConfig,
        SLOPolicy,
        assign_adapters,
        make_scenario,
    )

    spec = get_spec(args.device)
    workload = make_scenario(
        args.scenario, n_requests=args.num_requests, rate_rps=args.rate
    )
    spec_decode, chunk_tokens, lora = _workload_knobs(args)
    if lora is not None:
        # Generate here (same stream serve() would use) so round-robin
        # adapter assignment can run over the concrete request list.
        workload = assign_adapters(
            workload.generate(RngStream(args.seed).fork("workload")),
            args.lora_adapters,
        )
    config = ServingConfig(
        heads=args.heads,
        head_size=args.head_size,
        n_layers=args.layers,
        kv_capacity_frac=args.kv_frac,
        kv_page_tokens=args.page_tokens,
        spec_decode=spec_decode,
        chunk_prefill_tokens=chunk_tokens,
        lora=lora,
    )
    fleet = FleetConfig(
        shard=ShardConfig(tp=args.tp, pp=args.pp, link=get_link(args.link)),
        autoscale=True,
        min_replicas=args.min_replicas,
        max_replicas=args.max_replicas,
        scale_up_latency_s=args.scale_up_latency,
        target_utilization=args.target_utilization,
    )
    slo = None if args.no_slo else SLOPolicy()
    print(
        f"fleet-sim: {args.scenario} scenario, {args.num_requests} requests "
        f"@ {args.rate:.0f} req/s peak-mean, {spec.name}\n"
    )
    report = serve(
        config, workload, device=spec, fleet=fleet, slo=slo, seed=args.seed,
        max_batch_size=args.max_batch, max_batch_tokens=args.max_batch_tokens,
    )
    print(report.summary())
    if args.frontier:
        trace = (
            workload if isinstance(workload, list)
            else workload.generate(RngStream(args.seed).fork("workload"))
        )
        print("\ncost/throughput frontier:")
        print(f"  {'point':>6} {'replicas':>9} {'GPU·s':>9} {'tok/s':>9} "
              f"{'tok/GPU·s':>10} {'TTFT p99':>10}")
        for pt in cost_throughput_frontier(
            spec, trace, config=config, fleet=fleet,
            dp_values=tuple(int(v) for v in args.dp_values.split(",")),
            slo=slo, rng=RngStream(args.seed),
        ):
            print(f"  {pt.label:>6} {pt.mean_replicas:>9.2f} "
                  f"{pt.gpu_s:>9.4f} {pt.tokens_per_s:>9,.0f} "
                  f"{pt.tokens_per_gpu_s:>10,.0f} "
                  f"{format_time(pt.ttft_p99_s):>10}")
    return 0


def cmd_plan_cache(args: argparse.Namespace) -> int:
    import dataclasses
    import time

    from repro.plan import PlanCache
    from repro.serving import (
        ServingConfig,
        ServingEngine,
        make_scheduler,
        synthetic_trace,
    )

    if args.load:
        cache = PlanCache(max_entries=None)
        n = cache.load(args.load)
        print(f"loaded {n} entries from {args.load}")
        kinds: dict[str, int] = {}
        for key, _ in cache.items():
            kinds[key.kind] = kinds.get(key.kind, 0) + 1
        fam_kinds = cache.stats()["symbolic"]["kinds"]
        for kind in sorted(kinds):
            fams = fam_kinds.get(kind, {}).get("families", 0)
            fam_note = f" ({fams} families)" if fams else ""
            print(f"  {kind:>16}: {kinds[kind]} entries{fam_note}")
        return 0

    spec = get_spec(args.device)
    trace = synthetic_trace(
        args.num_requests,
        args.rate,
        rng=RngStream(args.seed).fork("trace"),
        pattern=args.mask,
        prompt_range=(32, 64),
        max_new_range=(160, 256),
    )
    print(
        f"plan-cache: {args.num_requests} requests @ {args.rate:.0f} req/s, "
        f"mask {args.mask}, {spec.name}\n"
    )
    runs = {}
    for cached in (False, True):
        config = ServingConfig(
            use_plan_cache=cached,
            symbolic_plan_keys=args.symbolic_plan_keys,
        )
        engine = ServingEngine(
            spec, make_scheduler("continuous", 16, 65536), config
        )
        t0 = time.perf_counter()
        report = engine.run(trace, rng=RngStream(args.seed))
        wall = time.perf_counter() - t0
        runs[cached] = (engine, report, wall)
        label = "cache on " if cached else "cache off"
        print(f"  {label}: {wall * 1e3:8.1f} ms wall-clock "
              f"({report.total_tokens} tokens, {report.total_steps} steps)")
    _, cold_report, cold = runs[False]
    engine, warm_report, warm = runs[True]
    same = dataclasses.replace(warm_report, plan_cache=None) == cold_report
    print(f"  speedup : {cold / warm:8.2f}x   "
          f"reports identical: {'yes' if same else 'NO'}\n")

    stats = engine.plan_cache.stats()
    sym = stats["symbolic"]
    fam_kinds = sym["kinds"]
    print(f"{'kind':>16} {'hits':>8} {'misses':>8} {'hit rate':>9} "
          f"{'families':>9} {'checks':>7} {'splits':>7}")
    for kind, ks in stats["kinds"].items():
        fk = fam_kinds.get(kind, {})
        print(f"{kind:>16} {ks['hits']:>8} {ks['misses']:>8} "
              f"{ks['hit_rate']:>8.1%} {fk.get('families', 0):>9} "
              f"{fk.get('guard_checks', 0):>7} {fk.get('splits', 0):>7}")
    lookups = stats["hits"] + stats["misses"]
    checks_per = sym["guard_checks"] / lookups if lookups else 0.0
    print(f"{'total':>16} {stats['hits']:>8} {stats['misses']:>8} "
          f"{stats['hit_rate']:>8.1%} {sym['families']:>9} "
          f"{sym['guard_checks']:>7} {sym['splits']:>7}\n"
          f"  {stats['entries']} entries, {stats['evictions']} evictions, "
          f"{checks_per:.2f} guard checks per lookup")
    if args.save:
        engine.plan_cache.save(args.save)
        print(f"\nsaved {len(engine.plan_cache)} entries to {args.save}")
    return 0 if same else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.gpu.trace import export_chrome_trace

    compiled = compile_model(
        args.model, args.batch, args.seq_len,
        device=args.device, mask=args.mask, engine=args.engine, seed=args.seed,
    )
    path = export_chrome_trace(compiled.prepared, args.output)
    print(f"wrote {path} ({compiled.engine_name}, "
          f"{format_time(compiled.latency_s)} simulated)")
    print("open chrome://tracing or https://ui.perfetto.dev and load it")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import MetricsRegistry, Tracer, use_metrics, use_tracer
    from repro.obs.export import (
        metrics_csv,
        prometheus_text,
        validate_chrome_trace,
        write_chrome_trace,
    )

    tracer = Tracer()
    metrics = MetricsRegistry()
    with use_tracer(tracer), use_metrics(metrics):
        if args.workload == "compile":
            engine_kwargs = {}
            if getattr(args, "exec_backend", None):
                engine_kwargs["exec_backend"] = args.exec_backend
            compiled = compile_model(
                args.model, args.batch, args.seq_len,
                device=args.device, mask=args.mask, engine=args.engine,
                seed=args.seed, **engine_kwargs,
            )
            if engine_kwargs:
                # Functional forward pass so execution spans land in the
                # trace — for codegen, emission (cold) vs execution (every
                # call) separate into codegen.emit / codegen.exec lanes.
                compiled.run()
            meta = {
                "workload": "compile", "engine": compiled.engine_name,
                "model": args.model, "device": args.device, "mask": args.mask,
            }
            print(compiled.summary())
        else:   # serve-sim
            from repro.serving import (
                ServingConfig,
                ServingEngine,
                make_scheduler,
                synthetic_trace,
            )

            spec = get_spec(args.device)
            trace = synthetic_trace(
                args.num_requests, args.rate,
                rng=RngStream(args.seed).fork("trace"), pattern=args.mask,
            )
            engine = ServingEngine(
                spec, make_scheduler("continuous", 16, 65536), ServingConfig()
            )
            report = engine.run(trace, rng=RngStream(args.seed))
            meta = {
                "workload": "serve-sim", "policy": report.policy,
                "device": args.device, "mask": args.mask,
            }
            print(report.summary())

    path = write_chrome_trace(tracer, args.output, meta)
    print(f"\nwrote {path} ({len(tracer)} spans)")
    print("open chrome://tracing or https://ui.perfetto.dev and load it")
    if args.metrics_output:
        out = Path(args.metrics_output)
        text = (
            metrics_csv(metrics) if out.suffix == ".csv"
            else prometheus_text(metrics)
        )
        out.write_text(text)
        print(f"wrote {out}")
    if args.check:
        problems = validate_chrome_trace(json.loads(Path(path).read_text()))
        if problems:
            for problem in problems:
                print(f"trace schema: {problem}", file=sys.stderr)
            return 1
        print("trace schema: OK")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    results = Path(args.results_dir)
    files = sorted(results.glob("*.txt"))
    if not files:
        print(f"no result tables in {results}; run "
              "`pytest benchmarks/ --benchmark-only` first", file=sys.stderr)
        return 2
    lines = [
        "# STOF reproduction — collected results",
        "",
        "Generated from `benchmarks/results/` (see EXPERIMENTS.md for the",
        "paper-vs-measured discussion of every table).",
        "",
    ]
    for f in files:
        lines.append(f"## {f.stem}")
        lines.append("")
        lines.append("```")
        lines.append(f.read_text().rstrip())
        lines.append("```")
        lines.append("")
    out = Path(args.output)
    out.write_text("\n".join(lines))
    print(f"wrote {out} ({len(files)} tables)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STOF reproduction: sparse Transformer acceleration "
                    "on a simulated GPU.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("devices", help="list simulated GPUs")
    p.set_defaults(func=cmd_devices)

    p = sub.add_parser("masks", help="Table-2 style mask analysis")
    _add_mask(p, default=None,
              help="analyze one pattern (default: all)")
    p.add_argument("--seq-len", type=int, default=1024)
    p.add_argument("--show", action="store_true",
                   help="render the mask and its BSR block grid")
    p.add_argument("--show-width", type=int, default=64)
    p.add_argument("--block", type=int, default=64,
                   help="block size for the --show grid")
    _add_common(p)
    p.set_defaults(func=cmd_masks)

    p = sub.add_parser("mha", help="compare attention methods")
    _add_mask(p, default="bigbird", choices=sorted(PATTERN_REGISTRY))
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--seq-len", type=int, default=1024)
    p.add_argument("--heads", type=int, default=12)
    p.add_argument("--head-size", type=int, default=64)
    _add_common(p)
    p.set_defaults(func=cmd_mha)

    p = sub.add_parser("e2e", help="compare end-to-end engines")
    p.add_argument("--model", default="bert-base")
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--seq-len", type=int, default=512)
    p.add_argument("--mask", default="bigbird")
    p.add_argument("--engines", default=None,
                   help="comma-separated subset (default: all)")
    _add_common(p)
    p.set_defaults(func=cmd_e2e)

    p = sub.add_parser("trace", help="export a Chrome-trace of a plan")
    p.add_argument("--model", default="bert-small")
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--seq-len", type=int, default=128)
    p.add_argument("--mask", default="bigbird")
    p.add_argument("--engine", default="stof")
    p.add_argument("--output", default="stof_trace.json")
    _add_common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("report", help="collate benchmark tables to markdown")
    p.add_argument("--results-dir", default="benchmarks/results")
    p.add_argument("--output", default="REPORT.md")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("decode", help="KV-cache generation throughput")
    _add_mask(p, default="sliding_window", choices=sorted(PATTERN_REGISTRY))
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--heads", type=int, default=12)
    p.add_argument("--head-size", type=int, default=64)
    p.add_argument("--prompt", type=int, default=128)
    p.add_argument("--generate", type=int, default=128)
    _add_common(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("serve-sim", help="continuous-batching serving simulation")
    p.add_argument("--policy", default="both",
                   choices=("static", "continuous", "both"))
    _add_mask(p, default="causal", choices=sorted(PATTERN_REGISTRY))
    p.add_argument("--num-requests", type=int, default=32)
    p.add_argument("--rate", type=float, default=500.0,
                   help="mean arrival rate (requests/s)")
    p.add_argument("--prompt-min", type=int, default=32)
    p.add_argument("--prompt-max", type=int, default=160)
    p.add_argument("--new-min", type=int, default=16)
    p.add_argument("--new-max", type=int, default=64)
    p.add_argument("--heads", type=int, default=12)
    p.add_argument("--head-size", type=int, default=64)
    p.add_argument("--layers", type=int, default=12)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--max-batch-tokens", type=int, default=65536)
    p.add_argument("--kv-frac", type=float, default=0.3,
                   help="fraction of device memory granted to the KV cache")
    p.add_argument("--page-tokens", type=int, default=16)
    p.add_argument("--symbolic-plan-keys", action="store_true",
                   help="share guarded decode-plan families across requests "
                        "(see docs/symbolic_shapes.md)")
    _add_workload_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_serve_sim)

    p = sub.add_parser(
        "shard-sim",
        help="multi-GPU serving simulation (tensor + data parallel)",
    )
    p.add_argument("--tp", type=int, default=2,
                   help="tensor-parallel ranks per replica")
    p.add_argument("--pp", type=int, default=1,
                   help="pipeline stages per replica (layers must divide)")
    p.add_argument("--dp", type=int, default=1,
                   help="data-parallel replicas")
    p.add_argument("--link", default="nvlink",
                   choices=("nvlink", "pcie", "ib"),
                   help="inter-GPU link for the TP collectives")
    p.add_argument("--inter-link", default=None,
                   choices=("nvlink", "pcie", "ib"),
                   help="inter-node link: makes collectives hierarchical "
                        "and carries pipeline sends")
    p.add_argument("--no-overlap", action="store_true",
                   help="serialize every collective at its sync point "
                        "(the pre-overlap pricing model)")
    p.add_argument("--micro-batches", type=int, default=None,
                   help="1F1B micro-batches per step (default: 8 when "
                        "--pp > 1, else 1)")
    p.add_argument("--contention", type=float, default=None,
                   help="overlap contention factor in [0, 1] "
                        "(default 0.25)")
    p.add_argument("--route", default="least-loaded",
                   choices=("round-robin", "least-loaded"),
                   help="request routing across DP replicas")
    p.add_argument("--policy", default="continuous",
                   choices=("static", "continuous"))
    _add_mask(p, default="causal", choices=sorted(PATTERN_REGISTRY))
    p.add_argument("--num-requests", type=int, default=32)
    p.add_argument("--rate", type=float, default=500.0,
                   help="mean arrival rate (requests/s)")
    p.add_argument("--prompt-min", type=int, default=32)
    p.add_argument("--prompt-max", type=int, default=160)
    p.add_argument("--new-min", type=int, default=16)
    p.add_argument("--new-max", type=int, default=64)
    p.add_argument("--heads", type=int, default=12)
    p.add_argument("--head-size", type=int, default=64)
    p.add_argument("--layers", type=int, default=12)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--max-batch-tokens", type=int, default=65536)
    p.add_argument("--kv-frac", type=float, default=0.3,
                   help="fraction of device memory granted to the KV cache")
    p.add_argument("--page-tokens", type=int, default=16)
    p.add_argument("--symbolic-plan-keys", action="store_true",
                   help="share guarded decode-plan families across requests "
                        "(see docs/symbolic_shapes.md)")
    _add_common(p)
    p.set_defaults(func=cmd_shard_sim)

    p = sub.add_parser(
        "fleet-sim",
        help="autoscaled multi-tenant fleet simulation with SLOs and "
             "prefix-sharing KV",
    )
    p.add_argument("--scenario", default="diurnal",
                   choices=("steady", "diurnal", "bursty"),
                   help="arrival-process shape over the default tenant mix")
    p.add_argument("--num-requests", type=int, default=48)
    p.add_argument("--rate", type=float, default=2000.0,
                   help="mean arrival rate (requests/s)")
    p.add_argument("--tp", type=int, default=1,
                   help="tensor-parallel ranks per replica")
    p.add_argument("--pp", type=int, default=1,
                   help="pipeline stages per replica")
    p.add_argument("--link", default="nvlink",
                   choices=("nvlink", "pcie", "ib"))
    p.add_argument("--min-replicas", type=int, default=1)
    p.add_argument("--max-replicas", type=int, default=8)
    p.add_argument("--scale-up-latency", type=float, default=2e-3,
                   help="seconds from scale-up decision to serving traffic")
    p.add_argument("--target-utilization", type=float, default=0.7,
                   help="fraction of probed capacity the autoscaler plans to")
    p.add_argument("--no-slo", action="store_true",
                   help="plain continuous batching instead of the "
                        "SLO-aware scheduler")
    p.add_argument("--frontier", action="store_true",
                   help="also sweep fixed DP widths vs the autoscaler")
    p.add_argument("--dp-values", default="1,2,4",
                   help="comma-separated fixed DP widths for --frontier")
    p.add_argument("--heads", type=int, default=12)
    p.add_argument("--head-size", type=int, default=64)
    p.add_argument("--layers", type=int, default=12)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--max-batch-tokens", type=int, default=65536)
    p.add_argument("--kv-frac", type=float, default=0.3)
    p.add_argument("--page-tokens", type=int, default=16)
    _add_workload_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_fleet_sim)

    p = sub.add_parser(
        "plan-cache",
        help="plan-cache effectiveness: serving sim with and without reuse",
    )
    _add_mask(p, default="causal", choices=sorted(PATTERN_REGISTRY))
    p.add_argument("--num-requests", type=int, default=12)
    p.add_argument("--rate", type=float, default=2000.0,
                   help="mean arrival rate (requests/s)")
    p.add_argument("--save", default=None,
                   help="persist the warm plan cache to this JSON file")
    p.add_argument("--load", default=None,
                   help="inspect a saved plan-cache file instead of running")
    p.add_argument("--symbolic-plan-keys", action="store_true",
                   help="share guarded decode-plan families across requests "
                        "(see docs/symbolic_shapes.md)")
    _add_common(p)
    p.set_defaults(func=cmd_plan_cache)

    p = sub.add_parser("tune", help="run STOF's two-stage tuner and inspect it")
    p.add_argument("--model", default="bert-small")
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--seq-len", type=int, default=128)
    p.add_argument("--mask", default="bigbird")
    _add_common(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "profile",
        help="run a workload under the observability layer and export "
             "spans + metrics",
    )
    p.add_argument("--workload", default="compile",
                   choices=("compile", "serve-sim"))
    p.add_argument("--model", default="bert-small")
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--seq-len", type=int, default=128)
    _add_mask(p, default="bigbird")
    p.add_argument("--engine", default="stof")
    p.add_argument("--exec-backend", default=None,
                   choices=("codegen", "loop"),
                   help="compile workload: also execute a forward pass "
                        "under this execution backend so kernel spans "
                        "(e.g. codegen.emit vs codegen.exec) are traced")
    p.add_argument("--num-requests", type=int, default=8,
                   help="serve-sim workload: trace size")
    p.add_argument("--rate", type=float, default=500.0,
                   help="serve-sim workload: mean arrival rate (req/s)")
    p.add_argument("--output", default="stof_profile.json",
                   help="Chrome-trace JSON output path")
    p.add_argument("--metrics-output", default=None,
                   help="also write metrics (.csv for CSV, else "
                        "Prometheus text)")
    p.add_argument("--check", action="store_true",
                   help="validate the emitted trace against the schema; "
                        "nonzero exit on problems")
    _add_common(p)
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; exit quietly like
        # well-behaved Unix tools do.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests/main
    raise SystemExit(main())
