"""Benchmark of the STOF simulator: host cost and simulated outcome.

Run from the root of a checkout::

    python3 perfbench/run.py --workload long-context --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run makes one workload's inputs from ``--seed`` and repeats the
workload for ``--seconds``.  Every pass is a fresh, single-threaded child
process, started only after the previous one ended, so each pass pays the
cold set-up a user pays and its peak memory is its own.  The run checks
every output and prints a table of every metric with its clock, a JSON
detail line, and last a JSON result line.  With ``--trace 0`` the result
holds the end-to-end metrics (medians over the passes, times scaled to a
nominal host speed by ``reference.py``, timed before every pass),
measured with no tracing; with ``--trace 1`` it holds the per-layer
metrics of a traced pass, run between untraced ones whose simulated
digest it must equal.

Two clocks: "host" is the wall clock of the Python process, the cost of
running the simulator; "sim" is the simulated GPU clock, the product,
which repeats exactly for a fixed seed.  ``--workload all`` runs every
workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("long-context", "offline-batch", "fleet-mix", "paper-compile")

#: End-to-end metrics in the result line: ``(name, clock, unit)``.
END_TO_END = (
    ("wall_s", "host", "s"),
    ("peak_rss_mb", "host", "MB"),
    ("setup_s", "host", "s"),
)

#: The end-to-end times that the result line gives speed-scaled.
SCALED = ("wall_s", "setup_s")

#: Further end-to-end metrics, printed per workload where they apply.
#: They stay out of the result line, which carries the same metrics for
#: every workload; the simulated ones are pinned by the digest instead.
DETAIL = (
    ("raw_wall_s", "host", "s"),
    ("raw_setup_s", "host", "s"),
    ("host_speed", "host", "ratio"),
    ("scaling_exponent", "host", "1"),
    ("failed_frac", "-", "ratio"),
    ("sim_ttft_p50_ms", "sim", "ms"),
    ("sim_ttft_tail_ms", "sim", "ms"),
    ("sim_itl_p50_ms", "sim", "ms"),
    ("sim_itl_tail_ms", "sim", "ms"),
    ("sim_tokens_per_s", "sim", "tok/s"),
    ("sim_slo_attainment", "sim", "ratio"),
    ("sim_gpu_s_per_1k_tokens", "sim", "GPU-s"),
    ("sim_stof_speedup_geomean", "sim", "x"),
    ("sim_tuning_s", "sim", "s"),
)


#: A workload that scales runs its quarter-size pass after every third
#: full pass, so that most of a run's time goes to the passes that give
#: the result line.
QUARTER_EVERY = 3


# ------------------------------------------------------------ one pass


def isolate_environment() -> None:
    """Cold, single-threaded passes: no inherited caches, one BLAS thread.

    Must run before numpy is first imported.
    """
    for key in list(os.environ):
        if key.startswith("STOF_"):
            del os.environ[key]
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[key] = "1"


def import_program() -> float:
    """Import ``repro`` from this checkout's ``src``; return the seconds taken."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import repro
    took = time.perf_counter() - t0
    where = Path(repro.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"repro imported from {where}, not from {SRC}")
    return took


def one_pass(name: str, seed: int, fraction: float, traced: bool) -> dict:
    """Import, set up, run and check one pass in this process."""
    isolate_environment()
    import_s = import_program()
    from measure import digest, peak_rss_mb
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    tracer = contextlib.nullcontext()
    if traced:
        from layertrace import import_all
        from perlayer import collect, make_tracer

        import_all()
        tracer, caches = make_tracer()
    with tracer:
        t0 = time.perf_counter()
        inputs = wl.make_inputs(seed, fraction)
        t1 = time.perf_counter()
        result = wl.run(inputs)
        t2 = time.perf_counter()
    outcome = wl.check(inputs, result)
    out = {
        "scales": wl.scales,
        "import_s": import_s,
        "setup_s": import_s + (t1 - t0),
        "wall_s": t2 - t1,
        "peak_rss_mb": peak_rss_mb(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
        "digest": digest(wl.sim_record(inputs, result)),
        "sim": wl.sim_metrics(inputs, result),
    }
    if traced:
        # The traced window is the set-up after import plus the timed
        # phase: input generation calls wrapped entry points too.
        out["per_layer"] = collect(tracer, caches, wl.program_counts(inputs, result),
                                   t2 - t0)
        out["layer_share"] = {
            layer: s / (t2 - t0) for layer, s in tracer.layer_self_s().items() if s
        }
        out["entries"] = {
            name: {"layer": st.layer, "calls": st.calls,
                   "self_s": st.self_s, "total_s": st.total_s}
            for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)
            if st.calls
        }
        out["top_level_calls"] = len(tracer.spans)
        out["longest_top_level_spans"] = [
            {"name": n, "start_s": round(s, 6), "dur_s": round(d, 6)}
            for n, s, d in sorted(tracer.spans, key=lambda span: -span[2])[:10]
        ]
    return out


# ---------------------------------------------------------------- a run


class PassFailed(RuntimeError):
    pass


def run_child(cmd: list[str], env: dict | None = None) -> tuple[int, list[str]]:
    """Run ``cmd`` to its end; return its exit code and stdout lines.

    If this process is stopped meanwhile, the child is asked to stop too
    and waited for, so no process outlives the run.
    """
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            out, _ = proc.communicate()
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
    return proc.returncode, out.strip().splitlines()


def spawn(args, fraction: float = 1.0, traced: bool = False) -> dict:
    """One pass in a fresh child process; waits for it to end."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--pass",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(traced)),
           "--fraction", str(fraction)]
    # A fixed hash seed keeps set and dict layouts, and so host time, the
    # same from pass to pass.
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed))
    code, lines = run_child(cmd, env)
    if code != 0 or not lines:
        raise PassFailed(f"pass exited with {code}")
    return json.loads(lines[-1])


def reference() -> float:
    """Seconds of the reference work, in a fresh child process."""
    code, lines = run_child([sys.executable, str(HERE / "reference.py")])
    if code != 0 or not lines:
        raise PassFailed(f"reference exited with {code}")
    return json.loads(lines[-1])["reference_s"]


def fits(start: float, last_start: float, seconds: float, any_done: bool) -> bool:
    """Whether another round, as long as the last one, ends within
    ``seconds`` of ``start``.  The first round always runs."""
    now = time.perf_counter()
    return not any_done or (now - start) + (now - last_start) <= seconds


def rounds(seconds: float, body) -> list:
    """Call ``body(i)`` for rounds ``i = 0, 1, ...`` while they fit in
    ``seconds``."""
    start = last = time.perf_counter()
    done = []
    while fits(start, last, seconds, bool(done)):
        last = time.perf_counter()
        done.append(body(len(done)))
    return done


def run_timed(args):
    """Untraced passes: the end-to-end metrics, as medians.

    Each round times the reference work first.  The result line gives the
    median times scaled by the median reference (``measure.speed_scaled``);
    the detail line and the table also give them raw.
    """
    from measure import REFERENCE_NOMINAL_S, scaling_exponent, speed_scaled

    def body(i):
        ref = reference()
        full = spawn(args)
        quarter = full["scales"] and i % QUARTER_EVERY == 0
        return ref, full, spawn(args, fraction=0.25) if quarter else None

    done = rounds(args.seconds, body)
    refs = [ref for ref, _, _ in done]
    passes = [full for _, full, _ in done]
    quarters = [q for _, _, q in done if q is not None]
    every = passes + quarters
    raw = {name: median([p[name] for p in passes]) for name, _, _ in END_TO_END}
    ref = median(refs)
    metrics = {name: speed_scaled(v, ref) if name in SCALED else v
               for name, v in raw.items()}
    detail = dict(passes[0]["sim"])
    detail.update(raw_wall_s=raw["wall_s"], raw_setup_s=raw["setup_s"],
                  host_speed=REFERENCE_NOMINAL_S / ref)
    if quarters:
        detail["scaling_exponent"] = scaling_exponent(
            raw["wall_s"], median([q["wall_s"] for q in quarters])
        )
    totals = [sum(p["attempted"] for p in every), sum(p["failed"] for p in every)]
    problems = [msg for p in every for msg in p["problems"]]
    if len({p["digest"] for p in passes}) != 1:
        totals[1] += 1
        problems.append("simulated digest differs between passes")
    detail["failed_frac"] = totals[1] / totals[0] if totals[0] else 1.0
    info = {
        "passes": len(passes),
        "walls_s": [p["wall_s"] for p in passes],
        "quarter_walls_s": [q["wall_s"] for q in quarters],
        "setups_s": [p["setup_s"] for p in passes],
        "references_s": refs,
        "rss_mb": [p["peak_rss_mb"] for p in passes],
        "digest": passes[0]["digest"],
        "problems": problems[:20],
        "detail": detail,
    }
    return metrics, totals, info


def run_traced(args):
    """Untraced and traced passes in turn: the per-layer metrics.

    Per-layer figures come from the last traced pass.  The overhead
    compares the median traced and untraced walls, each covering the
    set-up after import plus the timed phase.
    """
    from perlayer import PER_LAYER

    done = rounds(args.seconds, lambda i: (spawn(args), spawn(args, traced=True)))
    plain = [p for p, _ in done]
    traced = [t for _, t in done]
    totals = [sum(t["attempted"] for t in traced), sum(t["failed"] for t in traced)]
    problems = [msg for t in traced for msg in t["problems"]]
    if len({p["digest"] for p in plain + traced}) != 1:
        totals[1] += 1
        problems.append("traced simulated digest differs from untraced")
    untraced_walls = [p["setup_s"] - p["import_s"] + p["wall_s"] for p in plain]
    traced_walls = [t["per_layer"]["trace.wall_s"] for t in traced]
    last = traced[-1]
    found = dict(last["per_layer"])
    found["trace.untraced_wall_s"] = median(untraced_walls)
    found["trace.overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1.0
    metrics = {name: found[name] for name, _, _ in PER_LAYER}
    info = {
        "pairs": len(done),
        "untraced_walls_s": untraced_walls,
        "traced_walls_s": traced_walls,
        "digest": last["digest"],
        "problems": problems[:20],
        "layer_share": last["layer_share"],
        "entries": last["entries"],
        "top_level_calls": last["top_level_calls"],
        "longest_top_level_spans": last["longest_top_level_spans"],
    }
    return metrics, totals, info


def print_table(workload: str, rows) -> None:
    print(f"== {workload}")
    print(f"{'metric':32} {'clock':6} {'value':>16}  unit")
    for name, clock, unit, value in rows:
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:32} {clock:6} {text:>16}  {unit}")


def run_one(args) -> int:
    try:
        if args.trace:
            from perlayer import PER_LAYER

            metrics, totals, info = run_traced(args)
            units = {name: unit for name, unit, _ in PER_LAYER}
            rows = [(n, "host" if units[n] in ("s", "us") else "-", units[n], v)
                    for n, v in metrics.items()]
        else:
            metrics, totals, info = run_timed(args)
            units = {name: unit for name, _, unit in END_TO_END}
            rows = [(n, c, u, metrics[n]) for n, c, u in END_TO_END]
            rows += [(n, c, u, info["detail"][n]) for n, c, u in DETAIL
                     if n in info["detail"]]
    except PassFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 2
    print_table(args.workload, rows)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **info}))
    correct = totals[1] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": totals[0],
        "failed": totals[1],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn; the result line prefixes metric names."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code, lines = run_child(cmd)
        if not lines:
            print(f"{name}: no result (exit {code})", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one pass in this process and print its JSON.
    parser.add_argument("--pass", dest="one_pass", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--fraction", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.one_pass:
        try:
            out = one_pass(args.workload, args.seed, args.fraction, bool(args.trace))
        except ImportError as exc:
            print(f"cannot import the program: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(out))
        return 0
    # SIGTERM unwinds like an exception, so ``run_child`` stops the pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
