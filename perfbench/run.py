"""Serving benchmark: one command, three workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload warm-pairs --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.  The
run is split into a few parts, each in a fresh process, and their raw
samples are pooled (see ``Geometry.parts``).  ``--trace 1`` is a
separate, single-process run that wraps each layer's entry points (see
``tracing.py``), prints a per-layer table, writes its spans to
``.bench_out/`` and reports the per-layer metrics.  ``--workload all``
runs each workload in its own processes, one after another.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the seed, geometry, ``nproc`` and library versions.  The
exit code is 1 when a served prediction disagrees with the reference,
2 when the program sources are missing, and 3 when the open-loop
generator fell behind (the run is void).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _import_program():
    """Import the program from ``src/`` of this checkout, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))


def per_layer(result: dict, spans: list, span_cost_s: float) -> dict:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``."""
    import numpy as np

    from perfbench.tracing import cold_states, self_times
    from perfbench.workloads import percentile

    out = result["outcome"]
    t0, t1 = out.timed_window
    timed = [s for s in spans if t0 <= s.start <= t1]
    selfs = self_times(spans)

    def named(name, group=timed):
        return [s for s in group if s.name == name]

    def mean_ms(group, own=False):
        if not group:
            return 0.0
        return 1e3 * float(np.mean([selfs[s.sid] if own else s.duration for s in group]))

    def offline_s(name):
        group = named(name, spans)
        return statistics.median(s.duration for s in group) if group else 0.0

    stats = out.batcher_stats
    h0, h1 = out.service_health
    rc0, rc1 = h0.get("request_cache", {}), h1.get("request_cache", {})
    hits = rc1.get("hits", 0) - rc0.get("hits", 0)
    lookups = hits + rc1.get("misses", 0) - rc0.get("misses", 0)
    service = named("service.predict")
    states = named("model.state")
    cold = list(cold_states(timed).values())
    fuse = named("fusion.fuse")
    fuse_blocks = [s for s in fuse if s.size is not None and s.args is not None]
    mib = 1024.0 * 1024.0
    n_spans = len(timed)
    wall = out.timed_wall_s
    return {
        "batcher.queue_wait_ms.p50": (1e3 * percentile(out.queue_wait_s, 50), "ms"),
        "batcher.queue_wait_ms.p99": (1e3 * percentile(out.queue_wait_s, 99), "ms"),
        "batcher.batch_size.mean": (
            stats.get("dispatched_requests", 0) / stats["dispatched_batches"]
            if stats.get("dispatched_batches") else 0.0, "requests"),
        "batcher.dispatches": (stats.get("dispatched_batches", 0), "count"),
        "batcher.rejected": (out.rejected, "count"),
        "service.calls": (len(service), "count"),
        "service.self_ms.mean": (mean_ms(service, own=True), "ms"),
        "service.busy_s": (sum(s.duration for s in service), "s"),
        "service.cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "service.degraded": (h1.get("degraded_total", 0) - h0.get("degraded_total", 0),
                             "count"),
        "model.predict.self_ms.mean": (mean_ms(named("model.predict"), own=True), "ms"),
        "model.state.calls": (len(states), "count"),
        "model.state.cold": (len(cold), "count"),
        "model.state.hit_ratio": (1.0 - len(cold) / len(states) if states else 0.0, "ratio"),
        "model.state.cold_ms.p50": (1e3 * percentile([s.duration for s in cold], 50), "ms"),
        "model.state.cold_ms.p99": (1e3 * percentile([s.duration for s in cold], 99), "ms"),
        "model.state.entries": (out.model_stats.get("entries", 0), "count"),
        "icluster.affinity_ms.mean": (mean_ms(named("icluster.affinity")), "ms"),
        "icluster.candidates_ms.mean": (mean_ms(named("icluster.candidates")), "ms"),
        "selection.topk_ms.mean": (mean_ms(named("selection.topk")), "ms"),
        "fusion.prepare_ms.mean": (mean_ms(named("fusion.prepare")), "ms"),
        "fusion.fuse.calls": (len(fuse), "count"),
        "fusion.fuse_ms.mean": (mean_ms(fuse), "ms"),
        "fusion.fuse.busy_s": (sum(s.duration for s in fuse), "s"),
        "fusion.fuse.requests_per_call": (
            float(np.mean([s.size for s in fuse_blocks])) if fuse_blocks else 0.0, "requests"),
        "fusion.fuse.blocks_per_call": (
            float(np.mean([s.args for s in fuse_blocks])) if fuse_blocks else 0.0, "blocks"),
        "kernel_mb": (out.offline.get("kernel_bytes", 0) / mib, "MB"),
        "gis.build_s": (offline_s("gis.build"), "s"),
        "cluster.fit_s": (offline_s("cluster.fit"), "s"),
        "smooth.apply_s": (offline_s("smooth.apply"), "s"),
        "icluster.build_s": (offline_s("icluster.build"), "s"),
        "kernel.build_s": (offline_s("kernel.build"), "s"),
        "neighbor_cache_mb": (out.offline.get("neighbor_cache_bytes", 0) / mib, "MB"),
        "data.with_ratings_ms.p50": (
            1e3 * percentile([s.duration for s in named("data.with_ratings", spans)], 50), "ms"),
        "loadgen.late_ms.p99": (1e3 * percentile(out.late_s, 99), "ms"),
        "trace.overhead": (n_spans * span_cost_s / wall if wall else 0.0, "share"),
    }


def run_traced(args) -> int:
    """One process with every layer wrapped; prints per-layer metrics."""
    from perfbench import workloads
    from perfbench.tracing import Tracer, layer_table, write_spans

    tracer = Tracer().install()
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, tracer=tracer)
    except workloads.InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        tracer.uninstall()
    summary = workloads.summarize(result)
    spans = tracer.spans()
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}"
    write_spans(stem.with_suffix(".spans.jsonl"), spans)
    t0, t1 = result["outcome"].timed_window
    table = layer_table([s for s in spans if t0 <= s.start <= t1],
                        result["outcome"].timed_wall_s)
    stem.with_suffix(".layers.txt").write_text(table + "\n")
    print(table)
    if tracer.absent:
        print(f"absent trace targets: {', '.join(tracer.absent)}")
    metrics = per_layer(result, spans, tracer.span_cost())
    return _report(dict(result["info"], trace=True), metrics, [summary])


def run_part(args) -> int:
    """One untraced part, in this process; its last line is its raw summary."""
    from perfbench import workloads

    try:
        result = workloads.run(args.workload, args.seed, args.seconds, part=args.part)
    except workloads.InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"run": result["info"]}))
    print(json.dumps(workloads.summarize(result)))
    return 0


def run_untraced(args) -> int:
    """The end-to-end run: its parts in fresh processes, one after another."""
    from perfbench import workloads

    n_parts = workloads.GEOMETRY[args.workload].parts
    summaries, info = [], {}
    for part in range(n_parts):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / n_parts),
               "--part", str(part)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        info = json.loads(lines[-2])["run"]
        summaries.append(json.loads(lines[-1]))
    info.update(seconds=args.seconds, parts=n_parts, trace=False,
                plan_exhausted=any(p["exhausted"] for p in summaries))
    info.pop("part", None)
    return _report(info, workloads.end_to_end(summaries)[0], summaries)


def _report(info: dict, metrics: dict, summaries: list[dict]) -> int:
    """Print the run record and the result line; exit 1 on any mismatch."""
    attempted = sum(p["attempted"] for p in summaries)
    failed = sum(p["failed"] for p in summaries)
    mismatches = sum(p["mismatches"] for p in summaries)
    info.update(sent=attempted, ok=attempted - failed, failed=failed, mismatches=mismatches)
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    if mismatches:
        from perfbench.workloads import TOL

        print(f"perfbench: {mismatches} served predictions differ from the reference "
              f"by more than {TOL:g}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in (*WORKLOADS, "all"):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.part is not None:
        return run_part(args)
    if args.workload != "all":
        return run_traced(args) if args.trace else run_untraced(args)
    # Each workload in its own fresh processes, one after another, so
    # caches and peak RSS do not carry over between workloads.
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        code = code or proc.returncode
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(f"{'workload':<16}{'sent':>9}{'ok':>9}{'failed':>8}")
    for name, res in results.items():
        if res is None:
            print(f"{name:<16}{'(no result)':>26}")
        else:
            print(f"{name:<16}{res['attempted']:>9}{res['attempted'] - res['failed']:>9}"
                  f"{res['failed']:>8}")
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
