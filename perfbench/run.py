"""Benchmark of the PySpark SCAN index: one workload, one seed, one run.

    python3 perfbench/run.py --workload build-exact --seed 1 --seconds 5 --trace 0

Runs the named workload (see ``workloads.py``) in a fresh local-mode
Spark session, checks every answer against the sequential GS*-Index,
and prints the metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the run measures one untraced round and then traced
rounds, and the metrics are the per-layer ones. The full report, spans
included, goes to ``perfbench/out/``. The exit code is non-zero when
any operation failed or its answer was wrong.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import bench_env

#: End-to-end metrics: name -> (unit, better). Every workload reports
#: all of them for its own timed operation (exact build, index query or
#: LSH build) on its sparse and its dense graph.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sparse_p50_s": ("s", "lower"),
    "dense_p50_s": ("s", "lower"),
    "edges_per_s": ("edges/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="use the Figure-1 graph everywhere")
    p.add_argument(
        "--corrupt", action="store_true", help="tamper with each checked clustering"
    )
    return p.parse_args(argv)


def percentiles(xs: list[float]) -> dict:
    """Median and the highest of p90/p99 with >= 10 samples beyond it."""
    out = {"n": len(xs), "p50": statistics.median(xs) if xs else None}
    for p in (90, 99):
        if len(xs) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(xs, n=100)[p - 1]
    return out


def summarize(w, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    """(end-to-end metrics, ungated details) of a finished run."""
    timed = [o for o in w.ops if o.kind == w.primary and o.seconds is not None]
    by_role = {r: [o.seconds for o in timed if o.role == r] for r in ("sparse", "dense")}
    total_s = sum(o.seconds for o in timed)
    metrics = {
        "setup_s": setup_s,
        "sparse_p50_s": statistics.median(by_role["sparse"]) if by_role["sparse"] else None,
        "dense_p50_s": statistics.median(by_role["dense"]) if by_role["dense"] else None,
        "edges_per_s": sum(o.edges for o in timed) / total_s if total_s else None,
        "peak_rss_mb": rss_mb,
    }
    done = [o for o in w.ops if o.seconds is not None]
    timings = {}
    for kind in sorted({o.kind for o in done}):
        for role in ("sparse", "dense", "all"):
            xs = [o.seconds for o in done if o.kind == kind and role in ("all", o.role)]
            if xs:
                timings[f"{kind}.{role}"] = percentiles(xs)
    details = {
        "timings": timings,
        "ari": {
            r: statistics.fmean([o.ari for o in timed if o.role == r and o.ari is not None])
            for r in ("sparse", "dense")
            if any(o.ari is not None for o in timed if o.role == r)
        },
        "failed_ops_frac": sum(1 for o in w.ops if o.problems) / max(1, len(w.ops)),
        "leaked_cached": sum(o.leaked_cached for o in w.ops),
        "guard_violations": w.guard_violations,
        "index_evictions": w.evictions,
        "reference_build_s": {i.role: i.ref_build_s for i in w.inputs},
        "paper_ratios": w.paper_ratios(),
    }
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_env.use_source()
    from workloads import WORKLOADS  # imports repro: after the source check

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    t0 = time.perf_counter()
    spark, session_s = bench_env.launch(f"perfbench-{args.workload}")
    try:
        env = bench_env.describe(spark)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer(spark, bench_env.CORES)
        w = WORKLOADS[args.workload](spark, args.seed, args.smoke, tracer, args.corrupt)
        w.setup()
        w.guard.pin()
        setup_s = time.perf_counter() - t0

        start = time.perf_counter()
        if args.trace:
            from instrument import instrumented

            w.tracer = None
            n0 = len(w.ops)
            w.round(with_baseline=True)
            plain_s = sum(o.seconds or 0 for o in w.ops[n0:])
            w.tracer = tracer
            traced_s, rounds = 0.0, 0
            while rounds == 0 or time.perf_counter() - start < args.seconds:
                n0 = len(w.ops)
                with instrumented(tracer):
                    w.round(with_baseline=True)
                traced_s += sum(o.seconds or 0 for o in w.ops[n0:])
                rounds += 1
        else:
            while not w.ops or time.perf_counter() - start < args.seconds:
                w.round(with_baseline=False)
        measured_s = time.perf_counter() - start

        metrics, details = summarize(w, setup_s, bench_env.peak_rss_mb(spark))
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "smoke": args.smoke,
            "environment": env,
            "session_start_s": session_s,
            "measured_s": measured_s,
            "end_to_end": metrics,
            "details": details,
            "ops": [o.__dict__ for o in w.ops],
        }
        if args.trace:
            tracer.collect_spark_counters()
            layers = tracer.layer_totals(rounds)
            report["per_layer"] = layers
            report["tracing_overhead_s"] = traced_s / rounds - plain_s
            report["spans"] = tracer.spans
    finally:
        bench_env.stop(spark)

    bench_env.OUT.mkdir(parents=True, exist_ok=True)
    out_file = bench_env.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str))

    if args.trace:
        from spans import per_layer_metrics

        specs, values = per_layer_metrics(), report["per_layer"]
    else:
        specs, values = END_TO_END, metrics
    for k, v in env.items():
        print(f"env {k} = {v}")
    for k, v in details["timings"].items():
        print(f"timing {k}: " + " ".join(f"{q}={x:.4g}" for q, x in v.items()))
    for k in ("ari", "failed_ops_frac", "leaked_cached", "guard_violations", "index_evictions"):
        print(f"{k} = {details[k]}")
    for k, v in details["paper_ratios"].items():
        print(f"ratio {k} = {v:.4g}")
    if args.trace:
        print(f"tracing_overhead_s = {report['tracing_overhead_s']:.4g}")
    for name, (unit, better) in specs.items():
        print(f"metric {name} = {values[name]} {unit} ({better} is better)")
    for o in w.ops:
        for p in o.problems:
            print(f"FAILED {o.kind} {o.role} {o.params}: {p}", file=sys.stderr)
    print(f"report written to {out_file.relative_to(bench_env.ROOT)}")

    failed = sum(1 for o in w.ops if o.problems)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(w.ops),
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in specs.items()
                },
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
