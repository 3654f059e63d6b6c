"""Spans around calls into the program's layers, with Spark counters.

A traced run swaps each layer's public function, at the place the
program looks it up, for a wrapper that opens a span, calls the real
function, and materializes a DataFrame result (persist + count) before
the span closes. Spark is lazy, so without that the span would time
only plan construction; with it, the downstream layer reads the cached
result instead of recomputing it, and each span owns exactly its own
layer's jobs. Work a span does is tagged with a Spark job group; after
the run the jobs of each group are looked up in the status store and
their stages' task counts, run time and shuffle bytes summed.

Spans are kept in memory and written out once, when the benchmark
ends.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

#: Quantities recorded for every span whose layer runs Spark jobs.
SPARK_QUANTITIES = {
    "wall_s": ("s", "lower"),
    "rows": ("count", "lower"),
    "jobs": ("count", "lower"),
    "tasks": ("count", "lower"),
    "shuffle_bytes": ("bytes", "lower"),
    "busy_frac": ("ratio", "higher"),
}
#: Quantities of driver-only spans (no Spark work).
DRIVER_QUANTITIES = {"wall_s": ("s", "lower"), "rows": ("count", "lower")}
#: Extra counts recorded at some boundaries.
EXTRA_QUANTITIES = {
    "wedges": ("count", "lower"),
    "close_ratio": ("ratio", "higher"),
    "cached_bytes": ("bytes", "lower"),
    "approx_edge_frac": ("ratio", "higher"),
    "leaked_cached": ("count", "lower"),
}

#: Every traced layer function: (span name, runs Spark jobs, extra counts).
LAYERS = [
    ("graph.graphframe.degrees", True, ()),
    ("graph.triangles.degree_ranked_edges", True, ()),
    ("graph.triangles.triangle_edge_aggregates", True, ("wedges", "close_ratio")),
    ("core.similarity.edge_similarities", True, ()),
    ("core.similarity.similarities_for_edges", True, ()),
    ("core.index.neighbor_order_from_similarities", True, ()),
    ("core.index.persist", True, ("cached_bytes",)),
    ("core.query.get_cores", True, ()),
    ("core.query.similar_edges_from_cores", True, ()),
    ("core.query.assemble_clustering", True, ()),
    ("cc.union_find.components_from_edges", False, ()),
    ("lsh.simhash.simhash_sketches", True, ()),
    ("lsh.simhash.simhash_edge_similarities", True, ()),
    ("lsh.minhash.minhash_sketches", True, ()),
    ("lsh.minhash.minhash_edge_similarities", True, ()),
    ("core.approx.approx_edge_similarities", True, ("approx_edge_frac", "leaked_cached")),
    ("baselines.pscan.pscan_query", True, ()),
    ("baselines.gs_index_seq.build", False, ()),
    ("baselines.gs_index_seq.query", False, ()),
]


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """{``<module>.<function>.<quantity>``: (unit, better)} in table order."""
    out = {}
    for name, spark_work, extras in LAYERS:
        quantities = dict(SPARK_QUANTITIES if spark_work else DRIVER_QUANTITIES)
        quantities.update({q: EXTRA_QUANTITIES[q] for q in extras})
        for q, spec in quantities.items():
            out[f"{name}.{q}"] = spec
    return out


class Tracer:
    """In-memory span recorder bound to one SparkSession."""

    def __init__(self, spark, cores: int):
        self.sc = spark.sparkContext
        self.cores = cores
        self.spans: list[dict] = []
        self.operation: str | None = None
        self._stack: list[int] = []
        self._owned = []  # DataFrames this tracer persisted

    def _set_group(self, group: str | None, label: str = "") -> None:
        if group is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            self.sc.setLocalProperty("spark.job.description", None)
        else:
            self.sc.setJobGroup(group, label)

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": sid,
            "name": name,
            "operation": self.operation,
            "parent": parent,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(sid)
        self._set_group(f"perfbench-{sid}", name)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if parent is None:
                self._set_group(None)
            else:
                self._set_group(f"perfbench-{parent}", self.spans[parent]["name"])

    @contextmanager
    def untraced(self):
        """Benchmark bookkeeping jobs, kept out of every span's counters."""
        self._set_group("perfbench-untraced", "bookkeeping")
        try:
            yield
        finally:
            top = self._stack[-1] if self._stack else None
            if top is None:
                self._set_group(None)
            else:
                self._set_group(f"perfbench-{top}", self.spans[top]["name"])

    def materialize(self, df, rec: dict):
        """Persist + count ``df`` inside the current span; returns it."""
        df = df.persist()
        self._owned.append(df)
        rec["counts"]["rows"] = df.count()
        return df

    def add_count(self, name: str, key: str, value: float) -> None:
        """Add to a count of the latest span called ``name``."""
        rec = next(r for r in reversed(self.spans) if r["name"] == name)
        rec["counts"][key] = rec["counts"].get(key, 0) + value

    def release(self) -> None:
        """Unpersist everything the tracer itself cached."""
        for df in self._owned:
            df.unpersist()
        self._owned.clear()

    # -- Spark counters ------------------------------------------------

    def collect_spark_counters(self) -> None:
        """Sum each span's stage counters from the status store."""
        jsc = self.sc._jsc.sc()
        jsc.listenerBus().waitUntilEmpty()
        store = jsc.statusStore()
        tracker = self.sc.statusTracker()
        for rec in self.spans:
            jobs = tracker.getJobIdsForGroup(f"perfbench-{rec['id']}")
            c = rec["counts"]
            c.update(jobs=len(jobs), tasks=0, shuffle_bytes=0, run_s=0.0, cpu_s=0.0)
            for j in jobs:
                info = tracker.getJobInfo(j)
                for sid in list(info.stageIds) if info else []:
                    stage = store.lastStageAttempt(sid)
                    if stage.status().toString() != "COMPLETE":
                        continue  # skipped: its shuffle output was reused
                    c["tasks"] += stage.numTasks()
                    c["shuffle_bytes"] += stage.shuffleWriteBytes() + stage.shuffleReadBytes()
                    c["run_s"] += stage.executorRunTime() / 1e3
                    c["cpu_s"] += stage.executorCpuTime() / 1e9

    def self_seconds(self) -> dict[int, float]:
        """Span duration minus the part its child spans cover."""
        own = {r["id"]: r["end"] - r["start"] for r in self.spans}
        for r in self.spans:
            if r["parent"] is not None:
                own[r["parent"]] -= r["end"] - r["start"]
        return own

    def layer_totals(self, rounds: int = 1) -> dict[str, float]:
        """Every per-layer metric, per measured round.

        Spans of timed operations are averaged over ``rounds``; set-up
        spans (no operation) happen once and are reported as they are.
        """
        own = self.self_seconds()
        acc: dict[str, dict[str, float]] = {name: {} for name, _, _ in LAYERS}
        for r in self.spans:
            scale = 1.0 / rounds if r["operation"] else 1.0
            a = acc.setdefault(r["name"], {})
            a["wall_s"] = a.get("wall_s", 0.0) + own[r["id"]] * scale
            for k, v in r["counts"].items():
                a[k] = a.get(k, 0) + v * scale
        out = {}
        for name, spark_work, extras in LAYERS:
            a = acc[name]
            wall = a.get("wall_s", 0.0)
            vals = {"wall_s": wall, "rows": a.get("rows", 0)}
            if spark_work:
                vals.update(
                    jobs=a.get("jobs", 0),
                    tasks=a.get("tasks", 0),
                    shuffle_bytes=a.get("shuffle_bytes", 0),
                    busy_frac=a.get("run_s", 0.0) / (wall * self.cores) if wall > 0 else 0.0,
                )
            for q in extras:
                if q == "close_ratio":
                    w = a.get("wedges", 0)
                    vals[q] = a.get("triangles", 0) / w if w else 0.0
                elif q == "approx_edge_frac":
                    m = a.get("edges", 0)
                    vals[q] = a.get("approx_edges", 0) / m if m else 0.0
                else:
                    vals[q] = a.get(q, 0)
            out.update({f"{name}.{q}": v for q, v in vals.items()})
        return out


def oriented_wedges(edges, num_vertices: int) -> int:
    """Wedges of the degree-ranked orientation (rank = (deg, id)): the
    candidate triangles the triangle layer has to close."""
    u = edges["u"].to_numpy(np.int64)
    v = edges["v"].to_numpy(np.int64)
    deg = np.bincount(np.concatenate([u, v]), minlength=num_vertices + 1)
    rank = deg * (num_vertices + 1) + np.arange(num_vertices + 1)
    low = np.where(rank[u] < rank[v], u, v)
    out = np.bincount(low, minlength=num_vertices + 1)
    return int((out * (out - 1) // 2).sum())
