"""The benchmark's three workloads.

Each workload runs one closed-loop client: it issues the next
operation only after the previous one returned and was checked. Every
workload has one sparse and one dense graph, shaped like the
``repro.experiments.datasets`` registry entries but with fewer blocks,
so that a whole run (session start, set-up, measurement) fits in well
under a minute of local-mode Spark:

- ``build-exact``: cold exact index builds on an orkut_lite-shaped
  graph (sparse, planted communities, cosine) and a cochlea_lite-shaped
  one (dense, weighted, weighted cosine). Degrees, orientation,
  triangles, similarity and the NO sort do the work; a kernel change
  that helps one density and hurts the other shows on one of the two.
- ``query-sweep``: the orkut_lite- and brain_lite-shaped indices are
  built once in set-up; the client then issues seeded (mu, eps) draws
  from the Figure 6/7 grid and pulls each clustering to the driver.
  Only the query layers and union-find work; a triangle pass inside a
  query means the index fell out of the cache. Traced runs also answer
  one draw per round with ppSCAN.
- ``build-approx``: LSH builds: SimHash (k=32, cosine) on the
  brain_lite-shaped graph, where every edge is sketched, and
  k-partition MinHash (k=32, Jaccard) on the orkut_lite-shaped one,
  where the degree heuristic sends nearly every edge to the exact
  subset kernel. The split of work is opposite on the two graphs.
"""
from __future__ import annotations

import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

import bench_env
import checks
import repro.baselines.pscan as pscan
import repro.core.approx as approx
import repro.core.index as index
import repro.core.query as query
from repro.baselines.gs_index_seq import SequentialGSIndex
from repro.graph import generators as gen
from repro.graph.graphframe import UndirectedGraph

#: Registry shapes (block size, p_in, p_out, weights) with fewer blocks.
SHAPES = {
    "orkut": dict(n=600, n_blocks=10, p_in=0.70, p_out=0.001, seed=11),
    "brain": dict(n=350, n_blocks=7, p_in=0.70, p_out=0.10, seed=14),
    "cochlea": dict(n=200, n_blocks=4, p_in=0.90, p_out=0.45, seed=16, weighted=True),
}
#: Figure 6/7 parameter grid.
MU_GRID = (2, 4, 8, 16, 32, 64)
EPS_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))
#: (mu, eps) at which a build's clustering is compared with the
#: reference's: a setting that recovers the planted blocks.
ARI_AT = {"cosine": (5, 0.4), "wcosine": (5, 0.5), "jaccard": (5, 0.4)}
LSH_SAMPLES = 32


@dataclass
class Input:
    """One graph of a workload, with its sequential reference."""

    role: str  # "sparse" or "dense"
    graph: UndirectedGraph
    edges: pd.DataFrame
    measure: str
    ref: SequentialGSIndex
    ref_build_s: float


@dataclass
class Op:
    """One timed operation and the verdict of its check."""

    kind: str
    role: str
    edges: int
    seconds: float | None = None
    problems: list[str] = field(default_factory=list)
    ari: float | None = None
    leaked_cached: int = 0
    params: tuple = ()


class CacheGuard:
    """Keeps Spark's cache at the set pinned after set-up.

    Graph inputs (and query-sweep's indices) are pinned; anything else
    an operation leaves cached is counted and dropped, so the next timed
    operation starts cold.
    """

    def __init__(self, spark):
        self.spark = spark
        self.jsc = spark.sparkContext._jsc
        self.keep: set[int] = set()

    def ids(self) -> set[int]:
        return set(self.jsc.getPersistentRDDs().keys())

    def pin(self) -> None:
        self.keep = self.ids()

    def sweep(self) -> int:
        """Drop cached data beyond the pinned set; returns how many RDDs."""
        extra = self.ids() - self.keep
        if extra:
            self.spark.catalog.clearCache()
            for rid, rdd in self.jsc.getPersistentRDDs().items():
                if rid not in self.keep:
                    rdd.unpersist(True)
        return len(extra)

    def missing(self) -> set[int]:
        return self.keep - self.ids()


class Workload:
    """Set-up, rounds of timed operations, and their checks."""

    name = ""
    primary = ""  # kind of the operation the end-to-end metrics time

    def __init__(self, spark, seed: int, smoke: bool = False, tracer=None, corrupt=False):
        self.spark = spark
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.corrupt = corrupt
        self.guard = CacheGuard(spark)
        self.ops: list[Op] = []
        self.guard_violations = 0
        self.evictions = 0
        self.rng = np.random.default_rng(seed)

    # -- helpers -------------------------------------------------------

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext({"counts": {}})

    def make_input(self, role: str, shape: str, measure: str) -> Input:
        if self.smoke:
            edges = pd.DataFrame(gen.FIG1_EDGES, columns=["u", "v"]).assign(w=1.0)
            n, weighted = gen.FIG1_NUM_VERTICES, False
        else:
            kw = dict(SHAPES[shape])
            kw["seed"] = 1000 * self.seed + kw["seed"]
            edges = gen.sbm_edges_pandas(**kw)
            n, weighted = kw["n"], kw.get("weighted", False)
        g = UndirectedGraph.from_pandas(self.spark, edges, num_vertices=n, weighted=weighted)
        # The input stays out of Spark's DataFrame cache, which the
        # guard clears between operations.
        g.edges = g.edges.localCheckpoint(eager=True)
        g.num_edges()
        t0 = time.perf_counter()
        with self.span("baselines.gs_index_seq.build") as rec:
            ref = SequentialGSIndex(edges, n, measure).build()
            rec["counts"]["rows"] = len(ref.sim_lookup)
        return Input(role, g, edges, measure, ref, time.perf_counter() - t0)

    def reference_query(self, inp: Input, mu: int, eps: float) -> dict[int, int]:
        with self.span("baselines.gs_index_seq.query") as rec:
            want = inp.ref.query(mu, eps)
            rec["counts"]["rows"] = len(want)
        return want

    def tamper(self, clustering: dict[int, int]) -> dict[int, int]:
        """With ``corrupt``, move one vertex to a cluster of its own (the
        checker's negative test)."""
        if not self.corrupt:
            return clustering
        bad = dict(clustering)
        v = max(bad) if bad else 1
        bad[v] = -1
        return bad

    def index_checks(self, op: Op, inp: Input, idx, keep=None) -> None:
        no = idx.neighbor_order.toPandas()
        op.problems += checks.index_shape(no, idx.core_order.count(), inp.graph.num_edges())
        op.problems += checks.similarities(no, inp.ref, keep)
        mu, eps = ARI_AT[inp.measure]
        got = self.tamper(checks.clustering_from_index(no, inp.graph.num_vertices, mu, eps))
        want = self.reference_query(inp, mu, eps)
        op.ari = checks.ari(got, want, inp.graph.num_vertices)
        if keep is None:  # exact build: the clustering must match exactly
            op.problems += checks.labels(got, want)

    def run_op(self, op: Op, body) -> Op:
        """Run one timed operation from a cold cache; ``body(op)`` times
        the call, checks the answer and releases what the call returned."""
        if self.guard.ids() - self.guard.keep:
            self.guard_violations += 1
            self.guard.sweep()
        if self.guard.missing():
            self.evictions += 1
            self.restore()
        if self.tracer:
            self.tracer.operation = f"{op.kind}-{len(self.ops)}"
        try:
            body(op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            op.problems.append("raised " + traceback.format_exc(limit=0).strip())
        finally:
            if self.tracer:
                self.tracer.release()
                self.tracer.operation = None
        op.leaked_cached = self.guard.sweep()
        self.ops.append(op)
        return op

    def timed(self, op: Op, name: str, fn):
        with self.span(f"perfbench.{name}"):
            t0 = time.perf_counter()
            out = fn()
            op.seconds = time.perf_counter() - t0
        return out

    # -- to override ---------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, with_baseline: bool) -> None:
        raise NotImplementedError

    def restore(self) -> None:
        """Re-create pinned state the guard found missing."""
        self.guard.pin()

    def paper_ratios(self) -> dict[str, float]:
        return {}


def _median(xs):
    return float(np.median(xs)) if len(xs) else None


class BuildExact(Workload):
    name = "build-exact"
    primary = "build"

    def setup(self):
        self.inputs = [
            self.make_input("sparse", "orkut", "cosine"),
            self.make_input("dense", "cochlea", "wcosine"),
        ]
        # JIT warm-up: the first build of a session (and the first with
        # weighted cosine) is markedly slower.
        for inp in self.inputs:
            index.build_index(inp.graph, inp.measure).persist().unpersist()

    def build(self, inp: Input):
        op = Op("build", inp.role, inp.graph.num_edges())

        def body(op):
            idx = self.timed(
                op, "build_index", lambda: index.build_index(inp.graph, inp.measure).persist()
            )
            try:
                self.index_checks(op, inp, idx)
            finally:
                idx.unpersist()

        return self.run_op(op, body)

    def round(self, with_baseline):
        for inp in self.inputs:
            self.build(inp)

    def paper_ratios(self):
        out = {}
        for inp in self.inputs:
            spark_s = _median([o.seconds for o in self.ops if o.role == inp.role and o.seconds])
            if spark_s:
                out[f"fig5_gs_index_over_spark_build.{inp.role}"] = inp.ref_build_s / spark_s
        return out


class QuerySweep(Workload):
    name = "query-sweep"
    primary = "query"

    def setup(self):
        self.inputs = [
            self.make_input("sparse", "orkut", "cosine"),
            self.make_input("dense", "brain", "cosine"),
        ]
        self.mus: list[int] = []
        self.restore()
        # JIT warm-up: the first queries of a session run markedly slower.
        for idx in self.indices.values():
            for mu in (2, 8, 32):
                query.query_clusters(idx, mu, 0.5).labels_pandas()

    def restore(self):
        self.indices = {
            inp.role: index.build_index(inp.graph, inp.measure).persist() for inp in self.inputs
        }
        self.guard.pin()

    def draw(self) -> tuple[int, float]:
        """Next (mu, eps): mu cycles through the grid in a seeded order, so
        every run spreads its draws evenly over mu; eps is uniform."""
        if not self.mus:
            self.mus = list(self.rng.permutation(MU_GRID))
        return int(self.mus.pop()), float(self.rng.choice(EPS_GRID))

    def query(self, inp: Input, mu: int, eps: float):
        op = Op("query", inp.role, inp.graph.num_edges(), params=(mu, eps))
        idx = self.indices[inp.role]

        def body(op):
            got = self.timed(
                op, "query_clusters", lambda: query.query_clusters(idx, mu, eps).labels_pandas()
            )
            got = self.tamper(got)
            want = self.reference_query(inp, mu, eps)
            op.problems += checks.labels(got, want)
            op.ari = checks.ari(got, want, inp.graph.num_vertices)

        return self.run_op(op, body)

    def pscan(self, inp: Input, mu: int, eps: float):
        op = Op("pscan", inp.role, inp.graph.num_edges(), params=(mu, eps))

        def body(op):
            res = self.timed(
                op, "pscan_query", lambda: pscan.pscan_query(inp.graph, mu, eps, inp.measure)
            )
            try:
                got = res.assignments.toPandas()
            finally:
                res.assignments.unpersist()
            want = self.reference_query(inp, mu, eps)
            op.problems += checks.core_labels(got, want, inp.ref.cores(mu, eps))

        return self.run_op(op, body)

    def round(self, with_baseline):
        for inp in self.inputs:
            mu, eps = self.draw()
            self.query(inp, mu, eps)
            if with_baseline and inp.role == "sparse":
                self.pscan(inp, mu, eps)

    def paper_ratios(self):
        pp = _median([o.seconds for o in self.ops if o.kind == "pscan" and o.seconds])
        q = _median(
            [o.seconds for o in self.ops if o.kind == "query" and o.role == "sparse" and o.seconds]
        )
        return {"fig6_7_pscan_over_index_query.sparse": pp / q} if pp and q else {}


class BuildApprox(Workload):
    name = "build-approx"
    primary = "approx"

    def setup(self):
        self.inputs = [
            self.make_input("dense", "brain", "cosine"),
            self.make_input("sparse", "orkut", "jaccard"),
        ]
        # JIT warm-up with an exact build of the dense graph; its time is
        # the exact side of the Figure 8 ratio.
        t0 = time.perf_counter()
        index.build_index(self.inputs[0].graph, "cosine").persist().unpersist()
        self.exact_build_s = time.perf_counter() - t0
        # Start the Python workers the sketching UDFs run in.
        self.spark.range(4 * bench_env.CORES).mapInPandas(lambda it: it, "id long").count()
        self.stats_seen: dict[str, approx.ApproxStats] = {}

    @staticmethod
    def degrees(inp: Input) -> np.ndarray:
        e = inp.edges
        return np.bincount(np.concatenate([e["u"], e["v"]]), minlength=inp.graph.num_vertices + 1)

    def expected_stats(self, inp: Input) -> approx.ApproxStats:
        thr = approx.degree_threshold(inp.measure, LSH_SAMPLES)
        e, deg = inp.edges, self.degrees(inp)
        both = (deg[e["u"]] > thr) & (deg[e["v"]] > thr)
        sketched = np.unique(np.concatenate([e["u"][both], e["v"][both]]))
        return approx.ApproxStats(int(both.sum()), int((~both).sum()), len(sketched), thr)

    def build(self, inp: Input):
        op = Op("approx", inp.role, inp.graph.num_edges())
        thr = approx.degree_threshold(inp.measure, LSH_SAMPLES)
        deg = self.degrees(inp)

        def exact_edge(no):  # edges the degree heuristic computes exactly
            return (deg[no["u"]] <= thr) | (deg[no["v"]] <= thr)

        def body(op):
            def build():
                idx, stats = approx.build_approx_index(
                    inp.graph, LSH_SAMPLES, inp.measure, seed=self.seed
                )
                return idx.persist(), stats

            idx, stats = self.timed(op, "build_approx_index", build)
            try:
                self.index_checks(op, inp, idx, keep=exact_edge)
            finally:
                idx.unpersist()
            if stats != self.expected_stats(inp):
                op.problems.append(f"ApproxStats {stats} != {self.expected_stats(inp)}")
            if self.stats_seen.setdefault(inp.role, stats) != stats:
                op.problems.append("ApproxStats differ between repeated builds")

        return self.run_op(op, body)

    def round(self, with_baseline):
        for inp in self.inputs:
            op = self.build(inp)
            if self.tracer:
                self.tracer.add_count(
                    "core.approx.approx_edge_similarities", "leaked_cached", op.leaked_cached
                )

    def paper_ratios(self):
        simhash = _median([o.seconds for o in self.ops if o.role == "dense" and o.seconds])
        if not simhash:
            return {}
        return {"fig8_approx_over_exact_build.dense_vs_warmup": simhash / self.exact_build_s}


WORKLOADS = {w.name: w for w in (BuildExact, QuerySweep, BuildApprox)}
