"""Exact per-edge structural similarity (paper §4.1.1).

For adjacent u, v with t = |N(u) ∩ N(v)| common *open* neighbors, the
closed neighborhoods N̄ = N ∪ {·} intersect in t + 2 elements (the two
endpoints themselves are always shared since {u, v} ∈ E), hence:

- cosine(u, v)  = (t + 2) / sqrt((d(u)+1) * (d(v)+1))
- jaccard(u, v) = (t + 2) / (d(u) + d(v) + 2 − (t + 2))
- weighted cosine(u, v) =
    (2·w(u,v) + Σ_{x ∈ N(u)∩N(v)} w(u,x)·w(v,x)) / (norm(u)·norm(v))
  with w(x, x) = 1 and norm(v) = sqrt(1 + Σ_{x∈N(v)} w(v,x)²); the
  2·w(u,v) term is x = u and x = v of the closed intersection.

t and the weighted term come from the kernel of :mod:`repro.graph.triangles`,
fed by vertex ranges (:func:`neighbor_order`: ranked NO rows, no join, no
shuffle), by an edge DataFrame (:func:`similarities_for_edges`), or on the
driver for every edge at once (:func:`edge_similarities`).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.graphframe import UndirectedGraph

# triangle_edge_aggregates is re-exported: the benchmark's traced run wraps it here.
from repro.graph.triangles import CSR, common_neighbours, load_csr
from repro.graph.triangles import triangle_edge_aggregates  # noqa: F401

#: Supported similarity measures.
MEASURES = ("cosine", "jaccard", "wcosine")


def _check_measure(measure: str) -> None:
    if measure not in MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {MEASURES}")


def _with_endpoint_degrees(g: UndirectedGraph, edges: DataFrame) -> DataFrame:
    deg = g.degrees()  # per-vertex: broadcastable dimension table
    return edges.join(
        F.broadcast(deg.withColumnRenamed("v", "u").withColumnRenamed("deg", "du")),
        "u",
    ).join(F.broadcast(deg.withColumnRenamed("deg", "dv")), "v")


def _similarity(csr: CSR, measure: str, u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """σ of the edges (u[i], v[i]) of weight w[i]; symmetric bit for bit."""
    tri, cw = common_neighbours(csr, u, v)
    du, dv = csr.deg[u], csr.deg[v]
    if measure == "cosine":
        return (tri + 2) / np.sqrt((du + 1) * (dv + 1))
    if measure == "jaccard":
        return (tri + 2) / (du + dv - tri)
    return (2 * w + cw) / (csr.norm[u] * csr.norm[v])


def neighbor_order(g: UndirectedGraph, measure: str = "cosine") -> DataFrame:
    """NO rows (u, v, sim, rank), rank 1 being the implicit self-entry.

    Each of the P = default-parallelism tasks owns the vertices of about
    2m / P CSR entries and ranks each one's neighbors by descending
    similarity, ties by ascending id.
    """
    _check_measure(measure)
    csr = load_csr(g, measure)
    tasks = g.spark.sparkContext.defaultParallelism
    cut = np.searchsorted(csr.offsets, np.linspace(0, len(csr.nbrs), tasks + 1))
    bounds = csr.offsets[cut]  # entry ranges that start at a vertex

    def ranked(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for p in (p for pdf in batches for p in pdf["id"]):
            entries = np.arange(bounds[p], bounds[p + 1])
            u, v = csr.keys[entries] // (csr.n + 1), csr.nbrs[entries]
            sim = _similarity(csr, measure, u, v, csr.wts[entries])
            order = np.lexsort((v, -sim, u))  # each u keeps its CSR span
            rank = (entries - csr.offsets[u] + 2).astype(np.int32)
            yield pd.DataFrame({"u": u, "v": v[order], "sim": sim[order], "rank": rank})

    return g.spark.range(0, tasks, 1, tasks).mapInPandas(
        ranked, "u long, v long, sim double, rank int"
    )


def edge_similarities(g: UndirectedGraph, measure: str = "cosine") -> DataFrame:
    """Similarity of every edge: (u, v, w, sim) with u < v, ascending,
    computed on the driver."""
    _check_measure(measure)
    csr = load_csr(g, measure)
    u, v, w = csr.edges()
    pdf = pd.DataFrame({"u": u, "v": v, "w": w, "sim": _similarity(csr, measure, u, v, w)})
    return g.spark.createDataFrame(pdf, "u long, v long, w double, sim double")


def similarities_for_edges(
    g: UndirectedGraph, subset: DataFrame, measure: str = "cosine", csr: CSR | None = None
) -> DataFrame:
    """Exact similarity (u, v, w, sim) of the rows of ``subset`` that are
    canonical edges (u < v) of ``g``; other rows are dropped. Used by the
    §6.3 heuristic (low-degree edges) and ppSCAN (undecided edges).
    ``csr`` reuses a CSR the caller already loaded for ``g``.
    """
    _check_measure(measure)
    if csr is None:
        csr = load_csr(g, measure)

    def sims(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            u, v = pdf["u"].to_numpy(np.int64), pdf["v"].to_numpy(np.int64)
            hit, j = csr.find(u, v)
            hit &= u < v
            u, v, w = u[hit], v[hit], csr.wts[j[hit]]
            yield pd.DataFrame({"u": u, "v": v, "w": w, "sim": _similarity(csr, measure, u, v, w)})

    return subset.select("u", "v").mapInPandas(sims, "u long, v long, w double, sim double")
