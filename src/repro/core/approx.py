"""Approximate SCAN index construction via LSH (paper §5, §6.3).

Similarity measure → scheme: (weighted) cosine → SimHash; Jaccard →
MinHash (k-partition by default, like the paper's implementation;
``minhash_variant="standard"`` selects the Theorem-5.3 variant).

The §6.3 degree heuristic: approximating a low-degree pair is slower
*and* less accurate than intersecting its neighbor lists, so only edges
whose endpoints **both** exceed a degree threshold (k for cosine, 3k/2
for Jaccard) use sketches; everything else is computed exactly with
:func:`repro.core.similarity.similarities_for_edges`. Sketches are only
built for vertices that actually have an approximated incident edge.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.index import SCANIndex, build_index
from repro.core.similarity import _check_measure, similarities_for_edges
from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import load_csr
from repro.lsh.minhash import minhash_edge_similarities, minhash_sketches
from repro.lsh.simhash import simhash_edge_similarities, simhash_sketches


@dataclass
class ApproxStats:
    """How much of the graph the approximation actually touched."""

    n_edges_approx: int
    n_edges_exact: int
    n_vertices_sketched: int
    degree_threshold: float


def degree_threshold(measure: str, k: int) -> float:
    """§6.3 thresholds: k for cosine-like, 3k/2 for Jaccard."""
    return 1.5 * k if measure == "jaccard" else float(k)


def approx_edge_similarities(
    g: UndirectedGraph,
    k: int,
    measure: str = "cosine",
    seed: int = 0,
    minhash_variant: str = "oph",
    use_degree_heuristic: bool = True,
) -> tuple[DataFrame, ApproxStats]:
    """(u, v, w, sim) per edge with LSH-approximated similarities.

    The call collects ``g``'s edges into a driver CSR (one Spark job),
    validates them (``ValueError`` on bad input) and splits them by the
    §6.3 degree rule; sketching and similarity computation are lazy.
    """
    _check_measure(measure)
    thr = degree_threshold(measure, k) if use_degree_heuristic else 0.0
    csr = load_csr(g, measure)
    u, v, w = csr.edges()
    is_approx = (csr.deg[u] > thr) & (csr.deg[v] > thr)
    n_approx = int(is_approx.sum())
    spark = g.spark

    def local(mask: np.ndarray) -> DataFrame:
        pdf = pd.DataFrame({"u": u[mask], "v": v[mask], "w": w[mask]})
        return spark.createDataFrame(pdf, "u long, v long, w double")

    parts: list[DataFrame] = []
    n_sketched = 0
    if n_approx > 0:
        approx_edges = local(is_approx)
        sketched = np.unique(np.concatenate([u[is_approx], v[is_approx]]))
        scope = spark.createDataFrame(pd.DataFrame({"v": sketched}), "v long")
        if measure == "jaccard":
            sk = minhash_sketches(g, k, seed, variant=minhash_variant, scope=scope)
            est = minhash_edge_similarities(approx_edges, sk, k, variant=minhash_variant)
        else:  # cosine / wcosine — SimHash handles weights natively
            sk = simhash_sketches(g, k, seed, scope=scope)
            est = simhash_edge_similarities(approx_edges, sk, k)
        n_sketched = len(sketched)
        parts.append(approx_edges.join(est, ["u", "v"]).select("u", "v", "w", "sim"))
    if not parts or n_approx < len(u):  # skipped when every edge is sketched
        parts.append(similarities_for_edges(g, local(~is_approx), measure, csr=csr))
    sims = parts[0] if len(parts) == 1 else parts[0].unionByName(parts[1])
    stats = ApproxStats(
        n_edges_approx=n_approx,
        n_edges_exact=len(u) - n_approx,
        n_vertices_sketched=n_sketched,
        degree_threshold=thr,
    )
    return sims, stats


def build_approx_index(
    g: UndirectedGraph,
    k: int,
    measure: str = "cosine",
    seed: int = 0,
    minhash_variant: str = "oph",
    use_degree_heuristic: bool = True,
) -> tuple[SCANIndex, ApproxStats]:
    """Construct a SCAN index from LSH-approximate similarities.

    Queries against the returned index are *identical in cost* to exact
    queries — only construction (what Figures 8–10 measure) changes.
    """
    sims, stats = approx_edge_similarities(
        g, k, measure, seed, minhash_variant, use_degree_heuristic
    )
    return build_index(g, measure, similarities=sims), stats
