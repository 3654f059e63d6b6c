"""Driver-side CSR and the common-neighbour kernel (paper Alg. 1).

Every exact similarity comes from this kernel (§4.1.1, §6.1; cf. Shun &
Tangwongsan, ICDE 2015). A build collects the canonical edges into a CSR
on the driver (about 48·m + 24·n bytes) that Spark tasks receive in their
UDF closure. Per edge the kernel expands the list of the endpoint lower in
the order (deg, id) and binary-searches each neighbour among the other
endpoint's keys; both orientations of an edge expand the same list in the
same order, so σ(u, v) and σ(v, u) are bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.graph.graphframe import UndirectedGraph

#: Most wedges (probed candidate common neighbours) one kernel step
#: holds in memory; a larger batch of edges is cut into chunks.
MAX_WEDGES = 1 << 20


@dataclass
class CSR:
    """Symmetric adjacency of vertices 0..n (0 is never an endpoint)."""

    n: int
    offsets: np.ndarray  # N(v) = nbrs[offsets[v]:offsets[v + 1]]
    nbrs: np.ndarray     # ascending within each vertex
    wts: np.ndarray      # wts[i] = w(v, nbrs[i]) for the v owning entry i
    keys: np.ndarray     # v * (n + 1) + nbrs[i], ascending overall
    deg: np.ndarray
    norm: np.ndarray     # sqrt(1 + Σ_x w(v, x)²), the closed weighted norm

    @staticmethod
    def from_edges(edges: pd.DataFrame, n: int, measure: str | None = None) -> "CSR":
        """CSR of canonical edges (u, v, w); ``ValueError`` on an endpoint
        outside 1..n or, for ``wcosine``, a weight not finite and > 0."""
        u, v = edges["u"].to_numpy(np.int64), edges["v"].to_numpy(np.int64)
        w = edges["w"].to_numpy(np.float64)
        src, dst, ww = np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w])
        if len(src) and (src.min() < 1 or src.max() > n):
            raise ValueError(f"endpoints span {src.min()}..{src.max()}; vertices must be 1..{n}")
        if measure == "wcosine" and not (np.isfinite(w) & (w > 0)).all():
            raise ValueError("wcosine needs finite positive edge weights")
        keys = src * (n + 1) + dst
        order = np.argsort(keys)
        deg = np.bincount(src, minlength=n + 1)
        sq = np.bincount(src, weights=ww * ww, minlength=n + 1)
        return CSR(n, np.concatenate([[0], np.cumsum(deg)]), dst[order], ww[order],
                   keys[order], deg, np.sqrt(1.0 + sq))

    def rank(self, v: np.ndarray) -> np.ndarray:
        """Position of ``v`` in the total order (deg, id)."""
        return self.deg[v] * (self.n + 1) + v

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical edges (u, v, w) with u < v, ascending."""
        src = self.keys // (self.n + 1)
        fwd = src < self.nbrs
        return src[fwd], self.nbrs[fwd], self.wts[fwd]

    def find(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(is an edge, index of entry (u, v) where it is) per pair."""
        key = u * (self.n + 1) + v
        j = np.searchsorted(self.keys, key)
        hit = (u >= 1) & (u <= self.n) & (v >= 1) & (v <= self.n) & (j < len(self.keys))
        hit[hit] = self.keys[j[hit]] == key[hit]
        return hit, j


def load_csr(g: UndirectedGraph, measure: str | None = None) -> CSR:
    """Collect ``g``'s edges (one Spark job) into a fresh CSR."""
    return CSR.from_edges(g.edges.toPandas(), g.num_vertices, measure)


def common_neighbours(csr: CSR, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tri, cw) of the edges (u[i], v[i]): tri = |N(u) ∩ N(v)| and
    cw = Σ_{x ∈ N(u) ∩ N(v)} w(u, x)·w(v, x)."""
    lo = csr.rank(u) < csr.rank(v)
    s, t = np.where(lo, u, v), np.where(lo, v, u)
    tri, cw = np.zeros(len(u), np.int64), np.zeros(len(u))
    wedges = np.cumsum(csr.deg[s])
    start = 0
    while start < len(u):
        done = wedges[start - 1] if start else 0
        stop = max(int(np.searchsorted(wedges, done + MAX_WEDGES, "right")), start + 1)
        d = csr.deg[s[start:stop]]
        edge = np.repeat(np.arange(stop - start), d)
        pos = np.arange(d.sum()) + np.repeat(csr.offsets[s[start:stop]] - np.cumsum(d) + d, d)
        hit, j = csr.find(t[start:stop][edge], csr.nbrs[pos])
        tri[start:stop] = np.bincount(edge[hit], minlength=stop - start)
        cw[start:stop] = np.bincount(
            edge[hit], weights=csr.wts[pos[hit]] * csr.wts[j[hit]], minlength=stop - start
        )
        start = stop
    return tri, cw


def degree_ranked_edges(g: UndirectedGraph) -> DataFrame:
    """Edges oriented by the kernel's order: (a, b, w, ra, rb) with
    ``ra < rb`` and ``r = deg * (n+1) + id``."""
    csr = load_csr(g)
    u, v, w = csr.edges()
    fwd = csr.rank(u) < csr.rank(v)
    a, b = np.where(fwd, u, v), np.where(fwd, v, u)
    pdf = pd.DataFrame({"a": a, "b": b, "w": w, "ra": csr.rank(a), "rb": csr.rank(b)})
    return g.spark.createDataFrame(pdf, "a long, b long, w double, ra long, rb long")


def triangle_edge_aggregates(g: UndirectedGraph) -> DataFrame:
    """(u, v, tri, cw) with u < v for the edges in at least one triangle:
    ``tri`` = |N(u) ∩ N(v)|, ``cw`` = Σ_x w(u, x)·w(v, x) over those
    common neighbours (the weighted-cosine numerator, paper §4.1.1)."""
    csr = load_csr(g)
    u, v, _ = csr.edges()
    tri, cw = common_neighbours(csr, u, v)
    k = tri > 0
    pdf = pd.DataFrame({"u": u[k], "v": v[k], "tri": tri[k], "cw": cw[k]})
    return g.spark.createDataFrame(pdf, "u long, v long, tri long, cw double")


def total_triangles(g: UndirectedGraph) -> int:
    """Total triangle count of the graph (each counted once)."""
    csr = load_csr(g)
    u, v, _ = csr.edges()
    return int(common_neighbours(csr, u, v)[0].sum()) // 3
