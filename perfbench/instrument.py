"""Swap the program's layer functions for span-recording wrappers.

Each function is replaced where the program looks it up (the calling
module's global, or the class attribute), so the traced run drives the
same public entry points as the untraced one: ``build_index``,
``build_approx_index``, ``query_clusters`` and ``pscan_query``.
"""
from __future__ import annotations

import functools
from contextlib import contextmanager

from pyspark.sql import functions as F

from spans import Tracer, oriented_wedges


def cached_bytes(df) -> int:
    """Size of ``df``'s cached relation (0 when it is not cached)."""
    stats = df._jdf.queryExecution().optimizedPlan().stats()
    return int(str(stats.sizeInBytes())) if df.is_cached else 0


@contextmanager
def instrumented(tracer: Tracer):
    import repro.baselines.pscan as pscan
    import repro.core.approx as approx
    import repro.core.index as index
    import repro.core.query as query
    import repro.core.similarity as similarity
    import repro.graph.triangles as triangles
    from repro.graph.graphframe import UndirectedGraph

    patched = []

    def patch(owner, attr, make):
        orig = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        patched.append((owner, attr, orig))

    def dataframe_layer(name, extra=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name) as rec:
                    df = tracer.materialize(fn(*args, **kwargs), rec)
                if extra is not None:
                    with tracer.untraced():
                        extra(rec, args, df)
                return df
            return wrapper
        return make

    def triangle_counts(rec, args, df):
        g = args[0]
        rec["counts"]["wedges"] = oriented_wedges(g.edges.toPandas(), g.num_vertices)
        tri = df.agg(F.sum("tri")).collect()[0][0] or 0
        rec["counts"]["triangles"] = int(tri) // 3

    def approx_layer(fn):
        def wrapper(g, *args, **kwargs):
            with tracer.span("core.approx.approx_edge_similarities") as rec:
                sims, stats = fn(g, *args, **kwargs)
                sims = tracer.materialize(sims, rec)
            rec["counts"].update(approx_edges=stats.n_edges_approx, edges=g.num_edges())
            return sims, stats
        return wrapper

    def persist_layer(fn):
        def wrapper(self):
            with tracer.span("core.index.persist") as rec:
                out = fn(self)
            with tracer.untraced():
                rec["counts"]["rows"] = self.neighbor_order.count() + self.core_order.count()
                rec["counts"]["cached_bytes"] = cached_bytes(
                    self.neighbor_order
                ) + cached_bytes(self.core_order)
            return out
        return wrapper

    def assemble_layer(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("core.query.assemble_clustering") as rec:
                res = fn(*args, **kwargs)
                res.assignments = tracer.materialize(res.assignments, rec)
            return res
        return wrapper

    def union_find_layer(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("cc.union_find.components_from_edges") as rec:
                labels = fn(*args, **kwargs)
                rec["counts"]["rows"] = len(labels)
            return labels
        return wrapper

    def pscan_layer(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("baselines.pscan.pscan_query") as rec:
                res = fn(*args, **kwargs)
                rec["counts"]["rows"] = res.assignments.count()
            return res
        return wrapper

    try:
        patch(UndirectedGraph, "degrees", dataframe_layer("graph.graphframe.degrees"))
        patch(
            triangles,
            "degree_ranked_edges",
            dataframe_layer("graph.triangles.degree_ranked_edges"),
        )
        patch(
            similarity,
            "triangle_edge_aggregates",
            dataframe_layer("graph.triangles.triangle_edge_aggregates", triangle_counts),
        )
        patch(index, "edge_similarities", dataframe_layer("core.similarity.edge_similarities"))
        patch(
            index,
            "neighbor_order_from_similarities",
            dataframe_layer("core.index.neighbor_order_from_similarities"),
        )
        patch(index.SCANIndex, "persist", persist_layer)
        patch(query, "get_cores", dataframe_layer("core.query.get_cores"))
        patch(
            query,
            "similar_edges_from_cores",
            dataframe_layer("core.query.similar_edges_from_cores"),
        )
        patch(query, "assemble_clustering", assemble_layer)
        patch(query, "components_from_edges", union_find_layer)
        for scheme in ("simhash", "minhash"):
            for fn in ("sketches", "edge_similarities"):
                patch(
                    approx,
                    f"{scheme}_{fn}",
                    dataframe_layer(f"lsh.{scheme}.{scheme}_{fn}"),
                )
        subset = dataframe_layer("core.similarity.similarities_for_edges")
        patch(approx, "similarities_for_edges", subset)
        patch(pscan, "similarities_for_edges", subset)
        patch(approx, "approx_edge_similarities", approx_layer)
        patch(pscan, "pscan_query", pscan_layer)
        yield
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)
