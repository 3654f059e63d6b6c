"""The CSR similarity kernel: NO emitted directly by the build tasks,
bit-identical symmetry, edge cases, input validation, and the Spark job
budget of an exact build."""
import numpy as np
import pandas as pd
import pytest
from pyspark import SparkContext

from repro.core.approx import approx_edge_similarities
from repro.core.index import build_index, neighbor_order_from_similarities
from repro.core.similarity import (
    edge_similarities,
    neighbor_order,
    similarities_for_edges,
)
from repro.graph import generators as gen
from repro.graph import triangles
from repro.graph.graphframe import UndirectedGraph
from repro.graph.triangles import CSR, common_neighbours

FIXTURES = ["fig1", "gnp_small", "sbm_small", "weighted_small", "dense_small"]
MEASURES = ["cosine", "jaccard", "wcosine"]


@pytest.fixture
def set_tasks(monkeypatch):
    """Sets the default parallelism, which is neighbor_order's task count."""

    def set_(n: int) -> None:
        monkeypatch.setattr(SparkContext, "defaultParallelism", property(lambda self: n))

    return set_


def _ranked(no) -> pd.DataFrame:
    pdf = no.toPandas()[["u", "v", "sim", "rank"]]
    return pdf.sort_values(["u", "rank"]).reset_index(drop=True)


def _window_ranked(g, measure: str) -> pd.DataFrame:
    return _ranked(neighbor_order_from_similarities(edge_similarities(g, measure)))


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_direct_neighbor_order_equals_window_ranked(fixture, measure, request):
    g = request.getfixturevalue(fixture)
    pd.testing.assert_frame_equal(
        _ranked(neighbor_order(g, measure)),
        _window_ranked(g, measure),
        check_exact=True,
        check_dtype=False,
    )


@pytest.mark.parametrize("measure", MEASURES)
def test_similarity_symmetric_bit_for_bit(weighted_small, measure, set_tasks):
    # Three tasks: most edges have their two rows in different tasks.
    set_tasks(3)
    no = neighbor_order(weighted_small, measure).toPandas()
    fwd = no[no["u"] < no["v"]].set_index(["u", "v"])["sim"].sort_index()
    back = (
        no[no["u"] > no["v"]]
        .rename(columns={"u": "v", "v": "u"})
        .set_index(["u", "v"])["sim"]
        .sort_index()
    )
    assert len(fwd) == weighted_small.num_edges()
    assert fwd.index.equals(back.index)
    assert np.array_equal(fwd.to_numpy(), back.to_numpy())


def test_empty_graph(spark):
    g = UndirectedGraph.from_pandas(spark, pd.DataFrame(columns=["u", "v"]), 3)
    idx = build_index(g, "cosine")
    assert idx.neighbor_order.count() == 0
    assert idx.core_order.count() == 0
    assert edge_similarities(g, "jaccard").count() == 0


def test_isolated_vertices_and_more_tasks_than_vertices(spark, set_tasks):
    g = UndirectedGraph.from_edge_list(spark, [(2, 3), (2, 4), (3, 4), (6, 7)], 9)
    want = _window_ranked(g, "cosine")
    assert set(want["u"]) == {2, 3, 4, 6, 7}
    for tasks in (1, 4, 50):
        set_tasks(tasks)
        no = neighbor_order(g, "cosine")
        assert no.rdd.getNumPartitions() == tasks
        pd.testing.assert_frame_equal(
            _ranked(no),
            want,
            check_exact=True,
            check_dtype=False,
        )


def test_subset_drops_rows_that_are_not_canonical_edges(fig1, spark):
    pairs = spark.createDataFrame(
        [(1, 2), (1, 5), (4, 5), (0, 3), (5, 11), (11, 12), (10, 9)], "u long, v long"
    )
    got = similarities_for_edges(fig1, pairs, "cosine").toPandas()
    assert sorted(zip(got["u"], got["v"])) == [(1, 2), (4, 5)]


def test_kernel_chunks_do_not_change_results(dense_small, monkeypatch):
    pdf = dense_small.to_pandas()
    csr = CSR.from_edges(pdf, dense_small.num_vertices)
    u, v, _ = csr.edges()
    tri, cw = common_neighbours(csr, u, v)
    nbrs = {x: set() for x in range(1, dense_small.num_vertices + 1)}
    for a, b in zip(pdf["u"], pdf["v"]):
        nbrs[a].add(b)
        nbrs[b].add(a)
    assert tri.tolist() == [len(nbrs[a] & nbrs[b]) for a, b in zip(u, v)]
    for max_wedges in (1, 7, 100):
        monkeypatch.setattr(triangles, "MAX_WEDGES", max_wedges)
        t2, c2 = common_neighbours(csr, u, v)
        assert np.array_equal(tri, t2)
        assert np.array_equal(cw, c2)


def test_zero_based_ids_raise(spark):
    edges = [(a - 1, b - 1) for a, b in gen.FIG1_EDGES]
    g = UndirectedGraph.from_edge_list(spark, edges)
    for build in (
        lambda: build_index(g, "cosine"),
        lambda: edge_similarities(g, "cosine"),
        lambda: approx_edge_similarities(g, k=2, measure="cosine"),
    ):
        with pytest.raises(ValueError, match=r"vertices must be 1\.\.10"):
            build()


def test_id_above_num_vertices_raises(spark):
    g = UndirectedGraph.from_edge_list(spark, [(1, 2), (2, 5)], 4)
    with pytest.raises(ValueError, match="vertices must be"):
        build_index(g, "jaccard")


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_wcosine_rejects_bad_weights(spark, bad):
    g = UndirectedGraph.from_edge_list(
        spark, [(1, 2, 1.0), (2, 3, bad), (1, 3, 2.0)], 3, weighted=True
    )
    with pytest.raises(ValueError, match="weights"):
        build_index(g, "wcosine")
    # The unweighted measures never read the weights.
    assert build_index(g, "cosine").neighbor_order.count() == 6


def test_exact_build_spark_job_budget(spark, dense_small):
    """An exact build, persisted, stays a handful of Spark jobs (the
    multi-join plan it replaced ran 15-19)."""
    sc = spark.sparkContext
    sc.setJobGroup("exact-build-budget", "exact build job budget")
    try:
        idx = build_index(dense_small, "wcosine").persist()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    try:
        jobs = sc.statusTracker().getJobIdsForGroup("exact-build-budget")
    finally:
        idx.unpersist()
    assert 0 < len(jobs) <= 8
