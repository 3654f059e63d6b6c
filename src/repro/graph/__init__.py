"""Graph substrate: representation, generators, and triangle counting.

PySpark has no GraphX binding, so this package *is* the graph engine
for the reproduction: an undirected graph is a canonical edge DataFrame
(``u < v``), vertex-centric steps are joins/aggregations, and
neighbour-list intersections run on a driver-built CSR that Spark
tasks receive in their closures.
"""
from repro.graph.graphframe import UndirectedGraph, canonical_edges

__all__ = ["UndirectedGraph", "canonical_edges"]
