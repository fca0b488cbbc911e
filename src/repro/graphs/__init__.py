"""Graph substrate: a small, self-contained graph library.

The reproduction does not lean on networkx for any load-bearing algorithm;
everything needed by the paper (BFS distances, intervals, medians,
partial-cube machinery, isomorphism on small graphs) is implemented here
on a compact adjacency-list/CSR graph type.  networkx interop lives in
:mod:`repro.graphs.nxadapter`, which the tests import for
cross-validation; the package itself never imports it, so networkx stays
an optional dependency.
"""

from repro.graphs.core import Graph
from repro.graphs.traversal import (
    all_pairs_distances,
    bfs_distances,
    connected_components,
    diameter,
    eccentricities,
    is_connected,
    radius,
)
from repro.graphs.intervals import distance_interval, is_on_shortest_path
from repro.graphs.median import (
    is_median_graph,
    median_of_triple,
    triple_intervals_intersection,
)
from repro.graphs.isomorphism import are_isomorphic

__all__ = [
    "Graph",
    "all_pairs_distances",
    "bfs_distances",
    "connected_components",
    "diameter",
    "eccentricities",
    "is_connected",
    "radius",
    "distance_interval",
    "is_on_shortest_path",
    "is_median_graph",
    "median_of_triple",
    "triple_intervals_intersection",
    "are_isomorphic",
]
