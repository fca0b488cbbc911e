"""networkx interoperability.

Only the adapters live here; no algorithm in the reproduction depends on
networkx, and no package module imports this one.  Tests use the
adapters to cross-validate our BFS/diameter/median machinery against
networkx.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import networkx as nx

from repro.graphs.core import Graph

__all__ = ["to_networkx", "from_networkx"]


def to_networkx(graph: Graph, use_labels: bool = True) -> "nx.Graph":
    """Convert to ``networkx.Graph``.

    When the graph carries labels and ``use_labels`` is true, the networkx
    nodes are the labels; otherwise they are the integer indices.
    """
    out = nx.Graph()
    if use_labels and graph.labels is not None:
        labels = graph.labels
        out.add_nodes_from(labels)
        out.add_edges_from((labels[u], labels[v]) for u, v in graph.edges())
    else:
        out.add_nodes_from(range(graph.num_vertices))
        out.add_edges_from(graph.edges())
    return out


def from_networkx(nxg: "nx.Graph", node_order: Optional[Sequence[Hashable]] = None) -> Graph:
    """Convert from ``networkx.Graph``; nodes become labels.

    ``node_order`` fixes the vertex numbering (defaults to sorted nodes
    when sortable, insertion order otherwise).
    """
    if node_order is None:
        nodes = list(nxg.nodes())
        try:
            nodes = sorted(nodes)
        except TypeError:
            pass
    else:
        nodes = list(node_order)
        if set(nodes) != set(nxg.nodes()):
            raise ValueError("node_order must be a permutation of the nodes")
    index = {node: i for i, node in enumerate(nodes)}
    g = Graph(len(nodes))
    for u, v in nxg.edges():
        if u == v:
            continue
        g.add_edge(index[u], index[v])
    g.set_labels(nodes)
    return g
