"""Deadlock analysis of routing functions (Dally--Seitz).

The Hsu--Liu companion work (reference [11] of the paper) is about
*deadlock-free* routing on Fibonacci-type cubes.  The classical criterion:
wormhole/store-and-forward routing on a channel set is deadlock-free iff
its **channel dependency graph** (CDG) is acyclic -- nodes are directed
channels (directed edges of the topology), with an arc from channel
``c1`` to ``c2`` whenever some routed path uses ``c2`` immediately after
``c1``.

:func:`channel_dependency_graph` builds the CDG of any router over any
topology; :func:`is_deadlock_free` checks acyclicity.  Dimension-ordered
routing (our :class:`~repro.network.routing.CanonicalRouter` is the
0-before-1, left-to-right variant) is deadlock-free on the ``1^s`` cubes;
a random-shortest-path router generally is not -- both facts are
exercised by the tests and the extension bench.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.network.routing import route_blocks
from repro.network.topology import Topology

__all__ = ["channel_dependency_graph", "is_deadlock_free", "find_dependency_cycle"]

Channel = Tuple[int, int]


def channel_dependency_graph(
    topo: Topology, router, pairs: Optional[Sequence[Tuple[int, int]]] = None
) -> Dict[Channel, Set[Channel]]:
    """Adjacency of the CDG induced by routing every pair (or ``pairs``).

    Channels are directed edges ``(u, v)``.  Pairs whose route fails are
    skipped (the router's delivery rate is a separate concern).  Arcs are
    the distinct (hop, next hop) pairs within rows of ``route_blocks``
    tables, each ``(u, v) -> (v, w)`` kept as the walk ``uv * n + w``.
    """
    n = topo.num_nodes
    deps: Dict[Channel, Set[Channel]] = {}
    for _, table, _ in route_blocks(topo, router, pairs):
        hop, offsets = table.hops()
        row = np.repeat(np.arange(table.num_routes), np.diff(offsets))
        chained = row[1:] == row[:-1]
        walks = np.unique(hop[:-1][chained] * n + hop[1:][chained] % n)
        for uv, w in zip((walks // n).tolist(), (walks % n).tolist()):
            deps.setdefault(divmod(uv, n), set()).add((uv % n, w))
    return deps


def find_dependency_cycle(
    deps: Dict[Channel, Set[Channel]]
) -> Optional[List[Channel]]:
    """A cycle of the CDG, or ``None`` when acyclic (iterative DFS)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[Channel, int] = {}
    parent: Dict[Channel, Optional[Channel]] = {}

    for root in deps:
        if color.get(root, WHITE) != WHITE:
            continue
        stack: List[Tuple[Channel, int]] = [(root, 0)]
        color[root] = GRAY
        parent[root] = None
        while stack:
            node, idx = stack.pop()
            succs = sorted(deps.get(node, ()))
            if idx < len(succs):
                stack.append((node, idx + 1))
                nxt = succs[idx]
                c = color.get(nxt, WHITE)
                if c == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, 0))
                elif c == GRAY:
                    # back edge: reconstruct the cycle
                    cycle = [nxt, node]
                    cur = node
                    while parent[cur] is not None and cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                        if cur == nxt:
                            break
                    cycle.reverse()
                    # trim to start at nxt
                    if nxt in cycle:
                        i = cycle.index(nxt)
                        cycle = cycle[i:]
                    return cycle
            else:
                color[node] = BLACK
    return None


def is_deadlock_free(
    topo: Topology, router, pairs: Optional[Sequence[Tuple[int, int]]] = None
) -> bool:
    """Dally--Seitz: the routing function is deadlock-free iff its channel
    dependency graph is acyclic."""
    deps = channel_dependency_graph(topo, router, pairs)
    return find_dependency_cycle(deps) is None
