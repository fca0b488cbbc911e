"""Distance intervals :math:`I_G(u, v)` (Section 2 of the paper).

The interval between ``u`` and ``v`` is the set of vertices lying on
shortest ``u,v``-paths: ``w in I(u, v)`` iff
``d(u, w) + d(w, v) == d(u, v)``.  Intervals are the basic object of the
p-critical-word machinery (Lemma 2.4) and of median computations.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graphs.core import Graph
from repro.graphs.traversal import bfs_distances

__all__ = ["distance_interval", "is_on_shortest_path", "interval_from_distances"]


def interval_from_distances(dist_u: np.ndarray, dist_v: np.ndarray, d_uv: int) -> List[int]:
    """Interval computed from the distance vectors of ``u`` and ``v``
    (``-1`` where unreachable) and ``d_uv``, the distance ``d(u, v)``."""
    mask = (dist_u >= 0) & (dist_v >= 0) & (dist_u + dist_v == d_uv)
    return np.flatnonzero(mask).tolist()


def distance_interval(graph: Graph, u: int, v: int) -> List[int]:
    """The interval :math:`I_G(u, v)` as a sorted vertex list.

    Raises :class:`ValueError` when ``v`` is unreachable from ``u``.
    """
    dist_u = bfs_distances(graph, u)
    if dist_u[v] < 0:
        raise ValueError(f"vertices {u} and {v} lie in different components")
    dist_v = bfs_distances(graph, v)
    return interval_from_distances(dist_u, dist_v, int(dist_u[v]))


def is_on_shortest_path(graph: Graph, u: int, w: int, v: int) -> bool:
    """``True`` iff ``w`` lies on some shortest ``u,v``-path."""
    dist_u = bfs_distances(graph, u)
    if dist_u[v] < 0:
        raise ValueError(f"vertices {u} and {v} lie in different components")
    dist_w = bfs_distances(graph, w)
    return int(dist_u[w] + dist_w[v]) == int(dist_u[v])
