"""Breadth-first traversal kernels and distance-derived graph parameters.

Two BFS engines, both marking unreachable vertices ``-1``:

- :func:`bfs_distances` -- classic deque BFS from one source; the
  readable reference implementation.  Connectivity, components and
  intervals use it, and the tests check every other distance path
  against it.
- :func:`bfs_distances_many` -- frontier BFS from many sources at once,
  one bit per source.

Every all-pairs quantity reads one path on top of the second:
:func:`distance_blocks` yields all distance rows in consecutive blocks
of sources, and :func:`all_pairs_distances`, :func:`eccentricities`
(so :func:`diameter` and :func:`radius`) and the isometry engine of
:mod:`repro.isometry` are scans over those blocks.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, List, Tuple

import numpy as np

from repro.graphs.core import Graph

__all__ = [
    "bfs_distances",
    "bfs_distances_many",
    "distance_blocks",
    "all_pairs_distances",
    "eccentricities",
    "diameter",
    "radius",
    "is_connected",
    "connected_components",
]

UNREACHABLE = -1

# sources per distance block: on the isometry scan, whose early exit stops
# at the first bad block, 256 beat 64, 1,024 and unbounded blocks
_BLOCK = 256
# a block's int64 rows (the isometry scan's Hamming rows) stay below this
_BLOCK_BYTES = 1 << 25


def _distance_dtype(num_nodes: int) -> type:
    """The narrowest signed integer type holding any hop distance (at
    most ``num_nodes - 1``) and the ``-1`` unreachable marker."""
    if num_nodes <= 1 << 7:
        return np.int8
    return np.int16 if num_nodes <= 1 << 15 else np.int32


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Distances from ``source`` to every vertex (``-1`` if unreachable)."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range for {n} vertices")
    dist = np.full(n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.neighbors(u):
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(v)
    return dist


def bfs_distances_many(
    graph: Graph, sources, dtype=np.int64
) -> np.ndarray:
    """Distance rows from many sources at once: row ``i`` holds every
    vertex's distance from ``sources[i]`` (``-1`` if unreachable).

    Bit-parallel frontier BFS: each vertex keeps one bit per source, and
    a level ORs the frontier bits of every vertex's neighbours with one
    CSR gather and a segmented ``bitwise_or.reduceat``, so a level costs
    ``O(edges * sources / 8)`` bytes of array work instead of one Python
    BFS per source.  Sources run in blocks that bound the gather's size.
    A source outside ``[0, n)`` raises :class:`IndexError`.
    """
    n = graph.num_vertices
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    stray = sources[(sources < 0) | (sources >= n)]
    if stray.size:
        raise IndexError(f"source {stray[0]} out of range for {n} vertices")
    out = np.full((sources.size, n), UNREACHABLE, dtype=dtype)
    indptr, indices = graph.csr()
    has = indptr[1:] > indptr[:-1]
    starts = indptr[:-1][has]
    block = max(8, ((1 << 24) // max(indices.size, 1)) * 8)
    for lo in range(0, sources.size, block):
        src = sources[lo:lo + block]
        k = src.size
        dist = np.full((n, k), UNREACHABLE, dtype=dtype)  # vertex-major
        dist[src, np.arange(k)] = 0
        frontier = np.packbits(dist == 0, axis=1)
        seen = frontier.copy()
        level = 0
        while indices.size:
            level += 1
            reached = np.zeros_like(frontier)
            reached[has] = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
            frontier = reached & ~seen
            if not frontier.any():
                break
            seen |= frontier
            dist[np.unpackbits(frontier, axis=1, count=k).view(bool)] = level
        out[lo:lo + k] = dist.T
    return out


def distance_blocks(graph: Graph) -> Iterator[Tuple[int, np.ndarray]]:
    """Every vertex's distance row, in consecutive blocks of sources.

    Yields ``(start, rows)`` with ``rows[i]`` the distances from vertex
    ``start + i`` (``-1`` where unreachable), one
    :func:`bfs_distances_many` call per block, in the narrowest dtype that
    holds them.  A block has 256 sources, fewer when ``n`` is so large
    that its int64 rows would pass 32 MB, so a scan over all pairs keeps
    ``O(block * n)`` memory.
    """
    n = graph.num_vertices
    dtype = _distance_dtype(n)
    step = max(1, min(_BLOCK, _BLOCK_BYTES // (8 * max(n, 1))))
    for start in range(0, n, step):
        yield start, bfs_distances_many(graph, range(start, min(start + step, n)), dtype)


def all_pairs_distances(graph: Graph) -> np.ndarray:
    """``n x n`` distance matrix (``-1`` where unreachable), filled from
    :func:`distance_blocks`.

    The matrix is int64, not the blocks' narrow dtype: callers add rows
    together (interval, median and Theta tests), which would overflow it.
    """
    n = graph.num_vertices
    out = np.empty((n, n), dtype=np.int64)
    for start, rows in distance_blocks(graph):
        out[start:start + len(rows)] = rows
    return out


def eccentricities(graph: Graph) -> np.ndarray:
    """Eccentricity of every vertex; raises on disconnected graphs."""
    ecc = np.empty(graph.num_vertices, dtype=np.int64)
    for start, rows in distance_blocks(graph):
        if (rows == UNREACHABLE).any():
            raise ValueError("eccentricities are undefined on a disconnected graph")
        ecc[start:start + len(rows)] = rows.max(axis=1)
    return ecc


def diameter(graph: Graph) -> int:
    """Greatest distance between any two vertices (graph must be connected)."""
    if graph.num_vertices == 0:
        raise ValueError("diameter of the empty graph is undefined")
    return int(eccentricities(graph).max())


def radius(graph: Graph) -> int:
    """Least eccentricity (graph must be connected)."""
    if graph.num_vertices == 0:
        raise ValueError("radius of the empty graph is undefined")
    return int(eccentricities(graph).min())


def is_connected(graph: Graph) -> bool:
    """``True`` when the graph has at most one connected component."""
    n = graph.num_vertices
    if n <= 1:
        return True
    dist = bfs_distances(graph, 0)
    return not (dist == UNREACHABLE).any()


def connected_components(graph: Graph) -> List[List[int]]:
    """Vertex sets of the connected components, each sorted, in discovery order."""
    n = graph.num_vertices
    seen = np.zeros(n, dtype=bool)
    components: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        dist = bfs_distances(graph, start)
        members = np.flatnonzero(dist != UNREACHABLE)
        seen[members] = True
        components.append(members.tolist())
    return components
