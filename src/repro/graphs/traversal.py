"""Breadth-first traversal kernels and distance-derived graph parameters.

Three BFS engines:

- :func:`bfs_distances` -- classic deque BFS on the adjacency list;
  readable reference implementation.
- :func:`bfs_distances_csr` -- frontier-sweep BFS on the CSR arrays using
  NumPy gathers; the whole frontier expansion is a couple of vectorised
  operations per level, which is markedly faster for the dense levels of
  hypercube-like graphs (this is the "vectorise the inner loop" guidance
  of the HPC notes applied to BFS).
- :func:`bfs_distances_many` -- the frontier sweep for many sources at
  once, one bit per source (what the network layer's distance tables
  use).

All return ``-1`` for unreachable vertices and are cross-validated by the
test-suite.  All-pairs helpers and eccentricity/diameter/radius sit on
top.
"""

from __future__ import annotations

from collections import deque
from typing import List

import numpy as np

from repro.graphs.core import Graph

__all__ = [
    "bfs_distances",
    "bfs_distances_csr",
    "bfs_distances_many",
    "all_pairs_distances",
    "eccentricities",
    "diameter",
    "radius",
    "is_connected",
    "connected_components",
]

UNREACHABLE = -1


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Distances from ``source`` to every vertex (``-1`` if unreachable)."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range for {n} vertices")
    dist = np.full(n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    adj = [graph.neighbors(u) for u in range(n)]
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(v)
    return dist


def bfs_distances_csr(graph: Graph, source: int) -> np.ndarray:
    """Vectorised frontier BFS over the CSR representation."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise IndexError(f"source {source} out of range for {n} vertices")
    indptr, indices = graph.csr()
    dist = np.full(n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        # gather all neighbours of the frontier in one shot
        starts = indptr[frontier]
        ends = indptr[frontier + 1]
        counts = ends - starts
        total = int(counts.sum())
        if total == 0:
            break
        # build the gather index without a Python loop:
        # offsets into `indices` = start_i + (0 .. count_i-1), concatenated
        rep_starts = np.repeat(starts, counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        nbrs = indices[rep_starts + within]
        fresh = nbrs[dist[nbrs] == UNREACHABLE]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        dist[fresh] = level
        frontier = fresh
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
    """
    n = graph.num_vertices
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
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


def all_pairs_distances(graph: Graph, engine: str = "auto") -> np.ndarray:
    """``n x n`` distance matrix by repeated BFS.

    ``engine`` is ``"deque"``, ``"csr"`` or ``"auto"`` (CSR for graphs
    with at least a few hundred vertices, where the vectorised sweep
    wins).
    """
    n = graph.num_vertices
    if engine not in ("deque", "csr", "auto"):
        raise ValueError(f"unknown engine {engine!r}")
    use_csr = engine == "csr" or (engine == "auto" and n >= 256)
    out = np.empty((n, n), dtype=np.int64)
    run = bfs_distances_csr if use_csr else bfs_distances
    for s in range(n):
        out[s] = run(graph, s)
    return out


def eccentricities(graph: Graph) -> np.ndarray:
    """Eccentricity of every vertex; raises on disconnected graphs."""
    n = graph.num_vertices
    ecc = np.empty(n, dtype=np.int64)
    for s in range(n):
        dist = bfs_distances_csr(graph, s) if n >= 256 else bfs_distances(graph, s)
        if (dist == UNREACHABLE).any():
            raise ValueError("eccentricities are undefined on a disconnected graph")
        ecc[s] = dist.max()
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
