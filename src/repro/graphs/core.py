"""Core graph type.

:class:`Graph` is a simple undirected graph on vertices ``0 .. n-1`` with
optional opaque labels.  Internally it keeps both an adjacency list (for
incremental construction and readable algorithms) and a lazily built CSR
(compressed sparse row) representation as two NumPy arrays, which is what
the bit-parallel BFS in :mod:`repro.graphs.traversal` consumes --
contiguity matters, per the cache-effects guidance of the HPC notes.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Graph"]


class Graph:
    """Simple undirected graph on ``0 .. n-1`` with optional vertex labels.

    Self-loops and parallel edges are rejected.  Instances are mutable
    while being built (``add_edge``); any structural mutation invalidates
    the cached CSR arrays, which are rebuilt on demand.
    """

    __slots__ = ("_adj", "_labels", "_label_index", "_csr", "_num_edges")

    def __init__(self, num_vertices: int = 0, labels: Optional[Sequence[Hashable]] = None):
        if num_vertices < 0:
            raise ValueError(f"number of vertices must be non-negative, got {num_vertices}")
        self._adj: List[List[int]] = [[] for _ in range(num_vertices)]
        self._num_edges = 0
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._labels: Optional[List[Hashable]] = None
        self._label_index: Optional[Dict[Hashable, int]] = None
        if labels is not None:
            self.set_labels(labels)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        labels: Optional[Sequence[Hashable]] = None,
    ) -> "Graph":
        """Build a graph from an edge iterable."""
        g = cls(num_vertices, labels=labels)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_vertex(self) -> int:
        """Append an isolated vertex; return its index."""
        self._adj.append([])
        self._csr = None
        if self._labels is not None:
            raise RuntimeError("cannot add vertices after labels were assigned")
        return len(self._adj) - 1

    def add_edge(self, u: int, v: int) -> None:
        """Insert undirected edge ``{u, v}``; rejects loops and duplicates."""
        n = len(self._adj)
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} not allowed")
        if v in self._adj[u]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        self._adj[u].append(v)
        self._adj[v].append(u)
        self._num_edges += 1
        self._csr = None

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test for edge ``{u, v}``."""
        adj_u = self._adj[u]
        adj_v = self._adj[v]
        return v in adj_u if len(adj_u) <= len(adj_v) else u in adj_v

    def set_labels(self, labels: Sequence[Hashable]) -> None:
        """Attach one opaque label per vertex (e.g. the binary word)."""
        if len(labels) != len(self._adj):
            raise ValueError(
                f"need {len(self._adj)} labels, got {len(labels)}"
            )
        self._labels = list(labels)
        self._label_index = {lab: i for i, lab in enumerate(self._labels)}
        if len(self._label_index) != len(self._labels):
            raise ValueError("labels must be distinct")

    # -- basic queries -----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def degrees(self) -> List[int]:
        return [len(nbrs) for nbrs in self._adj]

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._adj), default=0)

    def neighbors(self, u: int) -> List[int]:
        """Neighbour list of ``u`` (do not mutate)."""
        return self._adj[u]

    def vertices(self) -> range:
        return range(len(self._adj))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each edge once as ``(u, v)`` with ``u < v``."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    # -- labels ------------------------------------------------------------

    @property
    def labels(self) -> Optional[List[Hashable]]:
        return self._labels

    def label_of(self, u: int) -> Hashable:
        if self._labels is None:
            raise KeyError("graph has no labels")
        return self._labels[u]

    def index_of(self, label: Hashable) -> int:
        if self._label_index is None:
            raise KeyError("graph has no labels")
        return self._label_index[label]

    def has_label(self, label: Hashable) -> bool:
        return self._label_index is not None and label in self._label_index

    # -- CSR ----------------------------------------------------------------

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(indptr, indices)`` CSR arrays (cached until mutation)."""
        if self._csr is None:
            n = len(self._adj)
            indptr = np.zeros(n + 1, dtype=np.int64)
            for u, nbrs in enumerate(self._adj):
                indptr[u + 1] = indptr[u] + len(nbrs)
            indices = np.empty(indptr[-1], dtype=np.int64)
            for u, nbrs in enumerate(self._adj):
                indices[indptr[u] : indptr[u + 1]] = nbrs
            self._csr = (indptr, indices)
        return self._csr

    # -- derived graphs ------------------------------------------------------

    def induced_subgraph(self, keep: Sequence[int]) -> Tuple["Graph", List[int]]:
        """Induced subgraph on ``keep``.

        Returns ``(subgraph, old_of_new)`` where ``old_of_new[i]`` is the
        original index of the subgraph's vertex ``i``.  Labels carry over
        when present.
        """
        keep = list(dict.fromkeys(keep))  # dedupe, preserve order
        new_of_old = {old: new for new, old in enumerate(keep)}
        sub = Graph(len(keep))
        for new, old in enumerate(keep):
            for nbr in self._adj[old]:
                other = new_of_old.get(nbr)
                if other is not None and new < other:
                    sub.add_edge(new, other)
        if self._labels is not None:
            sub.set_labels([self._labels[old] for old in keep])
        return sub, keep

    def copy(self) -> "Graph":
        g = Graph(self.num_vertices)
        for u, v in self.edges():
            g.add_edge(u, v)
        if self._labels is not None:
            g.set_labels(list(self._labels))
        return g

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
