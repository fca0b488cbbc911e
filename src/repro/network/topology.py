"""Topology wrapper: a network view of a cube graph.

Adds the metrics interconnection papers compare: node/link counts, degree
range, diameter, average inter-node distance, and the degree-times-
diameter cost measure.  The N1 benchmark tabulates these for the
hypercube, the Fibonacci cube and the ``Q_d(1^s)`` family side by side.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.cubes.generalized import GeneralizedFibonacciCube, generalized_fibonacci_cube
from repro.graphs.core import Graph
from repro.graphs.traversal import (
    _distance_dtype,
    all_pairs_distances,
    bfs_distances_many,
    connected_components,
    is_connected,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults imports topology)
    from repro.network.faults import FaultPlan

__all__ = ["Topology", "faulted_topology", "topology_of"]

# guards every topology's memo: parse_topology hands one shared Topology
# per spec to all of a process's sweep-service worker threads
_MEMO_LOCK = threading.RLock()


@dataclass
class Topology:
    """A network topology: a connected graph plus routing metadata.

    ``word_length`` is set when nodes are binary words of a fixed length
    (cube-like topologies); routers that rely on bit addresses require
    it.  ``allow_disconnected`` is set on masked fault views
    (:meth:`with_faults`), where failed nodes survive as isolated
    vertices so indices stay stable.

    Arrays derived from the graph (hop-distance rows, structured traffic
    maps) are built on first use and cached on the instance; see
    :meth:`memo` and :meth:`distance_rows`.
    """

    name: str
    graph: Graph
    word_length: Optional[int] = None
    allow_disconnected: bool = False
    _memo: Dict[Hashable, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.graph.num_vertices == 0:
            raise ValueError("a topology needs at least one node")
        if not self.allow_disconnected and not is_connected(self.graph):
            raise ValueError(f"topology {self.name!r} is disconnected")

    # -- metrics ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.graph.num_vertices

    @property
    def num_links(self) -> int:
        return self.graph.num_edges

    def degree_range(self) -> tuple:
        degs = self.graph.degrees()
        return (min(degs), max(degs))

    def metrics(self) -> Dict[str, float]:
        """All headline metrics in one dict (computed fresh each call)."""
        dist = all_pairs_distances(self.graph)
        n = self.num_nodes
        if n > 1:
            triu = dist[np.triu_indices(n, k=1)]
            avg = float(triu.mean())
            dia = int(triu.max())
        else:
            avg, dia = 0.0, 0
        dmin, dmax = self.degree_range()
        return {
            "nodes": n,
            "links": self.num_links,
            "min_degree": dmin,
            "max_degree": dmax,
            "diameter": dia,
            "avg_distance": avg,
            "cost_degree_x_diameter": dmax * dia,
        }

    # -- cached derived arrays ----------------------------------------------

    def memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value cached under ``key``, built by ``build()`` on first
        use and kept for this topology's lifetime (treat it as
        read-only)."""
        with _MEMO_LOCK:
            if key not in self._memo:
                self._memo[key] = build()
            return self._memo[key]

    def distance_rows(self, dsts) -> Tuple[np.ndarray, np.ndarray]:
        """Hop-distance rows for the destinations ``dsts``: ``(table,
        row)`` with ``table[row[i], v]`` the graph distance from node
        ``v`` to ``dsts[i]`` (``-1`` when unreachable).

        Rows are built lazily, one batched BFS
        (:func:`~repro.graphs.traversal.bfs_distances_many`) over the
        destinations not seen before, and cached in the narrowest integer
        dtype that fits, so the cache only holds rows some caller needed
        and no topology pays for distances at construction.  Treat
        ``table`` as read-only.
        """
        n = self.num_nodes
        dsts = np.asarray(dsts, dtype=np.int64)
        with _MEMO_LOCK:
            row_of, table = self._memo.get("dist") or (
                np.full(n, -1, dtype=np.int64),
                np.empty((0, n), dtype=_distance_dtype(n)),
            )
            need = np.unique(dsts[row_of[dsts] < 0])
            if need.size:
                fresh = bfs_distances_many(self.graph, need, dtype=table.dtype)
                row_of[need] = np.arange(len(table), len(table) + need.size)
                table = np.concatenate((table, fresh))
                self._memo["dist"] = (row_of, table)
            return table, row_of[dsts]

    def hop_distances(self, src, dst) -> np.ndarray:
        """Graph distance of every pair ``(src[i], dst[i])`` (``-1`` when
        unreachable), read from the cached :meth:`distance_rows`."""
        table, row = self.distance_rows(dst)
        return table[row, np.asarray(src, dtype=np.int64)]

    def link_codes(self) -> np.ndarray:
        """Every directed link ``(u, v)`` -- both directions of each edge --
        as the code ``u * num_nodes + v``, sorted (cached; read-only)."""

        def build() -> np.ndarray:
            indptr, indices = self.graph.csr()
            n = self.num_nodes
            return np.sort(np.repeat(np.arange(n), np.diff(indptr)) * n + indices)

        return self.memo("link_codes", build)

    def link_ids(self, codes) -> np.ndarray:
        """The id of every directed-link code in ``codes``: its rank in
        :meth:`link_codes`, so ids fill ``[0, 2 * num_links)`` and name
        the same link in every route table over this topology or one of
        its fault views.  A code that is not a link raises
        :class:`ValueError`."""
        book = self.link_codes()
        codes = np.asarray(codes, dtype=np.int64)
        ids = np.searchsorted(book, codes)
        # a code past the last link lands on the -1, which no code equals
        stray = codes[np.append(book, -1)[ids] != codes]
        if stray.size:
            u, v = divmod(int(stray[0]), self.num_nodes)
            raise ValueError(f"({u}, {v}) is not a link of {self.name}")
        return ids

    def node_word(self, index: int) -> str:
        """The binary-word address of a node (labels must be words)."""
        label = self.graph.label_of(index)
        if not isinstance(label, str):
            raise TypeError(f"node {index} has non-word label {label!r}")
        return label

    # -- fault masking -----------------------------------------------------

    def with_faults(self, plan: "FaultPlan", at_cycle: int = 0) -> "Topology":
        """The masked view of this topology at ``at_cycle`` of ``plan``.

        Same vertex set (indices stay stable for traffic and routes):
        links dead at that cycle are removed and failed nodes survive as
        isolated vertices whose word addresses are *hidden* behind
        sentinel labels, so word-based routers cannot step onto them.
        Returns ``self`` unchanged when nothing has failed yet.
        """
        dead_nodes = plan.dead_nodes_at(at_cycle)
        dead_links = plan.dead_links_at(at_cycle)
        if not dead_nodes and not dead_links:
            return self
        g = self.graph
        masked = Graph(g.num_vertices)
        for u, v in g.edges():  # edges() yields u < v, matching dead_links
            if u in dead_nodes or v in dead_nodes or (u, v) in dead_links:
                continue
            masked.add_edge(u, v)
        if g.labels is not None:
            masked.set_labels(
                [
                    ("failed", i) if i in dead_nodes else lab
                    for i, lab in enumerate(g.labels)
                ]
            )
        return Topology(
            name=f"{self.name}/f@{at_cycle}",
            graph=masked,
            word_length=self.word_length,
            allow_disconnected=True,
        )


def topology_of(cube_or_graph, name: Optional[str] = None) -> Topology:
    """Wrap a :class:`GeneralizedFibonacciCube`, an ``(f, d)`` pair, or a
    plain labelled :class:`Graph` as a :class:`Topology`."""
    if isinstance(cube_or_graph, GeneralizedFibonacciCube):
        cube = cube_or_graph
        return Topology(
            name or f"Q_{cube.d}({cube.f})", cube.graph(), word_length=cube.d
        )
    if isinstance(cube_or_graph, tuple):
        f, d = cube_or_graph
        cube = generalized_fibonacci_cube(f, d)
        return Topology(name or f"Q_{d}({f})", cube.graph(), word_length=d)
    if isinstance(cube_or_graph, Graph):
        length = None
        if cube_or_graph.labels and isinstance(cube_or_graph.labels[0], str):
            lengths = {len(w) for w in cube_or_graph.labels}
            if len(lengths) == 1:
                length = lengths.pop()
        return Topology(name or "graph", cube_or_graph, word_length=length)
    raise TypeError(f"cannot build a topology from {cube_or_graph!r}")


def faulted_topology(topo: Topology, num_faults: int, seed: int = 0) -> Topology:
    """The surviving network after ``num_faults`` random node failures.

    Removes the faulted nodes and keeps the *largest connected component*
    (a :class:`Topology` must be connected), labels carried over -- the
    degraded-but-operational network the fault-tolerance simulations run
    traffic on.  Deterministic given ``seed``.
    """
    n = topo.num_nodes
    if not 0 <= num_faults < n:
        raise ValueError(f"need 0 <= faults < nodes, got {num_faults} of {n}")
    rng = random.Random(seed)
    failed = set(rng.sample(range(n), num_faults))
    keep = [v for v in range(n) if v not in failed]
    sub, _ = topo.graph.induced_subgraph(keep)
    comps = connected_components(sub)
    largest = max(comps, key=len)
    if len(largest) < sub.num_vertices:
        sub, _ = sub.induced_subgraph(largest)
    if len(largest) < 2:
        raise ValueError(f"only {len(largest)} node survives {num_faults} faults")
    return Topology(
        name=f"{topo.name}-f{num_faults}s{seed}",
        graph=sub,
        word_length=topo.word_length,
    )
