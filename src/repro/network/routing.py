"""Routing algorithms on cube topologies.

Five routers with one interface (``route(topology, src, dst) -> path``
as a list of node indices):

- :class:`BfsRouter` -- exact shortest path in the topology (the
  oracle);
- :class:`CanonicalRouter` -- the paper's canonical path (Section 2):
  scan left to right flipping 1->0 bits first, then 0->1 bits, skipping
  hops that would leave the vertex set.  On :math:`Q_d(1^s)` the proof of
  Proposition 3.1 shows the unmodified canonical path already stays inside
  -- the distributed, table-free routing of the Hsu--Liu line;
- :class:`GreedyRouter` -- a purely local rule: from the current node,
  move to any neighbour strictly closer in Hamming distance to the
  destination; fail when stuck (used to demonstrate *why* isometry
  matters for local routing);
- :class:`AdaptiveRouter` -- the fault-aware extension of the canonical
  rule: prefer a canonical move over a *live* link, and when faults (or
  non-isometry) block every closer step, misroute to any live neighbour
  under a bounded misroute budget -- still table-free and local;
- :class:`DimensionOrderRouter` -- strict e-cube, the canonical order without
  skipping: deadlock-free anywhere, failing where a flip leaves the vertex set.

:func:`route_stats` checks and scores routes read, as the simulator reads them,
from :class:`RouteTable` blocks: reachability, stretch and optimality.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.traversal import bfs_distances
from repro.network.topology import Topology
from repro.words.core import flip, hamming

__all__ = [
    "AdaptiveRouter",
    "BfsRouter",
    "CanonicalRouter",
    "DimensionOrderRouter",
    "GreedyRouter",
    "RouteStats",
    "RouteTable",
    "route_stats",
]


class BfsRouter:
    """Exact shortest-path routing (global knowledge)."""

    name = "bfs"

    def route(self, topo: Topology, src: int, dst: int) -> Optional[List[int]]:
        g = topo.graph
        dist = bfs_distances(g, dst)
        if dist[src] < 0:
            return None
        path = [src]
        cur = src
        while cur != dst:
            cur = min(g.neighbors(cur), key=lambda v: dist[v])
            if dist[cur] < 0:
                return None
            path.append(cur)
        return path

    def build_table(
        self, topo: Topology, pairs: Iterable[Tuple[int, int]]
    ) -> "RouteTable":
        """Resolve every pair at once (an iterable of ``(src, dst)`` or a
        ``(k, 2)`` array) into a :class:`RouteTable`.

        Distances come from the topology's cached hop-distance rows
        (:meth:`Topology.distance_rows`); the walk then advances every
        unfinished pair one hop per step, each to the first neighbour of
        its current node (in adjacency order) that is strictly closer to
        its destination -- exactly the vertex :meth:`route`'s
        ``min(..., key=dist)`` picks -- so the table's paths are identical
        to the per-pair ones.  Unreachable pairs get no row.
        """
        n = topo.num_nodes
        codes = _pair_codes(pairs, n)
        src, dst = np.divmod(codes, n)
        dist, drow = topo.distance_rows(dst)
        hops = dist[drow, src].astype(np.int64)
        ok = hops >= 0
        rows = np.full(codes.size, -1, dtype=np.int64)
        rows[ok] = np.arange(int(ok.sum()), dtype=np.int64)
        cur, drow, left = src[ok], drow[ok], hops[ok]
        offsets = np.zeros(cur.size + 1, dtype=np.int64)
        np.cumsum(left + 1, out=offsets[1:])
        data = np.empty(int(offsets[-1]), dtype=np.int64)
        data[offsets[:-1]] = cur
        nbrs = topo.memo("neighbour_matrix", lambda: _neighbour_matrix(topo.graph))
        active = np.flatnonzero(left > 0)
        step = 0
        while active.size:
            step += 1
            cand = nbrs[cur[active]]
            closer = (cand >= 0) & (
                dist[drow[active, None], cand] == (left[active] - 1)[:, None]
            )
            nxt = cand[np.arange(active.size), closer.argmax(axis=1)]
            cur[active] = nxt
            left[active] -= 1
            data[offsets[active] + step] = nxt
            active = active[left[active] > 0]
        return RouteTable(
            route_data=data, route_offsets=offsets, pair_codes=codes,
            pair_rows=rows, num_nodes=n,
        )


def _neighbour_matrix(g) -> np.ndarray:
    """Adjacency lists as an ``(n, max_degree)`` matrix in adjacency
    order, padded with ``-1``."""
    indptr, indices = g.csr()
    deg = indptr[1:] - indptr[:-1]
    out = np.full((g.num_vertices, int(deg.max(initial=0))), -1, dtype=np.int64)
    owner = np.repeat(np.arange(g.num_vertices), deg)
    out[owner, np.arange(indices.size) - indptr[owner]] = indices
    return out


def _pair_codes(pairs, n: int) -> np.ndarray:
    """The sorted distinct ``src * n + dst`` codes of ``pairs``."""
    if not isinstance(pairs, np.ndarray):
        pairs = list(pairs)
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.unique(arr[:, 0] * n + arr[:, 1])


class CanonicalRouter:
    """Canonical bit-fix routing with in-set skipping.

    Repeatedly scans positions left to right and performs the first
    *admissible* canonical move: flip a 1->0 mismatch if the result stays
    a vertex, else (after all 1->0 options) a 0->1 mismatch.  If a full
    scan makes no progress the route fails.  On factors ``1^s``
    (Proposition 3.1) the first canonical move is always admissible, so
    the router is optimal there; elsewhere it may detour or fail, which
    is precisely what the N1 experiment quantifies.
    """

    name = "canonical"

    def route(self, topo: Topology, src: int, dst: int) -> Optional[List[int]]:
        g = topo.graph
        if topo.word_length is None:
            raise ValueError("canonical routing needs word-addressed nodes")
        cur_word = topo.node_word(src)
        dst_word = topo.node_word(dst)
        path = [src]
        guard = 4 * (topo.word_length + 1)
        while cur_word != dst_word and guard > 0:
            guard -= 1
            nxt = self._canonical_step(g, cur_word, dst_word)
            if nxt is None:
                return None
            cur_word = nxt
            path.append(g.index_of(cur_word))
        if cur_word != dst_word:
            return None
        return path

    @staticmethod
    def _canonical_step(g, cur: str, dst: str) -> Optional[str]:
        for i in range(len(cur)):
            if cur[i] == "1" and dst[i] == "0":
                cand = flip(cur, i)
                if g.has_label(cand):
                    return cand
        for i in range(len(cur)):
            if cur[i] == "0" and dst[i] == "1":
                cand = flip(cur, i)
                if g.has_label(cand):
                    return cand
        return None


class AdaptiveRouter(CanonicalRouter):
    """Fault-aware canonical routing with a bounded misroute budget.

    The local detour rule of the Hsu--Liu fault-tolerance line: at each
    node, take the first canonical move (1->0 mismatch flips left to
    right, then 0->1) whose link is *live* -- on a masked fault view
    (:meth:`Topology.with_faults`) dead links are missing edges and
    failed nodes have hidden addresses, so this test is purely local.
    When no closer live neighbour exists, *misroute*: flip the leftmost
    matching bit that lands on a live neighbour, spending one unit of a
    ``max_misroutes`` budget (each misroute costs two extra hops).  The
    immediately previous node is never revisited, so a misroute is never
    undone one step later.  On an unfaulted ``Q_d(1^s)`` no misroute is
    ever needed (Proposition 3.1) and the routes coincide with
    :class:`CanonicalRouter`'s.
    """

    name = "adaptive"

    def __init__(self, max_misroutes: int = 4):
        if max_misroutes < 0:
            raise ValueError(f"max_misroutes must be >= 0, got {max_misroutes}")
        self.max_misroutes = max_misroutes

    def route(self, topo: Topology, src: int, dst: int) -> Optional[List[int]]:
        g = topo.graph
        if topo.word_length is None:
            raise ValueError("adaptive routing needs word-addressed nodes")
        cur_word = topo.node_word(src)
        dst_word = topo.node_word(dst)
        budget = self.max_misroutes
        # each misroute flips one matching bit and must be re-fixed later
        limit = hamming(cur_word, dst_word) + 2 * self.max_misroutes
        path = [src]
        prev = -1
        while cur_word != dst_word:
            if len(path) - 1 >= limit:
                return None
            step = self._adaptive_step(g, path[-1], cur_word, dst_word, prev, budget > 0)
            if step is None:
                return None
            nxt, nxt_word, misrouted = step
            if misrouted:
                budget -= 1
            prev = path[-1]
            cur_word = nxt_word
            path.append(nxt)
        return path

    @staticmethod
    def _adaptive_step(
        g, cur: int, cur_word: str, dst_word: str, prev: int, may_misroute: bool
    ) -> Optional[Tuple[int, str, bool]]:
        for bits in (("1", "0"), ("0", "1")):
            for i in range(len(cur_word)):
                if cur_word[i] == bits[0] and dst_word[i] == bits[1]:
                    cand = flip(cur_word, i)
                    if g.has_label(cand):
                        j = g.index_of(cand)
                        if j != prev and g.has_edge(cur, j):
                            return (j, cand, False)
        if may_misroute:
            for i in range(len(cur_word)):
                if cur_word[i] == dst_word[i]:
                    cand = flip(cur_word, i)
                    if g.has_label(cand):
                        j = g.index_of(cand)
                        if j != prev and g.has_edge(cur, j):
                            return (j, cand, True)
        return None


class DimensionOrderRouter:
    """Strict e-cube routing: fix differing bits left to right, no fallback.

    Deadlock-free by construction on *any* topology (channels are used in
    strictly increasing dimension order, so the channel dependency graph
    is acyclic), but it only delivers when every prefix-fixed word is a
    vertex -- guaranteed on the full hypercube and, in the 1->0-first
    variant below, on the ``1^s`` family (Proposition 3.1's canonical
    path).  Delivery failures on other cubes are the measured price of
    strictness, contrast with :class:`CanonicalRouter`'s fallback.
    """

    name = "ecube"

    def route(self, topo: Topology, src: int, dst: int) -> Optional[List[int]]:
        g = topo.graph
        if topo.word_length is None:
            raise ValueError("dimension-order routing needs word-addressed nodes")
        cur = topo.node_word(src)
        dst_word = topo.node_word(dst)
        path = [src]
        # phase 1: 1 -> 0 flips left to right, phase 2: 0 -> 1 flips
        for phase_bits in (("1", "0"), ("0", "1")):
            for i in range(len(cur)):
                if cur[i] == phase_bits[0] and dst_word[i] == phase_bits[1]:
                    cur = flip(cur, i)
                    if not g.has_label(cur):
                        return None
                    path.append(g.index_of(cur))
        return path


class GreedyRouter:
    """Local Hamming-descent routing; fails when no neighbour improves."""

    name = "greedy"

    def route(self, topo: Topology, src: int, dst: int) -> Optional[List[int]]:
        g = topo.graph
        if topo.word_length is None:
            raise ValueError("greedy routing needs word-addressed nodes")
        dst_word = topo.node_word(dst)
        cur = src
        path = [cur]
        while cur != dst:
            cur_word = topo.node_word(cur)
            h_cur = hamming(cur_word, dst_word)
            nxt = None
            for v in g.neighbors(cur):
                if hamming(topo.node_word(v), dst_word) < h_cur:
                    nxt = v
                    break
            if nxt is None:
                return None
            cur = nxt
            path.append(cur)
        return path


@dataclass
class RouteTable:
    """Batched routes in a flat CSR-style layout.

    Row ``r`` is the node sequence
    ``route_data[route_offsets[r] : route_offsets[r + 1]]``.
    ``pair_codes`` holds the sorted ``src * num_nodes + dst`` code of
    every pair the table was built over (its builder keeps them as
    given, so ``pair_rows[inverse]`` of the caller's ``np.unique`` is
    each packet's row) and ``pair_rows`` its row, ``-1`` when the router
    failed the pair (the packet is dropped at injection).  A table
    merged from several routing epochs has rows but no pair index.

    The table is what the vectorized simulator consumes: routes are
    resolved once per *unique* pair instead of once per packet, and the
    flat arrays let the engine advance every in-flight packet with NumPy
    gathers instead of per-packet list indexing.
    """

    route_data: np.ndarray
    route_offsets: np.ndarray
    pair_codes: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    pair_rows: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    num_nodes: int = 0

    @classmethod
    def build(
        cls,
        topo: Topology,
        router,
        pairs: Iterable[Tuple[int, int]],
    ) -> "RouteTable":
        """Resolve every unique pair through ``router.route`` into one
        table."""
        n = topo.num_nodes
        codes = _pair_codes(pairs, n)
        rows = np.full(codes.size, -1, dtype=np.int64)
        data: List[int] = []
        offsets: List[int] = [0]
        for i, code in enumerate(codes.tolist()):
            path = router.route(topo, code // n, code % n)
            if path is not None:
                rows[i] = len(offsets) - 1
                data.extend(path)
                offsets.append(len(data))
        return cls(
            route_data=np.asarray(data, dtype=np.int64),
            route_offsets=np.asarray(offsets, dtype=np.int64),
            pair_codes=codes,
            pair_rows=rows,
            num_nodes=n,
        )

    @property
    def num_routes(self) -> int:
        return len(self.route_offsets) - 1

    @property
    def pair_row(self) -> Mapping[Tuple[int, int], int]:
        """Read-only ``(src, dst) -> row`` view of the pair index."""
        return _PairRows(self)

    def lengths(self) -> np.ndarray:
        """Node count of every route (hops + 1), one entry per row."""
        return self.route_offsets[1:] - self.route_offsets[:-1]

    def hops(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every row's hops as directed-link codes ``u * num_nodes + v`` in
        CSR form ``(codes, offsets)``: row ``r``'s hops are
        ``codes[offsets[r] : offsets[r + 1]]``, one fewer than its nodes."""
        data, offsets = self.route_data, self.route_offsets
        codes = np.delete(data[:-1] * self.num_nodes + data[1:], offsets[1:-1] - 1)
        return codes, offsets - np.arange(offsets.size)

    def endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """First and last node of every row: its pair's ``(src, dst)``."""
        return (self.route_data[self.route_offsets[:-1]],
                self.route_data[self.route_offsets[1:] - 1])

    def route_nodes(self, row: int) -> np.ndarray:
        """The node sequence of row ``row`` (a view, do not mutate)."""
        return self.route_data[self.route_offsets[row] : self.route_offsets[row + 1]]


class _PairRows(Mapping):
    """``(src, dst) -> row`` over a table's sorted pair codes."""

    def __init__(self, table: RouteTable):
        self._table = table

    def __len__(self) -> int:
        return int(self._table.pair_codes.size)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        n = self._table.num_nodes
        return (divmod(c, n) for c in self._table.pair_codes.tolist())

    def __getitem__(self, pair: Tuple[int, int]) -> int:
        t = self._table
        code = pair[0] * t.num_nodes + pair[1]
        at = int(np.searchsorted(t.pair_codes, code))
        if at == t.pair_codes.size or t.pair_codes[at] != code:
            raise KeyError(pair)
        return int(t.pair_rows[at])


_BLOCK_PAIRS = 65536  # the most pairs route analysis holds in one table


def route_table(topo: Topology, router, pairs) -> RouteTable:
    """``pairs`` resolved into one :class:`RouteTable`: by the router's
    batched ``build_table`` when it has one, else :meth:`RouteTable.build`."""
    if hasattr(router, "build_table"):
        return router.build_table(topo, pairs)
    return RouteTable.build(topo, router, pairs)


def route_blocks(
    topo: Topology, router, pairs: Optional[Sequence[Tuple[int, int]]] = None
) -> Iterator[Tuple[np.ndarray, RouteTable, np.ndarray]]:
    """``pairs`` (default: every ordered pair ``s != t``, source-major) in
    blocks of at most 65,536: each block as a ``(k, 2)`` array, its
    :func:`route_table` and each pair's row there (``-1``: route failed)."""
    n = topo.num_nodes
    if pairs is not None:
        pairs = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    total = n * (n - 1) if pairs is None else len(pairs)
    for lo in range(0, total, _BLOCK_PAIRS):
        if pairs is None:  # pair k is (s, j) for j < s, else (s, j + 1)
            src, j = np.divmod(np.arange(lo, min(lo + _BLOCK_PAIRS, total)), n - 1)
            block = np.stack((src, j + (j >= src)), axis=1)
        else:
            block = pairs[lo : lo + _BLOCK_PAIRS]
        codes, inverse = np.unique(block[:, 0] * n + block[:, 1], return_inverse=True)
        table = route_table(topo, router, np.stack(np.divmod(codes, n), axis=1))
        yield block, table, table.pair_rows[inverse]


@dataclass(frozen=True)
class RouteStats:
    """Aggregate routing quality over a pair sample."""

    router: str
    pairs: int
    delivered: int
    optimal: int
    total_hops: int
    total_shortest: int

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.pairs if self.pairs else 1.0

    @property
    def optimality_rate(self) -> float:
        return self.optimal / self.delivered if self.delivered else 0.0

    @property
    def stretch(self) -> float:
        """Average delivered-path length over shortest-path length."""
        return self.total_hops / self.total_shortest if self.total_shortest else 1.0


def route_stats(
    topo: Topology,
    router,
    pairs: Optional[Sequence[Tuple[int, int]]] = None,
) -> RouteStats:
    """Run ``router`` over ``pairs`` (default: all ordered pairs) and verify
    each returned path is a real path before scoring it; paths are read
    from :func:`route_blocks`' tables, and the first bad pair names the
    failure."""
    totals = np.zeros(5, dtype=np.int64)  # the RouteStats counts, in field order
    for block, table, rows in route_blocks(topo, router, pairs):
        ends, rows = block[rows >= 0], rows[rows >= 0]
        broken = (np.stack(table.endpoints(), axis=1)[rows] != ends).any(axis=1)
        codes, offsets = table.hops()
        nonedges = np.cumsum(np.concatenate(([0], ~np.isin(codes, topo.link_codes()))))[offsets]
        bad = broken | (np.diff(nonedges) > 0)[rows]
        if bad.any():
            what = "returned a broken path" if broken[bad.argmax()] else "used a non-edge"
            raise AssertionError(f"router {router.name} {what}")
        hops = table.lengths()[rows] - 1
        shortest = topo.hop_distances(ends[:, 0], ends[:, 1])
        totals += (len(block), rows.size, (hops == shortest).sum(), hops.sum(), shortest.sum())
    return RouteStats(getattr(router, "name", type(router).__name__), *totals.tolist())
