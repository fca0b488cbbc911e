"""The word routers' paths, pinned by digest.

Every golden fixture routes with BFS, so these digests are what pin the
paper's canonical order (Section 2) and its fault-aware, e-cube and
greedy variants: the SHA-256 of the all-pairs ``RouteTable.build``
arrays (``route_data``, ``route_offsets``, ``pair_rows``, little-endian
int64) of each router over six cubes and one fault view of each, with
one failed node and one dead link.  Pairs with a failed endpoint are
left out of the pinned tables.  A diff here means some router now picks
another path for some pair.
"""

import hashlib

import numpy as np
import pytest

from repro.cubes.hypercube import hypercube
from repro.network.faults import FaultPlan
from repro.network.routing import (
    AdaptiveRouter,
    CanonicalRouter,
    DimensionOrderRouter,
    GreedyRouter,
    RouteTable,
)
from repro.network.topology import topology_of

ROUTERS = {
    "canonical": CanonicalRouter,
    "adaptive0": lambda: AdaptiveRouter(0),
    "adaptive1": lambda: AdaptiveRouter(1),
    "adaptive4": lambda: AdaptiveRouter(4),
    "ecube": DimensionOrderRouter,
    "greedy": GreedyRouter,
}

DIGESTS = {
    "adaptive0": "6ce5fa39c702dad090f87ef071b14d58cbc13e32b867cc1da9fbbd3b56845fd7",
    "adaptive1": "2c279da5cae79df5dc6b0a84a3013046dc460f769ddbce98e0009698c5ae7c29",
    "adaptive4": "6101be988f0311549bfb2f06e0c3f76cb5780650ac759d6e0ae48f101015f3ea",
    "canonical": "7057a9b14972b34fec8a0784d7f40931a21c33f241ec36be62f4db1fe8bb5f5e",
    "ecube": "d49ba588a897c35df3e52478d76755e10d6199b02c32b813848285db17af32ee",
    "greedy": "e7cebadab013205a5c1063834b020793160ec501dc073cf4f37df852b2a0ba24",
}


def _cases():
    """Each cube, then its fault view: node ``n // 2`` fails and the
    first link that avoids it dies."""
    cubes = [topology_of(hypercube(5), name="Q_5")]
    cubes += [topology_of((f, d)) for f, d in
              (("11", 7), ("101", 7), ("1010", 7), ("110", 6), ("111", 7))]
    cases = []
    for topo in cubes:
        failed = topo.num_nodes // 2
        link = next(e for e in topo.graph.edges() if failed not in e)
        view = topo.with_faults(FaultPlan.static(nodes=[failed], links=[link]))
        cases += [(topo, None), (view, failed)]
    return cases


def route_digest(router) -> str:
    """SHA-256 over every case's all-pairs table, self-pairs included."""
    h = hashlib.sha256()
    for topo, failed in _cases():
        live = [v for v in range(topo.num_nodes) if v != failed]
        pairs = [(s, t) for s in live for t in live]
        table = RouteTable.build(topo, router, pairs)
        for arr in (table.route_data, table.route_offsets, table.pair_rows):
            h.update(np.asarray(arr).astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(ROUTERS))
def test_word_routes_are_pinned(name):
    assert route_digest(ROUTERS[name]()) == DIGESTS[name]
