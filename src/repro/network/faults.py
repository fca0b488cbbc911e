"""Fault model: static graph surgery and dynamic fault plans.

Two complementary views of the 1993-lineage claim that Fibonacci-type
cubes degrade gracefully under faults:

- **Static surgery** (:func:`fault_tolerance_trial`): remove a random
  node set offline and measure surviving connectivity, diameter
  inflation and routable-pair fraction -- structure only, no traffic.

- **Dynamic fault plans** (:class:`FaultPlan`): a reproducible schedule
  of node and link failures, each active from a given cycle onward
  (cycle 0 = failed before traffic starts).  A plan threads through the
  simulation engines (:mod:`repro.network.simulator`) as *link masks*:

  - a failed node kills every incident link (both directions); a failed
    link kills both directions of that link;
  - a packet that sits queued on a link during a cycle in which the link
    is dead is dropped and counted in ``SimResult.dropped`` -- faults
    strike in flight, not just between runs;
  - packets injected at or after a fault cycle are routed against the
    *masked* topology (:meth:`Topology.with_faults`), one route table
    per fault epoch, shared by every run of a batch that has the same
    router and plan.  Fault-aware routers
    (:class:`~repro.network.routing.AdaptiveRouter`, BFS) detour around
    the damage; the table-free canonical router sees node deaths (word
    addresses of failed nodes are hidden) but is *oblivious to link
    deaths* and pays in dropped packets -- the measured contrast the
    ICPP'93 line argued about.

Plans are frozen, hashable and picklable, with a compact string grammar
(:meth:`FaultPlan.parse` / :meth:`FaultPlan.spec`) so sweeps can carry a
``--faults`` axis: ``"n3,n5@10,l0-2@5"`` fails node 3 at cycle 0, node 5
at cycle 10 and link {0, 2} at cycle 5; ``"rand4@20s7"`` fails 4
seed-7-random nodes at cycle 20.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

import numpy as np

from repro.graphs.traversal import all_pairs_distances, connected_components
from repro.network.topology import Topology

__all__ = ["FaultPlan", "FaultReport", "fault_tolerance_trial"]

_NEVER = 2**62  # a cycle no simulation reaches: "never fails"

_NODE_RE = re.compile(r"n(\d+)(?:@(\d+))?")
_LINK_RE = re.compile(r"l(\d+)-(\d+)(?:@(\d+))?")
_RAND_RE = re.compile(r"rand(\d+)(?:@(\d+))?(?:s(\d+))?")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of node and link failures.

    ``node_faults`` holds ``(cycle, node)`` events, ``link_faults`` holds
    ``(cycle, u, v)`` events with ``u < v``; an entity failing is
    permanent from its cycle onward.  Construction normalises: endpoints
    are ordered, duplicates keep their *earliest* failure cycle, events
    are stored sorted -- so equal plans compare and hash equal.
    """

    node_faults: Tuple[Tuple[int, int], ...] = ()
    link_faults: Tuple[Tuple[int, int, int], ...] = ()

    def __post_init__(self):
        nodes: Dict[int, int] = {}
        for cycle, v in self.node_faults:
            cycle, v = int(cycle), int(v)
            if cycle < 0 or v < 0:
                raise ValueError(f"bad node fault ({cycle}, {v}): need cycle, node >= 0")
            nodes[v] = min(nodes.get(v, _NEVER), cycle)
        links: Dict[Tuple[int, int], int] = {}
        for cycle, u, v in self.link_faults:
            cycle, u, v = int(cycle), int(u), int(v)
            if cycle < 0 or u < 0 or v < 0:
                raise ValueError(f"bad link fault ({cycle}, {u}, {v}): need all >= 0")
            if u == v:
                raise ValueError(f"link fault {u}-{v} is a self-loop")
            key = (u, v) if u < v else (v, u)
            links[key] = min(links.get(key, _NEVER), cycle)
        object.__setattr__(
            self, "node_faults", tuple(sorted((c, v) for v, c in nodes.items()))
        )
        object.__setattr__(
            self, "link_faults", tuple(sorted((c, u, v) for (u, v), c in links.items()))
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def static(
        cls,
        nodes: Iterable[int] = (),
        links: Iterable[Tuple[int, int]] = (),
    ) -> "FaultPlan":
        """All failures present from cycle 0 (the classic offline model)."""
        return cls(
            node_faults=tuple((0, v) for v in nodes),
            link_faults=tuple((0, u, v) for u, v in links),
        )

    @classmethod
    def random_nodes(
        cls, num_nodes: int, k: int, seed: int = 0, at_cycle: int = 0
    ) -> "FaultPlan":
        """``k`` random node failures at ``at_cycle``, deterministic in ``seed``."""
        if not 0 <= k <= num_nodes:
            raise ValueError(f"need 0 <= k <= {num_nodes}, got {k}")
        rng = random.Random(seed)
        return cls(
            node_faults=tuple((at_cycle, v) for v in rng.sample(range(num_nodes), k))
        )

    @classmethod
    def parse(cls, spec: str, num_nodes: Optional[int] = None) -> "FaultPlan":
        """Parse a comma-separated fault spec.

        Tokens: ``n<v>[@<cycle>]`` (node fault), ``l<u>-<v>[@<cycle>]``
        (link fault), ``rand<k>[@<cycle>][s<seed>]`` (``k`` random node
        faults; needs ``num_nodes``).  The empty string is the empty plan.
        """
        nodes = []
        links = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            if m := _NODE_RE.fullmatch(token):
                nodes.append((int(m.group(2) or 0), int(m.group(1))))
            elif m := _LINK_RE.fullmatch(token):
                links.append((int(m.group(3) or 0), int(m.group(1)), int(m.group(2))))
            elif m := _RAND_RE.fullmatch(token):
                if num_nodes is None:
                    raise ValueError(
                        f"random fault token {token!r} needs num_nodes to resolve"
                    )
                k, cyc = int(m.group(1)), int(m.group(2) or 0)
                rng = random.Random(int(m.group(3) or 0))
                if not 0 <= k <= num_nodes:
                    raise ValueError(f"{token!r}: need 0 <= k <= {num_nodes}")
                nodes.extend((cyc, v) for v in rng.sample(range(num_nodes), k))
            else:
                raise ValueError(
                    f"bad fault token {token!r} in {spec!r}: expected "
                    "'n<v>[@c]', 'l<u>-<v>[@c]' or 'rand<k>[@c][s<seed>]'"
                )
        return cls(node_faults=tuple(nodes), link_faults=tuple(links))

    def spec(self) -> str:
        """Canonical round-trip string (``parse(plan.spec()) == plan``)."""
        toks = [f"n{v}" + (f"@{c}" if c else "") for c, v in self.node_faults]
        toks += [f"l{u}-{v}" + (f"@{c}" if c else "") for c, u, v in self.link_faults]
        return ",".join(toks)

    # -- queries -----------------------------------------------------------

    @property
    def num_events(self) -> int:
        return len(self.node_faults) + len(self.link_faults)

    def cycles(self) -> Tuple[int, ...]:
        """Sorted distinct fault cycles: the routing-epoch boundaries."""
        return tuple(
            sorted(
                {c for c, _ in self.node_faults} | {c for c, _, _ in self.link_faults}
            )
        )

    def dead_nodes_at(self, cycle: int) -> FrozenSet[int]:
        """Nodes already failed at ``cycle`` (events with cycle <= it)."""
        return frozenset(v for c, v in self.node_faults if c <= cycle)

    def dead_links_at(self, cycle: int) -> FrozenSet[Tuple[int, int]]:
        """Explicit link faults active at ``cycle``, as ``(u, v)`` with
        ``u < v`` (links killed by node faults are not listed here)."""
        return frozenset((u, v) for c, u, v in self.link_faults if c <= cycle)

    def node_death_array(self, num_nodes: int) -> np.ndarray:
        """First failure cycle of every node ``0 .. num_nodes-1`` as an
        int64 array, ``_NEVER`` for nodes that never fail (events naming
        nodes outside that range are ignored)."""
        death = np.full(num_nodes, _NEVER, dtype=np.int64)
        for c, v in self.node_faults:
            if v < num_nodes:
                death[v] = c
        return death

    def link_death_map(self, topo: Topology) -> Dict[Tuple[int, int], int]:
        """First cycle each *directed* link stops forwarding.

        Node faults kill every incident link in both directions; links
        that never die are absent from the map.
        """
        dead: Dict[Tuple[int, int], int] = {}

        def note(u: int, v: int, c: int) -> None:
            for key in ((u, v), (v, u)):
                if c < dead.get(key, _NEVER):
                    dead[key] = c

        for c, v in self.node_faults:
            for u in topo.graph.neighbors(v):
                note(u, v, c)
        for c, u, v in self.link_faults:
            note(u, v, c)
        return dead

    def validate(self, topo: Topology) -> "FaultPlan":
        """Check every event names a real node/link of ``topo``; return self."""
        n = topo.num_nodes
        for c, v in self.node_faults:
            if v >= n:
                raise ValueError(
                    f"fault node {v} out of range for {topo.name} ({n} nodes)"
                )
        for c, u, v in self.link_faults:
            if u >= n or v >= n or not topo.graph.has_edge(u, v):
                raise ValueError(f"faulted link {u}-{v} is not a link of {topo.name}")
        return self


@dataclass(frozen=True)
class FaultReport:
    """Outcome of one fault-injection trial."""

    topology: str
    nodes: int
    failed: int
    still_connected: bool
    largest_component_fraction: float
    diameter_before: int
    diameter_after: Optional[int]
    reachable_pair_fraction: float


def fault_tolerance_trial(
    topo: Topology, num_faults: int, seed: int = 0
) -> FaultReport:
    """Remove ``num_faults`` random nodes; report structural degradation.

    ``diameter_after`` is measured on the largest surviving component and
    is ``None`` when fewer than two nodes survive.
    """
    n = topo.num_nodes
    if not 0 <= num_faults < n:
        raise ValueError(f"need 0 <= faults < nodes, got {num_faults} of {n}")
    rng = random.Random(seed)
    dist_before = all_pairs_distances(topo.graph)
    diameter_before = int(dist_before.max()) if n > 1 else 0
    failed = set(rng.sample(range(n), num_faults))
    keep = [v for v in range(n) if v not in failed]
    sub, _ = topo.graph.induced_subgraph(keep)
    comps = connected_components(sub)
    comps.sort(key=len, reverse=True)
    survivors = sub.num_vertices
    largest = comps[0] if comps else []
    still_connected = len(comps) == 1 and survivors > 0
    reachable_pairs = sum(len(c) * (len(c) - 1) for c in comps)
    total_pairs = survivors * (survivors - 1)
    if len(largest) >= 2:
        big, _ = sub.induced_subgraph(largest)
        diameter_after: Optional[int] = int(all_pairs_distances(big).max())
    else:
        diameter_after = None
    return FaultReport(
        topology=topo.name,
        nodes=n,
        failed=num_faults,
        still_connected=still_connected,
        largest_component_fraction=(len(largest) / survivors) if survivors else 0.0,
        diameter_before=diameter_before,
        diameter_after=diameter_after,
        reachable_pair_fraction=(reachable_pairs / total_pairs) if total_pairs else 1.0,
    )
