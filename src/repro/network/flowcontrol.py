"""Flow control: multi-flit packets, finite buffers, wormhole and VCT.

The ICPP'93 lineage judged Fibonacci cubes as *interconnection networks*,
and the decisive phenomena there are finite buffers, backpressure and
deadlock -- none of which an infinite-FIFO store-and-forward model can
express.  This module adds the missing layer:

- :class:`FlowControl` -- the switching configuration both simulator
  engines accept: ``"sf"`` (the legacy infinite-FIFO store-and-forward
  loop, bit-identical to the pre-flow-control engines), ``"wormhole"``
  and ``"vct"`` (virtual cut-through);
- packets become **multi-flit**: each traffic triple carries a flit
  count (see :func:`repro.network.traffic.flit_sizes`), a packet's flits
  pipeline over consecutive links, and a blocked wormhole packet keeps
  holding every buffer its flits sit in -- the hold-and-wait that makes
  Dally--Seitz channel-dependency cycles *operational*;
- per-(channel, virtual-channel) buffers are **finite**
  (``buffer_depth`` flits); a flit advances only into buffer space, so
  congestion propagates backwards as credit stalls;
- ``num_vcs`` **virtual channels** per physical link; VC assignment
  follows the router's dimension order (the VC of a hop is the flipped
  bit position modulo ``num_vcs`` on word-addressed topologies), so
  dimension-ordered routing keeps an acyclic extended channel-dependency
  graph while an arbitrary shortest-path router can genuinely deadlock;
- **deadlock detection**: a cycle in which no flit can move and no
  future event (injection or scheduled fault) can unblock the network
  ends the run with ``SimResult.deadlocked = True`` and the stuck
  packets counted in ``SimResult.stalled`` -- reported, never hung.

Model (shared by both engines, bit-identically)
-----------------------------------------------
A packet with flits ``f_1 .. f_F`` and route channels ``c_1 .. c_k``
(channel = directed link, buffer at the upstream node) moves under these
rules, all decided from start-of-cycle state and applied simultaneously:

- **atomic VC allocation**: a ``(channel, vc)`` buffer is held by at
  most one packet at a time, from the cycle its head flit enters until
  its tail flit leaves;
- each *physical* link transfers at most one flit per cycle; among its
  occupied VCs the one whose holder has the smallest packet id (oldest
  injection) and a movable front flit wins the link;
- a **head** flit advances iff the next hop's buffer is free (for
  ``vct`` the buffer must fit the whole packet, checked up front); a
  **body** flit advances iff the next hop's buffer -- already held by
  its packet -- has space; flits exit freely at the destination;
- competing head flits (including injections) claiming the same free
  buffer are arbitrated by smallest packet id; losers stall in place;
- injection moves one flit per packet per cycle from the source into
  the first channel's buffer, under the same allocation/space rules;
- a link that dies (:class:`~repro.network.faults.FaultPlan`) drops
  *every flit of every packet holding one of its buffers*: the whole
  packet is removed from the network and counted in ``dropped``.

Latency convention: entering the injection buffer costs one cycle, so an
uncontended ``k``-hop, ``F``-flit packet delivers with latency
``k + F`` (store-and-forward: ``k`` with its single-flit packets).

Both engines -- :func:`reference_flow_run`, the readable per-packet
spec, and the fused advance kernel of :mod:`repro.network.kernel`, the
array engine behind ``VectorizedSimulator`` -- implement exactly these
rules and must produce bit-identical outcomes; the equivalence suite
enforces it across topologies, switching modes, routers and fault
plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.network.faults import _NEVER
from repro.network.topology import Topology

__all__ = [
    "FlowControl",
    "FlowOutcome",
    "SWITCHING_MODES",
    "link_dimension",
    "reference_flow_run",
    "vc_of_hop",
]

SWITCHING_MODES = ("sf", "wormhole", "vct")


@dataclass(frozen=True)
class FlowControl:
    """Switching configuration for a simulation run.

    ``switching="sf"`` selects the legacy store-and-forward loop
    (infinite FIFOs, single-flit packets, bit-identical to the engines
    before flow control existed); ``buffer_depth`` and ``num_vcs`` are
    ignored there.  ``"wormhole"`` and ``"vct"`` enable the finite-buffer
    pipelined model described in the module docstring.
    """

    switching: str = "sf"
    buffer_depth: int = 4
    num_vcs: int = 1

    def __post_init__(self):
        if self.switching not in SWITCHING_MODES:
            raise ValueError(
                f"unknown switching mode {self.switching!r}; "
                f"choose from {SWITCHING_MODES}"
            )
        if self.buffer_depth < 1:
            raise ValueError(
                f"buffer_depth must be at least 1 flit, got {self.buffer_depth}"
            )
        if self.num_vcs < 1:
            raise ValueError(f"num_vcs must be at least 1, got {self.num_vcs}")

    @property
    def pipelined(self) -> bool:
        """True for the finite-buffer modes (wormhole / vct)."""
        return self.switching != "sf"

    def label(self) -> str:
        """Compact tag for sweep records and curve keys (``""`` for sf)."""
        if not self.pipelined:
            return ""
        return f"{self.switching}:v{self.num_vcs}:b{self.buffer_depth}"


def link_dimension(topo: Topology, u: int, v: int) -> Optional[int]:
    """The cube dimension of link ``(u, v)``: the first position where the
    two word addresses differ, or ``None`` off word-addressed topologies
    and where a label is not a binary word."""
    if topo.word_length is None:
        return None
    wu, wv = topo.node_word(u), topo.node_word(v)
    if wu.strip("01") or wv.strip("01"):
        return None
    for i, (a, b) in enumerate(zip(wu, wv)):
        if a != b:
            return i
    return None


def vc_of_hop(topo: Topology, u: int, v: int, hop: int, num_vcs: int) -> int:
    """Deterministic VC assignment for hop ``hop`` (0-based) over ``(u, v)``.

    On word-addressed topologies the VC follows the router's dimension
    order -- the flipped bit position modulo ``num_vcs`` -- so
    dimension-ordered routing visits VCs in a fixed total order and its
    extended channel-dependency graph stays acyclic.  Elsewhere the hop
    index stands in for the dimension.
    """
    if num_vcs == 1:
        return 0
    dim = link_dimension(topo, u, v)
    return (hop if dim is None else dim) % num_vcs


def _integer_array(values, what: str) -> np.ndarray:
    """``values`` (an array, a sequence or one scalar) as int64, for run
    inputs that must be integers: floats, bools and strings raise
    :class:`ValueError` instead of being truncated.  Judged by the
    array's dtype, so an empty sequence passes."""
    if not isinstance(values, np.ndarray) and not np.isscalar(values):
        values = list(values)
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and (arr.size or not arr.ndim):
        raise ValueError(f"{what} must be integers, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)


def resolve_flits(
    flits: Union[int, Sequence[int]], num_packets: int
) -> np.ndarray:
    """Per-packet flit counts aligned with the traffic rows as given: one
    integer for every packet, or one per packet."""
    arr = _integer_array(flits, "flit counts")
    if not arr.ndim:
        arr = np.full(num_packets, arr, dtype=np.int64)
    elif arr.shape != (num_packets,):
        raise ValueError(
            f"flits sequence has {arr.size} entries for "
            f"{num_packets} traffic triples"
        )
    if arr.size and int(arr.min()) < 1:
        raise ValueError("every packet needs at least 1 flit")
    return arr


class FlowOutcome(NamedTuple):
    """Raw outcome of a flow-controlled cycle loop (one per engine run);
    the simulator layer turns it into a :class:`SimResult`."""

    cycles: int
    delivered_at: np.ndarray  # per routed packet, -1 when undelivered
    max_queue: int
    dropped_in_flight: int
    stalled: int
    deadlocked: bool


def _validate_vct(flow: FlowControl, nf: np.ndarray) -> None:
    if flow.switching == "vct" and nf.size:
        biggest = int(nf.max())
        if biggest > flow.buffer_depth:
            raise ValueError(
                "virtual cut-through needs buffers that fit whole packets: "
                f"largest packet is {biggest} flits, buffer_depth is "
                f"{flow.buffer_depth}"
            )


# ---------------------------------------------------------------------------
# Reference engine: the per-packet executable specification
# ---------------------------------------------------------------------------


def reference_flow_run(
    topo: Topology,
    flow: FlowControl,
    routes: List[List[int]],
    inject: List[int],
    nf_list: List[int],
    link_dead: Dict[Tuple[int, int], int],
    max_cycles: int,
) -> FlowOutcome:
    """Run the wormhole/VCT cycle loop over resolved routes (the spec).

    ``routes[p]`` is the node sequence of packet ``p`` (packets are in
    injection order), ``nf_list[p]`` its flit count.  Plain dicts and
    lists throughout -- this function *is* the semantics; the array
    engine must reproduce it bit for bit.
    """
    num = len(routes)
    nf = np.asarray(nf_list, dtype=np.int64)
    _validate_vct(flow, nf)
    V, B = flow.num_vcs, flow.buffer_depth
    k = [len(r) - 1 for r in routes]
    # ext channel of hop i (1-based): (u, v, vc)
    exts: List[List[Tuple[int, int, int]]] = []
    for p, route in enumerate(routes):
        exts.append(
            [
                (u, v, vc_of_hop(topo, u, v, h, V))
                for h, (u, v) in enumerate(zip(route, route[1:]))
            ]
        )

    head = [0] * num          # 0 = at source, i = in channel i, k+1 = exited
    srcf = [int(f) for f in nf]   # flits still at the source
    tailb = [0] * num         # hop of the rearmost in-network flit
    delivered_at = np.full(num, -1, dtype=np.int64)

    holder: Dict[Tuple[int, int, int], int] = {}
    occ: Dict[Tuple[int, int, int], int] = {}
    hopb: Dict[Tuple[int, int, int], int] = {}

    injecting: List[int] = []
    next_pid = 0
    delivered_n = 0
    dropped_n = 0
    max_queue = 0
    last_busy = -1
    deadlocked = False
    cycle = 0
    work_left = True
    while cycle < max_cycles:
        moved = False
        # 1. dying links take down every packet holding one of their buffers
        if link_dead:
            victims = sorted(
                {
                    p
                    for (u, v, _), p in holder.items()
                    if link_dead.get((u, v), _NEVER) <= cycle
                }
            )
            if victims:
                vset = set(victims)
                for ext in [e for e, p in holder.items() if p in vset]:
                    del holder[ext], occ[ext], hopb[ext]
                for p in victims:
                    srcf[p] = 0
                dropped_n += len(victims)
                moved = True
        # 2. arrivals whose injection cycle has come
        while next_pid < num and inject[next_pid] <= cycle:
            p = next_pid
            next_pid += 1
            if k[p] == 0:
                delivered_at[p] = inject[p]
                delivered_n += 1
                moved = True
            else:
                injecting.append(p)
        injecting = [p for p in injecting if srcf[p] > 0]
        # 3. network candidates: per physical link, the movable front flit
        #    of the occupied VC whose holder is oldest (smallest pid)
        by_phys: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
        for ext, p in holder.items():
            if occ[ext] > 0:
                by_phys.setdefault(ext[:2], []).append(ext)
        net_moves = []  # (pid, ext, hop, is_head, is_last, is_tail, to_ext)
        for bufs in by_phys.values():
            best = None
            for ext in bufs:
                p = holder[ext]
                i = hopb[ext]
                is_head = head[p] == i
                is_last = i == k[p]
                to = None if is_last else exts[p][i]
                if is_last:
                    ok = True
                elif is_head:
                    ok = to not in holder
                else:
                    ok = occ.get(to, 0) < B
                if ok and (best is None or p < best[0]):
                    is_tail = srcf[p] == 0 and tailb[p] == i and occ[ext] == 1
                    best = (p, ext, i, is_head, is_last, is_tail, to)
            if best is not None:
                net_moves.append(best)
        # 4. injection candidates: one flit per waiting packet, pid order
        inj_moves = []  # (pid, first_ext, is_head_injection)
        for p in injecting:
            e1 = exts[p][0]
            if head[p] == 0:
                if e1 not in holder:
                    inj_moves.append((p, e1, True))
            elif occ.get(e1, 0) < B:
                inj_moves.append((p, e1, False))
        # 5. head flits claiming the same free buffer: smallest pid wins
        claims: Dict[Tuple[int, int, int], int] = {}
        for p, _, _, is_head, is_last, _, to in net_moves:
            if is_head and not is_last:
                claims[to] = min(claims.get(to, p), p)
        for p, e1, is_head in inj_moves:
            if is_head:
                claims[e1] = min(claims.get(e1, p), p)
        net_moves = [
            m
            for m in net_moves
            if not (m[3] and not m[4]) or claims[m[6]] == m[0]
        ]
        inj_moves = [m for m in inj_moves if not m[2] or claims[m[1]] == m[0]]
        # 6. apply every surviving move simultaneously
        recv = []
        for p, ext, i, is_head, is_last, is_tail, to in net_moves:
            occ[ext] -= 1
            if is_tail:
                del holder[ext], occ[ext], hopb[ext]
                if not is_last:
                    tailb[p] = i + 1
            if is_head:
                if is_last:
                    head[p] = k[p] + 1
                else:
                    holder[to] = p
                    occ[to] = occ.get(to, 0) + 1
                    hopb[to] = i + 1
                    head[p] = i + 1
                    recv.append(to)
            elif not is_last:
                occ[to] += 1
                recv.append(to)
            if is_last and is_tail:
                delivered_at[p] = cycle + 1
                delivered_n += 1
            moved = True
        for p, e1, is_head in inj_moves:
            srcf[p] -= 1
            if is_head:
                holder[e1] = p
                occ[e1] = occ.get(e1, 0) + 1
                hopb[e1] = 1
                head[p] = 1
            else:
                occ[e1] += 1
            if srcf[p] == 0:
                tailb[p] = 1
            recv.append(e1)
            moved = True
        for ext in recv:
            if occ.get(ext, 0) > max_queue:
                max_queue = occ[ext]
        # 7. advance time -- or jump to the next event, or stop
        if moved:
            last_busy = cycle
            cycle += 1
            continue
        live = next_pid - delivered_n - dropped_n
        if live == 0:
            if next_pid < num:
                cycle = min(inject[next_pid], max_cycles)
                continue
            work_left = False
            break
        events = []
        if next_pid < num:
            events.append(inject[next_pid])
        events.extend(c for c in link_dead.values() if c > cycle)
        if events:
            cycle = min(min(events), max_cycles)
            continue
        deadlocked = True
        break
    stalled = num - delivered_n - dropped_n
    if deadlocked or not (work_left and stalled):
        cycles = max(last_busy + 1, 1)
    else:
        cycles = max(max_cycles, 1)
    return FlowOutcome(
        cycles=cycles,
        delivered_at=delivered_at,
        max_queue=max_queue,
        dropped_in_flight=dropped_n,
        stalled=stalled,
        deadlocked=deadlocked,
    )

