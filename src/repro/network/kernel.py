"""The fused advance kernel: K replications, one engine per switching mode.

One parameterised kernel advances K independent replications -- any mix
of switching modes.  It is the only array cycle loop in the repository:
``VectorizedSimulator.run_batch`` prepares a batch and hands it here,
and a solo ``VectorizedSimulator.run`` is simply a one-item batch
(``K = 1``).  The runs split by discipline into at most two mode
engines -- store-and-forward and finite-buffer flow control -- and the
engine protocol is one call, ``run(max_cycles)``, returning one
:class:`~repro.network.flowcontrol.FlowOutcome` per run: each engine
advances its own runs on its own clock.

Layout (built once, for both engines, by their base class ``_Engine``):

- a **channel** is one (link, virtual channel) buffer, and
  store-and-forward is the one-VC case: its channels are simply its
  links, so both engines -- and the C engines behind them -- address
  one set of arrays (``ext_seq``, ``gfirst``, ``ext_base``,
  ``run_of_ext``, ``dead_at_ext``, the ``*_r`` per-run accounting);
- routes arrive as **link ids** (a directed link's CSR slot in
  :meth:`~repro.network.topology.Topology.neighbours`), decoded once
  per route table by ``simulator._prepare``; :func:`run_fused` checks
  they lie in ``[0, 2 * num_links)``.  Every replication owns a
  **disjoint id space** -- run ``k``'s channels ``link * V + vc`` live
  in ``[ext_base[k], ext_base[k+1])``, a block of ``2 * num_links * V``
  -- so shared FIFO / buffer arrays can never leak packets, credits or
  VC allocations between runs, while runs sharing a link-id array and
  VC count share one copy of its channel sequence;
- packets are renumbered globally by ``(inject_cycle, run, local pid)``,
  a stable sort that preserves each run's internal packet order, so
  every FIFO tie-break, link arbitration ("oldest packet wins the
  link") and VC claim ("smallest pid wins the free buffer") resolves
  exactly as it does in a solo run: those comparisons only ever happen
  between packets of one run, whose relative order the sort preserves;
- per-run accounting (arrivals, deliveries, in-flight drops, buffer
  occupancy high-water marks, last-busy cycles, credit-stall /
  deadlock state) lives in length-K arrays updated with grouped
  scatter-adds;
- per-run flow-control configuration is materialised as per-channel
  arrays (``cap_ext`` carries each run's ``buffer_depth``, the extended
  channel layout carries its ``num_vcs``), so wormhole and vct runs of
  different shapes co-batch freely;
- **deadlock** is detected per run, with the reference engine's exact
  predicate (no move, live packets, no pending injection, no future
  fault event): a deadlocked run is frozen, its buffers recycled, and
  the survivors keep advancing;
- an engine's clock only jumps an idle gap when *every* run of that
  engine is quiescent, which changes nothing: an idle run's state is
  untouched by cycles it sits through, injections are processed at
  exactly their injection cycle in either regime, and all per-run
  accounting advances only on the run's own activity.  Runs never
  interact, so no clock is shared between the two engines either.

Every outcome is **bit-identical** to the same replication run alone
(and to :class:`~repro.network.simulator.ReferenceSimulator`) -- fault
plans, in-flight drops, deadlock detection and cycle-cap truncation
included -- which ``tests/network/test_batch_equivalence.py`` and the
differential-fuzz batch pass enforce across all switching modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.faults import _NEVER
from repro.network.flowcontrol import FlowControl, FlowOutcome, _validate_vct
from repro.network.topology import Topology

__all__ = [
    "KernelRun",
    "run_fused",
]


@dataclass
class KernelRun:
    """One prepared replication, in the kernel's native array form.

    ``inject`` is stable-sorted ascending; packet ``p`` follows route
    ``row[p]`` in ``nhops[p]`` hops, route ``r`` being the kernel
    topology's link ids ``links[link_offsets[r] : link_offsets[r + 1]]``
    (:meth:`~repro.network.topology.Topology.link_ids`).  ``nf``
    carries per-packet flit counts aligned with the sorted packets (all
    ones under store-and-forward).  Runs that share routes should pass
    the *same* ``links`` array: the kernel shares its channel sequences.
    ``link_dead`` maps directed links ``(u, v)`` to the first cycle they
    stop forwarding.
    """

    flow: FlowControl
    inject: np.ndarray
    nhops: np.ndarray
    links: np.ndarray
    link_offsets: np.ndarray
    row: np.ndarray
    nf: np.ndarray
    link_dead: Dict[Tuple[int, int], int] = field(default_factory=dict)


def _fifo_append(
    succ: np.ndarray,
    qhead: np.ndarray,
    qtail: np.ndarray,
    qlen: np.ndarray,
    pids: np.ndarray,
    links: np.ndarray,
) -> None:
    """Append packets to per-link FIFOs stored as intrusive linked lists
    (``qhead``/``qtail``/``qlen`` per link, a ``succ`` pointer per
    packet); arrival order within one call is ``(link, pid)``.

    This *is* the store-and-forward queue discipline every caller of the
    kernel relies on -- one implementation, so the tie-break can never
    drift between solo and batched runs.
    """
    order = np.lexsort((pids, links))
    p, ln = pids[order], links[order]
    boundary = np.ones(p.size, dtype=bool)
    boundary[1:] = ln[1:] != ln[:-1]
    succ[p] = -1
    inner = ~boundary[1:]
    succ[p[:-1][inner]] = p[1:][inner]
    glinks = ln[boundary]
    gheads = p[boundary]
    gtails = p[np.concatenate((boundary[1:], [True]))]
    starts = np.flatnonzero(boundary)
    gsizes = np.diff(np.concatenate((starts, [p.size])))
    was_empty = qhead[glinks] == -1
    qhead[glinks[was_empty]] = gheads[was_empty]
    succ[qtail[glinks[~was_empty]]] = gheads[~was_empty]
    qtail[glinks] = gtails
    qlen[glinks] += gsizes


def _ext_channels(
    topo: Topology,
    link_seq: np.ndarray,
    link_offsets: np.ndarray,
    num_vcs: int,
) -> np.ndarray:
    """Per-route-step extended-channel ids (``link * V + vc``) of the
    link ids ``link_seq``, rows in CSR form over ``link_offsets``.

    The VC of a hop follows the router's dimension order where both ends
    have word addresses (the flipped bit position modulo ``V``) and the
    hop index elsewhere -- exactly
    :func:`repro.network.flowcontrol.vc_of_hop`, in array form: a
    link's dimension, cached on the topology for every link, is the
    leftmost bit where its ends' codes (:meth:`Topology.address_book`)
    differ, ``-1`` where an end has none.
    """
    if num_vcs == 1:
        return link_seq

    def link_dims() -> np.ndarray:
        codes = np.asarray(topo.address_book()[0], dtype=np.int64)
        u, v = np.divmod(topo.link_codes(), topo.num_nodes)
        d = topo.word_length or 0
        # d minus the bit length of the XOR: searchsorted counts the powers <= it
        powers = np.int64(1) << np.arange(d, dtype=np.int64)
        dims = d - np.searchsorted(powers, codes[u] ^ codes[v], side="right")
        return np.where((codes[u] >= 0) & (codes[v] >= 0), dims, -1)

    per_link = topo.memo("link_dims", link_dims)
    dims = per_link[link_seq]
    if per_link.min(initial=0) < 0:  # where an end has no word address, the hop index
        hop = np.arange(link_seq.size, dtype=np.int64) - np.repeat(
            link_offsets[:-1], np.diff(link_offsets)
        )
        dims = np.where(dims >= 0, dims, hop)
    return link_seq * num_vcs + dims % num_vcs


def run_fused(
    topo: Topology,
    runs: Sequence[KernelRun],
    max_cycles: int = 100000,
    backend=None,
) -> List[FlowOutcome]:
    """Advance every run; one outcome per run, in run order.

    Runs partition by discipline into at most two mode engines (the
    store-and-forward FIFO engine and the finite-buffer flow-control
    engine), both of the *backend* named (:mod:`repro.network.backends`:
    ``"numpy"``, ``"native"``, ``"auto"``, or ``None`` for
    ``$REPRO_BACKEND`` / ``auto``).  Each engine's ``run(max_cycles)``
    advances its own runs on its own clock -- the sf engine first, then
    the flow engine -- and the outcomes scatter back into run order.
    Runs never interact and idle cycles are no-ops for a run by
    construction, so each outcome is bit-identical to the run advancing
    alone -- on every backend.  A link id outside ``[0, 2 * num_links)``
    raises :class:`ValueError` before any engine runs.
    """
    from repro.network.backends import engines

    sf_engine, flow_engine = engines(backend)
    num_ids = 2 * topo.num_links
    for links in {id(r.links): r.links for r in runs}.values():
        if links.size and not 0 <= links.min() <= links.max() < num_ids:
            raise ValueError(f"a route names a link id outside 0..{num_ids - 1}")
    for run in runs:
        if run.flow.pipelined:
            _validate_vct(run.flow, run.nf)
    results: List[Optional[FlowOutcome]] = [None] * len(runs)
    for pipelined, engine in ((False, sf_engine), (True, flow_engine)):
        idx = [i for i, r in enumerate(runs) if r.flow.pipelined == pipelined]
        if idx:
            outs = engine(topo, [runs[i] for i in idx]).run(max_cycles)
            for i, out in zip(idx, outs):
                results[i] = out
    return results  # type: ignore[return-value]


def _clock(
    step: Callable[[int], bool],
    next_event: Callable[[int], Optional[int]],
    max_cycles: int,
) -> None:
    """The NumPy engines' one clock loop: advance one cycle after any
    movement, jump to the engine's next event when it is quiescent, and
    stop when there is no next event or the cap is reached.  (The C
    kernels' ``repro_sf_run`` and ``repro_flow_run`` are this same
    loop.)"""
    cycle = 0
    while cycle < max_cycles:
        if step(cycle):
            cycle += 1
            continue
        event = next_event(cycle)
        if event is None:
            break
        cycle = min(event, max_cycles)


# ---------------------------------------------------------------------------
# The batch layout both mode engines share
# ---------------------------------------------------------------------------


class _Engine:
    """K runs of one switching mode, laid out once for both modes.

    A channel is one (link, VC) buffer, and store-and-forward is the
    one-VC case: :func:`_ext_channels` with ``num_vcs=1`` returns the
    link sequence itself, so an sf channel is simply a link.  The
    constructor builds the layout -- disjoint per-run channel id
    spaces, one channel sequence per (link-id array, VC count), the
    global pid order, per-channel fault cycles and the
    per-run accounting arrays -- then hands the subclass the pid
    permutation for its mode state (``_init_state``).
    :meth:`run` advances the subclass's ``_step`` / ``_next_event`` on
    the engine's own clock (:func:`_clock`) and condenses one outcome
    per run.
    """

    def __init__(self, topo: Topology, runs: Sequence[KernelRun]):
        n = topo.num_nodes
        num_directed = 2 * topo.num_links
        K = len(runs)
        self.K = K
        vcs = [r.flow.num_vcs if r.flow.pipelined else 1 for r in runs]
        # runs sharing a link-id array and a VC count share one copy of
        # its channel sequence: see _channel
        seq_parts: List[np.ndarray] = []
        seq_base_of: Dict[Tuple[int, int], int] = {}
        seq_base = 0
        firsts: List[np.ndarray] = []
        for r, V in zip(runs, vcs):
            key = (id(r.links), V)
            if key not in seq_base_of:
                seq_base_of[key] = seq_base
                seq_parts.append(_ext_channels(topo, r.links, r.link_offsets, V))
                seq_base += r.links.size
            firsts.append(r.link_offsets[r.row] + seq_base_of[key])
        self.ext_seq = np.concatenate(seq_parts)
        self.ext_base = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(np.asarray(vcs, dtype=np.int64) * num_directed, out=self.ext_base[1:])
        self.run_of_ext = np.repeat(
            np.arange(K, dtype=np.int64), np.diff(self.ext_base)
        )
        self.dead_at_ext = None
        if any(r.link_dead for r in runs):
            # every (link, VC) buffer of a dying link dies with it
            self.dead_at_ext = np.full(int(self.ext_base[-1]), _NEVER, dtype=np.int64)
            for j, (r, V) in enumerate(zip(runs, vcs)):
                if r.link_dead:
                    u, v = np.asarray(list(r.link_dead), dtype=np.int64).T
                    dead = np.full(num_directed, _NEVER, dtype=np.int64)
                    dead[topo.link_ids(u * n + v)] = list(r.link_dead.values())
                    self.dead_at_ext[self.ext_base[j]:self.ext_base[j + 1]] = np.repeat(dead, V)

        # global packet order: stable sort by injection cycle over the
        # run-major concatenation = (inject, run, local pid), so each
        # run's internal order -- and every tie-break -- survives
        self.inject = np.concatenate([r.inject for r in runs])
        order = np.argsort(self.inject, kind="stable")
        self.inject = self.inject[order]
        self.nhops = np.concatenate([r.nhops for r in runs])[order]
        self.gfirst = np.concatenate(firsts)[order]
        self.run_of = np.repeat(
            np.arange(K, dtype=np.int64), [r.inject.size for r in runs]
        )[order]
        self.num = int(self.inject.size)
        self.totals = np.bincount(self.run_of, minlength=K)
        self.delivered_at = np.full(self.num, -1, dtype=np.int64)
        self.next_pid = 0
        # per-run accounting (the reference loops' scalars, as arrays)
        self.dropped_r = np.zeros(K, dtype=np.int64)
        self.maxq_r = np.zeros(K, dtype=np.int64)
        self.last_busy_r = np.full(K, -1, dtype=np.int64)
        self.deadlocked_r = np.zeros(K, dtype=bool)
        self._init_state(runs, order)

    def _init_state(self, runs: Sequence[KernelRun], order: np.ndarray) -> None:
        raise NotImplementedError

    def _step(self, cycle: int) -> bool:
        raise NotImplementedError

    def _next_event(self, cycle: int) -> Optional[int]:
        raise NotImplementedError

    def _channel(self, pids: np.ndarray, hops) -> np.ndarray:
        """The global channel of hop ``hops`` (0-based) of each packet."""
        return (self.ext_seq[self.gfirst[pids] + hops]
                + self.ext_base[self.run_of[pids]])

    def run(self, max_cycles: int) -> List[FlowOutcome]:
        _clock(self._step, self._next_event, max_cycles)
        return self._outcomes(max_cycles)

    def _outcomes(self, max_cycles: int) -> List[FlowOutcome]:
        # a run's packets in ascending global pid order are exactly its
        # packets in injection order
        by_run = np.split(
            np.argsort(self.run_of, kind="stable"), np.cumsum(self.totals)[:-1]
        )
        outs = []
        for j, pids in enumerate(by_run):
            d = self.delivered_at[pids]
            dropped = int(self.dropped_r[j])
            stalled = int(pids.size) - int((d >= 0).sum()) - dropped
            # a run frozen by deadlock, or with nothing left pending,
            # ended at its own last busy cycle (an empty run: cycle 1);
            # anything else still stuck means the cap cut it off
            if self.deadlocked_r[j] or stalled == 0:
                cycles = max(int(self.last_busy_r[j]) + 1, 1)
            else:
                cycles = max(max_cycles, 1)
            outs.append(FlowOutcome(
                cycles=cycles,
                delivered_at=d,
                max_queue=int(self.maxq_r[j]),
                dropped_in_flight=dropped,
                stalled=stalled,
                deadlocked=bool(self.deadlocked_r[j]),
            ))
        return outs


# ---------------------------------------------------------------------------
# Store-and-forward mode engine: intrusive per-link FIFOs, K runs
# ---------------------------------------------------------------------------


class _SfEngine(_Engine):
    """K store-and-forward runs over shared flat FIFO arrays, one FIFO
    per channel (= link)."""

    def _init_state(self, runs: Sequence[KernelRun], order: np.ndarray) -> None:
        num_links = int(self.ext_base[-1])
        self.pos = np.zeros(self.num, dtype=np.int64)
        self.succ = np.full(self.num, -1, dtype=np.int64)
        self.qhead = np.full(num_links, -1, dtype=np.int64)
        self.qtail = np.full(num_links, -1, dtype=np.int64)
        self.qlen = np.zeros(num_links, dtype=np.int64)
        self.in_flight_r = np.zeros(self.K, dtype=np.int64)
        self.in_flight = 0

    def _step(self, cycle: int) -> bool:
        moved = False
        # inject every packet whose cycle has come
        if self.next_pid < self.num and self.inject[self.next_pid] <= cycle:
            hi = int(np.searchsorted(self.inject, cycle, side="right"))
            fresh = np.arange(self.next_pid, hi, dtype=np.int64)
            self.next_pid = hi
            zero_hop = fresh[self.nhops[fresh] == 0]
            self.delivered_at[zero_hop] = self.inject[zero_hop]
            moving_fresh = fresh[self.nhops[fresh] > 0]
            if moving_fresh.size:
                _fifo_append(self.succ, self.qhead, self.qtail, self.qlen,
                             moving_fresh, self._channel(moving_fresh, 0))
                self.in_flight_r += np.bincount(
                    self.run_of[moving_fresh], minlength=self.K
                )
                self.in_flight += int(moving_fresh.size)
            # injecting marks the run busy this cycle, zero-hop included
            self.last_busy_r[np.unique(self.run_of[fresh])] = cycle
            moved = True
        if self.in_flight:
            # a run with packets in flight is busy this cycle even if a
            # fault empties it below (matches the reference engine)
            self.last_busy_r[self.in_flight_r > 0] = cycle
            busy = np.flatnonzero(self.qlen)
            # queue depth per run, measured before any fault drop
            np.maximum.at(self.maxq_r, self.run_of_ext[busy], self.qlen[busy])
            if self.dead_at_ext is not None:
                alive = self.dead_at_ext[busy] > cycle
                if not alive.all():
                    slain = busy[~alive]
                    lost = self.qlen[slain]
                    np.add.at(self.dropped_r, self.run_of_ext[slain], lost)
                    np.subtract.at(
                        self.in_flight_r, self.run_of_ext[slain], lost
                    )
                    self.in_flight -= int(lost.sum())
                    self.qhead[slain] = -1
                    self.qtail[slain] = -1
                    self.qlen[slain] = 0
                    busy = busy[alive]
            served = self.qhead[busy]
            self.qhead[busy] = self.succ[served]
            self.qlen[busy] -= 1
            self.pos[served] += 1
            finished = self.pos[served] == self.nhops[served]
            done = served[finished]
            moving = served[~finished]
            self.delivered_at[done] = cycle + 1
            if done.size:
                self.in_flight_r -= np.bincount(
                    self.run_of[done], minlength=self.K
                )
                self.in_flight -= int(done.size)
            if moving.size:
                _fifo_append(
                    self.succ, self.qhead, self.qtail, self.qlen, moving,
                    self._channel(moving, self.pos[moving]),
                )
            moved = True
        return moved

    def _next_event(self, cycle: int) -> Optional[int]:
        # store-and-forward always progresses while anything is queued,
        # so the only thing worth waking for is the next injection
        if self.next_pid < self.num:
            return int(self.inject[self.next_pid])
        return None


# ---------------------------------------------------------------------------
# Flow-control mode engine: finite (link x VC) buffers, K runs
# ---------------------------------------------------------------------------


class _FlowEngine(_Engine):
    """K wormhole / virtual-cut-through runs over shared buffer arrays.

    The per-cycle body applies
    :func:`~repro.network.flowcontrol.reference_flow_run`'s rules in
    array form with run-indexed accounting: per-run buffer capacities
    live in ``cap_ext``, physical-link arbitration resolves through
    ``phys_of_ext`` (VC counts differ per run, so ids cannot simply
    divide by V), and the reference loop's scalar bookkeeping
    (arrivals, deliveries, drops, the deadlock verdict) becomes length-K
    arrays.  A run that deadlocks is frozen exactly where the reference
    engine would have stopped it -- same predicate, same cycle -- and
    its buffers are recycled so the surviving runs pay nothing for it.
    """

    def _init_state(self, runs: Sequence[KernelRun], order: np.ndarray) -> None:
        K, num_ext = self.K, int(self.ext_base[-1])
        run = self.run_of_ext
        vcs = np.asarray([r.flow.num_vcs for r in runs], dtype=np.int64)
        link_base = np.zeros(K + 1, dtype=np.int64)
        np.cumsum(np.diff(self.ext_base) // vcs, out=link_base[1:])
        self.num_links = int(link_base[-1])
        self.phys_of_ext = link_base[run] + (
            np.arange(num_ext, dtype=np.int64) - self.ext_base[run]
        ) // vcs[run]
        self.cap_ext = np.asarray(
            [r.flow.buffer_depth for r in runs], dtype=np.int64
        )[run]
        # every death cycle schedules a wake-up event (max_death), on a
        # link some route uses or not
        self.death_cycles = [
            np.asarray(sorted(set(r.link_dead.values())), dtype=np.int64)
            for r in runs
        ]
        self.max_death = np.asarray(
            [int(dc[-1]) if dc.size else -1 for dc in self.death_cycles],
            dtype=np.int64,
        )

        self.holder = np.full(num_ext, -1, dtype=np.int64)
        self.occ = np.zeros(num_ext, dtype=np.int64)
        self.hopb = np.zeros(num_ext, dtype=np.int64)
        self.head = np.zeros(self.num, dtype=np.int64)
        self.srcf = np.concatenate([r.nf for r in runs])[order].astype(np.int64)
        self.tailb = np.zeros(self.num, dtype=np.int64)
        self.injecting = np.empty(0, dtype=np.int64)
        self.arrived = np.zeros(K, dtype=np.int64)
        self.delivered_r = np.zeros(K, dtype=np.int64)
        self.active = np.ones(K, dtype=bool)

    def _step(self, cycle: int) -> bool:
        if not self.active.any():
            return False
        K = self.K
        moved_r = np.zeros(K, dtype=bool)
        # 1. dying links take down every packet holding one of their
        #    buffers -- the whole packet, wherever its other flits sit
        if self.dead_at_ext is not None:
            held = self.holder >= 0
            slain = held & (self.dead_at_ext <= cycle)
            if slain.any():
                victims = np.unique(self.holder[slain])
                victim_bufs = held & np.isin(self.holder, victims)
                self.holder[victim_bufs] = -1
                self.occ[victim_bufs] = 0
                self.srcf[victims] = 0
                vruns = self.run_of[victims]
                self.dropped_r += np.bincount(vruns, minlength=K)
                moved_r[vruns] = True
        # 2. arrivals whose injection cycle has come
        if self.next_pid < self.num and self.inject[self.next_pid] <= cycle:
            hi = int(np.searchsorted(self.inject, cycle, side="right"))
            fresh = np.arange(self.next_pid, hi, dtype=np.int64)
            self.next_pid = hi
            self.arrived += np.bincount(self.run_of[fresh], minlength=K)
            zero_hop = fresh[self.nhops[fresh] == 0]
            if zero_hop.size:
                self.delivered_at[zero_hop] = self.inject[zero_hop]
                self.delivered_r += np.bincount(
                    self.run_of[zero_hop], minlength=K
                )
                moved_r[self.run_of[zero_hop]] = True
            self.injecting = np.concatenate(
                (self.injecting, fresh[self.nhops[fresh] > 0])
            )
        if self.injecting.size:
            self.injecting = self.injecting[self.srcf[self.injecting] > 0]
        # 3. network candidates: per physical link, the movable front
        #    flit of the occupied VC whose holder is oldest (smallest
        #    pid); all reads against start-of-cycle state
        e_idx = np.flatnonzero(self.occ > 0)
        me = mp = mi = mhead = mlast = mtail = mto = None
        if e_idx.size:
            p = self.holder[e_idx]
            i = self.hopb[e_idx]
            is_last = i == self.nhops[p]
            is_head = self.head[p] == i
            to = np.full(e_idx.size, -1, dtype=np.int64)
            nl = ~is_last
            to[nl] = self._channel(p[nl], i[nl])
            down_ok = np.zeros(e_idx.size, dtype=bool)
            down_ok[nl] = np.where(
                is_head[nl],
                self.holder[to[nl]] == -1,
                self.occ[to[nl]] < self.cap_ext[to[nl]],
            )
            movable = is_last | down_ok
            cand = np.flatnonzero(movable)
            if cand.size:
                # one flit per physical link: oldest holder wins; VC
                # counts differ per run, so resolve through phys_of_ext
                phys = self.phys_of_ext[e_idx[cand]]
                order = np.lexsort((p[cand], phys))
                cand = cand[order]
                first = np.ones(cand.size, dtype=bool)
                first[1:] = phys[order][1:] != phys[order][:-1]
                sel = cand[first]
                me = e_idx[sel]
                mp = p[sel]
                mi = i[sel]
                mhead = is_head[sel]
                mlast = is_last[sel]
                mto = to[sel]
                mtail = (
                    (self.srcf[mp] == 0)
                    & (self.tailb[mp] == mi)
                    & (self.occ[me] == 1)
                )
        # 4. injection candidates: one flit per waiting packet
        ip = ie = ih = None
        if self.injecting.size:
            e1 = self._channel(self.injecting, 0)
            is_head_inj = self.head[self.injecting] == 0
            ok = np.where(
                is_head_inj,
                self.holder[e1] == -1,
                self.occ[e1] < self.cap_ext[e1],
            )
            ip = self.injecting[ok]
            ie = e1[ok]
            ih = is_head_inj[ok]
        # 5. head flits claiming the same free buffer: smallest pid wins
        net_claim = me is not None and bool((mhead & ~mlast).any())
        inj_claim = ip is not None and bool(ih.any())
        if net_claim or inj_claim:
            parts_t, parts_p = [], []
            if net_claim:
                nc = mhead & ~mlast
                parts_t.append(mto[nc])
                parts_p.append(mp[nc])
            if inj_claim:
                parts_t.append(ie[ih])
                parts_p.append(ip[ih])
            ct = np.concatenate(parts_t)
            cp = np.concatenate(parts_p)
            order = np.lexsort((cp, ct))
            first = np.ones(ct.size, dtype=bool)
            first[1:] = ct[order][1:] != ct[order][:-1]
            win_t = ct[order][first]  # sorted unique claim targets ...
            win_p = cp[order][first]  # ... and their smallest-pid winners

            def won(targets: np.ndarray, pids: np.ndarray) -> np.ndarray:
                at = np.minimum(
                    np.searchsorted(win_t, targets), win_t.size - 1
                )
                return (win_t[at] == targets) & (win_p[at] == pids)

            if net_claim:
                # non-claim moves (body flits, exits) target held buffers
                # or -1, never a claimed free buffer: they always survive
                keep = ~(mhead & ~mlast) | won(mto, mp)
                me, mp, mi = me[keep], mp[keep], mi[keep]
                mhead, mlast, mtail, mto = (
                    mhead[keep], mlast[keep], mtail[keep], mto[keep]
                )
            if inj_claim:
                keep = ~ih | won(ie, ip)
                ip, ie, ih = ip[keep], ie[keep], ih[keep]
        # 6. apply every surviving move simultaneously
        recv_parts = []
        if me is not None and me.size:
            self.occ[me] -= 1
            rel = me[mtail]
            self.holder[rel] = -1
            adv_tail = mtail & ~mlast
            self.tailb[mp[adv_tail]] = mi[adv_tail] + 1
            adv = mhead & ~mlast
            self.holder[mto[adv]] = mp[adv]
            self.hopb[mto[adv]] = mi[adv] + 1
            self.head[mp[adv]] = mi[adv] + 1
            exit_head = mhead & mlast
            self.head[mp[exit_head]] = self.nhops[mp[exit_head]] + 1
            fwd = mto[~mlast]
            self.occ[fwd] += 1
            done = mp[mlast & mtail]
            self.delivered_at[done] = cycle + 1
            if done.size:
                self.delivered_r += np.bincount(
                    self.run_of[done], minlength=K
                )
            recv_parts.append(fwd)
            moved_r[self.run_of[mp]] = True
        if ip is not None and ip.size:
            self.srcf[ip] -= 1
            self.occ[ie] += 1
            self.holder[ie[ih]] = ip[ih]
            self.hopb[ie[ih]] = 1
            self.head[ip[ih]] = 1
            tail_in = ip[self.srcf[ip] == 0]
            self.tailb[tail_in] = 1
            recv_parts.append(ie)
            moved_r[self.run_of[ip]] = True
        if recv_parts:
            recv = np.concatenate(recv_parts)
            if recv.size:
                np.maximum.at(
                    self.maxq_r, self.run_of_ext[recv], self.occ[recv]
                )
        # 7. per-run verdicts: retire finished runs, convict deadlocks
        any_moved = bool(moved_r.any())
        if any_moved:
            self.last_busy_r[moved_r] = cycle
        live = self.arrived - self.delivered_r - self.dropped_r
        pending = self.arrived < self.totals
        finished = self.active & (live == 0) & ~pending
        if finished.any():
            self.active[finished] = False
        # the reference engine's deadlock predicate, per run: nothing moved,
        # live packets, and no event (injection or fault) can unblock it
        dead = (
            self.active & ~moved_r & (live > 0) & ~pending
            & (self.max_death <= cycle)
        )
        if dead.any():
            self.deadlocked_r |= dead
            self.active[dead] = False
            doomed = np.isin(self.run_of, np.flatnonzero(dead))
            self.srcf[doomed] = 0
            for j in np.flatnonzero(dead):
                lo, hi = self.ext_base[j], self.ext_base[j + 1]
                self.occ[lo:hi] = 0
                self.holder[lo:hi] = -1
        return any_moved

    def _next_event(self, cycle: int) -> Optional[int]:
        # the next injection anywhere, or the next scheduled fault of a
        # run with flits in flight
        events: List[int] = []
        if self.next_pid < self.num:
            events.append(int(self.inject[self.next_pid]))
        live = self.arrived - self.delivered_r - self.dropped_r
        for j in np.flatnonzero(self.active & (live > 0)):
            dc = self.death_cycles[j]
            if dc.size:
                k = int(np.searchsorted(dc, cycle, side="right"))
                if k < dc.size:
                    events.append(int(dc[k]))
        return min(events, default=None)
