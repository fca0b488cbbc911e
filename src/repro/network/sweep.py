"""Sweep harness: saturation studies over (topology x router x pattern x load).

The 1993-lineage comparisons (and every interconnection paper since) are
latency/throughput *curves*, not single points: offered load rises until
the network saturates, and the shape of the knee is the verdict on the
topology.  This module runs those grids at scale:

- a sweep point is a fully picklable :class:`PointSpec` (topology,
  router and fault plan are *names/specs*, rebuilt inside the worker),
  so grids parallelise across the cores of a process pool;
- every point runs through one path, :func:`run_batch_points`; the
  ``batch`` knob only sets how wide :func:`_pack` cuts its tasks.
  ``batch > 1`` packs points sharing a topology and cycle cap, every
  switching mode and collective points included, into
  :meth:`~repro.network.simulator.VectorizedSimulator.run_batch` runs,
  so K replications advance in *one* fused-kernel call (a pack's
  collectives in one call per round) and share one route-table build;
  an executor distributes whole tasks.  Records are bit-identical
  whatever the packing;
- every grid runs through one cache-first loop, :func:`stream_sweep`:
  cache hits first, then each task's records as it completes, stored
  before they are yielded.  :func:`run_sweep` drains it and the sweep
  service streams it, so the CLI and the server cannot drift apart;
- each point generates seeded traffic from :mod:`repro.network.traffic`,
  runs the vectorized simulator -- under the point's
  :class:`~repro.network.faults.FaultPlan` when one is given -- and
  condenses the run into a flat :class:`SweepRecord` of floats, ready
  for CSV/JSON dumping or for :func:`saturation_curves` to regroup into
  per-scenario load curves;
- :func:`saturation_curves` aggregates the seed axis: every
  (topology, router, pattern, faults, flow, load) cell becomes one
  :class:`CurvePoint` with mean/std over its seeds, so multi-seed grids
  plot as one curve with error bars instead of interleaved replicas;
- the flow-control axes (``switching`` / ``vcs`` / ``buffers`` /
  ``flits``) sweep the wormhole / virtual-cut-through configurations of
  :mod:`repro.network.flowcontrol`, with per-point ``stalled`` /
  ``deadlocked`` columns carrying the deadlock story;
- the ``collectives`` axis runs the *closed-loop* collective workloads
  of :mod:`repro.network.collectives`: a collective point compiles its
  schedule with true per-round barriers (as :func:`run_collective`
  does, the seed selecting the root) instead of generating open-loop
  pattern traffic, and carries ``rounds`` / ``round_bound`` columns; its
  ``pattern`` and ``load`` are normalised (``"-"`` / ``1.0``) so the
  grid never duplicates collective points across those axes.

Offered load is normalised: ``load`` is packets per node per cycle over
the injection window, so ``num_packets = round(load * nodes * window)``
and curves are comparable across topologies of different size.  Under a
fault plan, failed sources stop injecting and the record's ``dropped`` /
``misroutes`` columns carry the degradation story (delivery vs. fault
count is the paper's graceful-degradation curve).

The ``repro sweep`` CLI subcommand is a thin wrapper over
:func:`run_sweep` / :func:`write_csv` / :func:`write_json`.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import Executor, ProcessPoolExecutor, as_completed
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache, partial
from statistics import fmean, pstdev
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analytic.bounds import analytic_saturation_bound
from repro.network.collectives import COLLECTIVES, _run_collectives, round_lower_bound
from repro.network.faults import FaultPlan
from repro.network.flowcontrol import SWITCHING_MODES, FlowControl
from repro.network.routing import (
    AdaptiveRouter,
    BfsRouter,
    CanonicalRouter,
    DimensionOrderRouter,
    GreedyRouter,
)
from repro.network.simulator import (
    BatchItem,
    VectorizedSimulator,
    _validate_max_cycles,
)
from repro.network.topology import Topology, topology_of
from repro.network.traffic import PATTERNS, flit_sizes, make_traffic
from repro.network.workloads import (
    Trace,
    canonical_workload,
    compile_trace,
    compile_workload,
    encode_tenant_column,
)

__all__ = [
    "CurvePoint",
    "PointSpec",
    "ROUTERS",
    "SweepRecord",
    "expand_grid",
    "flow_tag",
    "nearest_rank_p95",
    "normalize_spec",
    "parse_topology",
    "run_batch_points",
    "run_point",
    "run_sweep",
    "saturation_curves",
    "stream_sweep",
    "write_csv",
    "write_json",
]

ROUTERS: Dict[str, Callable[[], object]] = {
    "bfs": BfsRouter,
    "canonical": CanonicalRouter,
    "adaptive": AdaptiveRouter,
    "ecube": DimensionOrderRouter,
    "greedy": GreedyRouter,
}


@lru_cache(maxsize=64)
def parse_topology(spec: str) -> Topology:
    """Build a topology from a compact spec string.

    ``"Q:7"`` (or ``"hypercube:7"``) is the hypercube :math:`Q_7`;
    ``"11:7"`` is the generalized Fibonacci cube :math:`Q_7(11)` --
    any avoided factor works, e.g. ``"101:8"``.  Cached per process
    (LRU, bounded -- a long-running sweep service touching many specs
    must not retain every topology it has ever built), so workers still
    amortise construction across their points.
    """
    name, sep, dim = spec.partition(":")
    if not sep:
        raise ValueError(
            f"bad topology spec {spec!r}: expected 'Q:<d>' or '<factor>:<d>'"
        )
    try:
        d = int(dim)
    except ValueError:
        raise ValueError(f"bad dimension in topology spec {spec!r}") from None
    if name in ("Q", "hypercube"):
        from repro.cubes.hypercube import hypercube

        return topology_of(hypercube(d), name=f"Q_{d}")
    if not name or set(name) - set("01"):
        raise ValueError(
            f"bad topology spec {spec!r}: factor must be a binary word"
        )
    return topology_of((name, d))


def nearest_rank_p95(latencies: Sequence[int]) -> float:
    """Nearest-rank 95th percentile: the ``ceil(0.95 n)``-th smallest value.

    Integer arithmetic, so no float-ceiling artefacts: 20 samples give
    the 19th value, not the maximum (the old ``(95 * n) // 100`` index
    over-shot to the max for every ``n`` not divisible by 20).

    An empty sample is *defined* as ``0.0``: a sweep point that
    delivered nothing (all packets dropped by faults, or an all-dead
    traffic source set) reports zero latency percentiles rather than
    raising mid-grid -- its ``delivered`` / ``delivery_rate`` columns
    carry the real story.

    One ``np.partition`` places that value without sorting the sample.
    """
    n = len(latencies)
    if n == 0:
        return 0.0
    k = (95 * n + 99) // 100 - 1
    lat = np.fromiter(latencies, dtype=np.int64, count=n)
    return float(np.partition(lat, k)[k])


@dataclass(frozen=True)
class PointSpec:
    """One picklable grid point (names and spec strings, not objects).

    ``switching``/``num_vcs``/``buffer_depth``/``flits`` select the
    flow-control configuration; store-and-forward points are normalised
    to ``num_vcs=1, buffer_depth=0, flits="1"`` (unbounded FIFOs,
    single-flit packets) so duplicate grid points collapse.

    A non-empty ``collective`` turns the point into a closed-loop
    collective run (as :func:`run_collective`, the seed picking the root
    and the flit sizes, packed with the other points of its topology);
    ``pattern``/``load``/``inject_window`` are then ignored (and
    normalised to ``"-"``/``1.0`` by :func:`run_sweep` so the grid does
    not replicate the point along those axes).

    A non-empty ``workload`` turns the point into a multi-tenant run
    (:mod:`repro.network.workloads`): an inline tenant spec
    (``"bg:uniform:0.2;fg:broadcast:0.4:2"``) compiles arbitrated
    overlay traffic with ``load`` acting as a load-scale multiplier on
    every tenant (so workload saturation curves sweep exactly like
    pattern curves), while a ``"trace:<key>"`` reference replays a
    recorded trace (resolved through the ``traces`` mapping handed to
    the runners; ``pattern`` and ``load`` are normalised to
    ``"-"``/``1.0``).  ``workload`` and ``collective`` are mutually
    exclusive.
    """

    topology: str
    router: str = "bfs"
    pattern: str = "uniform"
    load: float = 0.2
    seed: int = 0
    inject_window: int = 64
    max_cycles: int = 100000
    faults: str = ""
    switching: str = "sf"
    num_vcs: int = 1
    buffer_depth: int = 0
    flits: str = "1"
    collective: str = ""
    workload: str = ""


@dataclass(frozen=True)
class SweepRecord:
    """Flattened outcome of one sweep point.

    ``collective`` is empty for pattern points; for collective points it
    names the operation and ``rounds``/``round_bound`` hold the schedule
    round count against the single-port ``ceil(log2 n)`` bound (both
    zero for pattern points).  Zero-delivered points (every packet
    dropped, or nothing injected at all) report ``0.0`` latency columns
    by definition -- see :func:`nearest_rank_p95`.  Every column is
    bit-identical whatever the batching: a record describes the point,
    not the run that produced it.

    ``workload`` echoes the point's workload spec (canonicalised inline
    spec or ``trace:<key>``, empty for single-tenant points) and
    ``tenants`` carries the per-tenant accounting as one canonical
    compact-JSON array -- per tenant: injected / delivered / undelivered
    counts, mean and nearest-rank p95 latency -- so the multi-tenant
    story survives flat CSV/JSON dumps and the service wire format
    byte-for-byte.

    ``analytic_bound`` is the topology's uniform-traffic saturation
    bound ``theta*`` from the analytic channel-load model
    (:func:`repro.analytic.bounds.analytic_saturation_bound`), ``0.0``
    when no model applies; it is a property of the topology alone,
    repeated per record so every dump is self-contained for the
    predict-then-verify cross-check.
    """

    topology: str
    router: str
    pattern: str
    collective: str
    workload: str
    load: float
    seed: int
    faults: str
    num_faults: int
    switching: str
    num_vcs: int
    buffer_depth: int
    flits: str
    rounds: int
    round_bound: int
    nodes: int
    injected: int
    delivered: int
    dropped: int
    misroutes: int
    stalled: int
    deadlocked: bool
    cycles: int
    max_queue: int
    avg_latency: float
    p95_latency: float
    max_latency: int
    throughput: float
    delivery_rate: float
    analytic_bound: float = 0.0
    tenants: str = ""


def _resolve_router(name: str) -> Callable[[], object]:
    try:
        return ROUTERS[name]
    except KeyError:
        raise ValueError(
            f"unknown router {name!r}; choose from {sorted(ROUTERS)}"
        ) from None


def _point_plan(spec: PointSpec, topo: Topology) -> Optional[FaultPlan]:
    if not spec.faults:
        return None
    return FaultPlan.parse(spec.faults, num_nodes=topo.num_nodes).validate(topo)


def _point_flow(spec: PointSpec) -> "str | FlowControl":
    if spec.switching != "sf":
        # FlowControl itself rejects unknown modes and bad depths/VCs
        return FlowControl(
            switching=spec.switching,
            buffer_depth=spec.buffer_depth,
            num_vcs=spec.num_vcs,
        )
    return "sf"


def _point_traffic(
    spec: PointSpec, topo: Topology, plan: Optional[FaultPlan]
) -> np.ndarray:
    num_packets = max(1, round(spec.load * topo.num_nodes * spec.inject_window))
    return make_traffic(
        spec.pattern, topo, num_packets, spec.inject_window, seed=spec.seed,
        faults=plan,
    )


def _point_workload(
    spec: PointSpec,
    topo: Topology,
    plan: Optional[FaultPlan],
    traces: Optional[Mapping[str, Trace]],
):
    """Resolve a workload point's traffic: compile the inline tenant
    spec (``spec.load`` scaling every tenant), or replay the referenced
    trace -- validated against the point's topology -- with the fault
    plan applied at replay time.  Returns a
    :class:`~repro.network.workloads.CompiledWorkload`."""
    if spec.workload.startswith("trace:"):
        key = spec.workload[len("trace:"):]
        trace = (traces or {}).get(key)
        if trace is None:
            raise ValueError(
                f"workload {spec.workload!r} references a trace this runner "
                "was not given; pass it via the traces= mapping "
                "(CLI: repro sweep --trace <file>)"
            )
        if trace.topology and parse_topology(trace.topology).name != topo.name:
            raise ValueError(
                f"trace {key!r} was recorded on {trace.topology!r}, not "
                f"{spec.topology!r}; replay traces on their own topology"
            )
        return compile_trace(trace, topo, faults=plan)
    return compile_workload(
        spec.workload, topo, spec.inject_window, seed=spec.seed,
        load_scale=spec.load, faults=plan,
    )


def _point_packets(
    spec: PointSpec,
    topo: Topology,
    plan: Optional[FaultPlan],
    traces: Optional[Mapping[str, Trace]],
):
    """A pattern or workload point's traffic, its per-packet tenant ids
    (``None`` for single-tenant points) and its tenant names."""
    if not spec.workload:
        return _point_traffic(spec, topo, plan), None, ()
    compiled = _point_workload(spec, topo, plan, traces)
    return compiled.traffic, compiled.tenants, compiled.names


def _point_flits(spec: PointSpec, num_packets: int) -> "int | np.ndarray":
    """Per-packet flit counts of a point: seeded sizes under the
    pipelined modes, single flits under store-and-forward."""
    if spec.switching == "sf":
        return 1
    return flit_sizes(num_packets, spec.flits, seed=spec.seed)


def _condense(
    spec: PointSpec,
    topo: Topology,
    plan: Optional[FaultPlan],
    result,
    rounds: int = 0,
    tenant_names: Sequence[str] = (),
) -> SweepRecord:
    """Flatten one simulation outcome of the canonical ``spec`` (see
    :func:`normalize_spec`) into a :class:`SweepRecord` (the single
    condensation path, shared by every runner so batched and unbatched
    records cannot diverge).  ``tenant_names`` labels a workload point's
    tenant ids; the per-tenant stats then land in the ``tenants``
    column, with p95s computed here by the sweep's own
    :func:`nearest_rank_p95` (one percentile definition for the whole
    harness)."""
    tenants_col = ""
    if result.tenant_stats:
        tenants_col = encode_tenant_column(
            tenant_names,
            result.tenant_stats,
            p95={
                ts.tenant: nearest_rank_p95(ts.latencies)
                for ts in result.tenant_stats
            },
        )
    return SweepRecord(
        topology=topo.name,
        router=spec.router,
        pattern=spec.pattern,
        collective=spec.collective,
        workload=spec.workload,
        load=spec.load,
        seed=spec.seed,
        faults=spec.faults,
        num_faults=plan.num_events if plan is not None else 0,
        switching=spec.switching,
        num_vcs=spec.num_vcs,
        buffer_depth=spec.buffer_depth,
        flits=spec.flits,
        rounds=rounds,
        round_bound=round_lower_bound(topo) if spec.collective else 0,
        nodes=topo.num_nodes,
        injected=result.injected,
        delivered=result.delivered,
        dropped=result.dropped,
        misroutes=result.misroutes,
        stalled=result.stalled,
        deadlocked=result.deadlocked,
        cycles=result.cycles,
        max_queue=result.max_queue,
        avg_latency=result.avg_latency,
        p95_latency=nearest_rank_p95(result.latencies),
        max_latency=result.max_latency,
        throughput=result.throughput,
        delivery_rate=result.delivery_rate,
        analytic_bound=analytic_saturation_bound(topo.name),
        tenants=tenants_col,
    )


def run_point(
    spec: PointSpec,
    backend=None,
    traces: Optional[Mapping[str, Trace]] = None,
) -> SweepRecord:
    """Run one grid point: build, generate, simulate, condense -- a
    one-spec :func:`run_batch_points`.

    Pattern points generate ``load``-normalised open-loop traffic;
    collective points (``spec.collective`` non-empty) compile and run
    the closed-loop barriered collective instead, round by round, the
    seed choosing the root; workload points (``spec.workload``
    non-empty) compile the multi-tenant overlay -- or replay the trace
    resolved through ``traces`` -- and carry per-tenant stats in the
    record.  ``backend`` names the kernel backend
    (:mod:`repro.network.backends`); it is deliberately *not* part of
    the spec -- records are bit-identical across backends, so the point
    and its cache key describe the simulation, not the machinery.
    """
    return run_batch_points([spec], backend=backend, traces=traces)[0]


_INTS = (int, np.integer)  # a bool is an int too: the checks exclude it by name
_REALS = (float, np.floating) + _INTS


def normalize_spec(spec: PointSpec) -> PointSpec:
    """Collapse a spec onto its canonical form: the one whose axes all
    matter.

    Store-and-forward points ignore the flow-control axes
    (``num_vcs``/``buffer_depth``/``flits`` are pinned to ``1``/``0``/
    ``"1"``); collective points ignore the open-loop ``pattern``/``load``
    axes (pinned to ``"-"``/``1.0``).  Workload points pin ``pattern``
    to ``"-"`` (tenants bring their own patterns) and canonicalise the
    inline workload spelling; trace-replay workloads additionally pin
    ``load`` to ``1.0`` (a recorded schedule does not scale).  Two specs
    with the same canonical form produce bit-identical records, so this
    is both how :func:`expand_grid` dedupes the grid and how the service
    cache's ``point_key`` decides two points are the same simulation.

    It is also the one check of the numeric axes (a :class:`ValueError`):
    ``load`` a finite real > 0, stored as a ``float`` (``1`` and ``1.0``
    are one point), ``seed`` an integer and ``inject_window`` an integer
    >= 1, none of them a bool.
    """
    load, seed, window = spec.load, spec.seed, spec.inject_window
    if isinstance(load, bool) or not isinstance(load, _REALS) or not 0 < load < math.inf:
        raise ValueError(f"load must be a finite number > 0, got {load!r}")
    if isinstance(seed, bool) or not isinstance(seed, _INTS):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if isinstance(window, bool) or not isinstance(window, _INTS) or window < 1:
        raise ValueError(f"inject_window must be an integer >= 1, got {window!r}")
    if (type(load), type(seed), type(window)) != (float, int, int):
        spec = replace(spec, load=float(load), seed=int(seed), inject_window=int(window))
    if spec.collective and spec.workload:
        raise ValueError(
            "a grid point cannot be both a collective and a workload "
            f"(got collective={spec.collective!r}, "
            f"workload={spec.workload!r})"
        )
    if spec.collective and (spec.pattern != "-" or spec.load != 1.0):
        spec = replace(spec, pattern="-", load=1.0)
    if spec.workload:
        if spec.workload.startswith("trace:"):
            if spec.pattern != "-" or spec.load != 1.0:
                spec = replace(spec, pattern="-", load=1.0)
        else:
            canon = canonical_workload(spec.workload)
            if spec.pattern != "-" or spec.workload != canon:
                spec = replace(spec, pattern="-", workload=canon)
    if spec.switching == "sf" and (
        spec.num_vcs != 1 or spec.buffer_depth != 0 or spec.flits != "1"
    ):
        spec = replace(spec, num_vcs=1, buffer_depth=0, flits="1")
    return spec


def run_batch_points(
    specs: Sequence[PointSpec],
    backend=None,
    traces: Optional[Mapping[str, Trace]] = None,
) -> List[SweepRecord]:
    """Run a group of grid points, co-batching those that share a
    topology and cycle cap on one simulator.

    The group's pattern and workload points run as one lock-step
    :meth:`~repro.network.simulator.VectorizedSimulator.run_batch` --
    one router instance per router name, so replications also share
    route tables; switching modes mix freely within a pack, and
    workload points' per-packet tenant ids ride on the
    :class:`~repro.network.simulator.BatchItem`.  Its collective points
    advance in lock step, one ``run_batch`` per round (see
    :mod:`repro.network.collectives`).  Records come back in ``specs``
    order and are bit-identical whatever the grouping.

    This is the one point-execution path: :func:`run_point` is a
    one-spec call, and :func:`stream_sweep` runs the tasks :func:`_pack`
    cuts.  Each spec runs, and is recorded, as its :func:`normalize_spec`
    form -- the form its cache key names -- so a raw spec's record is
    its canonical spec's.
    """
    specs = [normalize_spec(s) for s in specs]
    records: List[Optional[SweepRecord]] = [None] * len(specs)
    groups: Dict[Tuple[str, int], List[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault((spec.topology, spec.max_cycles), []).append(i)
    for (tspec, max_cycles), members in groups.items():
        topo = parse_topology(tspec)
        sim = VectorizedSimulator(topo, backend=backend)
        routers: Dict[str, object] = {}
        open_loop, items, closed, jobs = [], [], [], []
        for i in members:
            spec = specs[i]
            router = routers.setdefault(
                spec.router, _resolve_router(spec.router)()
            )
            plan = _point_plan(spec, topo)
            if spec.collective:
                closed.append((i, plan))
                jobs.append((
                    spec.collective, spec.seed % topo.num_nodes, router,
                    _point_flow(spec),
                    spec.flits if spec.switching != "sf" else 1, spec.seed,
                    plan,
                ))
                continue
            traffic, tenants, tenant_names = _point_packets(
                spec, topo, plan, traces
            )
            open_loop.append((i, plan, tenant_names))
            items.append(BatchItem(
                traffic=traffic, router=router, faults=plan,
                switching=_point_flow(spec),
                flits=_point_flits(spec, len(traffic)), tenants=tenants,
            ))
        outcomes = sim.run_batch(items, max_cycles=max_cycles) if items else []
        for (i, plan, names), result in zip(open_loop, outcomes):
            records[i] = _condense(specs[i], topo, plan, result, tenant_names=names)
        colls = _run_collectives(sim, jobs, max_cycles)
        for (i, plan), (schedule, _, _, result) in zip(closed, colls):
            records[i] = _condense(specs[i], topo, plan, result, len(schedule))
    return records  # type: ignore[return-value]


def expand_grid(
    topologies: Sequence[str],
    patterns: Sequence[str] = ("uniform",),
    loads: Sequence[float] = (0.1, 0.2, 0.4, 0.6, 0.8),
    routers: Sequence[str] = ("bfs",),
    seeds: Sequence[int] = (0,),
    faults: Sequence[str] = ("",),
    switching: Sequence[str] = ("sf",),
    vcs: Sequence[int] = (1,),
    buffers: Sequence[int] = (4,),
    flits: Sequence[str] = ("1",),
    collectives: Sequence[str] = ("",),
    workloads: Sequence[str] = ("",),
    inject_window: int = 64,
    max_cycles: int = 100000,
) -> List[PointSpec]:
    """Expand and validate a sweep grid into its ordered, deduped
    :class:`PointSpec` list.

    This is the single grid semantics shared by :func:`run_sweep` and
    the sweep service: every axis value is validated eagerly (unknown
    names, impossible fault plans, bad flit specs, a ``max_cycles``
    that is not an integer of at least 1, and the loads, seeds and
    injection window that :func:`normalize_spec` rejects raise
    :class:`ValueError` before any point runs), each grid cell is
    normalised via :func:`normalize_spec` and duplicates collapse while
    preserving first-seen grid order.
    ``workloads`` adds multi-tenant points (``""`` = the single-tenant
    grid): inline tenant specs are parsed eagerly, ``trace:<key>``
    references resolve at run time.  A grid cannot cross non-empty
    workloads with non-empty collectives -- a cell cannot be both.
    """
    try:
        max_cycles = _validate_max_cycles(max_cycles)
    except TypeError as exc:
        raise ValueError(str(exc)) from None
    for p in patterns:
        if p not in PATTERNS:
            raise ValueError(f"unknown traffic pattern {p!r}; choose from {sorted(PATTERNS)}")
    for c in collectives:
        if c and c not in COLLECTIVES:
            raise ValueError(
                f"unknown collective {c!r}; choose from {sorted(COLLECTIVES)}"
            )
    for w in workloads:
        if w and not w.startswith("trace:"):
            canonical_workload(w)  # raises on a bad inline spec
    if any(workloads) and any(collectives):
        raise ValueError(
            "workloads and collectives cannot cross in one grid: a cell "
            "cannot be both a multi-tenant workload and a closed-loop "
            "collective -- run them as two sweeps"
        )
    for r in routers:
        if r not in ROUTERS:
            raise ValueError(f"unknown router {r!r}; choose from {sorted(ROUTERS)}")
    for sw in switching:
        if sw not in SWITCHING_MODES:
            raise ValueError(
                f"unknown switching mode {sw!r}; choose from {SWITCHING_MODES}"
            )
        if sw != "sf":
            for v in vcs:
                for b in buffers:
                    FlowControl(switching=sw, buffer_depth=b, num_vcs=v)
    for fl in flits:
        flit_sizes(0, fl)  # raises on a bad spec
    for t in topologies:
        topo = parse_topology(t)  # raises on a bad spec before any point runs
        for f in faults:
            if f:
                FaultPlan.parse(f, num_nodes=topo.num_nodes).validate(topo)
    return list(dict.fromkeys(
        normalize_spec(PointSpec(
            topology=t, router=r, pattern=p, load=ld, seed=s, faults=f,
            switching=sw, num_vcs=v, buffer_depth=b, flits=fl,
            collective=c, workload=w,
            inject_window=inject_window, max_cycles=max_cycles,
        ))
        for t in topologies
        for r in routers
        for p in patterns
        for f in faults
        for sw in switching
        for v in vcs
        for b in buffers
        for fl in flits
        for c in collectives
        for w in workloads
        for ld in loads
        for s in seeds
    ))


def _pack(specs: Sequence[PointSpec], batch: int) -> List[List[int]]:
    """Cut spec indices into :func:`run_batch_points` tasks: points
    sharing a (topology, cycle cap), collective points included, pack
    together in grid order, up to ``batch`` wide.  Only
    :func:`stream_sweep` calls it, so :func:`run_sweep` and the sweep
    service pack alike."""
    groups: Dict[Tuple[str, int], List[int]] = {}
    for i, s in enumerate(specs):
        groups.setdefault((s.topology, s.max_cycles), []).append(i)
    return [
        members[j:j + batch]
        for members in groups.values()
        for j in range(0, len(members), batch)
    ]


def stream_sweep(
    specs: Sequence[PointSpec],
    batch: int = 1,
    cache=None,
    executor: Optional[Executor] = None,
    backend=None,
    traces: Optional[Mapping[str, Trace]] = None,
) -> Iterator[Tuple[List[int], List[SweepRecord], bool]]:
    """The one cache-first loop: yield ``(indices, records, cached)``
    groups that cover every spec once.

    Cache hits come first, as one ``cached=True`` group in grid order,
    before any task starts.  The missing specs are cut into :func:`_pack`
    tasks; each task's records follow as it completes, stored in
    ``cache`` (a :class:`repro.network.service.ResultCache`, or anything
    with its ``get``/``put``) before they are yielded, so a sweep cut
    short keeps every cell it finished.

    Tasks are :func:`run_batch_points` partials, run on ``executor``
    (a process pool works: ``backend`` is a name, so the tasks pickle)
    or, without one, inline in grid order.  The generator
    blocks while it waits for a task, so never step it on a thread of
    ``executor``.  Closing it cancels the tasks that have not started.
    A ``batch`` below 1 raises :class:`ValueError` at the first step.
    """
    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    specs = list(specs)
    hits = [None] * len(specs)
    if cache is not None:
        hits = [cache.get(s) for s in specs]
    found = [i for i, rec in enumerate(hits) if rec is not None]
    missing = [i for i, rec in enumerate(hits) if rec is None]
    tasks = [
        [missing[j] for j in chunk]
        for chunk in _pack([specs[i] for i in missing], batch)
    ]
    run = partial(run_batch_points, backend=backend, traces=traces)
    pending: Dict[object, List[int]] = {}
    try:
        # hits go out before any task starts: a simulating thread would
        # hold the GIL while the caller streams them
        if found:
            yield found, [hits[i] for i in found], True
        if executor is None:
            runs = ((cells, run([specs[i] for i in cells])) for cells in tasks)
        else:
            pending = {
                executor.submit(run, [specs[i] for i in cells]): cells
                for cells in tasks
            }
            runs = ((pending[f], f.result()) for f in as_completed(pending))
        for cells, records in runs:
            if cache is not None:
                for i, rec in zip(cells, records):
                    cache.put(specs[i], rec)
            yield cells, records, False
    finally:
        for fut in pending:
            fut.cancel()


def run_sweep(
    topologies: Sequence[str],
    patterns: Sequence[str] = ("uniform",),
    loads: Sequence[float] = (0.1, 0.2, 0.4, 0.6, 0.8),
    routers: Sequence[str] = ("bfs",),
    seeds: Sequence[int] = (0,),
    faults: Sequence[str] = ("",),
    switching: Sequence[str] = ("sf",),
    vcs: Sequence[int] = (1,),
    buffers: Sequence[int] = (4,),
    flits: Sequence[str] = ("1",),
    collectives: Sequence[str] = ("",),
    workloads: Sequence[str] = ("",),
    inject_window: int = 64,
    max_cycles: int = 100000,
    processes: int = 1,
    batch: int = 1,
    cache=None,
    backend=None,
    traces: Optional[Mapping[str, Trace]] = None,
) -> List[SweepRecord]:
    """Run the (topology x router x pattern x faults x switching x vcs x
    buffers x flits x collective x load x seed) grid.

    ``faults`` is a sequence of fault-plan spec strings (``""`` = the
    unfaulted baseline), so one call produces degradation curves.
    ``switching``/``vcs``/``buffers``/``flits`` sweep the flow-control
    configuration; ``"sf"`` points ignore the latter three axes (their
    specs are normalised, so a mixed grid never re-runs the same
    store-and-forward point).  ``collectives`` adds closed-loop
    collective points (``""`` = the plain pattern grid); a collective
    point's pattern/load axes are normalised away, so one collective
    entry contributes exactly one point per (topology, router, faults,
    flow, seed) cell.  ``batch > 1`` packs up to that many compatible
    points (sharing topology and cycle cap, any mix of switching modes
    and collectives) into each lock-step run (see :func:`_pack`) --
    records stay bit-identical, only the wall-clock changes.
    ``processes > 1`` runs the packed tasks on a process pool; specs are
    validated eagerly via :func:`expand_grid` (unknown names, impossible
    fault plans and bad flit specs raise before any worker starts).

    ``cache`` is an optional content-addressed result cache (see
    :func:`stream_sweep`, whose generator this drains): cached grid
    cells are never re-simulated, only the missing cells run, and each
    task's records are stored as it finishes -- so re-running a grid is
    incremental, a grid that fails part way keeps its finished cells,
    and a fully warm grid costs no simulation at all.

    ``backend`` names the kernel backend
    (:mod:`repro.network.backends`).  Backends are bit-identical, so it
    never enters the grid, the records, or the cache keys: a cache
    warmed under one backend is fully warm under every other.

    ``workloads`` adds multi-tenant points (see :func:`expand_grid`);
    ``traces`` maps trace keys to loaded
    :class:`~repro.network.workloads.Trace` objects for ``trace:<key>``
    workload values (the CLI builds it from ``--trace`` files; they are
    plain tuples, so they pickle to pool workers).  Trace points cache
    by the trace's *content* key, so a warm cache follows the trace
    wherever its file moves.
    """
    specs = expand_grid(
        topologies, patterns=patterns, loads=loads, routers=routers,
        seeds=seeds, faults=faults, switching=switching, vcs=vcs,
        buffers=buffers, flits=flits, collectives=collectives,
        workloads=workloads,
        inject_window=inject_window, max_cycles=max_cycles,
    )
    records: List[Optional[SweepRecord]] = [None] * len(specs)
    pool = ProcessPoolExecutor(processes) if processes > 1 else nullcontext()
    # the stream closes first, cancelling unstarted tasks, so a failing
    # grid does not wait for the whole pool to drain
    with pool as executor, closing(
        stream_sweep(specs, batch, cache, executor, backend, traces)
    ) as stream:
        for cells, recs, _ in stream:
            for i, rec in zip(cells, recs):
                records[i] = rec
    return records  # type: ignore[return-value]


def flow_tag(rec: SweepRecord) -> str:
    """The flow-control axis of a curve key: ``""`` for store-and-forward,
    ``"wormhole:v2:b4:f1-8"``-style (:meth:`FlowControl.label` plus the
    flit spec) for the pipelined modes."""
    if rec.switching == "sf":
        return ""
    flow = FlowControl(
        switching=rec.switching,
        buffer_depth=rec.buffer_depth,
        num_vcs=rec.num_vcs,
    )
    return f"{flow.label()}:f{rec.flits}"


@dataclass(frozen=True)
class CurvePoint:
    """One aggregated saturation-curve point: every seed of one
    (topology, router, pattern, faults, flow, collective) cell condensed
    to mean/std (population std; zero for single-seed cells).
    ``deadlock_rate`` is the fraction of seeds whose run deadlocked;
    ``stalled`` the mean stuck-packet count.  For collective cells
    ``rounds`` is the mean schedule round count over the seeds (roots
    vary by seed, so BFS-tree round counts may too) against the shared
    ``round_bound``; both are zero on pattern cells.

    Seed-axis aggregation is deliberately mixed and the choice per
    column is part of the contract: ``p95_latency`` is the **mean of
    the per-seed p95s** (each seed's :func:`nearest_rank_p95` averaged
    across seeds -- an unbiased per-replication tail estimate, *not*
    the p95 of the pooled latency sample, which would let one bad seed's
    tail dominate the cell), while ``max_queue`` and ``max_latency``
    take the **max** over seeds (high-water marks: "the worst any
    replication saw" is the number a buffer-sizing decision needs).
    The pooled-sample p95 lies within the per-seed min/max envelope, a
    bound the cross-check test pins down so these semantics cannot
    silently drift."""

    topology: str
    router: str
    pattern: str
    collective: str
    faults: str
    switching: str
    num_vcs: int
    buffer_depth: int
    flits: str
    rounds: float
    round_bound: int
    load: float
    seeds: int
    avg_latency: float
    std_avg_latency: float
    p95_latency: float
    max_latency: int
    throughput: float
    std_throughput: float
    delivery_rate: float
    max_queue: int
    dropped: float
    misroutes: float
    stalled: float
    deadlock_rate: float


def saturation_curves(
    records: Sequence[SweepRecord],
) -> Dict[Tuple[str, str, str, str, str, str], List[CurvePoint]]:
    """Regroup records into per-(topology, router, pattern, faults, flow,
    collective) load curves, sorted by offered load (the saturation-curve
    x axis).

    Multi-seed cells aggregate into one :class:`CurvePoint` per load
    instead of interleaving seed replicas along the curve; the fifth key
    element is :func:`flow_tag`'s switching-configuration string (``""``
    for plain store-and-forward) and the sixth the collective name
    (``""`` for pattern records, whose curves are unchanged).  Workload
    records put their workload spec in the pattern slot (their
    ``pattern`` column is the uninformative ``"-"``), so distinct
    workloads on one topology get distinct curves.
    """
    cells: Dict[
        Tuple[str, str, str, str, str, str], Dict[float, List[SweepRecord]]
    ] = {}
    for rec in records:
        key = (rec.topology, rec.router, rec.workload or rec.pattern,
               rec.faults, flow_tag(rec), rec.collective)
        cells.setdefault(key, {}).setdefault(rec.load, []).append(rec)
    curves: Dict[Tuple[str, str, str, str, str, str], List[CurvePoint]] = {}
    for key, by_load in cells.items():
        curve = []
        for load in sorted(by_load):
            rs = by_load[load]
            lats = [r.avg_latency for r in rs]
            thrus = [r.throughput for r in rs]
            curve.append(CurvePoint(
                topology=key[0],
                router=key[1],
                pattern=key[2],
                collective=key[5],
                faults=key[3],
                switching=rs[0].switching,
                num_vcs=rs[0].num_vcs,
                buffer_depth=rs[0].buffer_depth,
                flits=rs[0].flits,
                rounds=fmean(r.rounds for r in rs),
                round_bound=rs[0].round_bound,
                load=load,
                seeds=len(rs),
                avg_latency=fmean(lats),
                std_avg_latency=pstdev(lats) if len(lats) > 1 else 0.0,
                p95_latency=fmean(r.p95_latency for r in rs),
                max_latency=max(r.max_latency for r in rs),
                throughput=fmean(thrus),
                std_throughput=pstdev(thrus) if len(thrus) > 1 else 0.0,
                delivery_rate=fmean(r.delivery_rate for r in rs),
                max_queue=max(r.max_queue for r in rs),
                dropped=fmean(r.dropped for r in rs),
                misroutes=fmean(r.misroutes for r in rs),
                stalled=fmean(r.stalled for r in rs),
                deadlock_rate=fmean(float(r.deadlocked) for r in rs),
            ))
        curves[key] = curve
    return curves


_FIELDS = [f.name for f in fields(SweepRecord)]


def write_csv(records: Sequence[SweepRecord], path: str) -> None:
    """Dump records as CSV (one header row, one row per sweep point)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_FIELDS)
        writer.writeheader()
        for rec in records:
            writer.writerow(asdict(rec))


def write_json(records: Sequence[SweepRecord], path: str) -> None:
    """Dump records as a JSON array of objects."""
    with open(path, "w") as fh:
        json.dump([asdict(rec) for rec in records], fh, indent=2)
        fh.write("\n")
