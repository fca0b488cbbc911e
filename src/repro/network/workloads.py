"""Multi-tenant composable workloads: overlays, QoS arbitration, traces.

Every traffic generator in :mod:`repro.network.traffic` is single-tenant:
one pattern, one load, one anonymous source population.  Real machines
are shared -- a background wash of uniform traffic under a foreground
application's collective phases, several jobs with different priorities
contending for the same injection ports -- and the verdict on a topology
under *contention* is what the saturation studies are ultimately for.
This module makes those scenarios first-class:

- a :class:`TenantSpec` names one tenant (pattern, offered load,
  priority); a :class:`Workload` is an ordered set of tenants plus the
  per-node injection ``rate`` they contend for.  The compact string
  grammar (:func:`parse_workload`) makes workloads sweep-axis values:
  ``"bg:uniform:0.2;fg:broadcast:0.4:2"`` is background uniform traffic
  superimposed with a higher-priority collective phase;
- :func:`compile_workload` superimposes every tenant's seeded pattern
  traffic and then runs **QoS arbitration at injection**: each source
  node is a single injection port serving at most ``rate`` packets per
  cycle, and when tenants contend for a slot the higher-priority packet
  wins while the loser is deferred to the next cycle (ties break by
  tenant order, then by each tenant's own packet order).  The output is
  the simulator's ``(cycle, src, dst)`` rows plus an aligned
  per-packet tenant id -- deterministic given the seed, so every engine
  and backend replays it bit-identically;
- a recorded schedule is a versioned NDJSON **trace**
  (:class:`Trace`, :func:`write_trace` / :func:`read_trace`): one header
  line with the format version, topology, tenants and packet count,
  then one compact object per packet.  ``repro trace record`` writes
  them and ``repro sweep --trace`` replays them --
  :func:`trace_key` content-addresses a trace so replayed sweep points
  cache correctly no matter where the file lives;
- :class:`TenantStats` is the per-tenant accounting unit the engines
  attach to :class:`~repro.network.simulator.SimResult` when traffic
  carries tenant ids: injected / delivered / undelivered counts and the
  delivered-packet latency sample, per tenant, computed identically by
  the reference and vectorized engines (shared helper, so the
  aggregation itself cannot diverge).

Arbitrated injection cycles may legitimately spill past the nominal
window (a congested port drains its backlog after the window closes);
the ``[0, inject_window)`` window contract applies to the *registered
single-tenant patterns*, not to arbitrated workload schedules.  Under a
:class:`~repro.network.faults.FaultPlan`, dead sources are silenced
*after* arbitration: a packet whose source has failed at or before its
arbitrated injection cycle is removed, matching
:func:`~repro.network.traffic.make_traffic`'s offered-load semantics.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.network.faults import FaultPlan
from repro.network.topology import Topology
from repro.network.traffic import PATTERNS

__all__ = [
    "CompiledWorkload",
    "TENANT_SEED_STRIDE",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TenantSpec",
    "TenantStats",
    "Trace",
    "Workload",
    "canonical_workload",
    "compile_trace",
    "compile_workload",
    "parse_workload",
    "read_trace",
    "record_trace",
    "tenant_stats_of",
    "trace_key",
    "write_trace",
]

# per-tenant traffic seeds are spread by a fixed prime stride so tenant
# streams never collide even for adjacent base seeds
TENANT_SEED_STRIDE = 7919

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a workload: a named, prioritised traffic stream.

    ``load`` is offered load in packets per node per cycle over the
    injection window (the sweep harness's normalisation); ``priority``
    orders injection arbitration -- higher wins a contended slot, ties
    break in tenant declaration order.
    """

    name: str
    pattern: str
    load: float
    priority: int = 0


@dataclass(frozen=True)
class Workload:
    """An ordered tenant set contending for per-node injection ports.

    ``rate`` is the per-source injection budget in packets per cycle;
    ``rate=0`` disables arbitration entirely (pure superposition, every
    tenant's requested cycle honoured as generated).
    """

    tenants: Tuple[TenantSpec, ...]
    rate: int = 1

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.tenants)


def parse_workload(spec: str) -> Workload:
    """Parse the compact workload grammar.

    ``;``-separated tokens: each tenant is ``name:pattern:load[:prio]``
    (priority defaults to 0), and one optional ``rate=N`` token sets the
    per-node injection budget (default 1 packet/node/cycle; 0 disables
    arbitration).  Tenant names must be unique, patterns must be
    registered, loads positive.
    """
    if not spec or not spec.strip():
        raise ValueError("empty workload spec")
    tenants: List[TenantSpec] = []
    rate = 1
    saw_rate = False
    for token in spec.split(";"):
        token = token.strip()
        if not token:
            continue
        if token.startswith("rate="):
            if saw_rate:
                raise ValueError(f"duplicate rate= token in workload {spec!r}")
            saw_rate = True
            try:
                rate = int(token[5:])
            except ValueError:
                raise ValueError(
                    f"bad rate in workload {spec!r}: {token!r}"
                ) from None
            if rate < 0:
                raise ValueError(f"workload rate must be >= 0, got {rate}")
            continue
        parts = token.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"bad tenant token {token!r} in workload {spec!r}: expected "
                "'name:pattern:load[:priority]'"
            )
        name, pattern = parts[0], parts[1]
        if not name or "=" in name:
            raise ValueError(f"bad tenant name {name!r} in workload {spec!r}")
        if pattern not in PATTERNS:
            raise ValueError(
                f"unknown traffic pattern {pattern!r} for tenant {name!r}; "
                f"choose from {sorted(PATTERNS)}"
            )
        try:
            load = float(parts[2])
        except ValueError:
            raise ValueError(
                f"bad load {parts[2]!r} for tenant {name!r} in {spec!r}"
            ) from None
        if load <= 0:
            raise ValueError(
                f"tenant {name!r} load must be positive, got {load}"
            )
        priority = 0
        if len(parts) == 4:
            try:
                priority = int(parts[3])
            except ValueError:
                raise ValueError(
                    f"bad priority {parts[3]!r} for tenant {name!r} in {spec!r}"
                ) from None
        tenants.append(TenantSpec(name, pattern, load, priority))
    if not tenants:
        raise ValueError(f"workload {spec!r} declares no tenants")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names in workload {spec!r}")
    return Workload(tenants=tuple(tenants), rate=rate)


@lru_cache(maxsize=256)
def canonical_workload(spec: str) -> str:
    """The canonical spelling of an inline workload spec: parsed and
    re-serialised so equivalent spellings (whitespace, float formatting,
    an explicit default ``rate=1``) collapse to one cache key.  Cached
    by the spec string: the spelling depends on nothing else (the
    pattern registry is fixed at import), and a bad spec raises on
    every call because ``lru_cache`` never stores an exception."""
    wl = parse_workload(spec)
    parts = [
        f"{t.name}:{t.pattern}:{t.load!r}:{t.priority}" for t in wl.tenants
    ]
    if wl.rate != 1:
        parts.append(f"rate={wl.rate}")
    return ";".join(parts)


@dataclass(frozen=True)
class CompiledWorkload:
    """Arbitrated workload traffic with aligned per-packet tenant ids.

    ``tenants[i]`` indexes ``names`` and tags ``traffic[i]``; the two
    sequences stay aligned through every downstream stable sort (the
    engines carry the tenant ids through their own packet ordering).
    """

    traffic: Tuple[Tuple[int, int, int], ...]
    tenants: Tuple[int, ...]
    names: Tuple[str, ...]


def _arbitrate(
    entries: List[Tuple[int, int, int, int, int, int]],
    rate: int,
) -> List[Tuple[int, int, int, int, int, int]]:
    """Per-source injection arbitration.

    ``entries`` are ``(cycle, src, dst, tenant, neg_priority, seq)``;
    each source node serves at most ``rate`` packets per cycle, winners
    chosen by ``(neg_priority, tenant, seq)`` -- i.e. highest priority
    first, ties by tenant declaration order, then by the tenant's own
    packet order -- and losers deferred to the source's next cycle.
    Sources are independent ports, so each arbitrates alone.
    """
    if rate <= 0:
        return entries
    by_src: Dict[int, List[Tuple[int, int, int, int, int, int]]] = {}
    for e in entries:
        by_src.setdefault(e[1], []).append(e)
    out: List[Tuple[int, int, int, int, int, int]] = []
    for src in by_src:
        port = sorted(by_src[src])  # by requested cycle (then tie fields)
        heap: List[Tuple[int, int, int, Tuple[int, int, int, int, int, int]]] = []
        i = 0
        cycle = 0
        while i < len(port) or heap:
            if not heap and port[i][0] > cycle:
                cycle = port[i][0]  # idle port jumps to the next request
            while i < len(port) and port[i][0] <= cycle:
                e = port[i]
                heapq.heappush(heap, (e[4], e[3], e[5], e))
                i += 1
            for _ in range(min(rate, len(heap))):
                _, _, _, e = heapq.heappop(heap)
                out.append((cycle, e[1], e[2], e[3], e[4], e[5]))
            cycle += 1
    return out


def compile_workload(
    workload: "Workload | str",
    topo: Topology,
    inject_window: int,
    seed: int = 0,
    load_scale: float = 1.0,
    faults: Optional[FaultPlan] = None,
) -> CompiledWorkload:
    """Superimpose every tenant's traffic, arbitrate injection, silence
    dead sources.

    Each tenant generates its registered pattern at
    ``load_scale * tenant.load`` packets/node/cycle with its own derived
    seed (``seed + TENANT_SEED_STRIDE * (index + 1)``), so the composite
    is deterministic given ``seed`` and scales as one unit along a sweep's
    load axis.  Arbitration (see :func:`_arbitrate`) then resolves
    injection-port contention by priority; finally, packets whose source
    is dead at their *arbitrated* cycle are removed
    (:class:`~repro.network.faults.FaultPlan` semantics).  The result is
    sorted by ``(cycle, src, dst, tenant)`` with tenant ids aligned.
    """
    if isinstance(workload, str):
        workload = parse_workload(workload)
    if load_scale <= 0:
        raise ValueError(f"load_scale must be positive, got {load_scale}")
    if inject_window < 1:
        raise ValueError(f"inject_window must be at least 1, got {inject_window}")
    n = topo.num_nodes
    entries: List[Tuple[int, int, int, int, int, int]] = []
    for ti, tenant in enumerate(workload.tenants):
        num = max(1, round(load_scale * tenant.load * n * inject_window))
        stream = PATTERNS[tenant.pattern](
            topo, num, inject_window, seed=seed + TENANT_SEED_STRIDE * (ti + 1)
        )
        entries.extend(
            (cycle, src, dst, ti, -tenant.priority, k)
            for k, (cycle, src, dst) in enumerate(stream.tolist())
        )
    entries = _arbitrate(entries, workload.rate)
    if faults is not None and faults.node_faults:
        death = faults.node_death_array(n).tolist()
        entries = [e for e in entries if death[e[1]] > e[0]]
    entries.sort(key=lambda e: (e[0], e[1], e[2], e[3], e[5]))
    return CompiledWorkload(
        traffic=tuple((c, s, d) for c, s, d, _, _, _ in entries),
        tenants=tuple(e[3] for e in entries),
        names=workload.names,
    )


# ---------------------------------------------------------------------------
# Trace format: versioned NDJSON record/replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trace:
    """A recorded workload schedule, ready for bit-identical replay.

    ``topology`` is the spec string the trace was recorded on (replay
    validates the target resolves to the same topology);
    ``tenants``/``priorities`` name the tenant ids appearing in
    ``tenant_ids``; ``workload`` keeps the canonical source spec for
    provenance (informational -- replay uses the recorded packets, not
    the generator).  Plain tuples throughout, so traces pickle cleanly
    across multiprocessing workers.
    """

    topology: str
    inject_window: int
    tenants: Tuple[str, ...]
    priorities: Tuple[int, ...]
    traffic: Tuple[Tuple[int, int, int], ...]
    tenant_ids: Tuple[int, ...]
    workload: str = ""
    seed: int = 0


def record_trace(
    workload: "Workload | str",
    topology_spec: str,
    topo: Topology,
    inject_window: int,
    seed: int = 0,
    load_scale: float = 1.0,
) -> Trace:
    """Compile a workload (unfaulted -- faults belong to replay time)
    and freeze the arbitrated schedule as a :class:`Trace`."""
    wl = parse_workload(workload) if isinstance(workload, str) else workload
    compiled = compile_workload(
        wl, topo, inject_window, seed=seed, load_scale=load_scale
    )
    return Trace(
        topology=topology_spec,
        inject_window=inject_window,
        tenants=compiled.names,
        priorities=tuple(t.priority for t in wl.tenants),
        traffic=compiled.traffic,
        tenant_ids=compiled.tenants,
        workload=canonical_workload(workload)
        if isinstance(workload, str) else "",
        seed=seed,
    )


def _trace_header(trace: Trace) -> dict:
    return {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "topology": trace.topology,
        "inject_window": trace.inject_window,
        "tenants": list(trace.tenants),
        "priorities": list(trace.priorities),
        "packets": len(trace.traffic),
        "workload": trace.workload,
        "seed": trace.seed,
    }


def write_trace(trace: Trace, path: str) -> None:
    """Write the versioned NDJSON trace: one header object, then one
    compact ``{"c": cycle, "s": src, "d": dst, "t": tenant}`` object per
    packet, in schedule order."""
    with open(path, "w") as fh:
        fh.write(json.dumps(_trace_header(trace), sort_keys=True,
                            separators=(",", ":")) + "\n")
        for (c, s, d), t in zip(trace.traffic, trace.tenant_ids):
            fh.write(json.dumps({"c": c, "s": s, "d": d, "t": t},
                                separators=(",", ":")) + "\n")


def read_trace(path: str) -> Trace:
    """Parse and validate an NDJSON trace file.

    Unknown formats and future versions are rejected loudly (a trace is
    a contract, not a best-effort guess); every packet line must carry
    in-range integer fields.
    """
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"trace {path!r} is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ValueError(f"trace {path!r}: bad header line: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ValueError(
            f"trace {path!r}: not a {TRACE_FORMAT} file (bad header)"
        )
    if header.get("version") != TRACE_VERSION:
        raise ValueError(
            f"trace {path!r}: unsupported trace version "
            f"{header.get('version')!r} (this build reads v{TRACE_VERSION})"
        )
    tenants = tuple(header.get("tenants") or ())
    if not tenants or not all(isinstance(t, str) for t in tenants):
        raise ValueError(f"trace {path!r}: header names no tenants")
    priorities = tuple(header.get("priorities") or (0,) * len(tenants))
    if len(priorities) != len(tenants):
        raise ValueError(
            f"trace {path!r}: priorities do not align with tenants"
        )
    window = header.get("inject_window")
    if not isinstance(window, int) or window < 1:
        raise ValueError(f"trace {path!r}: bad inject_window {window!r}")
    traffic: List[Tuple[int, int, int]] = []
    tenant_ids: List[int] = []
    for lineno, ln in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(ln)
            c, s, d, t = obj["c"], obj["s"], obj["d"], obj["t"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(
                f"trace {path!r}: bad packet line {lineno}: {exc}"
            ) from None
        if not all(isinstance(x, int) for x in (c, s, d, t)):
            raise ValueError(
                f"trace {path!r}: non-integer packet fields on line {lineno}"
            )
        if c < 0 or not 0 <= t < len(tenants):
            raise ValueError(
                f"trace {path!r}: out-of-range packet on line {lineno}"
            )
        traffic.append((c, s, d))
        tenant_ids.append(t)
    declared = header.get("packets")
    if isinstance(declared, int) and declared != len(traffic):
        raise ValueError(
            f"trace {path!r}: header declares {declared} packets, "
            f"file carries {len(traffic)} (truncated?)"
        )
    return Trace(
        topology=str(header.get("topology", "")),
        inject_window=window,
        tenants=tenants,
        priorities=priorities,
        traffic=tuple(traffic),
        tenant_ids=tuple(tenant_ids),
        workload=str(header.get("workload", "")),
        seed=int(header.get("seed", 0)),
    )


def trace_key(trace: Trace) -> str:
    """Content address of a trace (16 hex chars): the header plus every
    packet, canonically encoded -- so a replayed sweep point's cache key
    follows the trace's *content*, never its file name."""
    body = json.dumps(
        [_trace_header(trace),
         [list(t) + [i] for t, i in zip(trace.traffic, trace.tenant_ids)]],
        sort_keys=True, separators=(",", ":"),
    ).encode()
    return hashlib.sha256(body).hexdigest()[:16]


def compile_trace(
    trace: Trace,
    topo: Topology,
    faults: Optional[FaultPlan] = None,
) -> CompiledWorkload:
    """Resolve a trace for replay on ``topo``: validate every endpoint is
    a real node, then silence dead sources exactly as
    :func:`compile_workload` does (faults are a replay-time axis -- the
    same trace replays against many fault plans)."""
    n = topo.num_nodes
    for c, s, d in trace.traffic:
        if not (0 <= s < n and 0 <= d < n):
            raise ValueError(
                f"trace packet ({c}, {s}, {d}) is out of range for "
                f"{topo.name} ({n} nodes); replay the trace on the "
                "topology it was recorded on"
            )
    traffic = trace.traffic
    tenant_ids = trace.tenant_ids
    if faults is not None and faults.node_faults:
        death = faults.node_death_array(n).tolist()
        kept = [k for k, (c, s, _) in enumerate(traffic) if death[s] > c]
        traffic = tuple(traffic[k] for k in kept)
        tenant_ids = tuple(tenant_ids[k] for k in kept)
    return CompiledWorkload(
        traffic=traffic, tenants=tenant_ids, names=trace.tenants
    )


# ---------------------------------------------------------------------------
# Per-tenant accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant slice of one simulation run.

    ``injected`` counts the tenant's packets offered to the engine
    (post fault-silencing); ``delivered`` those that arrived;
    ``undelivered`` is simply ``injected - delivered`` -- injection-time
    drops, in-flight fault losses, and (in cycle-capped or deadlocked
    runs) packets still stalled in the network, which per-packet
    accounting cannot tell apart without per-tenant drop attribution in
    the kernel.  ``latencies`` is the tenant's delivered-packet latency
    sample in packet-id order, ready for percentile aggregation.
    """

    tenant: int
    injected: int
    delivered: int
    undelivered: int
    latencies: Tuple[int, ...]

    @property
    def avg_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.injected if self.injected else 1.0


def tenant_stats_of(
    all_tenants: Sequence[int],
    pid_tenants: Sequence[int],
    delivered: Sequence[bool],
    latencies: Sequence[int],
) -> Tuple[TenantStats, ...]:
    """Aggregate per-packet outcomes into per-tenant stats.

    ``all_tenants`` tags every offered packet (injected counts);
    ``pid_tenants`` tags the routed packets in packet-id order;
    ``delivered`` masks them; ``latencies`` aligns with the delivered
    subset.  One stats entry per distinct tenant id, ascending -- both
    engines call this with identically-derived inputs, so the tuples
    (and thus :class:`~repro.network.simulator.SimResult` equality)
    cannot diverge.
    """
    injected: Dict[int, int] = {}
    for t in all_tenants:
        injected[t] = injected.get(t, 0) + 1
    got: Dict[int, int] = {t: 0 for t in injected}
    lat: Dict[int, List[int]] = {t: [] for t in injected}
    li = 0
    for t, ok in zip(pid_tenants, delivered):
        if ok:
            got[t] = got.get(t, 0) + 1
            lat.setdefault(t, []).append(latencies[li])
            li += 1
    return tuple(
        TenantStats(
            tenant=t,
            injected=injected[t],
            delivered=got.get(t, 0),
            undelivered=injected[t] - got.get(t, 0),
            latencies=tuple(lat.get(t, ())),
        )
        for t in sorted(injected)
    )


def encode_tenant_column(
    names: Sequence[str],
    stats: Sequence[TenantStats],
    p95: "Mapping[int, float] | None" = None,
) -> str:
    """The ``tenants`` column of a :class:`~repro.network.sweep.SweepRecord`:
    a canonical compact JSON array, one object per tenant in id order,
    with ``p95_latency`` values supplied by the caller (the sweep layer
    owns the percentile definition).  Deterministic byte-for-byte, so
    CSV goldens and the service wire format stay byte-comparable."""
    rows = []
    for ts in stats:
        name = (
            names[ts.tenant] if 0 <= ts.tenant < len(names)
            else str(ts.tenant)
        )
        rows.append({
            "tenant": name,
            "injected": ts.injected,
            "delivered": ts.delivered,
            "undelivered": ts.undelivered,
            "avg_latency": ts.avg_latency,
            "p95_latency": float(p95[ts.tenant]) if p95 else 0.0,
        })
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))
