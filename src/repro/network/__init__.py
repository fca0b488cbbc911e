"""Interconnection-network substrate (the ICPP/Hsu 1993 lineage).

Fibonacci cubes were introduced as interconnection topologies; the
``Q_d(1^s)`` family ("generalized Fibonacci cubes" in the 1993 usage) was
studied for shortest-path routing, broadcasting and Hamiltonicity.  This
package provides the substrate to exercise those properties on *any*
generalized Fibonacci cube:

- :mod:`repro.network.topology` -- topology wrapper with cost metrics
  (order, degree, diameter, average distance, links);
- :mod:`repro.network.routing` -- routers: exact BFS, the canonical
  bit-fix route (optimal on :math:`Q_d(1^s)` by Proposition 3.1), its
  fault-aware adaptive extension, strict e-cube and greedy Hamming
  descent (no fallback); route analysis (``route_stats``, the deadlock
  CDG, collective link loads) reads their ``RouteTable`` rows;
- :mod:`repro.network.broadcast` -- single-port broadcast scheduling
  (binomial on the hypercube, BFS-tree based generally);
- :mod:`repro.network.collectives` -- collective operations (broadcast,
  reduce, allgather, all-to-all, Hamiltonian-ring emulation) compiled
  into barriered traffic and simulated through both engines;
- :mod:`repro.network.simulator` -- synchronous message-passing simulator
  with FIFO link queues (the "hardware" substitute: per DESIGN.md, graph
  metrics need no silicon, but the simulator lets us measure latency
  under contention); the vectorized engine advances whole cycles with
  NumPy array operations, the reference engine is the per-packet spec;
- :mod:`repro.network.flowcontrol` -- finite-buffer flow control for
  both engines: multi-flit packets, wormhole / virtual cut-through
  switching, virtual channels with dimension-ordered assignment, credit
  backpressure and *detected* (never hung) deadlock;
- :mod:`repro.network.traffic` -- seeded, topology-aware traffic pattern
  library (uniform, permutation, transpose, bit-reversal, tornado,
  hotspot, bursty);
- :mod:`repro.network.batch` -- the batch-axis names over
  ``VectorizedSimulator.run_batch``, the engine's one simulation path:
  K independent replications, any mix of switching modes, advance in
  one kernel call (disjoint link-id spaces, shared route tables),
  bit-identical to K solo runs -- and a solo run is a one-item batch;
- :mod:`repro.network.kernel` -- the fused advance kernel underneath
  ``run_batch``: one mode engine each for store-and-forward and
  wormhole/vct, each running its runs on its own clock;
- :mod:`repro.network.sweep` -- sweep harness producing saturation
  curves over (topology x router x pattern x faults x load) grids, with
  ``batch > 1`` packing compatible points into lock-step batches and
  one cache-first loop, ``stream_sweep``, that ``run_sweep`` and the
  sweep service share;
- :mod:`repro.network.workloads` -- multi-tenant overlay workloads:
  N named tenants (own pattern / load / priority) superimposed with
  per-source QoS injection arbitration, compiled to plain traffic plus
  tenant ids, recorded/replayed as versioned NDJSON traces;
- :mod:`repro.network.insights` -- rule-driven insight engine over
  sweep records: saturation knees, deadlock / cycle-cap / fault /
  starvation alerts, and the hypercube-vs-Fibonacci verdict as a
  stable JSON report;
- :mod:`repro.network.faults` -- fault model: static surgery reports and
  dynamic :class:`FaultPlan` schedules the simulator engines replay
  (masked routing epochs, in-flight drops, adaptive detours);
- :mod:`repro.network.hamilton` -- Hamiltonian path/cycle search
  ("generalized Fibonacci cubes are mostly Hamiltonian", Liu--Hsu--Chung).
"""

from repro.network.topology import Topology, faulted_topology, topology_of
from repro.network.routing import (
    AdaptiveRouter,
    BfsRouter,
    CanonicalRouter,
    DimensionOrderRouter,
    GreedyRouter,
    RouteStats,
    RouteTable,
    route_stats,
)
from repro.network.broadcast import (
    binomial_broadcast_schedule,
    broadcast_rounds,
    verify_schedule,
)
from repro.network.collectives import (
    COLLECTIVES,
    CollectiveResult,
    collective_schedule,
    round_lower_bound,
    run_collective,
    schedule_link_loads,
    verify_collective_schedule,
)
from repro.network.flowcontrol import (
    SWITCHING_MODES,
    FlowControl,
    link_dimension,
    vc_of_hop,
)
from repro.network.simulator import (
    NetworkSimulator,
    ReferenceSimulator,
    SimResult,
    VectorizedSimulator,
    uniform_traffic,
)
from repro.network.batch import (
    BatchItem,
    BatchedSimulator,
    run_batch,
)
from repro.network.traffic import (
    PATTERNS,
    bit_reversal_traffic,
    bursty_traffic,
    collective_traffic,
    flit_sizes,
    hotspot_traffic,
    make_traffic,
    permutation_traffic,
    tornado_traffic,
    transpose_traffic,
)
from repro.network.sweep import (
    CurvePoint,
    PointSpec,
    ROUTERS,
    SweepRecord,
    flow_tag,
    nearest_rank_p95,
    parse_topology,
    run_batch_points,
    run_point,
    run_sweep,
    saturation_curves,
    write_csv,
    write_json,
)
from repro.network.workloads import (
    TenantSpec,
    TenantStats,
    Trace,
    Workload,
    canonical_workload,
    compile_trace,
    compile_workload,
    parse_workload,
    read_trace,
    record_trace,
    trace_key,
    write_trace,
)
from repro.network.insights import (
    Insight,
    RULES,
    analyze,
    knee_of,
    load_records,
    render_text,
    report_to_json,
)
from repro.network.faults import FaultPlan, FaultReport, fault_tolerance_trial
from repro.network.hamilton import find_hamiltonian_cycle, find_hamiltonian_path
from repro.network.deadlock import (
    channel_dependency_graph,
    find_dependency_cycle,
    is_deadlock_free,
)
from repro.network.cycles import (
    cycle_spectrum,
    find_cycle_of_length,
    has_even_cycles_everywhere,
)

__all__ = [
    "Topology",
    "topology_of",
    "faulted_topology",
    "FlowControl",
    "SWITCHING_MODES",
    "flit_sizes",
    "flow_tag",
    "link_dimension",
    "vc_of_hop",
    "AdaptiveRouter",
    "BfsRouter",
    "CanonicalRouter",
    "DimensionOrderRouter",
    "GreedyRouter",
    "RouteStats",
    "RouteTable",
    "route_stats",
    "ReferenceSimulator",
    "VectorizedSimulator",
    "BatchItem",
    "BatchedSimulator",
    "run_batch",
    "PATTERNS",
    "bit_reversal_traffic",
    "bursty_traffic",
    "hotspot_traffic",
    "make_traffic",
    "permutation_traffic",
    "tornado_traffic",
    "transpose_traffic",
    "CurvePoint",
    "PointSpec",
    "ROUTERS",
    "SweepRecord",
    "nearest_rank_p95",
    "parse_topology",
    "run_batch_points",
    "run_point",
    "run_sweep",
    "saturation_curves",
    "write_csv",
    "write_json",
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
    "trace_key",
    "write_trace",
    "Insight",
    "RULES",
    "analyze",
    "knee_of",
    "load_records",
    "render_text",
    "report_to_json",
    "binomial_broadcast_schedule",
    "broadcast_rounds",
    "verify_schedule",
    "COLLECTIVES",
    "CollectiveResult",
    "collective_schedule",
    "collective_traffic",
    "round_lower_bound",
    "run_collective",
    "schedule_link_loads",
    "verify_collective_schedule",
    "NetworkSimulator",
    "SimResult",
    "uniform_traffic",
    "FaultPlan",
    "FaultReport",
    "fault_tolerance_trial",
    "find_hamiltonian_cycle",
    "channel_dependency_graph",
    "find_dependency_cycle",
    "is_deadlock_free",
    "cycle_spectrum",
    "find_cycle_of_length",
    "has_even_cycles_everywhere",
    "find_hamiltonian_path",
]
