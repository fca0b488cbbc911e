"""N1 -- interconnection-network experiments (the ICPP'93 lineage).

Compares Q_d, Gamma_d = Q_d(11) and Q_d(111) as interconnection
topologies: size/degree/diameter economics, shortest-path routing by the
distributed canonical rule, single-port broadcast rounds, fault tolerance,
and Hamiltonicity ("mostly Hamiltonian").
"""

import time

import pytest

from collections import Counter

from repro.cubes.generalized import generalized_fibonacci_cube
from repro.cubes.hypercube import hypercube
from repro.network.broadcast import broadcast_rounds
from repro.network.faults import FaultPlan, fault_tolerance_trial
from repro.network.hamilton import find_hamiltonian_path
from repro.network.routing import AdaptiveRouter, BfsRouter, CanonicalRouter, route_stats
from repro.network.simulator import (
    NetworkSimulator,
    ReferenceSimulator,
    VectorizedSimulator,
    uniform_traffic,
)
from repro.network.topology import topology_of

from conftest import print_table

D = 7
TOPOLOGIES = {
    "Q_7": lambda: topology_of(hypercube(D), name="Q_7"),
    "Q_7(11)": lambda: topology_of(("11", D)),
    "Q_7(111)": lambda: topology_of(("111", D)),
}


def test_bench_n1_metrics(benchmark):
    def collect():
        return {name: mk().metrics() for name, mk in TOPOLOGIES.items()}

    metrics = benchmark(collect)
    # Fibonacci cubes trade nodes for sparser wiring at equal diameter
    assert metrics["Q_7"]["nodes"] > metrics["Q_7(111)"]["nodes"] > metrics["Q_7(11)"]["nodes"]
    assert metrics["Q_7"]["diameter"] == metrics["Q_7(11)"]["diameter"] == D
    print_table(
        "Topology economics at d = 7",
        ["topology", "nodes", "links", "max deg", "diameter", "avg dist"],
        [
            (name, m["nodes"], m["links"], m["max_degree"], m["diameter"],
             f"{m['avg_distance']:.2f}")
            for name, m in metrics.items()
        ],
    )


# rounds per row, about 1-2 s each after one warm-up round: Q_7 is the
# suite's heaviest row (near half its mean time), so its noise moves
# every other row's share in the baseline gate
ROUTING_ROUNDS = {"Q_7": 30, "Q_7(11)": 300, "Q_7(111)": 50}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_bench_n1_canonical_routing_optimal(benchmark, name):
    """On Q_d(1^s) the table-free canonical rule routes optimally
    (Proposition 3.1 made operational)."""
    topo = TOPOLOGIES[name]()
    stats = benchmark.pedantic(
        route_stats, (topo, CanonicalRouter()), rounds=ROUTING_ROUNDS[name],
        warmup_rounds=1,
    )
    assert stats.delivery_rate == 1.0
    assert stats.optimality_rate == 1.0


def test_bench_n1_broadcast(benchmark):
    def rounds():
        return [
            (name, *broadcast_rounds(mk(), 0)) for name, mk in TOPOLOGIES.items()
        ]

    rows = benchmark(rounds)
    for name, used, bound in rows:
        assert used <= bound + 3, (name, used, bound)
    print_table("Single-port broadcast rounds", ["topology", "rounds", "log2 bound"], rows)


def test_bench_n1_simulator_latency(benchmark):
    def run():
        out = []
        for name, mk in TOPOLOGIES.items():
            topo = mk()
            traffic = uniform_traffic(topo, 150, 100, seed=42)
            res = NetworkSimulator(topo, BfsRouter()).run(traffic)
            out.append((name, res.delivery_rate, round(res.avg_latency, 2), res.max_queue))
        return out

    rows = benchmark(run)
    for name, rate, avg, _ in rows:
        assert rate == 1.0, name
    print_table(
        "Uniform traffic, store-and-forward simulator",
        ["topology", "delivery", "avg latency", "max queue"],
        rows,
    )


def test_bench_n1_fault_tolerance(benchmark):
    def trial():
        out = []
        for name, mk in TOPOLOGIES.items():
            rep = fault_tolerance_trial(mk(), 3, seed=13)
            out.append((name, rep.still_connected, f"{rep.largest_component_fraction:.3f}",
                        rep.diameter_after))
        return out

    rows = benchmark(trial)
    for name, _, frac, _ in rows:
        assert float(frac) > 0.85, name
    print_table(
        "3 random node faults",
        ["topology", "still connected", "largest comp.", "diameter after"],
        rows,
    )


def test_bench_n1_adaptive_vs_oblivious_under_faults(benchmark):
    """The dynamic fault story: kill the links the canonical rule leans on
    hardest; the fault-oblivious canonical router pays in dropped packets
    while the adaptive detour rule routes around the damage."""
    topo = topology_of(("11", 7))
    traffic = uniform_traffic(topo, 2000, 64, seed=7)
    used = Counter()
    canonical = CanonicalRouter()
    for _, s, t in traffic:
        path = canonical.route(topo, s, t)
        for a, b in zip(path, path[1:]):
            used[(min(a, b), max(a, b))] += 1
    hot_links = [link for link, _ in used.most_common(4)]
    plan = FaultPlan.static(links=hot_links)

    sim_canonical = NetworkSimulator(topo, canonical)
    sim_adaptive = NetworkSimulator(topo, AdaptiveRouter())
    res_canonical = sim_canonical.run(traffic, faults=plan)
    res_adaptive = benchmark(lambda: sim_adaptive.run(traffic, faults=plan))

    assert res_canonical.dropped > 0
    assert res_adaptive.delivered > res_canonical.delivered
    assert res_adaptive.misroutes > 0
    print_table(
        "4 hottest canonical links killed at cycle 0 (Gamma_7, 2k packets)",
        ["router", "delivered", "dropped", "misroutes", "avg latency"],
        [
            ("canonical", res_canonical.delivered, res_canonical.dropped,
             res_canonical.misroutes, f"{res_canonical.avg_latency:.2f}"),
            ("adaptive", res_adaptive.delivered, res_adaptive.dropped,
             res_adaptive.misroutes, f"{res_adaptive.avg_latency:.2f}"),
        ],
    )


@pytest.mark.parametrize("s,d", [(2, 7), (3, 7)])
def test_bench_n1_mostly_hamiltonian(benchmark, s, d):
    g = generalized_fibonacci_cube("1" * s, d).graph()
    path = benchmark(find_hamiltonian_path, g)
    assert path is not None and len(path) == g.num_vertices


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_bench_n1_vectorized_speedup(benchmark):
    """The tentpole claim: the vectorized engine runs the bench-scale
    workload at least 10x faster than the per-packet reference loop,
    while producing an identical SimResult."""
    topo = topology_of(("11", 10))  # Gamma_10: 144 nodes
    traffic = uniform_traffic(topo, 15000, 150, seed=42)
    t0 = time.perf_counter()
    ref_result = ReferenceSimulator(topo).run(traffic)
    ref_seconds = time.perf_counter() - t0

    vec_result = benchmark(lambda: VectorizedSimulator(topo).run(traffic))
    # best of three: one noisy-neighbour stall must not fail the assert
    vec_seconds = min(
        _timed(lambda: VectorizedSimulator(topo).run(traffic)) for _ in range(3)
    )

    assert vec_result == ref_result
    speedup = ref_seconds / vec_seconds
    print_table(
        "Vectorized engine vs reference (Gamma_10, 15k packets)",
        ["engine", "seconds", "speedup"],
        [
            ("reference", f"{ref_seconds:.3f}", "1.0x"),
            ("vectorized", f"{vec_seconds:.3f}", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 10.0, f"vectorized engine only {speedup:.1f}x faster"


def test_bench_n1_native_backend_speedup(benchmark):
    """The compiled C sf kernel vs the NumPy engines on the advance hot
    path itself (batch preparation excluded on both sides -- it is
    shared code, and at sweep scale it is amortised by batching while
    the cycle loop is not).  The backends must be bit-identical and the
    native one at least 5x faster."""
    import numpy as np

    from repro.network.backends import native as native_mod
    from repro.network.kernel import KernelRun, run_fused
    from repro.network.routing import BfsRouter, route_table
    from repro.network.simulator import _as_flow, _prepare

    if native_mod.load_library()[0] is None:
        pytest.skip("no usable C toolchain for the native backend")

    topo = topology_of(("11", 10))  # Gamma_10: 144 nodes
    traffic = uniform_traffic(topo, 15000, 150, seed=42)
    [prep] = _prepare(topo, BfsRouter(), [traffic], None, route_table)
    nhops = prep.table.lengths()[prep.row] - 1
    flow = _as_flow("sf")

    def make_run():
        # a KernelRun is consumed by the engine; rebuild per timing
        return KernelRun(
            flow=flow, inject=prep.inject, nhops=nhops,
            links=prep.links, link_offsets=prep.link_offsets, row=prep.row,
            nf=np.ones(len(prep.inject), dtype=np.int64),
            link_dead={},
        )

    def advance(backend):
        return run_fused(topo, [make_run()], 100000, backend=backend)[0]

    native_out = benchmark(lambda: advance("native"))
    numpy_out = advance("numpy")
    # best of three per backend: one stall must not fail the gate
    numpy_seconds = min(_timed(lambda: advance("numpy")) for _ in range(3))
    native_seconds = min(_timed(lambda: advance("native")) for _ in range(3))

    assert numpy_out.cycles == native_out.cycles
    assert numpy_out.max_queue == native_out.max_queue
    assert np.array_equal(numpy_out.delivered_at, native_out.delivered_at)
    speedup = numpy_seconds / native_seconds
    print_table(
        "Kernel backends on the sf advance loop (Gamma_10, 15k packets)",
        ["backend", "seconds", "speedup"],
        [
            ("numpy", f"{numpy_seconds:.4f}", "1.0x"),
            ("native", f"{native_seconds:.4f}", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 5.0, f"native backend only {speedup:.1f}x faster"
