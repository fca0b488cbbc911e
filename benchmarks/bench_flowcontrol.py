"""N2 -- flow-control experiments: wormhole/VCT vs store-and-forward.

Times the finite-buffer wormhole engine (vectorized vs reference, and
the native C flow engine vs NumPy, equivalence asserted), tabulates the
switching disciplines on identical traffic, and runs the deadlock
demonstration: BFS-routed wormhole with a single virtual channel
deadlocks on the non-isometric ``Q_5(1010)`` (detected and reported)
while strict dimension-order routing delivers 100% of the same traffic
-- the Dally--Seitz criterion made dynamic.
"""

import time

import pytest

from repro.network.deadlock import is_deadlock_free
from repro.network.flowcontrol import FlowControl
from repro.network.routing import BfsRouter, DimensionOrderRouter
from repro.network.simulator import ReferenceSimulator, VectorizedSimulator
from repro.network.topology import topology_of
from repro.network.traffic import flit_sizes, uniform_traffic

from conftest import print_table


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_bench_flowcontrol_vectorized_speedup(benchmark):
    """The wormhole cycle loop's equivalence-and-speed contract: the
    array engine must produce the reference engine's exact SimResult,
    measurably faster (>= 2x on the bench workload; ~5x typical)."""
    topo = topology_of(("11", 10))  # Gamma_10: 144 nodes
    traffic = uniform_traffic(topo, 8000, 150, seed=42)
    sizes = flit_sizes(len(traffic), "1-6", seed=7)
    flow = FlowControl("wormhole", buffer_depth=4, num_vcs=2)

    ref_result, ref_seconds = _timed(
        lambda: ReferenceSimulator(topo).run(traffic, switching=flow, flits=sizes)
    )
    vec_result = benchmark(
        lambda: VectorizedSimulator(topo).run(traffic, switching=flow, flits=sizes)
    )
    # best of three: one noisy-neighbour stall must not fail the assert
    vec_seconds = min(
        _timed(
            lambda: VectorizedSimulator(topo).run(
                traffic, switching=flow, flits=sizes
            )
        )[1]
        for _ in range(3)
    )
    assert vec_result == ref_result
    speedup = ref_seconds / vec_seconds
    print_table(
        "Wormhole engine: vectorized vs reference (Gamma_10, 8k packets, 1-6 flits)",
        ["engine", "seconds", "speedup"],
        [
            ("reference", f"{ref_seconds:.3f}", "1.0x"),
            ("vectorized", f"{vec_seconds:.3f}", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 2.0, f"vectorized wormhole engine only {speedup:.1f}x faster"


def test_bench_flowcontrol_native_speedup(benchmark):
    """The compiled C flow engine vs the NumPy one on the same wormhole
    workload: bit-identical SimResults, and the native backend at least
    4x faster (7.5-9x measured on a 2-vCPU VM, best of five; the gate
    sits at about half the measured ratio, like the sf kernel's)."""
    from repro.network.backends import native as native_mod

    if native_mod.load_library()[0] is None:
        pytest.skip("no usable C toolchain for the native backend")
    topo = topology_of(("11", 10))  # Gamma_10: 144 nodes
    traffic = uniform_traffic(topo, 8000, 150, seed=42)
    sizes = flit_sizes(len(traffic), "1-6", seed=7)
    flow = FlowControl("wormhole", buffer_depth=4, num_vcs=2)

    def run(backend):
        return VectorizedSimulator(topo, backend=backend).run(
            traffic, switching=flow, flits=sizes
        )

    native_result = benchmark(lambda: run("native"))
    assert native_result == run("numpy")
    # best of five per backend: one stall must not fail the gate
    numpy_seconds = min(_timed(lambda: run("numpy"))[1] for _ in range(5))
    native_seconds = min(_timed(lambda: run("native"))[1] for _ in range(5))
    speedup = numpy_seconds / native_seconds
    print_table(
        "Flow engine backends (Gamma_10, 8k packets, 1-6 flits, wormhole)",
        ["backend", "seconds", "speedup"],
        [
            ("numpy", f"{numpy_seconds:.4f}", "1.0x"),
            ("native", f"{native_seconds:.4f}", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 4.0, f"native flow engine only {speedup:.1f}x faster"


def test_bench_flowcontrol_switching_comparison(benchmark):
    """Store-and-forward vs wormhole vs VCT on identical traffic: the
    multi-flit pipelined modes pay serialisation latency, bounded
    buffers cap queue depth (the README table)."""
    topo = topology_of(("11", 8))  # Gamma_8: 55 nodes
    traffic = uniform_traffic(topo, 1500, 96, seed=11)
    sim = VectorizedSimulator(topo, BfsRouter())

    def run_all():
        rows = []
        for label, flow, flits in [
            ("sf", "sf", 1),
            ("wormhole b2", FlowControl("wormhole", buffer_depth=2), 4),
            ("wormhole b8", FlowControl("wormhole", buffer_depth=8), 4),
            ("vct b8", FlowControl("vct", buffer_depth=8), 4),
        ]:
            res = sim.run(traffic, switching=flow, flits=flits)
            rows.append((label, res))
        return rows

    rows = benchmark(run_all)
    by_label = dict(rows)
    assert all(res.delivery_rate == 1.0 for _, res in rows)
    assert all(not res.deadlocked for _, res in rows)
    # 4-flit serialisation costs latency over single-flit store-and-forward
    assert by_label["wormhole b8"].avg_latency > by_label["sf"].avg_latency
    # shallower buffers stall the pipeline harder
    assert by_label["wormhole b2"].avg_latency >= by_label["wormhole b8"].avg_latency
    assert by_label["wormhole b2"].max_queue <= 2
    print_table(
        "Switching modes on Gamma_8 (1.5k packets; 4 flits for wormhole/vct)",
        ["mode", "avg lat", "max lat", "cycles", "max queue"],
        [
            (label, f"{res.avg_latency:.2f}", res.max_latency, res.cycles,
             res.max_queue)
            for label, res in rows
        ],
    )


def test_bench_flowcontrol_deadlock_demo(benchmark):
    """The acceptance demo: on Q_5(1010), BFS wormhole routing with one
    VC deadlocks (reported, cycles bounded) while e-cube delivers 100%
    of the identical traffic -- exactly what the static CDG analysis
    predicts for each router."""
    topo = topology_of(("1010", 5))
    n = topo.num_nodes
    ecube = DimensionOrderRouter()
    pairs = [
        (s, t)
        for s in range(n)
        for t in range(n)
        if s != t and ecube.route(topo, s, t) is not None
    ]
    traffic = [(0, s, t) for s, t in pairs]
    assert not is_deadlock_free(topo, BfsRouter(), pairs)
    assert is_deadlock_free(topo, ecube, pairs)
    flow = FlowControl("wormhole", buffer_depth=1, num_vcs=1)

    res_bfs = benchmark(
        lambda: VectorizedSimulator(topo, BfsRouter()).run(
            traffic, switching=flow, flits=4
        )
    )
    res_ecube = VectorizedSimulator(topo, ecube).run(
        traffic, switching=flow, flits=4
    )
    assert res_bfs.deadlocked and res_bfs.stalled > 0
    assert res_bfs.cycles < 100000  # reported, not hung
    assert not res_ecube.deadlocked
    assert res_ecube.delivery_rate == 1.0
    print_table(
        "Wormhole deadlock on Q_5(1010) (654 packets, 4 flits, 1 VC, depth-1 buffers)",
        ["router", "CDG acyclic", "deadlocked", "delivered", "stalled", "cycles"],
        [
            ("bfs", "no", res_bfs.deadlocked,
             f"{res_bfs.delivered}/{res_bfs.injected}", res_bfs.stalled,
             res_bfs.cycles),
            ("ecube", "yes", res_ecube.deadlocked,
             f"{res_ecube.delivered}/{res_ecube.injected}", res_ecube.stalled,
             res_ecube.cycles),
        ],
    )
