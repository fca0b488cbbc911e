"""N2 -- saturation-curve sweeps (the evaluation the 1993 papers plot).

Drives the sweep harness over a Fibonacci-cube-vs-hypercube grid across
four traffic patterns and rising offered load, checks the physics
(latency monotone in load, hotspot worse than uniform), and times the
grid as one benchmark unit.

The batched-sweep gates (``test_bench_sweep_batched_speedup`` on the
store-and-forward grid, ``test_bench_sweep_batched_flow_speedup`` on a
wormhole grid) are the acceptance claims of the batch axis: packing a
multi-seed grid into lock-step
:meth:`~repro.network.simulator.VectorizedSimulator.run_batch` runs must
deliver at least 1.5x (store-and-forward) and 3x (wormhole) the sweep
throughput of the point-by-point harness (one-item batches) while
producing bit-identical records -- and since the fused kernel batches
every switching mode natively, the claim holds for flow-control points
too.  ``test_bench_sweep_warm_cache`` is the sweep-service cache's
acceptance claim: a warm content-addressed cache answers the whole grid
without simulating a single point.  These are *timing* gates and belong
to the benchmark-regression CI job (uploaded as ``BENCH_batch.json``),
not the untimed smoke pass.
"""

import time
from typing import Tuple

from repro.network.sweep import _pack, expand_grid, run_sweep, saturation_curves

from conftest import print_table

GRID = dict(
    topologies=["Q:6", "11:6"],
    patterns=("uniform", "transpose", "tornado", "hotspot"),
    loads=(0.1, 0.3, 0.6),
    inject_window=32,
)

# the standard grid replicated over four seeds: the K-replication shape
# the batch axis exists for (96 points, 48 co-batched per topology)
SEEDED_GRID = dict(GRID, seeds=(0, 1, 2, 3))
BATCH = 48

# a wormhole grid of the same replicated shape: finite buffers, 2 VCs,
# 2-flit packets (32 points, 16 co-batched per topology)
FLOW_GRID = dict(
    topologies=["Q:6", "11:6"],
    patterns=("uniform", "transpose"),
    loads=(0.1, 0.3),
    seeds=(0, 1, 2, 3),
    switching=("wormhole",),
    vcs=(2,),
    buffers=(4,),
    flits=("2",),
    inject_window=32,
)
FLOW_BATCH = 16


def test_bench_n2_saturation_grid(benchmark):
    records = benchmark(run_sweep, **GRID)
    assert len(records) == 2 * 4 * 3
    curves = saturation_curves(records)
    rows = []
    for (topo, router, pattern, faults, flow, coll), curve in sorted(curves.items()):
        # latency can only stay flat or grow as offered load rises
        lats = [r.avg_latency for r in curve]
        assert lats[-1] >= lats[0] * 0.95, (topo, pattern, lats)
        rows.append(
            (topo, pattern,
             " -> ".join(f"{r.avg_latency:.1f}" for r in curve),
             f"{curve[-1].delivery_rate:.3f}")
        )
    print_table(
        "Avg latency across offered loads 0.1 -> 0.3 -> 0.6",
        ["topology", "pattern", "avg latency", "delivery@0.6"],
        rows,
    )
    # hotspot concentrates at one node: worse than uniform at equal load
    for topo in ("Q_6", "Q_6(11)"):
        hot = curves[(topo, "bfs", "hotspot", "", "", "")][-1]
        uni = curves[(topo, "bfs", "uniform", "", "", "")][-1]
        assert hot.avg_latency > uni.avg_latency, topo


def test_bench_n2_parallel_matches_serial(benchmark):
    serial = run_sweep(["11:5"], patterns=("uniform",), loads=(0.2, 0.4),
                       inject_window=16)
    parallel = benchmark(
        run_sweep, ["11:5"], patterns=("uniform",), loads=(0.2, 0.4),
        inject_window=16, processes=2,
    )
    assert parallel == serial


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _best_interleaved(seq, bat, pairs: int = 5) -> Tuple[float, float]:
    """Best seconds of each leg over ``pairs`` alternating (sequential,
    batched) runs: a slow stretch of a shared machine then hits both
    legs alike instead of one whole side, and one noisy-neighbour stall
    cannot fail the gate in either direction."""
    seq_s, bat_s = [], []
    for _ in range(pairs):
        seq_s.append(_timed(seq))
        bat_s.append(_timed(bat))
    return min(seq_s), min(bat_s)


def test_bench_sweep_batched_speedup(benchmark):
    """The batch-axis acceptance gate: the standard multi-seed grid runs
    at least 1.5x faster co-batched than point-by-point, with records
    bit-identical.

    With array-native traffic and route tables a solo point costs
    ~1 ms, and on the native backend the ratio measures ~2.0x (numpy
    backend: ~5x), with single readings down to 1.7-1.8x on a 2-vCPU
    machine even with interleaved timing.  A gate at the measured floor
    therefore flakes; 1.5x sits halfway between "batching lost" (~1.0x)
    and the measured ~2.0x, so it still fails when batching stops
    paying."""
    unbatched = run_sweep(**SEEDED_GRID)
    batched = benchmark(lambda: run_sweep(batch=BATCH, **SEEDED_GRID))
    assert batched == unbatched

    seq_seconds, bat_seconds = _best_interleaved(
        lambda: run_sweep(**SEEDED_GRID),
        lambda: run_sweep(batch=BATCH, **SEEDED_GRID),
    )
    speedup = seq_seconds / bat_seconds
    print_table(
        f"Sweep throughput, standard grid x 4 seeds ({len(unbatched)} points)",
        ["harness", "seconds", "points/s", "speedup"],
        [
            ("point-by-point", f"{seq_seconds:.3f}",
             f"{len(unbatched) / seq_seconds:.0f}", "1.0x"),
            (f"batched (K<={BATCH})", f"{bat_seconds:.3f}",
             f"{len(unbatched) / bat_seconds:.0f}", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 1.5, f"batched sweep only {speedup:.1f}x faster"


def test_bench_sweep_batched_flow_speedup(benchmark, monkeypatch):
    """The flow-control half of the batch-axis acceptance gate: a
    wormhole multi-seed grid -- credit backpressure, VC allocation and
    multi-flit packets all live -- must also run at least 3x faster
    co-batched than point-by-point, bit-identical.  Before the fused
    kernel these points fell back to the sequential path; this gate
    keeps them natively batched.

    Both timed arms run the NumPy flow engine, whose per-step dispatch
    cost is what batching amortises (~4x).  The C flow engine has almost
    no per-step cost left to amortise (point by point ~30 ms, batched
    ~16 ms on a 2-vCPU VM), so on the native backend the gate asserts
    the batching itself instead: 2 kernel calls of 16 runs, not 32 of 1.
    The benchmark row times the batched grid on the default backend."""
    grid = dict(FLOW_GRID, backend="numpy")
    unbatched = run_sweep(**grid)
    batched = benchmark(lambda: run_sweep(batch=FLOW_BATCH, **FLOW_GRID))
    assert batched == unbatched

    from repro.network import simulator
    from repro.network.backends import native as native_mod

    if native_mod.load_library()[0] is not None:
        calls = []
        fused = simulator.run_fused

        def counted(topo, runs, *args, **kwargs):
            calls.append(len(runs))
            return fused(topo, runs, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(simulator, "run_fused", counted)
            native = dict(FLOW_GRID, backend="native")
            assert run_sweep(batch=FLOW_BATCH, **native) == unbatched
            assert calls == [FLOW_BATCH, FLOW_BATCH]
            calls.clear()
            run_sweep(**native)
            assert calls == [1] * len(unbatched)

    seq_seconds, bat_seconds = _best_interleaved(
        lambda: run_sweep(**grid),
        lambda: run_sweep(batch=FLOW_BATCH, **grid),
    )
    speedup = seq_seconds / bat_seconds
    print_table(
        f"Sweep throughput, wormhole grid x 4 seeds ({len(unbatched)} points,"
        " NumPy flow engine)",
        ["harness", "seconds", "points/s", "speedup"],
        [
            ("point-by-point", f"{seq_seconds:.3f}",
             f"{len(unbatched) / seq_seconds:.0f}", "1.0x"),
            (f"batched (K<={FLOW_BATCH})", f"{bat_seconds:.3f}",
             f"{len(unbatched) / bat_seconds:.0f}", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 3.0, f"batched wormhole sweep only {speedup:.1f}x faster"


def test_bench_sweep_warm_cache(benchmark, tmp_path):
    """The sweep-service cache acceptance gate: with a warm
    content-addressed cache, repeating the full multi-seed grid
    re-simulates *zero* points (the stores counter does not move) and
    the repeat is a pure disk read -- at least 3x faster than the cold
    batched fill it replays, in practice orders of magnitude.  Records
    stay bit-identical to the uncached harness."""
    from repro.network.service import ResultCache

    cache = ResultCache(tmp_path / "cache")
    cold_seconds = _timed(lambda: run_sweep(cache=cache, batch=BATCH, **SEEDED_GRID))
    cold_stores = cache.stores
    warm = benchmark(lambda: run_sweep(cache=cache, **SEEDED_GRID))
    assert cache.stores == cold_stores, "warm repeat re-simulated points"
    assert warm == run_sweep(**SEEDED_GRID)

    warm_seconds = min(
        _timed(lambda: run_sweep(cache=cache, **SEEDED_GRID)) for _ in range(3)
    )
    assert cache.stores == cold_stores
    speedup = cold_seconds / warm_seconds
    print_table(
        f"Warm-cache repeat, standard grid x 4 seeds ({len(warm)} points)",
        ["harness", "seconds", "points/s", "speedup"],
        [
            ("cold (batched fill)", f"{cold_seconds:.3f}",
             f"{len(warm) / cold_seconds:.0f}", "1.0x"),
            ("warm (pure cache)", f"{warm_seconds:.3f}",
             f"{len(warm) / warm_seconds:.0f}", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 3.0, f"warm-cache repeat only {speedup:.1f}x faster"


def test_bench_sweep_backend_identity(benchmark):
    """Backend neutrality at sweep scale: the whole standard grid,
    batched, produces bit-identical records under the NumPy and native
    kernels (the backend is not an axis, it is an implementation)."""
    from repro.network.backends import native as native_mod

    if native_mod.load_library()[0] is None:
        import pytest

        pytest.skip("no usable C toolchain for the native backend")

    via_numpy = run_sweep(batch=BATCH, backend="numpy", **SEEDED_GRID)
    via_native = benchmark(
        lambda: run_sweep(batch=BATCH, backend="native", **SEEDED_GRID)
    )
    assert via_native == via_numpy


def test_bench_batched_grid_with_faults_matches(benchmark):
    """Batching must survive the awkward axes too: a mixed grid with a
    fault plan and multiple routers produces identical records batched
    or not (faulted points co-batch -- only their route tables stay
    per-point)."""
    grid = dict(
        topologies=["11:6"], patterns=("uniform", "hotspot"),
        routers=("bfs", "adaptive"), loads=(0.2, 0.5),
        faults=("", "rand2s3"), inject_window=16,
    )
    serial = run_sweep(**grid)
    batched = benchmark(lambda: run_sweep(batch=16, **grid))
    assert batched == serial
    assert [len(t) for t in _pack(expand_grid(**grid), 16)] == [16]
