"""The sweep harness and the ``repro sweep`` CLI subcommand."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.network import sweep
from repro.network.collectives import run_collective
from repro.network.sweep import (
    CurvePoint,
    PointSpec,
    SweepRecord,
    _pack,
    expand_grid,
    nearest_rank_p95,
    normalize_spec,
    parse_topology,
    run_point,
    run_sweep,
    saturation_curves,
    stream_sweep,
    write_csv,
    write_json,
)


class TestParseTopology:
    def test_hypercube_specs(self):
        assert parse_topology("Q:4").num_nodes == 16
        assert parse_topology("hypercube:3").num_nodes == 8

    def test_factor_spec(self):
        topo = parse_topology("11:6")
        assert topo.name == "Q_6(11)"
        assert topo.num_nodes == 21  # F(8)

    def test_bad_specs(self):
        for spec in ("Q", "Q:x", "xyz:4", ":4"):
            with pytest.raises(ValueError):
                parse_topology(spec)

    def test_cached(self):
        assert parse_topology("Q:4") is parse_topology("Q:4")


class TestRunPoint:
    def test_single_point(self):
        rec = run_point(PointSpec(topology="11:5", load=0.3, inject_window=16))
        assert isinstance(rec, SweepRecord)
        assert rec.topology == "Q_5(11)"
        assert rec.injected == round(0.3 * rec.nodes * 16)
        assert rec.delivered == rec.injected
        assert rec.avg_latency >= 1.0
        assert 0 < rec.p95_latency <= rec.max_latency

    def test_unknown_router(self):
        with pytest.raises(ValueError, match="unknown router"):
            run_point(PointSpec(topology="Q:3", router="teleport"))

    def test_bad_load(self):
        with pytest.raises(ValueError, match="load"):
            run_point(PointSpec(topology="Q:3", load=0.0))


class TestNumericAxes:
    """``normalize_spec`` checks the numeric axes once, for
    ``expand_grid``'s cells and ``run_batch_points``' specs alike."""

    @pytest.mark.parametrize("axis", [
        dict(loads=[0]), dict(loads=[0.0]), dict(loads=[-0.2]),
        dict(loads=[float("nan")]), dict(loads=[float("inf")]),
        dict(loads=[float("-inf")]), dict(loads=[True]), dict(loads=["0.2"]),
        dict(seeds=[1.0]), dict(seeds=[True]), dict(seeds=["1"]),
        dict(inject_window=0), dict(inject_window=-8), dict(inject_window=8.0),
        dict(inject_window=True),
    ])
    def test_expand_grid_rejects_a_bad_value(self, axis):
        with pytest.raises(ValueError, match="load|seed|inject_window"):
            expand_grid(["Q:3"], **axis)

    def test_a_bad_value_in_a_collective_cell_is_rejected_too(self):
        with pytest.raises(ValueError, match="load"):
            expand_grid(["Q:3"], collectives=["broadcast"], loads=[0])

    def test_run_point_rejects_a_bad_spec(self):
        with pytest.raises(ValueError, match="seed"):
            run_point(PointSpec(topology="Q:3", seed=0.5))

    def test_values_are_stored_as_python_numbers(self):
        [spec] = expand_grid(
            ["Q:3"], loads=[1], seeds=[np.int64(2)], inject_window=np.int32(8)
        )
        assert (spec.load, spec.seed, spec.inject_window) == (1.0, 2, 8)
        assert (type(spec.load), type(spec.seed), type(spec.inject_window)) == (
            float, int, int,
        )
        assert spec == expand_grid(["Q:3"], loads=[1.0], seeds=[2], inject_window=8)[0]


class TestRawSpecs:
    """A raw spec runs, and is recorded, as its :func:`normalize_spec`
    form -- the form its cache key names -- so a cache warmed by either
    spelling answers the other with the record a fresh run gives."""

    @staticmethod
    def raw_specs():
        from repro.network.workloads import record_trace, trace_key

        trace = record_trace(
            "bg:uniform:0.2;fg:broadcast:0.4:2", "Q:3",
            parse_topology("Q:3"), 8, seed=1,
        )
        key = trace_key(trace)
        raws = [
            PointSpec("Q:3", collective="ring", pattern="uniform", load=0.6,
                      inject_window=8),
            PointSpec("Q:3", workload=f"trace:{key}", load=0.3),
        ]
        return raws, {key: trace}

    def test_raw_and_canonical_specs_give_one_record(self):
        raws, traces = self.raw_specs()
        for raw in raws:
            canon = normalize_spec(raw)
            assert (canon.pattern, canon.load) == ("-", 1.0) != (raw.pattern, raw.load)
            rec = run_point(raw, traces=traces)
            assert rec == run_point(canon, traces=traces)
            assert (rec.pattern, rec.load) == ("-", 1.0)

    def test_a_cache_warmed_by_one_spelling_answers_the_other(self, tmp_path):
        from repro.network.service import ResultCache

        raws, traces = self.raw_specs()
        for n, raw in enumerate(raws):
            canon = normalize_spec(raw)
            for m, (first, second) in enumerate(((raw, canon), (canon, raw))):
                cache = ResultCache(tmp_path / f"{n}-{m}")
                [(_, [stored], cached)] = stream_sweep(
                    [first], cache=cache, traces=traces)
                assert not cached
                [(_, [served], cached)] = stream_sweep(
                    [second], cache=cache, traces=traces)
                assert cached
                assert served == stored == run_point(second, traces=traces)

    def test_collective_workload_spec_is_rejected(self):
        spec = PointSpec("Q:3", collective="ring", workload="a:uniform:0.2")
        with pytest.raises(ValueError, match="both a collective and a workload"):
            run_point(spec)


class TestNearestRankP95:
    def test_twenty_samples_give_the_19th_value_not_the_max(self):
        """Regression: the old ``(95 * n) // 100`` index returned the max
        for n = 20 (index 19); nearest rank is the 19th value (index 18)."""
        assert nearest_rank_p95(list(range(1, 21))) == 19.0

    def test_exact_percentile_boundaries(self):
        assert nearest_rank_p95(list(range(1, 101))) == 95.0
        assert nearest_rank_p95([7]) == 7.0
        assert nearest_rank_p95([3, 1, 2]) == 3.0  # sorts internally

    def test_empty_sample_is_defined_as_zero(self):
        """The documented contract for zero-delivered points: an empty
        latency sample reports 0.0, for both list and tuple inputs."""
        assert nearest_rank_p95([]) == 0.0
        assert nearest_rank_p95(()) == 0.0

    def test_never_exceeds_the_max(self):
        for n in range(1, 60):
            lat = list(range(n))
            assert nearest_rank_p95(lat) <= max(lat)

    @staticmethod
    def _by_sorting(lat):
        """The definition, spelled out: the ``ceil(0.95 n)``-th smallest
        value of the sorted sample, 0.0 for an empty one."""
        if not lat:
            return 0.0
        return float(sorted(lat)[(95 * len(lat) + 99) // 100 - 1])

    def test_matches_the_sorted_definition_for_every_small_n(self):
        """Every sample size from 1 to 60, shuffled and with repeats,
        picks the same value as sorting would."""
        rng = np.random.default_rng(95)
        for n in range(1, 61):
            for hi in (3, 1000):
                lat = rng.integers(0, hi, size=n).tolist()
                assert nearest_rank_p95(lat) == self._by_sorting(lat), lat
                assert nearest_rank_p95(tuple(lat)) == self._by_sorting(lat)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=300))
    def test_matches_the_sorted_definition(self, lat):
        assert nearest_rank_p95(lat) == self._by_sorting(lat)


class TestZeroDeliveredPoints:
    def test_all_destinations_dead_reports_zero_latencies(self):
        """Every packet routed to a node dead at cycle 0 drops at
        injection: delivered == 0 with injected > 0 must condense to 0.0
        latency columns, not an IndexError mid-grid."""
        rec = run_point(PointSpec(
            topology="Q:2", load=1.0, inject_window=8,
            faults="n1,n2,n3",
        ))
        assert rec.injected > 0
        assert rec.delivered == 0
        assert rec.delivery_rate == 0.0
        assert rec.avg_latency == 0.0
        assert rec.p95_latency == 0.0
        assert rec.max_latency == 0

    def test_all_sources_dead_is_an_empty_point(self):
        """Killing every node silences every source: nothing is even
        injected, and the point still condenses cleanly."""
        rec = run_point(PointSpec(
            topology="Q:2", load=1.0, inject_window=8,
            faults="n0,n1,n2,n3",
        ))
        assert rec.injected == 0 and rec.delivered == 0
        assert rec.p95_latency == 0.0
        # delivery_rate is vacuously 1.0 on an empty point (0 of 0)
        assert rec.delivery_rate == 1.0


class TestCollectiveAxis:
    def test_broadcast_point(self):
        rec = run_point(PointSpec(topology="Q:4", collective="broadcast"))
        assert rec.collective == "broadcast"
        assert rec.pattern == "-"
        assert rec.rounds == rec.round_bound == 4
        assert rec.injected == rec.delivered == 15  # n - 1 tree messages
        assert rec.delivery_rate == 1.0

    def test_seed_picks_the_root(self):
        """The record must match a direct run_collective at root = seed
        mod n -- comparing outcome fields, not the seed column itself."""
        from repro.network.collectives import run_collective
        from repro.network.sweep import parse_topology as pt

        topo = pt("11:6")
        rec = run_point(PointSpec(topology="11:6", collective="broadcast", seed=5))
        res = run_collective(topo, "broadcast", root=5 % topo.num_nodes)
        assert rec.rounds == res.rounds
        assert rec.cycles == res.result.cycles
        assert rec.avg_latency == res.result.avg_latency
        assert rec.injected == res.result.injected

    def test_pattern_points_have_no_rounds(self):
        rec = run_point(PointSpec(topology="Q:3", load=0.3, inject_window=8))
        assert rec.collective == "" and rec.rounds == 0 and rec.round_bound == 0

    def test_collective_grid_normalises_pattern_and_load_axes(self):
        """One collective entry contributes exactly one point per
        (topology, router, seed) cell, regardless of the pattern/load
        grid around it."""
        records = run_sweep(
            ["Q:4"], patterns=("uniform", "tornado"), loads=(0.2, 0.5),
            collectives=("", "broadcast"), inject_window=8,
        )
        pattern_recs = [r for r in records if not r.collective]
        coll_recs = [r for r in records if r.collective]
        assert len(pattern_recs) == 2 * 2
        assert len(coll_recs) == 1
        assert coll_recs[0].load == 1.0 and coll_recs[0].pattern == "-"
        curves = saturation_curves(records)
        assert len(curves) == 3
        coll_keys = [k for k in curves if k[5]]
        assert coll_keys == [("Q_4", "bfs", "-", "", "", "broadcast")]
        (point,) = curves[coll_keys[0]]
        assert point.rounds == 4.0 and point.round_bound == 4

    def test_collective_under_wormhole_and_faults(self):
        rec = run_point(PointSpec(
            topology="11:5", collective="allgather", faults="n2@3",
            switching="wormhole", num_vcs=2, buffer_depth=4, flits="1-4",
        ))
        assert rec.collective == "allgather"
        assert rec.rounds > rec.round_bound  # tree fallback: gather + scatter
        assert rec.dropped > 0  # the dead node loses tree messages
        assert not rec.deadlocked

    def test_unknown_collective_raises_eagerly(self):
        with pytest.raises(ValueError, match="unknown collective"):
            run_point(PointSpec(topology="Q:3", collective="gossip"))
        with pytest.raises(ValueError, match="unknown collective"):
            run_sweep(["Q:3"], collectives=("gossip",))

    def test_collective_points_are_reproducible(self):
        spec = PointSpec(topology="11:5", collective="ring", seed=3)
        assert run_point(spec) == run_point(spec)


class TestSeedAggregation:
    def test_multi_seed_points_aggregate_not_interleave(self):
        records = run_sweep(
            ["11:5"], loads=(0.2, 0.5), seeds=(0, 1, 2), inject_window=16
        )
        assert len(records) == 2 * 3
        curves = saturation_curves(records)
        assert len(curves) == 1
        (curve,) = curves.values()
        # one aggregated point per load, not one per (load, seed)
        assert [p.load for p in curve] == [0.2, 0.5]
        for point in curve:
            assert isinstance(point, CurvePoint)
            assert point.seeds == 3
            cell = [r for r in records if r.load == point.load]
            lats = [r.avg_latency for r in cell]
            assert min(lats) <= point.avg_latency <= max(lats)
            assert point.std_avg_latency >= 0.0
            assert point.max_queue == max(r.max_queue for r in cell)

    def test_single_seed_std_is_zero(self):
        records = run_sweep(["Q:4"], loads=(0.3,), inject_window=8)
        (curve,) = saturation_curves(records).values()
        assert curve[0].seeds == 1
        assert curve[0].std_avg_latency == 0.0
        assert curve[0].std_throughput == 0.0


class TestFaultAxis:
    def test_degradation_grid(self):
        records = run_sweep(
            ["11:6"],
            routers=("adaptive",),
            loads=(0.2, 0.5),
            faults=("", "rand2s3", "rand4s3"),
            inject_window=16,
        )
        assert len(records) == 2 * 3
        by_plan = {r.faults: r for r in records if r.load == 0.5}
        assert by_plan[""].num_faults == 0
        assert by_plan["rand2s3"].num_faults == 2
        assert by_plan["rand4s3"].num_faults == 4
        # graceful degradation: faults can only lose traffic, never gain
        assert by_plan["rand4s3"].delivered <= by_plan[""].delivered
        assert by_plan[""].dropped == 0
        curves = saturation_curves(records)
        assert len(curves) == 3  # one curve per fault plan

    def test_fault_point_is_reproducible(self):
        spec = PointSpec(
            topology="11:5", router="adaptive", load=0.4,
            inject_window=16, faults="n2,l0-1@9",
        )
        assert run_point(spec) == run_point(spec)

    def test_eager_fault_validation(self):
        with pytest.raises(ValueError, match="fault token"):
            run_sweep(["Q:3"], faults=("bogus",))
        with pytest.raises(ValueError, match="out of range"):
            run_sweep(["Q:3"], faults=("n99",))


class TestFlowControlAxis:
    def test_wormhole_point(self):
        rec = run_point(PointSpec(
            topology="11:5", load=0.3, inject_window=16,
            switching="wormhole", num_vcs=2, buffer_depth=4, flits="1-4",
        ))
        assert rec.switching == "wormhole"
        assert rec.num_vcs == 2 and rec.buffer_depth == 4
        assert rec.flits == "1-4"
        assert rec.delivered == rec.injected
        assert not rec.deadlocked and rec.stalled == 0
        assert rec.max_queue <= 4

    def test_sf_points_are_normalised_and_deduped(self):
        """A mixed grid never re-runs identical store-and-forward points
        across the vcs/buffers/flits axes."""
        records = run_sweep(
            ["11:5"], loads=(0.2,), inject_window=8,
            switching=("sf", "wormhole"), buffers=(2, 8), flits=("2",),
        )
        sf = [r for r in records if r.switching == "sf"]
        worm = [r for r in records if r.switching == "wormhole"]
        assert len(sf) == 1 and len(worm) == 2
        assert sf[0].buffer_depth == 0 and sf[0].flits == "1"

    def test_wormhole_latency_exceeds_sf_on_the_same_cell(self):
        """Multi-flit serialisation costs cycles: the wormhole curve sits
        above the single-flit store-and-forward curve."""
        records = run_sweep(
            ["11:6"], loads=(0.4,), inject_window=16, seeds=(0,),
            switching=("sf", "wormhole"), buffers=(4,), flits=("4",),
        )
        by_mode = {r.switching: r for r in records}
        assert by_mode["wormhole"].avg_latency > by_mode["sf"].avg_latency

    def test_curves_key_on_flow_tag(self):
        records = run_sweep(
            ["11:5"], loads=(0.2, 0.4), inject_window=8,
            switching=("sf", "wormhole"), vcs=(1, 2), flits=("2",),
        )
        curves = saturation_curves(records)
        # one sf curve + one wormhole curve per VC count
        assert len(curves) == 3
        tags = {key[4] for key in curves}
        assert "" in tags
        assert "wormhole:v1:b4:f2" in tags and "wormhole:v2:b4:f2" in tags
        for key, curve in curves.items():
            assert [p.load for p in curve] == [0.2, 0.4]
            for point in curve:
                assert point.deadlock_rate in (0.0, 1.0)

    def test_deadlocked_point_is_recorded_not_hung(self):
        """A saturating single-VC wormhole burst on the non-isometric
        Q_5(1010) deadlocks under BFS routing; the sweep records it."""
        rec = run_point(PointSpec(
            topology="1010:5", router="bfs", load=20.0, inject_window=1,
            switching="wormhole", num_vcs=1, buffer_depth=1, flits="4",
        ))
        assert rec.deadlocked
        assert rec.stalled > 0
        assert rec.delivered + rec.dropped + rec.stalled == rec.injected

    def test_eager_flow_validation(self):
        with pytest.raises(ValueError, match="unknown switching mode"):
            run_sweep(["Q:3"], switching=("warp",))
        with pytest.raises(ValueError, match="buffer_depth"):
            run_sweep(["Q:3"], switching=("wormhole",), buffers=(0,))
        with pytest.raises(ValueError, match="flits"):
            run_sweep(["Q:3"], switching=("wormhole",), flits=("9-2",))


class TestBatchAxis:
    GRID = dict(
        topologies=["Q:4", "11:5"],
        patterns=("uniform", "tornado"),
        loads=(0.2, 0.5),
        seeds=(0, 1),
        inject_window=8,
    )

    def test_batched_records_are_bit_identical(self):
        serial = run_sweep(**self.GRID)
        assert run_sweep(batch=16, **self.GRID) == serial
        # 8 points per topology co-batch together
        assert [len(t) for t in _pack(expand_grid(**self.GRID), 16)] == [8, 8]

    def test_batch_chunks_to_the_requested_size(self):
        # 8 points per topology chunk as 3 + 3 + 2
        tasks = _pack(expand_grid(**self.GRID), 3)
        assert [len(t) for t in tasks] == [3, 3, 2] * 2

    def test_batched_multiprocessing_matches_serial(self):
        assert run_sweep(batch=4, processes=2, **self.GRID) == run_sweep(
            batch=4, **self.GRID
        )

    def test_collective_points_pack_with_open_loop_points(self, monkeypatch):
        """Collective points join the pack of their (topology, cycle
        cap): the pack's open-loop points run as one kernel batch, then
        round r of every collective in it is one more -- 1 + max(rounds)
        run_batch calls, where running each collective alone took
        rounds + 1 calls per point."""
        from repro.network.simulator import VectorizedSimulator

        grid = dict(
            topologies=["11:5"], patterns=("uniform",), loads=(0.2, 0.4),
            switching=("sf", "wormhole"), flits=("2",),
            collectives=("", "broadcast"), inject_window=8,
        )
        specs = expand_grid(**grid)
        [task] = _pack(specs, 8)
        assert sorted(bool(specs[i].collective) for i in task) == (
            [False] * 4 + [True] * 2
        )
        serial = run_sweep(**grid)
        calls = []
        real = VectorizedSimulator.run_batch

        def counted(self, items, max_cycles=100000):
            calls.append(len(items))
            return real(self, items, max_cycles)

        monkeypatch.setattr(VectorizedSimulator, "run_batch", counted)
        assert run_sweep(batch=8, **grid) == serial
        rounds = max(r.rounds for r in serial if r.collective)
        assert calls == [4] + [2] * rounds

    def test_batched_faulted_grid_matches(self):
        grid = dict(
            topologies=["11:5"], routers=("adaptive", "bfs"),
            loads=(0.2, 0.5), faults=("", "rand2s3"), inject_window=16,
        )
        assert run_sweep(batch=8, **grid) == run_sweep(**grid)

    def test_bad_batch_raises(self):
        with pytest.raises(ValueError, match="batch"):
            run_sweep(["Q:3"], batch=0)


class TestStreamSweep:
    GRID = dict(
        topologies=["Q:3"], patterns=("uniform",), loads=(0.2, 0.4),
        seeds=(0, 1), inject_window=8,
    )

    def test_hits_come_first_then_tasks_in_grid_order(self, tmp_path):
        from repro.network.service import ResultCache

        cache = ResultCache(tmp_path)
        run_sweep(cache=cache, **dict(self.GRID, seeds=(1,)))
        groups = list(stream_sweep(expand_grid(**self.GRID), 1, cache))
        # grid order is (load, seed): the seed-1 cells 1 and 3 are warm
        assert [(cells, cached) for cells, _, cached in groups] == [
            ([1, 3], True), ([0], False), ([2], False),
        ]
        by_index = {
            i: rec for cells, records, _ in groups
            for i, rec in zip(cells, records)
        }
        assert [by_index[i] for i in range(4)] == run_sweep(**self.GRID)
        assert cache.stores == 2 + 2

    def test_closing_cancels_the_unstarted_tasks(self, tmp_path, monkeypatch):
        """Closed after its first group, the stream stores nothing more
        and its executor runs only the task already in flight."""
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.network.service import ResultCache

        calls = []
        in_flight = threading.Event()
        real = sweep.run_batch_points

        def gated(specs, **kwargs):
            calls.append(len(specs))
            if len(calls) == 2:  # hold the second task until the close
                in_flight.wait(timeout=30)
            return real(specs, **kwargs)

        monkeypatch.setattr(sweep, "run_batch_points", gated)
        specs = expand_grid(**TestBatchAxis.GRID)
        cache = ResultCache(tmp_path)
        with ThreadPoolExecutor(1) as pool:
            stream = stream_sweep(specs, 1, cache, pool)
            cells, _, cached = next(stream)
            assert (len(cells), cached) == (1, False)
            stream.close()
            in_flight.set()
        assert len(cache) == cache.stores == 1 < len(specs)
        assert len(calls) == 2

    @pytest.mark.parametrize("batch", [0, -2])
    def test_batch_below_one_raises_before_any_cache_read(self, batch):
        """Regression: ``stream_sweep(specs, batch=0)`` failed inside
        ``_pack`` with ``range() arg 3 must not be zero``; the one loop
        that ``run_sweep`` and the sweep server share now names it."""

        class NoCache:
            def get(self, spec):
                raise AssertionError("read the cache before checking batch")

        specs = expand_grid(**self.GRID)
        with pytest.raises(ValueError, match="batch must be at least 1"):
            next(stream_sweep(specs, batch, NoCache()))


class TestRunSweep:
    def test_grid_shape(self):
        records = run_sweep(
            ["Q:4", "11:4"],
            patterns=("uniform", "tornado"),
            loads=(0.2, 0.5),
            inject_window=8,
        )
        assert len(records) == 2 * 2 * 2
        curves = saturation_curves(records)
        assert len(curves) == 4
        for curve in curves.values():
            assert [r.load for r in curve] == [0.2, 0.5]

    def test_latency_grows_with_load(self):
        records = run_sweep(
            ["11:7"], patterns=("hotspot",), loads=(0.05, 0.9), inject_window=32
        )
        low, high = records
        assert high.avg_latency > low.avg_latency
        assert high.max_queue >= low.max_queue

    def test_multiprocessing_matches_serial(self):
        kwargs = dict(
            topologies=["Q:4", "11:5"],
            patterns=("uniform", "bursty"),
            loads=(0.3,),
            inject_window=8,
        )
        assert run_sweep(**kwargs) == run_sweep(processes=2, **kwargs)

    def test_eager_validation(self):
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            run_sweep(["Q:3"], patterns=("nope",))
        with pytest.raises(ValueError, match="unknown router"):
            run_sweep(["Q:3"], routers=("nope",))

    @pytest.mark.parametrize("bad", [7.5, 100.0, "100", True])
    def test_non_integer_max_cycles_fails_up_front(self, bad):
        """A float, string or bool cap is rejected while the grid
        expands, on every backend alike, instead of reaching a kernel
        (or a record's int ``cycles`` column)."""
        with pytest.raises(ValueError, match="max_cycles must be an integer"):
            expand_grid(["11:4"], loads=[0.2], max_cycles=bad)
        with pytest.raises(ValueError, match="max_cycles must be an integer"):
            run_sweep(topologies=["11:4"], loads=[0.2], max_cycles=bad)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cycle_cap_below_one_fails_up_front(self, cap):
        """Regression: ``expand_grid(["Q:3"], max_cycles=-5)`` returned a
        spec that ran with every packet stalled at ``cycles=1``, and the
        service cached each such cap under its own key."""
        with pytest.raises(ValueError, match="max_cycles must be at least 1"):
            expand_grid(["Q:3"], max_cycles=cap)
        with pytest.raises(ValueError, match="max_cycles must be at least 1"):
            run_collective("broadcast", parse_topology("Q:3"), max_cycles=cap)

    def test_numpy_integer_max_cycles_is_normalised(self):
        [spec] = expand_grid(["11:4"], loads=[0.2], max_cycles=np.int64(50))
        assert type(spec.max_cycles) is int and spec.max_cycles == 50


class TestWriters:
    @pytest.fixture(scope="class")
    def records(self):
        return run_sweep(["Q:3"], loads=(0.2, 0.4), inject_window=8)

    def test_csv_roundtrip(self, records, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(records, str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(records)
        assert rows[0]["topology"] == "Q_3"
        assert float(rows[0]["load"]) == 0.2

    def test_json_roundtrip(self, records, tmp_path):
        path = tmp_path / "out.json"
        write_json(records, str(path))
        data = json.loads(path.read_text())
        assert len(data) == len(records)
        assert data[0]["nodes"] == 8


class TestSweepCli:
    def test_fibonacci_vs_hypercube_four_patterns(self, tmp_path, capsys):
        """The acceptance scenario: Fibonacci cube vs hypercube saturation
        curves under four traffic patterns, dumped to CSV."""
        csv_path = tmp_path / "curves.csv"
        rc = main([
            "sweep",
            "--topo", "Q:5",
            "--topo", "11:5",
            "--patterns", "uniform,transpose,tornado,hotspot",
            "--loads", "0.1,0.4",
            "--window", "16",
            "--csv", str(csv_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Q_5 / bfs / uniform" in out
        assert "Q_5(11) / bfs / tornado" in out
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 4 * 2
        assert {r["topology"] for r in rows} == {"Q_5", "Q_5(11)"}
        assert {r["pattern"] for r in rows} == {
            "uniform", "transpose", "tornado", "hotspot"
        }

    def test_faults_axis_cli(self, tmp_path, capsys):
        csv_path = tmp_path / "degradation.csv"
        rc = main([
            "sweep",
            "--topo", "11:5",
            "--routers", "adaptive",
            "--patterns", "uniform",
            "--loads", "0.2,0.5",
            "--faults", "rand2s3",
            "--window", "16",
            "--csv", str(csv_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults[rand2s3]" in out
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["faults"] for r in rows} == {"rand2s3"}
        assert {r["num_faults"] for r in rows} == {"2"}
        assert "dropped" in rows[0] and "misroutes" in rows[0]

    def test_switching_axis_cli(self, tmp_path, capsys):
        csv_path = tmp_path / "flow.csv"
        rc = main([
            "sweep",
            "--topo", "11:5",
            "--patterns", "uniform",
            "--loads", "0.2,0.5",
            "--switching", "sf,wormhole",
            "--vcs", "2",
            "--buffer", "4",
            "--flits", "1-4",
            "--window", "16",
            "--csv", str(csv_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wormhole:v2:b4:f1-4" in out
        assert "dlock" in out
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["switching"] for r in rows} == {"sf", "wormhole"}
        assert "stalled" in rows[0] and "deadlocked" in rows[0]

    def test_collective_axis_cli(self, tmp_path, capsys):
        csv_path = tmp_path / "coll.csv"
        rc = main([
            "sweep",
            "--topo", "Q:4",
            "--topo", "11:5",
            "--collective", "broadcast",
            "--collective", "alltoall",
            "--seeds", "0,1",
            "--csv", str(csv_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "coll[broadcast: 4 rounds, bound 4]" in out
        assert "coll[alltoall:" in out
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2  # topo x collective x seed
        assert {r["collective"] for r in rows} == {"broadcast", "alltoall"}
        assert all(int(r["rounds"]) >= int(r["round_bound"]) for r in rows)

    def test_bad_collective_is_a_clean_error(self, capsys):
        rc = main(["sweep", "--topo", "Q:3", "--collective", "gossip"])
        assert rc == 2
        assert "collective" in capsys.readouterr().err

    def test_bad_switching_is_a_clean_error(self, capsys):
        rc = main(["sweep", "--topo", "Q:3", "--switching", "warp"])
        assert rc == 2
        assert "switching" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cycle_cap_below_one_is_a_clean_error(self, capsys, cap):
        rc = main(["sweep", "--topo", "Q:3", "--max-cycles", cap])
        assert rc == 2
        assert "max_cycles must be at least 1" in capsys.readouterr().err

    def test_bad_fault_spec_is_a_clean_error(self, capsys):
        rc = main(["sweep", "--topo", "Q:3", "--faults", "wat"])
        assert rc == 2
        assert "fault token" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        json_path = tmp_path / "r.json"
        rc = main([
            "sweep", "--topo", "Q:4", "--patterns", "uniform",
            "--loads", "0.3", "--window", "8", "--json", str(json_path),
        ])
        assert rc == 0
        assert len(json.loads(json_path.read_text())) == 1
