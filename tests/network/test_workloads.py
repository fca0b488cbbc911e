"""Multi-tenant trace-driven workloads: grammar, arbitration, traces,
per-tenant accounting, and the sweep integration.

The bit-identity contract extends to workload points: the reference and
vectorized engines must agree on every per-tenant statistic, a batched
run must match its sequential decomposition, and a two-tenant overlay
sweep must produce byte-identical records through every backend, cached
or not (the PR's acceptance gate).
"""

import json
import math

import pytest

from repro.network.backends import native as native_mod
from repro.network.faults import FaultPlan
from repro.network.service import ResultCache
from repro.network.simulator import ReferenceSimulator, VectorizedSimulator
from repro.network.sweep import (
    PointSpec,
    _pack,
    expand_grid,
    normalize_spec,
    parse_topology,
    run_batch_points,
    run_point,
    run_sweep,
    saturation_curves,
    write_csv,
)
from repro.network.workloads import (
    TENANT_SEED_STRIDE,
    TenantSpec,
    TenantStats,
    Workload,
    canonical_workload,
    compile_trace,
    compile_workload,
    encode_tenant_column,
    parse_workload,
    read_trace,
    record_trace,
    tenant_stats_of,
    trace_key,
    write_trace,
)

NATIVE_OK = native_mod.load_library()[0] is not None

TWO_TENANTS = "bg:uniform:0.2;fg:broadcast:0.4:2;rate=1"


class TestWorkloadGrammar:
    def test_parse_basic(self):
        wl = parse_workload("bg:uniform:0.2;fg:hotspot:0.1:3;rate=2")
        assert wl.rate == 2
        assert wl.names == ("bg", "fg")
        assert wl.tenants[0] == TenantSpec("bg", "uniform", 0.2, 0)
        assert wl.tenants[1] == TenantSpec("fg", "hotspot", 0.1, 3)

    def test_rate_defaults_to_one(self):
        assert parse_workload("t:uniform:0.5").rate == 1

    def test_rate_zero_means_no_arbitration(self):
        assert parse_workload("t:uniform:0.5;rate=0").rate == 0

    @pytest.mark.parametrize("bad", [
        "",
        "   ",
        "rate=1",                      # no tenants
        "t:uniform",                   # missing load
        "t:uniform:0.2:1:9",           # too many fields
        "t:warp:0.2",                  # unknown pattern
        "t:uniform:zero",              # unparsable load
        "t:uniform:0.0",               # non-positive load
        "t:uniform:-0.1",
        "t:uniform:0.2:x",             # bad priority
        "t:uniform:0.2;t:hotspot:0.1",  # duplicate names
        "t:uniform:0.2;rate=1;rate=2",  # duplicate rate
        "t:uniform:0.2;rate=-1",
        "t:uniform:0.2;rate=x",
        ":uniform:0.2",                # empty name
        "a=b:uniform:0.2",             # '=' in name
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_workload(bad)

    def test_canonical_collapses_spellings(self):
        a = canonical_workload("t:uniform:0.2")
        assert a == canonical_workload(" t:uniform:0.20:0 ; rate=1 ")
        assert a == "t:uniform:0.2:0"

    def test_canonical_keeps_nondefault_rate(self):
        assert canonical_workload("t:uniform:0.2;rate=3").endswith(";rate=3")
        assert canonical_workload("t:uniform:0.2;rate=0").endswith(";rate=0")

    def test_canonical_is_idempotent(self):
        c = canonical_workload(TWO_TENANTS)
        assert canonical_workload(c) == c

    def test_cold_cached_sweep_parses_each_workload_string_once(self, tmp_path):
        """A cold sweep with a result cache normalises every point several
        times (grid expansion, the batch runner, the cache's get and
        put), but each distinct workload string is parsed once: here the
        raw spelling, its canonical form and an already-canonical spec."""
        raw = " bg:uniform:0.20 ; fg:hotspot:0.1:2 ; rate=1 "
        canonical_workload.cache_clear()
        cache = ResultCache(tmp_path / "results")
        records = run_sweep(
            ["Q:3"], loads=(0.5, 1.0), seeds=(0, 1), inject_window=8,
            workloads=(raw, "a:uniform:0.2:0"), cache=cache,
        )
        assert len(records) == cache.stores == 8
        info = canonical_workload.cache_info()
        assert info.misses == 3
        assert info.hits > info.misses

    def test_bad_spec_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="unknown traffic pattern"):
                canonical_workload("a:warp:0.2")
            with pytest.raises(ValueError, match="unknown traffic pattern"):
                expand_grid(["Q:3"], workloads=("a:warp:0.2",))


class TestCompileWorkload:
    def test_deterministic(self):
        topo = parse_topology("Q:4")
        a = compile_workload(TWO_TENANTS, topo, 16, seed=3)
        b = compile_workload(TWO_TENANTS, topo, 16, seed=3)
        assert a == b
        assert a != compile_workload(TWO_TENANTS, topo, 16, seed=4)

    def test_tenant_ids_align_with_traffic(self):
        topo = parse_topology("Q:4")
        c = compile_workload(TWO_TENANTS, topo, 16)
        assert len(c.traffic) == len(c.tenants)
        assert set(c.tenants) == {0, 1}
        assert c.names == ("bg", "fg")

    def test_tenant_packet_budget(self):
        """Each tenant contributes max(1, round(scale*load*n*window))
        packets -- the same normalisation as single-tenant sweep points."""
        topo = parse_topology("Q:3")
        c = compile_workload("a:uniform:0.25;b:uniform:0.5;rate=0", topo, 8)
        n = topo.num_nodes
        counts = {t: c.tenants.count(t) for t in set(c.tenants)}
        assert counts[0] == max(1, round(0.25 * n * 8))
        assert counts[1] == max(1, round(0.5 * n * 8))

    def test_load_scale_scales_every_tenant(self):
        topo = parse_topology("Q:3")
        one = compile_workload("a:uniform:0.25;rate=0", topo, 8, load_scale=1.0)
        two = compile_workload("a:uniform:0.25;rate=0", topo, 8, load_scale=2.0)
        assert len(two.traffic) == 2 * len(one.traffic)

    def test_tenants_use_distinct_derived_seeds(self):
        """Two tenants with identical specs still draw different traffic
        (the per-tenant seed stride decorrelates their streams)."""
        topo = parse_topology("Q:4")
        c = compile_workload("a:uniform:0.3;b:uniform:0.3;rate=0", topo, 16)
        a = [pkt for pkt, t in zip(c.traffic, c.tenants) if t == 0]
        b = [pkt for pkt, t in zip(c.traffic, c.tenants) if t == 1]
        assert sorted(a) != sorted(b)
        assert TENANT_SEED_STRIDE > 0

    def test_rate_limits_per_source_per_cycle(self):
        """With rate=N, no source node injects more than N packets in
        any cycle after arbitration."""
        topo = parse_topology("Q:4")
        for rate in (1, 2):
            wl = f"a:uniform:0.6;b:uniform:0.6;rate={rate}"
            c = compile_workload(wl, topo, 8)
            per_slot = {}
            for cycle, src, _ in c.traffic:
                per_slot[(cycle, src)] = per_slot.get((cycle, src), 0) + 1
            assert max(per_slot.values()) <= rate

    def test_rate_zero_preserves_requested_cycles(self):
        """rate=0 is pure superposition: the composite is exactly the
        union of each tenant's generated stream."""
        topo = parse_topology("Q:4")
        c = compile_workload("a:uniform:0.3;b:transpose:0.3;rate=0", topo, 8)
        from repro.network.traffic import PATTERNS
        n = topo.num_nodes
        want = sorted(map(tuple, PATTERNS["uniform"](
            topo, max(1, round(0.3 * n * 8)), 8, seed=TENANT_SEED_STRIDE
        ).tolist()))
        got = sorted(p for p, t in zip(c.traffic, c.tenants) if t == 0)
        assert got == want

    def test_arbitration_conserves_packets(self):
        """Arbitration defers, never drops: every generated packet
        appears exactly once in the arbitrated schedule."""
        topo = parse_topology("Q:3")
        free = compile_workload("a:uniform:0.8;b:uniform:0.8;rate=0", topo, 8)
        tight = compile_workload("a:uniform:0.8;b:uniform:0.8;rate=1", topo, 8)
        assert len(tight.traffic) == len(free.traffic)
        assert sorted(
            (s, d, t) for (_, s, d), t in zip(tight.traffic, tight.tenants)
        ) == sorted(
            (s, d, t) for (_, s, d), t in zip(free.traffic, free.tenants)
        )

    def test_priority_wins_contended_slots(self):
        """When a high- and a low-priority tenant contend for the same
        injection slot, the high-priority packet is never the one
        deferred past the other's grant cycle at that source."""
        topo = parse_topology("Q:3")
        spec = "lo:uniform:1.0;hi:uniform:1.0:5"
        c = compile_workload(spec + ";rate=1", topo, 4)
        # rate=0 keeps every requested cycle, so it tells, per source,
        # how many hi packets had been requested by each cycle
        asked = compile_workload(spec + ";rate=0", topo, 4)
        hi_asked, lo_granted, hi_granted = {}, {}, {}
        for (cycle, src, _), t in zip(asked.traffic, asked.tenants):
            if t == 1:
                hi_asked.setdefault(src, []).append(cycle)
        for (cycle, src, _), t in zip(c.traffic, c.tenants):
            (hi_granted if t == 1 else lo_granted).setdefault(src, []).append(cycle)
        assert lo_granted and hi_granted
        for src, cycles in lo_granted.items():
            for cycle in cycles:
                # a lo grant at `cycle` means no hi packet was waiting:
                # every hi request up to it was granted before it
                pending = sum(a <= cycle for a in hi_asked.get(src, ()))
                served = sum(g < cycle for g in hi_granted.get(src, ()))
                assert pending == served, (src, cycle)

    def test_faults_silence_dead_sources_after_arbitration(self):
        topo = parse_topology("Q:3")
        plan = FaultPlan.parse("n0@0", num_nodes=topo.num_nodes)
        c = compile_workload(TWO_TENANTS, topo, 8, faults=plan)
        assert all(src != 0 for _, src, _ in c.traffic)

    def test_bad_scale_and_window(self):
        topo = parse_topology("Q:3")
        with pytest.raises(ValueError, match="load_scale"):
            compile_workload(TWO_TENANTS, topo, 8, load_scale=0.0)
        with pytest.raises(ValueError, match="inject_window"):
            compile_workload(TWO_TENANTS, topo, 0)


class TestTraceRoundTrip:
    def _trace(self):
        topo = parse_topology("Q:4")
        return record_trace(TWO_TENANTS, "Q:4", topo, 16, seed=1)

    def test_round_trip_is_identity(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "t.ndjson"
        write_trace(trace, str(path))
        assert read_trace(str(path)) == trace

    def test_trace_key_is_content_addressed(self, tmp_path):
        trace = self._trace()
        a = tmp_path / "a.ndjson"
        b = tmp_path / "renamed.ndjson"
        write_trace(trace, str(a))
        write_trace(trace, str(b))
        assert trace_key(read_trace(str(a))) == trace_key(read_trace(str(b)))
        assert len(trace_key(trace)) == 16

    def test_header_is_first_line_and_versioned(self, tmp_path):
        path = tmp_path / "t.ndjson"
        write_trace(self._trace(), str(path))
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == "repro-trace"
        assert header["version"] == 1
        assert header["tenants"] == ["bg", "fg"]
        assert header["packets"] == len(self._trace().traffic)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "t.ndjson"
        write_trace(self._trace(), str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="version"):
            read_trace(str(path))

    def test_foreign_and_truncated_files_rejected(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            read_trace(str(path))
        path.write_text('{"format":"something-else","version":1}\n')
        with pytest.raises(ValueError, match="header"):
            read_trace(str(path))
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_trace(str(path))
        # header declares more packets than the file carries
        good = tmp_path / "g.ndjson"
        write_trace(self._trace(), str(good))
        lines = good.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            read_trace(str(path))

    def test_bad_packet_lines_rejected(self, tmp_path):
        path = tmp_path / "t.ndjson"
        write_trace(self._trace(), str(path))
        lines = path.read_text().splitlines()
        for bad in ('{"c":1,"s":2}', '{"c":1,"s":2,"d":3,"t":9}',
                    '{"c":-1,"s":2,"d":3,"t":0}',
                    '{"c":1.5,"s":2,"d":3,"t":0}'):
            header = json.loads(lines[0])
            header["packets"] = 1
            path.write_text(json.dumps(header) + "\n" + bad + "\n")
            with pytest.raises(ValueError):
                read_trace(str(path))

    def test_compile_trace_validates_topology_range(self):
        trace = self._trace()
        small = parse_topology("Q:2")
        with pytest.raises(ValueError, match="out of range"):
            compile_trace(trace, small)

    def test_compile_trace_replays_exact_schedule(self):
        trace = self._trace()
        topo = parse_topology("Q:4")
        c = compile_trace(trace, topo)
        assert c.traffic == trace.traffic
        assert c.tenants == trace.tenant_ids
        assert c.names == trace.tenants

    def test_compile_trace_applies_replay_time_faults(self):
        trace = self._trace()
        topo = parse_topology("Q:4")
        plan = FaultPlan.parse("n0@0", num_nodes=topo.num_nodes)
        c = compile_trace(trace, topo, faults=plan)
        assert all(src != 0 for _, src, _ in c.traffic)
        assert len(c.traffic) == len(c.tenants)


class TestTenantAccounting:
    def test_stats_partition_totals(self):
        stats = tenant_stats_of(
            [0, 0, 1, 1, 1], [0, 1, 1, 0, 1], [True, True, False, False, True],
            [3, 5, 7],
        )
        assert [s.tenant for s in stats] == [0, 1]
        assert sum(s.injected for s in stats) == 5
        assert sum(s.delivered for s in stats) == 3
        assert stats[0].latencies == (3,)
        assert stats[1].latencies == (5, 7)
        assert stats[1].undelivered == 1

    def test_delivery_rate_and_avg(self):
        s = TenantStats(0, 4, 2, 2, (2, 4))
        assert s.delivery_rate == 0.5
        assert s.avg_latency == 3.0
        empty = TenantStats(1, 0, 0, 0, ())
        assert empty.delivery_rate == 1.0
        assert empty.avg_latency == 0.0

    def test_encode_tenant_column_is_canonical(self):
        stats = (TenantStats(0, 2, 2, 0, (1, 3)), TenantStats(1, 1, 0, 1, ()))
        col = encode_tenant_column(("bg", "fg"), stats, p95={0: 3.0, 1: 0.0})
        rows = json.loads(col)
        assert [r["tenant"] for r in rows] == ["bg", "fg"]
        assert rows[0]["p95_latency"] == 3.0
        # canonical: compact separators, sorted keys
        assert col == json.dumps(rows, sort_keys=True, separators=(",", ":"))


class TestEngineEquivalence:
    @pytest.mark.parametrize("switching,flits", [
        ("sf", 1), ("wormhole", 3), ("vct", 2),
    ])
    def test_reference_matches_vectorized_with_tenants(self, switching, flits):
        topo = parse_topology("Q:4")
        c = compile_workload(TWO_TENANTS, topo, 16, seed=2)
        kwargs = dict(switching=switching, flits=flits, tenants=c.tenants)
        ref = ReferenceSimulator(topo).run(c.traffic, **kwargs)
        vec = VectorizedSimulator(topo).run(c.traffic, **kwargs)
        assert ref == vec
        assert len(ref.tenant_stats) == 2

    def test_tenant_stats_partition_the_run(self):
        topo = parse_topology("Q:4")
        c = compile_workload(TWO_TENANTS, topo, 16)
        res = VectorizedSimulator(topo).run(c.traffic, tenants=c.tenants)
        assert sum(s.injected for s in res.tenant_stats) == res.injected
        assert sum(s.delivered for s in res.tenant_stats) == res.delivered
        pooled = sorted(
            x for s in res.tenant_stats for x in s.latencies)
        assert sum(pooled) / len(pooled) == pytest.approx(res.avg_latency)

    def test_without_tenants_no_stats(self):
        topo = parse_topology("Q:3")
        res = VectorizedSimulator(topo).run([(0, 0, 5)])
        assert res.tenant_stats == ()

    def test_misaligned_tenants_rejected(self):
        topo = parse_topology("Q:3")
        for engine in (ReferenceSimulator(topo), VectorizedSimulator(topo)):
            with pytest.raises(ValueError, match="align"):
                engine.run([(0, 0, 5), (0, 1, 4)], tenants=[0])

    def test_faulted_run_keeps_per_tenant_accounting(self):
        topo = parse_topology("Q:4")
        c = compile_workload(TWO_TENANTS, topo, 16)
        plan = FaultPlan.parse("n3@4", num_nodes=topo.num_nodes)
        ref = ReferenceSimulator(topo).run(
            c.traffic, faults=plan, tenants=c.tenants)
        vec = VectorizedSimulator(topo).run(
            c.traffic, faults=plan, tenants=c.tenants)
        assert ref == vec
        assert sum(s.injected for s in vec.tenant_stats) == vec.injected


class TestSweepIntegration:
    def test_run_point_workload_record(self):
        rec = run_point(PointSpec(
            topology="Q:4", workload=TWO_TENANTS, inject_window=16))
        assert rec.pattern == "-"
        assert rec.workload == canonical_workload(TWO_TENANTS)
        rows = json.loads(rec.tenants)
        assert [r["tenant"] for r in rows] == ["bg", "fg"]
        assert sum(r["injected"] for r in rows) == rec.injected
        assert sum(r["delivered"] for r in rows) == rec.delivered

    def test_point_load_scales_workload(self):
        n = parse_topology("Q:4").num_nodes
        lo = run_point(PointSpec(
            topology="Q:4", workload="a:uniform:0.2:0", load=0.5,
            inject_window=16))
        hi = run_point(PointSpec(
            topology="Q:4", workload="a:uniform:0.2:0", load=2.0,
            inject_window=16))
        assert lo.injected == max(1, round(0.5 * 0.2 * n * 16))
        assert hi.injected == max(1, round(2.0 * 0.2 * n * 16))

    def test_normalize_rejects_collective_cross(self):
        with pytest.raises(ValueError, match="cannot be both"):
            normalize_spec(PointSpec(
                topology="Q:3", collective="broadcast",
                workload="a:uniform:0.2"))
        with pytest.raises(ValueError, match="cross"):
            expand_grid(["Q:3"], collectives=("broadcast",),
                        workloads=("a:uniform:0.2",))

    def test_expand_grid_workload_axis(self):
        specs = expand_grid(
            ["Q:3"], patterns=("uniform", "tornado"), loads=(0.2,),
            workloads=("", "a:uniform:0.2"),
        )
        plain = [s for s in specs if not s.workload]
        wl = [s for s in specs if s.workload]
        assert len(plain) == 2      # one per pattern
        assert len(wl) == 1         # pattern axis collapses for workloads
        assert wl[0].pattern == "-"
        assert wl[0].workload == "a:uniform:0.2:0"

    def test_expand_grid_validates_inline_specs(self):
        with pytest.raises(ValueError, match="pattern"):
            expand_grid(["Q:3"], workloads=("a:warp:0.2",))

    def test_trace_workload_pins_load(self):
        spec = normalize_spec(PointSpec(
            topology="Q:3", workload="trace:abc", load=0.7,
            pattern="uniform"))
        assert spec.load == 1.0
        assert spec.pattern == "-"

    def test_trace_point_requires_mapping(self):
        with pytest.raises(ValueError, match="traces"):
            run_point(PointSpec(topology="Q:4", workload="trace:deadbeef"))

    def test_trace_point_validates_topology(self, tmp_path):
        topo = parse_topology("Q:4")
        trace = record_trace(TWO_TENANTS, "Q:4", topo, 8)
        key = trace_key(trace)
        with pytest.raises(ValueError, match="recorded on"):
            run_point(
                PointSpec(topology="Q:3", workload=f"trace:{key}"),
                traces={key: trace},
            )

    def test_trace_replay_matches_inline_compile(self):
        """Replaying a recorded trace gives the same record payload as
        running the workload inline (same schedule, same engine)."""
        topo = parse_topology("Q:4")
        trace = record_trace(TWO_TENANTS, "Q:4", topo, 16)
        key = trace_key(trace)
        inline = run_point(PointSpec(
            topology="Q:4", workload=TWO_TENANTS, load=1.0,
            inject_window=16))
        replay = run_point(
            PointSpec(topology="Q:4", workload=f"trace:{key}", load=1.0,
                      inject_window=16),
            traces={key: trace},
        )
        assert replay.injected == inline.injected
        assert replay.avg_latency == inline.avg_latency
        assert replay.tenants == inline.tenants

    def test_batched_workload_points_match_sequential(self):
        """Tenant points pack with plain pattern points into one task,
        and the mixed batch runs bit-identical to point-by-point."""
        specs = expand_grid(
            ["Q:4"], patterns=("uniform",), loads=(0.5, 1.0), seeds=(0, 1),
            workloads=("", TWO_TENANTS), inject_window=8,
        )
        assert {bool(s.workload) for s in specs} == {False, True}
        assert _pack(specs, len(specs)) == [list(range(len(specs)))]
        assert run_batch_points(specs) == [run_point(s) for s in specs]

    def test_saturation_curves_key_per_workload(self):
        records = run_sweep(
            ["Q:4"], patterns=("uniform",), loads=(0.5, 1.0),
            workloads=("a:uniform:0.2:0", "b:hotspot:0.1:0"),
            inject_window=8,
        )
        curves = saturation_curves(records)
        keys = sorted(curves)
        assert len(keys) == 2
        assert {k[2] for k in keys} == {"a:uniform:0.2:0", "b:hotspot:0.1:0"}
        for curve in curves.values():
            assert [p.load for p in curve] == [0.5, 1.0]

    def test_two_tenant_sweep_bit_identical_across_backends(self, tmp_path):
        """The acceptance gate: a two-tenant overlay sweep is
        bit-identical through the numpy and (when present) native
        backends, cached and uncached."""
        grid = dict(
            topologies=["Q:4"], patterns=("uniform",), loads=(0.5, 1.0),
            seeds=(0, 1), workloads=(TWO_TENANTS,),
            switching=("sf", "wormhole"), vcs=(2,), buffers=(4,),
            flits=("1-2",), inject_window=8,
        )
        base = run_sweep(backend="numpy", **grid)
        backends = ["numpy"] + (["native"] if NATIVE_OK else [])
        for be in backends:
            cache = ResultCache(tmp_path / be)
            cold = run_sweep(backend=be, cache=cache, **grid)
            warm = run_sweep(backend=be, cache=cache, **grid)
            assert cold == base
            assert warm == base
            assert cache.hits == len(base)
        # byte-level: the CSV of each run is identical
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(base, str(a))
        write_csv(run_sweep(backend=backends[-1], **grid), str(b))
        assert a.read_bytes() == b.read_bytes()


class TestP95Aggregation:
    def test_curve_p95_is_mean_of_per_seed_p95s(self):
        """Satellite: CurvePoint.p95_latency is the *mean of per-seed
        p95s*; the pooled-sample p95 is a different statistic but must
        lie within the per-seed min/max envelope (the documented
        cross-check bound)."""
        from repro.network.sweep import nearest_rank_p95
        from repro.network.traffic import make_traffic

        records = run_sweep(
            ["Q:4"], patterns=("uniform",), loads=(0.8,), seeds=(0, 1, 2, 3),
            inject_window=16,
        )
        per_seed = [r.p95_latency for r in records]
        [curve] = saturation_curves(records).values()
        assert curve[0].p95_latency == pytest.approx(
            sum(per_seed) / len(per_seed))
        # pooled cross-check: recompute each seed's sample and pool them
        topo = parse_topology("Q:4")
        pooled = []
        for r in records:
            traffic = make_traffic("uniform", topo, r.injected, 16,
                                   seed=r.seed)
            pooled.extend(VectorizedSimulator(topo).run(traffic).latencies)
        pooled_p95 = nearest_rank_p95(pooled)
        assert min(per_seed) <= pooled_p95 <= max(per_seed)
        assert not math.isnan(pooled_p95)
