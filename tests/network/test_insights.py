"""The rule-driven insight engine: every rule unit-tested on synthetic
records, the report format pinned against a golden fixture.

The golden pair under ``tests/network/golden/`` --
``insights_records.json`` (a deterministic hypercube-vs-Fibonacci sweep
dump) and ``insights_report.json`` (the expected ``analyze`` output,
canonically serialised) -- is the byte-level contract of ``repro
insights --json``.  Regenerate both after an *intentional* change with::

    PYTHONPATH=src:tests python -c \\
      "from network.test_insights import dump_golden_report; dump_golden_report()"
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.network.insights import (
    DEGRADATION_DELTA,
    KNEE_FACTOR,
    RULES,
    STARVATION_DELTA,
    analyze,
    knee_of,
    load_records,
    render_text,
    report_to_json,
    rule,
)
from repro.network.sweep import (
    SweepRecord,
    run_sweep,
    saturation_curves,
    write_csv,
    write_json,
)

GOLDEN = Path(__file__).parent / "golden"

# the deterministic sweep behind the golden fixture: hypercube vs
# Fibonacci cube across a load axis wide enough to cross both knees.
# The window is long enough for steady-state saturation, so the knees
# land at (not above) the analytic bounds and the same records feed the
# analytic cross-check golden (tests/analytic/test_crosscheck_golden.py)
GOLDEN_GRID = dict(
    topologies=["Q:4", "11:4"],
    patterns=("uniform",),
    loads=(0.2, 0.5, 1.0, 1.5, 2.0, 3.0),
    seeds=(0, 1),
    inject_window=64,
)


def mk(**kw) -> SweepRecord:
    """A synthetic record with healthy defaults; rules under test
    override just the columns they trigger on."""
    base = dict(
        topology="Q_3", router="bfs", pattern="uniform", collective="",
        workload="", load=0.2, seed=0, faults="", num_faults=0,
        switching="sf", num_vcs=1, buffer_depth=0, flits="1", rounds=0,
        round_bound=0, nodes=8, injected=100, delivered=100, dropped=0,
        misroutes=0, stalled=0, deadlocked=False, cycles=50, max_queue=2,
        avg_latency=2.0, p95_latency=3.0, max_latency=5, throughput=2.0,
        delivery_rate=1.0, tenants="",
    )
    base.update(kw)
    return SweepRecord(**base)


def insights_of(report, name):
    return [i for i in report["insights"] if i["rule"] == name]


class TestKneeOf:
    def _curve(self, lat_by_load):
        records = [
            mk(load=ld, avg_latency=lat) for ld, lat in lat_by_load.items()
        ]
        [curve] = saturation_curves(records).values()
        return curve

    def test_first_load_past_the_factor(self):
        curve = self._curve({0.1: 1.0, 0.2: 2.0, 0.4: 3.5, 0.8: 9.0})
        assert knee_of(curve) == 0.4  # 3.5 > 3.0 * 1.0

    def test_flat_curve_has_no_knee(self):
        assert knee_of(self._curve({0.1: 1.0, 0.8: 2.9})) is None

    def test_short_or_degenerate_curves(self):
        assert knee_of(self._curve({0.1: 1.0})) is None
        assert knee_of(self._curve({0.1: 0.0, 0.8: 9.0})) is None

    def test_factor_is_strict(self):
        assert knee_of(
            self._curve({0.1: 1.0, 0.8: KNEE_FACTOR * 1.0})) is None


class TestSaturationKneeRule:
    def test_reports_knee_and_peak(self):
        records = [
            mk(load=0.1, avg_latency=1.0, throughput=1.0),
            mk(load=0.4, avg_latency=5.0, throughput=4.0),
        ]
        [ins] = insights_of(analyze(records), "saturation-knee")
        assert ins["severity"] == "info"
        assert ins["data"]["knee_load"] == 0.4
        assert ins["data"]["peak_throughput"] == 4.0
        assert "saturates at load 0.4" in ins["message"]

    def test_single_load_curves_skipped(self):
        report = analyze([mk(load=0.2)])
        assert insights_of(report, "saturation-knee") == []


class TestDeadlockRule:
    def test_alert_on_any_deadlocked_seed(self):
        records = [
            mk(load=0.4, seed=0, switching="wormhole", buffer_depth=2,
               deadlocked=True),
            mk(load=0.4, seed=1, switching="wormhole", buffer_depth=2),
        ]
        [ins] = insights_of(analyze(records), "deadlock")
        assert ins["severity"] == "alert"
        assert ins["data"]["max_deadlock_rate"] == 0.5
        assert ins["data"]["loads"] == [0.4]

    def test_silent_without_deadlock(self):
        assert insights_of(analyze([mk()]), "deadlock") == []


class TestCycleCapRule:
    def test_warns_on_stalled_without_deadlock(self):
        [ins] = insights_of(analyze([mk(stalled=7)]), "cycle-cap")
        assert ins["severity"] == "warning"
        assert ins["data"]["max_stalled"] == 7.0
        assert "cycle cap" in ins["message"]

    def test_deadlocked_cells_are_not_cycle_cap(self):
        report = analyze([mk(stalled=7, deadlocked=True)])
        assert insights_of(report, "cycle-cap") == []
        assert len(insights_of(report, "deadlock")) == 1


class TestFaultDegradationRule:
    def test_warns_past_delta(self):
        records = [
            mk(load=0.4, delivery_rate=1.0),
            mk(load=0.4, faults="n2@3", num_faults=1,
               delivery_rate=1.0 - DEGRADATION_DELTA - 0.05),
        ]
        [ins] = insights_of(analyze(records), "fault-degradation")
        assert ins["severity"] == "warning"
        assert ins["data"]["worst_load"] == 0.4
        assert ins["data"]["worst_delivery_drop"] == pytest.approx(
            DEGRADATION_DELTA + 0.05)

    def test_small_drops_tolerated(self):
        records = [
            mk(load=0.4, delivery_rate=1.0),
            mk(load=0.4, faults="n2@3", num_faults=1,
               delivery_rate=1.0 - DEGRADATION_DELTA / 2),
        ]
        assert insights_of(analyze(records), "fault-degradation") == []

    def test_no_baseline_no_verdict(self):
        records = [mk(load=0.4, faults="n2@3", num_faults=1,
                      delivery_rate=0.5)]
        assert insights_of(analyze(records), "fault-degradation") == []


class TestTenantStarvationRule:
    def _tenants(self, rates):
        return json.dumps([
            {"tenant": t, "injected": 100, "delivered": int(100 * r),
             "undelivered": 100 - int(100 * r), "avg_latency": 2.0,
             "p95_latency": 3.0}
            for t, r in rates.items()
        ], sort_keys=True, separators=(",", ":"))

    def test_warns_on_starved_tenant(self):
        rec = mk(workload="bg:uniform:0.2:0;fg:uniform:0.2:5", pattern="-",
                 tenants=self._tenants({"bg": 1.0 - STARVATION_DELTA - 0.1,
                                        "fg": 1.0}))
        [ins] = insights_of(analyze([rec]), "tenant-starvation")
        assert ins["severity"] == "warning"
        assert ins["data"]["starved"] == ["bg"]
        assert ins["scope"]["workload"] == rec.workload

    def test_balanced_tenants_are_silent(self):
        rec = mk(workload="a:uniform:0.2:0;b:uniform:0.2:0", pattern="-",
                 tenants=self._tenants({"a": 0.95, "b": 1.0}))
        assert insights_of(analyze([rec]), "tenant-starvation") == []

    def test_single_tenant_records_skipped(self):
        rec = mk(workload="a:uniform:0.2:0", pattern="-",
                 tenants=self._tenants({"a": 0.1}))
        assert insights_of(analyze([rec]), "tenant-starvation") == []


class TestVerdictRule:
    def _pair(self, cube_lat, fib_lat):
        out = []
        for topo, lats in (("Q_4", cube_lat), ("Q_4(11)", fib_lat)):
            out.extend(
                mk(topology=topo, load=ld, avg_latency=lat, throughput=1.0)
                for ld, lat in lats.items()
            )
        return out

    def test_hypercube_wins_on_later_knee(self):
        records = self._pair({0.2: 1.0, 0.5: 1.2, 1.0: 9.0},
                             {0.2: 1.0, 0.5: 9.0, 1.0: 9.0})
        [ins] = insights_of(analyze(records), "verdict")
        assert ins["data"]["winner"] == "Q_4"
        assert ins["data"]["family"] == "hypercube"
        assert ins["scope"]["hypercubes"] == ["Q_4"]
        assert ins["scope"]["fibonacci"] == ["Q_4(11)"]

    def test_fibonacci_wins_on_later_knee(self):
        records = self._pair({0.2: 1.0, 0.5: 9.0},
                             {0.2: 1.0, 0.5: 1.1})
        [ins] = insights_of(analyze(records), "verdict")
        assert ins["data"]["winner"] == "Q_4(11)"
        assert ins["data"]["family"] == "Fibonacci-cube"

    def test_needs_both_families(self):
        cube_only = self._pair({0.2: 1.0, 0.5: 9.0}, {})
        assert insights_of(analyze(cube_only), "verdict") == []

    def test_generalized_cubes_are_not_hypercubes(self):
        """The family split keys on the exact Q_<d> spelling: Q_4(11)
        must land on the Fibonacci side despite the Q_ prefix."""
        records = self._pair({0.2: 1.0, 0.5: 9.0}, {0.2: 1.0, 0.5: 1.1})
        [ins] = insights_of(analyze(records), "verdict")
        assert "Q_4(11)" in ins["scope"]["fibonacci"]


class TestAnalyticDivergenceRule:
    # Q_3 has theta* = 2.0, so the warning band starts at 2.5
    def _curve(self, lat_by_load, **kw):
        return [mk(load=ld, avg_latency=lat, **kw)
                for ld, lat in lat_by_load.items()]

    def test_fires_when_knee_beats_the_bound(self):
        records = self._curve({0.5: 1.0, 2.0: 2.0, 4.0: 9.0})
        [ins] = insights_of(analyze(records), "analytic-divergence")
        assert ins["severity"] == "warning"
        assert ins["data"]["analytic_bound"] == 2.0
        assert ins["data"]["knee_load"] == 4.0
        assert ins["data"]["knee_ratio"] == 2.0
        assert "more cross-bisection bandwidth" in ins["message"]

    def test_silent_when_knee_respects_the_bound(self):
        records = self._curve({0.5: 1.0, 2.0: 9.0, 4.0: 9.0})
        assert insights_of(analyze(records), "analytic-divergence") == []

    def test_silent_without_a_knee(self):
        records = self._curve({0.5: 1.0, 2.0: 1.1, 4.0: 1.2})
        assert insights_of(analyze(records), "analytic-divergence") == []

    def test_non_uniform_curves_skipped(self):
        records = self._curve({0.5: 1.0, 4.0: 9.0}, pattern="hotspot")
        assert insights_of(analyze(records), "analytic-divergence") == []

    def test_faulted_curves_skipped(self):
        records = self._curve(
            {0.5: 1.0, 4.0: 9.0}, faults="n1", num_faults=1)
        assert insights_of(analyze(records), "analytic-divergence") == []

    def test_unmodeled_topologies_skipped(self):
        records = self._curve({0.5: 1.0, 4.0: 9.0}, topology="mesh_4x4")
        assert insights_of(analyze(records), "analytic-divergence") == []


class TestReportShape:
    def test_stable_and_versioned(self):
        report = analyze([mk()])
        assert report["format"] == "repro-insights"
        assert report["version"] == 1
        assert report["rules"] == list(RULES)
        assert report["records"] == 1

    def test_deterministic_bytes_and_order_independent(self):
        records = [
            mk(load=ld, seed=s, avg_latency=1.0 + 4 * ld, throughput=ld)
            for ld in (0.2, 0.5, 1.0) for s in (0, 1)
        ]
        a = report_to_json(analyze(records))
        b = report_to_json(analyze(list(reversed(records))))
        assert a == b

    def test_severity_counts_add_up(self):
        report = analyze([mk(stalled=3), mk(seed=1, deadlocked=True)])
        counts = report["severity_counts"]
        assert sum(counts.values()) == len(report["insights"])

    def test_duplicate_rule_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            rule("saturation-knee")(lambda curves, records: [])

    def test_render_text_orders_by_severity(self):
        report = analyze([
            mk(load=0.1, avg_latency=1.0),
            mk(load=0.4, avg_latency=9.0, stalled=2),
            mk(load=0.4, seed=1, switching="wormhole", buffer_depth=2,
               deadlocked=True),
        ])
        text = render_text(report)
        first_line, *rest = text.splitlines()
        assert "records" in first_line
        markers = [ln[:2] for ln in rest]
        assert markers == sorted(
            markers, key=["!!", " !", "  "].index)


class TestLoadRecords:
    def test_csv_and_json_agree(self, tmp_path):
        records = run_sweep(["Q:3"], patterns=("uniform",),
                            loads=(0.2, 0.4), inject_window=8)
        csv_p, json_p = tmp_path / "r.csv", tmp_path / "r.json"
        write_csv(records, str(csv_p))
        write_json(records, str(json_p))
        assert load_records(str(csv_p)) == records
        assert load_records(str(json_p)) == records

    def test_format_sniffed_not_extension(self, tmp_path):
        records = run_sweep(["Q:3"], patterns=("uniform",), loads=(0.2,),
                            inject_window=8)
        path = tmp_path / "records.csv"  # json content, csv name
        write_json(records, str(path))
        assert load_records(str(path)) == records

    def test_schema_mismatch_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"topology": "Q_3"}]')
        with pytest.raises(ValueError, match="schema"):
            load_records(str(path))
        path.write_text('{"not": "an array"}')
        with pytest.raises(ValueError, match="array"):
            load_records(str(path))
        path.write_text("who,what\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_records(str(path))

    def test_bad_cell_types_raise(self, tmp_path):
        records = run_sweep(["Q:3"], patterns=("uniform",), loads=(0.2,),
                            inject_window=8)
        rows = [dict(vars(r)) for r in records]
        rows[0]["injected"] = "many"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(rows))
        with pytest.raises(ValueError, match="injected"):
            load_records(str(path))


class TestGoldenReport:
    """The acceptance gate: the hypercube-vs-Fibonacci fixture must
    yield the exact saturation-knee and verdict insights, byte-for-byte."""

    def test_report_matches_golden_bytes(self):
        records = load_records(str(GOLDEN / "insights_records.json"))
        got = report_to_json(analyze(records))
        assert got == (GOLDEN / "insights_report.json").read_text()

    def test_golden_records_are_reproducible(self):
        """The checked-in records fixture is itself the deterministic
        output of GOLDEN_GRID -- the whole chain re-derives from seeds."""
        assert run_sweep(**GOLDEN_GRID) == load_records(
            str(GOLDEN / "insights_records.json"))

    def test_golden_report_has_knee_and_verdict(self):
        report = json.loads((GOLDEN / "insights_report.json").read_text())
        knees = [i for i in report["insights"]
                 if i["rule"] == "saturation-knee"]
        verdicts = [i for i in report["insights"] if i["rule"] == "verdict"]
        assert {i["scope"]["topology"] for i in knees} == {"Q_4", "Q_4(11)"}
        assert all(i["data"]["knee_load"] is not None for i in knees)
        [verdict] = verdicts
        assert verdict["scope"]["hypercubes"] == ["Q_4"]
        assert verdict["scope"]["fibonacci"] == ["Q_4(11)"]
        assert verdict["data"]["winner"]

    def test_cli_json_output_is_the_golden_report(self, capsys):
        assert main(["insights", str(GOLDEN / "insights_records.json"),
                     "--json"]) == 0
        assert capsys.readouterr().out == (
            GOLDEN / "insights_report.json").read_text()

    def test_cli_text_output(self, capsys):
        assert main(["insights",
                     str(GOLDEN / "insights_records.json")]) == 0
        out = capsys.readouterr().out
        assert "saturation-knee" in out and "verdict" in out


def dump_golden_report() -> None:
    """Regenerate both golden insight fixtures (after an intentional
    rule or schema change only)."""
    records = run_sweep(**GOLDEN_GRID)
    write_json(records, str(GOLDEN / "insights_records.json"))
    (GOLDEN / "insights_report.json").write_text(
        report_to_json(analyze(records)))
