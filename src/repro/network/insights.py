"""Rule-driven insight engine over sweep output.

A sweep grid answers the paper's question -- *where does each topology
saturate, and who wins?* -- but the answer is spread across hundreds of
:class:`~repro.network.sweep.SweepRecord` rows, and reading it off a CSV
is a manual job.  This module automates the reading: a small registry of
**rules**, each a pure function over the sweep's saturation curves and
raw records, each emitting zero or more typed :class:`Insight` findings:

- ``saturation-knee`` -- per curve, the knee load (first offered load
  whose mean latency exceeds :data:`KNEE_FACTOR` x the low-load
  baseline) and the peak sustained throughput; the curve's one-line
  summary;
- ``deadlock`` -- an **alert** for every curve cell where any seed's run
  deadlocked (wormhole/VCT configurations that wedge are a verdict, not
  a statistic to average away);
- ``cycle-cap`` -- a **warning** for cells with stalled packets but no
  deadlock: the run hit its cycle cap, so latency columns are
  truncation-biased and the cap should rise;
- ``fault-degradation`` -- pairs each faulted curve with its unfaulted
  baseline (same topology/router/pattern/flow) and warns when delivery
  degrades by more than :data:`DEGRADATION_DELTA` at any common load;
- ``tenant-starvation`` -- parses the per-tenant ``tenants`` column of
  workload records and warns when QoS arbitration starves a tenant (its
  delivery rate trails the best tenant's by :data:`STARVATION_DELTA`);
- ``verdict`` -- the paper's comparison, automated: within each
  (router, pattern, faults, flow) scenario containing both a hypercube
  (``Q_<d>``) and at least one (generalized) Fibonacci cube, compare
  knee loads and peak throughput and declare which family saturates
  later;
- ``analytic-divergence`` -- a **warning** for every curve the
  predict-then-verify cross-check
  (:func:`~repro.analytic.crosscheck.crosscheck_report`) calls
  ``divergent``: a uniform, unfaulted, store-and-forward curve whose
  simulated knee lands above ``KNEE_TOLERANCE`` x the topology's
  analytic saturation bound ``theta*``.  The simulator then claims
  more cross-bisection bandwidth than the wiring has, so the model and
  the machine disagree.

:func:`analyze` runs every rule and returns a **stable, versioned JSON
report**: no timestamps, insights sorted deterministically, canonical
float reprs -- byte-identical for byte-identical input records, which
the golden-fixture test enforces.  The ``repro insights <sweep.json>``
CLI loads records from a sweep's JSON or CSV dump and renders the report
as text or JSON.

The architecture deliberately mirrors a production observability stack:
rules are data (name, severity, detector), the report is a wire format,
and thresholds are module constants a future config layer can override.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.network.sweep import CurvePoint, SweepRecord, saturation_curves

__all__ = [
    "DEGRADATION_DELTA",
    "Insight",
    "KNEE_FACTOR",
    "REPORT_FORMAT",
    "REPORT_VERSION",
    "RULES",
    "STARVATION_DELTA",
    "analyze",
    "load_records",
    "render_text",
    "report_to_json",
    "rule",
]

REPORT_FORMAT = "repro-insights"
REPORT_VERSION = 1

# Latency multiple over the lowest-load baseline that marks saturation:
# the knee is the first load whose mean latency exceeds this factor.
KNEE_FACTOR = 3.0
# Delivery-rate drop (vs the unfaulted baseline, at any common load)
# that counts as fault degradation worth flagging.
DEGRADATION_DELTA = 0.05
# Delivery-rate gap between the best and worst tenant of one workload
# record that counts as QoS starvation.
STARVATION_DELTA = 0.15

SEVERITIES = ("info", "warning", "alert")


@dataclass(frozen=True)
class Insight:
    """One finding: which rule fired, how loud, where, and the numbers.

    ``scope`` pins the finding to its slice of the grid (curve key
    elements, loads, tenant names -- string keys, JSON-able values);
    ``data`` carries the evidence (numbers a dashboard would plot).
    Both are plain dicts so the report serialises canonically.
    """

    rule: str
    severity: str
    scope: Dict[str, Any]
    message: str
    data: Dict[str, Any]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "scope": self.scope,
            "message": self.message,
            "data": self.data,
        }


# rule name -> detector(curves, records) -> insights
RULES: Dict[str, Callable[..., List[Insight]]] = {}

CurveKey = Tuple[str, str, str, str, str, str]
Curves = Dict[CurveKey, List[CurvePoint]]


def rule(name: str) -> Callable:
    """Register an insight rule.  Detectors take ``(curves, records)``
    and return a list of :class:`Insight`; registration order is the
    tie-break-free report order (insights also sort by scope)."""

    def deco(fn: Callable[..., List[Insight]]) -> Callable[..., List[Insight]]:
        if name in RULES:
            raise ValueError(f"duplicate insight rule {name!r}")
        RULES[name] = fn
        return fn

    return deco


def _scope_of(key: CurveKey) -> Dict[str, Any]:
    return {
        "topology": key[0],
        "router": key[1],
        "pattern": key[2],
        "faults": key[3],
        "flow": key[4],
        "collective": key[5],
    }


def knee_of(curve: Sequence[CurvePoint]) -> Optional[float]:
    """The curve's saturation knee: the first load whose mean latency
    exceeds :data:`KNEE_FACTOR` x the lowest-load latency.  ``None``
    when the curve never saturates (or is too short / flat to tell)."""
    if len(curve) < 2:
        return None
    base = curve[0].avg_latency
    if base <= 0:
        return None
    for pt in curve[1:]:
        if pt.avg_latency > KNEE_FACTOR * base:
            return pt.load
    return None


@rule("saturation-knee")
def _saturation_knee(curves: Curves, records: Sequence[SweepRecord]) -> List[Insight]:
    out: List[Insight] = []
    for key in curves:
        curve = curves[key]
        if len(curve) < 2:
            continue
        knee = knee_of(curve)
        peak = max(pt.throughput for pt in curve)
        base = curve[0].avg_latency
        if knee is None:
            msg = (
                f"{key[0]} under {key[2]} traffic shows no saturation knee "
                f"up to load {curve[-1].load!r} "
                f"(peak throughput {peak:.3f} pkt/cycle)"
            )
        else:
            msg = (
                f"{key[0]} under {key[2]} traffic saturates at load "
                f"{knee!r}: mean latency exceeds {KNEE_FACTOR}x the "
                f"low-load baseline ({base:.2f} cycles); peak throughput "
                f"{peak:.3f} pkt/cycle"
            )
        out.append(Insight(
            rule="saturation-knee",
            severity="info",
            scope=_scope_of(key),
            message=msg,
            data={
                "knee_load": knee,
                "base_latency": base,
                "peak_throughput": peak,
                "loads": [pt.load for pt in curve],
            },
        ))
    return out


@rule("deadlock")
def _deadlock(curves: Curves, records: Sequence[SweepRecord]) -> List[Insight]:
    out: List[Insight] = []
    for key in curves:
        hit = [pt for pt in curves[key] if pt.deadlock_rate > 0]
        if not hit:
            continue
        loads = [pt.load for pt in hit]
        worst = max(pt.deadlock_rate for pt in hit)
        out.append(Insight(
            rule="deadlock",
            severity="alert",
            scope=_scope_of(key),
            message=(
                f"{key[0]} deadlocks under {key[2]} traffic with flow "
                f"config {key[4] or 'sf'!r} at load(s) {loads!r} "
                f"(up to {worst:.0%} of seeds); this configuration "
                "wedges, not saturates"
            ),
            data={"loads": loads, "max_deadlock_rate": worst},
        ))
    return out


@rule("cycle-cap")
def _cycle_cap(curves: Curves, records: Sequence[SweepRecord]) -> List[Insight]:
    out: List[Insight] = []
    for key in curves:
        hit = [
            pt for pt in curves[key]
            if pt.stalled > 0 and pt.deadlock_rate == 0
        ]
        if not hit:
            continue
        loads = [pt.load for pt in hit]
        worst = max(pt.stalled for pt in hit)
        out.append(Insight(
            rule="cycle-cap",
            severity="warning",
            scope=_scope_of(key),
            message=(
                f"{key[0]} under {key[2]} traffic left packets stalled "
                f"(up to {worst:.1f} per run) at load(s) {loads!r} without "
                "deadlocking: the run hit its cycle cap, so latency "
                "columns are truncation-biased -- raise max_cycles"
            ),
            data={"loads": loads, "max_stalled": worst},
        ))
    return out


@rule("fault-degradation")
def _fault_degradation(
    curves: Curves, records: Sequence[SweepRecord]
) -> List[Insight]:
    out: List[Insight] = []
    baselines = {
        (k[0], k[1], k[2], k[4], k[5]): v
        for k, v in curves.items() if not k[3]
    }
    for key in curves:
        if not key[3]:
            continue
        base = baselines.get((key[0], key[1], key[2], key[4], key[5]))
        if base is None:
            continue
        base_by_load = {pt.load: pt for pt in base}
        drops = [
            (pt.load,
             base_by_load[pt.load].delivery_rate - pt.delivery_rate)
            for pt in curves[key] if pt.load in base_by_load
        ]
        bad = [(ld, d) for ld, d in drops if d > DEGRADATION_DELTA]
        if not bad:
            continue
        worst_load, worst = max(bad, key=lambda t: t[1])
        out.append(Insight(
            rule="fault-degradation",
            severity="warning",
            scope=_scope_of(key),
            message=(
                f"{key[0]} under fault plan {key[3]!r} delivers "
                f"{worst:.1%} fewer packets than the unfaulted baseline "
                f"at load {worst_load!r} ({len(bad)} load(s) degraded "
                f"beyond {DEGRADATION_DELTA:.0%})"
            ),
            data={
                "degraded_loads": [ld for ld, _ in bad],
                "worst_load": worst_load,
                "worst_delivery_drop": worst,
            },
        ))
    return out


@rule("tenant-starvation")
def _tenant_starvation(
    curves: Curves, records: Sequence[SweepRecord]
) -> List[Insight]:
    out: List[Insight] = []
    for rec in records:
        if not rec.tenants:
            continue
        try:
            rows = json.loads(rec.tenants)
        except json.JSONDecodeError:
            continue
        rates = {
            r["tenant"]: (r["delivered"] / r["injected"] if r["injected"] else 1.0)
            for r in rows
        }
        if len(rates) < 2:
            continue
        best = max(rates.values())
        starved = sorted(
            t for t, rate in rates.items()
            if best - rate > STARVATION_DELTA
        )
        if not starved:
            continue
        worst = min(rates[t] for t in starved)
        out.append(Insight(
            rule="tenant-starvation",
            severity="warning",
            scope={
                "topology": rec.topology,
                "workload": rec.workload,
                "load": rec.load,
                "seed": rec.seed,
            },
            message=(
                f"workload {rec.workload!r} on {rec.topology} at load "
                f"{rec.load!r} (seed {rec.seed}) starves tenant(s) "
                f"{starved}: delivery {worst:.1%} vs the best tenant's "
                f"{best:.1%} -- QoS arbitration is squeezing them out"
            ),
            data={
                "starved": starved,
                "delivery_rates": {t: rates[t] for t in sorted(rates)},
            },
        ))
    return out


def _is_hypercube(topology: str) -> bool:
    # plain "Q_<d>" is the hypercube; "Q_<d>(f)" names the generalized
    # Fibonacci cube avoiding factor f
    return bool(re.fullmatch(r"Q_\d+", topology))


@rule("verdict")
def _verdict(curves: Curves, records: Sequence[SweepRecord]) -> List[Insight]:
    """The paper's comparison: hypercube vs (generalized) Fibonacci cube
    per scenario, judged on knee load first (saturating later wins),
    peak throughput as the tie-break."""
    scenarios: Dict[Tuple[str, str, str, str, str], Dict[str, List[CurvePoint]]] = {}
    for key, curve in curves.items():
        scenarios.setdefault(
            (key[1], key[2], key[3], key[4], key[5]), {}
        )[key[0]] = curve
    out: List[Insight] = []
    for scen in sorted(scenarios):
        by_topo = scenarios[scen]
        cubes = sorted(t for t in by_topo if _is_hypercube(t))
        fibs = sorted(t for t in by_topo if not _is_hypercube(t))
        if not cubes or not fibs:
            continue
        stats: Dict[str, Dict[str, Any]] = {}
        for t, curve in by_topo.items():
            stats[t] = {
                "knee_load": knee_of(curve),
                "peak_throughput": max(pt.throughput for pt in curve),
            }

        def rank(t: str) -> Tuple[float, float]:
            knee = stats[t]["knee_load"]
            # no knee observed = survived the whole load axis
            return (knee if knee is not None else float("inf"),
                    stats[t]["peak_throughput"])

        best_cube = max(cubes, key=rank)
        best_fib = max(fibs, key=rank)
        if rank(best_fib) > rank(best_cube):
            winner, loser, family = best_fib, best_cube, "Fibonacci-cube"
        elif rank(best_cube) > rank(best_fib):
            winner, loser, family = best_cube, best_fib, "hypercube"
        else:
            winner = loser = ""
            family = "tied"
        scope = {
            "router": scen[0], "pattern": scen[1], "faults": scen[2],
            "flow": scen[3], "collective": scen[4],
            "hypercubes": cubes, "fibonacci": fibs,
        }
        if family == "tied":
            msg = (
                f"verdict under {scen[1]} traffic: {cubes} and {fibs} are "
                "tied on knee load and peak throughput"
            )
        else:
            wk, lk = stats[winner]["knee_load"], stats[loser]["knee_load"]
            msg = (
                f"verdict under {scen[1]} traffic: {winner} "
                f"({family} family) saturates later than {loser} "
                f"(knee {wk!r} vs {lk!r}; peak throughput "
                f"{stats[winner]['peak_throughput']:.3f} vs "
                f"{stats[loser]['peak_throughput']:.3f} pkt/cycle)"
            )
        out.append(Insight(
            rule="verdict",
            severity="info",
            scope=scope,
            message=msg,
            data={"winner": winner, "family": family, "stats": stats},
        ))
    return out


@rule("analytic-divergence")
def _analytic_divergence(
    curves: Curves, records: Sequence[SweepRecord]
) -> List[Insight]:
    """Predict-then-verify: one warning per ``divergent`` comparison of
    :func:`~repro.analytic.crosscheck.crosscheck_report` -- a
    uniform-traffic curve whose simulated knee claims bandwidth the
    bisection does not have."""
    # imported here: the crosscheck module imports knee_of from this one
    from repro.analytic.crosscheck import crosscheck_report

    report = crosscheck_report(records)
    out: List[Insight] = []
    for c in report["comparisons"]:
        if c["verdict"] != "divergent":
            continue
        out.append(Insight(
            rule="analytic-divergence",
            severity="warning",
            # eligible curves are uniform, unfaulted, sf, non-collective
            scope=_scope_of((c["topology"], c["router"], "uniform", "", "", "")),
            message=(
                f"{c['topology']} under uniform traffic shows a simulated "
                f"saturation knee at load {c['knee_load']!r}, "
                f"{c['knee_ratio']:.2f}x the analytic bound "
                f"theta*={c['analytic_bound']:.3f} (tolerance "
                f"{report['tolerance']}x): the simulator claims more "
                "cross-bisection bandwidth than the topology has -- "
                "model or simulator is wrong"
            ),
            data={
                key: c[key] for key in ("analytic_bound", "knee_load", "knee_ratio")
            },
        ))
    return out


def analyze(records: Sequence[SweepRecord]) -> Dict[str, Any]:
    """Run every registered rule and assemble the stable report.

    Deterministic by construction: no timestamps, insights ordered by
    (rule registration order, canonical scope encoding), every value a
    plain JSON type -- the same records always produce the same bytes
    when the report is dumped with sorted keys.
    """
    records = list(records)
    curves = saturation_curves(records)
    insights: List[Insight] = []
    rule_order = {name: i for i, name in enumerate(RULES)}
    for name, detector in RULES.items():
        insights.extend(detector(curves, records))
    insights.sort(key=lambda ins: (
        rule_order[ins.rule],
        json.dumps(ins.scope, sort_keys=True),
        ins.message,
    ))
    counts = {sev: 0 for sev in SEVERITIES}
    for ins in insights:
        counts[ins.severity] += 1
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "records": len(records),
        "curves": len(curves),
        "rules": list(RULES),
        "severity_counts": counts,
        "insights": [ins.to_payload() for ins in insights],
    }


def report_to_json(report: Mapping[str, Any]) -> str:
    """The report's one canonical serialisation (sorted keys, two-space
    indent, trailing newline): what ``repro insights --json`` prints and
    what the golden-fixture test byte-compares."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: Mapping[str, Any]) -> str:
    """Human-readable rendering of an :func:`analyze` report: alerts
    first, then warnings, then info, each prefixed with its rule tag."""
    lines = [
        f"{report['records']} records, {report['curves']} curves, "
        f"{len(report['insights'])} insights "
        f"({report['severity_counts']['alert']} alerts, "
        f"{report['severity_counts']['warning']} warnings)"
    ]
    marker = {"alert": "!!", "warning": " !", "info": "  "}
    by_sev = sorted(
        report["insights"],
        key=lambda i: (SEVERITIES[::-1].index(i["severity"]),),
    )
    for ins in by_sev:
        lines.append(f"{marker[ins['severity']]} [{ins['rule']}] {ins['message']}")
    return "\n".join(lines)


# -- record loading ---------------------------------------------------------

_BOOL = {"True": True, "False": False, "true": True, "false": False}
_COERCE = {"str": str, "int": int, "float": float}
_FIELD_TYPES = {f.name: f.type for f in fields(SweepRecord)}


def _coerce_record(row: Mapping[str, Any]) -> SweepRecord:
    """One record from a parsed row, coercing CSV's all-string values
    (and JSON's int-for-float) onto the SweepRecord schema; unknown or
    missing columns raise, matching the cache's strictness."""
    if set(row) != set(_FIELD_TYPES):
        missing = sorted(set(_FIELD_TYPES) - set(row))
        unknown = sorted(set(row) - set(_FIELD_TYPES))
        raise ValueError(
            f"row does not match the SweepRecord schema "
            f"(missing {missing}, unknown {unknown})"
        )
    kwargs: Dict[str, Any] = {}
    for name, typ in _FIELD_TYPES.items():
        val = row[name]
        if typ == "bool":
            if isinstance(val, bool):
                kwargs[name] = val
            elif isinstance(val, str) and val in _BOOL:
                kwargs[name] = _BOOL[val]
            else:
                raise ValueError(f"field {name!r}: not a bool: {val!r}")
        else:
            try:
                kwargs[name] = _COERCE[typ](val)
            except (ValueError, TypeError):
                raise ValueError(
                    f"field {name!r}: cannot read {val!r} as {typ}"
                ) from None
    return SweepRecord(**kwargs)


def load_records(path: str) -> List[SweepRecord]:
    """Load sweep records from a ``repro sweep`` dump: a ``.json`` array
    of record objects or a ``.csv`` with the record header (the format
    is sniffed from the first byte, so extensions are advisory)."""
    with open(path, newline="") as fh:
        text = fh.read()
    head = text.lstrip()[:1]
    if head == "[":
        rows = json.loads(text)
        if not isinstance(rows, list):
            raise ValueError(f"{path!r}: expected a JSON array of records")
        return [_coerce_record(r) for r in rows]
    if head == "{":
        # a lone JSON object would otherwise fall through to the CSV
        # reader and silently parse as an empty record list
        raise ValueError(f"{path!r}: expected a JSON array of records")
    reader = csv.DictReader(text.splitlines())
    if reader.fieldnames is None or set(reader.fieldnames) != set(_FIELD_TYPES):
        raise ValueError(
            f"{path!r}: CSV header does not match the SweepRecord schema"
        )
    return [_coerce_record(row) for row in reader]
