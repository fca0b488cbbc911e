"""Command-line interface: ``gfc`` (also ``python -m repro.cli``).

Subcommands
-----------
``gfc table1``
    Regenerate Table 1 of the paper and diff it against the printed table.
``gfc classify F D``
    Verdict for :math:`Q_D(F) \\hookrightarrow Q_D` (theorems, then brute
    force with ``--bruteforce``).
``gfc counts F D``
    Vertices/edges/squares of :math:`Q_D(F)` via the subcube counting
    systems (exact for ``D`` in the thousands).
``gfc structure F D``
    Degree/diameter report (Proposition 6.1 view).
``gfc network F D``
    Interconnection metrics + routing/broadcast summary of the topology.
``gfc ladder D``
    Verify the Section 8 :math:`\\Theta^*`-ladder of :math:`Q_D(101)`.
``gfc sweep``
    Saturation-curve sweeps over (topology x router x pattern x faults
    x switching x load) grids on the vectorized network simulator, with
    CSV/JSON output; ``--faults`` adds fault-plan axes for degradation
    curves, ``--switching/--vcs/--buffer/--flits`` sweep the wormhole /
    virtual-cut-through flow-control configurations, ``--collective``
    adds closed-loop collective workloads (broadcast, reduce, allgather,
    alltoall, ring) compiled with per-round barriers, ``--batch``
    co-batches compatible points into lock-step simulator runs
    (bit-identical records, several times the throughput), and
    ``--cache-dir`` consults/fills the content-addressed result cache so
    repeated grid cells are never re-simulated; ``--workload`` adds
    multi-tenant overlay points (tenant spec grammar of
    :mod:`repro.network.workloads`) and ``--trace`` replays recorded
    NDJSON traces as workload points.
``gfc trace``
    Record a multi-tenant workload's arbitrated schedule as a versioned
    NDJSON trace (``trace record``), or inspect one (``trace info``).
``gfc insights``
    Run the rule-driven insight engine over a sweep's CSV/JSON records:
    saturation knees, deadlock and fault-degradation alerts, tenant
    starvation, analytic-divergence warnings, and the
    hypercube-vs-Fibonacci verdict, as text or a stable JSON report.
``gfc analytic``
    The predict side of predict-then-verify: ``analytic counts`` gives
    exact node/edge counts (and the discovered linear recurrences of
    the node, edge and square sequences) of cube topologies at
    arbitrary dimension via the avoidance FSM's subcube counting
    systems; ``analytic bounds`` adds the direction-cut
    bisection estimate and the uniform-traffic saturation bound
    ``theta* = crossing*N / (n0*n1)`` (the classical ``2B/N`` with
    ``B`` the bisection channel count); ``analytic compare``
    cross-checks those bounds against the simulated saturation knees
    of a sweep's records.
``gfc serve``
    Long-lived sweep job server (asyncio + worker pool) over the same
    cache: clients submit grids, cached cells answer instantly, missing
    cells fan out to workers and stream back as they land.
``gfc submit``
    Send a sweep grid to a running server and stream the records;
    ``--csv``/``--json`` output is byte-identical to ``gfc sweep``.
``gfc jobs``
    List the jobs a running server has seen.
``gfc backends``
    List the kernel backends (numpy / native), whether each is usable,
    and what ``auto`` resolves to here and why; ``--backend`` on
    ``sweep`` and ``serve`` pins the choice per invocation.

Installed both as ``gfc`` and as ``repro``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]

# the --backend choices, [AUTO, *BACKENDS] of repro.network.backends (a test
# pins the two together), written out so that building the parser does not
# import the network package for the pure-math subcommands
_BACKEND_CHOICES = ["auto", "numpy", "native"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfc",
        description="Generalized Fibonacci cubes: reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="regenerate Table 1 and diff vs the paper")
    p_table.add_argument("--max-d", type=int, default=9, help="probe dimensions 1..MAX_D")

    p_cls = sub.add_parser("classify", help="embeddability verdict for one (f, d)")
    p_cls.add_argument("factor")
    p_cls.add_argument("d", type=int)
    p_cls.add_argument(
        "--bruteforce", action="store_true", help="settle UNKNOWN cases computationally"
    )

    p_cnt = sub.add_parser("counts", help="|V|, |E|, |S| of Q_d(f) (automaton counters)")
    p_cnt.add_argument("factor")
    p_cnt.add_argument("d", type=int)

    p_str = sub.add_parser("structure", help="degree/diameter report of Q_d(f)")
    p_str.add_argument("factor")
    p_str.add_argument("d", type=int)

    p_net = sub.add_parser("network", help="interconnection metrics of Q_d(f)")
    p_net.add_argument("factor")
    p_net.add_argument("d", type=int)

    p_lad = sub.add_parser("ladder", help="verify the Q_d(101) Theta* ladder")
    p_lad.add_argument("d", type=int)

    p_multi = sub.add_parser(
        "multifactor", help="order/size/isometry of Q_d(F) for a factor SET"
    )
    p_multi.add_argument("factors", help="comma-separated factors, e.g. 111,000")
    p_multi.add_argument("d", type=int)

    p_poly = sub.add_parser(
        "cubepoly", help="cube polynomial coefficients of Q_d(f)"
    )
    p_poly.add_argument("factor")
    p_poly.add_argument("d", type=int)

    p_spec = sub.add_parser("spectrum", help="cycle spectrum of Q_d(f)")
    p_spec.add_argument("factor")
    p_spec.add_argument("d", type=int)

    p_wie = sub.add_parser(
        "wiener", help="Wiener index / average distance of Q_d(f)"
    )
    p_wie.add_argument("factor")
    p_wie.add_argument("d", type=int)

    p_swp = sub.add_parser(
        "sweep",
        help="saturation-curve sweep on the vectorized network simulator",
    )
    _add_grid_args(p_swp)
    p_swp.add_argument(
        "--processes", type=int, default=1,
        help="worker processes for the grid (default: serial)",
    )
    p_swp.add_argument(
        "--batch", type=int, default=1,
        help="co-batch up to N compatible points (points sharing a "
             "topology, any switching mode, collectives included) per "
             "lock-step simulator run; results are bit-identical, the "
             "grid just finishes faster (default: %(default)s = "
             "unbatched)",
    )
    p_swp.add_argument(
        "--cache-dir", metavar="DIR",
        help="consult/fill the content-addressed result cache at DIR "
             "(created if missing); cached grid cells are returned "
             "without re-simulation, so repeated or grown grids are "
             "incremental (default: no cache)",
    )
    p_swp.add_argument(
        "--backend", choices=_BACKEND_CHOICES, default=None,
        help="kernel backend for every simulated point (default: "
             "$REPRO_BACKEND or auto); results are bit-identical either "
             "way, 'native' fails loudly when no compiler exists",
    )
    p_swp.add_argument(
        "--trace", action="append", dest="traces", metavar="PATH",
        help="replay a recorded NDJSON trace (see 'trace record') as a "
             "workload point; repeatable; the trace's own topology is "
             "added to the grid when no --topo is given",
    )
    p_swp.add_argument("--csv", metavar="PATH", help="write records as CSV")
    p_swp.add_argument("--json", metavar="PATH", help="write records as JSON")

    p_trc = sub.add_parser(
        "trace",
        help="record / inspect multi-tenant workload traces "
             "(versioned NDJSON)",
    )
    trc_sub = p_trc.add_subparsers(dest="trace_command", required=True)
    p_rec = trc_sub.add_parser(
        "record",
        help="compile a workload's arbitrated schedule and write it as "
             "an NDJSON trace",
    )
    p_rec.add_argument(
        "--topo", required=True, metavar="SPEC",
        help="topology spec 'Q:<d>' or '<factor>:<d>'",
    )
    p_rec.add_argument(
        "--workload", required=True, metavar="SPEC",
        help="tenant spec 'name:pattern:load[:prio];...[;rate=N]', e.g. "
             "'bg:uniform:0.2;fg:broadcast:0.4:2'",
    )
    p_rec.add_argument(
        "--window", type=int, default=64,
        help="injection window in cycles (default: %(default)s)",
    )
    p_rec.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for every tenant's traffic (default: %(default)s)",
    )
    p_rec.add_argument(
        "--scale", type=float, default=1.0,
        help="load-scale multiplier applied to every tenant "
             "(default: %(default)s)",
    )
    p_rec.add_argument(
        "--out", required=True, metavar="PATH", help="trace file to write"
    )
    p_inf = trc_sub.add_parser("info", help="summarise a trace file")
    p_inf.add_argument("path", metavar="TRACE")

    p_ins = sub.add_parser(
        "insights",
        help="rule-driven insight report over sweep records (CSV or JSON)",
    )
    p_ins.add_argument(
        "path", metavar="RECORDS",
        help="a 'sweep --csv' or 'sweep --json' output file",
    )
    p_ins.add_argument(
        "--json", action="store_true",
        help="print the stable JSON report instead of text",
    )
    p_ins.add_argument(
        "--out", metavar="PATH",
        help="also write the JSON report to PATH",
    )

    p_ana = sub.add_parser(
        "analytic",
        help="analytic FSM layer: exact counts, bisection/saturation "
             "bounds, and the bound-vs-knee cross-check",
    )
    ana_sub = p_ana.add_subparsers(dest="analytic_command", required=True)
    p_acnt = ana_sub.add_parser(
        "counts",
        help="exact node/edge counts of cube topologies at any dimension",
    )
    p_acnt.add_argument(
        "specs", nargs="+", metavar="SPEC",
        help="topology spec 'Q:<d>', '<factor>:<d>' or "
             "'<f1>,<f2>:<d>' (multi-factor), or a record name "
             "like 'Q_7(11)'",
    )
    p_acnt.add_argument(
        "--recurrence", action="store_true",
        help="also print the discovered linear recurrences for the "
             "node, edge and square sequences",
    )
    p_abnd = ana_sub.add_parser(
        "bounds",
        help="bisection estimate and uniform-traffic saturation bound",
    )
    p_abnd.add_argument(
        "specs", nargs="+", metavar="SPEC",
        help="topology spec or record name (as for 'analytic counts')",
    )
    p_acmp = ana_sub.add_parser(
        "compare",
        help="cross-check analytic bounds against a sweep's simulated "
             "saturation knees",
    )
    p_acmp.add_argument(
        "path", metavar="RECORDS",
        help="a 'sweep --csv' or 'sweep --json' output file",
    )
    p_acmp.add_argument(
        "--tolerance", type=float, default=None, metavar="RATIO",
        help="accept knees up to RATIO x the analytic bound "
             "(default: the crosscheck module's KNEE_TOLERANCE)",
    )
    p_acmp.add_argument(
        "--json", action="store_true",
        help="print the stable JSON report instead of text",
    )
    p_acmp.add_argument(
        "--out", metavar="PATH",
        help="also write the JSON report to PATH",
    )

    p_srv = sub.add_parser(
        "serve",
        help="long-lived sweep job server (asyncio + worker pool + "
             "content-addressed result cache)",
    )
    p_srv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_srv.add_argument(
        "--port", type=int, default=None,
        help="bind port (default: 8642; 0 = ephemeral)",
    )
    p_srv.add_argument(
        "--cache-dir", metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    p_srv.add_argument(
        "--no-cache", action="store_true",
        help="serve without a result cache: every submitted cell is "
             "simulated fresh",
    )
    p_srv.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool width (default: the executor's default)",
    )
    p_srv.add_argument(
        "--processes", action="store_true",
        help="simulate in a process pool instead of threads",
    )
    p_srv.add_argument(
        "--batch", type=int, default=1,
        help="default co-batch size for submitted grids "
             "(default: %(default)s = every cell alone)",
    )
    p_srv.add_argument(
        "--backend", choices=_BACKEND_CHOICES, default=None,
        help="kernel backend the worker pool simulates with (default: "
             "$REPRO_BACKEND or auto)",
    )

    p_sub = sub.add_parser(
        "submit",
        help="submit a sweep grid to a running server and stream records",
    )
    _add_grid_args(p_sub)
    p_sub.add_argument("--host", default="127.0.0.1", help="server address")
    p_sub.add_argument(
        "--port", type=int, default=None,
        help="server port (default: 8642)",
    )
    p_sub.add_argument(
        "--batch", type=int, default=None,
        help="override the server's co-batch size for this job",
    )
    p_sub.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="connect/handshake timeout; once the job is accepted the "
             "stream waits for records indefinitely (0 = never time "
             "out; default: %(default)s)",
    )
    p_sub.add_argument("--csv", metavar="PATH", help="write records as CSV")
    p_sub.add_argument("--json", metavar="PATH", help="write records as JSON")

    p_jobs = sub.add_parser("jobs", help="list a running server's jobs")
    p_jobs.add_argument("--host", default="127.0.0.1", help="server address")
    p_jobs.add_argument(
        "--port", type=int, default=None,
        help="server port (default: 8642)",
    )

    sub.add_parser(
        "backends",
        help="list kernel backends and what 'auto' resolves to here",
    )

    return parser


def _add_grid_args(p_swp) -> None:
    """The sweep-grid axes, shared verbatim by ``sweep`` and ``submit``
    (one grid language, whether the points run in-process or on the
    server)."""
    p_swp.add_argument(
        "--topo", action="append", dest="topos", metavar="SPEC",
        help="topology spec 'Q:<d>' or '<factor>:<d>'; repeatable "
             "(default: Q:7 and 11:7)",
    )
    p_swp.add_argument(
        "--patterns", default="uniform,transpose,tornado,hotspot",
        help="comma-separated traffic patterns (default: %(default)s)",
    )
    p_swp.add_argument(
        "--loads", default="0.1,0.2,0.4,0.6,0.8",
        help="comma-separated offered loads, packets/node/cycle "
             "(default: %(default)s)",
    )
    p_swp.add_argument(
        "--routers", default="bfs",
        help="comma-separated routers: bfs, canonical, adaptive, ecube, "
             "greedy (default: %(default)s)",
    )
    p_swp.add_argument(
        "--seeds", default="0", help="comma-separated RNG seeds (default: 0)"
    )
    p_swp.add_argument(
        "--faults", action="append", dest="faults", metavar="PLAN",
        help="fault-plan spec, e.g. 'n3,n5@10,l0-2@5' or 'rand4@20s7'; "
             "repeatable to sweep a fault axis ('' = unfaulted baseline, "
             "always included unless given explicitly)",
    )
    p_swp.add_argument(
        "--switching", default="sf",
        help="comma-separated switching modes: sf, wormhole, vct "
             "(default: %(default)s); sf is the single-flit infinite-FIFO "
             "store-and-forward baseline",
    )
    p_swp.add_argument(
        "--vcs", default="1",
        help="comma-separated virtual-channel counts per link "
             "(wormhole/vct only; default: %(default)s)",
    )
    p_swp.add_argument(
        "--buffer", default="4",
        help="comma-separated per-(link, VC) buffer depths in flits "
             "(wormhole/vct only; default: %(default)s)",
    )
    p_swp.add_argument(
        "--flits", default="1",
        help="comma-separated packet-size specs, '<n>' or '<lo>-<hi>' "
             "flits per packet (wormhole/vct only; default: %(default)s)",
    )
    p_swp.add_argument(
        "--workload", action="append", dest="workloads", metavar="SPEC",
        help="multi-tenant overlay workload "
             "'name:pattern:load[:prio];...[;rate=N]', e.g. "
             "'bg:uniform:0.2;fg:broadcast:0.4:2;rate=1'; repeatable; "
             "the --loads axis scales every tenant's load, and rate=N "
             "caps injection at N packet(s)/node/cycle with "
             "priority-then-name arbitration (0 = no cap)",
    )
    p_swp.add_argument(
        "--collective", action="append", dest="collectives", metavar="NAME",
        help="closed-loop collective workload: broadcast, reduce, "
             "allgather, alltoall or ring; repeatable; compiled with "
             "per-round barriers (the seed picks the root), so the "
             "pattern/load axes do not apply to these points",
    )
    p_swp.add_argument(
        "--window", type=int, default=64,
        help="injection window in cycles (default: %(default)s)",
    )
    p_swp.add_argument(
        "--max-cycles", type=int, default=100000,
        help="simulation cycle cap per point (default: %(default)s)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "table1":
        return _cmd_table1(args)
    if args.command == "classify":
        return _cmd_classify(args)
    if args.command == "counts":
        return _cmd_counts(args)
    if args.command == "structure":
        return _cmd_structure(args)
    if args.command == "network":
        return _cmd_network(args)
    if args.command == "ladder":
        return _cmd_ladder(args)
    if args.command == "multifactor":
        return _cmd_multifactor(args)
    if args.command == "cubepoly":
        return _cmd_cubepoly(args)
    if args.command == "spectrum":
        return _cmd_spectrum(args)
    if args.command == "wiener":
        return _cmd_wiener(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "insights":
        return _cmd_insights(args)
    if args.command == "analytic":
        return _cmd_analytic(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "jobs":
        return _cmd_jobs(args)
    if args.command == "backends":
        return _cmd_backends(args)
    raise AssertionError("unreachable")


def _grid_from_args(args) -> dict:
    """The expand_grid keyword dict a sweep/submit invocation names --
    the same parsing whether the grid runs in-process or on the server."""
    return dict(
        topologies=args.topos or ["Q:7", "11:7"],
        patterns=[p for p in args.patterns.split(",") if p],
        loads=[float(x) for x in args.loads.split(",") if x],
        routers=[r for r in args.routers.split(",") if r],
        seeds=[int(s) for s in args.seeds.split(",") if s],
        faults=args.faults if args.faults else [""],
        switching=[s for s in args.switching.split(",") if s],
        vcs=[int(v) for v in args.vcs.split(",") if v],
        buffers=[int(b) for b in args.buffer.split(",") if b],
        flits=[f for f in args.flits.split(",") if f],
        collectives=args.collectives if args.collectives else [""],
        workloads=args.workloads if args.workloads else [""],
        inject_window=args.window,
        max_cycles=args.max_cycles,
    )


def _write_outputs(records, args) -> None:
    from repro.network.sweep import write_csv, write_json

    if args.csv:
        write_csv(records, args.csv)
        print(f"wrote {len(records)} records to {args.csv}")
    if args.json:
        write_json(records, args.json)
        print(f"wrote {len(records)} records to {args.json}")


def _cmd_sweep(args) -> int:
    from repro.network.sweep import run_sweep

    grid = _grid_from_args(args)
    traces = None
    if args.traces:
        from repro.network.workloads import read_trace, trace_key

        traces = {}
        trace_topos: List[str] = []
        for path in args.traces:
            try:
                trace = read_trace(path)
            except OSError as exc:
                print(f"sweep: error: cannot read {path}: {exc}", file=sys.stderr)
                return 2
            except ValueError as exc:
                print(f"sweep: error: {path}: {exc}", file=sys.stderr)
                return 2
            key = trace_key(trace)
            traces[key] = trace
            ref = f"trace:{key}"
            if ref not in grid["workloads"]:
                grid["workloads"] = [w for w in grid["workloads"] if w] + [ref]
            if trace.topology and trace.topology not in trace_topos:
                trace_topos.append(trace.topology)
        if not args.topos and trace_topos:
            # replay on the topologies the traces were recorded on
            # (traces refuse to run anywhere else)
            grid["topologies"] = trace_topos
    cache = None
    if args.cache_dir:
        from repro.network.service import ResultCache

        cache = ResultCache(args.cache_dir)
    try:
        records = run_sweep(
            processes=args.processes, batch=args.batch, cache=cache,
            backend=args.backend, traces=traces, **grid,
        )
    except ValueError as exc:
        print(f"sweep: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # an explicitly requested backend that cannot run here
        print(f"sweep: error: {exc}", file=sys.stderr)
        return 2
    _print_curves(records)
    if cache is not None:
        print(
            f"cache: {cache.hits} hit(s), {cache.misses} miss(es), "
            f"{cache.stores} store(d) at {cache.root}"
        )
    _write_outputs(records, args)
    return 0


def _print_curves(records) -> None:
    from repro.network.sweep import saturation_curves

    header = (
        f"{'topology':>12} {'router':>9} {'pattern':>12} {'load':>6} "
        f"{'avg lat':>8} {'p95':>7} {'thruput':>8} {'deliv':>6} "
        f"{'drop':>6} {'stall':>6} {'dlock':>5} {'maxq':>5}"
    )
    for (topo, router, pattern, faults, flow, coll), curve in sorted(
        saturation_curves(records).items()
    ):
        tag = f" / faults[{faults}]" if faults else ""
        tag += f" / {flow}" if flow else ""
        if coll:
            bound = curve[0].round_bound
            tag += f" / coll[{coll}: {curve[0].rounds:g} rounds, bound {bound}]"
        print(f"-- {topo} / {router} / {pattern}{tag}")
        print(header)
        for r in curve:
            print(
                f"{r.topology:>12} {r.router:>9} {r.pattern:>12} {r.load:>6.2f} "
                f"{r.avg_latency:>8.2f} {r.p95_latency:>7.1f} {r.throughput:>8.3f} "
                f"{r.delivery_rate:>6.3f} {r.dropped:>6.1f} {r.stalled:>6.1f} "
                f"{r.deadlock_rate:>5.2f} {r.max_queue:>5}"
            )


def _cmd_trace(args) -> int:
    from repro.network.workloads import read_trace, trace_key

    if args.trace_command == "record":
        from repro.network.sweep import parse_topology
        from repro.network.workloads import record_trace, write_trace

        try:
            topo = parse_topology(args.topo)
            trace = record_trace(
                args.workload, args.topo, topo, args.window,
                seed=args.seed, load_scale=args.scale,
            )
        except ValueError as exc:
            print(f"trace: error: {exc}", file=sys.stderr)
            return 2
        write_trace(trace, args.out)
        print(
            f"recorded {len(trace.traffic)} packet(s) from "
            f"{len(trace.tenants)} tenant(s) on {topo.name} to {args.out}"
        )
        print(f"trace key: {trace_key(trace)}")
        return 0
    # trace info
    try:
        trace = read_trace(args.path)
    except OSError as exc:
        print(f"trace: error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"trace: error: {exc}", file=sys.stderr)
        return 2
    print(f"trace {args.path}")
    print(f"{'topology':>14}: {trace.topology}")
    print(f"{'inject window':>14}: {trace.inject_window}")
    print(f"{'workload':>14}: {trace.workload or '(unspecified)'}")
    print(f"{'seed':>14}: {trace.seed}")
    print(f"{'packets':>14}: {len(trace.traffic)}")
    print(f"{'key':>14}: {trace_key(trace)}")
    counts = {name: 0 for name in trace.tenants}
    for t in trace.tenant_ids:
        counts[trace.tenants[t]] += 1
    for name, prio in zip(trace.tenants, trace.priorities):
        print(f"{'tenant':>14}: {name} (priority {prio}, "
              f"{counts[name]} packet(s))")
    return 0


def _cmd_insights(args) -> int:
    from repro.network.insights import (
        analyze,
        load_records,
        render_text,
        report_to_json,
    )

    try:
        records = load_records(args.path)
    except OSError as exc:
        print(f"insights: error: cannot read {args.path}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"insights: error: {exc}", file=sys.stderr)
        return 2
    report = analyze(records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_to_json(report))
        print(f"wrote insight report to {args.out}", file=sys.stderr)
    if args.json:
        sys.stdout.write(report_to_json(report))
    else:
        print(render_text(report))
    return 0


def _cmd_analytic(args) -> int:
    if args.analytic_command == "compare":
        return _cmd_analytic_compare(args)
    from repro.analytic import analytic_summary, cube_model
    from repro.analytic.enumeration import (
        edge_system,
        square_system,
        vertex_system,
    )

    for spec in args.specs:
        summary = analytic_summary(spec)
        if summary is None:
            print(f"analytic: error: not a cube topology: {spec!r}",
                  file=sys.stderr)
            return 2
        d = summary["dimension"]
        factors = summary["factors"]
        name = f"Q_{d}" + (f"({','.join(factors)})" if factors else "")
        print(f"{name}:")
        print(f"{'nodes':>18}: {summary['nodes']}")
        print(f"{'edges':>18}: {summary['edges']}")
        if args.analytic_command == "bounds":
            cut = summary["bisection"]
            if cut is None:
                print(f"{'bisection':>18}: (no cuts: d = 0)")
            else:
                print(f"{'bisection cut':>18}: position {cut['position']} "
                      f"({cut['n0']} | {cut['n1']}, "
                      f"{cut['crossing']} crossing)")
            print(f"{'saturation bound':>18}: "
                  f"theta* = {summary['saturation_bound']:.4f} "
                  f"pkt/node/cycle")
        elif args.recurrence:
            fsm = cube_model(tuple(factors))
            for label, system in (
                ("node", vertex_system(fsm)), ("edge", edge_system(fsm)),
                ("square", square_system(fsm)),
            ):
                rec = system.linear_recurrence()
                terms = " + ".join(
                    f"{c}*a(n-{i + 1})" for i, c in enumerate(rec) if c
                ) or "0"
                print(f"{label + ' recurrence':>18}: a(n) = {terms} "
                      f"(order {len(rec)})")
    return 0


def _cmd_analytic_compare(args) -> int:
    from repro.analytic.crosscheck import (
        crosscheck_report,
        render_text,
        report_to_json,
    )
    from repro.network.insights import load_records

    try:
        records = load_records(args.path)
    except OSError as exc:
        print(f"analytic: error: cannot read {args.path}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"analytic: error: {exc}", file=sys.stderr)
        return 2
    kwargs = {} if args.tolerance is None else {"tolerance": args.tolerance}
    try:
        report = crosscheck_report(records, **kwargs)
    except ValueError as exc:
        print(f"analytic: error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_to_json(report))
        print(f"wrote cross-check report to {args.out}", file=sys.stderr)
    if args.json:
        sys.stdout.write(report_to_json(report))
    else:
        print(render_text(report))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.network.service import DEFAULT_PORT, ResultCache, SweepServer

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if args.backend:
        from repro.network.backends import resolve_backend

        try:
            resolve_backend(args.backend)  # fail before binding the port
        except (RuntimeError, ValueError) as exc:
            print(f"serve: error: {exc}", file=sys.stderr)
            return 2
    server = SweepServer(
        host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        cache=cache,
        workers=args.workers,
        use_processes=args.processes,
        batch=args.batch,
        backend=args.backend,
    )

    async def _serve() -> None:
        host, port = await server.start()
        where = cache.root if cache is not None else "disabled"
        print(f"repro sweep service on {host}:{port} (cache: {where})")
        await server.serve_until_shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    print(f"served {len(server.jobs)} job(s)")
    return 0


def _cmd_submit(args) -> int:
    from repro.network.service import DEFAULT_PORT, ServiceError, SweepClient

    client = SweepClient(
        host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        timeout=args.timeout if args.timeout > 0 else None,
    )
    progress = {"cached": 0, "simulated": 0, "points": 0, "job": 0}

    def on_event(event: dict) -> None:
        kind = event.get("event")
        if kind == "accepted":
            progress["job"] = event["job"]
            progress["points"] = event["points"]
            print(f"job {event['job']} accepted: {event['points']} point(s)")
        elif kind == "record":
            progress["cached" if event["cached"] else "simulated"] += 1

    try:
        records = client.submit(
            _grid_from_args(args), batch=args.batch, on_event=on_event
        )
    except (ServiceError, ValueError) as exc:
        print(f"submit: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(
            f"submit: cannot reach server at {client.host}:{client.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    _print_curves(records)
    print(
        f"job {progress['job']}: {progress['points']} point(s), "
        f"{progress['cached']} from cache, {progress['simulated']} simulated"
    )
    _write_outputs(records, args)
    return 0


def _cmd_jobs(args) -> int:
    from repro.network.service import DEFAULT_PORT, ServiceError, SweepClient

    client = SweepClient(
        host=args.host, port=DEFAULT_PORT if args.port is None else args.port
    )
    try:
        jobs = client.jobs()
    except (ServiceError, OSError) as exc:
        print(f"jobs: error: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        print("no jobs yet")
        return 0
    print(f"{'job':>5} {'state':>8} {'points':>7} {'cached':>7} "
          f"{'simmed':>7} {'topologies'}")
    for job in jobs:
        print(
            f"{job['job']:>5} {job['state']:>8} {job['points']:>7} "
            f"{job['cached']:>7} {job['simulated']:>7} "
            f"{','.join(job['topologies'])}"
            + (f"  [{job['error']}]" if job.get("error") else "")
        )
    return 0


def _cmd_backends(args) -> int:
    from repro.network.backends import backend_infos, resolve_backend

    infos = backend_infos()
    width = max(len(i["name"]) for i in infos)
    for info in infos:
        status = "available" if info["available"] else "unavailable"
        print(f"{info['name']:>{width}}  {status:<12} {info['reason']}")
    auto = resolve_backend("auto")
    why = next(i["reason"] for i in infos if i["name"] == auto)
    print(f"{'auto':>{width}}  -> {auto:<9} {why}")
    return 0


def _cmd_multifactor(args) -> int:
    from repro.cubes.multifactor import MultiFactorCube
    from repro.graphs.traversal import is_connected
    from repro.isometry import is_isometric

    factors = [f for f in args.factors.split(",") if f]
    cube = MultiFactorCube(factors, args.d)
    print(f"Q_{args.d}({{{','.join(cube.factors)}}}):")
    print(f"        vertices: {cube.num_vertices}")
    print(f"           edges: {cube.num_edges}")
    print(f"       connected: {is_connected(cube.graph())}")
    print(f"  isometric in Q: {is_isometric(cube)}")
    return 0


def _cmd_cubepoly(args) -> int:
    from repro.invariants.cubepoly import cube_coefficients

    co = cube_coefficients((args.factor, args.d))
    print(f"C(Q_{args.d}({args.factor}), x) coefficients:")
    for k, c in enumerate(co):
        if c or k <= 2:
            label = {0: "|V|", 1: "|E|", 2: "|S|"}.get(k, f"Q_{k}s")
            print(f"  c_{k} = {c:<10} ({label})")
    return 0


def _cmd_spectrum(args) -> int:
    from repro.cubes.generalized import generalized_fibonacci_cube
    from repro.network.cycles import cycle_spectrum

    g = generalized_fibonacci_cube(args.factor, args.d).graph()
    spec = cycle_spectrum(g)
    print(f"cycle lengths of Q_{args.d}({args.factor}): {spec or 'none (acyclic)'}")
    evens = list(range(4, g.num_vertices + 1, 2))
    full = all(L in spec for L in evens if L <= (g.num_vertices // 2) * 2)
    print(f"cycles of every even length up to |V|: {full}")
    return 0


def _cmd_wiener(args) -> int:
    from repro.invariants.distances import (
        average_distance,
        wiener_by_cuts,
        wiener_index,
    )

    spec = (args.factor, args.d)
    w = wiener_index(spec)
    cuts = wiener_by_cuts(spec)
    print(f"Wiener index W(Q_{args.d}({args.factor})) = {w}")
    print(f"average distance = {average_distance(spec):.4f}")
    print(f"coordinate-cut sum = {cuts} "
          f"({'matches: isometric' if cuts == w else 'undercounts: NOT isometric'})")
    return 0


def _cmd_table1(args) -> int:
    from repro.classify import classification_table, table1_expected

    rows = classification_table(max_d=args.max_d)
    expected = table1_expected()
    mismatches = 0
    for row in rows:
        want = expected.get(row.f, "-absent-")
        status = "always" if row.threshold is None else f"iff d <= {row.threshold}"
        ok = want == row.threshold
        mismatches += 0 if ok else 1
        mark = "OK " if ok else "DIFF"
        print(f"[{mark}] {row.f:>6}  {status:<14} via {', '.join(row.sources)}")
    print(f"{len(rows)} rows, {mismatches} mismatches vs the paper")
    return 1 if mismatches else 0


def _cmd_classify(args) -> int:
    from repro.classify import classify, classify_with_bruteforce

    fn = classify_with_bruteforce if args.bruteforce else classify
    print(str(fn(args.factor, args.d)))
    return 0


def _cmd_counts(args) -> int:
    from repro.words import (
        count_edges_automaton,
        count_squares_automaton,
        count_vertices_automaton,
    )

    f, d = args.factor, args.d
    print(f"|V(Q_{d}({f}))| = {count_vertices_automaton(f, d)}")
    print(f"|E(Q_{d}({f}))| = {count_edges_automaton(f, d)}")
    print(f"|S(Q_{d}({f}))| = {count_squares_automaton(f, d)}")
    return 0


def _cmd_structure(args) -> int:
    from repro.invariants import structure_report

    rep = structure_report((args.factor, args.d))
    for key, value in vars(rep).items():
        print(f"{key:>14}: {value}")
    print(f"  prop 6.1 (max degree = diameter = d): {rep.satisfies_prop_6_1()}")
    return 0


def _cmd_network(args) -> int:
    from repro.network import (
        BfsRouter,
        CanonicalRouter,
        broadcast_rounds,
        route_stats,
        topology_of,
    )

    topo = topology_of((args.factor, args.d))
    print(f"topology {topo.name}")
    for key, value in topo.metrics().items():
        print(f"{key:>24}: {value}")
    for router in (BfsRouter(), CanonicalRouter()):
        stats = route_stats(topo, router)
        print(
            f"router {stats.router:>10}: delivery {stats.delivery_rate:.3f}, "
            f"optimal {stats.optimality_rate:.3f}, stretch {stats.stretch:.3f}"
        )
    rounds, bound = broadcast_rounds(topo, 0)
    print(f"broadcast rounds from node 0: {rounds} (lower bound {bound})")
    return 0


def _cmd_ladder(args) -> int:
    from repro.conjectures import q101_ladder_certificate

    cert = q101_ladder_certificate(args.d)
    print(f"Q_{args.d}(101): Theta* ladder verified, {len(cert.rungs)} rungs")
    for top, bottom in cert.rungs:
        print(f"  {top}")
        print(f"  {bottom}")
        print("  --")
    print("e and g are Theta*-related but NOT Theta-related => not a partial cube")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
