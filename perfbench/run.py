"""Layer-attributed end-to-end benchmark of the repro package.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_sf --seed 0 --seconds 10 --trace 0

One run sets the workload up several times (reporting the median
set-up time), then repeats its job until ``--seconds`` have passed
(three jobs at least); the job time is the sum, over the job's calls,
of each call's median time.  Every time is scaled to the host-speed
probe's reference speed by the probes timed on either side of it (see
``probe.py``); the raw times go to an ``env`` line before the result.
With ``--trace 0`` the jobs run the unmodified program and the last
stdout line carries the end-to-end metrics; with ``--trace 1`` traced
and untraced jobs alternate, and the last line carries the per-layer
metrics instead (medians over the traced jobs) plus the tracing
overhead.  Every job's
output is checked after the timed region; the result line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The native kernel and all scratch files go under ``.bench_build/`` in
the current directory.  Without the package sources under ``./src`` the
run fails with exit status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

MIN_JOBS = 3
# what a fresh process imports before it can run any workload
IMPORTS = (
    "import repro.network, repro.network.service, "
    "repro.words.counting, repro.analytic"
)

END_TO_END = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "first_record_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "topology.build_s": "s",
    "topology.nodes": "count",
    "topology.links": "count",
    "traffic.self_s": "s",
    "traffic.calls": "count",
    "traffic.packets": "count",
    "traffic.ns_per_packet": "ns",
    "routing.table_s": "s",
    "routing.pairs": "count",
    "routing.packets_per_pair": "ratio",
    "routing.bfs_s": "s",
    "routing.bfs_calls": "count",
    "batch.self_s": "s",
    "batch.items": "count",
    "kernel.s": "s",
    "kernel.calls": "count",
    "kernel.sim_cycles": "count",
    "kernel.flit_hops": "count",
    "kernel.ns_per_flit_hop": "ns",
    "sweep.self_s": "s",
    "sweep.expand_s": "s",
    "sweep.points": "count",
    "cache.get_s": "s",
    "cache.gets": "count",
    "cache.hit_rate": "ratio",
    "cache.put_s": "s",
    "cache.puts": "count",
    "cache.us_per_get": "us",
    "cache.us_per_put": "us",
    "service.wire_s": "s",
    "service.bytes": "bytes",
    "service.records": "count",
    "counting.vertices_s": "s",
    "counting.edges_s": "s",
    "counting.squares_s": "s",
    "counting.squares_peak_mb": "MB",
    "analytic.summary_s": "s",
    "analytic.bound_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
    "trace.missing_spans": "count",
}


def _parse(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--corrupt", action="store_true",
        help="damage one result of the last job before the checks "
             "(shows that the checks catch it)",
    )
    return ap.parse_args(argv)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _metrics(values: Dict[str, float], units: Dict[str, str]) -> dict:
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


TIME_UNITS = ("s", "ns", "us")


def _scaled(
    values: Dict[str, float], factor: float, units: Dict[str, str]
) -> Dict[str, float]:
    """``values`` with every time scaled to the probe's reference speed."""
    return {
        k: v * factor if units[k] in TIME_UNITS else v
        for k, v in values.items()
    }


def _run(args: argparse.Namespace, root: Path, workdir: Path) -> dict:
    import numpy

    import jobs
    from probe import REFERENCE_S, probe
    from repro.network.backends import native
    from tracing import Tracer

    if args.workload not in jobs.WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(jobs.WORKLOADS)}"
        )
    wl = jobs.WORKLOADS[args.workload](args.seed, workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    tracer = Tracer()
    try:
        # raw set-up times, and each one's probe-scaling factor
        setup_s: List[float] = []
        setup_f: List[float] = []
        topo: List[Dict[str, float]] = []
        for _ in range(wl.setup_reps):
            before = probe()
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)
            topo.append(wl.setup())
            setup_s.append(perf_counter() - t0)
            setup_f.append(2 * REFERENCE_S / (before + probe()))

        # each job's call times, each scaled by the probes on either
        # side of it; a traced run alternates untraced and traced jobs
        scaled: Dict[bool, List[List[float]]] = {False: [], True: []}
        raw: Dict[bool, List[float]] = {False: [], True: []}  # job sums
        job_probes: List[float] = []  # median probe of each untraced job
        firsts: List[float] = []
        layers: List[Dict[str, float]] = []
        missing: set = set()
        attempted = failed = points = 0
        problems: List[str] = []

        def tally(result) -> None:
            nonlocal attempted, failed
            attempted += result[0]
            failed += result[1]
            problems.extend(result[2])

        def enough() -> bool:
            if args.trace:
                return min(len(scaled[False]), len(scaled[True])) >= 2
            return len(scaled[False]) >= MIN_JOBS

        start = perf_counter()
        done = False
        while not done:
            traced = bool(args.trace) and len(scaled[False]) > len(scaled[True])
            wl.prepare()
            gc.collect()  # every job starts from the same heap
            if traced:
                tracer.reset()
                tracer.install()
            try:
                out = wl.run(probe)
            finally:
                tracer.uninstall()
            factors = [
                2 * REFERENCE_S / (a + b)
                for a, b in zip(out.probes, out.probes[1:])
            ]
            calls = [t * f for t, f in zip(out.parts, factors)]
            scaled[traced].append(calls)
            raw[traced].append(sum(out.parts))
            if traced:
                layers.append(_scaled(
                    tracer.layer_metrics(), sum(calls) / sum(out.parts),
                    PER_LAYER,
                ))
                missing.update(tracer.missing(wl.expected_spans))
            else:
                job_probes.append(statistics.median(out.probes))
                firsts += [t * f for t, f in zip(out.firsts, factors)]
            points = out.points
            done = enough() and perf_counter() - start >= args.seconds
            if done and args.corrupt:
                wl.corrupt(out)
            tally(wl.check_job(out))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        squares_peak_mb = wl.squares_peak_mb() if args.trace else 0.0
        tally(wl.check_oracles(out))
    finally:
        wl.close()

    for line in problems[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    for key in sorted(missing):
        print(f"perfbench: {args.workload}: declared span {key} recorded no "
              "calls", file=sys.stderr)
    print(json.dumps({"env": {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": jobs.BACKEND,
        "native": native.load_library()[1],
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "job_s": raw[False],
        "traced_job_s": raw[True],
        "job_probe_s": job_probes,
        "probe_reference_s": REFERENCE_S,
        "setup_s": setup_s,
    }}))

    med = statistics.median
    setup = med(s * f for s, f in zip(setup_s, setup_f))
    if args.trace:
        values = {k: med(layer[k] for layer in layers) for k in layers[0]}
        values.update({
            k: med(_scaled(t, f, PER_LAYER)[k] for t, f in zip(topo, setup_f))
            for k in topo[0]
        })
        values["counting.squares_peak_mb"] = squares_peak_mb
        traced_s = med(sum(job) for job in scaled[True])
        values["trace.wall_s"] = traced_s
        values["trace.overhead"] = (
            traced_s / med(sum(job) for job in scaled[False]) - 1
        )
        values["trace.missing_spans"] = float(len(missing))
        metrics = _metrics(values, PER_LAYER)
    else:
        # each call's median over the jobs, summed over the job's calls
        wall = sum(med(times) for times in zip(*scaled[False]))
        metrics = _metrics({
            "wall_s": wall,
            "points_per_s": points / wall,
            "first_record_s": med(firsts) if firsts else wall,
            "setup_s": setup,
            "peak_rss_mb": peak_rss_mb,
        }, END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: List[str]) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no package sources at ./src/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(1, str(root / "src"))
    build = root / ".bench_build"
    # the native kernel is compiled on first use and cached here
    os.environ["REPRO_CACHE_DIR"] = str(build / "repro")
    workdir = build / f"perfbench-{os.getpid()}"
    try:
        result = _run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
