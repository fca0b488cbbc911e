"""The four benchmark workloads: set-up, one job, and output checks.

Every workload runs in the benchmark's own process with one simulation
worker at most, and derives all of its inputs from the workload seed.
A workload object provides:

- ``setup()``: what a user pays once per process (native kernel load,
  topology construction, warm-cache template); it returns the topology
  metrics, and the runner repeats it ``setup_reps`` times;
- ``prepare()`` then ``run(probe)``: untimed preparation, then one job
  returning a :class:`JobOutput`; the job times each of its calls and
  runs the host-speed ``probe`` before the first call and after each;
- ``check_job(out)``: cheap invariants on every job's output, plus
  equality with the first job's (same seed, same results);
- ``check_oracles(out)``: the expensive comparisons against independent
  oracles, on the last job only.

Both checks run outside the timed region and return ``(attempted,
failed, problems)``.  ``corrupt(out)`` deliberately damages one result,
so the checks can be shown to catch it.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import shutil
import threading
import tracemalloc
from dataclasses import astuple, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.analytic import bounds
from repro.analytic.enumeration import edge_system
from repro.analytic.fsm import FSM
from repro.combinat.sequences import fibonacci
from repro.cubes import generalized, multifactor
from repro.invariants.counts import brute_counts, recurrences_110, recurrences_111
from repro.network import backends, sweep
from repro.network.service import cache as cache_mod
from repro.network.service.client import SweepClient
from repro.network.service.server import SweepServer
from repro.words import counting
from repro.words.correlation import count_avoiding_gf

BACKEND = "native"

Tally = Tuple[int, int, List[str]]


@dataclass
class JobOutput:
    """One job's results: ``points`` is how many results the caller got
    (grid points or counts); ``parts`` the wall time of each call the
    job makes, in order; ``probes`` the probe times around them (one
    more than ``parts``); ``firsts`` the time from each call to its
    first streamed result, empty when every result arrives at the end
    of its call; ``cached`` is how many the service answered from its
    cache."""

    results: Any
    points: int
    parts: List[float]
    probes: List[float]
    firsts: List[float] = field(default_factory=list)
    cached: int = 0


def _timed(
    calls: Iterable[Callable[[], Any]], probe: Callable[[], float]
) -> Tuple[List[Any], List[float], List[float]]:
    """Each call's result and wall time, and the probe's time before
    the first call and after each."""
    results, parts, probes = [], [], [probe()]
    for call in calls:
        t0 = perf_counter()
        results.append(call())
        parts.append(perf_counter() - t0)
        probes.append(probe())
    return results, parts, probes


def _clear_cube_caches() -> None:
    sweep.parse_topology.cache_clear()
    generalized.generalized_fibonacci_cube.cache_clear()
    multifactor.multi_factor_cube.cache_clear()
    bounds.cube_model.cache_clear()
    bounds.analytic_summary.cache_clear()


def _payload(record) -> tuple:
    """A record's columns minus ``batch``, which describes the run that
    produced the record rather than the simulated point."""
    return tuple(
        (f.name, v) for f, v in zip(fields(record), astuple(record))
        if f.name != "batch"
    )


class Workload:
    """What every workload provides; see the module docstring."""

    name = ""
    # spans a traced job must record; one with no call means the layer
    # moved or vanished, which the runner reports
    expected_spans: Tuple[str, ...] = ()
    setup_reps = 7

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._reference: Any = None  # the first job's results

    def setup(self) -> Dict[str, float]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed per-job preparation, so every job does the same work."""

    def run(self, probe: Callable[[], float]) -> JobOutput:
        raise NotImplementedError

    def check_job(self, out: JobOutput) -> Tally:
        raise NotImplementedError

    def check_oracles(self, out: JobOutput) -> Tally:
        raise NotImplementedError

    def corrupt(self, out: JobOutput) -> None:
        raise NotImplementedError

    def squares_peak_mb(self) -> float:
        return 0.0

    def close(self) -> None:
        pass


class GridWorkload(Workload):
    """A sweep grid run through ``run_sweep`` on the native backend."""

    axes: Dict[str, Any] = {}  # expand_grid arguments except the seeds
    num_seeds = 4
    batch = 48
    samples = 4  # grid points re-run unbatched on the NumPy backend
    # a job makes one call per topology and entry here (axes overridden
    # for that call); every call is one whole batch or more, so the calls
    # do the grid's work, and their records concatenate to the grid's
    part_axes: Tuple[Dict[str, Any], ...] = ({},)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        n = self.num_seeds
        self.grid = dict(self.axes, seeds=list(range(n * seed, n * seed + n)))
        self.specs = sweep.expand_grid(**self.grid)
        self.part_grids = [
            dict(self.grid, topologies=[t], **axes)
            for t in self.grid["topologies"] for axes in self.part_axes
        ]
        tiled = [s for g in self.part_grids for s in sweep.expand_grid(**g)]
        if tiled != self.specs:
            raise ValueError(f"{self.name}: the calls do not tile the grid")

    def setup(self) -> Dict[str, float]:
        backends.reset()
        backends.resolve_backend(BACKEND)  # strict: no NumPy fallback
        _clear_cube_caches()
        t0 = perf_counter()
        topos = [sweep.parse_topology(t) for t in self.grid["topologies"]]
        build_s = perf_counter() - t0
        for topo in topos:
            # the analytic_bound column is a per-topology constant
            bounds.analytic_saturation_bound(topo.name)
        return {
            "topology.build_s": build_s,
            "topology.nodes": float(sum(t.num_nodes for t in topos)),
            "topology.links": float(sum(t.num_links for t in topos)),
        }

    def run(self, probe: Callable[[], float]) -> JobOutput:
        # looked up at call time, so traced jobs call the wrapped function
        outs, parts, probes = _timed((
            partial(sweep.run_sweep, **grid, batch=self.batch, processes=1,
                    backend=BACKEND)
            for grid in self.part_grids
        ), probe)
        records = [rec for out in outs for rec in out]
        # a user's single run_sweep call returns every record at its end
        return JobOutput(
            results=records, points=len(records), parts=parts, probes=probes
        )

    def corrupt(self, out: JobOutput) -> None:
        rec = out.results[0]
        out.results[0] = replace(rec, delivered=rec.delivered + 1)

    def check_job(self, out: JobOutput) -> Tally:
        """Every record conserves packets, the grid is complete, and
        the records equal the first job's."""
        records = out.results
        payloads = [_payload(r) for r in records]
        if self._reference is None:
            self._reference = payloads
        problems: List[str] = []
        bad = set()
        for i, rec in enumerate(records):
            if rec.injected != rec.delivered + rec.dropped + rec.stalled:
                bad.add(i)
                problems.append(f"record {i}: packets not conserved")
            if i >= len(self._reference) or payloads[i] != self._reference[i]:
                bad.add(i)
                problems.append(f"record {i}: differs from the first job's")
        missing = abs(len(self.specs) - len(records))
        if missing:
            problems.append(
                f"{len(records)} records for a {len(self.specs)}-point grid"
            )
        return len(self.specs), len(bad) + missing, problems

    def check_oracles(self, out: JobOutput) -> Tally:
        """A seeded sample of grid points, re-run alone through
        ``run_point`` on the NumPy backend, equals the batched native
        records column for column."""
        records = out.results
        rng = random.Random(self.seed)
        problems = []
        for i in sorted(rng.sample(range(len(self.specs)), self.samples)):
            ref = sweep.run_point(self.specs[i], backend="numpy")
            if i >= len(records) or _payload(records[i]) != _payload(ref):
                problems.append(f"record {i}: differs from the unbatched NumPy run")
        return self.samples, len(problems), problems


class SweepSf(GridWorkload):
    name = "sweep_sf"
    expected_spans = (
        "traffic.make_traffic", "routing.build_table", "routing.bfs",
        "batch.run_batch", "kernel.run_fused", "sweep.run_sweep",
        "sweep.run_batch_points", "sweep.expand_grid", "analytic.bound",
    )
    axes = {
        "topologies": ["Q:8", "11:9", "101:9"],
        "patterns": ["uniform", "transpose", "tornado", "hotspot"],
        "loads": [0.1, 0.3, 0.6],
    }


class SweepWormhole(GridWorkload):
    name = "sweep_wormhole"
    expected_spans = SweepSf.expected_spans + ("traffic.flit_sizes",)
    num_seeds = 8
    batch = 24  # one (topology, pattern) call
    part_axes = ({"patterns": ["uniform"]}, {"patterns": ["transpose"]})
    axes = {
        "topologies": ["Q:7", "11:8"],
        "patterns": ["uniform", "transpose"],
        "loads": [0.1, 0.2, 0.3],
        "switching": ["wormhole"],
        "vcs": [2],
        "buffers": [4],
        "flits": ["1-4"],
    }


class ServiceResume(GridWorkload):
    """The full grid submitted to an in-process ``SweepServer`` whose
    cache starts every job from a fresh copy of a template warmed with
    the first half of the seeds."""

    name = "service_resume"
    batch = 32
    num_seeds = 12
    setup_reps = 5  # each set-up simulates the warm half of the grid
    expected_spans = (
        "traffic.make_traffic", "traffic.compile_workload",
        "routing.build_table", "routing.bfs", "batch.run_batch",
        "kernel.run_fused", "sweep.run_batch_points", "sweep.expand_grid",
        "cache.get", "cache.put", "service.submit", "service.encode",
    )
    axes = {
        "topologies": ["Q:5", "11:6", "101:6"],
        "patterns": ["uniform", "transpose", "tornado", "hotspot"],
        "workloads": ["", "bg:uniform:0.2;fg:hotspot:0.4:2"],
        "loads": [0.1, 0.3, 0.6],
    }
    # one submit per topology and pattern (the tenant mix after uniform,
    # where the grid puts it): 36 points, 18 of them cached
    part_axes = tuple(
        {"patterns": [p], "workloads": [w]}
        for p, w in (
            ("uniform", ""), ("uniform", axes["workloads"][1]),
            ("transpose", ""), ("tornado", ""), ("hotspot", ""),
        )
    )

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.warm_grid = dict(
            self.grid, seeds=self.grid["seeds"][: self.num_seeds // 2]
        )
        self.warm_points = len(sweep.expand_grid(**self.warm_grid))
        self.template = workdir / "template"
        self.live = workdir / "live"
        self._server: Optional[SweepServer] = None
        self._thread: Optional[threading.Thread] = None

    def setup(self) -> Dict[str, float]:
        topo = super().setup()
        shutil.rmtree(self.template, ignore_errors=True)
        sweep.run_sweep(
            **self.warm_grid, batch=self.batch, processes=1, backend=BACKEND,
            cache=cache_mod.ResultCache(self.template),
        )
        return topo

    def _start(self) -> None:
        server = SweepServer(port=0, workers=1, batch=self.batch, backend=BACKEND)
        ready = threading.Event()
        failure: List[BaseException] = []

        async def main():
            try:
                await server.start()
            except BaseException as exc:  # re-raised in the caller below
                failure.append(exc)
                raise
            finally:
                ready.set()
            await server.serve_until_shutdown()

        thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
        thread.start()
        if not ready.wait(timeout=60) or failure:
            raise RuntimeError(f"sweep server failed to start: {failure}")
        self._server, self._thread = server, thread

    def prepare(self) -> None:
        if self._server is None:
            self._start()
        shutil.rmtree(self.live, ignore_errors=True)
        # hard links are a fresh copy for the cache: it replaces entries
        # by rename and never writes into an existing file
        shutil.copytree(self.template, self.live, copy_function=os.link)
        # flush the file churn now, not while the next job is timed
        os.sync()
        self._server.cache = cache_mod.ResultCache(self.live)

    def run(self, probe: Callable[[], float]) -> JobOutput:
        client = SweepClient(port=self._server.port, timeout=120)
        firsts: List[float] = []
        cached: List[int] = []

        def submit(grid: Dict[str, Any]) -> List[Any]:
            t0 = perf_counter()
            first: List[float] = []

            def on_event(event: Dict[str, Any]) -> None:
                if event.get("event") == "record" and not first:
                    first.append(perf_counter() - t0)
                elif event.get("event") == "done":
                    cached.append(event["cached"])

            records = client.submit(grid, on_event=on_event)
            firsts.append(first[0])
            return records

        outs, parts, probes = _timed(
            (partial(submit, grid) for grid in self.part_grids), probe
        )
        records = [rec for out in outs for rec in out]
        return JobOutput(
            results=records, points=len(records), parts=parts, probes=probes,
            firsts=firsts, cached=sum(cached),
        )

    def check_job(self, out: JobOutput) -> Tally:
        """Also: the job resumed from exactly the warm half."""
        attempted, failed, problems = super().check_job(out)
        if out.cached != self.warm_points:
            failed += 1
            problems.append(
                f"{out.cached} cache hits, expected {self.warm_points} "
                "from the warm template"
            )
        return attempted, failed, problems

    def check_oracles(self, out: JobOutput) -> Tally:
        """The streamed records equal an in-process ``run_sweep`` of the
        same grid."""
        ref = sweep.run_sweep(
            **self.grid, batch=self.batch, processes=1, backend=BACKEND
        )
        bad = [
            i for i, (a, b) in enumerate(zip(out.results, ref))
            if _payload(a) != _payload(b)
        ]
        problems = [f"record {i}: differs from run_sweep" for i in bad]
        return len(ref), len(bad), problems

    def close(self) -> None:
        if self._server is not None:
            self._server.request_shutdown()
            self._thread.join(timeout=60)
            if self._thread.is_alive():
                raise RuntimeError("sweep server failed to shut down")
            self._server = self._thread = None


class Counts(Workload):
    """Exact vertex, edge and square counts over every binary factor of
    length 2-5, square counts for a seeded sample of factors of length
    7-8, and analytic summaries."""

    name = "counts"
    expected_spans = (
        "counting.vertices", "counting.edges", "counting.squares",
        "analytic.summary",
    )
    factors = tuple(
        "".join(bits) for n in range(2, 6)
        for bits in itertools.product("01", repeat=n)
    )
    d_vertices_edges = 200
    d_squares = 32
    d_long = 54
    d_summary = 12

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = random.Random(seed)

        def words(n: int) -> List[str]:
            return ["".join(b) for b in itertools.product("01", repeat=n)]

        self.long_factors = tuple(rng.sample(words(7), 2) + rng.sample(words(8), 2))
        self.brute_sample = tuple(rng.sample(self.factors, 6)) + self.long_factors
        self.brute_d = tuple(rng.randint(8, 10) for _ in self.brute_sample)

    def setup(self) -> Dict[str, float]:
        return {"topology.build_s": 0.0, "topology.nodes": 0.0,
                "topology.links": 0.0}

    def prepare(self) -> None:
        _clear_cube_caches()

    def _calls(self):
        """The job's counts as ``(kind, function, factors, d)``: one call
        per kind over every short factor, and one per long factor (each
        a heavy DP); functions are looked up at call time, so traced jobs
        call the wrapped ones."""
        dv, ds, dl = self.d_vertices_edges, self.d_squares, self.d_long
        yield "V", counting.count_vertices_automaton, self.factors, dv
        yield "E", counting.count_edges_automaton, self.factors, dv
        yield "S", counting.count_squares_automaton, self.factors, ds
        for f in self.long_factors:
            yield "S", counting.count_squares_automaton, (f,), dl
        yield "A", self._summary, self.factors, self.d_summary

    @staticmethod
    def _summary(f: str, d: int) -> Tuple[int, int]:
        summary = bounds.analytic_summary(f"{f}:{d}")
        return summary["nodes"], summary["edges"]

    def run(self, probe: Callable[[], float]) -> JobOutput:
        out: Dict[Tuple[str, str, int], Any] = {}

        def count(kind: str, fn, factors: Tuple[str, ...], d: int) -> None:
            for f in factors:
                out[kind, f, d] = fn(f, d)

        _, parts, probes = _timed(
            (partial(count, *call) for call in self._calls()), probe
        )
        return JobOutput(results=out, points=len(out), parts=parts,
                         probes=probes)

    def corrupt(self, out: JobOutput) -> None:
        key = next(iter(out.results))
        out.results[key] += 1

    def squares_peak_mb(self) -> float:
        """Peak traced allocation of the long-factor square counts (the
        memory-heavy DP), one call at a time."""
        peak = 0
        for f in self.long_factors:
            tracemalloc.start()
            try:
                counting.count_squares_automaton(f, self.d_long)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 1e6

    def check_job(self, out: JobOutput) -> Tally:
        if self._reference is None:
            self._reference = dict(out.results)
        diff = [k for k, v in out.results.items() if self._reference.get(k) != v]
        problems = [f"{k}: differs from the first job's" for k in diff]
        return len(out.results), len(diff), problems

    def check_oracles(self, out: JobOutput) -> Tally:
        """Each count against an independent source, where one exists,
        and a seeded sample of small cubes against brute force."""
        attempted, problems = 0, []
        for key, value in out.results.items():
            attempted += 1
            want = self._oracle(key)
            if want is not None and value != want:
                problems.append(f"{key}: got {value}, expected {want}")
        for f, d in zip(self.brute_sample, self.brute_d):
            ref = brute_counts(f, d)
            for kind, fn, want in (
                ("edges", counting.count_edges_automaton, ref.edges),
                ("squares", counting.count_squares_automaton, ref.squares),
            ):
                attempted += 1
                got = fn(f, d)
                if got != want:
                    problems.append(
                        f"{kind} of Q_{d}({f}): {got}, brute force {want}"
                    )
        return attempted, len(problems), problems

    @staticmethod
    def _oracle(key) -> Any:
        """The independently computed value of one count, or ``None``
        (long squares: only brute force at small ``d`` covers them)."""
        kind, f, d = key
        if kind == "V":
            return fibonacci(d + 2) if f == "11" else count_avoiding_gf(f, d)
        if kind == "E":
            return edge_system(FSM.from_factors((f,))).term(d)
        if kind == "S" and f in ("110", "111"):
            rec = recurrences_110 if f == "110" else recurrences_111
            return rec(d)[d].squares
        if kind == "A":
            cube = generalized.generalized_fibonacci_cube(f, d)
            return (cube.num_vertices, cube.num_edges)
        return None


WORKLOADS = {
    cls.name: cls for cls in (SweepSf, SweepWormhole, ServiceResume, Counts)
}
