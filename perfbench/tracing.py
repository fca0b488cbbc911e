"""Outside-in spans around the public functions of each repro layer.

A :class:`Tracer` wraps every declared function *by identity*: it finds
each binding of the function object in the loaded ``repro.*`` modules
(so aliased imports such as ``batch.run_fused`` or
``simulator.bfs_distances`` are timed too) and patches methods on the
class that defines them.  Spans nest per thread; a span's *self* time is
its duration minus the time its child spans (and the tracer's own
bookkeeping inside it) cover, so the self times of all layers add up to
the traced part of the wall time without double counting.

Nothing is patched until :meth:`Tracer.install`; :meth:`Tracer.uninstall`
restores every original binding, so untraced runs execute the program
unmodified.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Hook = Callable[[Dict[str, float], tuple, dict, Any], None]


@dataclass(frozen=True)
class Span:
    """One traced function: ``key`` is ``<layer>.<name>``, ``target`` is
    ``module:qualname`` (``Class.method`` for methods)."""

    key: str
    target: str
    hook: Optional[Hook] = None


@dataclass
class SpanStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    # self time recorded off the main thread (server-side work of the
    # in-process sweep service)
    bg_self_s: float = 0.0


def _add(counters: Dict[str, float], name: str, value: float) -> None:
    counters[name] = counters.get(name, 0.0) + value


# -- count hooks: read sizes from arguments and results, never mutate --


def _count_packets(counters, args, kwargs, result) -> None:
    traffic = getattr(result, "traffic", result)
    _add(counters, "traffic.packets", len(traffic))


def _count_pairs(counters, args, kwargs, result) -> None:
    _add(counters, "routing.pairs", len(result.pair_row))


def _count_items(counters, args, kwargs, result) -> None:
    items = args[1] if len(args) > 1 else kwargs["items"]
    _add(counters, "batch.items", len(items))


def _count_kernel(counters, args, kwargs, result) -> None:
    runs = args[1] if len(args) > 1 else kwargs["runs"]
    _add(counters, "kernel.flit_hops",
         sum(int((run.nf * run.nhops).sum()) for run in runs))
    _add(counters, "kernel.sim_cycles", sum(out.cycles for out in result))


def _count_points(counters, args, kwargs, result) -> None:
    _add(counters, "sweep.points", len(result))


def _count_hit(counters, args, kwargs, result) -> None:
    if result is not None:
        _add(counters, "cache.hits", 1)


def _count_bytes(counters, args, kwargs, result) -> None:
    _add(counters, "service.bytes", len(result))


def _count_records(counters, args, kwargs, result) -> None:
    _add(counters, "service.records", len(result))


SPANS: Tuple[Span, ...] = (
    Span("traffic.make_traffic", "repro.network.traffic:make_traffic",
         _count_packets),
    Span("traffic.compile_workload",
         "repro.network.workloads:compile_workload", _count_packets),
    Span("traffic.flit_sizes", "repro.network.traffic:flit_sizes"),
    Span("routing.build_table", "repro.network.routing:BfsRouter.build_table",
         _count_pairs),
    Span("routing.route_table", "repro.network.routing:RouteTable.build",
         _count_pairs),
    Span("routing.bfs", "repro.graphs.traversal:bfs_distances"),
    Span("batch.run_batch", "repro.network.batch:BatchedSimulator.run_batch",
         _count_items),
    Span("kernel.run_fused", "repro.network.kernel:run_fused", _count_kernel),
    Span("sweep.run_sweep", "repro.network.sweep:run_sweep"),
    Span("sweep.run_batch_points", "repro.network.sweep:run_batch_points"),
    Span("sweep.run_point", "repro.network.sweep:run_point"),
    Span("sweep.expand_grid", "repro.network.sweep:expand_grid", _count_points),
    Span("cache.get", "repro.network.service.cache:ResultCache.get",
         _count_hit),
    Span("cache.put", "repro.network.service.cache:ResultCache.put"),
    Span("service.submit", "repro.network.service.client:SweepClient.submit",
         _count_records),
    Span("service.encode", "repro.network.service.protocol:encode_message",
         _count_bytes),
    Span("counting.vertices", "repro.words.counting:count_vertices_automaton"),
    Span("counting.edges", "repro.words.counting:count_edges_automaton"),
    Span("counting.squares", "repro.words.counting:count_squares_automaton"),
    Span("analytic.summary", "repro.analytic.bounds:analytic_summary"),
    Span("analytic.bound", "repro.analytic.bounds:analytic_saturation_bound"),
)


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` of a ``module:qualname``
    target; for methods the owner is the defining class and the raw
    value comes from its ``__dict__`` (so classmethods stay wrapped as
    classmethods)."""
    mod_name, qualname = target.split(":")
    owner: Any = importlib.import_module(mod_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    return owner, attr, raw


class Tracer:
    """Patches the declared spans in and out, and aggregates per span:
    calls, total time, self time, plus the counts the hooks read."""

    def __init__(self, spans: Tuple[Span, ...] = SPANS):
        self.spans = spans
        self.stats: Dict[str, SpanStat] = {}
        self.counters: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- lifecycle -----------------------------------------------------

    def reset(self) -> None:
        self.stats = {s.key: SpanStat() for s in self.spans}
        self.counters = {}

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for span in self.spans:
            owner, attr, raw = _resolve(span.target)
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__))
                else:
                    wrapped = self._wrap(span, raw)
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrap(span, raw)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")
                ):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, name, raw, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    # -- the span wrapper ----------------------------------------------

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, span: Span, fn: Callable) -> Callable:
        tracer = self
        key, hook = span.key, span.hook

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
            main = threading.current_thread() is threading.main_thread()
            with tracer._lock:
                stat = tracer.stats.setdefault(key, SpanStat())
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if not main:
                    stat.bg_self_s += duration - frame[0]
                if hook is not None:
                    hook(tracer.counters, args, kwargs, result)
            if stack:
                # the parent's self time excludes this span and the
                # bookkeeping above
                stack[-1][0] += perf_counter() - t0
            return result

        return wrapper

    # -- reading the aggregates ----------------------------------------

    def missing(self, expected: Tuple[str, ...]) -> List[str]:
        """Expected span keys that recorded no call."""
        return [k for k in expected if self.stats.get(k, SpanStat()).calls == 0]

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer metrics one traced job yields (topology,
        counting memory and trace overhead are measured elsewhere)."""
        def s(key: str) -> SpanStat:
            return self.stats.get(key, SpanStat())

        def c(name: str) -> float:
            return self.counters.get(name, 0.0)

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        traffic_keys = ("traffic.make_traffic", "traffic.compile_workload",
                        "traffic.flit_sizes")
        traffic_s = sum(s(k).self_s for k in traffic_keys)
        packets = c("traffic.packets")
        pairs = c("routing.pairs")
        kernel_s = s("kernel.run_fused").self_s
        gets, puts = s("cache.get"), s("cache.put")
        submit = s("service.submit")
        server_side = sum(
            st.bg_self_s for k, st in self.stats.items()
            if not k.startswith("service.")
        )
        return {
            "traffic.self_s": traffic_s,
            "traffic.calls": float(sum(s(k).calls for k in traffic_keys)),
            "traffic.packets": packets,
            "traffic.ns_per_packet": per(traffic_s, packets, 1e9),
            "routing.table_s": (s("routing.build_table").self_s
                                + s("routing.route_table").self_s),
            "routing.pairs": pairs,
            "routing.packets_per_pair": per(packets, pairs),
            "routing.bfs_s": s("routing.bfs").self_s,
            "routing.bfs_calls": float(s("routing.bfs").calls),
            "batch.self_s": s("batch.run_batch").self_s,
            "batch.items": c("batch.items"),
            "kernel.s": kernel_s,
            "kernel.calls": float(s("kernel.run_fused").calls),
            "kernel.sim_cycles": c("kernel.sim_cycles"),
            "kernel.flit_hops": c("kernel.flit_hops"),
            "kernel.ns_per_flit_hop": per(kernel_s, c("kernel.flit_hops"), 1e9),
            "sweep.self_s": sum(
                s(k).self_s for k in ("sweep.run_sweep",
                                      "sweep.run_batch_points",
                                      "sweep.run_point")
            ),
            "sweep.expand_s": s("sweep.expand_grid").self_s,
            "sweep.points": c("sweep.points"),
            "cache.get_s": gets.self_s,
            "cache.gets": float(gets.calls),
            "cache.hit_rate": per(c("cache.hits"), gets.calls),
            "cache.put_s": puts.self_s,
            "cache.puts": float(puts.calls),
            "cache.us_per_get": per(gets.self_s, gets.calls, 1e6),
            "cache.us_per_put": per(puts.self_s, puts.calls, 1e6),
            "service.wire_s": (
                max(submit.total_s - server_side, 0.0) if submit.calls else 0.0
            ),
            "service.bytes": c("service.bytes"),
            "service.records": c("service.records"),
            "counting.vertices_s": s("counting.vertices").self_s,
            "counting.edges_s": s("counting.edges").self_s,
            "counting.squares_s": s("counting.squares").self_s,
            "analytic.summary_s": s("analytic.summary").self_s,
            "analytic.bound_s": s("analytic.bound").self_s,
        }
