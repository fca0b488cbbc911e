"""The backend layer: name resolution, native bit-identity, cache
neutrality and every forced-fallback path.

The native backend's contract is strict: selected explicitly it must
either run the compiled kernel or raise (never degrade silently), under
``auto`` it must fall back to NumPy with a logged one-line reason, and
whichever implementation serves a call the results must be bit-identical
-- which is also what makes the result cache backend-neutral (a grid
warmed under one backend is fully warm under every other).

The fallback tests simulate the three ways a native build dies -- no
compiler on PATH, a compiler that rejects the flags
(``$REPRO_NATIVE_CFLAGS``), and a corrupt cached ``.so`` -- against a
throwaway ``$REPRO_CACHE_DIR``; :func:`repro.network.backends.reset`
re-arms the cached selection verdict around each one.
"""

import logging
import shlex
import subprocess
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.network import backends, kernel, simulator
from repro.network.backends import (
    BACKENDS,
    BackendUnavailableError,
    backend_infos,
    engines,
    resolve_backend,
)
from repro.network.backends import native as native_mod
from repro.network.batch import BatchedSimulator, BatchItem
from repro.network.faults import FaultPlan
from repro.network.flowcontrol import FlowControl
from repro.network.routing import BfsRouter, DimensionOrderRouter
from repro.network.service.cache import ResultCache
from repro.network.simulator import ReferenceSimulator, VectorizedSimulator
from repro.network.sweep import parse_topology, run_sweep
from repro.network.traffic import flit_sizes, make_traffic, uniform_traffic

NATIVE_OK = native_mod.load_library()[0] is not None
needs_native = pytest.mark.skipif(
    not NATIVE_OK, reason="no usable C toolchain for the native backend"
)
needs_compiler = pytest.mark.skipif(
    native_mod._compiler() is None, reason="no C compiler on PATH"
)


@pytest.fixture(autouse=True)
def _clean_selection():
    """Every test starts and ends with no cached backend verdict (these
    tests flip compilers, flags and cache dirs under the resolver)."""
    backends.reset()
    yield
    backends.reset()


@pytest.fixture
def scratch_cache(tmp_path, monkeypatch):
    """A throwaway native build cache, so fallback tests can never
    corrupt (or be rescued by) the real user-level one."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    backends.reset()
    return tmp_path / "cache"


class TestRegistry:
    def test_both_backends_registered(self):
        assert BACKENDS == ("numpy", "native")

    def test_infos_shape(self):
        infos = backend_infos()
        assert [i["name"] for i in infos] == ["numpy", "native"]
        for info in infos:
            assert isinstance(info["available"], bool)
            assert info["reason"]
        numpy_info = infos[0]
        assert numpy_info["available"] is True

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("fortran")

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend(None) == "numpy"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "native")
        assert resolve_backend("numpy") == "numpy"

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        auto = resolve_backend(None)
        assert auto in BACKENDS
        assert resolve_backend("auto") == auto

    @pytest.mark.parametrize("choice", ["numpy", " NumPy ", "auto", None])
    def test_resolves_to_a_plain_name(self, monkeypatch, choice):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        name = resolve_backend(choice)
        assert type(name) is str and name in BACKENDS

    def test_numpy_engines(self):
        assert engines("numpy") == (kernel._SfEngine, kernel._FlowEngine)

    @needs_native
    def test_native_engines(self):
        assert engines("native") == (
            native_mod._NativeSfEngine, native_mod._NativeFlowEngine
        )

    @pytest.mark.parametrize("bad", [1, b"numpy", kernel._SfEngine])
    def test_non_string_backend_raises_type_error(self, bad):
        """``backend=`` is a name at every layer: anything else is a
        TypeError naming the accepted names, from the resolver and from
        the simulator and sweep entry points that thread it down."""
        with pytest.raises(TypeError, match="'auto', 'numpy', 'native'"):
            resolve_backend(bad)
        topo = parse_topology("11:4")
        with pytest.raises(TypeError, match="backend must be one of"):
            VectorizedSimulator(topo, backend=bad).run([(0, 0, 3)])
        with pytest.raises(TypeError, match="backend must be one of"):
            run_sweep(["11:4"], loads=(0.2,), inject_window=8, backend=bad)


def _run(topo, backend, traffic, **kwargs):
    return VectorizedSimulator(topo, backend=backend).run(traffic, **kwargs)


def _kernel_runs(monkeypatch, topo, items):
    """The ``KernelRun``s one batch hands the kernel, captured on their
    way into ``run_fused``."""
    captured = []
    fused = simulator.run_fused

    def capture(topo, runs, *args, **kwargs):
        captured.extend(runs)
        return fused(topo, runs, *args, **kwargs)

    monkeypatch.setattr(simulator, "run_fused", capture)
    BatchedSimulator(topo, backend="numpy").run_batch(items)
    return captured


class TestBatchLayout:
    def test_runs_sharing_a_route_table_share_one_channel_sequence(
        self, monkeypatch
    ):
        """Runs on one route table hold one copy of its channel sequence
        per VC count: three sf runs share one link sequence (the one-VC
        channels: the table's hops as topology link ids), and three
        wormhole runs -- two with 2 VCs, one with 3 -- share two channel
        sequences."""
        topo = parse_topology("11:5")
        router = BfsRouter()
        items = [
            BatchItem(traffic=uniform_traffic(topo, 60, 10, seed=s), router=router)
            for s in range(3)
        ] + [
            BatchItem(
                traffic=uniform_traffic(topo, 60, 10, seed=s),
                router=router,
                switching=FlowControl("wormhole", num_vcs=vcs),
                flits=2,
            )
            for s, vcs in ((3, 2), (4, 2), (5, 3))
        ]
        runs = _kernel_runs(monkeypatch, topo, items)
        first = runs[0]
        assert all(r.table is first.table for r in runs)

        codes, link_offsets = first.table.hops()
        link_seq = topo.link_ids(codes)
        sf = kernel._SfEngine(topo, runs[:3])
        assert np.array_equal(sf.ext_seq, link_seq)
        flow = kernel._FlowEngine(topo, runs[3:])
        per_vcs = [
            kernel._ext_channels(topo, link_seq, link_offsets, vcs)
            for vcs in (2, 3)
        ]
        assert np.array_equal(flow.ext_seq, np.concatenate(per_vcs))


@needs_native
class TestNativeBitIdentity:
    """Spot checks on the paths the fuzz suite samples statistically:
    every outcome column equal between the NumPy and native engines."""

    def test_uniform_sf(self):
        topo = parse_topology("11:6")
        traffic = uniform_traffic(topo, 300, 40, seed=7)
        assert _run(topo, "numpy", traffic) == _run(topo, "native", traffic)

    def test_zero_hop_and_cap(self):
        topo = parse_topology("Q:4")
        # self-addressed packets deliver at injection; the tight cap
        # exercises truncation accounting
        traffic = [(0, 3, 3), (2, 0, 15), (2, 5, 5), (9, 1, 14)]
        for cap in (3, 100000):
            assert _run(topo, "numpy", traffic, max_cycles=cap) == _run(
                topo, "native", traffic, max_cycles=cap
            )

    def test_faulted_sf(self):
        topo = parse_topology("101:5")
        plan = FaultPlan.parse("n3@5,l0-1@2", num_nodes=topo.num_nodes)
        traffic = make_traffic("uniform", topo, 200, 30, seed=11, faults=plan)
        assert _run(topo, "numpy", traffic, faults=plan) == _run(
            topo, "native", traffic, faults=plan
        )

    def test_mixed_batch_runs_each_engine_on_its_own_clock(self):
        """sf + wormhole in one batch: the native sf engine runs its
        items in one C call, the native flow engine its own, and neither
        clock changes the other's outcomes."""
        topo = parse_topology("11:5")
        items = [
            BatchItem(traffic=uniform_traffic(topo, 120, 20, seed=1)),
            BatchItem(
                traffic=uniform_traffic(topo, 80, 20, seed=2),
                switching="wormhole",
                flits=3,
            ),
            BatchItem(traffic=uniform_traffic(topo, 90, 25, seed=3)),
        ]
        a = BatchedSimulator(topo, backend="numpy").run_batch(items)
        b = BatchedSimulator(topo, backend="native").run_batch(items)
        assert a == b

    def test_sf_only_batch_runs_alone(self):
        """K sf replications: one engine, whole clock loop in C."""
        topo = parse_topology("1010:5")
        items = [
            BatchItem(traffic=uniform_traffic(topo, 100, 30, seed=s))
            for s in range(4)
        ]
        a = BatchedSimulator(topo, backend="numpy").run_batch(items)
        b = BatchedSimulator(topo, backend="native").run_batch(items)
        assert a == b

    # the busy-link worklist of repro_sf_run: the cases where a link
    # joins or leaves it, checked against the reference engine too

    @staticmethod
    def _three_engines(topo, items, max_cycles=100000):
        """One batch on the reference, NumPy and native engines; all
        three must agree."""
        ref = ReferenceSimulator(topo).run_batch(items, max_cycles)
        a = BatchedSimulator(topo, backend="numpy").run_batch(items, max_cycles)
        b = BatchedSimulator(topo, backend="native").run_batch(items, max_cycles)
        assert ref == a == b
        return b

    @staticmethod
    def _line(topo):
        """A three-hop BFS route s -> x -> y -> t whose suffixes are the
        BFS routes of x and y, so packets injected at s, x and y share
        its links."""
        router = BfsRouter()
        s, x, y, t = router.route(topo, 0, 7)
        assert router.route(topo, x, t) == [x, y, t]
        assert router.route(topo, y, t) == [y, t]
        return s, x, y, t

    def test_dead_link_refills_from_an_earlier_epoch(self):
        """Link y-t dies at cycle 2 and drops the one packet left of its
        three-deep queue; a packet injected at s in cycle 1 was routed
        over it before the fault, reaches it in cycle 2's flush, and is
        dropped from the refilled queue in cycle 3."""
        topo = parse_topology("Q:4")
        s, x, y, t = self._line(topo)
        plan = FaultPlan.parse(f"l{y}-{t}@2")
        traffic = [(0, y, t)] * 3 + [(1, s, t)]
        [out] = self._three_engines(topo, [BatchItem(traffic, faults=plan)])
        assert out.dropped == 2 and out.latencies == (1, 2)
        assert out.cycles == 4

    def test_link_served_empty_refills_in_the_same_flush(self):
        """x-y holds one packet in cycle 0: serving it empties the link,
        and the packet from s arrives on it in the same cycle's flush,
        so neither packet ever waits."""
        topo = parse_topology("Q:4")
        s, x, y, t = self._line(topo)
        [out] = self._three_engines(topo, [BatchItem([(0, s, t), (0, x, t)])])
        assert out.latencies == (3, 2) and out.max_queue == 1

    def test_arrival_queues_behind_a_same_cycle_injection(self):
        """Two packets inject onto x-y in cycle 0 while the packet from s
        (the lowest pid) arrives there in the flush: it queues behind
        the second injection, not ahead of it."""
        topo = parse_topology("Q:4")
        s, x, y, t = self._line(topo)
        [out] = self._three_engines(
            topo, [BatchItem([(0, s, t), (0, x, t), (0, x, t)])]
        )
        assert out.latencies == (4, 2, 3)

    @staticmethod
    def _staggered(topo):
        """A short uniform run, a hotspot burst of 2,250 packets that
        drains for 1,200 cycles, and a run injecting at cycle 3,000."""
        burst = [(0, src, 0) for src in range(1, topo.num_nodes)
                 for _ in range(150)]
        return [
            BatchItem(traffic=uniform_traffic(topo, 40, 5, seed=1)),
            BatchItem(traffic=burst),
            BatchItem(traffic=[(3000, 5, 10), (3000, 10, 5), (3001, 5, 10)]),
        ]

    def test_runs_ending_thousands_of_cycles_apart(self):
        """Runs sharing one batch each end at their own cycle."""
        topo = parse_topology("Q:4")
        out = self._three_engines(topo, self._staggered(topo))
        assert [r.cycles for r in out] == [8, 1200, 3005]
        assert all(r.stalled == 0 for r in out)

    def test_cap_stops_runs_with_packets_in_flight(self):
        """A cap at cycle 300 cuts the burst with packets still queued
        and the late run before it injects anything."""
        topo = parse_topology("Q:4")
        out = self._three_engines(topo, self._staggered(topo), max_cycles=300)
        assert [r.cycles for r in out] == [8, 300, 300]
        assert [r.stalled for r in out] == [0, 1200, 3]
        assert out[1].max_queue > 0

    def test_fault_kills_through_held_empty_buffer(self):
        """A 4-flit packet over depth-1 buffers leaves its first channel
        held but empty after cycle 1 (the head moved on, the source could
        not refill a full buffer).  A link fault there at cycle 2 must
        kill the packet at cycle 2 through that empty buffer, not a cycle
        later when the next flit lands in it."""
        topo = parse_topology("Q:4")
        u, v = BfsRouter().route(topo, 0, 3)[:2]
        plan = FaultPlan.parse(f"l{u}-{v}@2")
        kwargs = dict(
            faults=plan, switching=FlowControl("wormhole", buffer_depth=1),
            flits=4,
        )
        out = _run(topo, "native", [(0, 0, 3)], **kwargs)
        assert out == _run(topo, "numpy", [(0, 0, 3)], **kwargs)
        assert out.dropped == 1 and out.cycles == 3

    def test_deadlocked_run_beside_live_one(self):
        """A run that deadlocks is frozen and recycled mid-batch while its
        neighbours keep advancing, identically on both engines."""
        topo = parse_topology("1010:5")
        n = topo.num_nodes
        burst = [(0, s, t) for s in range(n) for t in range(n) if s != t]
        flow = FlowControl("wormhole", buffer_depth=1, num_vcs=1)
        items = [
            BatchItem(traffic=burst, router=BfsRouter(), switching=flow, flits=4),
            BatchItem(traffic=uniform_traffic(topo, 150, 30, seed=2),
                      router=DimensionOrderRouter(), switching=flow, flits=2),
            BatchItem(traffic=uniform_traffic(topo, 100, 20, seed=3)),
        ]
        a = BatchedSimulator(topo, backend="numpy").run_batch(items)
        b = BatchedSimulator(topo, backend="native").run_batch(items)
        assert a == b
        assert [r.deadlocked for r in b] == [True, False, False]
        assert b[0].stalled > 0 and b[1].stalled == 0

    def test_vct(self):
        topo = parse_topology("11:5")
        traffic = uniform_traffic(topo, 100, 20, seed=5)
        kwargs = dict(switching="vct", flits=2)
        assert _run(topo, "numpy", traffic, **kwargs) == _run(
            topo, "native", traffic, **kwargs
        )

    def test_mixed_flow_shapes_in_one_batch(self):
        """Per-run VC counts and buffer depths co-batch in one call."""
        topo = parse_topology("101:5")
        shapes = [("wormhole", 1, 1), ("wormhole", 4, 2), ("vct", 4, 3),
                  ("wormhole", 2, 3)]
        items = [
            BatchItem(
                traffic=uniform_traffic(topo, 200, 15, seed=s),
                switching=FlowControl(mode, buffer_depth=depth, num_vcs=vcs),
                flits=flit_sizes(200, "1-4", seed=s),
            )
            for s, (mode, depth, vcs) in enumerate(shapes)
        ]
        a = BatchedSimulator(topo, backend="numpy").run_batch(items)
        b = BatchedSimulator(topo, backend="native").run_batch(items)
        assert a == b

    def test_cap_cuts_flow_runs(self):
        topo = parse_topology("11:6")
        items = [
            BatchItem(
                traffic=uniform_traffic(topo, 300, 10, seed=s),
                switching=FlowControl("wormhole", buffer_depth=2, num_vcs=2),
                flits=4,
            )
            for s in range(3)
        ]
        a = BatchedSimulator(topo, backend="numpy").run_batch(items, 25)
        b = BatchedSimulator(topo, backend="native").run_batch(items, 25)
        assert a == b
        assert all(r.stalled > 0 and r.cycles == 25 for r in b)


class TestCheckedBoundary:
    """Every array crosses into C through one check -- dtype,
    C-contiguity and the exact length the C side indexes -- so a
    mismatch raises, naming the array, and the kernel is never called
    (a short ``qlen`` would let the sf kernel write past its end)."""

    @staticmethod
    def _engine(monkeypatch, switching, lib):
        topo = parse_topology("Q:5")
        items = [BatchItem(
            traffic=uniform_traffic(topo, 500, 20, seed=1),
            switching=switching, flits=1 if switching == "sf" else 2,
        )]
        runs = _kernel_runs(monkeypatch, topo, items)
        engine_cls = (native_mod._NativeSfEngine if switching == "sf"
                      else native_mod._NativeFlowEngine)
        return engine_cls(topo, runs, lib)

    @pytest.mark.parametrize("switching, name, corrupt", [
        ("sf", "qlen", lambda a: a[:2]),
        ("sf", "inject", lambda a: a.astype(np.int32)),
        ("sf", "delivered_at", lambda a: np.repeat(a, 2)[::2]),
        ("sf", "scratch", lambda a: a[:-1]),
        ("wormhole", "holder", lambda a: a[:-1]),
        ("wormhole", "active", lambda a: a.astype(np.int64)),
        ("wormhole", "srcf", lambda a: a.astype(np.int32)),
        ("wormhole", "scratch", lambda a: a[:-1]),
    ], ids=["sf-short", "sf-int32", "sf-strided", "sf-short-scratch",
            "flow-short", "flow-int64-flag", "flow-int32", "flow-short-scratch"])
    def test_bad_array_raises_before_the_call(
        self, monkeypatch, switching, name, corrupt
    ):
        calls = []
        lib = SimpleNamespace(
            repro_sf_run=lambda *args: calls.append(args),
            repro_flow_run=lambda *args: calls.append(args),
        )
        engine = self._engine(monkeypatch, switching, lib)
        setattr(engine, name, corrupt(getattr(engine, name)))
        with pytest.raises(ValueError, match=f"'{name}'"):
            engine.run(100000)
        assert calls == []

    @pytest.mark.parametrize("switching", ["sf", "wormhole"])
    def test_kernel_refusing_its_scratch_raises(self, monkeypatch, switching):
        """The C side returns -1 when its scratch is too short; the
        binder raises instead of reading outcomes C never wrote."""
        lib = SimpleNamespace(
            repro_sf_run=lambda *args: -1, repro_flow_run=lambda *args: -1
        )
        engine = self._engine(monkeypatch, switching, lib)
        with pytest.raises(RuntimeError, match="scratch array too short"):
            engine.run(100000)

    @needs_native
    @pytest.mark.parametrize("switching", ["sf", "wormhole"])
    def test_c_checks_its_scratch_length(self, monkeypatch, switching):
        """Past the binder's check, the compiled kernel checks the
        length itself: one slot short returns -1 before touching any
        array."""
        engine = self._engine(monkeypatch, switching, None)
        short = engine._scratch_len() - 1
        engine.scratch = engine.scratch[:short]
        monkeypatch.setattr(engine, "_scratch_len", lambda: short)
        with pytest.raises(RuntimeError, match="scratch array too short"):
            engine.run(100000)
        assert (engine.delivered_at == -1).all()


@needs_native
class TestCacheNeutrality:
    def test_grid_warmed_under_numpy_is_warm_under_native(self, tmp_path):
        grid = dict(
            topologies=["11:5"], loads=(0.2, 0.5), seeds=(0, 1), patterns=("uniform",)
        )
        warm = ResultCache(tmp_path / "results")
        first = run_sweep(**grid, cache=warm, backend="numpy")
        assert warm.stores == len(first) > 0

        reread = ResultCache(tmp_path / "results")
        second = run_sweep(**grid, cache=reread, backend="native")
        assert second == first
        assert reread.stores == 0, "native re-simulated a warm grid"
        assert reread.hits == len(first)
        assert reread.misses == 0


class TestForcedFallback:
    def test_missing_compiler(self, tmp_path, monkeypatch, scratch_cache, caplog):
        empty = tmp_path / "no-tools"
        empty.mkdir()
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", str(empty))
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        backends.reset()

        assert resolve_backend("numpy") == "numpy"
        lib, why = native_mod.load_library()
        assert lib is None
        assert "no C compiler" in why

        with pytest.raises(BackendUnavailableError, match="no C compiler"):
            resolve_backend("native")
        with pytest.raises(BackendUnavailableError, match="no C compiler"):
            engines("native")
        with pytest.raises(RuntimeError, match="no C compiler"):
            native_mod._NativeSfEngine(parse_topology("11:4"), [])

        # auto falls back with one log line per reset(), not per call
        def fallback_lines():
            with caplog.at_level(logging.INFO, logger="repro.network.backends"):
                caplog.clear()
                assert resolve_backend("auto") == "numpy"
                assert engines(None) == (kernel._SfEngine, kernel._FlowEngine)
            return [r for r in caplog.records if "native unavailable" in r.message]

        assert len(fallback_lines()) == 1
        assert fallback_lines() == []
        backends.reset()
        assert len(fallback_lines()) == 1

        # and the stack still simulates (on NumPy) end to end
        topo = parse_topology("11:4")
        traffic = uniform_traffic(topo, 50, 10, seed=3)
        assert _run(topo, None, traffic) == _run(topo, "numpy", traffic)

    @needs_compiler
    def test_failed_compile_falls_back(self, monkeypatch, scratch_cache):
        monkeypatch.setenv(
            "REPRO_NATIVE_CFLAGS", "-repro-definitely-not-a-flag"
        )
        backends.reset()
        lib, why = native_mod.load_library()
        assert lib is None
        assert "failed" in why
        with pytest.raises(BackendUnavailableError):
            resolve_backend("native")
        assert resolve_backend("auto") == "numpy"

    @needs_native
    def test_corrupt_cached_object_rebuilds(self, scratch_cache):
        """A corrupt entry left behind by a previous process (torn
        write, disk rot, foreign build) must be rebuilt, not crash.
        The entry is planted before any load: dlopen dedupes by path
        within one process, so only a never-loaded path exercises the
        cold-start read a fresh process would perform."""
        so_path = native_mod.cached_object_path(
            native_mod.source_path(), native_mod._compiler(), native_mod._cflags()
        )
        so_path.parent.mkdir(parents=True, exist_ok=True)
        so_path.write_bytes(b"this is not a shared object")

        lib, why = native_mod.load_library()
        assert lib is not None, f"rebuild failed: {why}"
        assert "recompiled" in why
        # the rebuilt kernel is the real one
        topo = parse_topology("11:4")
        traffic = uniform_traffic(topo, 60, 12, seed=9)
        assert _run(topo, "native", traffic) == _run(topo, "numpy", traffic)

    @needs_native
    @pytest.mark.parametrize("exports", [
        # the ABI 3 kernel's shape: a step mode beside the run mode
        "i64 repro_abi_version(void) { return 3; }\n"
        "i64 repro_sf_step(void) { return 0; }\n"
        "i64 repro_sf_run(void) { return 0; }\n",
        # the ABI 4 kernel's shape: the sf run mode only
        "i64 repro_abi_version(void) { return 4; }\n"
        "i64 repro_sf_run(void) { return 0; }\n",
        # the ABI 5 kernel's shape: both run modes, sf scratch in three
        # arrays
        "i64 repro_abi_version(void) { return 5; }\n"
        "i64 repro_sf_run(void) { return 0; }\n"
        "i64 repro_flow_run(void) { return 0; }\n",
        # the current ABI number, but no run entry point
        f"i64 repro_abi_version(void) {{ return {native_mod.ABI_VERSION}; }}\n",
        # the current ABI number, but no flow engine
        f"i64 repro_abi_version(void) {{ return {native_mod.ABI_VERSION}; }}\n"
        "i64 repro_sf_run(void) { return 0; }\n",
    ], ids=["foreign-abi", "abi-4", "abi-5", "missing-symbol",
            "missing-flow-engine"])
    def test_rejected_cached_object_rebuilds(self, scratch_cache, tmp_path, exports):
        """A loadable cache entry the binder must refuse -- an old ABI,
        or a missing symbol (either entry point) -- is rebuilt, and the
        rebuild (not the refused object dlopen already holds at that
        path) is bound."""
        cc = native_mod._compiler()
        so_path = native_mod.cached_object_path(
            native_mod.source_path(), cc, native_mod._cflags()
        )
        so_path.parent.mkdir(parents=True, exist_ok=True)
        stub = tmp_path / "stub.c"
        stub.write_text("typedef long long i64;\n" + exports)
        subprocess.run(
            [*shlex.split(cc), str(stub), "-o", str(so_path), "-shared", "-fPIC"],
            check=True,
        )

        lib, why = native_mod.load_library()
        assert lib is not None, f"rebuild failed: {why}"
        assert "recompiled" in why
        assert lib.repro_abi_version() == native_mod.ABI_VERSION
        topo = parse_topology("11:4")
        traffic = uniform_traffic(topo, 60, 12, seed=9)
        assert _run(topo, "native", traffic) == _run(topo, "numpy", traffic)

    @needs_native
    def test_compiler_command_with_arguments(self, monkeypatch, scratch_cache):
        """``$CC`` is a command line (``ccache gcc``, ``gcc -O2``): it is
        split into argv, and the whole line keys the cached object."""
        cc = native_mod._compiler()
        monkeypatch.setenv("CC", f"{cc} -O2")
        backends.reset()
        lib, why = native_mod.load_library()
        assert lib is not None, why
        assert "compiled kernel" in why
        topo = parse_topology("101:5")
        traffic = uniform_traffic(topo, 120, 20, seed=4)
        assert _run(topo, "native", traffic) == _run(topo, "numpy", traffic)
        assert native_mod.cached_object_path(
            native_mod.source_path(), f"{cc} -O2", native_mod._cflags()
        ) != native_mod.cached_object_path(
            native_mod.source_path(), cc, native_mod._cflags()
        )

    def test_unparsable_compiler_command_falls_back(self, monkeypatch, scratch_cache):
        monkeypatch.setenv("CC", 'cc "-O2')
        backends.reset()
        lib, why = native_mod.load_library()
        assert lib is None
        assert "quotation" in why
        assert resolve_backend("auto") == "numpy"

    @needs_native
    def test_fresh_compile_in_empty_cache(self, scratch_cache):
        assert not (scratch_cache / "native").exists()
        lib, why = native_mod.load_library()
        assert lib is not None
        assert "compiled kernel" in why
        assert any((scratch_cache / "native").glob("advance-*.so"))

    @needs_native
    def test_flag_change_lands_on_new_object(self, monkeypatch, scratch_cache):
        assert native_mod.load_library()[0] is not None
        first = set((scratch_cache / "native").glob("advance-*.so"))
        monkeypatch.setenv("REPRO_NATIVE_CFLAGS", "-O1")
        backends.reset()
        assert native_mod.load_library()[0] is not None
        second = set((scratch_cache / "native").glob("advance-*.so"))
        assert len(second) == 2 and first < second


class TestCli:
    def test_backends_command(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "numpy" in out and "native" in out
        assert "auto" in out and "->" in out
        assert "available" in out

    def test_sweep_backend_flag(self, capsys):
        rc = main([
            "sweep", "--topo", "11:4", "--loads", "0.2",
            "--window", "8", "--backend", "numpy",
        ])
        assert rc == 0
        assert "Q_4(11)" in capsys.readouterr().out

    def test_sweep_explicit_native_without_compiler_is_exit_2(
        self, tmp_path, monkeypatch, scratch_cache, capsys
    ):
        empty = tmp_path / "no-tools"
        empty.mkdir()
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", str(empty))
        backends.reset()
        rc = main([
            "sweep", "--topo", "11:4", "--loads", "0.2",
            "--window", "8", "--backend", "native",
        ])
        assert rc == 2
        assert "native" in capsys.readouterr().err


@needs_native
def test_env_var_native_end_to_end(monkeypatch):
    """The CI native leg's contract: REPRO_BACKEND=native must really
    route sf points through the compiled kernel (resolve strictly), and
    results must match the NumPy leg bit for bit."""
    monkeypatch.setenv("REPRO_BACKEND", "native")
    assert resolve_backend(None) == "native"
    topo = parse_topology("101:4")
    traffic = uniform_traffic(topo, 150, 25, seed=1)
    via_env = VectorizedSimulator(topo).run(traffic)
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert via_env == VectorizedSimulator(topo).run(traffic)
