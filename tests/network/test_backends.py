"""The backend layer: registry semantics, native bit-identity, cache
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

import pytest

from repro.cli import main
from repro.network import backends
from repro.network.backends import (
    Backend,
    BackendUnavailableError,
    NumpyBackend,
    available_backends,
    backend_infos,
    resolve_backend,
)
from repro.network.backends import native as native_mod
from repro.network.batch import BatchedSimulator, BatchItem
from repro.network.faults import FaultPlan
from repro.network.service.cache import ResultCache
from repro.network.simulator import VectorizedSimulator
from repro.network.sweep import parse_topology, run_sweep
from repro.network.traffic import make_traffic, uniform_traffic

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
    tests flip compilers, flags and cache dirs under the registry)."""
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
        assert available_backends() == ["numpy", "native"]

    def test_infos_shape(self):
        infos = backend_infos()
        assert [i["name"] for i in infos] == ["numpy", "native"]
        for info in infos:
            assert isinstance(info["available"], bool)
            assert info["reason"]
        numpy_info = infos[0]
        assert numpy_info["available"] is True

    def test_instance_passes_through(self):
        be = NumpyBackend()
        assert resolve_backend(be) is be

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("fortran")

    def test_env_var_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "native")
        assert resolve_backend("numpy").name == "numpy"

    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        auto = resolve_backend(None)
        assert auto.name in ("numpy", "native")
        # auto's verdict is cached: same object on repeat
        assert resolve_backend("auto") is auto

    def test_abstract_backend_is_abstract(self):
        be = Backend()
        topo = parse_topology("11:4")
        with pytest.raises(NotImplementedError):
            be.availability()
        with pytest.raises(NotImplementedError):
            be.sf_engine(topo, [])
        with pytest.raises(NotImplementedError):
            be.flow_engine(topo, [])


def _run(topo, backend, traffic, **kwargs):
    return VectorizedSimulator(topo, backend=backend).run(traffic, **kwargs)


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
        items in one C call, the NumPy flow engine its own, and neither
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

    def test_flow_control_points_still_run(self):
        """Pipelined modes stay on NumPy under the native backend, and
        the results say so by being identical."""
        topo = parse_topology("11:5")
        traffic = uniform_traffic(topo, 100, 20, seed=5)
        kwargs = dict(switching="vct", flits=2)
        assert _run(topo, "numpy", traffic, **kwargs) == _run(
            topo, "native", traffic, **kwargs
        )


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

        ok, reason = resolve_backend("numpy").availability()  # sanity: registry alive
        assert ok
        lib, why = native_mod.load_library()
        assert lib is None
        assert "no C compiler" in why

        with pytest.raises(BackendUnavailableError, match="no C compiler"):
            resolve_backend("native")

        with caplog.at_level(logging.INFO, logger="repro.network.backends"):
            assert resolve_backend("auto").name == "numpy"
        assert any("native unavailable" in r.message for r in caplog.records)

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
        assert resolve_backend("auto").name == "numpy"

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
        # the current ABI number, but no run entry point
        f"i64 repro_abi_version(void) {{ return {native_mod.ABI_VERSION}; }}\n",
    ], ids=["foreign-abi", "missing-symbol"])
    def test_rejected_cached_object_rebuilds(self, scratch_cache, tmp_path, exports):
        """A loadable cache entry the binder must refuse -- an old ABI,
        or a missing symbol -- is rebuilt, and the rebuild (not the
        refused object dlopen already holds at that path) is bound."""
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
        assert resolve_backend("auto").name == "numpy"

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
    assert resolve_backend(None).name == "native"
    topo = parse_topology("101:4")
    traffic = uniform_traffic(topo, 150, 25, seed=1)
    via_env = VectorizedSimulator(topo).run(traffic)
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert via_env == VectorizedSimulator(topo).run(traffic)
