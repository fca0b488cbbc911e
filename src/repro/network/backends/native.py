"""The native backend: both mode engines' cycle loops compiled from
``csrc/advance.c``.

The hot path of every sweep is a cycle loop -- millions of tiny FIFO
and buffer operations whose per-element cost in NumPy is dominated by
array-op dispatch, not arithmetic.  This backend compiles
``csrc/advance.c`` on demand with the system C compiler into a shared
object cached under ``<cache>/native/advance-<hash>.so`` (``<cache>``
is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``, the same root the result
cache uses), binds it via :mod:`ctypes`, and swaps one C call in for
each engine's whole clock loop: ``repro_sf_run`` for the
store-and-forward engine and ``repro_flow_run`` for the flow-control
engine (wormhole and vct).  Nothing else changes: the batch layout
(one for both engines, built by :class:`repro.network.kernel._Engine`),
the outcome code and every outcome array are the NumPy code paths, so
bit-identity is structural, not aspirational.  Both calls marshal that
one layout under its NumPy names, and every array is checked on its way
in -- dtype, C-contiguity and the exact length the C side indexes -- so
a mismatch raises :class:`ValueError` naming the array instead of
letting C read or write past its end.

The ``.so`` name is a hash of the C source, the compiler and the flags,
so editing any of them compiles a fresh object instead of trusting a
stale one; a cached file that fails to load or exports the wrong ABI is
deleted and rebuilt once before the backend declares itself
unavailable.  Availability is a cached verdict with a reason string
(surfaced by ``repro backends`` and the ``auto`` fallback log line);
:func:`reset` clears it so tests can simulate missing compilers, broken
flags (``$REPRO_NATIVE_CFLAGS``) and corrupt cache entries.

No new dependencies: compiler discovery is ``$CC`` (a command line,
split like ``$REPRO_NATIVE_CFLAGS``, so ``ccache gcc`` works) then
``cc`` / ``gcc`` / ``clang`` on ``PATH``, and a machine without any of
them simply runs on the NumPy backend forever.
"""

from __future__ import annotations

import _ctypes
import ctypes
import hashlib
import logging
import os
import shlex
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.network.backends import Backend
from repro.network.flowcontrol import FlowOutcome
from repro.network.kernel import KernelRun, _FlowEngine, _SfEngine
from repro.network.topology import Topology

__all__ = [
    "NativeBackend",
    "cached_object_path",
    "load_library",
    "reset",
    "source_path",
]

logger = logging.getLogger(__name__)

ABI_VERSION = 5
# -falign-functions=64 pins each entry point to a cache-line boundary:
# without it, code added anywhere in advance.c can shift repro_sf_run by
# a few bytes, which measurably slowed its hot loop on one x86-64 host
# (the same instructions, 16 bytes later, 54% slower)
_BASE_CFLAGS = ["-O2", "-shared", "-fPIC", "-falign-functions=64"]

_LOCK = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_lib_detail: Optional[str] = None

_I64P = ctypes.POINTER(ctypes.c_int64)
_U8P = ctypes.POINTER(ctypes.c_uint8)
# max_cycles, 4 scalars, 8 const arrays, 10 mutable arrays, 3 scratch
_SF_ARGTYPES = [ctypes.c_int64] * 5 + [_I64P] * 21
# max_cycles, 5 scalars, 14 const arrays, 12 mutable int64 arrays, the
# two mutable bool arrays, then the scratch array and its length
_FLOW_ARGTYPES = (
    [ctypes.c_int64] * 6 + [_I64P] * 26 + [_U8P] * 2
    + [_I64P, ctypes.c_int64]
)


def source_path() -> Optional[Path]:
    """``csrc/advance.c``, found by walking up from this module (the
    source tree keeps it at the repository root); ``None`` when this
    package runs from somewhere the C source did not travel to."""
    for parent in Path(__file__).resolve().parents:
        cand = parent / "csrc" / "advance.c"
        if cand.is_file():
            return cand
    return None


def _compiler() -> Optional[str]:
    """The compiler command line (``$CC`` verbatim, arguments and all,
    or the first of ``cc`` / ``gcc`` / ``clang`` on ``PATH``)."""
    env = os.environ.get("CC")
    if env:
        return env
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _cflags() -> List[str]:
    extra = os.environ.get("REPRO_NATIVE_CFLAGS", "")
    return _BASE_CFLAGS + shlex.split(extra)


def _cache_dir() -> Path:
    from repro.network.service.cache import default_cache_dir

    return default_cache_dir() / "native"


def cached_object_path(source: Path, compiler: str, flags: List[str]) -> Path:
    """The content-addressed ``.so`` path for this exact (source,
    compiler, flags) triple -- any change lands on a new file, so the
    cache can never serve a stale build."""
    h = hashlib.sha256()
    h.update(source.read_bytes())
    h.update(compiler.encode())
    h.update(" ".join(flags).encode())
    h.update(f"abi{ABI_VERSION}".encode())
    return _cache_dir() / f"advance-{h.hexdigest()[:16]}.so"


def _compile(source: Path, compiler: str, flags: List[str], out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=out.parent, prefix=out.stem + ".", suffix=".tmp.so"
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [*shlex.split(compiler), str(source), "-o", tmp, *flags],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            err = (proc.stderr or proc.stdout).strip().splitlines()
            detail = err[0] if err else f"exit status {proc.returncode}"
            raise RuntimeError(f"{compiler} failed: {detail}")
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(so_path: Path) -> ctypes.CDLL:
    """Load and type-check the shared object; raises on anything off
    (unloadable file, missing symbol, foreign ABI).  A rejected object
    is unloaded again: dlopen dedupes by path, so a loaded reject would
    shadow its rebuild at the same path."""
    lib = ctypes.CDLL(str(so_path))
    try:
        abi_fn = lib.repro_abi_version
        sf_fn = lib.repro_sf_run
        flow_fn = lib.repro_flow_run
    except AttributeError as exc:
        _ctypes.dlclose(lib._handle)
        raise OSError(f"missing symbol in {so_path.name}: {exc}") from exc
    abi_fn.restype = ctypes.c_int64
    abi_fn.argtypes = []
    abi = int(abi_fn())
    if abi != ABI_VERSION:
        _ctypes.dlclose(lib._handle)
        raise OSError(
            f"{so_path.name} speaks ABI {abi}, expected {ABI_VERSION}"
        )
    sf_fn.restype = ctypes.c_int64
    sf_fn.argtypes = _SF_ARGTYPES
    flow_fn.restype = ctypes.c_int64
    flow_fn.argtypes = _FLOW_ARGTYPES
    return lib


def _load_library_uncached() -> Tuple[Optional[ctypes.CDLL], str]:
    source = source_path()
    if source is None:
        return None, "C source csrc/advance.c not found near the package"
    compiler = _compiler()
    if compiler is None:
        return None, "no C compiler on PATH ($CC, cc, gcc, clang)"
    flags = _cflags()
    so_path = cached_object_path(source, compiler, flags)
    compiled = False
    if not so_path.is_file():
        try:
            _compile(source, compiler, flags, so_path)
        except (RuntimeError, OSError, ValueError) as exc:
            return None, str(exc)
        compiled = True
    try:
        return _bind(so_path), f"compiled kernel at {so_path}"
    except OSError as exc:
        # a corrupt or foreign cache entry gets one rebuild, not a crash
        if compiled:
            return None, f"freshly built object unusable: {exc}"
        logger.info("native: rebuilding unusable cache entry (%s)", exc)
        try:
            so_path.unlink(missing_ok=True)
            _compile(source, compiler, flags, so_path)
            return _bind(so_path), f"recompiled kernel at {so_path}"
        except (RuntimeError, OSError) as exc2:
            return None, f"rebuild failed: {exc2}"


def load_library() -> Tuple[Optional[ctypes.CDLL], str]:
    """The bound kernel library and how we got it, or ``(None, why
    not)``; the verdict is cached until :func:`reset`."""
    global _lib, _lib_detail
    with _LOCK:
        if _lib_detail is None:
            _lib, _lib_detail = _load_library_uncached()
        return _lib, _lib_detail


def reset() -> None:
    """Forget the cached load verdict (tests monkeypatch compilers,
    flags and cache dirs, then need a clean retry)."""
    global _lib, _lib_detail
    with _LOCK:
        _lib = None
        _lib_detail = None


def _checked(name: str, arr: np.ndarray, length: int, ctype=_I64P):
    """``arr`` as a pointer for one kernel call, checked against what the
    C side reads through it: int64 (or bool, read as bytes, for a
    ``_U8P``), C-contiguous and exactly ``length`` entries.  A mismatch
    raises :class:`ValueError` naming the array before any C code runs:
    the kernel would otherwise index past a short array's end, misread
    a foreign dtype's bytes, or -- through a silent copy -- write where
    ``_outcomes`` never reads."""
    want = np.dtype(np.int64 if ctype is _I64P else np.bool_)
    if (arr.dtype != want or arr.shape != (length,)
            or not arr.flags.c_contiguous):
        raise ValueError(
            f"native kernel argument {name!r} must be a C-contiguous {want} "
            f"array of length {length}; got {arr.dtype}, shape {arr.shape}"
            f"{'' if arr.flags.c_contiguous else ', not contiguous'}"
        )
    return arr.ctypes.data_as(ctype)


class _NativeEngine:
    """Mixed in ahead of a NumPy mode engine: construction and
    ``_outcomes`` stay the NumPy class's, and ``run`` becomes one C call
    working in place on the arrays that constructor built.  Every array
    crosses the ctypes boundary through :func:`_checked`, under its NumPy
    attribute name."""

    def __init__(
        self, topo: Topology, runs: Sequence[KernelRun], lib: ctypes.CDLL
    ):
        super().__init__(topo, runs)
        self._lib = lib

    def _pointers(self, length: int, *names: str) -> list:
        """Checked pointers to the engine arrays ``names``, each of
        which the C side indexes over ``length`` entries."""
        return [_checked(name, getattr(self, name), length) for name in names]

    def _layout(self) -> list:
        """The shared layout, as both entry points take it first: the
        packets' ``inject``, ``nhops``, ``gfirst`` and ``run_of``, the
        channel sequences and the K+1 per-run channel bases."""
        P, K = self.num, self.K
        return [
            *self._pointers(P, "inject", "nhops", "gfirst", "run_of"),
            *self._pointers(self.ext_seq.size, "ext_seq"),
            *self._pointers(K + 1, "ext_base"),
        ]

    def _dead_at_ext(self):
        # read only when the batch has faults (the has_dead scalar)
        if self.dead_at_ext is None:
            return _checked("dead_at_ext", np.zeros(0, dtype=np.int64), 0)
        return _checked("dead_at_ext", self.dead_at_ext, int(self.ext_base[-1]))


class _NativeSfEngine(_NativeEngine, _SfEngine):
    """The NumPy sf engine with its clock loop swapped for one
    ``repro_sf_run`` call."""

    def run(self, max_cycles: int) -> List[FlowOutcome]:
        P, K, C = self.num, self.K, int(self.ext_base[-1])
        self._lib.repro_sf_run(
            max_cycles, P, K, C, int(self.dead_at_ext is not None),
            *self._layout(),
            *self._pointers(C, "run_of_ext"),
            self._dead_at_ext(),
            *self._pointers(P, "delivered_at", "pos", "succ"),
            *self._pointers(C, "qhead", "qtail", "qlen"),
            *self._pointers(K, "in_flight_r", "last_busy_r", "maxq_r",
                            "dropped_r"),
            # scratch: the touched-target list, the pending-list heads
            # (all -1; the kernel leaves them that way) and the two
            # scalars the NumPy class keeps as Python ints: next_pid and
            # in_flight, both 0 at the start
            _checked("touched", np.empty(max(P, 1), dtype=np.int64), max(P, 1)),
            _checked("pend", np.full(max(C, 1), -1, dtype=np.int64), max(C, 1)),
            _checked("state", np.zeros(2, dtype=np.int64), 2),
        )
        return self._outcomes(max_cycles)


class _NativeFlowEngine(_NativeEngine, _FlowEngine):
    """The NumPy flow-control engine with its clock loop swapped for one
    ``repro_flow_run`` call."""

    def run(self, max_cycles: int) -> List[FlowOutcome]:
        P, K, C, L = self.num, self.K, int(self.ext_base[-1]), self.num_links
        # each run's sorted fault cycles, flattened with offsets
        death = np.concatenate(self.death_cycles)
        death_off = np.zeros(K + 1, dtype=np.int64)
        np.cumsum([dc.size for dc in self.death_cycles], out=death_off[1:])
        scratch = np.empty(9 * C + 4 * L + P + K, dtype=np.int64)
        end = self._lib.repro_flow_run(
            max_cycles, P, K, C, L, int(self.dead_at_ext is not None),
            *self._layout(),
            *self._pointers(C, "phys_of_ext", "cap_ext", "run_of_ext"),
            self._dead_at_ext(),
            *self._pointers(K, "totals", "max_death"),
            _checked("death", death, death.size),
            _checked("death_off", death_off, K + 1),
            *self._pointers(C, "holder", "occ", "hopb"),
            *self._pointers(P, "head", "srcf", "tailb", "delivered_at"),
            *self._pointers(K, "arrived", "delivered_r", "dropped_r",
                            "maxq_r", "last_busy_r"),
            _checked("deadlocked_r", self.deadlocked_r, K, _U8P),
            _checked("active", self.active, K, _U8P),
            _checked("scratch", scratch, scratch.size), scratch.size,
        )
        if end < 0:
            raise RuntimeError("repro_flow_run: scratch array too short")
        return self._outcomes(max_cycles)


class NativeBackend(Backend):
    """Both mode engines in C: one call per engine per batch."""

    name = "native"

    def availability(self) -> Tuple[bool, str]:
        lib, reason = load_library()
        return lib is not None, reason

    def _library(self) -> ctypes.CDLL:
        lib, reason = load_library()
        if lib is None:
            raise RuntimeError(f"native backend unavailable: {reason}")
        return lib

    def sf_engine(self, topo: Topology, runs: Sequence[KernelRun]) -> object:
        return _NativeSfEngine(topo, runs, self._library())

    def flow_engine(self, topo: Topology, runs: Sequence[KernelRun]) -> object:
        return _NativeFlowEngine(topo, runs, self._library())
