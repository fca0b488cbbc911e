"""The native backend: the sf cycle loop compiled from ``csrc/advance.c``.

The hot path of every sweep is the store-and-forward cycle loop --
millions of tiny FIFO operations whose per-element cost in NumPy is
dominated by array-op dispatch, not arithmetic.  This backend compiles
``csrc/advance.c`` on demand with the system C compiler into a shared
object cached under ``<cache>/native/advance-<hash>.so`` (``<cache>``
is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``, the same root the result
cache uses), binds it via :mod:`ctypes`, and swaps one C call,
``repro_sf_run``, in for the whole clock loop of
:meth:`repro.network.kernel._SfEngine.run` -- nothing else changes:
batch preparation, the flow-control engine (wormhole / vct stay on
NumPy), the outcome code and every outcome array are the NumPy code
paths, so bit-identity is structural, not aspirational.

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

ABI_VERSION = 4
_BASE_CFLAGS = ["-O2", "-shared", "-fPIC"]

_LOCK = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_lib_detail: Optional[str] = None

_I64P = ctypes.POINTER(ctypes.c_int64)
# max_cycles, 4 scalars, 8 const arrays, 10 mutable arrays, 3 scratch
_ARGTYPES = [ctypes.c_int64] * 5 + [_I64P] * 21


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
        run_fn = lib.repro_sf_run
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
    run_fn.restype = ctypes.c_int64
    run_fn.argtypes = _ARGTYPES
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


def _as_i64p(arr: np.ndarray) -> "ctypes._Pointer":
    return arr.ctypes.data_as(_I64P)


class _NativeSfEngine(_SfEngine):
    """The NumPy sf engine with its clock loop swapped for the C kernel.

    State construction and the outcome code are inherited unchanged:
    :meth:`run` is one ``repro_sf_run`` call that mutates the very
    arrays the parent built, then the parent's ``_outcomes`` reads them.
    """

    def __init__(
        self, topo: Topology, runs: Sequence[KernelRun], lib: ctypes.CDLL
    ):
        super().__init__(topo, runs)
        self._lib = lib

    def run(self, max_cycles: int) -> List[FlowOutcome]:
        num_links = int(self.qlen.size)
        has_dead = self.dead_at is not None
        # the C side reads raw int64 pointers; the parent builds int64,
        # contiguous arrays, but never trust that silently
        const = [
            np.ascontiguousarray(arr, dtype=np.int64) for arr in (
                self.inject, self.nhops, self.first_link_at, self.run_of,
                self.link_seq, self.link_base, self.run_of_link,
                self.dead_at if has_dead else np.zeros(1, dtype=np.int64),
            )
        ]
        mutable = [
            self.delivered_at, self.pos, self.succ, self.qhead, self.qtail,
            self.qlen, self.in_flight_r, self.last_busy_r, self.maxq_r,
            self.drop_r,
        ]
        scratch = [
            # the touched-target list, then the pending-list heads (all
            # -1; the kernel leaves them that way) ...
            np.empty(max(self.num, 1), dtype=np.int64),
            np.full(max(num_links, 1), -1, dtype=np.int64),
            # ... and the two scalars the parent keeps as Python ints:
            # next_pid and in_flight, both 0 at the start
            np.zeros(2, dtype=np.int64),
        ]
        self._lib.repro_sf_run(
            max_cycles, self.num, self.K, num_links, int(has_dead),
            *[_as_i64p(arr) for arr in const + mutable + scratch],
        )
        return self._outcomes(max_cycles)


class NativeBackend(Backend):
    """C sf engine (one call per batch), NumPy everything else.

    The pipelined modes (wormhole / vct) run the NumPy flow engine, so
    this backend accelerates exactly the store-and-forward discipline.
    """

    name = "native"

    def availability(self) -> Tuple[bool, str]:
        lib, reason = load_library()
        return lib is not None, reason

    def sf_engine(self, topo: Topology, runs: Sequence[KernelRun]) -> object:
        lib, reason = load_library()
        if lib is None:
            raise RuntimeError(f"native backend unavailable: {reason}")
        return _NativeSfEngine(topo, runs, lib)

    def flow_engine(self, topo: Topology, runs: Sequence[KernelRun]) -> object:
        return _FlowEngine(topo, runs)
