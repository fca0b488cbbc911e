"""Backend registry for the fused advance kernel.

:func:`repro.network.kernel.run_fused` is the one kernel behind
``VectorizedSimulator.run_batch`` -- and so behind every vectorized
run: a solo ``run`` is a one-item batch, and the sweep harness and the
sweep service run packed batches.  This package makes the kernel's
*implementation* a runtime choice: a backend supplies the two mode
engines (the store-and-forward FIFO engine and the finite-buffer
flow-control engine) for a prepared batch, and the registry picks
which backend serves a given call.

Selection order, strongest claim first:

1. an explicit ``backend=`` argument anywhere in the stack (a name or a
   :class:`Backend` instance), threaded down to ``run_fused``;
2. the ``REPRO_BACKEND`` environment variable (``native`` / ``numpy`` /
   ``auto``), read at resolve time so tests and CI legs can flip it;
3. ``auto`` (the default): the native backend when its compiled kernel
   is usable, else the NumPy backend with a one-line logged reason.

Naming a backend explicitly is a hard claim: asking for ``native``
where no compiler exists raises :class:`BackendUnavailableError`
instead of silently degrading -- which is exactly what lets CI assert
the compiled kernel really loaded.  Only ``auto`` is allowed to fall
back, and it says why (once; :func:`reset` re-arms it).

Every backend is bit-identical by contract: the equivalence and
differential-fuzz suites run the same cases through
``ReferenceSimulator``, the NumPy engines and the native kernel and
byte-compare the outcomes, so switching backends can never change a
result, only how fast it arrives.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.network import kernel as _kernel
from repro.network.kernel import KernelRun
from repro.network.topology import Topology

__all__ = [
    "AUTO",
    "Backend",
    "BackendUnavailableError",
    "NumpyBackend",
    "available_backends",
    "backend_infos",
    "register",
    "reset",
    "resolve_backend",
]

logger = logging.getLogger(__name__)

AUTO = "auto"
_ENV_VAR = "REPRO_BACKEND"


class BackendUnavailableError(RuntimeError):
    """An explicitly requested backend cannot run here (no silent
    fallback: only ``auto`` may degrade, and it logs why)."""


class Backend:
    """One implementation of the fused kernel's mode engines.

    A backend's job is to hand :func:`run_fused` its two mode engines
    for a prepared batch; the batch preparation is shared.  The engine
    protocol is one call, ``run(max_cycles) -> List[FlowOutcome]``:
    the engine advances its runs on its own clock and returns one
    outcome per run, in the order the runs were given.
    """

    name: str = "abstract"

    def availability(self) -> Tuple[bool, str]:
        """``(usable, reason)`` -- the reason names the evidence either
        way (compiler found, cached .so, or what went wrong)."""
        raise NotImplementedError

    def sf_engine(self, topo: Topology, runs: Sequence[KernelRun]) -> object:
        raise NotImplementedError

    def flow_engine(self, topo: Topology, runs: Sequence[KernelRun]) -> object:
        raise NotImplementedError


class NumpyBackend(Backend):
    """The pure-NumPy engines: always available, the fallback of last
    resort and the equivalence oracle for every other backend."""

    name = "numpy"

    def availability(self) -> Tuple[bool, str]:
        return True, "pure NumPy, always available"

    def sf_engine(self, topo: Topology, runs: Sequence[KernelRun]) -> object:
        return _kernel._SfEngine(topo, runs)

    def flow_engine(self, topo: Topology, runs: Sequence[KernelRun]) -> object:
        return _kernel._FlowEngine(topo, runs)


_REGISTRY: Dict[str, Backend] = {}
_AUTO_LOCK = threading.Lock()
_auto_choice: Optional[Backend] = None


def register(backend: Backend) -> Backend:
    _REGISTRY[backend.name] = backend
    return backend


def available_backends() -> List[str]:
    """Registered backend names, registration order."""
    return list(_REGISTRY)


def backend_infos() -> List[dict]:
    """One dict per registered backend -- name, availability, reason --
    plus what ``auto`` currently resolves to (the ``repro backends``
    CLI view)."""
    infos = []
    for name, be in _REGISTRY.items():
        ok, reason = be.availability()
        infos.append({"name": name, "available": ok, "reason": reason})
    return infos


def _resolve_auto() -> Backend:
    global _auto_choice
    with _AUTO_LOCK:
        if _auto_choice is None:
            native = _REGISTRY.get("native")
            if native is not None:
                ok, reason = native.availability()
                if ok:
                    _auto_choice = native
                else:
                    logger.info(
                        "backend auto -> numpy (native unavailable: %s)",
                        reason,
                    )
                    _auto_choice = _REGISTRY["numpy"]
            else:
                _auto_choice = _REGISTRY["numpy"]
        return _auto_choice


def resolve_backend(choice: Union[Backend, str, None] = None) -> Backend:
    """Map a ``backend=`` argument (or its absence) to a backend.

    ``None`` defers to ``$REPRO_BACKEND``, then ``auto``.  A
    :class:`Backend` instance passes through untouched.  An explicit
    name is strict: unknown names raise :class:`ValueError`, an
    unavailable backend raises :class:`BackendUnavailableError`.
    """
    if isinstance(choice, Backend):
        return choice
    name = choice if choice is not None else os.environ.get(_ENV_VAR) or AUTO
    name = name.strip().lower()
    if name == AUTO:
        return _resolve_auto()
    try:
        backend = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from "
            f"{[AUTO, *_REGISTRY]}"
        ) from None
    ok, reason = backend.availability()
    if not ok:
        raise BackendUnavailableError(
            f"backend {name!r} requested explicitly but unavailable: {reason}"
        )
    return backend


def reset() -> None:
    """Forget every cached selection decision (tests flip compilers,
    cache dirs and env vars under our feet)."""
    global _auto_choice
    with _AUTO_LOCK:
        _auto_choice = None
    from repro.network.backends import native as _native

    _native.reset()


register(NumpyBackend())

from repro.network.backends.native import NativeBackend  # noqa: E402

register(NativeBackend())
