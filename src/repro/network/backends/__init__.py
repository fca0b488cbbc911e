"""Kernel backends: which implementation runs the fused kernel's loop.

:func:`repro.network.kernel.run_fused` is the one kernel behind
``VectorizedSimulator.run_batch`` -- and so behind every vectorized
run: a solo ``run`` is a one-item batch, and the sweep harness and the
sweep service run packed batches.  The kernel has two implementations
of its cycle loop, and a backend is the name of one of them
(:data:`BACKENDS`): ``numpy`` (both mode engines in NumPy, always
available, the oracle) and ``native`` (both engines' run loops in C,
one call per engine per batch; see :mod:`repro.network.backends.native`).
:func:`engines` maps a name to the two engine classes ``run_fused``
instantiates.  Both implementations share one batch layout, built by
:class:`repro.network.kernel._Engine` (for store-and-forward, the
one-VC case of the flow engine's channels), and one outcome code, so
the name selects only the cycle loop.

Selection order, strongest claim first:

1. an explicit ``backend=`` name anywhere in the stack, threaded down
   to ``run_fused``;
2. the ``REPRO_BACKEND`` environment variable (``native`` / ``numpy`` /
   ``auto``), read at resolve time so tests and CI legs can flip it;
3. ``auto`` (the default): ``native`` when its compiled kernel is
   usable, else ``numpy`` with a one-line logged reason.

Naming a backend explicitly is a hard claim: asking for ``native``
where no compiler exists raises :class:`BackendUnavailableError`
instead of silently degrading -- which is exactly what lets CI assert
the compiled kernel really loaded.  Only ``auto`` is allowed to fall
back, and it says why (once; :func:`reset` re-arms it).

Both backends are bit-identical by contract: the equivalence and
differential-fuzz suites run the same cases through
``ReferenceSimulator``, the NumPy engines and the native kernel and
byte-compare the outcomes, so switching backends can never change a
result, only how fast it arrives.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import List, Optional, Tuple

from repro.network import kernel as _kernel
from repro.network.backends import native as _native

__all__ = [
    "AUTO",
    "BACKENDS",
    "BackendUnavailableError",
    "backend_infos",
    "engines",
    "reset",
    "resolve_backend",
]

logger = logging.getLogger(__name__)

AUTO = "auto"
BACKENDS = ("numpy", "native")
_ENV_VAR = "REPRO_BACKEND"

# auto logs its fallback once per reset(); the lock makes the check and
# the set one step when several threads resolve at once
_LOG_LOCK = threading.Lock()
_fallback_logged = False


class BackendUnavailableError(RuntimeError):
    """An explicitly requested backend cannot run here (no silent
    fallback: only ``auto`` may degrade, and it logs why)."""


def _availability(name: str) -> Tuple[bool, str]:
    """``(usable, reason)`` -- the reason names the evidence either way
    (compiler found, cached .so, or what went wrong)."""
    if name == "numpy":
        return True, "pure NumPy, always available"
    lib, reason = _native.load_library()
    return lib is not None, reason


def backend_infos() -> List[dict]:
    """One dict per backend -- name, availability, reason -- in
    :data:`BACKENDS` order (the ``repro backends`` CLI view)."""
    infos = []
    for name in BACKENDS:
        ok, reason = _availability(name)
        infos.append({"name": name, "available": ok, "reason": reason})
    return infos


def resolve_backend(choice: Optional[str] = None) -> str:
    """Map a ``backend=`` argument (or its absence) to a backend name,
    ``"numpy"`` or ``"native"``.

    ``None`` defers to ``$REPRO_BACKEND``, then ``auto``.  An explicit
    name is strict: unknown names raise :class:`ValueError`, an
    unavailable ``native`` raises :class:`BackendUnavailableError`.
    Anything but a string or ``None`` raises :class:`TypeError`.
    """
    global _fallback_logged
    if choice is None:
        choice = os.environ.get(_ENV_VAR) or AUTO
    if not isinstance(choice, str):
        raise TypeError(
            f"backend must be one of {[AUTO, *BACKENDS]} or None, "
            f"got {choice!r}"
        )
    name = choice.strip().lower()
    if name not in (AUTO, *BACKENDS):
        raise ValueError(
            f"unknown backend {name!r}; choose from {[AUTO, *BACKENDS]}"
        )
    if name == "numpy":
        return name
    ok, reason = _availability("native")
    if ok:
        return "native"
    if name == "native":
        raise BackendUnavailableError(
            f"backend 'native' requested explicitly but unavailable: {reason}"
        )
    with _LOG_LOCK:
        first, _fallback_logged = not _fallback_logged, True
    if first:
        logger.info("backend auto -> numpy (native unavailable: %s)", reason)
    return "numpy"


def engines(choice: Optional[str] = None) -> Tuple[type, type]:
    """The (store-and-forward, flow-control) engine classes of the
    backend ``choice`` names, resolved by :func:`resolve_backend`: the
    one map from a backend name to the classes ``run_fused`` builds."""
    if resolve_backend(choice) == "native":
        return _native._NativeSfEngine, _native._NativeFlowEngine
    return _kernel._SfEngine, _kernel._FlowEngine


def reset() -> None:
    """Forget the native load verdict and re-arm the ``auto`` fallback
    log (tests flip compilers, cache dirs and env vars under our
    feet)."""
    global _fallback_logged
    with _LOG_LOCK:
        _fallback_logged = False
    _native.reset()
