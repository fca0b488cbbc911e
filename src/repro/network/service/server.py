"""The sweep job server: asyncio front door, worker pool, shared cache.

``repro serve`` keeps one of these alive so sweep grids stop being
one-shot CLI invocations: clients submit grids over the local socket
(:mod:`repro.network.service.protocol`), and the server runs each grid
through the very loop ``repro sweep`` drains,
:func:`~repro.network.sweep.stream_sweep`: the exact
:func:`~repro.network.sweep.expand_grid` semantics, every cell it has
already simulated answered straight from the content-addressed
:class:`~repro.network.service.ResultCache`, the missing cells packed
into tasks on a thread or process pool, and each group of records
streamed back the moment it lands.  Because the cache is consulted per
cell, grids are resumable for free: re-submitting an interrupted or
grown grid simulates only the cells the store has never seen.

The asyncio loop only ever shuffles messages and futures.  Each submit
gets one thread of its own, which expands the grid and steps its
stream; every simulation runs in the shared pool, so a long grid never
blocks ``ping`` / ``jobs`` introspection or other clients'
submissions.  One server process, many concurrent clients, one shared
cache and one shared pool.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from repro.network.service.cache import ResultCache
from repro.network.service.protocol import (
    PROTOCOL_VERSION,
    decode_line,
    encode_message,
    record_to_wire,
    validate_grid,
)
from repro.network.sweep import expand_grid, stream_sweep

__all__ = ["DEFAULT_PORT", "Job", "SweepServer"]

DEFAULT_PORT = 8642

# submit requests may stream for a while; reads of the single request
# line are bounded so a rogue client cannot buffer unbounded garbage
_MAX_REQUEST_BYTES = 16 * 1024 * 1024


@dataclass
class Job:
    """Bookkeeping for one submitted grid (what ``repro jobs`` shows)."""

    id: int
    topologies: Tuple[str, ...]
    points: int
    state: str = "running"  # running | done | failed
    cached: int = 0
    simulated: int = 0
    streamed: int = 0
    error: str = ""

    def snapshot(self) -> dict:
        return {
            "job": self.id,
            "topologies": list(self.topologies),
            "points": self.points,
            "state": self.state,
            "cached": self.cached,
            "simulated": self.simulated,
            "streamed": self.streamed,
            "error": self.error,
        }


class SweepServer:
    """Async job server over the sweep engine.

    ``port=0`` binds an ephemeral port (``start`` returns the real
    address).  ``cache=None`` disables result caching -- every submit
    then simulates every cell (the ``--no-cache`` bypass).  ``batch``
    is the co-batch size missing cells are packed with (1 = every cell
    alone, records bit-identical to the unbatched CLI); ``workers`` the
    pool width (``None`` = the executor default), simulated in threads
    unless ``use_processes`` (NumPy releases the GIL for the heavy array
    work, so threads are the cheap default; processes sidestep it
    entirely for pure-python-bound grids).  ``backend`` names the kernel
    backend every worker simulates with (:mod:`repro.network.backends`);
    records and cache entries are bit-identical whatever the choice.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache: Optional[ResultCache] = None,
        workers: Optional[int] = None,
        use_processes: bool = False,
        batch: int = 1,
        backend: Optional[str] = None,
    ):
        if batch < 1:
            raise ValueError(f"batch must be at least 1, got {batch}")
        self.host = host
        self.port = port
        self.cache = cache
        self.batch = batch
        self.backend = backend
        self.jobs: Dict[int, Job] = {}
        self._job_ids = itertools.count(1)
        self._workers = workers
        self._use_processes = use_processes
        self._executor: Optional[Executor] = None  # the simulation pool
        self._active: set = set()  # connection handlers in flight
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the (host, port) actually
        bound (meaningful with ``port=0``)."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if self._executor is None:
            if self._use_processes:
                # the server always holds live threads (the event loop,
                # the submit threads) when workers launch, so a
                # fork-start pool inherits locks mid-state and can
                # deadlock before the first task is ever delivered;
                # spawn gives every worker a clean interpreter
                self._executor = ProcessPoolExecutor(
                    max_workers=self._workers,
                    mp_context=multiprocessing.get_context("spawn"),
                )
            else:
                self._executor = ThreadPoolExecutor(max_workers=self._workers)
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=_MAX_REQUEST_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Accept connections until a ``shutdown`` request (or
        :meth:`request_shutdown`); drains in-flight jobs before
        returning."""
        assert self._server is not None, "call start() first"
        await self._shutdown.wait()
        self._server.close()
        await self._server.wait_closed()
        if self._active:
            await asyncio.gather(*self._active, return_exceptions=True)
        self._executor.shutdown(wait=True)

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (what ``repro serve`` wires to
        SIGINT and tests use to stop a background server)."""
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)

    # -- connection handling ------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._active.add(task)
        try:
            try:
                line = await reader.readline()
            except ValueError:
                # the request line overran _MAX_REQUEST_BYTES: reply
                # instead of dropping the connection with a traceback
                await self._send(writer, {
                    "event": "error",
                    "message": "request line exceeds the "
                               f"{_MAX_REQUEST_BYTES} byte frame limit",
                })
                return
            if not line:
                return
            try:
                msg = decode_line(line)
            except ValueError as exc:
                await self._send(writer, {"event": "error", "message": str(exc)})
                return
            op = msg.get("op")
            if op == "submit":
                await self._handle_submit(writer, msg)
            elif op == "jobs":
                await self._send(writer, {
                    "event": "jobs",
                    "jobs": [self.jobs[j].snapshot() for j in sorted(self.jobs)],
                })
            elif op == "ping":
                await self._send(writer, {
                    "event": "pong",
                    "protocol": PROTOCOL_VERSION,
                    "jobs": len(self.jobs),
                    "cache": str(self.cache.root) if self.cache is not None else "",
                })
            elif op == "shutdown":
                await self._send(writer, {"event": "bye"})
                self._shutdown.set()
            else:
                await self._send(
                    writer, {"event": "error", "message": f"unknown op {op!r}"}
                )
        finally:
            self._active.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, writer, msg: dict) -> None:
        writer.write(encode_message(msg))
        await writer.drain()

    # -- the submit pipeline ------------------------------------------------

    async def _handle_submit(self, writer, msg: dict) -> None:
        loop = asyncio.get_running_loop()
        # one thread per submit expands the grid (it builds topologies,
        # which must not stall the loop) and steps the sweep stream.  The
        # stream blocks while its tasks run, so it must never hold a
        # thread of the simulation pool; a thread of its own also keeps
        # one job's cache hits from queueing behind another job's tasks
        thread = ThreadPoolExecutor(1, thread_name_prefix="sweep-submit")
        stream = None
        try:
            try:
                grid = validate_grid(msg.get("grid"))
                batch = msg.get("batch", self.batch)
                # a JSON integer: 2.7, "3" and true are client bugs, not sizes
                if type(batch) is not int or batch < 1:
                    raise ValueError(
                        f"batch must be an integer of at least 1, got {batch!r}"
                    )
                specs = await loop.run_in_executor(
                    thread, partial(expand_grid, **grid)
                )
            except (TypeError, ValueError) as exc:
                await self._send(writer, {"event": "error", "message": str(exc)})
                return
            except Exception as exc:  # a malformed axis value: report, keep serving
                await self._send(writer, {
                    "event": "error", "message": f"{type(exc).__name__}: {exc}",
                })
                return
            job = Job(
                id=next(self._job_ids),
                topologies=tuple(dict.fromkeys(s.topology for s in specs)),
                points=len(specs),
            )
            self.jobs[job.id] = job
            await self._send(
                writer, {"event": "accepted", "job": job.id, "points": len(specs)}
            )
            stream = stream_sweep(
                specs, batch, self.cache, self._executor, self.backend
            )
            try:
                while group := await loop.run_in_executor(
                    thread, next, stream, None
                ):
                    cells, records, cached = group
                    if cached:
                        job.cached += len(cells)
                    else:
                        job.simulated += len(cells)
                    job.streamed += len(cells)
                    for i, rec in zip(cells, records):
                        writer.write(encode_message({
                            "event": "record", "job": job.id, "index": i,
                            "cached": cached, "record": record_to_wire(rec),
                        }))
                    await writer.drain()
            except (ConnectionError, OSError):
                # client went away mid-stream; the job keeps its state for
                # `repro jobs`, and every task it was streamed is cached
                job.state = "failed"
                job.error = "client disconnected"
                return
            except Exception as exc:  # simulation bug: report, keep serving
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                await self._send(writer, {"event": "error", "message": job.error})
                return
            job.state = "done"
            await self._send(writer, {
                "event": "done", "job": job.id, "points": job.points,
                "cached": job.cached, "simulated": job.simulated,
            })
        finally:
            if stream is not None:
                # on the stream's own thread, after any step in flight:
                # cancels the tasks a disconnected job never started
                thread.submit(stream.close)
            thread.shutdown(wait=False)
