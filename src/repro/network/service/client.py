"""Blocking client for the sweep service (what ``repro submit`` runs).

One TCP connection per request, newline-delimited JSON both ways (see
:mod:`repro.network.service.protocol`).  :meth:`SweepClient.submit`
streams: an ``on_event`` callback sees every server event as it
arrives (progress bars, incremental plotting), and the return value is
the reassembled, grid-ordered :class:`~repro.network.sweep.SweepRecord`
list -- exactly what :func:`~repro.network.sweep.run_sweep` would have
returned for the same grid, so ``write_csv``/``write_json`` over it
reproduce the one-shot CLI output byte for byte.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, List, Optional

from repro.network.service.protocol import (
    decode_line,
    encode_message,
    record_from_wire,
)
from repro.network.service.server import DEFAULT_PORT
from repro.network.sweep import SweepRecord

__all__ = ["ServiceError", "SweepClient"]


class ServiceError(RuntimeError):
    """The server rejected a request or the stream ended incomplete."""


class SweepClient:
    """Thin blocking wrapper over the wire protocol.

    ``timeout`` bounds the connect and each pre-acceptance socket read
    (``None`` = wait forever).  Once a submitted job is *accepted* the
    per-read timeout is lifted: records land whenever their grid cells
    finish simulating, and a single slow cell must not abort an
    otherwise healthy stream.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: Optional[float] = 300.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request(self, msg: Dict[str, Any], untimed_after: Optional[str] = None):
        """Send one request, yield response events until EOF; after an
        ``untimed_after`` event the socket reads stop timing out."""
        with socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        ) as sock:
            with sock.makefile("rwb") as wire:
                wire.write(encode_message(msg))
                wire.flush()
                for line in wire:
                    reply = decode_line(line)
                    if untimed_after is not None and (
                        reply.get("event") == untimed_after
                    ):
                        sock.settimeout(None)
                        untimed_after = None
                    yield reply

    def _one(self, msg: Dict[str, Any], event: str) -> Dict[str, Any]:
        for reply in self._request(msg):
            if reply.get("event") == "error":
                raise ServiceError(reply.get("message", "server error"))
            if reply.get("event") == event:
                return reply
        raise ServiceError(f"connection closed before a {event!r} reply")

    def submit(
        self,
        grid: Dict[str, Any],
        batch: Optional[int] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> List[SweepRecord]:
        """Run a grid on the server; returns grid-ordered records.

        ``grid`` holds :func:`~repro.network.sweep.expand_grid` keyword
        arguments (``topologies`` required).  ``batch`` overrides the
        server's co-batch size for this job.  ``on_event`` observes the
        raw event stream -- ``accepted``, each ``record`` as it lands
        (with its grid ``index`` and ``cached`` flag), then ``done``.
        An ``error`` event, or a stream that breaks the protocol (a
        record index outside the accepted grid, a ``done`` that does
        not match it), raises :class:`ServiceError`.
        """
        msg: Dict[str, Any] = {"op": "submit", "grid": grid}
        if batch is not None:
            msg["batch"] = batch
        records: Dict[int, SweepRecord] = {}
        points: Any = None  # the accepted event's count
        done: Optional[Dict[str, Any]] = None
        for reply in self._request(msg, untimed_after="accepted"):
            if on_event is not None:
                on_event(reply)
            kind = reply.get("event")
            if kind == "error":
                raise ServiceError(reply.get("message", "server error"))
            if kind == "accepted":
                points = reply.get("points")
            elif kind == "record":
                index = reply.get("index")
                # exact types: a bool or a float index is a malformed frame
                if type(points) is not int or type(index) is not int or not (
                    0 <= index < points
                ):
                    raise ServiceError(
                        f"record index {index!r} is not a grid index of the "
                        f"{points!r} accepted point(s)"
                    )
                records[index] = record_from_wire(reply.get("record"))
            elif kind == "done":
                done = reply
        if done is None:
            raise ServiceError("stream ended before the job finished")
        if done.get("points") != points or len(records) != points:
            raise ServiceError(
                f"incomplete stream: {len(records)} of {points!r} records, "
                f"done reports {done.get('points')!r}"
            )
        return [records[i] for i in range(points)]

    def jobs(self) -> List[Dict[str, Any]]:
        """Snapshot of every job the server has seen."""
        return self._one({"op": "jobs"}, "jobs")["jobs"]

    def ping(self) -> Dict[str, Any]:
        """Liveness + protocol handshake."""
        return self._one({"op": "ping"}, "pong")

    def shutdown(self) -> None:
        """Ask the server to drain and exit."""
        self._one({"op": "shutdown"}, "bye")
