"""Wire format of the sweep service: newline-delimited JSON messages.

One request per connection, a stream of response events back.  The
format is deliberately dumb -- UTF-8 JSON objects separated by ``\\n``
over a local TCP socket -- so any language (or ``nc`` plus eyeballs) can
talk to the server.  The *payload* schema is the real contract: a
``record`` event carries a :class:`~repro.network.sweep.SweepRecord` as
a JSON object whose keys are exactly the record's fields, and the CSV /
JSON files the client writes from streamed records are byte-identical to
the one-shot ``repro sweep`` output.  CI's ``service-contract`` job
enforces that against the golden fixtures under
``tests/network/golden/``.

Requests (the ``op`` key dispatches):

- ``{"op": "submit", "grid": {...}, "batch": K}`` -- run a sweep grid.
  ``grid`` holds :func:`~repro.network.sweep.expand_grid` keyword
  arguments (``topologies`` is required; unknown keys are rejected);
  the optional ``K`` must be a JSON integer of at least 1.
- ``{"op": "jobs"}`` -- snapshot of every job this server has seen.
- ``{"op": "ping"}`` -- liveness + protocol/version handshake.
- ``{"op": "shutdown"}`` -- stop the server once in-flight jobs finish.

Response events (the ``event`` key):

- ``{"event": "accepted", "job": id, "points": N}`` -- grid expanded,
  job registered.
- ``{"event": "record", "job": id, "index": i, "cached": bool,
  "record": {...}}`` -- one grid cell's result, streamed *as it lands*
  (cache hits first, then simulated batches in completion order).
  ``index`` is the cell's position in grid order, so clients reassemble
  the exact ``run_sweep`` record list.
- ``{"event": "done", "job": id, "points": N, "cached": C,
  "simulated": S}`` -- job complete; ``C + S == N``.
- ``{"event": "jobs", "jobs": [...]}`` / ``{"event": "pong", ...}`` --
  replies to the introspection ops.
- ``{"event": "error", "message": ...}`` -- the request was rejected
  (bad grid, unknown op, malformed JSON); the connection then closes.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.network.service.cache import record_from_payload, record_to_payload

__all__ = [
    "PROTOCOL_VERSION",
    "decode_line",
    "encode_message",
    "record_from_wire",
    "record_to_wire",
    "validate_grid",
]

PROTOCOL_VERSION = 1

# expand_grid's keyword surface; anything else in a submit grid is a
# client bug and is rejected rather than silently dropped
GRID_KEYS = frozenset({
    "topologies", "patterns", "loads", "routers", "seeds", "faults",
    "switching", "vcs", "buffers", "flits", "collectives", "workloads",
    "inject_window", "max_cycles",
})


def encode_message(msg: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON plus the newline delimiter."""
    return json.dumps(msg, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one frame; anything but a JSON object is a protocol error."""
    msg = json.loads(line.decode())
    if not isinstance(msg, dict):
        raise ValueError("wire messages must be JSON objects")
    return msg


# one record codec for the wire and the cache.  Encoding keeps
# declaration order, and JSON round-trips every column exactly, so a
# streamed record is bit-identical to the in-process one.  Decoding is
# strict: the key set *and* every value's exact type must match the
# SweepRecord schema, so a schema skew or a frame carrying
# "avg_latency": 3 raises instead of drifting the client's CSV away
# from `repro sweep`'s
record_to_wire = record_to_payload
record_from_wire = record_from_payload


def validate_grid(grid: Any) -> Dict[str, Any]:
    """Check a submit request's grid: a dict, only expand_grid keywords,
    ``topologies`` present.  Axis *values* are validated by
    :func:`~repro.network.sweep.expand_grid` itself server-side, so the
    client gets the same error text the CLI would print."""
    if not isinstance(grid, dict):
        raise ValueError("grid must be a JSON object of expand_grid arguments")
    unknown = set(grid) - GRID_KEYS
    if unknown:
        raise ValueError(
            f"unknown grid keys {sorted(unknown)}; allowed: {sorted(GRID_KEYS)}"
        )
    if not grid.get("topologies"):
        raise ValueError("grid must name at least one topology")
    for w in grid.get("workloads") or ():
        # trace references resolve against files the *client* holds; the
        # wire carries no trace payloads, so reject them loudly instead
        # of failing later inside a worker
        if isinstance(w, str) and w.startswith("trace:"):
            raise ValueError(
                "trace-replay workloads cannot be submitted over the wire "
                "(the server has no trace files); replay traces with "
                "'repro sweep --trace' locally"
            )
    return grid
