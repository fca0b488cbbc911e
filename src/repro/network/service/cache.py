"""Content-addressed result cache for sweep points.

Every sweep point is fully described by its :class:`~repro.network.sweep.PointSpec`
-- topology, router, pattern, load, seed, switching, VCs, buffer depth,
flit spec, faults, collective, injection window and cycle cap -- and the
engines are deterministic, so a point's :class:`~repro.network.sweep.SweepRecord`
is a pure function of its spec.  That makes the grid cacheable by
content address:

- :func:`point_key` hashes a *canonical* encoding of the normalised spec
  (:func:`~repro.network.sweep.normalize_spec` collapses the axes that
  do not matter, JSON with sorted keys and compact separators pins the
  byte layout, and shortest-roundtrip float ``repr`` is stable across
  CPython 3.10-3.12).  The encoding is version-stamped
  (:data:`CACHE_VERSION`): any change to the spec schema or the engine
  semantics bumps the version and retires every old entry at once
  instead of silently serving stale results.  A golden file of keys is
  asserted across the CI python matrix, so canonicalisation drift
  (dict ordering, float repr) fails the build instead of splitting the
  cache;
- :class:`ResultCache` is the on-disk store: one JSON file per point
  under ``<cache_dir>/v<CACHE_VERSION>/<key[:2]>/<key>.json``
  (``~/.cache/repro`` by default, override with ``cache_dir`` or
  ``$REPRO_CACHE_DIR``).  Writes are atomic (temp file + ``os.replace``)
  so a killed worker can never leave a half-written entry behind, and
  reads treat *anything* unexpected -- truncated JSON, a schema
  mismatch, a key that does not match its file name -- as a miss that
  deletes the bad entry and re-simulates.  A cache can only ever cost a
  re-run, never a wrong result.

``run_sweep(cache=ResultCache(...))`` and the sweep service both consult
the same store through one loop (:func:`~repro.network.sweep.stream_sweep`),
so a grid started from the CLI resumes under the server and vice versa.
A cache hit is bit-identical to an uncached run: a record describes its
point, never the run that produced it.  Entries are encoded and decoded
with the wire format's record codec, so there is one record codec.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path
from typing import Optional

from repro.network.sweep import PointSpec, SweepRecord, normalize_spec

__all__ = [
    "CACHE_VERSION",
    "ResultCache",
    "canonical_encoding",
    "default_cache_dir",
    "point_key",
    "record_from_payload",
    "record_to_payload",
]

# Bump when the PointSpec schema, the canonical encoding, or the engine
# semantics change: old entries then simply stop being addressed.
# v2: PointSpec grew the workload axis and SweepRecord the workload /
# tenants columns (multi-tenant trace-driven workloads).
# v3: SweepRecord grew the analytic_bound column, so cached payloads
# from v2 no longer match the record schema
# v4: traffic streams come from the repo's counter-based generator
# (repro.network.traffic), so every seeded point simulates new traffic
# v5: SweepRecord dropped the batch column (it described the run, not
# the point)
CACHE_VERSION = 5

_SPEC_FIELDS = tuple(f.name for f in fields(PointSpec))
_RECORD_FIELDS = tuple(f.name for f in fields(SweepRecord))
# field -> declared type, for validating deserialised entries (sweep.py
# uses postponed annotations, so f.type is the type's *name*)
_PAYLOAD_TYPES = {"str": str, "int": int, "float": float, "bool": bool}
_RECORD_TYPES = {
    f.name: _PAYLOAD_TYPES[f.type] if isinstance(f.type, str) else f.type
    for f in fields(SweepRecord)
}


def canonical_encoding(spec: PointSpec) -> bytes:
    """The byte string :func:`point_key` hashes: version stamp plus the
    normalised spec, JSON-encoded with sorted keys and compact
    separators so the layout cannot drift with dict ordering, and floats
    in shortest-roundtrip ``repr`` (identical across CPython 3.10-3.12).
    """
    spec = normalize_spec(spec)
    payload = {"version": CACHE_VERSION}
    payload.update((name, getattr(spec, name)) for name in _SPEC_FIELDS)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def point_key(spec: PointSpec) -> str:
    """SHA-256 content address of a sweep point: equivalent specs (same
    canonical form under :func:`~repro.network.sweep.normalize_spec`)
    collide, distinct simulations never share a key."""
    return hashlib.sha256(canonical_encoding(spec)).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def record_to_payload(record: SweepRecord) -> dict:
    """JSON-serialisable dict form of a record: field name -> value, in
    declaration order (JSON round-trips its ints, floats, bools and
    strings exactly).  The wire's ``record_to_wire`` is this function."""
    return {name: getattr(record, name) for name in _RECORD_FIELDS}


def record_from_payload(payload: dict) -> SweepRecord:
    """Rebuild a record, strictly: the key set *and every value's type*
    must match the schema exactly, so an entry written under a different
    SweepRecord layout -- or bit-rotted into the right shape with wrong
    values (a string where a float belongs) -- reads as corrupt instead
    of being served as a hit."""
    if not isinstance(payload, dict) or set(payload) != set(_RECORD_FIELDS):
        raise ValueError("record payload does not match the SweepRecord schema")
    for name, want in _RECORD_TYPES.items():
        # exact type, not isinstance: bool must not pass for int, nor
        # int for float (an int-valued latency would break the CSV
        # bit-identity contract)
        if type(payload[name]) is not want:
            raise ValueError(
                f"record field {name!r} is not a {want.__name__}"
            )
    return SweepRecord(**payload)


class ResultCache:
    """On-disk content-addressed store of sweep-point results.

    ``get``/``put`` take the *spec* (hashing is internal), so callers
    never handle keys; the ``hits``/``misses``/``stores`` counters make
    resume behaviour assertable ("a warm repeat simulates zero points").
    Corrupt or schema-mismatched entries are deleted on read and
    reported as misses -- the cache can cost a re-simulation, never a
    wrong record.
    """

    def __init__(self, cache_dir: "str | os.PathLike | None" = None):
        self.root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @property
    def dir(self) -> Path:
        """The version-scoped entry directory."""
        return self.root / f"v{CACHE_VERSION}"

    def path_for(self, spec: PointSpec) -> Path:
        key = point_key(spec)
        return self.dir / key[:2] / f"{key}.json"

    def get(self, spec: PointSpec) -> Optional[SweepRecord]:
        path = self.path_for(spec)
        try:
            doc = json.loads(path.read_text())
            if not isinstance(doc, dict) or doc.get("key") != path.stem:
                raise ValueError("entry key does not match its address")
            record = record_from_payload(doc["record"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # truncated write, foreign schema, renamed file: drop the
            # entry and let the caller re-simulate
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, spec: PointSpec, record: SweepRecord) -> None:
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "key": path.stem,
            "spec": json.loads(canonical_encoding(spec)),
            "record": record_to_payload(record),
        }
        # atomic publish: readers see the old entry or the new one,
        # never a partial write
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def __len__(self) -> int:
        if not self.dir.is_dir():
            return 0
        return sum(1 for _ in self.dir.glob("*/*.json"))

    def clear(self) -> int:
        """Evict every entry of the current cache version; returns the
        number removed (other versions' entries are left alone)."""
        removed = 0
        if self.dir.is_dir():
            for entry in self.dir.glob("*/*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
