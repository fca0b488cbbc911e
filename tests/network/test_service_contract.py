"""Wire-format contract tests for the sweep service (the CI
``service-contract`` job).

The PR 5 golden fixtures under ``tests/network/golden/`` stopped being
mere snapshots when the service shipped: they are the service's wire
contract.  A real :class:`~repro.network.service.SweepServer` is started
on an ephemeral port, the golden sweep grid is submitted through the
real client over the real socket, and the CSV/JSON written from the
*streamed* records must be byte-identical to the fixtures -- proving
that a record survives grid expansion, the worker pool, the cache, JSON
framing and client reassembly without a single bit of drift.  The same
grid is then re-submitted to pin the resume contract: zero points
simulated the second time.
"""

import asyncio
import json
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cli import main
from repro.network.service import (
    PROTOCOL_VERSION,
    ResultCache,
    ServiceError,
    SweepClient,
    SweepServer,
)
from repro.network.service.protocol import encode_message, record_to_wire
from repro.network.sweep import (
    PointSpec,
    _pack,
    expand_grid,
    run_point,
    run_sweep,
    saturation_curves,
    write_csv,
    write_json,
)

GOLDEN = Path(__file__).parent / "golden"

# the exact grid of the PR 5 golden fixtures (test_sweep_golden.py's
# SMALL_SWEEP_ARGS), as expand_grid keywords
GOLDEN_GRID = dict(
    topologies=["Q:3"], patterns=["uniform", "hotspot"],
    loads=[0.2, 0.4], seeds=[0, 1], inject_window=8,
)


# test_sweep.py's TestBatchAxis.GRID: 8 open-loop points per topology,
# so batch=3 cuts each topology into chunks of 3 + 3 + 2
BATCH_AXIS_GRID = dict(
    topologies=["Q:4", "11:5"], patterns=["uniform", "tornado"],
    loads=[0.2, 0.5], seeds=[0, 1], inject_window=8,
)


@contextmanager
def running_server(**kwargs):
    """A live server on an ephemeral port, torn down with the test."""
    server = SweepServer(port=0, **kwargs)
    ready = threading.Event()

    async def _main():
        await server.start()
        ready.set()
        await server.serve_until_shutdown()

    thread = threading.Thread(target=lambda: asyncio.run(_main()), daemon=True)
    thread.start()
    assert ready.wait(timeout=30), "server failed to start"
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive(), "server failed to shut down"


@pytest.fixture
def served(tmp_path):
    with running_server(cache=ResultCache(tmp_path / "cache")) as server:
        yield server, SweepClient(port=server.port, timeout=120)


def test_streamed_csv_is_byte_identical_to_golden(served, tmp_path):
    """THE wire contract: CSV written from records streamed over the
    socket equals the golden fixture byte for byte."""
    _, client = served
    records = client.submit(GOLDEN_GRID)
    out = tmp_path / "streamed.csv"
    write_csv(records, str(out))
    assert out.read_bytes() == (GOLDEN / "sweep_small.csv").read_bytes()


def test_streamed_json_is_byte_identical_to_golden(served, tmp_path):
    _, client = served
    records = client.submit(GOLDEN_GRID)
    out = tmp_path / "streamed.json"
    write_json(records, str(out))
    assert out.read_bytes() == (GOLDEN / "sweep_small.json").read_bytes()


def test_one_shot_cli_json_matches_the_same_golden(tmp_path):
    """The service and the one-shot CLI share one wire format: the CLI's
    --json output is the very fixture the service is held to.
    Regenerate after an intentional schema change with::

        repro sweep --topo Q:3 --patterns uniform,hotspot \\
            --loads 0.2,0.4 --seeds 0,1 --window 8 \\
            --json tests/network/golden/sweep_small.json
    """
    out = tmp_path / "out.json"
    assert main([
        "sweep", "--topo", "Q:3", "--patterns", "uniform,hotspot",
        "--loads", "0.2,0.4", "--seeds", "0,1", "--window", "8",
        "--json", str(out),
    ]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_small.json").read_bytes()


def test_resubmitted_grid_simulates_zero_points(served):
    """The resume contract: every cell of a re-submitted grid is served
    from the cache."""
    _, client = served
    events = []
    client.submit(GOLDEN_GRID)
    records = client.submit(GOLDEN_GRID, on_event=events.append)
    assert records == run_sweep(**GOLDEN_GRID)
    done = events[-1]
    assert done["event"] == "done"
    assert done["simulated"] == 0
    assert done["cached"] == done["points"] == len(records)
    assert all(e["cached"] for e in events if e["event"] == "record")


def test_grown_grid_simulates_only_new_cells(served):
    _, client = served
    client.submit(GOLDEN_GRID)
    grown = dict(GOLDEN_GRID, loads=[0.2, 0.4, 0.6])
    events = []
    records = client.submit(grown, on_event=events.append)
    assert records == run_sweep(**grown)
    done = events[-1]
    assert done["cached"] == 8 and done["simulated"] == 4


def test_process_pool_server_streams_the_same_records(tmp_path):
    """`repro serve --processes`: the simulation callables must pickle
    into the process pool, while cache reads/writes stay in-process so
    the hit/store counters and resume semantics survive."""
    cache = ResultCache(tmp_path / "cache")
    with running_server(cache=cache, use_processes=True, workers=2) as server:
        client = SweepClient(port=server.port, timeout=120)
        records = client.submit(GOLDEN_GRID)
        assert records == run_sweep(**GOLDEN_GRID)
        assert cache.stores == len(records)
        events = []
        client.submit(GOLDEN_GRID, on_event=events.append)
        done = events[-1]
        assert done["simulated"] == 0
        assert done["cached"] == done["points"] == len(records)


def test_without_cache_every_submit_simulates(tmp_path):
    with running_server(cache=None) as server:
        client = SweepClient(port=server.port, timeout=120)
        client.submit(GOLDEN_GRID)
        events = []
        client.submit(GOLDEN_GRID, on_event=events.append)
        done = events[-1]
        assert done["simulated"] == done["points"] and done["cached"] == 0


def test_batched_submit_matches_unbatched(served):
    _, client = served
    records = client.submit(GOLDEN_GRID, batch=8)
    assert records == run_sweep(**GOLDEN_GRID)
    # the whole grid is one task
    assert [len(t) for t in _pack(expand_grid(**GOLDEN_GRID), 8)] == [8]


def test_partial_batches_match_run_sweep(served):
    """The server runs the same loop as run_sweep, so even chunks that
    end short of ``batch`` stream the same records."""
    _, client = served
    records = client.submit(BATCH_AXIS_GRID, batch=3)
    assert records == run_sweep(batch=3, **BATCH_AXIS_GRID)
    tasks = _pack(expand_grid(**BATCH_AXIS_GRID), 3)
    assert [len(t) for t in tasks] == [3, 3, 2] * 2


def test_one_worker_thread_server_streams_every_task(tmp_path):
    """A one-thread simulation pool: the submit thread stepping the
    stream must not need a pool thread of its own, or the six tasks
    would deadlock behind it."""
    cache = ResultCache(tmp_path / "cache")
    with running_server(cache=cache, workers=1) as server:
        client = SweepClient(port=server.port, timeout=120)
        records = client.submit(BATCH_AXIS_GRID, batch=3)
    assert records == run_sweep(batch=3, **BATCH_AXIS_GRID)
    assert cache.stores == len(records) == 16


@pytest.mark.parametrize("batch", [2.7, "3", True, 0, -1, None])
def test_submit_batch_must_be_a_json_integer(served, batch):
    """A raw-socket submit whose ``batch`` is not a JSON integer of at
    least 1 gets an error event; nothing is coerced (2.7 must not run
    at batch 2) and the server keeps serving."""
    import socket

    server, client = served
    request = {"op": "submit", "grid": GOLDEN_GRID, "batch": batch}
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(json.dumps(request).encode() + b"\n")
        data = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
    [line] = data.decode().splitlines()
    msg = json.loads(line)
    assert msg["event"] == "error"
    assert "batch must be an integer of at least 1" in msg["message"]
    assert client.jobs() == []


@pytest.mark.parametrize("axis", [
    dict(loads=[0]), dict(loads=[True]), dict(loads=[float("inf")]),
    dict(seeds=[1.5]), dict(inject_window=0), dict(max_cycles=0),
    dict(max_cycles=-5),
])
def test_bad_numeric_axis_is_refused_before_acceptance(served, axis):
    """A load, seed, injection window or cycle cap that ``expand_grid``
    rejects gets one error event: no ``accepted`` first, no job
    registered (so no non-positive cap is ever cached under a key)."""
    import socket

    server, client = served
    request = {"op": "submit", "grid": dict(topologies=["Q:3"], **axis)}
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(json.dumps(request).encode() + b"\n")
        data = b""
        while chunk := sock.recv(4096):
            data += chunk
    [line] = data.decode().splitlines()
    msg = json.loads(line)
    assert msg["event"] == "error"
    assert any(
        word in msg["message"] for word in ("load", "seed", "inject_window", "max_cycles")
    )
    assert client.jobs() == []


def test_mixed_axes_grid_round_trips_the_wire(served):
    """Fault, flow-control and collective columns all survive the wire:
    records and derived curve keys equal the in-process harness, and a
    batched submit to a cacheless server -- collective points packed
    with open-loop ones -- simulates the same records."""
    _, client = served
    grid = dict(
        topologies=["11:4"], patterns=["uniform"], loads=[0.2],
        seeds=[0], faults=["", "n2@3"], switching=["sf", "wormhole"],
        vcs=[2], buffers=[4], flits=["1-4"],
        collectives=["", "broadcast"], inject_window=8,
    )
    records = client.submit(grid)
    direct = run_sweep(**grid)
    assert records == direct
    assert sorted(saturation_curves(records)) == sorted(saturation_curves(direct))
    with running_server(cache=None) as server:
        batched = SweepClient(port=server.port, timeout=120).submit(grid, batch=8)
    assert batched == direct


def test_two_tenant_grid_round_trips_the_wire_byte_for_byte(served, tmp_path):
    """A multi-tenant workload survives the socket: per-tenant QoS
    arbitration, the tenant-stats JSON column and the canonicalised
    workload spelling all stream back byte-identical to the in-process
    harness, cold and from cache."""
    _, client = served
    grid = dict(
        topologies=["Q:4", "11:4"], patterns=["uniform"], loads=[0.5, 1.0],
        seeds=[0, 1], inject_window=8,
        workloads=["bg:uniform:0.2;fg:broadcast:0.4:2;rate=1"],
    )
    records = client.submit(grid)
    direct = run_sweep(**grid)
    assert records == direct
    # the tenant column actually carries per-tenant stats over the wire
    assert all(r.tenants for r in records)
    assert all(r.workload == "bg:uniform:0.2:0;fg:broadcast:0.4:2" for r in records)
    streamed, local = tmp_path / "streamed.csv", tmp_path / "local.csv"
    write_csv(records, str(streamed))
    write_csv(direct, str(local))
    assert streamed.read_bytes() == local.read_bytes()
    # warm re-submit: all from cache, still byte-identical
    events = []
    cached = client.submit(grid, on_event=events.append)
    assert cached == direct
    done = events[-1]
    assert done["simulated"] == 0 and done["cached"] == len(records)


def test_jobs_op_reports_history(served):
    server, client = served
    client.submit(GOLDEN_GRID)
    client.submit(GOLDEN_GRID)
    jobs = client.jobs()
    assert [j["job"] for j in jobs] == [1, 2]
    assert all(j["state"] == "done" for j in jobs)
    assert [j["simulated"] for j in jobs] == [8, 0]
    assert [j["cached"] for j in jobs] == [0, 8]
    assert all(j["topologies"] == ["Q:3"] for j in jobs)


def test_ping_handshake(served):
    server, client = served
    pong = client.ping()
    assert pong["protocol"] == PROTOCOL_VERSION
    assert str(server.cache.root) == pong["cache"]


def test_bad_grid_is_rejected_with_the_cli_error_text(served):
    _, client = served
    with pytest.raises(ServiceError, match="unknown traffic pattern"):
        client.submit(dict(topologies=["Q:3"], patterns=["nope"]))
    with pytest.raises(ServiceError, match="at least one topology"):
        client.submit({})
    with pytest.raises(ServiceError, match="unknown grid keys"):
        client.submit(dict(topologies=["Q:3"], cycles=3))
    with pytest.raises(ServiceError, match="bad tenant token"):
        client.submit(dict(topologies=["Q:3"], workloads=["fg:nope"]))
    # a wire cap must be a JSON integer: the string "100" used to be
    # accepted and fail mid-job
    with pytest.raises(ServiceError, match="max_cycles must be an integer"):
        client.submit(dict(topologies=["Q:3"], max_cycles="100"))
    # trace references resolve against client-local files; the wire
    # carries no trace payloads, so the server refuses them up front
    with pytest.raises(ServiceError, match="cannot be submitted over the wire"):
        client.submit(dict(topologies=["Q:3"], workloads=["trace:0123456789abcdef"]))


def test_failed_submission_leaves_the_server_serving(served):
    _, client = served
    with pytest.raises(ServiceError):
        client.submit(dict(topologies=["bogus"]))
    assert client.submit(GOLDEN_GRID) == run_sweep(**GOLDEN_GRID)
    assert client.jobs()  # and introspection still answers


def test_unknown_op_is_an_error(served):
    _, client = served
    with pytest.raises(ServiceError, match="unknown op"):
        client._one({"op": "frobnicate"}, "never")


def test_record_events_carry_grid_indices(served):
    """Streaming may land out of grid order; the index field is what
    lets the client reassemble run_sweep's exact record list."""
    _, client = served
    events = []
    client.submit(GOLDEN_GRID, on_event=events.append)
    indices = [e["index"] for e in events if e["event"] == "record"]
    assert sorted(indices) == list(range(8))


class TestCliFrontends:
    """`repro serve` runs as a real subprocess; `repro submit` /
    `repro jobs` drive it through the installed CLI entry points."""

    @pytest.fixture
    def serve_proc(self, tmp_path):
        import os
        import re
        import subprocess
        import sys
        import time

        repo = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        # the context manager closes the stdout pipe and reaps the process
        with subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, text=True, cwd=str(repo), env=env,
        ) as proc:
            port = None
            try:
                deadline = time.monotonic() + 30
                line = proc.stdout.readline()
                assert time.monotonic() < deadline and line, "server never announced"
                port = int(re.search(r":(\d+) \(cache:", line).group(1))
                yield port
            finally:
                if port is None:  # never announced: nothing to ask
                    proc.kill()
                else:
                    try:
                        SweepClient(port=port).shutdown()
                    except (OSError, ServiceError):
                        proc.kill()
                proc.wait(timeout=30)

    def test_submit_and_jobs_subcommands(self, serve_proc, tmp_path, capsys):
        port = serve_proc
        out = tmp_path / "cli.csv"
        args = [
            "--port", str(port), "--topo", "Q:3", "--patterns",
            "uniform,hotspot", "--loads", "0.2,0.4", "--seeds", "0,1",
            "--window", "8",
        ]
        assert main(["submit", *args, "--csv", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "sweep_small.csv").read_bytes()
        assert "8 point(s), 0 from cache, 8 simulated" in capsys.readouterr().out

        assert main(["submit", *args]) == 0
        assert "8 from cache, 0 simulated" in capsys.readouterr().out

        assert main(["jobs", "--port", str(port)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # header + two jobs, both done
        assert all("done" in ln for ln in lines[1:])

    def test_submit_against_no_server_fails_cleanly(self, capsys):
        # an ephemeral port nothing listens on: connection refused, exit 2
        import socket

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            free_port = s.getsockname()[1]
        assert main(["submit", "--port", str(free_port), "--topo", "Q:3"]) == 2
        assert "cannot reach server" in capsys.readouterr().err
        assert main(["jobs", "--port", str(free_port)]) == 2


def test_oversized_request_line_is_an_error_event(monkeypatch):
    """A request line overrunning the frame limit gets an error reply
    and a clean close, not a dropped connection."""
    import socket

    from repro.network.service import server as server_mod

    monkeypatch.setattr(server_mod, "_MAX_REQUEST_BYTES", 1024)
    with running_server(cache=None) as server:
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as sock:
            sock.sendall(b"x" * 4096 + b"\n")
            data = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                data += chunk
    msg = json.loads(data.decode().splitlines()[0])
    assert msg["event"] == "error"
    assert "frame limit" in msg["message"]


def test_wire_frames_are_newline_delimited_json(served):
    """The raw protocol: one JSON object per line, readable without the
    client library (the documented ``nc``-compatibility claim)."""
    import socket

    server, _ = served
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(b'{"op":"ping"}\n')
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            data += chunk
    lines = data.decode().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["event"] == "pong"


@contextmanager
def fake_server(frames, connections):
    """A one-thread server on an ephemeral port that answers each of
    ``connections`` requests with the raw ``frames`` and hangs up."""
    import socket

    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        for _ in range(connections):
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as wire:
                wire.readline()  # the request
                conn.sendall(b"".join(encode_message(f) for f in frames))

    thread = threading.Thread(target=serve, daemon=True)
    with listener:
        thread.start()
        try:
            yield listener.getsockname()[1]
        finally:
            thread.join(timeout=30)
    assert not thread.is_alive(), "fake server never got its requests"


ACCEPTED = {"event": "accepted", "job": 1, "points": 1}
DONE = {"event": "done", "job": 1, "points": 1, "cached": 0, "simulated": 1}


def _record_frame(**index):
    return {"event": "record", "job": 1, "cached": False, **index}


# streams that break the protocol; every record frame gets a valid
# record payload, so only the framing is wrong
MALFORMED_STREAMS = {
    "record-without-index": [ACCEPTED, _record_frame(), DONE],
    "done-without-points": [
        ACCEPTED, _record_frame(index=0),
        {"event": "done", "job": 1, "cached": 0, "simulated": 1},
    ],
    "string-index": [ACCEPTED, _record_frame(index="0"), DONE],
    "float-index": [ACCEPTED, _record_frame(index=0.0), DONE],
    "index-past-the-grid": [ACCEPTED, _record_frame(index=1), DONE],
    "negative-index": [ACCEPTED, _record_frame(index=-1), DONE],
    "record-before-accepted": [_record_frame(index=0), DONE],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STREAMS))
def test_malformed_frames_raise_service_error(case, capsys):
    """A stream that breaks the protocol raises ServiceError, never a
    KeyError, so `repro submit` prints its one-line error and exits 2."""
    record = record_to_wire(run_point(PointSpec(topology="Q:3", inject_window=8)))
    frames = [
        dict(f, record=record) if f["event"] == "record" else f
        for f in MALFORMED_STREAMS[case]
    ]
    with fake_server(frames, connections=2) as port:
        with pytest.raises(ServiceError):
            SweepClient(port=port, timeout=30).submit(GOLDEN_GRID)
        assert main(["submit", "--port", str(port), "--topo", "Q:3"]) == 2
    assert "submit: error:" in capsys.readouterr().err
