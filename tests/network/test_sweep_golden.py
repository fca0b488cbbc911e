"""Golden-snapshot tests for the sweep harness's on-disk output.

The CSV/JSON files `repro sweep` writes are the interface every
downstream plotting/analysis script consumes; their header layout, row
shape and the 6-tuple saturation-curve keys are contracts.  These tests
pin them against fixtures checked in under ``tests/network/golden/``:

- ``sweep_small.csv`` -- the byte-exact output of a small deterministic
  CLI sweep (seeded traffic, so every latency/throughput digit is
  reproducible);
- ``sweep_curve_keys.json`` -- the sorted ``saturation_curves`` keys of
  a mixed grid with the fault, flow-control and collective axes all in
  play, pinning the key normalisation (flow tags, ``"-"`` patterns,
  ``1.0`` loads for collectives);
- ``sweep_collectives.json`` and ``sweep_collectives_capped.json`` --
  the byte-exact records of two collective grids, one of them lossy
  under a node fault and one stalled by a 12-cycle cap, whatever the
  batch width.

Regenerating a fixture after an *intentional* schema change is a
one-liner (see each test's docstring); an unintentional diff is a
broken downstream contract.
"""

import csv
import json
from dataclasses import fields
from pathlib import Path

import pytest

from repro.cli import main
from repro.network.collectives import COLLECTIVES
from repro.network.sweep import SweepRecord, run_sweep, saturation_curves, write_json

GOLDEN = Path(__file__).parent / "golden"

SMALL_SWEEP_ARGS = [
    "sweep", "--topo", "Q:3", "--patterns", "uniform,hotspot",
    "--loads", "0.2,0.4", "--seeds", "0,1", "--window", "8",
]

MIXED_GRID = dict(
    topologies=["11:5"], patterns=("uniform", "tornado"), loads=(0.2, 0.5),
    seeds=(0, 1), faults=("", "n2@3"), switching=("sf", "wormhole"),
    vcs=(2,), buffers=(4,), flits=("1-4",), collectives=("", "broadcast"),
    inject_window=8,
)

COLLECTIVE_AXES = dict(
    collectives=tuple(sorted(COLLECTIVES)), switching=("sf", "wormhole"),
    faults=("", "n2@3"), seeds=(0, 1), inject_window=8,
)
COLLECTIVE_GRIDS = {
    "sweep_collectives.json": dict(
        COLLECTIVE_AXES, topologies=["Q:4", "11:5"], vcs=(2,), buffers=(4,),
        flits=("1-4",),
    ),
    "sweep_collectives_capped.json": dict(
        COLLECTIVE_AXES, topologies=["1010:5"], vcs=(1,), buffers=(1,),
        flits=("2-6",), max_cycles=12,
    ),
}


def test_cli_csv_matches_golden_bytes(tmp_path):
    """End-to-end `repro sweep` CSV output is byte-identical to the
    checked-in fixture.  Regenerate after an intentional change with::

        repro sweep --topo Q:3 --patterns uniform,hotspot \\
            --loads 0.2,0.4 --seeds 0,1 --window 8 \\
            --csv tests/network/golden/sweep_small.csv
    """
    out = tmp_path / "out.csv"
    assert main(SMALL_SWEEP_ARGS + ["--csv", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_small.csv").read_bytes()


def test_csv_header_matches_record_schema():
    """The golden header row is exactly the SweepRecord field list, in
    declaration order."""
    with open(GOLDEN / "sweep_small.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == [f.name for f in fields(SweepRecord)]


def test_golden_rows_have_uniform_shape_and_types():
    """Every data row parses under the schema: one cell per column,
    numeric columns numeric, booleans in CSV's True/False spelling."""
    with open(GOLDEN / "sweep_small.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8  # 1 topo x 2 patterns x 2 loads x 2 seeds
    for row in rows:
        assert None not in row and None not in row.values()
        assert row["topology"] == "Q_3"
        int(row["injected"]), int(row["cycles"])
        float(row["load"]), float(row["avg_latency"]), float(row["throughput"])
        assert row["deadlocked"] in ("True", "False")


def test_batched_sweep_writes_the_golden_csv(tmp_path):
    """`--batch` must not change a single byte of the CSV."""
    out = tmp_path / "batched.csv"
    assert main(SMALL_SWEEP_ARGS + ["--batch", "8", "--csv", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "sweep_small.csv").read_bytes()


def test_curve_keys_match_golden():
    """saturation_curves keys are normalised 6-tuples
    (topology, router, pattern, faults, flow tag, collective); the mixed
    grid's key set is pinned.  Regenerate the fixture by dumping
    ``sorted(saturation_curves(run_sweep(**MIXED_GRID)))`` as JSON."""
    records = run_sweep(**MIXED_GRID)
    curves = saturation_curves(records)
    golden = json.loads((GOLDEN / "sweep_curve_keys.json").read_text())
    assert sorted(curves) == [tuple(k) for k in golden]
    for key, curve in curves.items():
        assert len(key) == 6
        if key[5]:  # collective cells: pattern/load normalised away
            assert key[2] == "-"
            assert [p.load for p in curve] == [1.0]
        else:
            assert [p.load for p in curve] == [0.2, 0.5]


def test_json_rows_share_the_csv_schema(tmp_path):
    out = tmp_path / "out.json"
    assert main(SMALL_SWEEP_ARGS + ["--json", str(out)]) == 0
    data = json.loads(out.read_text())
    names = [f.name for f in fields(SweepRecord)]
    assert len(data) == 8
    for row in data:
        assert list(row) == names


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("fixture", sorted(COLLECTIVE_GRIDS))
def test_collective_records_match_golden_bytes(fixture, batch, tmp_path):
    """Collective records, byte for byte, alone or packed 16 wide.
    Regenerate after an intentional change with::

        PYTHONPATH=src:tests/network python -c "from test_sweep_golden \\
            import *; [write_json(run_sweep(**g), 'tests/network/golden/' \\
            + f) for f, g in COLLECTIVE_GRIDS.items()]"
    """
    out = tmp_path / fixture
    write_json(run_sweep(batch=batch, **COLLECTIVE_GRIDS[fixture]), str(out))
    assert out.read_bytes() == (GOLDEN / fixture).read_bytes()
