"""Unit suite for the content-addressed result cache.

Three contracts under test:

- **key canonicalisation** -- equivalent specs (axes that do not matter
  for the simulation) collide on one key; distinct simulations never
  share one; and the keys themselves are pinned by a golden file
  (``tests/network/golden/point_keys.json``) asserted across the CI
  python matrix, so canonicalisation drift (dict ordering, float repr)
  fails the build instead of silently splitting the cache;
- **robustness** -- corrupt, truncated, schema-skewed or misplaced
  entries read as misses that delete the bad file and re-simulate; a
  cache can cost a re-run, never a wrong record;
- **resume semantics** -- ``run_sweep(cache=...)`` fills on the way
  out, a warm repeat simulates nothing, a *grown* grid simulates only
  its new cells, and ``cache=None`` bypasses the store entirely.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.network.service import ResultCache, point_key
from repro.network.service.cache import CACHE_VERSION, canonical_encoding
from repro.network.service.protocol import record_from_wire, record_to_wire
from repro.network.sweep import PointSpec, run_sweep

GOLDEN = Path(__file__).parent / "golden"

# the axis tour the golden key file pins: every PointSpec field is
# exercised by at least one spec, including a repr-sensitive float load
GOLDEN_KEY_SPECS = [
    PointSpec(topology="Q:3"),
    PointSpec(topology="Q:3", load=0.4, seed=1),
    PointSpec(topology="Q:3", load=1 / 3, inject_window=16, max_cycles=500),
    PointSpec(topology="11:5", router="adaptive", pattern="tornado",
              load=0.3, faults="n2@3"),
    PointSpec(topology="Q:4", switching="wormhole", num_vcs=2,
              buffer_depth=4, flits="1-4", load=0.25),
    PointSpec(topology="11:5", collective="broadcast", pattern="-",
              load=1.0, switching="vct", num_vcs=2, buffer_depth=2,
              flits="2"),
    PointSpec(topology="Q:4", pattern="-", load=0.5,
              workload="bg:uniform:0.2:0;fg:hotspot:0.1:2"),
    PointSpec(topology="Q:4", pattern="-", load=1.0,
              workload="trace:0123456789abcdef"),
]

SMALL_GRID = dict(
    topologies=["Q:3"], patterns=("uniform",), loads=(0.2, 0.4),
    seeds=(0, 1), inject_window=8,
)


class TestPointKey:
    def test_keys_match_golden(self):
        """The cache-key stability gate: these exact hashes are asserted
        on every python of the CI matrix.  A diff here means the
        canonical encoding drifted -- which would split the cache
        between interpreter versions -- or that the PointSpec schema
        changed, in which case bump CACHE_VERSION and regenerate::

            PYTHONPATH=src:tests python -c \\
              "from network.test_service_cache import dump_golden_keys; dump_golden_keys()"
        """
        golden = json.loads((GOLDEN / "point_keys.json").read_text())
        assert golden["cache_version"] == CACHE_VERSION
        assert [point_key(s) for s in GOLDEN_KEY_SPECS] == golden["keys"]

    def test_key_is_sha256_hex(self):
        key = point_key(PointSpec(topology="Q:3"))
        assert len(key) == 64 and set(key) <= set("0123456789abcdef")

    def test_encoding_is_version_stamped_and_sorted(self):
        doc = json.loads(canonical_encoding(PointSpec(topology="Q:3")))
        assert doc["version"] == CACHE_VERSION
        assert list(doc) == sorted(doc)

    def test_sf_specs_collide_across_flow_axes(self):
        """Store-and-forward ignores VCs/buffers/flits: every variant is
        the same simulation, so every variant is the same key."""
        base = PointSpec(topology="Q:3", switching="sf")
        for variant in (
            replace(base, num_vcs=3),
            replace(base, buffer_depth=9),
            replace(base, flits="2-4"),
            replace(base, num_vcs=4, buffer_depth=2, flits="8"),
        ):
            assert point_key(variant) == point_key(base)

    def test_collective_specs_collide_across_pattern_and_load(self):
        base = PointSpec(topology="Q:3", collective="broadcast",
                         pattern="-", load=1.0)
        for variant in (
            replace(base, pattern="uniform", load=0.7),
            replace(base, pattern="tornado", load=0.1),
        ):
            assert point_key(variant) == point_key(base)

    def test_every_meaningful_axis_changes_the_key(self):
        base = PointSpec(topology="Q:3", switching="wormhole", num_vcs=2,
                         buffer_depth=4, flits="2")
        distinct = [
            base,
            replace(base, topology="11:3"),
            replace(base, router="ecube"),
            replace(base, pattern="tornado"),
            replace(base, load=0.21),
            replace(base, seed=1),
            replace(base, inject_window=32),
            replace(base, max_cycles=50000),
            replace(base, faults="n2@3"),
            replace(base, switching="vct"),
            replace(base, num_vcs=3),
            replace(base, buffer_depth=5),
            replace(base, flits="3"),
            replace(base, collective="broadcast", pattern="-", load=1.0),
            replace(base, workload="t:uniform:0.3:0", pattern="-"),
            replace(base, workload="t:uniform:0.3:1", pattern="-"),
            replace(base, workload="trace:0123456789abcdef", pattern="-",
                    load=1.0),
        ]
        keys = [point_key(s) for s in distinct]
        assert len(set(keys)) == len(keys)

    def test_workload_specs_collide_across_pattern_but_not_load(self):
        """Workload points normalise the pattern axis away (the tenants
        carry their own patterns) but keep load: it scales every
        tenant, so each load is a distinct simulation."""
        base = PointSpec(topology="Q:3", workload="t:uniform:0.2:0",
                         pattern="-", load=0.5)
        assert point_key(replace(base, pattern="tornado")) == point_key(base)
        assert point_key(replace(base, load=0.7)) != point_key(base)

    def test_equivalent_workload_spellings_collide(self):
        """Canonicalisation folds spelling variants (default priority,
        explicit rate=1, float formatting) onto one key."""
        a = PointSpec(topology="Q:3", workload="t:uniform:0.2")
        b = PointSpec(topology="Q:3", workload="t:uniform:0.20:0;rate=1")
        assert point_key(a) == point_key(b)


def dump_golden_keys() -> None:
    """Regenerate the golden key fixture (after an intentional
    CACHE_VERSION bump only)."""
    doc = {
        "cache_version": CACHE_VERSION,
        "keys": [point_key(s) for s in GOLDEN_KEY_SPECS],
    }
    (GOLDEN / "point_keys.json").write_text(json.dumps(doc, indent=2) + "\n")


# schema-shaped record payloads with one wrong-typed value: the cache
# and the wire share one strict decoder, and both must reject every one
TYPE_CORRUPTIONS = [
    ("avg_latency", "3.5"),   # string where a float belongs
    ("avg_latency", 3),       # int where a float belongs (CSV drift)
    ("delivered", 7.0),       # float where an int belongs
    ("delivered", True),      # bool must not pass for int
    ("deadlocked", 0),        # int must not pass for bool
    ("topology", None),
]


class TestResultCacheStore:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = PointSpec(topology="Q:3", inject_window=8)
        [record] = run_sweep(["Q:3"], patterns=("uniform",), loads=(0.2,),
                             inject_window=8)
        assert cache.get(spec) is None
        cache.put(spec, record)
        assert cache.get(spec) == record
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)
        assert len(cache) == 1

    def test_equivalent_spec_hits_the_same_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = PointSpec(topology="Q:3", inject_window=8)
        [record] = run_sweep(["Q:3"], patterns=("uniform",), loads=(0.2,),
                             inject_window=8)
        cache.put(spec, record)
        assert cache.get(replace(spec, num_vcs=7, flits="2")) == record

    @pytest.mark.parametrize("damage", [
        b"", b"{", b'{"key": "nope"}', b"not json at all \xff",
        b"[]", b"3", b'"x"', b"null",
    ])
    def test_corrupt_entry_is_a_miss_and_is_deleted(self, tmp_path, damage):
        cache = ResultCache(tmp_path)
        spec = PointSpec(topology="Q:3", inject_window=8)
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_bytes(damage)
        assert cache.get(spec) is None
        assert not path.exists()  # bad entry evicted, next put is clean
        assert cache.misses == 1

    def test_truncated_entry_recovers(self, tmp_path):
        """A partially-written entry (e.g. a pre-atomic-write crash
        artefact) must read as a miss and a re-put must repair it."""
        cache = ResultCache(tmp_path)
        spec = PointSpec(topology="Q:3", inject_window=8)
        [record] = run_sweep(["Q:3"], patterns=("uniform",), loads=(0.2,),
                             inject_window=8)
        cache.put(spec, record)
        path = cache.path_for(spec)
        path.write_bytes(path.read_bytes()[:-20])
        assert cache.get(spec) is None
        cache.put(spec, record)
        assert cache.get(spec) == record

    def test_schema_skew_is_a_miss(self, tmp_path):
        """An entry written under a different SweepRecord layout (field
        added/removed) must not mis-fill columns: it reads as corrupt."""
        cache = ResultCache(tmp_path)
        spec = PointSpec(topology="Q:3", inject_window=8)
        [record] = run_sweep(["Q:3"], patterns=("uniform",), loads=(0.2,),
                             inject_window=8)
        cache.put(spec, record)
        path = cache.path_for(spec)
        doc = json.loads(path.read_text())
        del doc["record"]["throughput"]
        path.write_text(json.dumps(doc))
        assert cache.get(spec) is None

    @pytest.mark.parametrize("field_name, bad_value", TYPE_CORRUPTIONS)
    def test_type_corrupt_entry_is_a_miss(self, tmp_path, field_name, bad_value):
        """A schema-shaped entry with a wrong-typed value (bit rot, a
        hand-edited file) must read as corrupt, not as a hit."""
        cache = ResultCache(tmp_path)
        spec = PointSpec(topology="Q:3", inject_window=8)
        [record] = run_sweep(["Q:3"], patterns=("uniform",), loads=(0.2,),
                             inject_window=8)
        cache.put(spec, record)
        path = cache.path_for(spec)
        doc = json.loads(path.read_text())
        doc["record"][field_name] = bad_value
        path.write_text(json.dumps(doc))
        assert cache.get(spec) is None
        assert not path.exists()
        cache.put(spec, record)
        assert cache.get(spec) == record

    @pytest.mark.parametrize("field_name, bad_value", TYPE_CORRUPTIONS)
    def test_type_corrupt_wire_record_is_rejected(self, field_name, bad_value):
        """The same corruptions arriving in a ``record`` frame raise
        instead of reaching the client's CSV: the wire decodes with the
        cache's strict decoder."""
        [record] = run_sweep(["Q:3"], patterns=("uniform",), loads=(0.2,),
                             inject_window=8)
        payload = record_to_wire(record)
        assert record_from_wire(payload) == record
        payload[field_name] = bad_value
        with pytest.raises(ValueError, match=field_name):
            record_from_wire(payload)

    def test_misfiled_entry_is_a_miss(self, tmp_path):
        """An entry whose stored key does not match its address (renamed
        or copied file) is rejected."""
        cache = ResultCache(tmp_path)
        spec = PointSpec(topology="Q:3", inject_window=8)
        other = PointSpec(topology="Q:3", load=0.4, inject_window=8)
        [record] = run_sweep(["Q:3"], patterns=("uniform",), loads=(0.2,),
                             inject_window=8)
        cache.put(spec, record)
        target = cache.path_for(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(cache.path_for(spec).read_bytes())
        assert cache.get(other) is None

    def test_clear_evicts_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        records = run_sweep(cache=cache, **SMALL_GRID)
        assert len(cache) == len(records) == 4
        assert cache.clear() == 4
        assert len(cache) == 0
        assert cache.get(PointSpec(topology="Q:3", inject_window=8)) is None

    def test_entries_live_under_a_version_directory(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(cache=cache, **SMALL_GRID)
        assert (tmp_path / f"v{CACHE_VERSION}").is_dir()
        assert all(
            p.relative_to(tmp_path).parts[0] == f"v{CACHE_VERSION}"
            for p in tmp_path.rglob("*.json")
        )


class TestRunSweepCache:
    def test_results_bit_identical_to_uncached(self, tmp_path):
        uncached = run_sweep(**SMALL_GRID)
        cache = ResultCache(tmp_path)
        cold = run_sweep(cache=cache, **SMALL_GRID)
        warm = run_sweep(cache=cache, **SMALL_GRID)
        assert cold == uncached
        assert warm == uncached

    def test_warm_repeat_simulates_zero_points(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(cache=cache, **SMALL_GRID)
        assert cache.stores == 4
        run_sweep(cache=cache, **SMALL_GRID)
        assert cache.stores == 4  # nothing new simulated
        assert cache.hits == 4

    def test_grown_grid_simulates_only_missing_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(cache=cache, **SMALL_GRID)
        grown = dict(SMALL_GRID, loads=(0.2, 0.4, 0.6), seeds=(0, 1, 2))
        records = run_sweep(cache=cache, **grown)
        assert len(records) == 9
        assert cache.stores == 4 + 5  # only the 5 new (load, seed) cells
        assert records == run_sweep(**grown)

    def test_batched_cold_run_fills_the_cache_identically(self, tmp_path):
        """batch=K changes only the packing, so a warm read after a
        batched fill returns the very same records."""
        cache = ResultCache(tmp_path)
        cold = run_sweep(cache=cache, batch=4, **SMALL_GRID)
        assert cold == run_sweep(**SMALL_GRID)
        assert run_sweep(cache=cache, **SMALL_GRID) == cold
        assert cache.stores == 4 and cache.hits == 4

    def test_failing_grid_keeps_its_finished_cells(self, tmp_path):
        """Each task is stored as it finishes: a grid whose second task
        fails -- a trace replayed off the topology it was recorded on --
        keeps the first task's cell."""
        from repro.network.sweep import parse_topology
        from repro.network.workloads import record_trace, trace_key

        trace = record_trace("t:uniform:0.5:0", "Q:3", parse_topology("Q:3"), 8)
        key = trace_key(trace)
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError, match="recorded on"):
            run_sweep(
                ["Q:3", "11:4"], workloads=(f"trace:{key}",),
                traces={key: trace}, inject_window=8, cache=cache,
            )
        assert cache.stores == 1

    def test_integer_load_rerun_hits_the_cache(self, tmp_path):
        """A JSON grid's ``"loads": [1]`` records ``load`` as ``1.0``, so
        the strict decoder reads the entry back and the CSV matches the
        ``1.0`` grid's."""
        from repro.network.sweep import write_csv

        cache = ResultCache(tmp_path / "cache")
        grid = dict(topologies=["Q:3"], inject_window=8)
        run_sweep(loads=[1], cache=cache, **grid)
        warm = run_sweep(loads=[1], cache=cache, **grid)
        assert (cache.hits, cache.stores) == (1, 1)
        write_csv(warm, str(tmp_path / "int.csv"))
        write_csv(run_sweep(loads=[1.0], **grid), str(tmp_path / "float.csv"))
        assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()

    def test_no_cache_bypass_touches_no_disk(self, tmp_path):
        run_sweep(cache=None, **SMALL_GRID)
        assert list(tmp_path.iterdir()) == []
