"""The traffic-pattern library: shape, determinism, topology-awareness,
and the pinned random streams."""

import hashlib

import numpy as np
import pytest

from repro.cubes.hypercube import hypercube
from repro.network.topology import topology_of
from repro.network.traffic import (
    PATTERNS,
    bit_reversal_traffic,
    bursty_traffic,
    draw_words,
    flit_sizes,
    hotspot_traffic,
    make_traffic,
    permutation_traffic,
    tornado_traffic,
    transpose_traffic,
    uniform_traffic,
)
from tests.conftest import path_graph


def lex_sorted(out):
    """``out``'s rows sorted by (cycle, src, dst)."""
    return out[np.lexsort((out[:, 2], out[:, 1], out[:, 0]))]


@pytest.fixture(scope="module")
def gamma6():
    return topology_of(("11", 6))


@pytest.fixture(scope="module")
def q4():
    return topology_of(hypercube(4), name="Q4")


class TestEveryPattern:
    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_wellformed(self, gamma6, pattern):
        out = make_traffic(pattern, gamma6, 80, 10, seed=1)
        assert out.shape == (80, 3) and out.dtype == np.int64
        n = gamma6.num_nodes
        for cycle, src, dst in out.tolist():
            assert cycle >= 0
            assert 0 <= src < n and 0 <= dst < n
            assert src != dst
        assert np.array_equal(out, lex_sorted(out))

    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_deterministic_and_seed_sensitive(self, gamma6, pattern):
        a = make_traffic(pattern, gamma6, 60, 30, seed=4)
        b = make_traffic(pattern, gamma6, 60, 30, seed=4)
        assert np.array_equal(a, b)
        # different seed must change *something* (cycles at minimum)
        c = make_traffic(pattern, gamma6, 60, 30, seed=5)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_inject_window_zero_raises(self, gamma6, pattern):
        with pytest.raises(ValueError):
            make_traffic(pattern, gamma6, 10, 0)

    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    def test_single_node_raises(self, pattern):
        g = path_graph(1)
        g.set_labels(["x"])
        topo = topology_of(g, name="dot")
        with pytest.raises(ValueError):
            make_traffic(pattern, topo, 5, 5)

    def test_unknown_pattern_raises(self, gamma6):
        with pytest.raises(ValueError, match="unknown traffic pattern"):
            make_traffic("nope", gamma6, 5, 5)


class TestDegenerateTopologyGuards:
    """Regression: tornado and hotspot used to fall into their generation
    loops on degenerate topologies -- tornado emitting src == dst
    self-traffic when its stride wraps, hotspot dying deep in the draw
    loop with a raw ``randrange(0)``.  Both now reject up front with a
    message naming the degeneracy."""

    def _one_node(self):
        g = path_graph(1)
        g.set_labels(["x"])
        return topology_of(g, name="dot")

    def test_tornado_single_node_names_the_wrap(self):
        with pytest.raises(ValueError, match="stride 1 wraps"):
            tornado_traffic(self._one_node(), 5, 5)

    def test_tornado_never_emits_self_traffic(self, gamma6):
        out = tornado_traffic(gamma6, 200, 8, seed=3)
        assert all(src != dst for _, src, dst in out)

    def test_hotspot_single_node_rejected_up_front(self):
        # the guard fires with the argument checks, before any drawing:
        # even a 0-packet request reports the topology problem
        with pytest.raises(ValueError, match="at least two nodes"):
            hotspot_traffic(self._one_node(), 0, 5)

    def test_hotspot_full_fraction_on_two_nodes(self):
        g = path_graph(2)
        g.set_labels(["a", "b"])
        topo = topology_of(g, name="pair")
        out = hotspot_traffic(topo, 20, 5, seed=2, hotspot=0, fraction=1.0)
        assert all((src, dst) == (1, 0) for _, src, dst in out)

    @pytest.mark.parametrize("pattern", sorted(PATTERNS))
    @pytest.mark.parametrize("window", [1, 3, 10, 64])
    def test_every_cycle_inside_the_inject_window(self, gamma6, pattern, window):
        """The documented contract: injection cycles lie in
        [0, inject_window).  Regression for bursty_traffic, whose bursts
        used to run past the window edge and distort the sweep's
        load * nodes * window normalisation."""
        for seed in (0, 6, 23):
            out = make_traffic(pattern, gamma6, 300, window, seed=seed)
            assert all(0 <= c < window for c, _, _ in out), (pattern, seed)


class TestUniform:
    def test_negative_window_raises(self, gamma6):
        with pytest.raises(ValueError):
            uniform_traffic(gamma6, 5, -3)

    def test_negative_packets_raises(self, gamma6):
        with pytest.raises(ValueError):
            uniform_traffic(gamma6, -1, 5)

    def test_cycles_inside_window(self, gamma6):
        out = uniform_traffic(gamma6, 200, 7, seed=2)
        assert all(0 <= c < 7 for c, _, _ in out)


class TestStructuredPatterns:
    def test_transpose_on_hypercube_swaps_halves(self, q4):
        out = transpose_traffic(q4, 50, 1, seed=0)
        for _, s, t in out:
            w = format(s, "04b")
            expected = w[2:] + w[:2]
            if expected != w:  # fixed points are remapped to avoid self
                assert format(t, "04b") == expected

    def test_bit_reversal_on_hypercube(self, q4):
        out = bit_reversal_traffic(q4, 50, 1, seed=0)
        for _, s, t in out:
            w = format(s, "04b")
            if w[::-1] != w:
                assert format(t, "04b") == w[::-1]

    def test_structured_destination_is_function_of_source(self, gamma6):
        for fn in (transpose_traffic, bit_reversal_traffic, tornado_traffic):
            out = fn(gamma6, 120, 5, seed=3)
            dst_of = {}
            for _, s, t in out:
                assert dst_of.setdefault(s, t) == t, fn.__name__

    def test_tornado_stride(self, gamma6):
        n = gamma6.num_nodes
        out = tornado_traffic(gamma6, 60, 4, seed=0)
        for _, s, t in out:
            assert t == (s + n // 2) % n

    def test_permutation_is_fixed_point_free_bijection(self, gamma6):
        out = permutation_traffic(gamma6, 300, 3, seed=8)
        dst_of = {}
        for _, s, t in out:
            assert dst_of.setdefault(s, t) == t
        assert len(set(dst_of.values())) == len(dst_of)


class TestHotspot:
    def test_fraction_one_targets_hotspot_only(self, gamma6):
        out = hotspot_traffic(gamma6, 50, 5, seed=1, hotspot=3, fraction=1.0)
        assert all(t == 3 for _, _, t in out)

    def test_fraction_skews_towards_hotspot(self, gamma6):
        out = hotspot_traffic(gamma6, 400, 5, seed=1, hotspot=0, fraction=0.8)
        hits = sum(1 for _, _, t in out if t == 0)
        assert hits > 200

    def test_bad_args_raise(self, gamma6):
        with pytest.raises(ValueError):
            hotspot_traffic(gamma6, 5, 5, hotspot=gamma6.num_nodes)
        with pytest.raises(ValueError):
            hotspot_traffic(gamma6, 5, 5, fraction=1.5)


class TestBursty:
    def test_bursts_share_pair_on_consecutive_cycles(self, gamma6):
        out = bursty_traffic(gamma6, 200, 20, seed=6, mean_burst=10)
        assert len(out) == 200
        # group by (src, dst): cycles within a burst are consecutive runs
        by_pair = {}
        for c, s, t in out:
            by_pair.setdefault((s, t), []).append(c)
        assert any(len(v) > 1 for v in by_pair.values())

    def test_bad_mean_burst_raises(self, gamma6):
        with pytest.raises(ValueError):
            bursty_traffic(gamma6, 5, 5, mean_burst=0)

    def test_bursts_capped_at_the_window_edge(self, gamma6):
        """A burst starting near the end of the window is truncated, not
        spilled past it: with window=2 and mean_burst=10 most geometric
        bursts would overflow without the cap."""
        out = bursty_traffic(gamma6, 400, 2, seed=0, mean_burst=10)
        assert len(out) == 400
        assert all(0 <= c < 2 for c, _, _ in out)

    def test_capping_is_deterministic(self, gamma6):
        a = bursty_traffic(gamma6, 200, 5, seed=9, mean_burst=8)
        assert np.array_equal(
            a, bursty_traffic(gamma6, 200, 5, seed=9, mean_burst=8)
        )


class TestFlitSizes:
    def test_fixed_spec(self):
        assert np.array_equal(flit_sizes(4, "3"), [3, 3, 3, 3])
        assert np.array_equal(flit_sizes(3, 2), [2, 2, 2])
        assert flit_sizes(0, "5").shape == (0,)
        assert flit_sizes(3, 2).dtype == np.int64

    def test_range_spec_is_deterministic_and_bounded(self):
        a = flit_sizes(500, "2-8", seed=3)
        assert np.array_equal(a, flit_sizes(500, "2-8", seed=3))
        assert not np.array_equal(a, flit_sizes(500, "2-8", seed=4))
        assert all(2 <= f <= 8 for f in a.tolist())
        assert len(set(a.tolist())) > 1

    def test_bad_specs_raise(self):
        for spec in ("0", "5-2", "x", "1-y", "-3"):
            with pytest.raises(ValueError):
                flit_sizes(5, spec)
        with pytest.raises(ValueError):
            flit_sizes(-1, "2")


class TestStreamPins:
    """The streams are pinned by repo code: these digests (sha256 of the
    little-endian int64 rows) hold on every Python, NumPy and CPU the CI
    matrix runs.  A diff here moves every sweep result, so it must come
    with a CACHE_VERSION bump and regenerated goldens."""

    DIGESTS = {
        "allgather": "9e713117d48bfe0fa282650a82d3674d5219f952c73da7cc3ba3b29364d82c6d",
        "alltoall": "62f44d95b1187738bd1c574db7de3b056d0368bd5a4112ca312f27e274e6ce88",
        "bitrev": "4877d9ecdb29b75d8e601e8438a9eb86d0961299597076341bb33a545ae246de",
        "broadcast": "52a52b0ca6ac04fd50bdda17771eaa48155f7dccbe2b0821bc47fc15b1e52524",
        "bursty": "9c8f328b2c2137c4ad8139a428240b273b6a58dde6660882951b4e4f588c10b4",
        "hotspot": "1cbf43960789f6e9e317d285a8d67d31589f057d41ce919ac05fcd39fb1a5243",
        "permutation": "94ed399fb6f3b18f9016a79f6f526bed67a6c6211de74a9824df9dba29d03dc8",
        "reduce": "74292d8b2ab834dc54d689f970bd3e870bfd0ac2eb7dfad928a8fb1c500c1834",
        "ring": "5af19921d56c19dba6a3f809810020d2e68401a9e991ec4c5baa3eb12fe1f535",
        "tornado": "d7ea193b34d5c7fa6aacfb6f571a756becad0d3de93c92a50aa1594bcd741714",
        "transpose": "c4e520a9d0b27cb0a47eddc036da8e4fae614c5ba909e60bb5156c19feac0c6e",
        "uniform": "637f7c5f66b3497f63dd61b96bb19265dfc0161faea1dce4312af2fd9e1af50f",
    }
    FLITS = "4c70560774fa9f7b8e7262d5dfb4a3202210a7de5d2a47efe5a7ed8f3d038285"

    @staticmethod
    def digest(arr) -> str:
        return hashlib.sha256(np.asarray(arr).astype("<i8").tobytes()).hexdigest()

    def test_every_pattern_is_pinned(self, gamma6):
        assert sorted(self.DIGESTS) == sorted(PATTERNS)
        for pattern, want in self.DIGESTS.items():
            out = make_traffic(pattern, gamma6, 64, 16, seed=7)
            assert out.shape == (64, 3), pattern
            assert self.digest(out) == want, pattern

    def test_flit_sizes_are_pinned(self):
        assert self.digest(flit_sizes(64, "1-4", seed=7)) == self.FLITS

    def test_first_raw_words(self):
        # seed 0, stream 0 has key 0: SplitMix64's published outputs
        assert [int(w) for w in draw_words(0, 0, range(3))] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        ]
        assert [int(w) for w in draw_words(12345, 3, [0, 1, 2**40])] == [
            0x7F0A735DB920D460, 0xFC4A56AE2C74BA78, 0xF5718D35C645802E,
        ]

    def test_streams_do_not_depend_on_slicing(self):
        whole = draw_words(5, 2, range(100))
        assert np.array_equal(whole[40:60], draw_words(5, 2, range(40, 60)))


def test_simulator_reexports_uniform_traffic():
    """Backwards compatibility: the old import path keeps working."""
    from repro.network.simulator import uniform_traffic as reexported

    assert reexported is uniform_traffic
