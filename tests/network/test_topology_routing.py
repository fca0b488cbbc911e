"""Network substrate: topology metrics and routers."""

import sys
import threading

import numpy as np
import pytest

from repro.cubes.fibonacci import fibonacci_cube
from repro.cubes.hypercube import hypercube
from repro.graphs.core import Graph
from repro.graphs.traversal import bfs_distances
from repro.network.faults import FaultPlan
from repro.network.routing import (
    AdaptiveRouter,
    BfsRouter,
    CanonicalRouter,
    GreedyRouter,
    RouteTable,
    route_stats,
)
from repro.network.topology import Topology, faulted_topology, topology_of

from tests.conftest import cycle_graph


class TestTopology:
    def test_from_cube(self):
        topo = topology_of(("11", 5))
        assert topo.name == "Q_5(11)"
        assert topo.word_length == 5
        assert topo.num_nodes == 13

    def test_from_cube_object(self):
        topo = topology_of(fibonacci_cube(4))
        assert topo.num_nodes == 8

    def test_from_plain_graph(self):
        """Labels of one length that are not binary words give no word
        addresses, so the word routers refuse the topology."""
        g = cycle_graph(6)
        g.set_labels([f"n{i}" for i in range(6)])
        topo = topology_of(g, name="ring")
        assert topo.name == "ring"
        assert topo.word_length is None  # "n0" is no binary word
        for router in (CanonicalRouter(), GreedyRouter()):
            with pytest.raises(ValueError, match="needs word-addressed nodes"):
                router.route(topo, 0, 3)

    def test_from_plain_graph_of_binary_words(self):
        g = cycle_graph(4)
        g.set_labels(["00", "01", "11", "10"])
        assert topology_of(g).word_length == 2
        g.set_labels(["00", "01", "11", "1"])  # binary, but not one length
        assert topology_of(g).word_length is None

    def test_metrics_hypercube(self):
        topo = topology_of(hypercube(4), name="Q4")
        m = topo.metrics()
        assert m["nodes"] == 16
        assert m["links"] == 32
        assert m["diameter"] == 4
        assert m["max_degree"] == 4
        assert m["cost_degree_x_diameter"] == 16

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            Topology("broken", g)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Topology("empty", Graph(0))

    def test_degree_range(self):
        topo = topology_of(("11", 4))
        dmin, dmax = topo.degree_range()
        assert dmin >= 1 and dmax == 4

    def test_bad_input_type(self):
        with pytest.raises(TypeError):
            topology_of(42)

    def test_distance_rows_are_lazy_compact_and_exact(self):
        topo = topology_of(("101", 7))
        assert "dist" not in topo._memo  # nothing computed at build time
        table, row = topo.distance_rows([5, 2, 5])
        assert table.dtype == np.int8 and table.shape[0] == 2
        for r, dst in zip(row, (5, 2, 5)):
            assert np.array_equal(table[r], bfs_distances(topo.graph, dst))
        assert topo.hop_distances([0, 3], [2, 5]).tolist() == [
            bfs_distances(topo.graph, 2)[0], bfs_distances(topo.graph, 5)[3],
        ]

    def test_distance_rows_under_concurrent_growth(self):
        """Sweep-service worker threads share one topology: rows added
        by racing threads must never be mapped to the wrong destination."""
        topo = topology_of(hypercube(9), name="Q9")
        want = {d: bfs_distances(topo.graph, d) for d in range(topo.num_nodes)}
        bad = []

        def worker(k):
            rng = np.random.default_rng(k)
            try:
                for _ in range(40):
                    dsts = rng.integers(0, topo.num_nodes, size=3)
                    table, row = topo.distance_rows(dsts)
                    bad.extend(
                        int(d) for d, r in zip(dsts, row)
                        if not np.array_equal(table[r], want[int(d)])
                    )
            except IndexError as exc:  # a torn update can point past the table
                bad.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert bad == []

    def test_memo_builds_once_when_threads_race_its_first_call(self):
        """A memo hit reads without the lock, but a build takes it: 16
        threads racing the first ``memo(key, build)`` call run ``build``
        once and all get the one object it returned."""
        topo = topology_of(("11", 5))
        calls = []
        got = [None] * 16
        start = threading.Barrier(16)

        def build():
            calls.append(threading.get_ident())
            sum(range(20000))  # hold the lock across many switch intervals
            return object()

        def worker(k):
            start.wait()
            got[k] = topo.memo("race", build)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1
        assert got[0] is not None and all(x is got[0] for x in got)


def _link_id_topologies():
    """A word cube, one of its fault views, an unlabelled ring and a
    ``faulted_topology`` (relabelled survivors)."""
    cube = topology_of(("11", 6))
    view = cube.with_faults(FaultPlan.static(nodes=[4], links=[(0, 1)]))
    ring = Topology("C6", cycle_graph(6))
    return [cube, view, ring, faulted_topology(topology_of(("101", 6)), 5, seed=2)]


class TestLinkIds:
    """A directed link's id is its CSR slot: ``indptr[u] + p`` for the link
    from ``u`` to ``neighbours()[u, p]``, one numbering for every route table."""

    def test_the_code_book_maps_one_to_one_onto_the_ids(self):
        topo = topology_of(("101", 6))
        n = topo.num_nodes
        edges = list(topo.graph.edges())
        codes = [u * n + v for u, v in edges] + [v * n + u for u, v in edges]
        assert sorted(topo.link_ids(codes).tolist()) == list(range(2 * topo.num_links))
        csr = [u * n + v for u in range(n) for v in topo.graph.neighbors(u)]
        assert topo.link_codes().tolist() == csr  # id order: CSR, no sort
        assert topo.link_ids(topo.link_codes()).tolist() == list(range(2 * topo.num_links))

    @pytest.mark.parametrize("k", range(4))
    def test_ids_match_the_per_pair_oracle(self, k):
        topo = _link_id_topologies()[k]
        g, n = topo.graph, topo.num_nodes
        indptr = g.csr()[0]
        nbrs = topo.neighbours()
        assert nbrs.shape == (n, g.max_degree())
        for u in range(n):
            row = nbrs[u].tolist()
            assert row == g.neighbors(u) + [-1] * (nbrs.shape[1] - g.degree(u))
        links = [(u, v) for u in range(n) for v in g.neighbors(u)]
        codes = np.asarray([u * n + v for u, v in links], dtype=np.int64)
        ids = topo.link_ids(codes)
        assert ids.tolist() == [indptr[u] + g.neighbors(u).index(v) for u, v in links]
        assert sorted(ids.tolist()) == list(range(2 * topo.num_links))
        assert np.array_equal(topo.link_codes()[ids], codes)
        # a shuffled, repeated batch decodes hop by hop
        pick = np.random.default_rng(k).integers(0, codes.size, size=3 * codes.size)
        assert np.array_equal(topo.link_ids(codes[pick]), ids[pick])

    @pytest.mark.parametrize("k", range(4))
    def test_every_kind_of_non_link_raises(self, k):
        topo = _link_id_topologies()[k]
        g, n = topo.graph, topo.num_nodes
        u = next(v for v in range(n) if g.degree(v))
        far = next(
            w for w in range(n)
            if w != u and w not in g.neighbors(u) and g.degree(w)
        )
        # node -1 must not wrap to node n - 1: pair it with a neighbour of n - 1
        bad = [(u, u), (u, far), (n, 0), (n + 1, u), (-1, 0), (-1, g.neighbors(n - 1)[0])]
        for a, b in bad:
            code = a * n + b
            x, y = divmod(code, n)
            with pytest.raises(ValueError, match=rf"^\({x}, {y}\) is not a link of "):
                topo.link_ids([u * n + g.neighbors(u)[0], code])

    def test_a_hamming_2_pair_and_a_failed_node_raise(self):
        topo = topology_of(hypercube(3), name="Q3")
        view = topo.with_faults(FaultPlan.parse("n3"))
        n = topo.num_nodes
        assert (view.neighbours()[3] == -1).all()
        assert topo.link_ids(3 * n + 1) >= 0
        for t in (topo, view):  # 000 -> 011 flips two bits
            with pytest.raises(ValueError, match=rf"\(0, 3\) is not a link of {t.name}$"):
                t.link_ids(0 * n + 3)
        for code in (3 * n + 1, 1 * n + 3):
            with pytest.raises(ValueError, match=r"is not a link of Q3/f@0"):
                view.link_ids(code)

    def test_a_link_has_one_id_in_every_table(self):
        """Two tables over different pair sets, and routes built on a
        fault view, decode their hops to the same ids: each id names
        back its hop's code, and a link the tables share has one id."""
        topo = topology_of(("11", 6))
        n = topo.num_nodes
        u, v = next(e for e in topo.graph.edges() if 4 not in e)
        view = topo.with_faults(FaultPlan.static(nodes=[4], links=[(u, v)]))
        pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
        live = [p for p in pairs if 4 not in p]
        tables = [
            BfsRouter().build_table(topo, pairs[::3]),
            BfsRouter().build_table(topo, pairs[1::3]),
            BfsRouter().build_table(view, live),
            RouteTable.build(view, AdaptiveRouter(), live[::5]),
        ]
        id_of = {}
        indptr = topo.graph.csr()[0]
        for table in tables:
            codes, _ = table.hops()
            ids = topo.link_ids(codes)
            assert np.array_equal(topo.link_codes()[ids], codes)
            assert ids.tolist() == [
                indptr[a] + topo.graph.neighbors(a).index(b)
                for a, b in (divmod(c, n) for c in codes.tolist())
            ]
            for code, i in zip(codes.tolist(), ids.tolist()):
                assert id_of.setdefault(code, i) == i
        shared = [set(t.hops()[0].tolist()) for t in tables]
        assert shared[0] & shared[1] & shared[2] & shared[3]
        assert u * n + v not in shared[2] | shared[3]

    def test_a_non_link_raises(self):
        topo = topology_of(hypercube(3), name="Q3")
        n = topo.num_nodes
        with pytest.raises(ValueError, match=r"\(0, 7\) is not a link of Q3"):
            topo.link_ids([0 * n + 1, 0 * n + 7])
        with pytest.raises(ValueError, match=r"\(2, 2\) is not a link"):
            topo.link_ids(2 * n + 2)
        with pytest.raises(ValueError, match="is not a link"):
            topo.link_ids(n * n)
        assert topo.link_ids(np.empty(0, dtype=np.int64)).size == 0


class TestRouters:
    @pytest.fixture(scope="class")
    def gamma6(self):
        return topology_of(("11", 6))

    def test_bfs_router_optimal_everywhere(self, gamma6):
        stats = route_stats(gamma6, BfsRouter())
        assert stats.delivery_rate == 1.0
        assert stats.optimality_rate == 1.0
        assert stats.stretch == 1.0

    def test_canonical_router_optimal_on_1s_factors(self, gamma6):
        """Proposition 3.1 in routing form: canonical bit-fix paths stay
        inside Q_d(1^s) and are therefore optimal."""
        stats = route_stats(gamma6, CanonicalRouter())
        assert stats.delivery_rate == 1.0
        assert stats.optimality_rate == 1.0

    def test_canonical_router_on_111(self):
        topo = topology_of(("111", 6))
        stats = route_stats(topo, CanonicalRouter())
        assert stats.delivery_rate == 1.0
        assert stats.optimality_rate == 1.0

    def test_greedy_router_on_isometric_cube(self, gamma6):
        stats = route_stats(gamma6, GreedyRouter())
        assert stats.delivery_rate == 1.0
        # greedy always reduces Hamming distance by 1 per hop when it
        # delivers, so delivered paths are optimal
        assert stats.optimality_rate == 1.0

    def test_greedy_can_fail_on_non_isometric_cube(self):
        """On Q_4(101) (not isometric) some pairs defeat pure greedy --
        the reason embeddability matters for local routing."""
        topo = topology_of(("101", 4))
        stats = route_stats(topo, GreedyRouter())
        assert stats.delivery_rate < 1.0

    def test_bfs_router_full_delivery_on_non_isometric(self):
        topo = topology_of(("101", 4))
        stats = route_stats(topo, BfsRouter())
        assert stats.delivery_rate == 1.0
        # but some routes are longer than Hamming distance
        assert stats.stretch >= 1.0

    def test_route_specific_pair(self):
        topo = topology_of(("11", 5))
        src = topo.graph.index_of("10000")
        dst = topo.graph.index_of("00001")
        path = CanonicalRouter().route(topo, src, dst)
        assert path is not None
        assert path[0] == src and path[-1] == dst
        assert len(path) == 3  # Hamming distance 2

    def test_route_stats_subset_pairs(self):
        topo = topology_of(("11", 5))
        stats = route_stats(topo, BfsRouter(), pairs=[(0, 1), (1, 0)])
        assert stats.pairs == 2

    def test_route_stats_rejects_a_broken_path(self, gamma6):
        class Stuck:
            name = "stuck"

            def route(self, topo, s, t):
                return [s]

        with pytest.raises(AssertionError, match="returned a broken path"):
            route_stats(gamma6, Stuck(), pairs=[(0, 0), (0, 1)])

    def test_route_stats_rejects_a_non_edge(self, gamma6):
        class Jumper:
            name = "jumper"

            def route(self, topo, s, t):
                return [s, t]

        near = gamma6.graph.neighbors(0)[0]
        far = int(np.argmax(bfs_distances(gamma6.graph, 0)))
        with pytest.raises(AssertionError, match="used a non-edge"):
            route_stats(gamma6, Jumper(), pairs=[(0, near), (0, far)])

    def test_canonical_needs_word_topology(self):
        g = cycle_graph(4)
        g.set_labels([0, 1, 2, 3])
        topo = Topology("ring", g)
        with pytest.raises(ValueError):
            CanonicalRouter().route(topo, 0, 2)
