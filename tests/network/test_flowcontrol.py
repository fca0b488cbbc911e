"""Flow control: wormhole/VCT semantics, backpressure, deadlock detection.

The headline scenario (the acceptance demo): on ``Q_5(1010)`` -- a
non-isometric cube where shortest paths must fix dimensions out of
order -- BFS-routed wormhole switching with one virtual channel drives
the network into a *real* deadlock, detected and reported, while strict
dimension-order (e-cube) routing delivers 100% of the very same traffic;
both verdicts match the static Dally--Seitz analysis of
:mod:`repro.network.deadlock`.
"""

import numpy as np
import pytest

from repro.cubes.hypercube import hypercube
from repro.graphs.core import Graph
from repro.network.deadlock import is_deadlock_free
from repro.network.faults import FaultPlan
from repro.network.flowcontrol import FlowControl, link_dimension, vc_of_hop
from repro.network.kernel import _ext_channels
from repro.network.routing import BfsRouter, DimensionOrderRouter, route_table
from repro.network.simulator import ReferenceSimulator, VectorizedSimulator, _prepare
from repro.network.sweep import parse_topology
from repro.network.topology import Topology, topology_of
from repro.network.traffic import make_traffic


@pytest.fixture(scope="module")
def gamma6():
    return topology_of(("11", 6))


@pytest.fixture(scope="module")
def q4():
    return topology_of(hypercube(4), name="Q4")


@pytest.fixture(scope="module")
def q5_1010():
    return topology_of(("1010", 5))


def both_engines(topo, router=None):
    return ReferenceSimulator(topo, router), VectorizedSimulator(topo, router)


class TestFlowControlConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown switching mode"):
            FlowControl(switching="teleport")

    def test_bad_depth_and_vcs_rejected(self):
        with pytest.raises(ValueError, match="buffer_depth"):
            FlowControl(switching="wormhole", buffer_depth=0)
        with pytest.raises(ValueError, match="num_vcs"):
            FlowControl(switching="wormhole", num_vcs=0)

    def test_labels(self):
        assert FlowControl().label() == ""
        assert (
            FlowControl("wormhole", buffer_depth=2, num_vcs=3).label()
            == "wormhole:v3:b2"
        )

    def test_engines_reject_unknown_mode_string(self, gamma6):
        for sim in both_engines(gamma6):
            with pytest.raises(ValueError, match="unknown switching mode"):
                sim.run([(0, 0, 1)], switching="cut")


class TestVcAssignment:
    def test_dimension_ordered_on_words(self, q4):
        g = q4.graph
        for u, v in g.edges():
            dim = link_dimension(q4, u, v)
            wu, wv = q4.node_word(u), q4.node_word(v)
            assert wu[dim] != wv[dim]
            assert wu[:dim] == wv[:dim]
            assert vc_of_hop(q4, u, v, hop=7, num_vcs=3) == dim % 3

    def test_hop_index_fallback_off_words(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        ring = Topology("C4", g)  # no word_length: positional VCs
        assert link_dimension(ring, 0, 1) is None
        assert vc_of_hop(ring, 0, 1, hop=5, num_vcs=2) == 1

    def test_single_vc_short_circuits(self, q4):
        assert vc_of_hop(q4, 0, 1, hop=3, num_vcs=1) == 0

    @pytest.mark.parametrize("num_vcs", [2, 3])
    @pytest.mark.parametrize("spec", ["Q:6", "11:6", "101:6", "1010:5"])
    def test_kernel_channels_match_vc_of_hop(self, spec, num_vcs):
        """The kernel's array-built channel of every hop of every route
        (link dimensions cached per topology) is the link's id times V
        plus vc_of_hop."""
        assert_channels_match_vc_of_hop(parse_topology(spec), num_vcs)

    @pytest.mark.parametrize("labels", [[f"n{i}" for i in range(6)], list("012345")])
    def test_kernel_channels_match_vc_of_hop_off_binary_words(self, labels):
        """Labels of one length that are not all binary words: a link with
        an end that is not a binary word takes the hop index, in the
        kernel as in vc_of_hop."""
        g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        g.set_labels(labels)
        # topology_of gives such labels no word length: claim one here
        ring = Topology("ring", g, word_length=len(labels[0]))
        assert_channels_match_vc_of_hop(ring, 2)


def assert_channels_match_vc_of_hop(topo, num_vcs):
    """Every hop's channel, from the link ids the route preparation hands
    the kernel, is its link's CSR slot times V plus vc_of_hop."""
    n = topo.num_nodes
    pairs = np.asarray([(0, s, t) for s in range(n) for t in range(n) if s != t])
    [prep] = _prepare(topo, BfsRouter(), [pairs], None, route_table)
    ext = _ext_channels(topo, prep.links, prep.link_offsets, num_vcs)
    indptr = topo.graph.csr()[0]
    table, link_offsets = prep.table, prep.link_offsets
    data, offsets = table.route_data.tolist(), table.route_offsets
    for r in range(len(offsets) - 1):
        route = data[offsets[r]:offsets[r + 1]]
        for h, (u, v) in enumerate(zip(route, route[1:])):
            j = link_offsets[r] + h
            link = indptr[u] + topo.graph.neighbors(u).index(v)
            assert ext[j] == link * num_vcs + vc_of_hop(topo, u, v, h, num_vcs)


class TestStoreAndForwardContract:
    """``switching="sf"`` must be the legacy engine, bit for bit."""

    def test_sf_is_bit_identical_to_default(self, gamma6):
        traffic = make_traffic("hotspot", gamma6, 150, 8, seed=3)
        for sim in both_engines(gamma6):
            assert sim.run(traffic) == sim.run(traffic, switching="sf")
            assert sim.run(traffic) == sim.run(
                traffic, switching=FlowControl("sf")
            )

    def test_sf_rejects_multiflit_packets(self, gamma6):
        traffic = make_traffic("uniform", gamma6, 10, 4, seed=0)
        for sim in both_engines(gamma6):
            with pytest.raises(ValueError, match="single-flit"):
                sim.run(traffic, flits=3)

    def test_flits_sequence_length_checked(self, gamma6):
        traffic = make_traffic("uniform", gamma6, 10, 4, seed=0)
        for sim in both_engines(gamma6):
            with pytest.raises(ValueError, match="entries"):
                sim.run(traffic, switching="wormhole", flits=[2] * 9)
            with pytest.raises(ValueError, match="at least 1 flit"):
                sim.run(traffic, switching="wormhole", flits=[0] * 10)


class TestWormholeSemantics:
    def test_uncontended_latency_is_hops_plus_flits(self, gamma6):
        """One cycle to enter the injection buffer, then the head moves a
        hop per cycle and the tail trails ``F - 1`` flits behind."""
        from repro.graphs.traversal import bfs_distances

        dist = bfs_distances(gamma6.graph, 0)
        far = int(dist.argmax())
        k = int(dist[far])
        for flits in (1, 3, 6):
            for sim in both_engines(gamma6):
                res = sim.run(
                    [(0, 0, far)],
                    switching=FlowControl("wormhole", buffer_depth=8),
                    flits=flits,
                )
                assert res.latencies == (k + flits,), (flits, type(sim))

    def test_shallow_buffers_stall_the_pipeline(self, gamma6):
        """buffer_depth=1 forces a bubble between consecutive flits
        (credit turnaround), so the same packet takes longer than with
        deep buffers."""
        traffic = [(0, 0, gamma6.num_nodes - 1)]
        deep = VectorizedSimulator(gamma6).run(
            traffic, switching=FlowControl("wormhole", buffer_depth=8), flits=5
        )
        shallow = VectorizedSimulator(gamma6).run(
            traffic, switching=FlowControl("wormhole", buffer_depth=1), flits=5
        )
        assert shallow.max_latency > deep.max_latency
        assert shallow.delivered == deep.delivered == 1

    def test_max_queue_bounded_by_buffer_depth(self, gamma6):
        traffic = make_traffic("hotspot", gamma6, 200, 4, seed=1)
        for depth in (1, 2, 4):
            res = VectorizedSimulator(gamma6).run(
                traffic,
                switching=FlowControl("wormhole", buffer_depth=depth),
                flits=3,
            )
            assert 0 < res.max_queue <= depth

    def test_accounting_identity(self, gamma6):
        """delivered + dropped + stalled == injected, in every mode."""
        traffic = make_traffic("bursty", gamma6, 150, 10, seed=2)
        plan = FaultPlan.parse("n3@5,l0-1@2", num_nodes=gamma6.num_nodes)
        for flow in (
            FlowControl("wormhole", buffer_depth=2, num_vcs=2),
            FlowControl("vct", buffer_depth=8),
        ):
            for sim in both_engines(gamma6):
                res = sim.run(traffic, faults=plan, switching=flow, flits=4)
                assert res.delivered + res.dropped + res.stalled == res.injected

    def test_completed_runs_have_no_stall_flags(self, gamma6):
        traffic = make_traffic("uniform", gamma6, 100, 16, seed=5)
        res = VectorizedSimulator(gamma6).run(
            traffic, switching=FlowControl("wormhole", buffer_depth=4), flits=2
        )
        assert res.delivery_rate == 1.0
        assert res.stalled == 0
        assert not res.deadlocked

    def test_truncated_run_reports_stalled_not_deadlocked(self, gamma6):
        traffic = make_traffic("hotspot", gamma6, 200, 2, seed=3)
        for sim in both_engines(gamma6):
            res = sim.run(
                traffic, max_cycles=5,
                switching=FlowControl("wormhole", buffer_depth=2), flits=4,
            )
            assert res.cycles == 5
            assert res.stalled > 0
            assert not res.deadlocked


class TestVirtualCutThrough:
    def test_vct_needs_buffers_that_fit_packets(self, gamma6):
        traffic = make_traffic("uniform", gamma6, 20, 4, seed=0)
        for sim in both_engines(gamma6):
            with pytest.raises(ValueError, match="fit whole packets"):
                sim.run(
                    traffic,
                    switching=FlowControl("vct", buffer_depth=2),
                    flits=4,
                )

    def test_wormhole_accepts_what_vct_rejects(self, gamma6):
        traffic = make_traffic("uniform", gamma6, 20, 4, seed=0)
        res = VectorizedSimulator(gamma6).run(
            traffic, switching=FlowControl("wormhole", buffer_depth=2), flits=4
        )
        assert res.delivered == res.injected

    def test_vct_equals_wormhole_with_whole_packet_buffers(self, gamma6):
        """With atomic VC allocation the two disciplines coincide once
        buffers hold whole packets -- the difference is exactly the
        configurations wormhole admits and VCT forbids."""
        traffic = make_traffic("hotspot", gamma6, 150, 6, seed=7)
        worm = VectorizedSimulator(gamma6).run(
            traffic, switching=FlowControl("wormhole", buffer_depth=6), flits=5
        )
        vct = VectorizedSimulator(gamma6).run(
            traffic, switching=FlowControl("vct", buffer_depth=6), flits=5
        )
        assert worm == vct


class TestDeadlock:
    """The acceptance scenario, cross-checked against Dally--Seitz."""

    @pytest.fixture(scope="class")
    def scenario(self, q5_1010):
        """Heavy single-burst traffic over every pair both routers can
        serve on the non-isometric cube Q_5(1010)."""
        n = q5_1010.num_nodes
        ec = DimensionOrderRouter()
        pairs = [
            (s, t)
            for s in range(n)
            for t in range(n)
            if s != t and ec.route(q5_1010, s, t) is not None
        ]
        return [(0, s, t) for s, t in pairs]

    def test_static_analysis_predicts_the_split(self, q5_1010, scenario):
        pairs = [(s, t) for _, s, t in scenario]
        assert not is_deadlock_free(q5_1010, BfsRouter(), pairs)
        assert is_deadlock_free(q5_1010, DimensionOrderRouter(), pairs)

    def test_bfs_wormhole_deadlocks_and_is_reported(self, q5_1010, scenario):
        flow = FlowControl("wormhole", buffer_depth=1, num_vcs=1)
        ref, vec = both_engines(q5_1010, BfsRouter())
        res = vec.run(scenario, switching=flow, flits=4)
        assert res.deadlocked
        assert res.stalled > 0
        assert res.delivered + res.stalled == res.injected
        # reported, not hung: the run ends long before the cycle cap
        assert res.cycles < 100000
        assert ref.run(scenario, switching=flow, flits=4) == res

    def test_ecube_delivers_everything_on_the_same_scenario(
        self, q5_1010, scenario
    ):
        flow = FlowControl("wormhole", buffer_depth=1, num_vcs=1)
        res = VectorizedSimulator(q5_1010, DimensionOrderRouter()).run(
            scenario, switching=flow, flits=4
        )
        assert res.delivery_rate == 1.0
        assert not res.deadlocked
        assert res.stalled == 0

    def test_infinite_fifos_cannot_deadlock(self, q5_1010, scenario):
        """The same traffic under store-and-forward drains completely:
        the deadlock is a *finite-buffer* phenomenon."""
        res = VectorizedSimulator(q5_1010, BfsRouter()).run(scenario)
        assert res.delivery_rate == 1.0
        assert not res.deadlocked

    def test_deadlock_free_router_never_deadlocks_under_load(self, q4):
        """Acyclic CDG (static) implies no dynamic deadlock -- pushed
        through a saturating burst on every pair of the hypercube."""
        assert is_deadlock_free(q4, DimensionOrderRouter())
        n = q4.num_nodes
        traffic = [(0, s, t) for s in range(n) for t in range(n) if s != t]
        res = VectorizedSimulator(q4, DimensionOrderRouter()).run(
            traffic,
            switching=FlowControl("wormhole", buffer_depth=1, num_vcs=2),
            flits=3,
        )
        assert res.delivery_rate == 1.0
        assert not res.deadlocked


class TestFaultInterplay:
    def test_dying_link_drops_whole_packets(self, gamma6):
        """A link death removes every flit of the packets holding its
        buffers: the packet count, not a flit count, lands in dropped."""
        u, v = next(iter(gamma6.graph.edges()))
        plan = FaultPlan(link_faults=((3, u, v),))
        traffic = make_traffic("uniform", gamma6, 200, 6, seed=4)
        flow = FlowControl("wormhole", buffer_depth=2, num_vcs=2)
        ref, vec = both_engines(gamma6)
        a = ref.run(traffic, faults=plan, switching=flow, flits=5)
        b = vec.run(traffic, faults=plan, switching=flow, flits=5)
        assert a == b
        assert a.dropped > 0
        assert a.delivered + a.dropped + a.stalled == a.injected

    def test_fault_epoch_reroutes_apply_to_flow_modes(self, gamma6):
        """Packets injected after a node death are routed around it in
        wormhole mode exactly as in sf mode."""
        plan = FaultPlan(node_faults=((4, 2),))
        traffic = make_traffic("uniform", gamma6, 150, 20, seed=9)
        flow = FlowControl("wormhole", buffer_depth=4)
        ref, vec = both_engines(gamma6, BfsRouter())
        a = ref.run(traffic, faults=plan, switching=flow, flits=2)
        b = vec.run(traffic, faults=plan, switching=flow, flits=2)
        assert a == b
        assert a.delivered > 0
