"""The paper's theorems predict the word routers.

Greedy Hamming descent only moves strictly closer in Hamming distance,
so every path it delivers has Hamming length: it delivers every pair of
``Q_d(f)`` exactly when ``Q_d(f)`` is isometric in ``Q_d`` -- the question
the classification answers.  On ``Q_d(1^s)`` the canonical path never
leaves the vertex set (Proposition 3.1), so canonical and strict e-cube
routing deliver every pair there, optimally.  And e-cube's channel
dependency graph is acyclic on every cube (Dally--Seitz).  So each router
is checked against a theorem of the paper, not only against another
engine.
"""

from functools import lru_cache

from repro.classify.engine import classify
from repro.classify.verdict import Status
from repro.network.deadlock import is_deadlock_free
from repro.network.routing import (
    CanonicalRouter,
    DimensionOrderRouter,
    GreedyRouter,
    route_stats,
)
from repro.network.topology import topology_of
from repro.words.core import all_words


@lru_cache(maxsize=None)
def decided_cubes():
    """``(f, d, isometric, topology)`` for every decided ``classify(f, d)``
    verdict on a connected cube of at least 2 vertices, |f| <= 4, d <= 7."""
    cubes = []
    for length in range(1, 5):
        for f in all_words(length):
            for d in range(1, 8):
                verdict = classify(f, d)
                if verdict.status is Status.UNKNOWN:
                    continue
                try:
                    topo = topology_of((f, d))
                except ValueError:  # disconnected
                    continue
                if topo.num_nodes >= 2:
                    cubes.append((f, d, verdict.status is Status.ISOMETRIC, topo))
    return tuple(cubes)


class TestTheoremsPredictTheRouters:
    def test_the_grid(self):
        assert len(decided_cubes()) == 196

    def test_greedy_delivers_everything_iff_isometric(self):
        for f, d, isometric, topo in decided_cubes():
            stats = route_stats(topo, GreedyRouter())
            assert (stats.delivered == stats.pairs) == isometric, (f, d)
            assert stats.optimal == stats.delivered or not isometric, (f, d)

    def test_proposition_3_1_canonical_paths_stay_inside(self):
        for s in (2, 3, 4):
            for d in range(2, 9):
                topo = topology_of(("1" * s, d))
                for router in (CanonicalRouter(), DimensionOrderRouter()):
                    stats = route_stats(topo, router)
                    assert stats.delivered == stats.optimal == stats.pairs, (s, d, router.name)

    def test_ecube_is_deadlock_free_on_every_cube(self):
        for f, d, _, topo in decided_cubes():
            assert is_deadlock_free(topo, DimensionOrderRouter()), (f, d)
