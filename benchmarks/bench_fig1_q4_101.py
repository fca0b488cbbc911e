"""F1 -- Figure 1 (Section 2): the generalized Fibonacci cube Q_4(101).

The figure depicts Q_4(101).  We regenerate the graph and check the
depicted structure: 12 vertices (16 minus the four words containing 101),
18 edges, the degree profile, and -- per Proposition 3.2 -- that this graph
is *not* isometric in Q_4 while Q_3(101) still is.
"""

from repro.cubes.generalized import generalized_fibonacci_cube
from repro.graphs.traversal import diameter
from repro.isometry import is_isometric, isometry_report

from conftest import print_table


def build_fig1():
    cube = generalized_fibonacci_cube("101", 4)
    return cube, cube.graph()


def test_bench_fig1_structure(benchmark):
    cube, graph = benchmark(build_fig1)
    assert cube.num_vertices == 12
    assert cube.num_edges == 18
    removed = {"0101", "1010", "1011", "1101"}
    assert all(w not in cube for w in removed)
    assert diameter(graph) == 4
    print_table(
        "Figure 1: Q_4(101)",
        ["quantity", "value"],
        [
            ("vertices", cube.num_vertices),
            ("edges", cube.num_edges),
            ("removed words", ", ".join(sorted(removed))),
            ("diameter", diameter(graph)),
            ("degree sequence", cube.degree_sequence()),
        ],
    )


def test_bench_fig1_isometry_threshold(benchmark):
    """Lemma 2.1 gives isometry up to d = 3; Prop 3.2 kills d >= 4."""

    def verdicts():
        return [(d, is_isometric(("101", d))) for d in range(1, 7)]

    rows = benchmark(verdicts)
    assert rows == [(1, True), (2, True), (3, True), (4, False), (5, False), (6, False)]


def test_bench_fig1_witness(benchmark):
    report = benchmark(isometry_report, ("101", 4))
    assert not report.isometric
    assert report.first_bad_level == 2
