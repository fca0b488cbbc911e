"""X1 -- extension experiments beyond the paper's printed artefacts.

Three studies the paper's definitions invite but do not carry out:

1. **Multi-factor cubes** ``Q_d(F)``: single-factor admissibility does not
   compose -- ``Q_d(111)`` and ``Q_d(000)`` are isometric for every ``d``
   (Prop 3.1 + Lemma 2.2), yet ``Q_d({111, 000})`` stops being isometric
   at ``d = 4``.
2. **Cube polynomial**: the Section 6 counts are coefficients 0..2 of
   ``C(Q_d(f), x)``; we compute the whole polynomial and validate the
   Fibonacci-cube closed recurrence.
3. **Even-cycle spectrum** (reference [22]): ``Q_d(1^s)`` has cycles of
   every even length.
"""

import pytest

from repro.cubes.generalized import generalized_fibonacci_cube
from repro.cubes.multifactor import multi_factor_cube
from repro.invariants.counts import brute_counts
from repro.invariants.cubepoly import cube_coefficients, gamma_cube_coefficient
from repro.isometry import is_isometric
from repro.network.cycles import has_even_cycles_everywhere

from conftest import print_table


def test_bench_x1_multifactor_isometry(benchmark):
    def sweep():
        rows = []
        for d in range(2, 8):
            cube = multi_factor_cube(("111", "000"), d)
            rows.append((d, cube.num_vertices, is_isometric(cube)))
        return rows

    rows = benchmark(sweep)
    verdicts = {d: iso for d, _, iso in rows}
    assert verdicts[2] and verdicts[3]
    assert not any(verdicts[d] for d in range(4, 8))
    print_table(
        "Q_d({111,000}): joint isometry breaks at d = 4 "
        "(each factor alone is admissible for every d)",
        ["d", "|V|", "isometric"],
        rows,
    )


def test_bench_x1_cube_polynomial(benchmark):
    def compute():
        return {d: cube_coefficients(("11", d)) for d in range(0, 9)}

    polys = benchmark(compute)
    rows = []
    for d, co in polys.items():
        bc = brute_counts("11", d)
        assert co[0] == bc.vertices
        assert (co[1] if len(co) > 1 else 0) == bc.edges
        assert (co[2] if len(co) > 2 else 0) == bc.squares
        for k in range(len(co)):
            assert co[k] == gamma_cube_coefficient(d, k), (d, k)
        rows.append((d, [c for c in co if c] or [co[0]]))
    print_table(
        "Cube polynomial of Gamma_d (coefficients c_0, c_1, ...)",
        ["d", "nonzero coefficients"],
        rows,
    )


@pytest.mark.parametrize("s,d", [(2, 5), (2, 6), (3, 5)])
def test_bench_x1_even_cycle_spectrum(benchmark, s, d):
    g = generalized_fibonacci_cube("1" * s, d).graph()
    assert benchmark(has_even_cycles_everywhere, g)


def test_bench_x1_frontier_length6(benchmark):
    """Table 1 extended to |f| = 6: 20 orbits, classified exactly."""
    from repro.classify.frontier import classify_frontier, frontier_statistics

    rows = benchmark(classify_frontier, 6, 8)
    stats = frontier_statistics(rows)
    assert stats["orbits"] == 20
    assert stats["needed_computer"] >= 1
    print_table(
        "Length-6 frontier (beyond the paper's Table 1)",
        ["f", "pattern", "computer cells", "sources"],
        [
            (
                r.f,
                "always (<= 8)" if r.threshold is None else f"iff d <= {r.threshold}",
                ",".join(map(str, r.computer_cells)) or "-",
                "; ".join(s for s in r.sources if s != "Lemma 2.1"),
            )
            for r in rows
        ],
    )


def test_bench_x1_deadlock_freedom(benchmark):
    """Dimension-ordered routing is deadlock-free exactly on the 1^s family.

    On Q_d(1^s) the canonical route never needs its skip fallback
    (Prop 3.1's proof), so dimension order is preserved and the CDG is
    acyclic.  On Q_5(1010) -- isometric too (Thm 4.4)! -- the fallback
    reorders dimensions and a channel-dependency cycle appears: isometry
    alone does not buy deadlock freedom.
    """
    from repro.network.deadlock import is_deadlock_free
    from repro.network.routing import CanonicalRouter
    from repro.network.topology import topology_of

    def sweep():
        return [
            (f"Q_{d}({f})", is_deadlock_free(topology_of((f, d)), CanonicalRouter()))
            for f, d in [("11", 5), ("11", 6), ("111", 5), ("1010", 5)]
        ]

    rows = benchmark(sweep)
    verdicts = dict(rows)
    assert verdicts["Q_5(11)"] and verdicts["Q_6(11)"] and verdicts["Q_5(111)"]
    assert not verdicts["Q_5(1010)"]
    print_table(
        "Dally-Seitz check of canonical routing "
        "(deadlock-free iff no skip fallback needed)",
        ["topology", "deadlock-free"],
        rows,
    )


def test_bench_x1_lattice_dimension(benchmark):
    """Eppstein lattice dimension (the paper's reference [6]) on Gamma_d."""
    from repro.cubes.fibonacci import fibonacci_cube
    from repro.dimension.lattice import lattice_dimension
    from repro.isometry.theta import idim

    def sweep():
        out = []
        for d in range(2, 6):
            g = fibonacci_cube(d).graph()
            out.append((d, idim(g), lattice_dimension(g)))
        return out

    rows = benchmark(sweep)
    for d, i, label in rows:
        assert i == d and label <= i
    print_table("Gamma_d: isometric vs lattice dimension", ["d", "idim", "ldim"], rows)
