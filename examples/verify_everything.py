#!/usr/bin/env python3
"""One-shot reproduction driver: re-verify every paper artefact in order.

Runs the complete experiment index of DESIGN.md (T1, F1, F2, E1-E12, plus
the X1 extension findings) in a single pass and prints a PASS/FAIL line
per artefact.  This is the "did the reproduction really reproduce?"
script -- a condensed, assertion-checked version of what the benchmark
suite measures.

Run:  python examples/verify_everything.py
"""

import sys
import time

from repro.classify import classification_table, table1_expected
from repro.combinat.identities import gamma_square_count
from repro.conjectures import q101_ladder_certificate, q101_not_partial_cube, sweep_conjecture_81
from repro.cubes.generalized import generalized_fibonacci_cube
from repro.cubes.multifactor import multi_factor_cube
from repro.dimension.fdim import f_dimension, isometric_dimension
from repro.graphs.core import Graph
from repro.invariants.counts import (
    brute_counts,
    edges_110_closed,
    recurrences_110,
    recurrences_111,
    squares_110_closed,
    vertices_110_closed,
)
from repro.invariants.medianclosed import is_median_closed, median_certificate_triple
from repro.invariants.structure import structure_report
from repro.isometry import is_isometric
from repro.isometry.critical import paper_critical_pair


def check(label: str, fn) -> bool:
    start = time.perf_counter()
    try:
        fn()
        elapsed = time.perf_counter() - start
        print(f"  PASS  {label}  ({elapsed:.2f}s)")
        return True
    except AssertionError as exc:
        print(f"  FAIL  {label}: {exc}")
        return False


def t1_table1():
    rows = classification_table(max_length=5, max_d=9)
    got = {r.f: r.threshold for r in rows}
    assert got == table1_expected(), "Table 1 mismatch"


def f1_figure1():
    cube = generalized_fibonacci_cube("101", 4)
    assert (cube.num_vertices, cube.num_edges) == (12, 18)
    assert not is_isometric(cube)


def f2_figure2():
    g5, h4 = brute_counts("11", 5), brute_counts("110", 4)
    assert g5.vertices == h4.vertices + 1
    assert g5.edges == h4.edges + 1
    assert g5.squares == h4.squares


def e1_e2_recurrences():
    r111, r110 = recurrences_111(9), recurrences_110(9)
    for d in range(10):
        assert brute_counts("111", d) == r111[d], ("111", d)
        assert brute_counts("110", d) == r110[d], ("110", d)


def e3_e4_closed_forms():
    for d in range(10):
        c = brute_counts("110", d)
        assert vertices_110_closed(d) == c.vertices
        assert edges_110_closed(d) == c.edges
        assert squares_110_closed(d) == c.squares
        assert gamma_square_count(d + 1) == c.squares


def e5_structure():
    for f, d in [("11", 7), ("110", 7), ("1010", 7), ("11010", 7)]:
        assert structure_report((f, d)).satisfies_prop_6_1(), (f, d)


def e6_median():
    assert is_median_closed("11", 5) and is_median_closed("10", 5)
    assert not is_median_closed("110", 5)
    median_certificate_triple("110", 5)  # raises if the proof shape fails


def e7_computer_checks():
    for f, d, want in [("1100", 6, True), ("10110", 6, True),
                       ("10101", 6, True), ("10101", 7, True),
                       ("1100", 7, False), ("10101", 8, False)]:
        assert is_isometric((f, d)) == want, (f, d)


def e8_crossovers():
    for s in (2, 3, 4):
        f = "11" + "0" * s
        for d in range(2, s + 7):
            assert is_isometric((f, d)) == (d <= s + 4), (f, d)


def e9_critical_words():
    for f, d in [("101", 4), ("1100", 7), ("10110", 7), ("10101", 8)]:
        assert paper_critical_pair(f, d) is not None, (f, d)


def e10_dimension():
    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    d0 = isometric_dimension(c6)
    assert d0 == 3
    assert d0 <= f_dimension(c6, "11") <= 3 * d0 - 2


def e11_ladder():
    for d in (4, 5):
        q101_ladder_certificate(d)
        assert q101_not_partial_cube(d)


def e12_conjecture():
    cases = sweep_conjecture_81(3, 8)
    assert cases and not any(c.violates for c in cases)


def x1_extensions():
    assert is_isometric(multi_factor_cube(("111", "000"), 3))
    assert not is_isometric(multi_factor_cube(("111", "000"), 4))


def main() -> int:
    artefacts = [
        ("T1  Table 1 (22 orbits, incl. computer checks)", t1_table1),
        ("F1  Figure 1: Q_4(101)", f1_figure1),
        ("F2  Figure 2: Q_5(11) vs Q_4(110)", f2_figure2),
        ("E1/E2  recurrences (1)-(6)", e1_e2_recurrences),
        ("E3/E4  Props 6.2, 6.3 closed forms", e3_e4_closed_forms),
        ("E5  Prop 6.1 degree/diameter", e5_structure),
        ("E6  Prop 6.4 median closure", e6_median),
        ("E7  Section 5 computer checks", e7_computer_checks),
        ("E8  Theorem 3.3 crossovers", e8_crossovers),
        ("E9  Lemma 2.4 critical words", e9_critical_words),
        ("E10 Prop 7.1 dimension bounds", e10_dimension),
        ("E11 Q_d(101) Theta* ladder", e11_ladder),
        ("E12 Conjecture 8.1 sweep", e12_conjecture),
        ("X1  extension findings", x1_extensions),
    ]
    print("Reproduction verification: Generalized Fibonacci cubes")
    print("=" * 60)
    results = [check(label, fn) for label, fn in artefacts]
    print("=" * 60)
    print(f"{sum(results)}/{len(results)} artefacts verified")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
