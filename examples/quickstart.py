#!/usr/bin/env python3
"""Quickstart: build a generalized Fibonacci cube and interrogate it.

Walks through the paper's core loop on the Fig. 1 graph Q_4(101):
construct the cube, inspect its structure, test isometric embeddability
(three different ways), and see why it fails for d >= 4.

Run:  python examples/quickstart.py
"""

from repro import (
    classify,
    classify_with_bruteforce,
    find_critical_pair,
    generalized_fibonacci_cube,
    is_partial_cube,
    isometry_report,
)


def main() -> None:
    # --- construction -----------------------------------------------------
    cube = generalized_fibonacci_cube("101", 4)
    print(f"Q_4(101): {cube.num_vertices} vertices, {cube.num_edges} edges")
    print("vertices:", " ".join(cube.words()))

    # --- embeddability, three ways ---------------------------------------
    # 1. the theorem engine (Proposition 3.2 applies)
    verdict = classify("101", 4)
    print("\ntheorem engine :", verdict)

    # 2. the actual graph (every pair's distance against its Hamming distance)
    report = isometry_report(cube)
    print(
        f"isometry engine: isometric={report.isometric}, "
        f"first bad level={report.first_bad_level}, witness={report.witness}"
    )

    # 3. a Lemma 2.4 certificate: a 2-critical pair of words
    pair = find_critical_pair(cube)
    print(
        f"critical words : b={pair.b} c={pair.c} at Hamming distance {pair.p}; "
        "no interval neighbour of b stays inside the cube"
    )

    # --- the stronger Section 8 fact --------------------------------------
    # Q_4(101) is isometric in NO hypercube, of any dimension (Winkler).
    print("\npartial cube?  :", is_partial_cube(cube.graph()))

    # --- where the theorems go quiet, compute -----------------------------
    # Table 1's "computer check" cell: Q_6(10110)
    v = classify("10110", 6)
    print("\nQ_6(10110) by theorems    :", v.status.value)
    v = classify_with_bruteforce("10110", 6)
    print("Q_6(10110) by computation :", v.status.value, f"({v.source})")


if __name__ == "__main__":
    main()
