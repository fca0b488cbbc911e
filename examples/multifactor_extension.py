#!/usr/bin/env python3
"""Extension study: cubes avoiding a SET of factors.

The paper forbids one factor; this study forbids several at once (the
Aho-Corasick generalization) and asks the paper's own question of the
richer family: when is Q_d(F) an isometric subgraph of Q_d?

Headline finding (machine-checked here): admissibility does NOT compose.
Q_d(111) and Q_d(000) are each isometric in Q_d for every d, but their
intersection Q_d({111, 000}) stops being isometric at d = 4.

Run:  python examples/multifactor_extension.py
"""

from repro.cubes.multifactor import MultiFactorCube
from repro.graphs.traversal import is_connected
from repro.invariants.cubepoly import cube_coefficients
from repro.isometry import isometric_defect
from repro.words.aho import MultiFactorAutomaton


def composition_failure() -> None:
    print("=" * 68)
    print("Does single-factor admissibility compose under intersection?")
    print("=" * 68)
    print(f"{'d':>3} {'|V|':>6} {'connected':>10} {'isometric':>10}   defect")
    for d in range(2, 9):
        cube = MultiFactorCube(["111", "000"], d)
        defect = isometric_defect(cube)
        print(
            f"{d:>3} {cube.num_vertices:>6} {str(is_connected(cube.graph())):>10} "
            f"{str(defect is None):>10}   {defect if defect else ''}"
        )
    print(
        "\n  -> Q_d(111) and Q_d(000) are isometric for EVERY d "
        "(Prop 3.1 + Lemma 2.2),\n"
        "     but the joint cube loses isometry at d = 4: "
        "admissibility does not compose.\n"
    )


def extreme_intersections() -> None:
    print("=" * 68)
    print("Extreme intersections")
    print("=" * 68)
    # alternating words only
    cube = MultiFactorCube(["11", "00"], 6)
    print(f"  Q_6({{11,00}}): {cube.num_vertices} vertices "
          f"(the two alternating words), connected={is_connected(cube.graph())}")
    # run-length-limited codes: the {1^a+1, 0^b+1} cubes are RLL(0,a)/(0,b)
    auto = MultiFactorAutomaton(["111", "0000"])
    series = [auto.count_vertices(d) for d in range(10)]
    print(f"  RLL-style Q_d({{111,0000}}) orders: {series}")
    print(f"  ... and exactly, at d = 200: {auto.count_vertices(200)}\n")


def polynomial_view() -> None:
    print("=" * 68)
    print("Cube polynomial of the joint cube vs its single-factor parents")
    print("=" * 68)
    d = 7
    for label, spec in [
        ("Q_7(111)", ("111", d)),
        ("Q_7(000)", ("000", d)),
        ("Q_7({111,000})", MultiFactorCube(["111", "000"], d)),
    ]:
        co = cube_coefficients(spec if not isinstance(spec, tuple) else spec)
        print(f"  {label:<16} c = {co}")
    print("\n  (c_0, c_1, c_2 are the paper's |V|, |E|, |S|; higher k extends"
          " Section 6.)\n")


if __name__ == "__main__":
    composition_failure()
    extreme_intersections()
    polynomial_view()
