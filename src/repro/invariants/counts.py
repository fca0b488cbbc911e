"""Vertex, edge and square counts (Section 6, eqs. (1)-(6), Props 6.2, 6.3).

Three independent count sources are implemented so the experiments can
triangulate:

1. **brute force** on the constructed graph (:func:`brute_counts`);
2. the paper's **recurrences**: eqs. (1)-(3) for
   :math:`G_d = Q_d(111)` and (4)-(6) for :math:`H_d = Q_d(110)`
   (:func:`recurrences_111`, :func:`recurrences_110`);
3. **closed forms**: :math:`|V(H_d)| = F_{d+3} - 1`, Proposition 6.2 for
   :math:`|E(H_d)|` (convolution and the /5 form), and Proposition 6.3
   for :math:`|S(H_d)|`.

The counters of :mod:`repro.words.counting` provide a fourth source,
valid for any factor and huge ``d``: the marked-product subcube systems
of :mod:`repro.analytic.enumeration`, one construction for all three
counts, stepped ``d`` times.  Brute force, the recurrences and the
closed forms stay independent of that machine, so they are its oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List

from repro.combinat.identities import fibonacci_convolution
from repro.combinat.sequences import fibonacci
from repro.cubes.generalized import generalized_fibonacci_cube

__all__ = [
    "Counts",
    "brute_counts",
    "recurrences_111",
    "recurrences_110",
    "vertices_110_closed",
    "edges_110_convolution",
    "edges_110_closed",
    "squares_110_closed",
]


@dataclass(frozen=True)
class Counts:
    """Triple of invariants of one cube: order, size, number of squares."""

    vertices: int
    edges: int
    squares: int


def brute_counts(f: str, d: int) -> Counts:
    """Count vertices, edges and squares of :math:`Q_d(f)` from the graph.

    Squares are counted by their normal form: a base code ``w`` with zero
    bits in positions ``i < j`` such that all of ``w + e_i``, ``w + e_j``,
    ``w + e_i + e_j`` are vertices -- each 4-cycle of a hypercube subgraph
    arises exactly once this way.
    """
    cube = generalized_fibonacci_cube(f, d)
    codes = set(int(c) for c in cube.codes)
    squares = 0
    for w in codes:
        for i in range(d):
            bi = 1 << i
            if w & bi or (w | bi) not in codes:
                continue
            for j in range(i + 1, d):
                bj = 1 << j
                if w & bj:
                    continue
                if (w | bj) in codes and (w | bi | bj) in codes:
                    squares += 1
    return Counts(cube.num_vertices, cube.num_edges, squares)


def recurrences_111(up_to: int) -> List[Counts]:
    """Eqs. (1)-(3): coupled recurrences for :math:`G_d = Q_d(111)`.

    .. math::
       |V(G_d)| &= |V(G_{d-1})| + |V(G_{d-2})| + |V(G_{d-3})| \\\\
       |E(G_d)| &= |E(G_{d-1})| + |E(G_{d-2})| + |E(G_{d-3})|
                   + |V(G_{d-2})| + 2 |V(G_{d-3})| \\\\
       |S(G_d)| &= |S(G_{d-1})| + |S(G_{d-2})| + |S(G_{d-3})|
                   + |E(G_{d-2})| + 2 |E(G_{d-3})| + |V(G_{d-3})|

    with starting values ``V: 1, 2, 4``, ``E: 0, 1, 4``, ``S: 0, 0, 1``
    for ``d = 0, 1, 2``.  Returns ``[Counts(d=0), ..., Counts(d=up_to)]``.
    """
    if up_to < 0:
        raise ValueError(f"up_to must be non-negative, got {up_to}")
    V = [1, 2, 4]
    E = [0, 1, 4]
    S = [0, 0, 1]
    for d in range(3, up_to + 1):
        V.append(V[d - 1] + V[d - 2] + V[d - 3])
        E.append(E[d - 1] + E[d - 2] + E[d - 3] + V[d - 2] + 2 * V[d - 3])
        S.append(
            S[d - 1] + S[d - 2] + S[d - 3] + E[d - 2] + 2 * E[d - 3] + V[d - 3]
        )
    return [Counts(V[d], E[d], S[d]) for d in range(up_to + 1)]


def recurrences_110(up_to: int) -> List[Counts]:
    """Eqs. (4)-(6): coupled recurrences for :math:`H_d = Q_d(110)`.

    .. math::
       |V(H_d)| &= |V(H_{d-1})| + |V(H_{d-2})| + 1 \\\\
       |E(H_d)| &= |E(H_{d-1})| + |E(H_{d-2})| + |V(H_{d-2})| + 2 \\\\
       |S(H_d)| &= |S(H_{d-1})| + |S(H_{d-2})| + |E(H_{d-2})| + 1

    with starting values ``V: 1, 2``, ``E: 0, 1``, ``S: 0, 0`` for
    ``d = 0, 1``.
    """
    if up_to < 0:
        raise ValueError(f"up_to must be non-negative, got {up_to}")
    V = [1, 2]
    E = [0, 1]
    S = [0, 0]
    for d in range(2, up_to + 1):
        V.append(V[d - 1] + V[d - 2] + 1)
        E.append(E[d - 1] + E[d - 2] + V[d - 2] + 2)
        S.append(S[d - 1] + S[d - 2] + E[d - 2] + 1)
    return [Counts(V[d], E[d], S[d]) for d in range(up_to + 1)]


def vertices_110_closed(d: int) -> int:
    """:math:`|V(H_d)| = F_{d+3} - 1` (stated after eqs. (4)-(6))."""
    if d < 0:
        raise ValueError(f"d must be non-negative, got {d}")
    return fibonacci(d + 3) - 1


def edges_110_convolution(d: int) -> int:
    """Proposition 6.2: :math:`|E(H_d)| = -1 + \\sum_{i=1}^{d+1} F_i F_{d+2-i}`."""
    if d < 0:
        raise ValueError(f"d must be non-negative, got {d}")
    return -1 + fibonacci_convolution(d)


def edges_110_closed(d: int) -> int:
    """The [12, Corollary 4] form:
    :math:`|E(H_d)| = -1 + ((d+1) F_{d+2} + 2 (d+2) F_{d+1}) / 5`."""
    if d < 0:
        raise ValueError(f"d must be non-negative, got {d}")
    num = (d + 1) * fibonacci(d + 2) + 2 * (d + 2) * fibonacci(d + 1)
    frac = Fraction(num, 5)
    if frac.denominator != 1:
        raise ArithmeticError(f"|E(H_{d})| closed form is non-integral: {frac}")
    return -1 + frac.numerator


def squares_110_closed(d: int) -> int:
    """Proposition 6.3:

    .. math::
       |S(H_d)| = -\\frac{3(d+1)}{25} F_{d+2}
         + \\Big(\\frac{(d+1)^2}{10} + \\frac{3(d+1)}{50}
           - \\frac{1}{25}\\Big) F_{d+1}.
    """
    if d < 0:
        raise ValueError(f"d must be non-negative, got {d}")
    k = d + 1
    coeff_a = Fraction(-3 * k, 25)
    coeff_b = Fraction(k * k, 10) + Fraction(3 * k, 50) - Fraction(1, 25)
    value = coeff_a * fibonacci(d + 2) + coeff_b * fibonacci(d + 1)
    if value.denominator != 1:
        raise ArithmeticError(f"|S(H_{d})| closed form is non-integral: {value}")
    return value.numerator
