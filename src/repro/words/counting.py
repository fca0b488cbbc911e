"""Exact counting of vertices, edges and squares of :math:`Q_d(f)`.

Vertices, edges and squares are the subcubes of dimension 0, 1 and 2,
and all three counters are one-line wrappers over the marked-product
systems of :mod:`repro.analytic.enumeration`: the avoidance FSM of ``f``
is multiplied out to follow every word of a partial subcube, and the
system's weight vector is stepped ``d`` times.  The cost is
:math:`O(d \\cdot \\text{transitions})` exact big-integer additions with
live memory independent of ``d`` (a system has at most 8, 44 and 136
states for ``|f| <= 8``), so the counts stay exact for ``d`` in the
thousands where enumeration is hopeless.  They power the large-``d``
series of experiments E1--E4 and validate the recurrences (1)--(6) of
Section 6 far beyond the enumerable range.

A square is counted in the normal form ``{w, w+e_i, w+e_j, w+e_i+e_j}``
with ``i < j`` and ``w_i = w_j = 0``, an edge as ``{w, w+e_i}`` with
``w_i = 0``; each subcube is picked exactly once.
"""

from __future__ import annotations

from repro.analytic.enumeration import edge_system, square_system, vertex_system
from repro.analytic.fsm import FSM
from repro.words.automaton import FactorAutomaton

__all__ = [
    "count_vertices_automaton",
    "count_edges_automaton",
    "count_squares_automaton",
]


def _avoidance_fsm(f: str, d: int) -> FSM:
    auto = FactorAutomaton(f)
    if d < 0:
        raise ValueError(f"length must be non-negative, got {d}")
    return auto.fsm()


def count_vertices_automaton(f: str, d: int) -> int:
    """``|V(Q_d(f))|``: number of length-``d`` words avoiding ``f``."""
    return vertex_system(_avoidance_fsm(f, d)).term(d)


def count_edges_automaton(f: str, d: int) -> int:
    """``|E(Q_d(f))|``: edges of the generalized Fibonacci cube."""
    return edge_system(_avoidance_fsm(f, d)).term(d)


def count_squares_automaton(f: str, d: int) -> int:
    """``|S(Q_d(f))|``: number of 4-cycles (squares) of :math:`Q_d(f)`."""
    return square_system(_avoidance_fsm(f, d)).term(d)
