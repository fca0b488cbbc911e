"""Analytic layer: closed-form structure of the cube address languages.

Hsu's generalized Fibonacci cubes are *defined* by forbidden-factor
address languages, so their node/link/bisection structure is computable
exactly from finite automata -- no simulation, no enumeration, any
dimension.  This package turns that observation into a predict-then-
verify harness:

- :mod:`repro.analytic.fsm` -- avoidance FSMs with a full language
  algebra (union / intersection / complement / minimization);
- :mod:`repro.analytic.enumeration` -- the one counting machine: a
  marked product of an FSM that follows every word of a partial
  subcube gives exact node, edge and square counts at arbitrary ``d``
  (the counters of :mod:`repro.words.counting` wrap it), with
  linear-recurrence extraction (``smart_enumeration``);
- :mod:`repro.analytic.bounds` -- direction-cut profiles, an analytic
  bisection-width estimate and the uniform-traffic saturation bound
  (the classical ``2B/N`` channel-load model);
- :mod:`repro.analytic.crosscheck` -- the driver comparing analytic
  bounds against the insight engine's simulated saturation knees
  (imported directly, not re-exported here: it pulls in the network
  layer, which the model modules deliberately do not).
"""

from repro.analytic.bounds import (
    DirectionCut,
    analytic_saturation_bound,
    analytic_summary,
    bisection_estimate,
    cube_model,
    cut_profile,
    parse_cube_name,
    saturation_bound,
)
from repro.analytic.enumeration import (
    CountingSystem,
    berlekamp_massey,
    edge_system,
    square_system,
    vertex_system,
)
from repro.analytic.fsm import FSM

__all__ = [
    "CountingSystem",
    "DirectionCut",
    "FSM",
    "analytic_saturation_bound",
    "analytic_summary",
    "berlekamp_massey",
    "bisection_estimate",
    "cube_model",
    "cut_profile",
    "edge_system",
    "parse_cube_name",
    "saturation_bound",
    "square_system",
    "vertex_system",
]
