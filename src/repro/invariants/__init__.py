"""Section 6: enumerative and structural invariants of generalized
Fibonacci cubes.

- :mod:`repro.invariants.counts` -- vertex/edge/square counters (brute
  force on the graph, recurrences (1)--(6), closed forms of Propositions
  6.2 and 6.3, and the subcube counting systems for huge ``d``);
- :mod:`repro.invariants.structure` -- Proposition 6.1 (maximum degree and
  diameter equal ``d`` for embeddable cubes) plus general degree/diameter
  reports;
- :mod:`repro.invariants.medianclosed` -- Proposition 6.4 (median-closed
  iff ``|f| = 2``) with the explicit certificate triples from its proof.
"""

from repro.invariants.counts import (
    brute_counts,
    edges_110_closed,
    edges_110_convolution,
    recurrences_110,
    recurrences_111,
    squares_110_closed,
    vertices_110_closed,
)
from repro.invariants.structure import StructureReport, structure_report
from repro.invariants.cubepoly import (
    cube_coefficients,
    cube_polynomial_eval,
    gamma_cube_coefficient,
)
from repro.invariants.distances import (
    average_distance,
    distance_distribution,
    hypercube_wiener,
    wiener_by_cuts,
    wiener_index,
)
from repro.invariants.medianclosed import (
    is_median_closed,
    median_certificate_triple,
)

__all__ = [
    "brute_counts",
    "edges_110_closed",
    "edges_110_convolution",
    "recurrences_110",
    "recurrences_111",
    "squares_110_closed",
    "vertices_110_closed",
    "StructureReport",
    "cube_coefficients",
    "cube_polynomial_eval",
    "gamma_cube_coefficient",
    "structure_report",
    "average_distance",
    "distance_distribution",
    "hypercube_wiener",
    "wiener_by_cuts",
    "wiener_index",
    "is_median_closed",
    "median_certificate_triple",
]
