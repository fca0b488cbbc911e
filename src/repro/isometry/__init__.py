"""Isometric-embedding machinery.

- :mod:`repro.isometry.bruteforce` -- the isometry engine: blocks of
  distance rows inside :math:`Q_d(f)` against Hamming rows, answering
  whether :math:`Q_d(f) \\hookrightarrow Q_d` (:func:`is_isometric`), the
  first defect and the full report with a p-critical witness
  (:func:`isometry_report`);
- :mod:`repro.isometry.critical` -- p-critical words (Lemma 2.4): search
  and the paper's constructive certificates for Props 3.2, 4.1, 4.2 and
  Theorem 3.3;
- :mod:`repro.isometry.theta` -- Djoković--Winkler relation
  :math:`\\Theta`, its transitive closure :math:`\\Theta^*`, Winkler's
  partial-cube recognition, isometric dimension ``idim`` and the
  canonical hypercube coordinatization.
"""

from repro.isometry.bruteforce import (
    is_isometric,
    isometric_defect,
    isometry_report,
    subgraph_distances,
)
from repro.isometry.critical import (
    CriticalPair,
    find_critical_pair,
    paper_critical_pair,
    verify_critical_pair,
)
from repro.isometry.theta import (
    idim,
    hypercube_coordinates,
    is_partial_cube,
    theta_classes,
    theta_matrix,
)

__all__ = [
    "is_isometric",
    "isometric_defect",
    "isometry_report",
    "subgraph_distances",
    "CriticalPair",
    "find_critical_pair",
    "paper_critical_pair",
    "verify_critical_pair",
    "idim",
    "hypercube_coordinates",
    "is_partial_cube",
    "theta_classes",
    "theta_matrix",
]
