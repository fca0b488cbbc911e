"""Cube graph families of the paper.

- :mod:`repro.cubes.hypercube` -- the d-cube :math:`Q_d`, Hamming
  distances, canonical paths (Section 2);
- :mod:`repro.cubes.generalized` -- the generalized Fibonacci cube
  :math:`Q_d(f)` (the paper's central object), built on
  ``AvoidingCube``, the vertex set and induced graph it shares with
  the multi-factor cubes :math:`Q_d(F)` of :mod:`repro.cubes.multifactor`;
- :mod:`repro.cubes.fibonacci` -- the classical Fibonacci cube
  :math:`\\Gamma_d = Q_d(11)`, its Zeckendorf labelling, and the Lucas
  cube (a closely related family used in the extension experiments);
- :mod:`repro.cubes.symmetries` -- the isomorphisms of Lemmas 2.2/2.3 and
  the canonical form of a forbidden factor under complement + reversal.
"""

from repro.cubes.hypercube import canonical_path, hamming_int, hypercube
from repro.cubes.generalized import GeneralizedFibonacciCube, generalized_fibonacci_cube
from repro.cubes.multifactor import MultiFactorCube, multi_factor_cube
from repro.cubes.fibonacci import (
    fibonacci_cube,
    fibonacci_labels,
    lucas_cube,
    zeckendorf_rank,
)
from repro.cubes.symmetries import (
    canonical_factor,
    complement_isomorphism,
    factor_orbit,
    reverse_isomorphism,
)

__all__ = [
    "canonical_path",
    "hamming_int",
    "hypercube",
    "GeneralizedFibonacciCube",
    "MultiFactorCube",
    "multi_factor_cube",
    "generalized_fibonacci_cube",
    "fibonacci_cube",
    "fibonacci_labels",
    "lucas_cube",
    "zeckendorf_rank",
    "canonical_factor",
    "complement_isomorphism",
    "factor_orbit",
    "reverse_isomorphism",
]
