"""Multi-factor generalized Fibonacci cubes :math:`Q_d(F)`.

The extension invited by the paper's definition: forbid a *set* ``F`` of
factors instead of a single one.  :math:`Q_d(F)` is the subgraph of
:math:`Q_d` induced by the words avoiding every member of ``F``.

:class:`MultiFactorCube` shares its vertex set and induced graph with
:class:`repro.cubes.generalized.GeneralizedFibonacciCube` through their
common base :class:`repro.cubes.generalized.AvoidingCube` (``codes``,
``d``, ``graph()``, ``word_of``, ...), so the isometry engines, structure
reports and network machinery run on it unchanged -- which is what the
extension benchmarks exploit.

Facts worth noting (and tested):

- :math:`Q_d(\\{f\\}) = Q_d(f)`;
- :math:`Q_d(F \\cup \\{g\\}) \\subseteq Q_d(F)` (monotone);
- single-factor embeddability does **not** compose: there are sets of
  individually admissible factors whose joint cube is not isometric --
  the extension study in ``examples``/benchmarks quantifies this.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Tuple

from repro.cubes.generalized import AvoidingCube
from repro.words.aho import MultiFactorAutomaton

__all__ = ["MultiFactorCube", "multi_factor_cube"]


class MultiFactorCube(AvoidingCube):
    """The graph :math:`Q_d(F)` for a set ``F`` of forbidden factors."""

    def __init__(self, factors: Iterable[str], d: int):
        if d < 0:
            raise ValueError(f"dimension must be non-negative, got {d}")
        super().__init__(MultiFactorAutomaton(factors), d)
        self.factors: Tuple[str, ...] = self.automaton.factors

    def __repr__(self) -> str:
        return (
            f"MultiFactorCube(factors={list(self.factors)!r}, d={self.d}, "
            f"n={self.num_vertices})"
        )


@lru_cache(maxsize=128)
def multi_factor_cube(factors: Tuple[str, ...], d: int) -> MultiFactorCube:
    """Cached constructor; ``factors`` must be a (hashable) tuple."""
    return MultiFactorCube(factors, d)
