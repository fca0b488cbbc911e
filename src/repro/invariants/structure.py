"""Proposition 6.1: degree and diameter of embeddable cubes.

For any ``f`` (other than the trivial paths ``01``/``10``) of length at
least two with :math:`Q_d(f) \\hookrightarrow Q_d`, the maximum degree and
the diameter of :math:`Q_d(f)` both equal ``d``.  The module produces a
full structural report (degree extremes, diameter, radius, vertex counts)
that the E5 experiment sweeps over the embeddable factors, plus
paper-specific accessors for the Fig. 2 comparison (:math:`Q_5(11)` vs
:math:`Q_4(110)`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cubes.generalized import generalized_fibonacci_cube
from repro.graphs.traversal import eccentricities, is_connected

__all__ = ["StructureReport", "structure_report"]


@dataclass(frozen=True)
class StructureReport:
    """Degree/diameter/radius summary of one generalized Fibonacci cube."""

    f: str
    d: int
    num_vertices: int
    num_edges: int
    min_degree: int
    max_degree: int
    diameter: int
    radius: int
    connected: bool

    def satisfies_prop_6_1(self) -> bool:
        """Does the cube exhibit the Proposition 6.1 conclusion
        (max degree = diameter = d)?"""
        return self.max_degree == self.d and self.diameter == self.d


def structure_report(cube) -> StructureReport:
    """Compute the :class:`StructureReport` of a cube (or ``(f, d)`` pair).

    Accepts any cube-shaped object (including
    :class:`~repro.cubes.multifactor.MultiFactorCube`; the report's ``f``
    field then joins the factor set with commas).
    """
    if isinstance(cube, tuple):
        f, d = cube
        cube = generalized_fibonacci_cube(f, d)
    f_label = getattr(cube, "f", None)
    if f_label is None:
        f_label = ",".join(getattr(cube, "factors", ()))
    g = cube.graph()
    connected = is_connected(g)
    degs: List[int] = g.degrees()
    if connected and g.num_vertices > 0:
        ecc = eccentricities(g)
        dia, rad = int(ecc.max()), int(ecc.min())
    else:
        dia = -1
        rad = -1
    return StructureReport(
        f=f_label,
        d=cube.d,
        num_vertices=g.num_vertices,
        num_edges=g.num_edges,
        min_degree=min(degs) if degs else 0,
        max_degree=max(degs) if degs else 0,
        diameter=dia,
        radius=rad,
        connected=connected,
    )
