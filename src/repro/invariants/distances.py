"""Distance invariants: Wiener index, average distance, distance distribution.

Interconnection-network papers report average inter-node distance; graph
theory reports the Wiener index :math:`W(G) = \\sum_{\\{u,v\\}} d(u, v)`.
Both come from the same all-pairs distance matrix.  Known closed forms used as test
anchors: :math:`W(Q_d) = d\\, 4^{d-1}` (each of the ``d`` coordinates
contributes :math:`2^{d-1} \\cdot 2^{d-1}` split pairs).

For the Fibonacci cube, [Klavžar's survey] gives a closed Wiener formula;
here we expose the measured quantity plus the coordinate-cut
decomposition: in any *isometric* subgraph of :math:`Q_d`, the Wiener
index equals :math:`\\sum_{i=1}^{d} n_i (n - n_i)` where ``n_i`` counts
vertices with bit 1 in coordinate ``i`` -- distances are Hamming, so each
coordinate contributes independently.  The decomposition is itself a
checkable isometry invariant: it fails exactly when the cube is not
isometric, which the tests exploit.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.cubes.generalized import generalized_fibonacci_cube
from repro.graphs.traversal import all_pairs_distances

__all__ = [
    "wiener_index",
    "average_distance",
    "distance_distribution",
    "wiener_by_cuts",
    "hypercube_wiener",
]


def _as_cube(cube_or_spec):
    if isinstance(cube_or_spec, tuple):
        f, d = cube_or_spec
        return generalized_fibonacci_cube(f, d)
    return cube_or_spec


def wiener_index(cube_or_spec) -> int:
    """:math:`W = \\sum_{\\{u,v\\}} d_G(u, v)` measured on the graph."""
    cube = _as_cube(cube_or_spec)
    dist = all_pairs_distances(cube.graph())
    if (dist < 0).any():
        raise ValueError("Wiener index is undefined on a disconnected graph")
    return int(dist.sum()) // 2


def average_distance(cube_or_spec) -> float:
    """Mean distance over unordered vertex pairs."""
    cube = _as_cube(cube_or_spec)
    n = cube.num_vertices
    if n < 2:
        return 0.0
    return wiener_index(cube) / (n * (n - 1) / 2)


def distance_distribution(cube_or_spec) -> Dict[int, int]:
    """``{distance: number of unordered pairs}`` over pairs of distinct
    vertices, so every key is at least 1."""
    cube = _as_cube(cube_or_spec)
    dist = all_pairs_distances(cube.graph())
    if (dist < 0).any():
        raise ValueError("distance distribution undefined on a disconnected graph")
    n = dist.shape[0]
    iu = np.triu_indices(n, k=1)
    values, counts = np.unique(dist[iu], return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def wiener_by_cuts(cube_or_spec) -> int:
    """Coordinate-cut Wiener formula :math:`\\sum_i n_i (n - n_i)`.

    Equals :func:`wiener_index` **iff** the cube's internal distances are
    Hamming distances, i.e. iff :math:`Q_d(f) \\hookrightarrow Q_d` (plus
    connectivity) -- a cheap necessary-and-sufficient witness at the
    aggregate level used by the property tests.
    """
    cube = _as_cube(cube_or_spec)
    codes = cube.codes
    n = int(codes.size)
    total = 0
    for i in range(cube.d):
        ones = int(((codes >> np.int64(i)) & np.int64(1)).sum())
        total += ones * (n - ones)
    return total


def hypercube_wiener(d: int) -> int:
    """Closed form :math:`W(Q_d) = d \\cdot 4^{d-1}`."""
    if d < 0:
        raise ValueError(f"dimension must be non-negative, got {d}")
    if d == 0:
        return 0
    return d * 4 ** (d - 1)
