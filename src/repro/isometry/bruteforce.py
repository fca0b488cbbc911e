"""The isometry engine: every pair's cube distance against its Hamming distance.

:math:`Q_d(f) \\hookrightarrow Q_d` means that for every pair of vertices
``b, c`` of :math:`Q_d(f)` the distance *inside the subgraph* equals the
Hamming distance.  This module checks it by brute force, one block of
sources at a time: the distance rows of a block
(:func:`~repro.graphs.traversal.distance_blocks`) are compared with its
Hamming rows (``codes[lo:hi, None] ^ codes`` through a byte popcount
table), so memory stays ``O(block * n)`` at any size.  One private scan
answers the yes/no question (stopping at the first bad block), the first
defect and the full report.  It is the "computer check" of the paper's
Table 1 footnotes (experiment E7).

A bad pair at the least Hamming distance ``p`` is a **p-critical pair**
in the sense of Lemma 2.4: every pair at a smaller Hamming distance is
good, so no neighbour of ``b`` in the interval to ``c`` lies in the cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.cubes.generalized import GeneralizedFibonacciCube, generalized_fibonacci_cube
from repro.graphs.traversal import bfs_distances_many, distance_blocks

__all__ = [
    "IsometryReport",
    "is_isometric",
    "isometric_defect",
    "isometry_report",
    "subgraph_distances",
]

CubeLike = Union[GeneralizedFibonacciCube, Tuple[str, int]]

_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.int8)


@dataclass(frozen=True)
class IsometryReport:
    """Outcome of the full isometry scan.

    Attributes
    ----------
    isometric:
        Whether :math:`Q_d(f) \\hookrightarrow Q_d`.
    first_bad_level:
        Minimal Hamming distance ``p`` of a failing pair (``None`` when
        isometric).  Failing pairs at this level are p-critical words.
    witness:
        The first failing pair of words at the first bad level, in
        row-major vertex order (``None`` when isometric).
    num_bad_pairs:
        Total number of ordered failing pairs across all levels.
    """

    isometric: bool
    first_bad_level: Optional[int]
    witness: Optional[Tuple[str, str]]
    num_bad_pairs: int


def _as_cube(cube: CubeLike):
    """Accept an ``(f, d)`` pair or any cube-shaped object.

    Duck typing (``codes``, ``d``, ``graph()``, ``word_of``) lets the
    engine run on :class:`~repro.cubes.multifactor.MultiFactorCube` and
    other hypercube-subgraph wrappers.
    """
    if isinstance(cube, tuple):
        f, d = cube
        return generalized_fibonacci_cube(f, d)
    if all(hasattr(cube, attr) for attr in ("codes", "d", "graph", "word_of")):
        return cube
    raise TypeError(f"not a cube-like object: {cube!r}")


def _bad_blocks(cube) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """``(start, rows, ham, bad)`` for each block of sources holding a pair
    whose cube distance (``rows``, ``-1`` when unreachable) differs from
    its Hamming distance (``ham``); ``bad`` marks those pairs."""
    codes = cube.codes
    for start, rows in distance_blocks(cube.graph()):
        xor = codes[start:start + len(rows), None] ^ codes
        ham = _POPCOUNT8[xor.view(np.uint8)].reshape(*xor.shape, -1).sum(axis=2, dtype=np.int8)
        bad = rows != ham
        if bad.any():
            yield start, rows, ham, bad


def subgraph_distances(cube: CubeLike, source_index: int) -> np.ndarray:
    """BFS distances from a vertex, measured inside :math:`Q_d(f)`."""
    return bfs_distances_many(_as_cube(cube).graph(), [source_index])[0]


def is_isometric(cube: CubeLike) -> bool:
    """``True`` iff :math:`Q_d(f) \\hookrightarrow Q_d`; stops at the first
    block with a bad pair.  A disconnected cube is never isometric (its
    unreachable pairs are bad)."""
    return isometric_defect(cube) is None


def isometric_defect(cube: CubeLike) -> Optional[Tuple[str, str, int, int]]:
    """The first isometry violation in row-major vertex order, or ``None``
    when isometric.

    Returns ``(word_b, word_c, subgraph_distance, hamming_distance)``
    where ``subgraph_distance`` is ``-1`` for disconnected pairs.
    """
    cube = _as_cube(cube)
    for start, rows, ham, bad in _bad_blocks(cube):
        i, j = np.argwhere(bad)[0]
        return (cube.word_of(start + i), cube.word_of(j), int(rows[i, j]), int(ham[i, j]))
    return None


def isometry_report(cube: CubeLike) -> IsometryReport:
    """Scan every pair and report the outcome (see :class:`IsometryReport`)."""
    cube = _as_cube(cube)
    level: Optional[int] = None
    witness: Optional[Tuple[str, str]] = None
    num_bad = 0
    for start, rows, ham, bad in _bad_blocks(cube):
        num_bad += int(bad.sum())
        low = int(ham[bad].min())
        if level is None or low < level:
            # blocks run in row order, so the first block at a new least
            # level holds that level's first pair in row-major order
            level = low
            i, j = np.argwhere(bad & (ham == low))[0]
            witness = (cube.word_of(start + i), cube.word_of(j))
    return IsometryReport(num_bad == 0, level, witness, num_bad)
