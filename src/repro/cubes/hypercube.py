"""The hypercube :math:`Q_d` and canonical paths (Section 2).

Vertices of :math:`Q_d` are all binary words of length ``d``; two words
are adjacent when they differ in exactly one bit, and
:math:`d_{Q_d}(b, c)` is the Hamming distance.

The *canonical* ``b,c``-path flips, scanning left to right, first every
bit where ``b`` has 1 and ``c`` has 0 (1 -> 0 moves) and then every bit
where ``b`` has 0 and ``c`` has 1 (0 -> 1 moves).  The paper uses canonical
paths to show :math:`\\Gamma_d \\hookrightarrow Q_d` and throughout the
embeddability proofs.  :func:`canonical_bits` is that order over
integer codes, the one the network routers read.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.graphs.core import Graph
from repro.words.core import flip, hamming, validate_word

__all__ = ["hypercube", "hamming_int", "canonical_bits", "canonical_path", "canonical_path_ints"]


def hamming_int(a: int, b: int) -> int:
    """Hamming distance between two integer-coded words (popcount of XOR)."""
    return int(a ^ b).bit_count()


def hypercube(d: int) -> Graph:
    """Build :math:`Q_d` with vertices labelled by their binary words.

    Vertex ``i`` is the word ``format(i, f"0{d}b")``; adjacency is
    generated bit-parallel (one vectorised XOR per dimension).
    """
    if d < 0:
        raise ValueError(f"dimension must be non-negative, got {d}")
    n = 1 << d
    g = Graph(n)
    codes = np.arange(n, dtype=np.int64)
    for i in range(d):
        bit = 1 << i
        lower = codes[(codes & bit) == 0]
        for u in lower:
            g.add_edge(int(u), int(u) | bit)
    g.set_labels([format(i, f"0{d}b") if d else "" for i in range(n)])
    return g


def canonical_path(b: str, c: str) -> List[str]:
    """The canonical ``b,c``-path of Section 2, as a list of words.

    Scanning positions left to right, first flip every bit with
    ``b_i = 1, c_i = 0`` (each flip moves strictly closer to ``c``), then
    every bit with ``b_i = 0, c_i = 1``.  The result starts at ``b``, ends
    at ``c`` and has length ``hamming(b, c)``.
    """
    validate_word(b)
    validate_word(c)
    if len(b) != len(c):
        raise ValueError("words must have equal length")
    path = [b]
    cur = b
    for i in range(len(b)):
        if cur[i] == "1" and c[i] == "0":
            cur = flip(cur, i)
            path.append(cur)
    for i in range(len(b)):
        if cur[i] == "0" and c[i] == "1":
            cur = flip(cur, i)
            path.append(cur)
    assert cur == c and len(path) == hamming(b, c) + 1
    return path


def canonical_bits(b: int, c: int) -> Iterator[int]:
    """The bits the canonical ``b,c``-path flips, in order, as masks: those
    set in ``b`` and clear in ``c`` (1 -> 0 moves), then those clear in ``b``
    and set in ``c`` (0 -> 1 moves), each from the leftmost, most
    significant one -- :func:`canonical_path`'s scan over integer codes."""
    if b < 0 or c < 0:
        raise ValueError("codes must be non-negative")
    for diff in (b & ~c, c & ~b):
        while diff:
            bit = 1 << (diff.bit_length() - 1)
            yield bit
            diff ^= bit


def canonical_path_ints(b: int, c: int, d: int) -> List[int]:
    """Integer-coded version of :func:`canonical_path`: the codes
    :func:`canonical_bits` visits from ``b`` to ``c``, both ``d``-bit
    codes."""
    if b < 0 or c < 0 or b >= (1 << d) or c >= (1 << d):
        raise ValueError("codes out of range")
    path = [b]
    for bit in canonical_bits(b, c):
        path.append(path[-1] ^ bit)
    return path
