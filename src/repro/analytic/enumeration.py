"""Subcube counting systems with linear-recurrence extraction.

Every regular address language gives its cube family a tower of exact
counting problems: vertices (accepted words of length ``d``), edges
(accepted word pairs differing in one bit) and squares (accepted word
quads spanning two bits) are the subcubes of dimension ``k = 0, 1, 2``.
One construction counts them all -- the *marked product* of the
language's FSM.  Its states follow the automaton states of every word of
a partial subcube: one word before the first flipped position, and after
``j`` flipped positions the ``2^j`` words the flips span.  A flipped
position is ``0`` in the base word, so each ``k``-dimensional subcube is
exactly one path of length ``d`` that flips ``k`` times and ends with
all ``2^k`` words accepted.  The product is built reachable (BFS from
the start) and live-trimmed (states that cannot reach acceptance are
dropped); for a single factor of length at most 8 it has at most 8, 44
and 136 states for ``k = 0, 1, 2``.

A :class:`CountingSystem` packages the digraph as ``(matrix, start,
accept)`` and offers three evaluation routes:

- :meth:`CountingSystem.term` -- one ``d`` by stepping the weight vector
  ``d`` times along the nonzero matrix entries, :math:`O(d \\cdot
  \\text{transitions})` big-integer additions and memory independent of
  ``d``;
- :meth:`CountingSystem.series` -- the first ``n`` terms from the same
  walk;
- :meth:`CountingSystem.smart_enumeration` -- extract the minimal
  recurrence once (Berlekamp--Massey over exact rationals), then extend
  at :math:`O(r)` per term.  For the Fibonacci cube this *discovers*
  ``V(d) = V(d-1) + V(d-2)`` from the machine.

Path counts in a fixed digraph satisfy *integer linear recurrences* of
order at most the digraph size: the minimal polynomial of the sequence
divides the (monic, integer) characteristic polynomial of the transfer
matrix, and Gauss's lemma keeps monic integer divisors integer.
:func:`berlekamp_massey` still runs over :class:`fractions.Fraction`
internally and the integrality is checked, not assumed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple

if TYPE_CHECKING:  # FSM imports this module for its own counting
    from repro.analytic.fsm import FSM

__all__ = [
    "CountingSystem",
    "berlekamp_massey",
    "edge_system",
    "square_system",
    "vertex_system",
]


def berlekamp_massey(seq: Sequence[int]) -> List[Fraction]:
    """Shortest linear recurrence of ``seq`` over the rationals.

    Returns coefficients ``c`` such that
    ``seq[k] == sum(c[i] * seq[k - 1 - i])`` for every
    ``k >= len(c)``; the empty list means the sequence is eventually
    all-zero from the start.  ``2r + 1`` terms suffice to pin down a
    recurrence of order ``r``.
    """
    ls: List[Fraction] = []
    cur: List[Fraction] = []
    lf = 0
    ld = Fraction(0)
    for i in range(len(seq)):
        t = Fraction(seq[i])
        for j in range(len(cur)):
            t -= cur[j] * seq[i - 1 - j]
        if t == 0:
            continue
        if not cur:
            cur = [Fraction(0)] * (i + 1)
            lf, ld = i, t
            continue
        k = t / ld
        c = [Fraction(0)] * (i - lf - 1) + [k] + [-k * x for x in ls]
        if len(c) < len(cur):
            c += [Fraction(0)] * (len(cur) - len(c))
        for j in range(len(cur)):
            c[j] += cur[j]
        if i - lf + len(ls) >= len(cur):
            ls, lf, ld = list(cur), i, t
        cur = c
    return cur


class CountingSystem:
    """Path counting in a weighted digraph: ``start . matrix^d . accept``.

    ``matrix`` is a square non-negative integer matrix, ``start`` a row
    vector (the initial weight on each state), ``accept`` a 0/1 column
    vector marking the states whose weight is counted at the end.
    """

    __slots__ = ("matrix", "start", "accept", "_rows", "_recurrence", "_prefix")

    def __init__(
        self,
        matrix: Sequence[Sequence[int]],
        start: Sequence[int],
        accept: Sequence[int],
    ):
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("counting matrix must be square")
        if len(start) != n or len(accept) != n:
            raise ValueError("start/accept vectors must match the matrix size")
        self.matrix = [list(map(int, row)) for row in matrix]
        self.start = list(map(int, start))
        self.accept = list(map(int, accept))
        # the nonzero entries of each row: a step costs O(transitions)
        self._rows = [
            [(t, w) for t, w in enumerate(row) if w] for row in self.matrix
        ]
        self._recurrence: "List[int] | None" = None
        self._prefix: List[int] = []

    @property
    def size(self) -> int:
        return len(self.matrix)

    # -- direct evaluation ---------------------------------------------------

    def _vectors(self) -> Iterator[List[int]]:
        """The weight vectors ``start . matrix^j`` for j = 0, 1, ...; a
        step follows only the nonzero entries of the nonzero states."""
        vec = list(self.start)
        rows = self._rows
        while True:
            yield vec
            nxt = [0] * len(vec)
            for s, w in enumerate(vec):
                if w:
                    for t, m in rows[s]:
                        nxt[t] += w * m
            vec = nxt

    def _count(self, vec: List[int]) -> int:
        return sum(w * a for w, a in zip(vec, self.accept))

    def term(self, d: int) -> int:
        """The ``d``-th term by stepping the weight vector ``d`` times:
        :math:`O(d \\cdot \\text{transitions})` additions of integers of
        :math:`O(d)` bits, with live memory independent of ``d`` (one
        vector of :attr:`size` entries)."""
        if d < 0:
            raise ValueError(f"index must be non-negative, got {d}")
        return self._count(next(islice(self._vectors(), d, None)))

    def series(self, n: int) -> List[int]:
        """The first ``n`` terms (indices ``0 .. n-1``) from one walk."""
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")
        return [self._count(vec) for vec in islice(self._vectors(), n)]

    # -- smart enumeration ---------------------------------------------------

    def linear_recurrence(self) -> List[int]:
        """The minimal integer linear recurrence of the sequence.

        Extracted once from ``2m + 2`` seed terms (``m`` = matrix size
        bounds the recurrence order) and cached; the integrality of the
        Berlekamp--Massey output is verified, not assumed.
        """
        if self._recurrence is None:
            seed = self.series(2 * self.size + 2)
            coeffs = berlekamp_massey(seed)
            ints: List[int] = []
            for c in coeffs:
                if c.denominator != 1:
                    raise ArithmeticError(
                        f"recurrence coefficient {c} is not an integer; "
                        "the transfer matrix is not what it claims to be"
                    )
                ints.append(int(c))
            self._recurrence = ints
            self._prefix = seed
        return list(self._recurrence)

    def smart_enumeration(self, n: int) -> List[int]:
        """The first ``n`` terms via the extracted recurrence:
        :math:`O(m)` seed work once, then :math:`O(r)` per term."""
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")
        rec = self.linear_recurrence()
        out = list(self._prefix[:n])
        if len(out) < n and not rec:
            out += [0] * (n - len(out))
        while len(out) < n:
            k = len(out)
            out.append(sum(rec[i] * out[k - 1 - i] for i in range(len(rec))))
        return out

    def smart_term(self, d: int) -> int:
        """The ``d``-th term, recurrence-extended (linear in ``d``)."""
        if d < 0:
            raise ValueError(f"index must be non-negative, got {d}")
        return self.smart_enumeration(d + 1)[d]


def _marked_product(fsm: "FSM", k: int) -> CountingSystem:
    """The ``k``-dimensional subcube system of ``fsm``'s language.

    A state is the tuple of automaton states of the ``2^j`` words spanned
    after ``j <= k`` flips, starting from ``(0,)``.  A shared bit moves
    every word; a flip (while ``j < k``) doubles the tuple into the
    bit-0 words followed by the bit-1 words.  Reachable states are
    numbered in BFS order (bit 0, bit 1, flip), then every state that
    cannot reach an accepting one -- ``2^k`` words, all accepted -- is
    dropped, keeping that order.
    """
    table = fsm.table
    full = 1 << k
    ids: Dict[Tuple[int, ...], int] = {(0,): 0}
    order: List[Tuple[int, ...]] = [(0,)]
    succ: List[List[int]] = []
    for words in order:  # grows while we scan it: BFS
        step = [tuple(table[s][bit] for s in words) for bit in (0, 1)]
        if len(words) < full:
            step.append(step[0] + step[1])
        row = []
        for nxt in step:
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            row.append(ids[nxt])
        succ.append(row)
    accept = [
        len(words) == full and all(s in fsm.accepting for s in words)
        for words in order
    ]
    pred: List[List[int]] = [[] for _ in order]
    for s, row in enumerate(succ):
        for t in row:
            pred[t].append(s)
    live = list(accept)
    stack = [t for t, ok in enumerate(accept) if ok]
    while stack:
        for s in pred[stack.pop()]:
            if not live[s]:
                live[s] = True
                stack.append(s)
    kept = [s for s, ok in enumerate(live) if ok]
    new = {s: i for i, s in enumerate(kept)}
    mat = [[0] * len(new) for _ in new]
    for s, i in new.items():
        for t in succ[s]:
            if t in new:
                mat[i][new[t]] += 1
    start = [int(i == 0) for i in range(len(kept))]
    return CountingSystem(mat, start, [int(accept[s]) for s in kept])


def vertex_system(fsm: "FSM") -> CountingSystem:
    """Vertex counts of the cube family of ``fsm``'s language:
    term ``d`` is the number of accepted length-``d`` words."""
    return _marked_product(fsm, 0)


def edge_system(fsm: "FSM") -> CountingSystem:
    """Edge counts of the cube family of ``fsm``'s language: term ``d``
    counts the accepted pairs ``{w, w + e_i}`` with ``w_i = 0``."""
    return _marked_product(fsm, 1)


def square_system(fsm: "FSM") -> CountingSystem:
    """Square counts of the cube family of ``fsm``'s language: term
    ``d`` counts the accepted quads ``{w, w + e_i, w + e_j, w + e_i +
    e_j}`` with ``i < j`` and ``w_i = w_j = 0``."""
    return _marked_product(fsm, 2)
