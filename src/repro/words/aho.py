"""Aho--Corasick automaton: avoiding a *set* of factors at once.

The paper generalizes the Fibonacci cube by forbidding one factor.  The
natural next step -- explicitly invited by the definition -- is a set
``F`` of forbidden factors: :math:`Q_d(F)` keeps the words avoiding every
member of ``F``.  Classical instances:

- ``F = {f}`` recovers :math:`Q_d(f)` (:class:`repro.words.automaton.FactorAutomaton`
  is this one-factor case);
- Lucas-like cubes arise from positional constraints, and several
  "daisy-cube" style families are intersections of factor conditions.

:class:`MultiFactorAutomaton` is the standard Aho--Corasick construction
(goto trie + failure links, output propagated through failures) with all
pattern-accepting states merged into one absorbing *forbidden* state.
It gives linear-time avoidance tests and the enumeration of avoiding
words; its vertex and edge counts go through the subcube counting
systems of :mod:`repro.analytic.enumeration`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.analytic.enumeration import edge_system, vertex_system
from repro.analytic.fsm import FSM
from repro.words.core import validate_word

__all__ = ["MultiFactorAutomaton"]


class MultiFactorAutomaton:
    """DFA over ``{0, 1}`` recognizing "contains some ``f`` in ``F``".

    States ``0 .. n-1`` are live trie states (0 = root); state ``n`` is the
    absorbing forbidden state.  ``table[s][bit]`` gives transitions.

    Parameters
    ----------
    factors:
        Non-empty collection of non-empty binary words.  Subsumed factors
        (superstrings of other factors, e.g. ``110`` next to ``11``) are
        *dropped at construction*: a word containing the superstring
        already contains the substring, so they define the same language
        but would inflate the trie -- and therefore every counting
        system -- for nothing.  ``factors`` holds the surviving minimal
        set.
    """

    __slots__ = ("factors", "num_states", "forbidden", "table")

    def __init__(self, factors: Iterable[str]):
        factors = sorted(set(factors))
        if not factors:
            raise ValueError("need at least one forbidden factor")
        for f in factors:
            validate_word(f, name="forbidden factor")
            if not f:
                raise ValueError("forbidden factors must be non-empty")
        # drop subsumed factors: if g is a factor of f, avoiding g already
        # implies avoiding f, so f only bloats the automaton (sorted order
        # means any subsuming factor of f is shorter or equal, but scan
        # all pairs -- lexicographic order is not length order)
        factors = [
            f for f in factors
            if not any(g != f and g in f for g in factors)
        ]
        self.factors = tuple(factors)

        # --- trie ---------------------------------------------------------
        children: List[List[int]] = [[-1, -1]]  # per state: child on 0/1
        accepting: List[bool] = [False]
        for f in factors:
            s = 0
            for ch in f:
                bit = ch == "1"
                if children[s][bit] == -1:
                    children.append([-1, -1])
                    accepting.append(False)
                    children[s][bit] = len(children) - 1
                s = children[s][bit]
            accepting[s] = True

        # --- failure links (BFS), propagate acceptance --------------------
        n = len(children)
        fail = [0] * n
        queue: deque = deque()
        for bit in (0, 1):
            c = children[0][bit]
            if c != -1:
                queue.append(c)
        while queue:
            s = queue.popleft()
            for bit in (0, 1):
                c = children[s][bit]
                if c == -1:
                    continue
                # walk failures of s to find the longest proper suffix state
                t = fail[s]
                while t and children[t][bit] == -1:
                    t = fail[t]
                cand = children[t][bit]
                fail[c] = cand if cand != -1 and cand != c else 0
                if accepting[fail[c]]:
                    accepting[c] = True
                queue.append(c)

        # --- collapse to a total DFA with one absorbing forbidden state ----
        # goto with failure resolution
        goto: List[List[int]] = [[0, 0] for _ in range(n)]
        for s in range(n):
            for bit in (0, 1):
                t = s
                while t and children[t][bit] == -1:
                    t = fail[t]
                c = children[t][bit]
                goto[s][bit] = c if c != -1 else 0

        live = [s for s in range(n) if not accepting[s]]
        remap: Dict[int, int] = {s: i for i, s in enumerate(live)}
        m = len(live)
        self.num_states = m + 1
        self.forbidden = m
        table: List[Tuple[int, int]] = []
        for s in live:
            row = []
            for bit in (0, 1):
                t = goto[s][bit]
                row.append(m if accepting[t] else remap[t])
            table.append((row[0], row[1]))
        table.append((m, m))
        self.table = table

    # -- running -------------------------------------------------------------

    def avoids(self, word: str) -> bool:
        """``True`` iff ``word`` contains none of the forbidden factors."""
        s = 0
        forbidden = self.forbidden
        table = self.table
        for ch in word:
            s = table[s][ch == "1"]
            if s == forbidden:
                return False
        return True

    # -- enumeration -----------------------------------------------------------

    def iter_avoiding(self, d: int) -> Iterator[str]:
        """All length-``d`` words avoiding every factor, lexicographically."""
        if d < 0:
            raise ValueError(f"length must be non-negative, got {d}")
        chars = "01"
        stack: List[Tuple[str, int, int]] = [("", 0, 0)]
        while stack:
            prefix, state, depth = stack.pop()
            if depth == d:
                yield prefix
                continue
            for bit in (1, 0):
                nxt = self.table[state][bit]
                if nxt != self.forbidden:
                    stack.append((prefix + chars[bit], nxt, depth + 1))

    def avoiding_int_array(self, d: int) -> np.ndarray:
        """Sorted ``int64`` codes of all length-``d`` avoiding words.

        The code of a word puts its first letter in the most significant
        bit (see :func:`repro.words.core.word_to_int`), so the array is
        sorted both numerically and lexicographically.  One vectorised
        pass per position carries the surviving prefix codes together
        with their automaton states.
        """
        if d < 0:
            raise ValueError(f"length must be non-negative, got {d}")
        if d > 62:
            raise ValueError(f"int64 codes support d <= 62, got {d}")
        table = np.array(self.table, dtype=np.int64)
        codes = np.zeros(1, dtype=np.int64)
        states = np.zeros(1, dtype=np.int64)
        forbidden = self.forbidden
        for _ in range(d):
            next0 = table[states, 0]
            next1 = table[states, 1]
            keep0 = next0 != forbidden
            keep1 = next1 != forbidden
            doubled = codes << 1
            codes = np.concatenate([doubled[keep0], (doubled | 1)[keep1]])
            states = np.concatenate([next0[keep0], next1[keep1]])
            order = np.argsort(codes, kind="stable")
            codes, states = codes[order], states[order]
        return codes

    # -- counting ------------------------------------------------------------

    def fsm(self) -> FSM:
        """The avoidance language as an :class:`~repro.analytic.fsm.FSM`
        (the live states accept, the forbidden state is its dead state)."""
        return FSM(self.table, range(self.forbidden))

    def count_vertices(self, d: int) -> int:
        """``|V(Q_d(F))|``, exact for any ``d``."""
        if d < 0:
            raise ValueError(f"length must be non-negative, got {d}")
        return vertex_system(self.fsm()).term(d)

    def count_edges(self, d: int) -> int:
        """``|E(Q_d(F))|``, exact for any ``d``."""
        if d < 0:
            raise ValueError(f"length must be non-negative, got {d}")
        return edge_system(self.fsm()).term(d)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MultiFactorAutomaton({list(self.factors)!r}, states={self.num_states})"
