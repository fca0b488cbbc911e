"""Avoidance FSMs over ``{0, 1}`` with a full language algebra.

The address set of every cube family in the paper is a *regular
language*: the hypercube accepts everything, :math:`Q_d(f)` the words
avoiding ``f``, :math:`Q_d(F)` the words avoiding a set.  This module
lifts the Aho--Corasick machinery of :mod:`repro.words` into a
general complete-DFA type closed under union, intersection, complement
and minimization, so composite address languages ("avoids ``11`` *or*
avoids ``000``", "avoids ``101`` *and* ``010``") get the same exact
subcube counting (:mod:`repro.analytic.enumeration`) as the primitive
families.

Conventions: states are ``0 .. n-1`` with start state ``0``; ``table``
is total (every state has both transitions), so the dead/forbidden
state of an avoidance automaton is just a non-accepting absorbing
state.  All constructors produce deterministic state numberings -- BFS
discovery order, bit 0 before bit 1 -- so equal constructions are
``==``-equal, and :meth:`FSM.minimize` is a canonical form: two FSMs
accept the same language iff their minimizations compare equal.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.analytic.enumeration import vertex_system

__all__ = ["FSM"]


class FSM:
    """Complete DFA over ``{0, 1}``; the cube address-language type.

    Parameters
    ----------
    table:
        ``table[s] == (t0, t1)``: successor of state ``s`` on bit 0 / 1.
        Must be total and in-range; state 0 is the start state.
    accepting:
        The accepting states (any iterable of state indices).
    """

    __slots__ = ("table", "accepting")

    def __init__(self, table: Sequence[Sequence[int]], accepting: Iterable[int]):
        tbl: List[Tuple[int, int]] = []
        n = len(table)
        if n == 0:
            raise ValueError("FSM needs at least one state (the start state)")
        for s, row in enumerate(table):
            if len(row) != 2:
                raise ValueError(f"state {s}: need exactly two transitions, got {row!r}")
            t0, t1 = int(row[0]), int(row[1])
            if not (0 <= t0 < n and 0 <= t1 < n):
                raise ValueError(f"state {s}: transition out of range: {row!r}")
            tbl.append((t0, t1))
        self.table: Tuple[Tuple[int, int], ...] = tuple(tbl)
        acc: FrozenSet[int] = frozenset(int(s) for s in accepting)
        for s in acc:
            if not (0 <= s < n):
                raise ValueError(f"accepting state {s} out of range")
        self.accepting = acc

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_factors(cls, factors: Iterable[str]) -> "FSM":
        """The avoidance language of a factor set ``F``: accepts exactly
        the words containing no member of ``F`` (the address language of
        :math:`Q_d(F)` at every ``d`` simultaneously).  Built on the
        Aho--Corasick automaton, so subsumed factors are already dropped."""
        # imported here: repro.words counts through this package
        from repro.words.aho import MultiFactorAutomaton

        return MultiFactorAutomaton(factors).fsm()

    @classmethod
    def universal(cls) -> "FSM":
        """Accepts every word: the hypercube's address language."""
        return cls([(0, 0)], [0])

    # -- running ------------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.table)

    def accepts(self, word: str) -> bool:
        """``True`` iff ``word`` (over ``'0'``/``'1'``) is in the language."""
        s = 0
        for ch in word:
            if ch not in ("0", "1"):
                raise ValueError(f"word must be binary, got {word!r}")
            s = self.table[s][ch == "1"]
        return s in self.accepting

    # -- language algebra ---------------------------------------------------

    def complement(self) -> "FSM":
        """Words *not* in the language (totality makes this a state flip)."""
        return FSM(self.table, set(range(self.num_states)) - self.accepting)

    def _product(self, other: "FSM", keep) -> "FSM":
        """Reachable product construction; ``keep(a_acc, b_acc)`` decides
        acceptance of a pair state.  BFS discovery order (bit 0 first)
        numbers the states, so the result is deterministic."""
        ids: Dict[Tuple[int, int], int] = {(0, 0): 0}
        order: List[Tuple[int, int]] = [(0, 0)]
        table: List[Tuple[int, int]] = []
        i = 0
        while i < len(order):
            a, b = order[i]
            row = []
            for bit in (0, 1):
                pair = (self.table[a][bit], other.table[b][bit])
                if pair not in ids:
                    ids[pair] = len(order)
                    order.append(pair)
                row.append(ids[pair])
            table.append((row[0], row[1]))
            i += 1
        accepting = [
            ids[(a, b)] for (a, b) in order
            if keep(a in self.accepting, b in other.accepting)
        ]
        return FSM(table, accepting)

    def union(self, other: "FSM") -> "FSM":
        """Words in either language."""
        return self._product(other, lambda a, b: a or b)

    def intersection(self, other: "FSM") -> "FSM":
        """Words in both languages."""
        return self._product(other, lambda a, b: a and b)

    # -- minimization -------------------------------------------------------

    def minimize(self) -> "FSM":
        """Canonical minimal DFA: reachable trim, Moore partition
        refinement, then BFS renumbering.  Two FSMs accept the same
        language iff their minimizations are ``==``-equal."""
        # reachable states, in BFS order
        reach: List[int] = [0]
        seen = {0}
        i = 0
        while i < len(reach):
            s = reach[i]
            for bit in (0, 1):
                t = self.table[s][bit]
                if t not in seen:
                    seen.add(t)
                    reach.append(t)
            i += 1
        # Moore refinement over the reachable part
        block = {s: int(s in self.accepting) for s in reach}
        while True:
            sig = {
                s: (block[s], block[self.table[s][0]], block[self.table[s][1]])
                for s in reach
            }
            renum: Dict[Tuple[int, int, int], int] = {}
            nxt = {}
            for s in reach:  # BFS order keeps the numbering deterministic
                if sig[s] not in renum:
                    renum[sig[s]] = len(renum)
                nxt[s] = renum[sig[s]]
            if nxt == block:
                break
            block = nxt
        # quotient, renumbered by BFS from the start block
        rep: Dict[int, int] = {}
        for s in reach:
            rep.setdefault(block[s], s)
        old_order: List[int] = [block[0]]
        new_id = {block[0]: 0}
        i = 0
        table: List[Tuple[int, int]] = []
        while i < len(old_order):
            b = old_order[i]
            s = rep[b]
            row = []
            for bit in (0, 1):
                tb = block[self.table[s][bit]]
                if tb not in new_id:
                    new_id[tb] = len(old_order)
                    old_order.append(tb)
                row.append(new_id[tb])
            table.append((row[0], row[1]))
            i += 1
        accepting = [new_id[b] for b in old_order if rep[b] in self.accepting]
        return FSM(table, accepting)

    def equivalent(self, other: "FSM") -> bool:
        """Language equality, via canonical minimization."""
        return self.minimize() == other.minimize()

    # -- counting -----------------------------------------------------------

    def count_words(self, d: int) -> int:
        """Number of accepted words of length ``d`` (exact, any ``d``):
        the vertex count of the cube the language defines."""
        if d < 0:
            raise ValueError(f"length must be non-negative, got {d}")
        return vertex_system(self).term(d)

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FSM):
            return NotImplemented
        return self.table == other.table and self.accepting == other.accepting

    def __hash__(self) -> int:
        return hash((self.table, self.accepting))

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"FSM(states={self.num_states}, accepting={sorted(self.accepting)})"
