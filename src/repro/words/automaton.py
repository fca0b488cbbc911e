"""The factor automaton of a single forbidden factor.

:class:`FactorAutomaton` is the one-factor case of the Aho--Corasick
automaton (:class:`repro.words.aho.MultiFactorAutomaton`): states
``0 .. |f|`` where state ``s`` means "the longest suffix of the input
read so far that is a prefix of ``f`` has length ``s``", and state
``|f|`` is the absorbing *forbidden* state meaning ``f`` occurred as a
factor.  A word ``b`` avoids ``f`` exactly when running the automaton on
``b`` never reaches state ``|f|``.
"""

from __future__ import annotations

from repro.words.aho import MultiFactorAutomaton
from repro.words.core import validate_word

__all__ = ["FactorAutomaton"]


class FactorAutomaton(MultiFactorAutomaton):
    """Deterministic automaton recognizing "contains ``f`` as a factor".

    Parameters
    ----------
    f:
        Non-empty forbidden factor over ``{0, 1}``.

    Attributes
    ----------
    pattern:
        The factor ``f``.
    num_states:
        ``len(f) + 1``; states are ``0 .. len(f)``.
    forbidden:
        The absorbing accepting state ``len(f)``.
    table:
        ``table[s][bit]`` is the successor of state ``s`` on input bit
        ``bit`` (0 or 1).  ``table[forbidden][b] == forbidden``.
    """

    __slots__ = ("pattern",)

    def __init__(self, f: str):
        validate_word(f, name="forbidden factor")
        if not f:
            raise ValueError("forbidden factor must be non-empty")
        super().__init__([f])
        self.pattern = f

    def step(self, state: int, bit: str) -> int:
        """Single transition on ``bit`` (``'0'`` or ``'1'``)."""
        if bit not in ("0", "1"):
            raise ValueError(f"bit must be '0' or '1', got {bit!r}")
        return self.table[state][bit == "1"]

    def run(self, b: str) -> int:
        """Run on word ``b`` from the start state; return the final state."""
        s = 0
        table = self.table
        for ch in b:
            s = table[s][ch == "1"]
        return s

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"FactorAutomaton({self.pattern!r}, states={self.num_states})"
