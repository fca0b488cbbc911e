"""Enumeration of factor-avoiding words (vertex sets of :math:`Q_d(f)`).

Both engines are the factor automaton's
(:class:`repro.words.automaton.FactorAutomaton`, the one-factor case of
:class:`repro.words.aho.MultiFactorAutomaton`):

- :func:`iter_avoiding` walks the automaton depth-first, so only the
  surviving prefixes are extended -- output is lexicographic and the cost
  is proportional to the number of nodes of the surviving prefix tree (in
  particular it never touches the :math:`2^d` rejected words that a naive
  filter would).
- :func:`avoiding_int_array` produces the same set as a sorted NumPy
  ``int64`` array of integer codes, via a vectorised level-by-level sweep
  of automaton state vectors -- this is the bulk builder used by the graph
  constructors.

Both agree with the naive filter; the test-suite cross-validates them.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.words.automaton import FactorAutomaton

__all__ = [
    "iter_avoiding",
    "list_avoiding",
    "avoiding_int_array",
    "count_avoiding_bruteforce",
]


def iter_avoiding(f: str, d: int) -> Iterator[str]:
    """Yield all length-``d`` words avoiding factor ``f``, lexicographically.

    These are exactly the vertices of the generalized Fibonacci cube
    :math:`Q_d(f)`.  ``d == 0`` yields the empty word (which avoids every
    non-empty ``f``).
    """
    return FactorAutomaton(f).iter_avoiding(d)


def list_avoiding(f: str, d: int) -> List[str]:
    """Materialized :func:`iter_avoiding` (lexicographic list of words)."""
    return list(iter_avoiding(f, d))


def avoiding_int_array(f: str, d: int) -> np.ndarray:
    """Sorted ``int64`` codes of all length-``d`` words avoiding ``f``.

    The code of a word puts its first letter in the most significant bit
    (see :func:`repro.words.core.word_to_int`), so the returned array is
    sorted both numerically and lexicographically.
    """
    return FactorAutomaton(f).avoiding_int_array(d)


def count_avoiding_bruteforce(f: str, d: int) -> int:
    """Count avoiding words by enumeration (reference for the automaton count)."""
    return int(avoiding_int_array(f, d).size)
