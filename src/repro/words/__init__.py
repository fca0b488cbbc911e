"""Binary-word substrate.

Everything in the paper happens on binary strings: vertices of the
hypercube :math:`Q_d` are words of length ``d`` over ``{0, 1}``, and the
generalized Fibonacci cube :math:`Q_d(f)` keeps exactly the words that do
*not* contain the forbidden factor ``f`` as a contiguous substring.

This package provides:

- :mod:`repro.words.core` -- primitive operations (complement, reverse,
  blocks, factor tests, bit flips, Hamming distance, int conversions);
- :mod:`repro.words.aho` -- the Aho--Corasick automaton of a factor set,
  for linear-time avoidance tests and enumeration;
- :mod:`repro.words.automaton` -- :class:`FactorAutomaton`, its
  one-factor case;
- :mod:`repro.words.enumerate` -- enumeration of all factor-avoiding words
  of a given length (the vertex sets of generalized Fibonacci cubes);
- :mod:`repro.words.counting` -- exact big-integer counting of vertices,
  edges and squares of :math:`Q_d(f)` for *huge* ``d``, without
  enumerating anything: thin wrappers over the marked-product counting
  systems of :mod:`repro.analytic.enumeration`.
"""

from repro.words.core import (
    all_words,
    blocks,
    block_string,
    complement,
    concat_blocks,
    contains_factor,
    e_i,
    flip,
    hamming,
    int_to_word,
    is_binary_word,
    reverse,
    word_add,
    word_to_int,
)
from repro.words.aho import MultiFactorAutomaton
from repro.words.automaton import FactorAutomaton
from repro.words.gray import (
    gray_code,
    gray_rank,
    gray_rank_order,
    gray_unrank,
    gray_words,
    is_gray_order,
)
from repro.words.correlation import (
    autocorrelation,
    correlation_polynomial,
    count_avoiding_gf,
)
from repro.words.enumerate import (
    avoiding_int_array,
    count_avoiding_bruteforce,
    iter_avoiding,
    list_avoiding,
)
from repro.words.counting import (
    count_edges_automaton,
    count_squares_automaton,
    count_vertices_automaton,
)

__all__ = [
    "all_words",
    "blocks",
    "block_string",
    "complement",
    "concat_blocks",
    "contains_factor",
    "e_i",
    "flip",
    "hamming",
    "int_to_word",
    "is_binary_word",
    "reverse",
    "word_add",
    "word_to_int",
    "FactorAutomaton",
    "MultiFactorAutomaton",
    "gray_code",
    "gray_rank",
    "gray_rank_order",
    "gray_unrank",
    "gray_words",
    "is_gray_order",
    "autocorrelation",
    "correlation_polynomial",
    "count_avoiding_gf",
    "avoiding_int_array",
    "count_avoiding_bruteforce",
    "iter_avoiding",
    "list_avoiding",
    "count_edges_automaton",
    "count_squares_automaton",
    "count_vertices_automaton",
]
