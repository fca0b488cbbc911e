"""repro: a full reproduction of "Generalized Fibonacci cubes".

The generalized Fibonacci cube :math:`Q_d(f)` is the subgraph of the
hypercube :math:`Q_d` induced by the binary words of length ``d`` avoiding
the factor ``f``; :math:`Q_d(11)` is the Fibonacci cube.  This package
reproduces the paper by Ilic, Klavzar and Rho (Discrete Mathematics 312
(2012) 2-11; the family name goes back to the ICPP'93 line of Hsu and
Liu): the embeddability theory :math:`Q_d(f) \\hookrightarrow Q_d`, the
complete classification for ``|f| <= 5`` (Table 1), the enumerative
invariants of Section 6, the ``f``-dimension of Section 7, the Section 8
conjecture lab, and the interconnection-network experiments of the 1993
lineage.

Quickstart
----------
>>> from repro import generalized_fibonacci_cube, classify, is_isometric
>>> cube = generalized_fibonacci_cube("101", 4)   # Fig. 1 of the paper
>>> cube.num_vertices
12
>>> str(classify("1100", 7))
'f=1100 d=7: Q_d(f) NOT iso in Q_d [Theorem 3.3(ii) via 1100]'
>>> is_isometric(("1100", 6))
True

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-versus-measured record of every table and figure.
"""

from repro.classify import (
    Status,
    Verdict,
    classification_table,
    classify,
    classify_with_bruteforce,
    table1_expected,
)
from repro.combinat import fibonacci, gamma_edge_count, gamma_vertex_count
from repro.cubes import (
    GeneralizedFibonacciCube,
    canonical_factor,
    factor_orbit,
    fibonacci_cube,
    generalized_fibonacci_cube,
    hypercube,
    lucas_cube,
)
from repro.dimension import f_dimension, isometric_dimension
from repro.graphs import Graph
from repro.invariants import brute_counts, recurrences_110, recurrences_111
from repro.isometry import (
    find_critical_pair,
    idim,
    is_isometric,
    is_partial_cube,
    isometry_report,
    paper_critical_pair,
)
from repro.words import (
    FactorAutomaton,
    count_edges_automaton,
    count_squares_automaton,
    count_vertices_automaton,
    list_avoiding,
)

__version__ = "1.0.0"

__all__ = [
    "Status",
    "Verdict",
    "classification_table",
    "classify",
    "classify_with_bruteforce",
    "table1_expected",
    "fibonacci",
    "gamma_edge_count",
    "gamma_vertex_count",
    "GeneralizedFibonacciCube",
    "canonical_factor",
    "factor_orbit",
    "fibonacci_cube",
    "generalized_fibonacci_cube",
    "hypercube",
    "lucas_cube",
    "f_dimension",
    "isometric_dimension",
    "Graph",
    "brute_counts",
    "recurrences_110",
    "recurrences_111",
    "find_critical_pair",
    "idim",
    "is_isometric",
    "is_partial_cube",
    "isometry_report",
    "paper_critical_pair",
    "FactorAutomaton",
    "count_edges_automaton",
    "count_squares_automaton",
    "count_vertices_automaton",
    "list_avoiding",
    "__version__",
]
