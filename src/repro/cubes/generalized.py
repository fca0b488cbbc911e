"""The generalized Fibonacci cube :math:`Q_d(f)` -- the paper's central object.

:math:`Q_d(f)` is the subgraph of :math:`Q_d` induced by the binary words
of length ``d`` that avoid the factor ``f``.  :class:`GeneralizedFibonacciCube`
wraps the vertex set (as a sorted array of integer codes), the induced
graph, and cube-specific operations (Hamming distance between vertices,
neighbourhood in the *host* cube, bitwise-majority median closure).

Construction is vectorised: the vertex set comes from the automaton sweep
of :meth:`repro.words.aho.MultiFactorAutomaton.avoiding_int_array`, and
for each of the ``d`` directions the edge set is one XOR + sorted
membership query over the whole vertex array.  :class:`AvoidingCube`
holds that vertex set and induced graph for any avoidance automaton;
:class:`GeneralizedFibonacciCube` and
:class:`repro.cubes.multifactor.MultiFactorCube` are its one-factor and
factor-set cases.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Optional

import numpy as np

from repro.graphs.core import Graph
from repro.words.aho import MultiFactorAutomaton
from repro.words.automaton import FactorAutomaton
from repro.words.core import int_to_word, word_to_int

__all__ = ["AvoidingCube", "GeneralizedFibonacciCube", "generalized_fibonacci_cube"]


class AvoidingCube:
    """The subgraph of :math:`Q_d` induced by the words an avoidance
    automaton accepts: the vertex set as a sorted array of integer codes
    and the induced graph, shared by :math:`Q_d(f)` and :math:`Q_d(F)`.

    ``automaton`` is a :class:`~repro.words.aho.MultiFactorAutomaton`
    (a :class:`~repro.words.automaton.FactorAutomaton` for one factor).
    """

    def __init__(self, automaton: MultiFactorAutomaton, d: int):
        self.automaton = automaton
        self.d = d
        self.codes: np.ndarray = automaton.avoiding_int_array(d)
        self._graph: Optional[Graph] = None
        self._index = {int(c): i for i, c in enumerate(self.codes)}

    # -- vertex set ----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return int(self.codes.size)

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, word) -> bool:
        """Membership test for a word (``str``) or an integer code."""
        if isinstance(word, str):
            if len(word) != self.d:
                return False
            code = word_to_int(word)
        else:
            code = int(word)
        return code in self._index

    def words(self) -> List[str]:
        """All vertex words, lexicographically sorted."""
        return [int_to_word(int(c), self.d) for c in self.codes]

    def iter_words(self) -> Iterator[str]:
        for c in self.codes:
            yield int_to_word(int(c), self.d)

    def index_of_code(self, code: int) -> int:
        """Vertex index of an integer code (KeyError when absent)."""
        return self._index[code]

    def index_of_word(self, word: str) -> int:
        """Vertex index of a word (KeyError when absent)."""
        if len(word) != self.d:
            raise KeyError(f"word {word!r} has wrong length for d={self.d}")
        return self._index[word_to_int(word)]

    def code_of(self, index: int) -> int:
        return int(self.codes[index])

    def word_of(self, index: int) -> str:
        return int_to_word(int(self.codes[index]), self.d)

    # -- graph structure -------------------------------------------------------

    def graph(self) -> Graph:
        """The induced graph (built once, labels are the vertex words)."""
        if self._graph is None:
            self._graph = self._build_graph()
        return self._graph

    def _build_graph(self) -> Graph:
        codes = self.codes
        n = int(codes.size)
        g = Graph(n)
        if n:
            for i in range(self.d):
                bit = np.int64(1) << np.int64(i)
                partners = codes ^ bit
                # sorted membership: where would each partner insert?
                pos = np.minimum(np.searchsorted(codes, partners), n - 1)
                hit = codes[pos] == partners
                # add each edge once: from the endpoint with the 0-bit
                lower = (codes & bit) == 0
                for u_idx in np.flatnonzero(hit & lower):
                    g.add_edge(int(u_idx), int(pos[u_idx]))
        g.set_labels(self.words())
        return g

    @property
    def num_edges(self) -> int:
        return self.graph().num_edges


class GeneralizedFibonacciCube(AvoidingCube):
    """The graph :math:`Q_d(f)` with its word structure retained.

    Parameters
    ----------
    f:
        Non-empty forbidden factor over ``{0, 1}``.
    d:
        Word length (cube dimension), ``d >= 0``.

    Notes
    -----
    For ``d < len(f)`` no word can contain ``f``, so
    :math:`Q_d(f) = Q_d`; for ``d == len(f)`` exactly the word ``f``
    itself is removed (Lemma 2.1 territory).
    """

    def __init__(self, f: str, d: int):
        automaton = FactorAutomaton(f)
        if d < 0:
            raise ValueError(f"dimension must be non-negative, got {d}")
        super().__init__(automaton, d)
        self.f = f

    def degree_sequence(self) -> List[int]:
        return sorted(self.graph().degrees())

    # -- cube-specific operations ----------------------------------------------

    def hamming(self, i: int, j: int) -> int:
        """Host-cube distance :math:`d_{Q_d}` between vertices ``i`` and ``j``."""
        return int(self.codes[i] ^ self.codes[j]).bit_count()

    def host_neighbors(self, i: int) -> List[int]:
        """Codes of all ``d`` neighbours of vertex ``i`` in the *host* cube
        :math:`Q_d` (present in this cube or not)."""
        c = int(self.codes[i])
        return [c ^ (1 << k) for k in range(self.d)]

    def is_median_closed(self) -> bool:
        """Is :math:`Q_d(f)` closed under bitwise majority in :math:`Q_d`?

        By Mulder's theorem this is equivalent (for induced connected
        subgraphs) to being a median graph; Proposition 6.4 proves it holds
        iff ``len(f) == 2``.  One scan, :meth:`median_violation`.
        """
        return self.median_violation() is None

    def median_violation(self):
        """A triple of words whose majority is missing, or ``None`` if closed.

        Cubic in the number of vertices with a tiny constant: the
        majority ``(a & b) | (c & (a | b))`` costs one AND and one OR per
        triple once the pair terms are hoisted out of the inner loop.
        """
        codes = [int(c) for c in self.codes]
        index = self._index
        n = len(codes)
        for a_pos in range(n):
            a = codes[a_pos]
            for b_pos in range(a_pos + 1, n):
                b = codes[b_pos]
                ab = a & b
                ab_or = a | b
                for c_pos in range(b_pos + 1, n):
                    c = codes[c_pos]
                    if (ab | (c & ab_or)) not in index:
                        return (
                            int_to_word(a, self.d),
                            int_to_word(b, self.d),
                            int_to_word(c, self.d),
                        )
        return None

    def __repr__(self) -> str:
        return f"GeneralizedFibonacciCube(f={self.f!r}, d={self.d}, n={self.num_vertices})"


@lru_cache(maxsize=256)
def generalized_fibonacci_cube(f: str, d: int) -> GeneralizedFibonacciCube:
    """Cached constructor for :class:`GeneralizedFibonacciCube`.

    The cubes are immutable once built, and the experiment harnesses touch
    the same ``(f, d)`` pairs from many angles, so memoizing the
    construction keeps the benchmark suite honest about algorithm cost
    rather than rebuild cost.
    """
    return GeneralizedFibonacciCube(f, d)
