"""Shared fixtures and naive reference implementations.

Every reference here is deliberately the dumbest possible correct
implementation (filter all 2^d words, O(n^3) medians, ...) so the tests
cross-validate the real engines against something with no shared code or
shared cleverness.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import List, Set

import pytest

from repro.graphs.core import Graph
from repro.graphs.traversal import bfs_distances
from repro.isometry import is_isometric, isometric_defect, isometry_report

# -- tier-1 wall-clock budget -------------------------------------------------
#
# The suite is the repo's tier-1 gate and must stay fast enough to run on
# every push.  When REPRO_TIER1_BUDGET_SECONDS is set (CI sets it; local
# runs default to no budget) a session that takes longer FAILS, so suite
# growth is a red build instead of slow rot.  Heavy tests carry the
# ``heavy`` marker and can be shed first: ``pytest -m "not heavy"``.

_SESSION_T0 = 0.0


def pytest_sessionstart(session):
    global _SESSION_T0
    _SESSION_T0 = time.monotonic()


def pytest_sessionfinish(session, exitstatus):
    budget = float(os.environ.get("REPRO_TIER1_BUDGET_SECONDS", "0") or 0)
    if budget <= 0:
        return
    elapsed = time.monotonic() - _SESSION_T0
    if elapsed > budget:
        print(
            f"\nFAILED tier-1 wall-clock budget: suite took {elapsed:.1f}s "
            f"(budget {budget:.0f}s). Trim or mark tests 'heavy' "
            "(see --durations report above)."
        )
        session.exitstatus = 1


def naive_all_words(d: int) -> List[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=d)]


def naive_avoiding(f: str, d: int) -> List[str]:
    return [w for w in naive_all_words(d) if f not in w]


def naive_hamming(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


def naive_count_edges(f: str, d: int) -> int:
    words = set(naive_avoiding(f, d))
    count = 0
    for w in words:
        for i in range(d):
            flipped = w[:i] + ("1" if w[i] == "0" else "0") + w[i + 1 :]
            if flipped in words:
                count += 1
    return count // 2


def naive_count_squares(f: str, d: int) -> int:
    words: Set[str] = set(naive_avoiding(f, d))
    count = 0
    for w in words:
        zeros = [i for i in range(d) if w[i] == "0"]
        for a in range(len(zeros)):
            for b in range(a + 1, len(zeros)):
                i, j = zeros[a], zeros[b]
                w_i = w[:i] + "1" + w[i + 1 :]
                w_j = w[:j] + "1" + w[j + 1 :]
                w_ij = w_i[:j] + "1" + w_i[j + 1 :]
                if w_i in words and w_j in words and w_ij in words:
                    count += 1
    return count


def naive_isometry(cube):
    """Every isometry answer straight from the definitions, shaped like
    :func:`isometry_answers`: deque BFS rows against ``int.bit_count``
    Hamming rows, pairs scanned in row-major order."""
    g = cube.graph()
    codes = [int(c) for c in cube.codes]
    bad = []  # (i, j, cube distance, Hamming distance) in row-major order
    for i, ci in enumerate(codes):
        inner = bfs_distances(g, i).tolist()
        for j, cj in enumerate(codes):
            outer = (ci ^ cj).bit_count()
            if inner[j] != outer:
                bad.append((i, j, inner[j], outer))
    if not bad:
        return True, None, (True, None, None, 0)
    i, j, inner, outer = bad[0]
    defect = (cube.word_of(i), cube.word_of(j), inner, outer)
    level = min(b[3] for b in bad)
    i, j = next((b[0], b[1]) for b in bad if b[3] == level)
    return False, defect, (False, level, (cube.word_of(i), cube.word_of(j)), len(bad))


def isometry_answers(cube):
    """The isometry engine's answers: ``(is_isometric, isometric_defect,
    (isometric, first_bad_level, witness, num_bad_pairs))``."""
    rep = isometry_report(cube)
    fields = (rep.isometric, rep.first_bad_level, rep.witness, rep.num_bad_pairs)
    return is_isometric(cube), isometric_defect(cube), fields


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    def idx(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
    return Graph.from_edges(rows * cols, edges)


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


@pytest.fixture
def p4() -> Graph:
    return path_graph(4)


@pytest.fixture
def c6() -> Graph:
    return cycle_graph(6)


@pytest.fixture
def k4() -> Graph:
    return complete_graph(4)
