"""The isometry engine against an independent oracle.

The oracle (:func:`tests.conftest.naive_isometry`) shares no code with
the engine: it runs the deque reference BFS from every vertex, takes
Hamming distances with ``int.bit_count`` and derives every answer the
engine gives -- the verdict, the first defect and all four
:class:`~repro.isometry.bruteforce.IsometryReport` fields -- straight
from the definitions.  The grid is every factor with ``|f| <= 5`` at
``d <= 7`` (the whole space the hypothesis tests sample) plus
multi-factor cubes.
"""

import tracemalloc

import pytest

from repro.cubes.generalized import generalized_fibonacci_cube
from repro.cubes.multifactor import multi_factor_cube
from repro.isometry import isometry_report
from repro.words.core import all_words

from tests.conftest import isometry_answers, naive_isometry

FACTOR_SETS = [("111", "000"), ("11", "00"), ("11", "000"), ("110", "011"), ("101", "010")]


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_every_small_factor_matches_the_oracle(length):
    for f in all_words(length):
        for d in range(1, 8):
            cube = generalized_fibonacci_cube(f, d)
            assert isometry_answers(cube) == naive_isometry(cube), (f, d)


@pytest.mark.parametrize("factors", FACTOR_SETS, ids=",".join)
def test_multifactor_cubes_match_the_oracle(factors):
    for d in range(1, 8):
        cube = multi_factor_cube(factors, d)
        assert isometry_answers(cube) == naive_isometry(cube), (factors, d)


def test_report_memory_is_bounded_by_blocks():
    """Memory is one block of rows, not an ``n x n`` matrix: the report on
    ``Q_11(1010)`` (1,256 vertices) peaks far below the ~60 MB that a
    quadratic engine needs."""
    tracemalloc.start()
    try:
        rep = isometry_report(("1010", 11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.isometric
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"
