"""The isometry engine on known verdicts, defects and reports.

The verdicts come straight from Table 1; ``test_oracle.py`` checks the
engine against an independent oracle on every small factor.
"""

import pytest

from repro.cubes.generalized import generalized_fibonacci_cube
from repro.cubes.multifactor import multi_factor_cube
from repro.isometry import (
    is_isometric,
    isometric_defect,
    isometry_report,
    subgraph_distances,
)
from repro.words.core import hamming


# cases with known verdicts straight from Table 1
KNOWN = [
    ("11", 8, True),
    ("111", 8, True),
    ("110", 8, True),
    ("101", 3, True),
    ("101", 4, False),
    ("1100", 6, True),
    ("1100", 7, False),
    ("1010", 9, True),
    ("1101", 4, True),
    ("1101", 5, False),
    ("1001", 5, False),
    ("11010", 9, True),
    ("10110", 6, True),
    ("10110", 7, False),
    ("10101", 7, True),
    ("10101", 8, False),
    ("11100", 7, True),
    ("11100", 8, False),
]


class TestKnownVerdicts:
    @pytest.mark.parametrize("f,d,expected", KNOWN)
    def test_engine(self, f, d, expected):
        assert is_isometric((f, d)) == expected

    @pytest.mark.parametrize("f,d,expected", KNOWN)
    def test_defect_and_report_agree(self, f, d, expected):
        assert (isometric_defect((f, d)) is None) == expected
        assert isometry_report((f, d)).isometric == expected


class TestDefects:
    def test_isometric_has_no_defect(self):
        assert isometric_defect(("11", 7)) is None

    def test_defect_structure(self):
        b, c, inner, outer = isometric_defect(("101", 4))
        cube = generalized_fibonacci_cube("101", 4)
        assert b in cube and c in cube
        assert hamming(b, c) == outer
        assert inner > outer or inner == -1

    def test_report_witness_is_critical_level(self):
        rep = isometry_report(("101", 4))
        assert not rep.isometric
        assert rep.first_bad_level == 2
        b, c = rep.witness
        assert hamming(b, c) == 2
        assert rep.num_bad_pairs > 0

    def test_report_isometric(self):
        rep = isometry_report(("110", 7))
        assert rep.isometric
        assert rep.first_bad_level is None
        assert rep.witness is None
        assert rep.num_bad_pairs == 0

    def test_single_vertex_cube_is_isometric(self):
        # f = "1", all-zero word only
        assert is_isometric(("1", 5))
        assert isometric_defect(("1", 5)) is None
        assert isometry_report(("1", 5)).isometric

    def test_all_eight_code_bytes_count(self):
        """Hamming distances take every byte of the 64-bit codes: the
        two words of Q_62({11, 00}) differ in all 62 bits and are not
        connected."""
        cube = multi_factor_cube(("11", "00"), 62)
        assert isometric_defect(cube) == ("01" * 31, "10" * 31, -1, 62)
        rep = isometry_report(cube)
        assert (rep.first_bad_level, rep.num_bad_pairs) == (62, 2)
        assert is_isometric(("10", 62))  # a path of 63 words, Hamming = path distance


class TestSubgraphDistances:
    def test_distances_from_zero_match_hamming_when_isometric(self):
        cube = generalized_fibonacci_cube("11", 6)
        i0 = cube.index_of_word("000000")
        dist = subgraph_distances(cube, i0)
        for j in range(len(cube)):
            assert dist[j] == bin(cube.code_of(j)).count("1")

    def test_accepts_tuple(self):
        dist = subgraph_distances(("11", 4), 0)
        assert dist[0] == 0

    @pytest.mark.parametrize("source", [-1, 8])
    def test_source_out_of_range(self, source):
        with pytest.raises(IndexError):
            subgraph_distances(("11", 4), source)  # Q_4(11) has 8 vertices
