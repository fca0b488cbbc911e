"""Lemma 2.4 p-critical words: search and paper constructions."""

import pytest

from repro.isometry import is_isometric
from repro.isometry.critical import (
    CriticalPair,
    find_critical_pair,
    paper_critical_pair,
    verify_critical_pair,
)
from repro.words.core import hamming


class TestVerification:
    def test_paper_prop32_example(self):
        # f = 101, d = 4: b = 1101? no -- use the Prop 3.2 shape directly:
        # r=s=t=1, d=4: b = 1 1 0^0 1 1 -> "1111"? stick to the generator
        pair = paper_critical_pair("101", 4)
        assert verify_critical_pair("101", pair.b, pair.c)

    def test_invalid_pair_rejected(self):
        # vertices of Q_4(11) at distance 2 with a free interval neighbour
        assert not verify_critical_pair("11", "0000", "0101")

    def test_wrong_length_pair(self):
        assert not verify_critical_pair("11", "000", "0101")

    def test_pair_containing_factor_rejected(self):
        assert not verify_critical_pair("11", "1100", "0000")

    def test_distance_one_rejected(self):
        assert not verify_critical_pair("101", "0000", "0001")

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            CriticalPair("11", 4, "0000", "0101", 2, source="bogus")


class TestSearch:
    def test_finds_pair_exactly_when_not_isometric(self):
        # Lemma 2.4 gives one direction; for these small cubes the search
        # also certifies the converse experimentally.
        for f, d in [("101", 4), ("1101", 5), ("1100", 7), ("10110", 7)]:
            assert not is_isometric((f, d))
            pair = find_critical_pair((f, d))
            assert pair is not None, (f, d)
            assert pair.source == "search"

    def test_no_pair_in_isometric_cubes(self):
        for f, d in [("11", 6), ("110", 6), ("1010", 7), ("11010", 7)]:
            assert find_critical_pair((f, d), p_max=3) is None, (f, d)

    def test_search_respects_p_max(self):
        # Q_7(1100) has a 3-critical pair but no 2-critical pair
        assert find_critical_pair(("1100", 7), p_max=2) is None
        pair = find_critical_pair(("1100", 7), p_max=3)
        assert pair is not None and pair.p == 3


class TestPaperConstructions:
    @pytest.mark.parametrize(
        "f,d_min",
        [
            ("101", 4),      # r=s=t=1
            ("1101", 5),     # r=2,s=1,t=1
            ("1001", 5),     # r=1,s=2,t=1
            ("11011", 6),    # r=2,s=1,t=2
            ("10001", 6),    # r=1,s=3,t=1
            ("1110111", 8),  # r=3,s=1,t=3
        ],
    )
    def test_prop_3_2_all_d(self, f, d_min):
        for d in range(d_min, d_min + 4):
            pair = paper_critical_pair(f, d)
            assert pair is not None and pair.source == "Proposition 3.2"
            assert pair.p == 2
            assert len(pair.b) == d

    def test_prop_3_2_below_threshold_gives_nothing(self):
        assert paper_critical_pair("101", 3) is None

    @pytest.mark.parametrize("s", [4, 5, 6])
    def test_thm_3_3_case1(self, s):
        f = "11" + "0" * s
        for d in range(s + 5, min(2 * s + 2, s + 8)):
            pair = paper_critical_pair(f, d)
            assert pair is not None, (f, d)
            assert pair.p == 2

    def test_thm_3_3_r2s2_three_critical(self):
        for d in range(7, 11):
            pair = paper_critical_pair("1100", d)
            assert pair is not None and pair.p == 3

    @pytest.mark.parametrize(
        "f,thresh",
        [("11100", 8), ("111000", 10), ("1110000", 12)],
    )
    def test_thm_3_3_case2(self, f, thresh):
        # d >= 2r + 2s - 2
        for d in range(thresh, thresh + 3):
            pair = paper_critical_pair(f, d)
            assert pair is not None, (f, d)

    @pytest.mark.parametrize("s", [2, 3])
    def test_prop_4_1(self, s):
        f = "10" * s + "1"
        for d in range(4 * s, 4 * s + 3):
            pair = paper_critical_pair(f, d)
            assert pair is not None and pair.source == "Proposition 4.1"

    def test_prop_4_1_below_threshold(self):
        assert paper_critical_pair("10101", 7) is None

    @pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_prop_4_2(self, r, s):
        f = "10" * r + "1" + "10" * s
        d0 = 2 * r + 2 * s + 3
        for d in range(d0, d0 + 3):
            pair = paper_critical_pair(f, d)
            assert pair is not None and pair.source == "Proposition 4.2"

    def test_unmatched_factor_returns_none(self):
        assert paper_critical_pair("11", 9) is None
        assert paper_critical_pair("1010", 9) is None

    def test_constructed_pairs_are_hamming_p(self):
        for f, d in [("101", 6), ("1100", 9), ("10101", 9), ("10110", 8)]:
            pair = paper_critical_pair(f, d)
            assert pair is not None
            assert hamming(pair.b, pair.c) == pair.p
