"""Engine tests + theorem-vs-ground-truth for Sections 3 and 4.

Every decided verdict of the theorem engine is validated against the
actual graphs (the isometry engine) over an exhaustive grid -- the
strongest form of reproduction for a theory paper: the theorems must
predict the machine.
"""

import pytest

from repro.classify.engine import classify, classify_with_bruteforce, decide
from repro.classify.verdict import Status
from repro.isometry import is_isometric
from repro.words.core import all_words


class TestEngineBasics:
    def test_lemma_2_1_region(self):
        v = classify("11010", 5)
        assert v.status is Status.ISOMETRIC and v.source == "Lemma 2.1"

    def test_complement_transfer(self):
        # 00 is settled through its complement 11 (Prop 3.1)
        v = classify("00", 9)
        assert v.status is Status.ISOMETRIC
        assert v.via == "11"

    def test_reverse_transfer(self):
        # 011 reversed is 110 (Thm 3.3(i))
        v = classify("011", 9)
        assert v.status is Status.ISOMETRIC

    def test_unknown_gap(self):
        # 10110 at d = 6 is the paper's computer check
        assert classify("10110", 6).status is Status.UNKNOWN

    def test_bruteforce_settles_gap(self):
        v = classify_with_bruteforce("10110", 6)
        assert v.status is Status.ISOMETRIC
        assert "brute force" in v.source

    def test_bruteforce_skips_when_decided(self):
        v = classify_with_bruteforce("11", 9)
        assert v.source == "Proposition 3.1"

    def test_decide_tri_state(self):
        assert decide("11", 9) is True
        assert decide("101", 9) is False
        assert decide("10101", 6) is None

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            classify("", 3)
        with pytest.raises(ValueError):
            classify("11", 0)
        with pytest.raises(ValueError):
            classify("21", 3)

    def test_status_not_boolean(self):
        with pytest.raises(TypeError):
            bool(Status.ISOMETRIC)


class TestTheoremsPredictTheMachine:
    """Exhaustive: every decided verdict must match brute force."""

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    def test_exhaustive_small(self, length):
        for f in all_words(length):
            for d in range(1, 9):
                v = classify(f, d)
                if v.status is Status.UNKNOWN:
                    continue
                truth = is_isometric((f, d))
                assert (v.status is Status.ISOMETRIC) == truth, (f, d, v)

    def test_proposition_3_1_family(self):
        for s in (1, 2, 3, 4):
            for d in range(1, 10):
                assert is_isometric(("1" * s, d)), (s, d)

    def test_theorem_3_3_i_family(self):
        for r in (1, 2, 3, 4):
            f = "1" * r + "0"
            for d in range(1, 10):
                assert is_isometric((f, d)), (f, d)

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_theorem_3_3_ii_exact_threshold(self, s):
        f = "11" + "0" * s
        for d in range(1, s + 8):
            expected = d <= s + 4
            assert is_isometric((f, d)) == expected, (f, d)

    def test_theorem_3_3_iii_exact_threshold(self):
        f = "111000"  # r = s = 3, threshold 9
        for d in range(7, 12):
            assert is_isometric((f, d)) == (d <= 9), d

    def test_theorem_4_3_family(self):
        for s in (2, 3):
            f = "1" * s + "0" + "1" * s + "0"
            for d in range(1, 11):
                assert is_isometric((f, d)), (f, d)

    def test_theorem_4_4_family(self):
        for s in (1, 2, 3):
            f = "10" * s
            for d in range(1, 11):
                assert is_isometric((f, d)), (f, d)

    def test_proposition_4_1_exact(self):
        # f = 10101 (s=2): isometric up to 7, never after (4s = 8)
        for d in range(1, 11):
            assert is_isometric(("10101", d)) == (d <= 7), d

    def test_proposition_4_2_exact(self):
        # f = 10110 (r=s=1): isometric up to 6, not from 7 = 2r+2s+3
        for d in range(1, 11):
            assert is_isometric(("10110", d)) == (d <= 6), d

    def test_proposition_5_1_family(self):
        for d in range(1, 12):
            assert is_isometric(("11010", d)), d


class TestGapHonesty:
    """The engine must claim UNKNOWN exactly where the paper needed a computer."""

    def test_computer_check_cases_are_unknown(self):
        assert classify("1100", 6).status is not Status.UNKNOWN  # Thm 3.3(ii) covers it
        assert classify("10110", 6).status is Status.UNKNOWN
        assert classify("10101", 6).status is Status.UNKNOWN
        assert classify("10101", 7).status is Status.UNKNOWN

    def test_prop_4_1_gap_range(self):
        # (10)^3 1: |f| = 7, threshold 4s = 12; gap is 8..11
        f = "1010101"
        for d in range(8, 12):
            assert classify(f, d).status is Status.UNKNOWN, d
        assert classify(f, 12).status is Status.NOT_ISOMETRIC
        assert classify(f, 7).status is Status.ISOMETRIC
