"""Unit tests for the factor automaton (the one-factor Aho--Corasick case)."""

import itertools

import pytest

from repro.analytic.enumeration import vertex_system
from repro.words.aho import MultiFactorAutomaton
from repro.words.automaton import FactorAutomaton

from tests.conftest import naive_all_words


class TestAutomaton:
    @pytest.mark.parametrize("f", ["1", "0", "11", "10", "110", "101", "1010", "11010", "10010"])
    def test_avoids_matches_substring_test(self, f):
        auto = FactorAutomaton(f)
        for d in range(0, 8):
            for w in naive_all_words(d):
                assert auto.avoids(w) == (f not in w), (f, w)

    def test_run_reaches_forbidden_and_stays(self):
        auto = FactorAutomaton("101")
        assert auto.run("0101") == auto.forbidden
        assert auto.run("010111") == auto.forbidden  # absorbing

    def test_run_partial_progress(self):
        auto = FactorAutomaton("110")
        # "11" matches 2 characters of the pattern
        assert auto.run("11") == 2

    def test_step_rejects_bad_bit(self):
        auto = FactorAutomaton("11")
        with pytest.raises(ValueError):
            auto.step(0, "2")

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            FactorAutomaton("")

    def test_non_binary_pattern_rejected(self):
        with pytest.raises(ValueError):
            FactorAutomaton("12")

    def test_num_states(self):
        assert FactorAutomaton("1101").num_states == 5

    @pytest.mark.parametrize("n", range(1, 7))
    def test_table_is_the_prefix_automaton(self, n):
        # state s reads "the longest suffix of the input that is a prefix
        # of f has length s": check every transition against that
        # definition, computed naively from the prefix f[:s]
        for bits in itertools.product("01", repeat=n):
            f = "".join(bits)
            auto = FactorAutomaton(f)
            assert auto.pattern == f
            assert auto.table == MultiFactorAutomaton([f]).table
            for s in range(len(f)):
                for bit in "01":
                    read = f[:s] + bit
                    want = max(k for k in range(len(read) + 1)
                               if read.endswith(f[:k]))
                    assert auto.step(s, bit) == want, (f, s, bit)
            assert auto.table[auto.forbidden] == (auto.forbidden,) * 2

    def test_vertex_system_counts_words(self):
        # F_7 = 13 words of length 5 avoid 11
        assert vertex_system(FactorAutomaton("11").fsm()).term(5) == 13

    def test_single_letter_factor(self):
        # avoiding "0" leaves exactly the all-ones word at every d
        system = vertex_system(FactorAutomaton("0").fsm())
        assert system.matrix == [[1]]
        assert system.series(41) == [1] * 41
