"""Multi-factor cubes Q_d(F) and their interop with the single-factor engines."""

import pytest

from repro.cubes.generalized import generalized_fibonacci_cube
from repro.cubes.multifactor import MultiFactorCube, multi_factor_cube
from repro.graphs.traversal import is_connected
from repro.invariants.structure import structure_report
from repro.isometry import is_isometric

from tests.conftest import isometry_answers, naive_all_words, naive_isometry


class TestConstruction:
    @pytest.mark.parametrize("f", ["11", "101", "1100"])
    @pytest.mark.parametrize("d", [0, 3, 6])
    def test_singleton_equals_single_factor_cube(self, f, d):
        mc = MultiFactorCube([f], d)
        sc = generalized_fibonacci_cube(f, d)
        assert mc.words() == sc.words()
        assert mc.num_edges == sc.num_edges

    def test_monotone_in_factor_set(self):
        base = set(MultiFactorCube(["11"], 6).words())
        more = set(MultiFactorCube(["11", "000"], 6).words())
        assert more <= base

    def test_factors_deduped_sorted(self):
        mc = MultiFactorCube(["11", "11", "00"], 3)
        assert mc.factors == ("00", "11")

    def test_contains_and_index(self):
        mc = MultiFactorCube(["11", "00"], 4)
        assert "0101" in mc and "1010" in mc
        assert "0011" not in mc
        assert mc.index_of_word("0101") == 0
        with pytest.raises(KeyError):
            mc.index_of_word("010")

    def test_cache(self):
        a = multi_factor_cube(("11", "00"), 5)
        b = multi_factor_cube(("11", "00"), 5)
        assert a is b

    def test_invalid(self):
        with pytest.raises(ValueError):
            MultiFactorCube(["11"], -1)
        with pytest.raises(ValueError):
            MultiFactorCube([], 3)


class TestGraph:
    def test_edges_are_hamming_one(self):
        from repro.words.core import hamming

        mc = MultiFactorCube(["110", "011"], 5)
        g = mc.graph()
        for u, v in g.edges():
            assert hamming(g.label_of(u), g.label_of(v)) == 1

    def test_edge_count_matches_naive(self):
        factors = ["101", "010"]
        d = 6
        words = set(
            w for w in naive_all_words(d) if not any(f in w for f in factors)
        )
        count = 0
        for w in words:
            for i in range(d):
                flipped = w[:i] + ("1" if w[i] == "0" else "0") + w[i + 1 :]
                if flipped in words:
                    count += 1
        assert MultiFactorCube(factors, d).num_edges == count // 2


class TestEngineInterop:
    """The single-factor machinery runs unchanged on multi-factor cubes."""

    def test_isometry_engine_accepts_multifactor(self):
        mc = multi_factor_cube(("111", "000"), 6)
        assert isometry_answers(mc) == naive_isometry(mc)

    def test_structure_report(self):
        mc = multi_factor_cube(("11", "000"), 6)
        rep = structure_report(mc)
        assert rep.f == "000,11"
        assert rep.num_vertices == mc.num_vertices

    def test_joint_cube_can_lose_isometry(self):
        """Individually admissible factors whose joint cube disconnects:
        {11, 00} at d >= 2 leaves the two alternating words at distance d."""
        mc = multi_factor_cube(("11", "00"), 5)
        assert mc.num_vertices == 2
        assert not is_connected(mc.graph())
        assert not is_isometric(mc)

    def test_joint_cube_that_stays_isometric(self):
        # {111, 000} stays isometric up to d = 3 ...
        mc = multi_factor_cube(("111", "000"), 3)
        assert is_isometric(mc)

    def test_joint_isometry_is_not_inherited(self):
        """... but fails from d = 4 even though each factor alone is
        admissible for every d (Prop 3.1 + Lemma 2.2) -- single-factor
        embeddability does not compose under intersection."""
        mc = multi_factor_cube(("111", "000"), 4)
        assert not is_isometric(mc)

    def test_rejects_non_cube_objects(self):
        with pytest.raises(TypeError):
            is_isometric(42)
