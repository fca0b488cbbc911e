"""Property-based tests (hypothesis) across the cube/isometry layer.

Random factors and dimensions; the invariants under test are the paper's
own structural facts, so these are randomized reproductions rather than
generic fuzzing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classify.engine import classify
from repro.classify.verdict import Status
from repro.cubes.generalized import GeneralizedFibonacciCube, generalized_fibonacci_cube
from repro.cubes.symmetries import factor_orbit
from repro.invariants.distances import wiener_by_cuts, wiener_index
from repro.isometry import is_isometric
from repro.words.core import complement, hamming, reverse
from repro.words.counting import count_edges_automaton, count_vertices_automaton
from repro.words.correlation import count_avoiding_gf

from tests.conftest import isometry_answers, naive_isometry

factors = st.text(alphabet="01", min_size=1, max_size=5)
dims = st.integers(min_value=1, max_value=7)


@given(factors, dims)
@settings(max_examples=80, deadline=None)
def test_engine_matches_the_oracle(f, d):
    """The isometry engine gives the oracle's verdict, defect and report."""
    cube = generalized_fibonacci_cube(f, d)
    assert isometry_answers(cube) == naive_isometry(cube)


@given(factors, dims)
@settings(max_examples=80, deadline=None)
def test_counting_engines_agree(f, d):
    """Enumeration, transfer matrix, and Guibas-Odlyzko all count alike."""
    cube = GeneralizedFibonacciCube(f, d)
    assert cube.num_vertices == count_vertices_automaton(f, d)
    assert cube.num_vertices == count_avoiding_gf(f, d)
    assert cube.num_edges == count_edges_automaton(f, d)


@given(factors, dims)
@settings(max_examples=60, deadline=None)
def test_orbit_invariance(f, d):
    """Lemmas 2.2/2.3: everything transfers along the symmetry orbit."""
    base_v = count_vertices_automaton(f, d)
    base_e = count_edges_automaton(f, d)
    base_iso = is_isometric((f, d))
    for g in factor_orbit(f):
        assert count_vertices_automaton(g, d) == base_v
        assert count_edges_automaton(g, d) == base_e
        assert is_isometric((g, d)) == base_iso


@given(factors, dims)
@settings(max_examples=60, deadline=None)
def test_theorem_engine_sound(f, d):
    """Any decided verdict matches the machine (soundness of the rules)."""
    v = classify(f, d)
    if v.status is Status.UNKNOWN:
        return
    assert (v.status is Status.ISOMETRIC) == is_isometric((f, d))


@given(factors, dims)
@settings(max_examples=40, deadline=None)
def test_lemma_2_1_region(f, d):
    """d <= |f| always embeds (Lemma 2.1), randomized."""
    if d <= len(f):
        assert is_isometric((f, d))


@given(factors, dims)
@settings(max_examples=40, deadline=None)
def test_wiener_cut_witness(f, d):
    """Aggregate isometry witness: cut-Wiener == Wiener iff isometric
    (on connected cubes with >= 2 vertices)."""
    from repro.graphs.traversal import is_connected

    cube = GeneralizedFibonacciCube(f, d)
    if cube.num_vertices < 2 or not is_connected(cube.graph()):
        return
    equal = wiener_by_cuts(cube) == wiener_index(cube)
    assert equal == is_isometric(cube)


@given(factors, dims, st.data())
@settings(max_examples=60, deadline=None)
def test_adjacency_is_exactly_hamming_one(f, d, data):
    cube = GeneralizedFibonacciCube(f, d)
    if cube.num_vertices < 2:
        return
    g = cube.graph()
    i = data.draw(st.integers(min_value=0, max_value=cube.num_vertices - 1))
    j = data.draw(st.integers(min_value=0, max_value=cube.num_vertices - 1))
    if i == j:
        return
    expected = hamming(cube.word_of(i), cube.word_of(j)) == 1
    assert g.has_edge(i, j) == expected


@given(factors)
@settings(max_examples=60, deadline=None)
def test_orbit_is_group_action(f):
    orbit = set(factor_orbit(f))
    assert {complement(g) for g in orbit} == orbit
    assert {reverse(g) for g in orbit} == orbit
