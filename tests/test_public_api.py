"""Public API surface and package-level doctests."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_docstring_doctests(self):
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0

    def test_subpackage_docs(self):
        import repro.classify
        import repro.combinat
        import repro.conjectures
        import repro.cubes
        import repro.dimension
        import repro.graphs
        import repro.invariants
        import repro.isometry
        import repro.network
        import repro.words

        for mod in (
            repro.classify,
            repro.combinat,
            repro.conjectures,
            repro.cubes,
            repro.dimension,
            repro.graphs,
            repro.invariants,
            repro.isometry,
            repro.network,
            repro.words,
        ):
            assert mod.__doc__ and len(mod.__doc__) > 80, mod.__name__

    def test_quickstart_flow(self):
        """The README quickstart, executed."""
        from repro import classify, generalized_fibonacci_cube, is_isometric, isometry_report

        cube = generalized_fibonacci_cube("1100", 6)
        assert cube.num_vertices == 52
        assert classify("1100", 7).status is repro.Status.NOT_ISOMETRIC
        assert is_isometric(cube)
        assert isometry_report(cube).isometric
        report = isometry_report(("101", 4))
        assert (report.first_bad_level, report.witness) == (2, ("1001", "1111"))
        verdict = classify("1100", 6)
        assert verdict.status is repro.Status.ISOMETRIC


@pytest.mark.parametrize("module", [
    "repro.words", "repro.analytic", "repro.analytic.fsm",
    "repro.words.counting", "repro.cubes",
])
def test_imports_first_in_a_fresh_interpreter(module):
    # repro.words counts through repro.analytic, whose FSM builds on
    # repro.words.aho: either package must import cleanly on its own
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_cold_start_without_networkx():
    """networkx is a test-only dependency: with it blocked, ``import repro``
    and a pure-math CLI command run, and neither imports the network
    package."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro, repro.cli\n"
        "assert repro.cli.main(['counts', '11', '5']) == 0\n"
        "assert 'repro.network' not in sys.modules, 'repro.network was imported'\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "|V(Q_5(11))| = 13" in done.stdout
