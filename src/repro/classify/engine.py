"""Classification engine combining the paper's rules with brute force.

:func:`classify` is purely deductive: it canvasses every rule over the
complement/reversal orbit of ``f`` (Lemmas 2.2/2.3) and returns the first
decided verdict, raising if two rules were ever to disagree -- i.e. the
engine doubles as a machine-checked consistency test of the paper's
statements.  :func:`classify_with_bruteforce` settles the remaining
UNKNOWN cases by running the isometry engine on the actual graphs, which
reproduces the paper's "checked by computer" footnotes.
"""

from __future__ import annotations

from typing import Optional

from repro.classify.rules import applicable_rules
from repro.classify.verdict import Status, Verdict
from repro.isometry.bruteforce import is_isometric
from repro.words.core import validate_word
from repro.words.counting import count_vertices_automaton

__all__ = ["classify", "classify_with_bruteforce"]


def classify(f: str, d: int) -> Verdict:
    """Deductive verdict for :math:`Q_d(f) \\hookrightarrow Q_d`.

    Applies every matching paper statement over the whole symmetry orbit
    of ``f`` and cross-checks that decided verdicts agree (an
    :class:`AssertionError` here would mean the paper contradicts
    itself -- the test-suite sweeps this over thousands of cases).
    """
    validate_word(f, name="forbidden factor")
    if not f:
        raise ValueError("forbidden factor must be non-empty")
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got {d}")
    verdicts = applicable_rules(f, d)
    decided = [v for v in verdicts if v.status is not Status.UNKNOWN]
    for i in range(1, len(decided)):
        if not decided[0].agrees_with(decided[i]):
            raise AssertionError(
                f"paper statements disagree on f={f!r}, d={d}: "
                f"{decided[0]} vs {decided[i]}"
            )
    if decided:
        return decided[0]
    return Verdict(f, d, Status.UNKNOWN, "no applicable statement", f)


def classify_with_bruteforce(f: str, d: int, max_vertices: int = 300000) -> Verdict:
    """Verdict with computational fallback for the theorem gaps.

    When :func:`classify` returns UNKNOWN and the cube has at most
    ``max_vertices`` vertices, the isometry engine
    (:func:`~repro.isometry.is_isometric`) checks the actual graph and
    the verdict's source reads ``"brute force"``.
    """
    verdict = classify(f, d)
    if verdict.status is not Status.UNKNOWN:
        return verdict
    if count_vertices_automaton(f, d) > max_vertices:
        return verdict
    status = Status.ISOMETRIC if is_isometric((f, d)) else Status.NOT_ISOMETRIC
    return Verdict(f, d, status, "brute force", f)


def decide(f: str, d: int) -> Optional[bool]:
    """Convenience: ``True``/``False`` when decided deductively, else ``None``."""
    v = classify(f, d)
    if v.status is Status.ISOMETRIC:
        return True
    if v.status is Status.NOT_ISOMETRIC:
        return False
    return None
