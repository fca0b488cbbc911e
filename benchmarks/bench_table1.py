"""T1 -- Table 1 (Section 5): classification of all factors, |f| <= 5.

Regenerates the paper's only table with the theorem engine + the two
brute-force "computer check" gaps, diffs it cell-by-cell against the
printed table, and times the full regeneration.
"""

import pytest

from repro.classify.table1 import classification_table, table1_expected

from conftest import print_table


def build_table():
    return classification_table(max_length=5, max_d=9)


def test_bench_table1_regeneration(benchmark):
    rows = benchmark(build_table)
    got = {r.f: r.threshold for r in rows}
    expected = table1_expected()
    assert got == expected, "regenerated Table 1 deviates from the paper"
    print_table(
        "Table 1 (paper) vs regenerated",
        ["factor", "paper", "measured", "decided by"],
        [
            (
                r.f,
                "always" if expected[r.f] is None else f"d <= {expected[r.f]}",
                "always" if r.threshold is None else f"d <= {r.threshold}",
                "; ".join(r.sources),
            )
            for r in rows
        ],
    )


@pytest.mark.parametrize("f,d", [("10110", 6), ("10101", 6), ("10101", 7)])
def test_bench_table1_computer_checks(benchmark, f, d):
    """The paper's footnoted computer checks, timed individually."""
    from repro.isometry import is_isometric

    result = benchmark(is_isometric, (f, d))
    assert result is True
