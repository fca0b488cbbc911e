"""E7 -- Section 5 "checked by computer" cases, re-run from scratch.

The paper settles four cells of Table 1 by machine:

    Q_6(1100) isometric      (Theorem 3.3(ii) proof, d = 6)
    Q_6(10110) isometric     (Table 1 footnote)
    Q_6(10101) isometric     (Table 1 footnote)
    Q_7(10101) isometric     (Table 1 footnote)

The isometry engine re-derives each, and the first non-isometric
dimension right above each check is confirmed too.
"""

import pytest

from repro.isometry import is_isometric

from conftest import print_table

CHECKS = [
    ("1100", 6, True),
    ("10110", 6, True),
    ("10101", 6, True),
    ("10101", 7, True),
    # the first failures right above, for contrast
    ("1100", 7, False),
    ("10110", 7, False),
    ("10101", 8, False),
]


@pytest.mark.parametrize("f,d,expected", CHECKS)
def test_bench_e7_engine(benchmark, f, d, expected):
    assert benchmark(is_isometric, (f, d)) == expected


def test_bench_e7_report(benchmark):
    rows = benchmark(lambda: [(f, d, exp, is_isometric((f, d))) for f, d, exp in CHECKS])
    assert all(exp == got for _, _, exp, got in rows)
    print_table(
        "Section 5 computer checks, re-verified",
        ["f", "d", "paper", "engine"],
        rows,
    )
