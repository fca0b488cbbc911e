"""E8 -- Theorem 3.3 thresholds: where embeddability crosses over.

The paper's sharpest quantitative claims are the exact crossover
dimensions:

    f = 1^2 0^s (s >= 2):   isometric  iff  d <= s + 4
    f = 1^r 0^s (r,s >= 3): isometric  iff  d <= 2r + 2s - 3

We sweep the families and locate each measured crossover on the real
graphs; it must land exactly on the paper's formula.
"""

import pytest

from repro.isometry import is_isometric

from conftest import print_table


def measured_threshold(f: str, d_max: int) -> int:
    """Largest d <= d_max with Q_d(f) isometric; asserts monotonicity."""
    pattern = [is_isometric((f, d)) for d in range(1, d_max + 1)]
    if all(pattern):
        return d_max
    first_bad = pattern.index(False)
    assert not any(pattern[first_bad:]), f"non-monotone pattern for {f}: {pattern}"
    return first_bad  # 1-based d of last True


@pytest.mark.parametrize("s", [2, 3, 4, 5])
def test_bench_e8_thm33ii_crossover(benchmark, s):
    f = "11" + "0" * s
    got = benchmark(measured_threshold, f, s + 7)
    assert got == s + 4, (f, got)


@pytest.mark.parametrize("r,s", [(3, 3)])
def test_bench_e8_thm33iii_crossover(benchmark, r, s):
    f = "1" * r + "0" * s
    got = benchmark(measured_threshold, f, 2 * r + 2 * s - 1)
    assert got == 2 * r + 2 * s - 3, (f, got)


def test_bench_e8_crossover_table(benchmark):
    def sweep():
        rows = []
        for s in (2, 3, 4):
            f = "11" + "0" * s
            rows.append((f, f"s+4 = {s + 4}", measured_threshold(f, s + 7)))
        f = "111000"
        rows.append((f, "2r+2s-3 = 9", measured_threshold(f, 11)))
        return rows

    rows = benchmark(sweep)
    for f, formula, got in rows:
        assert str(got) == formula.split("= ")[1], (f, formula, got)
    print_table(
        "Theorem 3.3 crossovers: paper formula vs measured",
        ["f", "paper threshold", "measured threshold"],
        rows,
    )
