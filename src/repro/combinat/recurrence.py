"""Linear and affine recurrences with constant coefficients.

The Section 6 recurrences of the paper are affine: e.g. eq. (4) is
``|V(H_d)| = |V(H_{d-1})| + |V(H_{d-2})| + 1``.  :class:`AffineRecurrence`
evaluates such sequences exactly with memoization;
:class:`LinearRecurrence` is the homogeneous special case and additionally
offers :math:`O(\\log n)` evaluation via companion-matrix powers for
large-index queries (used to validate closed forms at huge ``d``).
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["LinearRecurrence", "AffineRecurrence"]


def matrix_mult(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    """Exact integer matrix product (no overflow: Python big ints).

    Degenerate shapes are first-class: ``[] @ [] == []``, and an
    ``n x 0`` times ``0 x anything`` product is the ``n x 0`` zero
    matrix.  Ragged rows or an inner-dimension mismatch raise
    :class:`ValueError` instead of silently mis-multiplying.
    """
    n, k = len(a), len(b)
    m2 = len(b[0]) if b else 0
    inner = len(a[0]) if a else 0
    if any(len(row) != inner for row in a):
        raise ValueError("left matrix has ragged rows")
    if any(len(row) != m2 for row in b):
        raise ValueError("right matrix has ragged rows")
    if a and inner != k:
        raise ValueError(
            f"inner dimensions do not match: {n}x{inner} @ {k}x{m2}"
        )
    out = [[0] * m2 for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(m2):
                    oi[j] += v * bt[j]
    return out


def matrix_power(mat: Sequence[Sequence[int]], e: int) -> List[List[int]]:
    """Exact integer matrix power by binary exponentiation.

    ``e == 0`` returns the ``n x n`` identity (the empty ``0 x 0``
    identity for an empty matrix); non-square input raises
    :class:`ValueError` up front rather than deep inside the squaring
    loop.
    """
    if e < 0:
        raise ValueError("exponent must be non-negative")
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError(f"matrix must be square, got rows {[len(r) for r in mat]}")
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [list(row) for row in mat]
    while e:
        if e & 1:
            result = matrix_mult(result, base)
        base = matrix_mult(base, base)
        e >>= 1
    return result


class AffineRecurrence:
    """Sequence ``a(n) = sum(coeffs[i] * a(n - 1 - i)) + constant``.

    Parameters
    ----------
    coeffs:
        ``coeffs[0]`` multiplies ``a(n-1)``, ``coeffs[1]`` multiplies
        ``a(n-2)``, and so on.
    initial:
        Values ``a(0), ..., a(k-1)`` where ``k = len(coeffs)``.
    constant:
        The inhomogeneous term (0 gives a plain linear recurrence).
    """

    def __init__(self, coeffs: Sequence[int], initial: Sequence[int], constant: int = 0):
        if len(initial) != len(coeffs):
            raise ValueError(
                f"need exactly {len(coeffs)} initial values, got {len(initial)}"
            )
        if not coeffs:
            raise ValueError("recurrence order must be at least 1")
        self.coeffs = [int(c) for c in coeffs]
        self.constant = int(constant)
        self._values: List[int] = [int(v) for v in initial]

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"index must be non-negative, got {n}")
        vals = self._values
        k = self.order
        while len(vals) <= n:
            nxt = self.constant
            for i, c in enumerate(self.coeffs):
                nxt += c * vals[len(vals) - 1 - i]
            vals.append(nxt)
        return vals[n]

    def prefix(self, upto: int) -> List[int]:
        """Values ``a(0), ..., a(upto)`` as a list."""
        self(upto)
        return self._values[: upto + 1]


class LinearRecurrence(AffineRecurrence):
    """Homogeneous linear recurrence with fast big-index evaluation."""

    def __init__(self, coeffs: Sequence[int], initial: Sequence[int]):
        super().__init__(coeffs, initial, constant=0)

    def companion_matrix(self) -> List[List[int]]:
        """Companion matrix ``C`` with ``(a(n+k-1..n)) = C^n (a(k-1..0))``."""
        k = self.order
        mat = [[0] * k for _ in range(k)]
        mat[0] = list(self.coeffs)
        for i in range(1, k):
            mat[i][i - 1] = 1
        return mat

    def at(self, n: int) -> int:
        """Evaluate ``a(n)`` in ``O(k^3 log n)`` without filling the prefix."""
        if n < 0:
            raise ValueError(f"index must be non-negative, got {n}")
        k = self.order
        if n < k:
            return self._values[n]
        power = matrix_power(self.companion_matrix(), n - k + 1)
        col = [[self._values[k - 1 - i]] for i in range(k)]
        top = matrix_mult(power, col)[0][0]
        return top
