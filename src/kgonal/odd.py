"""Unlabelled counts for odd polygon size, reflections included.

For odd k each polygon has one edge-to-vertex symmetry axis.  The
structures fixed by reversing the root edge, s = oriented.reversal_fixed,
have pages off the axis paired with their mirror images and pages on
the axis split into two halves of (k-1)/2 edges each.  The final count
is the usual group average

    a(x) = (a_o(x) + s(x)) / 2.

A divisor-sum recurrence for the same numbers is implemented
independently as a cross-check; the two routes share nothing past the
b table.
"""

from __future__ import annotations

from fractions import Fraction

from kgonal.bseries import BTable
from kgonal.kernels import IntegrityError, exact_count
from kgonal.oriented import oriented_series, reversal_fixed

__all__ = [
    "odd_omega",
    "odd_series",
    "odd_recurrence",
]


def _require_odd(table: BTable) -> int:
    """The odd polygon size of the table."""
    k = table.params.k
    if k % 2 == 0:
        raise ValueError("polygon size is even; use the even-parity module")
    return k


def odd_series(table: BTable) -> list[int]:
    """Unlabelled counts a_n for odd k, as half the orbit sum."""
    _require_odd(table)
    a_o = oriented_series(table)
    sym = reversal_fixed(table)
    return [exact_count(a_o[n] + sym[n], 2, f"count at n={n}") for n in range(table.order + 1)]


def odd_omega(table: BTable, n: int) -> int:
    """Divisor-sum weight for the recurrence route.

    w_n = 2 b^{(k-1)/2} at (n-1)/2 + b^{k-1} at (n-2)/2
        - b^{(k-1)/2} at (n-2)/4, fractional indices reading zero.
    """
    k = _require_odd(table)
    if n < 1:
        raise ValueError("n must be >= 1")
    half = (k - 1) // 2
    return (
        2 * table.coeff(half, Fraction(n - 1, 2))
        + table.coeff(k - 1, Fraction(n - 2, 2))
        - table.coeff(half, Fraction(n - 2, 4))
    )


def odd_recurrence(table: BTable) -> list[int]:
    """Same counts through the divisor-sum recurrence; test oracle.

    a_0 = 1 and for n >= 1

        a_n = (1/2n) sum_{j=1}^{n} (sum_{l|j} l w_l)
                      (a_{n-j} - a_{o,n-j}/2)  +  a_{o,n}/2.
    """
    _require_odd(table)
    order = table.order
    a_o = oriented_series(table)
    w = [0] * (order + 1)
    for n in range(1, order + 1):
        w[n] = odd_omega(table, n)
    divsum = [0] * (order + 1)
    for j in range(1, order + 1):
        divsum[j] = sum(l * w[l] for l in range(1, j + 1) if j % l == 0)
    a: list[Fraction] = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        s = Fraction(0)
        for j in range(1, n + 1):
            s += divsum[j] * (a[n - j] - Fraction(1, 2) * a_o[n - j])
        a[n] = s / (2 * n) + Fraction(1, 2) * a_o[n]
        if a[n].denominator != 1 or a[n] < 0:
            raise IntegrityError(f"recurrence count at n={n} is not a non-negative integer")
    return [int(v) for v in a]
