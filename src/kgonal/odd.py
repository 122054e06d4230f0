"""A divisor-sum recurrence for the unlabelled counts at odd polygon size.

oriented.unlabelled_series builds a_n for every k from the oriented
series a_o and the reversal-fixed series.  For odd k the same numbers
also satisfy a divisor-sum recurrence driven by a_o and a weight read
straight off the b^j tables; it shares nothing with the reversal-fixed
loop, so the two routes check each other.
"""

from __future__ import annotations

from fractions import Fraction

from kgonal.bseries import BTable
from kgonal.kernels import IntegrityError
from kgonal.oriented import oriented_series

__all__ = ["odd_omega", "odd_recurrence"]


def _require_odd(table: BTable) -> int:
    """The odd polygon size of the table."""
    k = table.params.k
    if k % 2 == 0:
        raise ValueError("polygon size is even; oriented.unlabelled_series counts every k")
    return k


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
    """The odd-k counts of oriented.unlabelled_series by the recurrence.

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
