"""A divisor-sum recurrence for the unlabelled counts at odd polygon size.

oriented.unlabelled_series builds a_n for every k from the oriented
series a_o and the reversal-fixed series.  For odd k the same numbers
also satisfy a divisor-sum recurrence driven by a_o and a weight read
straight off the b^j tables at integer indices.  It is a plain loop
that never builds the reversal-fixed series, so the two routes check
each other; solving it with the kernel that solves that series would
make the check lean on what it checks.
"""

from __future__ import annotations

from kgonal.bseries import BTable
from kgonal.kernels import exact_count
from kgonal.oriented import oriented_series

__all__ = ["odd_omega", "odd_recurrence"]


def _require_odd(table: BTable) -> int:
    """The odd polygon size of the table."""
    k = table.params.k
    if k % 2 == 0:
        raise ValueError("polygon size is even; oriented.unlabelled_series counts every k")
    return k


def odd_omega(table: BTable, n: int) -> int:
    """Divisor-sum weight for the recurrence route, with h = (k-1)/2.

    w_n = 2 b^h_{(n-1)/2} for odd n, and for even n
    w_n = b^{k-1}_{(n-2)/2} - [n = 2 mod 4] b^h_{(n-2)/4}.
    """
    k = _require_odd(table)
    if not 1 <= n <= table.order:
        raise ValueError(f"n must be in 1..{table.order}")
    # n <= order reads b^h to (order - 1) / 2, as far as reversal_fixed builds it
    b_h = table.int_coeffs((k - 1) // 2, (table.order - 1) // 2)
    if n % 2:
        return 2 * b_h[(n - 1) // 2]
    w = table.int_coeffs(k - 1)[(n - 2) // 2]
    if n % 4 == 2:
        w -= b_h[(n - 2) // 4]
    return w


def odd_recurrence(table: BTable) -> list[int]:
    """The odd-k counts of oriented.unlabelled_series by the recurrence.

    a_0 = 1 and for n >= 1, in integers,

        4n a_n = sum_{j=1}^{n} (sum_{l|j} l w_l) (2 a_{n-j} - a_{o,n-j})
                 + 2n a_{o,n},

    each division by 4n checked by exact_count.
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
    a = [1] + [0] * order
    for n in range(1, order + 1):
        s = 2 * n * a_o[n]
        for j in range(1, n + 1):
            s += divsum[j] * (2 * a[n - j] - a_o[n - j])
        a[n] = exact_count(s, 4 * n, f"recurrence count at n={n}")
    return a
