"""Unlabelled counts for even polygon size, reflections included.

For even k a reflection axis through the root edge can run along a
whole page, keeping its middle edge, or swap a page with a mirror twin
glued along the axis.  The edge-rooted structures fixed by that
reflection form the series alpha = oriented.reversal_fixed, whose
on-axis pages carry a fixed structure of their own on the middle edge.

Edge-rooted counts are then (b_n + alpha_n)/2 (cli.family_counts), and
the unrooted counts combine the oriented series, alpha, and two
correction convolutions that cancel the per-edge and per-vertex
overcounts:

    a_n = a_{o,n}/2 + alpha_n/2 + b^{(k/2)}_{(n-1)/2}/4
          - (1/4) sum_{i+j=n-1} (alpha^2)_i b^{((k-2)/2)}_{j/2}.

Every table holds plain integers.  b^{(k-2)/2} and b^{k/2} are read
only at half indices, so each is built only to index order/2, and a_n
is accumulated as the integer 4 a_n with one checked division at the
end; the whole computation costs O(order^2) big-integer products.

k = 2 degenerates gracefully: the exponent (k-2)/2 = 0 makes the half
power the constant series 1, and the outputs become the counts of free
trees by edge count.
"""

from __future__ import annotations

from kgonal.bseries import BTable
from kgonal.kernels import convolve, exact_count
from kgonal.oriented import oriented_series, reversal_fixed

__all__ = ["even_series"]


def _require_even(table: BTable) -> int:
    """The even polygon size of the table."""
    k = table.params.k
    if k % 2 == 1:
        raise ValueError("polygon size is odd; use the odd-parity module")
    return k


def even_series(table: BTable) -> list[int]:
    """Unlabelled counts a_n for even k, from the integer 4 a_n."""
    k, order = _require_even(table), table.order
    a_o = oriented_series(table)
    alpha = reversal_fixed(table)
    alpha_sq = convolve(alpha, alpha, order)
    b_half = table.int_coeffs((k - 2) // 2, order // 2)
    b_mid = table.int_coeffs(k // 2, order // 2)
    out = []
    for n in range(order + 1):
        v = 2 * (a_o[n] + alpha[n])
        if n % 2:
            v += b_mid[(n - 1) // 2]
        # alpha^2 at i against b^{(k-2)/2} at (n-1-i)/2, for n-1-i even
        for m in range((n + 1) // 2):
            v -= alpha_sq[n - 1 - 2 * m] * b_half[m]
        out.append(exact_count(v, 4, f"count at n={n}"))
    return out
