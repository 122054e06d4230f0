"""Unlabelled counts up to orientation-preserving symmetry.

Unrooting the edge-rooted series costs a cyclic-group average over the
k rotations of a polygon plus a correction that cancels structures
counted once per edge.  On series level:

    a_o(x) = b(x) + (x/k) * sum over divisors d>1 of k of
             phi(d) * b^{k/d}(x^d)
           - ((k-1)/k) * x * b^k(x)

The sum runs on k * a_{o,n} in plain integers.  b^{k/d}(x^d) is read
only up to x^{order-1}, so each power is built only to index
(order-1)//d, and b^k alone to order-1.  Every coefficient must come
out a non-negative integer; the division by k has no remainder exactly
when b is correct, so the check doubles as a consistency check on the
whole pipeline.
"""

from __future__ import annotations

from kgonal.bseries import BTable
from kgonal.kernels import exact_count

__all__ = ["euler_phi", "oriented_series"]


def euler_phi(d: int) -> int:
    """Euler totient by trial factorization."""
    if d < 1:
        raise ValueError("d must be >= 1")
    result = d
    q = 2
    while q * q <= d:
        if d % q == 0:
            while d % q == 0:
                d //= q
            result -= result // q
        q += 1
    if d > 1:
        result -= result // d
    return result


def oriented_series(table: BTable) -> list[int]:
    """Series of oriented unlabelled counts a_{o,n} up to the table order."""
    k, order = table.params.k, table.order
    # k * a_o as integers: k b, plus phi(d) b^{k/d}(x^d) and minus
    # (k-1) b^k, the last two shifted by one place
    acc = [k * c for c in table.int_coeffs(1)]
    if order >= 1:
        top = order - 1
        bk = table.int_coeffs(k, top)
        for n in range(1, order + 1):
            acc[n] -= (k - 1) * bk[n - 1]
        for d in range(2, k + 1):
            if k % d == 0:
                phi = euler_phi(d)
                bj = table.int_coeffs(k // d, top // d)
                for i in range(top // d + 1):
                    acc[i * d + 1] += phi * bj[i]
    return [exact_count(v, k, f"oriented count at n={n}") for n, v in enumerate(acc)]
