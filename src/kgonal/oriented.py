"""Unlabelled counts up to orientation-preserving symmetry.

Unrooting the edge-rooted series costs a cyclic-group average over the
k rotations of a polygon plus a correction that cancels structures
counted once per edge.  On series level:

    a_o(x) = b(x) + (x/k) * sum over divisors d>1 of k of
             phi(d) * b^{k/d}(x^d)
           - ((k-1)/k) * x * b^k(x)

The sum runs on k * a_{o,n} in plain integers.  oriented_series
builds the whole prefix: b^{k/d}(x^d) is read only up to x^{order-1},
so each power is built only to index (order-1)//d, and b^k alone to
order-1.  oriented_count builds one coefficient,

    k a_{o,n} = k b_n - (k-1) sum_{i<n} b_i b^{k-1}_{n-1-i}
              + sum over d>1 dividing both k and n-1 of
                phi(d) b^{k/d}_{(n-1)/d},

from the b^{k-1} a freshly solved table already holds and from powers
b^{k/d} built only to (n-1)/d; asking for the largest index first
builds each of those prefixes once.  Both routes share the rotation
term.  Every coefficient must come out a non-negative integer; the
division by k has no remainder exactly when b is correct, so the check
doubles as a consistency check on the whole pipeline.
"""

from __future__ import annotations

from kgonal.bseries import BTable
from kgonal.kernels import exact_count

__all__ = ["euler_phi", "oriented_series", "oriented_count"]


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


def _rotation_term(table: BTable, m: int, top: int) -> int:
    """sum over divisors d > 1 of k that divide m of phi(d) [x^{m/d}] b^{k/d}.

    The rotations of order d of the root polygon, placed at x^{m+1}.
    Each power is built through index top // d, so callers reading every
    m <= top, or the largest m first, build each prefix once.
    """
    k = table.params.k
    acc = 0
    for d in range(2, k + 1):
        if k % d == 0 and m % d == 0:
            acc += euler_phi(d) * table.int_coeffs(k // d, top // d)[m // d]
    return acc


def oriented_series(table: BTable) -> list[int]:
    """Series of oriented unlabelled counts a_{o,n} up to the table order."""
    k, order = table.params.k, table.order
    # k * a_o as integers: k b, plus phi(d) b^{k/d}(x^d) and minus
    # (k-1) b^k, the last two shifted by one place
    acc = [k * c for c in table.int_coeffs(1)]
    if order >= 1:
        top = order - 1
        bk = table.int_coeffs(k, top)
        for m in range(top + 1):
            acc[m + 1] += _rotation_term(table, m, top) - (k - 1) * bk[m]
    return [exact_count(v, k, f"oriented count at n={n}") for n, v in enumerate(acc)]


def oriented_count(table: BTable, n: int) -> int:
    """The oriented unlabelled count a_{o,n} alone, equal to oriented_series(table)[n].

    Costs one O(n) product with b^{k-1} and reads every other power
    only to index (n-1)/d.
    """
    k = table.params.k
    if not 0 <= n <= table.order:
        raise IndexError(f"index {n} outside table order 0..{table.order}")
    b = table.int_coeffs(1)
    acc = k * b[n]
    if n >= 1:
        m = n - 1
        c = table.int_coeffs(k - 1, m)
        bk = sum(b[i] * c[m - i] for i in range(n))
        acc += _rotation_term(table, m, m) - (k - 1) * bk
    return exact_count(acc, k, f"oriented count at n={n}")
