"""Unlabelled counts: oriented, fixed by root reversal, and unrooted with reflections.

Unrooting the edge-rooted series costs a cyclic-group average over the
k rotations of a polygon plus a correction that cancels structures
counted once per edge.  On series level:

    a_o(x) = b(x) + (x/k) * sum over divisors d>1 of k of
             phi(d) * b^{k/d}(x^d)
           - ((k-1)/k) * x * b^k(x)

The sum runs on k * a_{o,n} in plain integers, one coefficient at a time:

    k a_{o,n} = k b_n - (k-1) sum_{i<n} b_i b^{k-1}_{n-1-i}
              + sum over d>1 dividing both k and n-1 of
                phi(d) b^{k/d}_{(n-1)/d}.

The product term is [x^{n-1}] b^k, read as one dot product of b with
the b^{k-1} that a freshly solved table already holds, so b^k itself is
never built.  The rotation term reads each b^{k/d} only to (n-1)/d.
oriented_count evaluates this formula, and oriented_series asks it for
every index, largest first, so that each power prefix is built once.
Every coefficient must come out a non-negative integer; the division by
k has no remainder exactly when b is correct, so the check doubles as a
consistency check on the whole pipeline.

The unoriented counts of both parities of k average a_o with the
structures fixed by reversing the root edge, and reversal_fixed builds
that series for every k at once.  A page on the reversal axis swaps
h = floor((k-1)/2) pairs of its edges and, for even k, keeps its middle
edge, which is itself reversal-fixed.  The pages off the axis pair up
with their mirror images, so at even n the weight also counts, one per
pair, the pages of size n/2 that are not their own mirror image.  The
fixed series is therefore the Polya exponential
y = exp(sum_i Omega(x^i)/i) with

    Omega_n = Q_n + [n even] (b^{k-1}_{n/2-1} - Q_{n/2}) / 2,
    Q(x)    = x b^h(x^2) F(x),  F = 1 for odd k, F = y for even k.

Omega_n reads y only below n, so kernels._online solves y against the
divisor sums of Omega, and its ready hook adds the term of Omega_n to
them as soon as y_{n-1} is final.  b^h is read only to index
(order-1)/2, and the halving is checked like every other division.

unlabelled_series unroots by the dissymmetry theorem for 2-trees,
a = a_edge + a_polygon - a_(polygon, edge) (Bergeron, Labelle and
Leroux, Combinatorial Species and Tree-like Structures, 1998).  Each
unoriented term averages its oriented count with its count fixed by a
reflection; the oriented terms sum to a_o, and the fixed ones are:

    edge-rooted:            y;
    (polygon, edge)-rooted: y Q, the one reflection reversing the marked
                            edge, whose page is an axis page;
    polygon-rooted:         the mean over the k reflections of the root.

Every axis of an odd polygon runs through one vertex and one edge, so
each reflection fixes y Q and the last two terms cancel.  Half the axes
of an even polygon run through two edges (y Q again), half through two
vertices, swapping k/2 pairs of edges (x b^{k/2}(x^2)).  Hence

    4 a_n = 2 (a_{o,n} + y_n)
          + [k even] ([n odd] b^{k/2}_{(n-1)/2} - (y Q)_n),

one dot product per coefficient of y with the Q the reversal_fixed
solve already builds, and one checked division by 4.  Re-rooting every
enumerated structure (tests/unrooted_oracle.py) gives the same a_n for
k = 3..6.
"""

from __future__ import annotations

from operator import mul

from kgonal.bseries import BTable
from kgonal.kernels import _online, add_at_multiples, exact_count

__all__ = [
    "euler_phi",
    "oriented_series",
    "oriented_count",
    "reversal_fixed",
    "unlabelled_series",
]


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


def _rotation_term(table: BTable, m: int) -> int:
    """sum over divisors d > 1 of k that divide m of phi(d) [x^{m/d}] b^{k/d}.

    The rotations of order d of the root polygon, placed at x^{m+1}.
    Each power is built through index m // d, so callers reading the
    largest m first build each prefix once.  A divisor of m > 0 is at
    most m, so the scan stops there, not at k.
    """
    k = table.params.k
    if m == 0:
        # every d divides 0, each power starts with 1, and the phi(d)
        # over the divisors d of k sum to k
        return k - 1
    acc = 0
    for d in range(2, min(k, m) + 1):
        if k % d == 0 and m % d == 0:
            acc += euler_phi(d) * table.int_coeffs(k // d, m // d)[m // d]
    return acc


def oriented_series(table: BTable) -> list[int]:
    """Series of oriented unlabelled counts a_{o,n} up to the table order.

    oriented_count at every index, largest first, so that each power
    prefix is built once.
    """
    return [oriented_count(table, n) for n in range(table.order, -1, -1)][::-1]


def oriented_count(table: BTable, n: int) -> int:
    """The oriented unlabelled count a_{o,n} of the module docstring.

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
        c = table.int_coeffs(k - 1)
        acc += _rotation_term(table, m) - (k - 1) * sum(map(mul, b[:n], c[m::-1]))
    return exact_count(acc, k, f"oriented count at n={n}")


def _fixed_and_axis_pages(table: BTable) -> tuple[list[int], list[int]]:
    """reversal_fixed's y together with the on-axis page series Q of its weight."""
    k, order = table.params.k, table.order
    b_h = table.int_coeffs((k - 1) // 2, max(order - 1, 0) // 2)
    b_f = table.int_coeffs(k - 1)
    y = [1] + [0] * order
    # F of the module docstring: the middle edge of an even-k axis page
    # carries a fixed structure of its own
    f = y if k % 2 == 0 else [1] + [0] * order
    q = [0] * (order + 1)
    sums = [0] * (order + 1)

    def ready(m: int) -> None:
        # y_0..y_m are final, and with them Q_n and the weight at n = m + 1
        n = m + 1
        q[n] = w = sum(map(mul, b_h[: (n + 1) // 2], f[m::-2]))
        if n % 2 == 0:
            h = n // 2
            w += exact_count(b_f[h - 1] - q[h], 2, f"mirror-pair count at n={n}")
        add_at_multiples(sums, n, n * w)

    _online(y, sums, 1, "reversal-fixed count", ready)
    return y, q


def reversal_fixed(table: BTable) -> list[int]:
    """Edge-rooted structures fixed by reversing the root, y_0..y_order.

    The Polya exponential of the module docstring: the weight at n is
    the on-axis pages Q_n plus, at even n, the mirror pairs of size n/2.
    """
    return _fixed_and_axis_pages(table)[0]


def unlabelled_series(table: BTable) -> list[int]:
    """Unlabelled counts a_0..a_order with reflections included, any k.

    The integer 4 a_n of the module docstring, divided once and checked.
    y comes before a_o, whose rotation term at k = 6 reads b^2 = b^h only
    to (order-1)/3: the other order would build b^2 twice.
    """
    k, order = table.params.k, table.order
    y, q = _fixed_and_axis_pages(table)
    a_o = oriented_series(table)
    acc = [2 * (a + f) for a, f in zip(a_o, y)]
    if k % 2 == 0:
        # the vertex-vertex axes of the root polygon minus its edge-edge axes
        b_mid = table.int_coeffs(k // 2, max(order - 1, 0) // 2)
        for n in range(order + 1):
            yq = sum(map(mul, y[: n + 1], q[n::-1]))
            acc[n] += (b_mid[(n - 1) // 2] if n % 2 else 0) - yq
    return [exact_count(v, 4, f"count at n={n}") for n, v in enumerate(acc)]
