"""Labelled counts in closed form, and fixed points under relabelling.

Labelled k-gonal 2-trees on n polygons have m = (k-1)n+1 edges.  Rooting
at an oriented edge gives exactly m^{n-1} structures, and the other
labelled families follow by dividing out the root choices and averaging
over the order-2 reflection.  Averaging over all relabellings instead
recovers the unlabelled b_n; the per-cycle-type fixed point counts
needed for that sum also have a closed form, which is what burnside_b
sums over the integer partitions of n as an independent route to b.
A cycle type is a plain tuple of multiplicities: counts[i-1] cycles of
length i.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Iterator

from kgonal.bseries import GonalParams
from kgonal.kernels import exact_count

__all__ = [
    "labelled_rooted",
    "fixed_point_count",
    "labelled_oriented",
    "labelled_unoriented",
    "burnside_b",
    "partitions",
]


def labelled_rooted(params: GonalParams, n: int) -> int:
    """Structures rooted at an oriented labelled edge: m^{n-1}; 1 for n=0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    return params.m(n) ** (n - 1)


def fixed_point_count(params: GonalParams, counts: tuple[int, ...]) -> int:
    """Oriented-edge-rooted structures fixed by a relabelling with counts[i-1] i-cycles.

    Product over cycle lengths i with at least one i-cycle of

        (1 + (k-1) s_i)^{n_i - 1} * (1 + (k-1) s*_i)

    where n_i = counts[i-1], s*_i sums d * n_d over the proper divisors
    d of i, and s_i = s*_i + i * n_i adds the d = i term.  Lengths with
    n_i = 0 contribute factor 1 (s_i = s*_i there, so the pair would
    cancel anyway).
    """
    if any(c < 0 for c in counts):
        raise ValueError("cycle counts must be non-negative")
    km1 = params.k - 1
    acc = 1
    for i, n_i in enumerate(counts, start=1):
        if n_i:
            s_star = sum(d * counts[d - 1] for d in range(1, i // 2 + 1) if i % d == 0)
            acc *= (1 + km1 * (s_star + i * n_i)) ** (n_i - 1) * (1 + km1 * s_star)
    return acc


def labelled_oriented(params: GonalParams, n: int) -> int:
    """Oriented classes: m^{n-2} for n >= 2; single class for n in {0,1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2:
        return 1
    return params.m(n) ** (n - 2)


def labelled_unoriented(params: GonalParams, n: int) -> int:
    """Unoriented classes, by parity of k.

    Odd k:  (m^{n-2} + 1) / 2.
    Even k: (m^{n-2} + (n+1)^{n-2}) / 2, the second term counting the
    reflection-symmetric structures through their edge-edge axis trees.
    Both hold for n >= 2; n in {0,1} is a single class.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2:
        return 1
    m_pow = params.m(n) ** (n - 2)
    sym = 1 if params.k % 2 == 1 else (n + 1) ** (n - 2)
    return exact_count(m_pow + sym, 2, f"unoriented labelled count at n={n}")


def burnside_b(params: GonalParams, n: int) -> int:
    """b_n as the average of fixed-point counts over all cycle types.

    Independent of the series route: each partition of n becomes its
    multiplicity tuple (n_1, n_2, ...), and the sum runs over
    fixed_point_count / z with z the usual centralizer size
    prod_i i^{n_i} n_i!.  z divides n!, so the sum runs in integers as
    sum fixed_point_count n!/z, and its division by n! must be exact.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    n_fact = factorial(n)
    total = 0
    for parts in partitions(n):
        # parts[0] is the largest part
        counts = [0] * parts[0]
        for part in parts:
            counts[part - 1] += 1
        z = prod(i**n_i * factorial(n_i) for i, n_i in enumerate(counts, start=1))
        total += fixed_point_count(params, tuple(counts)) * (n_fact // z)
    return exact_count(total, n_fact, f"Burnside average at n={n}")


def partitions(total: int) -> Iterator[tuple[int, ...]]:
    """All partitions of `total`, each as its parts in non-increasing order."""
    if total < 0:
        raise ValueError("total must be >= 0")

    def gen(remaining: int, max_part: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    yield from gen(total, total)
