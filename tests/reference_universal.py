"""The universal constants by the partition formula, one Fraction per partition.

This is the formula of `kgonal.universal` written out as directly as it
reads: each partition mu of the shifted sum is built as a tuple and
turned into its multiplicities n_i, from which divisor_sum and
centralizer give the divisor sums and the product i^{n_i} n_i! of the
formula, and every term is added as a Fraction.  It is a test oracle
for the integer sum that `universal_c` runs; its cost grows with the
number of partitions of m - 1, so tests call it for m <= 30.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from kgonal.labelled import partitions
from kgonal.universal import UniversalConstant


def multiplicities(parts: tuple[int, ...]) -> tuple[int, ...]:
    """counts[i-1] is the number of parts equal to i."""
    counts = [0] * max(parts, default=0)
    for part in parts:
        counts[part - 1] += 1
    return tuple(counts)


def divisor_sum(counts: tuple[int, ...], i: int, drop_own: bool = False) -> int:
    """sum of d * n_d over the divisors d of i; the proper divisors only if drop_own."""
    return sum(
        d * counts[d - 1]
        for d in range(1, min(i, len(counts)) + 1)
        if i % d == 0 and not (drop_own and d == i)
    )


def centralizer(counts: tuple[int, ...]) -> int:
    """prod_i i^{n_i} n_i!, the centralizer size of a permutation with these counts."""
    z = 1
    for i, n_i in enumerate(counts, start=1):
        z *= i**n_i * factorial(n_i)
    return z


def reference_universal_c(m: int) -> UniversalConstant:
    """The m-th expansion coefficient, exactly, summed one partition at a time."""
    if m < 1:
        raise ValueError("m must be >= 1")
    acc: dict[int, Fraction] = {}
    for small in partitions(m - 1):
        parts = tuple(part + 1 for part in small)
        # mu has no part 1, so its divisor sums skip d = 1 for free
        mu = multiplicities(parts)
        n = sum(parts) + 1
        numerator = 1
        for i, n_i in enumerate(mu, start=1):
            if n_i:
                numerator *= (divisor_sum(mu, i) - n) ** (n_i - 1) * (
                    divisor_sum(mu, i, drop_own=True) - n
                )
        acc[n] = acc.get(n, Fraction(0)) + Fraction(numerator, n * centralizer(mu))
    terms = tuple(sorted(((n, c) for n, c in acc.items() if c != 0), reverse=True))
    return UniversalConstant(m, terms)
