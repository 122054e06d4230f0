"""The universal constants by the partition formula, one Fraction per partition.

This is the formula of `kgonal.universal` written out as directly as it
reads: each partition mu of the shifted sum is built as a tuple and held
as a labelled.CycleType, whose sigma and centralizer are the divisor
sums and the product i^{n_i} n_i! of the formula, and every term is
added as a Fraction.  It is a test oracle for the integer sum that
`universal_c` runs; its cost grows with the number of partitions of
m - 1, so tests call it for m <= 30.
"""

from __future__ import annotations

from fractions import Fraction

from kgonal.labelled import CycleType
from kgonal.partitions import partitions
from kgonal.universal import UniversalConstant


def reference_universal_c(m: int) -> UniversalConstant:
    """The m-th expansion coefficient, exactly, summed one partition at a time."""
    if m < 1:
        raise ValueError("m must be >= 1")
    acc: dict[int, Fraction] = {}
    for small in partitions(m - 1):
        parts = tuple(part + 1 for part in small)
        # mu has no part 1, so its cycle-type sigma skips d = 1 for free
        mu = CycleType.from_parts(parts)
        n = sum(parts) + 1
        numerator = 1
        for i, n_i in enumerate(mu.counts, start=1):
            if n_i:
                numerator *= (mu.sigma(i) - n) ** (n_i - 1) * (mu.sigma(i, drop_own=True) - n)
        acc[n] = acc.get(n, Fraction(0)) + Fraction(numerator, n * mu.centralizer())
    terms = tuple(sorted(((n, c) for n, c in acc.items() if c != 0), reverse=True))
    return UniversalConstant(m, terms)
