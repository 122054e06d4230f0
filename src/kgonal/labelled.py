"""Labelled counts in closed form, and fixed points under relabelling.

Labelled k-gonal 2-trees on n polygons have m = (k-1)n+1 edges.  Rooting
at an oriented edge gives exactly m^{n-1} structures, and the other
labelled families follow by dividing out the root choices and averaging
over the order-2 reflection.  Averaging over all relabellings instead
recovers the unlabelled b_n; the per-cycle-type fixed point counts
needed for that sum also have a closed form, which is what burnside_b
sums over the integer partitions of n as an independent route to b.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, NamedTuple

from kgonal.bseries import GonalParams
from kgonal.kernels import exact_count

__all__ = [
    "CycleType",
    "labelled_rooted",
    "fixed_point_count",
    "labelled_oriented",
    "labelled_unoriented",
    "burnside_b",
    "partitions",
]


class CycleType(NamedTuple("CycleType", [("counts", tuple[int, ...])])):
    """Cycle type of a permutation; counts[i-1] cycles of length i.

    A named tuple: immutable, and equal and hashed by counts.
    """

    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...]) -> CycleType:
        if any(c < 0 for c in counts):
            raise ValueError("cycle counts must be non-negative")
        return super().__new__(cls, counts)

    @staticmethod
    def from_parts(parts: tuple[int, ...]) -> CycleType:
        if not parts:
            return CycleType(())
        out = [0] * max(parts)
        for part in parts:
            out[part - 1] += 1
        return CycleType(tuple(out))

    def count(self, i: int) -> int:
        return self.counts[i - 1] if 1 <= i <= len(self.counts) else 0

    def sigma(self, i: int, drop_own: bool = False) -> int:
        """sum of d * (d-cycle count) over divisors d of i; optionally d < i only."""
        acc = 0
        for d in range(1, i + 1):
            if i % d == 0 and not (drop_own and d == i):
                acc += d * self.count(d)
        return acc

    def centralizer(self) -> int:
        """prod_i i^{n_i} n_i!, the size of the centralizer of a permutation of this type."""
        z = 1
        for i, n_i in enumerate(self.counts, start=1):
            z *= i**n_i * factorial(n_i)
        return z


def labelled_rooted(params: GonalParams, n: int) -> int:
    """Structures rooted at an oriented labelled edge: m^{n-1}; 1 for n=0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    return params.m(n) ** (n - 1)


def fixed_point_count(params: GonalParams, t: CycleType) -> int:
    """Oriented-edge-rooted structures fixed by a relabelling of type t.

    Product over cycle lengths i with at least one i-cycle of

        (1 + (k-1) s_i)^{n_i - 1} * (1 + (k-1) s*_i)

    where s_i sums d * n_d over divisors d of i and s*_i drops the d = i
    term.  Lengths with n_i = 0 contribute factor 1 (s_i = s*_i there,
    so the pair would cancel anyway).
    """
    km1 = params.k - 1
    acc = 1
    for i in range(1, len(t.counts) + 1):
        n_i = t.count(i)
        if n_i == 0:
            continue
        acc *= (1 + km1 * t.sigma(i)) ** (n_i - 1) * (1 + km1 * t.sigma(i, drop_own=True))
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

    Independent of the series route: sums fixed_point_count(t) / z(t)
    over the partitions t of n, with z the usual centralizer size
    prod_i i^{n_i} n_i!.  z(t) divides n!, so the sum runs in integers
    as sum fixed_point_count(t) n!/z(t), and its division by n! must
    be exact.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 1
    n_fact = factorial(n)
    total = 0
    for parts in partitions(n):
        t = CycleType.from_parts(parts)
        total += fixed_point_count(params, t) * (n_fact // t.centralizer())
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
