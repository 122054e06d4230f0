"""The fundamental edge-rooted series b(x) and its convolution powers.

b_n counts unlabelled k-gonal 2-trees rooted at an oriented edge and
built from n polygons.  Every other counting module consumes b through
the BTable produced here, as plain integer lists: b itself and prefixes
of its powers b^j (BTable.int_coeffs), read at integer indices; the
asymptotics layer reads b alone, as a list.  Where a formula indexes b
at (n-1)/2 or (n-2)/4, its caller picks the terms that occur by the
parity of n.  Every table holds C = b^{k-1} beside b, to the same
order: the kernel builds C on the way to b, and the disk cache stores
both.  Every other power is one pass of the kernel's online recurrence.

Two independent routes to b are provided.  compute_b solves the
exponential fixed point y = exp(sum_i x^i y^{k-1}(x^i)/i) through the
integer kernel and is fast; recurrence_crosscheck expands the same
counts by (k-1)-tuple sums with a divisibility side condition, read off
powers of b that it builds by schoolbook products of its own, and is
kept apart from the kernel as a test oracle.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from kgonal import cache, kernels
from kgonal.kernels import IntegrityError, exact_count

__all__ = [
    "GonalParams",
    "BTable",
    "compute_b",
    "recurrence_crosscheck",
]


class GonalParams(NamedTuple("GonalParams", [("k", int)])):
    """Polygon size k; k=2 is the degenerate ordinary-tree case.

    A named tuple: immutable, and equal and hashed by k.
    """

    __slots__ = ()

    def __new__(cls, k: int) -> GonalParams:
        if k < 2:
            raise ValueError("polygon size k must be >= 2")
        return super().__new__(cls, k)

    @property
    def p(self) -> int:
        """Non-root edges per polygon."""
        return self.k - 1

    def m(self, n: int) -> int:
        """Edge count of a structure with n polygons."""
        return (self.k - 1) * n + 1


class BTable:
    """b and C = b^{k-1} to a fixed order, plus memoized prefixes of other powers.

    order is len(b) - 1, and C runs to the same order.  powers maps
    exponent j to the longest prefix of b^j built so far; powers[1] is b
    and powers[k-1] is C (one list for k = 2).  Any other b^j is one
    _online pass over the logarithmic derivative of b, which C gives,
    and a request past the stored prefix rebuilds it to the new length.
    Every stored value is a correct prefix of b^j, so concurrent lookup
    and insert under the interpreter lock can at worst repeat work.
    """

    def __init__(self, params: GonalParams, b: list[int], c: list[int]) -> None:
        self.params = params
        self.order = len(b) - 1
        if not b:
            raise ValueError("a table needs b_0")
        if b[0] != 1:
            raise IntegrityError("b_0 must be 1")
        if len(c) != len(b):
            raise ValueError(f"a table of order {self.order} needs b^{params.p} to that order")
        self.powers = {params.p: c, 1: b}

    def __repr__(self) -> str:
        return f"BTable(params={self.params!r}, order={self.order})"

    def int_coeffs(self, j: int = 1, upto: int | None = None) -> list[int]:
        """Coefficients of b^j as plain ints, through index `upto` at least.

        `upto` defaults to the table order.  The list returned may run
        past `upto` when a longer prefix is already memoized; callers
        that ask for a prefix read only the indices they asked for.
        Each reader asks for the last index it reads, and for C, held in
        full, with no `upto`, so the deepest reader of a power, run
        first, builds it once for every reader of the table.

        b is the Polya exponential with weight W_n = C_{n-1}, so
        x b'/b = L with L_m = sum_{d|m} d C_{d-1}, and b^j solves
        n (b^j)_n = j sum_{m=1}^{n} L_m (b^j)_{n-m}: one kernels._online
        pass, after O(upto log upto) additions build L from C.
        """
        if upto is None:
            upto = self.order
        got = self.powers.get(j)
        if got is None or len(got) <= upto:
            if j < 0:
                raise ValueError("exponent must be >= 0")
            if not 0 <= upto <= self.order:
                raise IndexError(f"index {upto} outside table order 0..{self.order}")
            got = [1] + [0] * upto
            if j:
                c = self.powers[self.params.p]
                sums = [0] * (upto + 1)
                for d in range(1, upto + 1):
                    kernels.add_at_multiples(sums, d, d * c[d - 1])
                kernels._online(got, sums, j, f"b^{j}")
            self.powers[j] = got
        return got


def compute_b(params: GonalParams, order: int, cache_dir: Path | None = None) -> BTable:
    """Build the table of b and b^{k-1}, by a solve or from the advisory disk cache."""
    hit = None if cache_dir is None else cache.load_b(cache_dir, params.k, order)
    if hit is None:
        c: list[int] = []
        b = kernels.solve_b(params.p, order, c)
        if cache_dir is not None:
            cache.store_b(cache_dir, params.k, b, c)
    else:
        b, c = hit
    return BTable(params, b, c)


def recurrence_crosscheck(params: GonalParams, order: int) -> list[int]:
    """b by the explicit tuple recurrence; test oracle only.

    n b_n = sum over j = 1..n and over ordered (k-1)-tuples a of
    non-negative integers such that |a|+1 divides j, of
    (|a|+1) * b_{a_1} * ... * b_{a_{k-1}} * b_{n-j}.

    The tuple sum with |a| = e - 1 is [x^{e-1}] b^{k-1}.  The function
    keeps its own prefix of every power b^j, j = 1..k-1, and extends
    each by one schoolbook Cauchy product term as soon as b_{e-1} is
    final, so each tuple sum costs O(k e) products.  It shares no power
    table, logarithmic derivative or block product with the kernel, and
    divides only once per n, checked, so agreement with compute_b
    crosses two genuinely different arithmetic routes.
    """
    parts = params.p
    b: list[int] = [1]
    # powers[j - 1] is the prefix of b^j built so far
    powers = [b] + [[1] for _ in range(parts - 1)]
    # weights[e] = e * (the tuple sum of parts indices summing to e - 1)
    weights = [0]
    for n in range(1, order + 1):
        # b_{n-1} is final: so is every power to n - 1, and the tuple sum
        # for e = n, which is kept for every later n
        t = n - 1
        if t:
            for lower, power in zip(powers, powers[1:]):
                power.append(sum(b[i] * lower[t - i] for i in range(t + 1)))
        weights.append(n * powers[-1][t])
        acc = 0
        for j in range(1, n + 1):
            for e in range(1, j + 1):
                if j % e == 0:
                    acc += weights[e] * b[n - j]
        b.append(exact_count(acc, n, f"tuple recurrence at n={n}"))
    return b
