"""The fundamental edge-rooted series b(x) and its convolution powers.

b_n counts unlabelled k-gonal 2-trees rooted at an oriented edge and
built from n polygons.  Every other counting module consumes b through
the BTable produced here, as plain integer lists: b itself, prefixes of
its powers b^j (BTable.int_coeffs), and the half-index coefficient
convention (BTable.coeff: fractional or negative indices read as zero).
A freshly solved table also keeps b^{k-1}, which the kernel builds on
the way to b, so the layers that read b^{k-1} need no power pass.

Two independent routes to b are provided.  compute_b solves the
exponential fixed point y = exp(sum_i x^i y^{k-1}(x^i)/i) through the
integer kernel and is fast; recurrence_crosscheck expands the same
counts by literal (k-1)-tuple sums with a divisibility side condition
and is kept deliberately naive as a test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from kgonal import cache, kernels
from kgonal.kernels import IntegrityError, exact_div

__all__ = [
    "GonalParams",
    "BTable",
    "compute_b",
    "recurrence_crosscheck",
]


class GonalParams:
    """Polygon size k; k=2 is the degenerate ordinary-tree case.

    Immutable, and equal and hashed by k.
    """

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        if k < 2:
            raise ValueError("polygon size k must be >= 2")
        object.__setattr__(self, "k", k)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of GonalParams")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of GonalParams")

    def __reduce__(self) -> tuple:
        return GonalParams, (self.k,)

    def __eq__(self, other: object) -> bool:
        if type(other) is not GonalParams:
            return NotImplemented
        return self.k == other.k

    def __hash__(self) -> int:
        return hash((self.k,))

    def __repr__(self) -> str:
        return f"GonalParams(k={self.k})"

    @property
    def p(self) -> int:
        """Non-root edges per polygon."""
        return self.k - 1

    def m(self, n: int) -> int:
        """Edge count of a structure with n polygons."""
        return (self.k - 1) * n + 1


class BTable:
    """b to a fixed order plus memoized prefixes of its powers.

    powers maps exponent j to the longest prefix of b^j built so far;
    powers[1] is b itself, always to the full order.  compute_b also
    stores b^{k-1} to the full order when it solves b, since the kernel
    carries that power anyway; a table read from the cache starts with
    b alone.  Any other b^j, and b^{k-1} when it is missing, is one
    power-rule pass over b (kernels.power), never built from b^{j-1},
    and a request past the stored prefix rebuilds it to the new length.
    Every stored value is a correct prefix of b^j, so concurrent lookup
    and insert under the interpreter lock can at worst repeat work.
    oriented holds the oriented counts a_o to the full order once
    oriented.oriented_series has built them, for every later reader.
    """

    def __init__(self, params: GonalParams, order: int, powers: dict[int, list[int]]) -> None:
        self.params = params
        self.order = order
        self.powers = powers
        self.oriented: list[int] | None = None
        b = powers.get(1)
        if b is None or len(b) != self.order + 1:
            raise ValueError(f"a table of order {self.order} needs b_0..b_{self.order}")
        if b[0] != 1:
            raise IntegrityError("b_0 must be 1")

    def __repr__(self) -> str:
        return f"BTable(params={self.params!r}, order={self.order})"

    def int_coeffs(self, j: int = 1, upto: int | None = None) -> list[int]:
        """Coefficients of b^j as plain ints, through index `upto` at least.

        `upto` defaults to the table order.  The list returned may run
        past `upto` when a longer prefix is already memoized; callers
        that ask for a prefix read only the indices they asked for.
        """
        if upto is None:
            upto = self.order
        got = self.powers.get(j)
        if got is None or len(got) <= upto:
            if j < 0:
                raise ValueError("exponent must be >= 0")
            if not 0 <= upto <= self.order:
                raise IndexError(f"index {upto} outside table order 0..{self.order}")
            if j == 0:
                got = [1] + [0] * self.order
            else:
                got = kernels.power(self.powers[1], j, upto)
            self.powers[j] = got
        return got

    def truncate(self, order: int) -> BTable:
        """The same b cut at a lower order; its powers are built afresh on demand."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot cut order {self.order} to {order}")
        if order == self.order:
            return self
        return BTable(self.params, order, {1: self.powers[1][: order + 1]})

    def coeff(self, j: int, r: int | Fraction) -> int:
        """Coefficient of x^r in b^j, with 0 for negative or non-integral r.

        Counting formulas index b at expressions like (n-1)/2 or
        (n-2)/4; terms whose index fails to be a non-negative integer
        simply do not occur, which this convention encodes.  An integral
        index past the table order raises instead, since silence there
        would hide a truncation bug.
        """
        r = Fraction(r)
        if r < 0 or r.denominator != 1:
            return 0
        i = int(r)
        if i > self.order:
            raise IndexError(f"index {i} beyond table order {self.order}")
        return self.int_coeffs(j)[i]


def compute_b(params: GonalParams, order: int, cache_dir: Path | None = None) -> BTable:
    """Build the table, optionally through the advisory disk cache.

    A solve keeps the b^{k-1} that kernels.solve_b hands out beside b;
    a cache hit, which stores b alone, builds it on demand.
    """
    coeffs: list[int] | None = None
    if cache_dir is not None:
        coeffs = cache.load_b(cache_dir, params.k, order)
    if coeffs is not None:
        return BTable(params, order, {1: coeffs})
    bp: list[int] = []
    coeffs = kernels.solve_b(params.p, order, bp)
    if cache_dir is not None:
        cache.store_b(cache_dir, params.k, coeffs)
    # for k = 2, b^{k-1} is b itself
    return BTable(params, order, {params.p: bp, 1: coeffs})


def recurrence_crosscheck(params: GonalParams, order: int) -> list[int]:
    """b by the explicit tuple recurrence; test oracle only.

    n b_n = sum over j = 1..n and over ordered (k-1)-tuples a of
    non-negative integers such that |a|+1 divides j, of
    (|a|+1) * b_{a_1} * ... * b_{a_{k-1}} * b_{n-j}.

    The tuple sum with |a| = e - 1 is evaluated once, as soon as
    b_{e-1} is final, by direct recursion with no memo and no shared
    power tables, so agreement with compute_b crosses two genuinely
    different arithmetic routes.  Feasible for small orders only: each
    tuple sum costs O(order^{k-1}).
    """
    parts = params.p
    b: list[int] = [1]
    # weights[e] = e * (the tuple sum of parts indices summing to e - 1)
    weights = [0]

    def tuple_sum(remaining: int, total: int) -> int:
        # sum over ordered tuples of `remaining` indices summing to `total`
        if remaining == 0:
            return 1 if total == 0 else 0
        acc = 0
        for a in range(total + 1):
            acc += b[a] * tuple_sum(remaining - 1, total - a)
        return acc

    for n in range(1, order + 1):
        # b_{n-1} is final: the tuple sum for e = n is too, and is
        # evaluated once for every later n
        weights.append(n * tuple_sum(parts, n - 1))
        acc = 0
        for j in range(1, n + 1):
            for e in range(1, j + 1):
                if j % e == 0:
                    acc += weights[e] * b[n - j]
        b.append(exact_div(acc, n, f"tuple recurrence at n={n}"))
    return b
