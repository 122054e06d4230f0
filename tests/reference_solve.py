"""Plain integer loops kept as test oracles for the kernels.

kgonal.kernels.solve_b tiles its convolutions into blocks and multiplies
the large ones through Decimal.  solve_b_reference is the plain
O(order^2) loop it replaced, kept unchanged: one polya_step for y_n and
J.C.P. Miller's power rule for C_n = (y^p)_n.  The tests compare the two
on every coefficient of y and of C.  convolve is the schoolbook
truncated product that kernels.add_products and kernels.power are
checked against.
"""

from __future__ import annotations

from kgonal.kernels import exact_div, polya_step

__all__ = ["convolve", "solve_b_reference"]


def solve_b_reference(p: int, order: int, power_out: list[int] | None = None) -> list[int]:
    """Coefficients y_0..y_order of the series y with y = exp(sum_i x^i y^p(x^i)/i).

    This is a Polya exponential with weight W_n = C_{n-1}, writing
    C = y^p, so each y_n is one polya_step.  C itself is carried along
    without a power ladder: y C' = p y' C is the power rule, and its
    coefficient of x^{n-1} rearranges to

        n C_n = sum_{i=1}^{n} ((p+1) i - n) y_i C_{n-i}.

    Two O(n) convolution steps per coefficient, all in exact integers.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    y = [0] * (order + 1)
    c = [] if power_out is None else power_out
    c[:] = [0] * (order + 1)
    y[0] = 1
    c[0] = 1
    sums = [0] * (order + 1)
    for n in range(1, order + 1):
        y[n] = polya_step(sums, y, n, c[n - 1], f"y recurrence at n={n}")
        acc = 0
        for i in range(1, n + 1):
            acc += ((p + 1) * i - n) * y[i] * c[n - i]
        c[n] = exact_div(acc, n, f"power update at n={n}")
    return y


def convolve(a: list[int], b: list[int], order: int) -> list[int]:
    """Truncated Cauchy product of integer coefficient lists."""
    if order < 0:
        raise ValueError("order must be >= 0")
    la, lb = len(a), len(b)
    out = [0] * (order + 1)
    for n in range(order + 1):
        acc = 0
        lo = max(0, n - lb + 1)
        hi = min(n, la - 1)
        for i in range(lo, hi + 1):
            acc += a[i] * b[n - i]
        out[n] = acc
    return out
