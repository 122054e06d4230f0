"""Plain integer loops kept as test oracles for the kernels.

kgonal.kernels.solve_b tiles its convolutions into blocks and multiplies
the large ones through Decimal.  solve_b_reference is the plain
O(order^2) loop it replaced, kept unchanged: one polya_step for y_n and
J.C.P. Miller's power rule for C_n = (y^p)_n.  The tests compare the two
on every coefficient of y and of C.  polya_step and power are the two
loops kgonal.kernels once kept beside its online kernel, for the
reversal-fixed series and for the powers b^j; both now run on that
kernel, and the tests compare them with these.  convolve is the
schoolbook truncated product that kernels.add_products and the powers
are checked against.
"""

from __future__ import annotations

from operator import mul

from kgonal.kernels import exact_count

__all__ = ["convolve", "polya_step", "power", "solve_b_reference"]


def polya_step(sums: list[int], y: list[int], n: int, w_n: int, what: str) -> int:
    """Coefficient y_n of a Polya exponential y = exp(sum_i W(x^i)/i).

    Logarithmic differentiation gives x y'/y = sum_m sums_m x^m with
    sums_m = sum_{d|m} d W_d, so

        n y_n = sum_{m=1}^{n} sums_m y_{n-m}.

    Called for n = 1, 2, ... in turn with the weight w_n = W_n, it first
    adds n w_n to sums at every multiple of n; sums[1..n] are then
    complete, since every divisor of m <= n is at most n.  y_0..y_{n-1}
    must already be in y.  The division goes through exact_count, so a
    remainder or a negative count raises an error naming `what`.
    """
    w = n * w_n
    for m in range(n, len(sums), n):
        sums[m] += w
    acc = sum(map(mul, sums[1 : n + 1], y[n - 1 :: -1]))
    return exact_count(acc, n, what)


def power(a: list[int], e: int, order: int) -> list[int]:
    """a**e truncated at `order`, for a with constant term 1.

    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, section 4.7):
    C = a^e satisfies a C' = e a' C, whose coefficient of x^{n-1} reads

        n C_n = sum_{i=1}^{n} ((e+1) i - n) a_i C_{n-i}.

    One O(order^2) pass whatever e is.  The division by n is exact for
    integer a with a_0 = 1; a remainder raises InexactDivisionError.
    """
    if e < 0:
        raise ValueError("exponent must be >= 0")
    if order < 0:
        raise ValueError("order must be >= 0")
    if not a or a[0] != 1:
        raise ValueError("power needs a constant term of 1")
    a = a[: order + 1]
    la = len(a)
    c = [0] * (order + 1)
    c[0] = 1
    e1 = e + 1
    for n in range(1, order + 1):
        acc = 0
        for i in range(1, min(n, la - 1) + 1):
            acc += (e1 * i - n) * a[i] * c[n - i]
        c[n] = exact_count(acc, n, f"power rule at n={n}")
    return c


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
        c[n] = exact_count(acc, n, f"power update at n={n}")
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
