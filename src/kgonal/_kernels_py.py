"""Pure-Python integer kernels.

These are the innermost loops of the whole package: solving the
edge-rooted series to large order, convolving big-integer coefficient
lists and raising them to powers.  A compiled twin lives in
_kernels.pyx; kgonal.kernels picks whichever is importable.  solve_b and
convolve run the same arithmetic in both; power uses the power rule
here and squares and multiplies there.  All three return the same exact
integers in both, bit for bit.
"""

from __future__ import annotations

__all__ = ["InexactDivisionError", "solve_b", "convolve", "power"]


class InexactDivisionError(ArithmeticError):
    """A division that the recurrence guarantees exact left a remainder."""


def solve_b(p: int, order: int) -> list[int]:
    """Coefficients y_0..y_order of the series y with y = exp(sum_i x^i y^p(x^i)/i).

    Writing C = y^p, logarithmic differentiation of the defining equation
    gives x y'/y = sum_m h_m x^m with h_m = sum_{e|m} e * C_{e-1}, so

        n y_n = sum_{m=1}^{n} h_m y_{n-m}.

    C itself is carried along without a power ladder: y C' = p y' C is
    the power rule, and its coefficient of x^{n-1} rearranges to

        n C_n = sum_{i=1}^{n} ((p+1) i - n) y_i C_{n-i}.

    Two O(n) convolution steps per coefficient, all in exact integers.
    Every division is asserted exact; a remainder would mean the
    recurrence is wired wrong.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    y = [0] * (order + 1)
    c = [0] * (order + 1)
    y[0] = 1
    c[0] = 1
    h = [0] * (order + 1)
    for n in range(1, order + 1):
        hn = 0
        for e in range(1, n + 1):
            if n % e == 0:
                hn += e * c[e - 1]
        h[n] = hn
        acc = 0
        for m in range(1, n + 1):
            acc += h[m] * y[n - m]
        q, r = divmod(acc, n)
        assert r == 0, f"y recurrence not exact at n={n}"
        y[n] = q
        acc = 0
        for i in range(1, n + 1):
            acc += ((p + 1) * i - n) * y[i] * c[n - i]
        q, r = divmod(acc, n)
        assert r == 0, f"power update not exact at n={n}"
        c[n] = q
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
        q, r = divmod(acc, n)
        if r:
            raise InexactDivisionError(f"power rule not exact at n={n}")
        c[n] = q
    return c
