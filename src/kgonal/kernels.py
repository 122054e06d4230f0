"""Integer kernels, and the errors every exact computation raises.

These are the innermost loops of the whole package: the one step of
every Polya exponential (the edge-rooted series b and the series of
structures fixed by reversing the root edge), solving the edge-rooted series to
large order, convolving big-integer coefficient lists and raising them
to powers.  Every division is checked with divmod, and every integrity
condition raises one of the two errors below instead of relying on
assert, so the checks also run under python -O.  long_decimals is the
one scope in which counts are written as or read from decimal text,
past the interpreter's digit limit.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "BACKEND",
    "IntegrityError",
    "InexactDivisionError",
    "exact_div",
    "exact_count",
    "polya_step",
    "solve_b",
    "convolve",
    "power",
    "long_decimals",
]

# the kernels are plain Python; benchmarks report this name
BACKEND = "python"


class IntegrityError(ArithmeticError):
    """A count or a cross-check broke a condition that holds when the code is right."""


class InexactDivisionError(IntegrityError):
    """A division that the recurrence guarantees exact left a remainder."""


def exact_div(num: int, den: int, what: str) -> int:
    """num / den, raising InexactDivisionError naming `what` on a remainder."""
    q, r = divmod(num, den)
    if r:
        raise InexactDivisionError(f"{what}: remainder {r} dividing by {den}")
    return q


def exact_count(num: int, den: int, what: str) -> int:
    """exact_div for a count, which must also come out non-negative."""
    q = exact_div(num, den, what)
    if q < 0:
        raise IntegrityError(f"{what} is negative")
    return q


@contextmanager
def long_decimals() -> Iterator[None]:
    """Lift the interpreter's limit on int <-> decimal string conversions.

    Since CPython 3.11 (and the security releases of 3.7-3.10), str(n)
    and int(s) refuse numbers past 4300 digits.  Exact counts pass that
    size, so every conversion of a count to or from decimal text runs
    inside this block.  The previous limit is restored on exit, so no
    setting outlives the block.  The limit is process-wide: another
    thread converting while the block is open runs without it too.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    previous = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


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
    acc = 0
    for m in range(1, n + 1):
        acc += sums[m] * y[n - m]
    return exact_count(acc, n, what)


def solve_b(p: int, order: int, power_out: list[int] | None = None) -> list[int]:
    """Coefficients y_0..y_order of the series y with y = exp(sum_i x^i y^p(x^i)/i).

    This is a Polya exponential with weight W_n = C_{n-1}, writing
    C = y^p, so each y_n is one polya_step.  C itself is carried along
    without a power ladder: y C' = p y' C is the power rule, and its
    coefficient of x^{n-1} rearranges to

        n C_n = sum_{i=1}^{n} ((p+1) i - n) y_i C_{n-i}.

    Two O(n) convolution steps per coefficient, all in exact integers.
    A remainder in either division would mean the recurrence is wired
    wrong and raises InexactDivisionError, and a negative y_n raises
    IntegrityError.

    The return value is y alone.  A caller that also wants C = y^p
    passes a list as power_out; it is filled in place with
    C_0..C_order, the power the recurrence has built anyway.
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
        c[n] = exact_div(acc, n, f"power rule at n={n}")
    return c
