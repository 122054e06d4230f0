"""Integer kernels, and the errors every exact computation raises.

These are the innermost loops of the whole package: the one step of a
Polya exponential (the series of structures fixed by reversing the root
edge), solving the edge-rooted series b together with b^(k-1) to large
order, block products of big-integer coefficient lists, and raising
them to powers.

solve_b is the costliest of them.  It tiles its two online convolutions
into PIECE-wide squares and multiplies the squares whose packed product
reaches DECIMAL_CROSSOVER digits through Decimal, whose libmpdec
multiplies large operands by a number-theoretic transform.  The square
width is capped because the transform's scratch memory grows with the
product: a wider square is faster but raises the peak RSS of the solve.

Every division is checked with divmod, and every integrity condition
raises one of the two errors below instead of relying on assert, so the
checks also run under python -O.  long_decimals is the one scope in
which counts are written as or read from decimal text, past the
interpreter's digit limit.
"""

from __future__ import annotations

import decimal
import sys
from contextlib import contextmanager
from decimal import Decimal
from operator import mul
from typing import Iterator, Sequence

__all__ = [
    "BACKEND",
    "IntegrityError",
    "InexactDivisionError",
    "exact_div",
    "exact_count",
    "polya_step",
    "solve_b",
    "add_products",
    "power",
    "long_decimals",
]

# the kernels are plain Python; benchmarks report this name
BACKEND = "python"

# add_products goes through Decimal from this many digits of packed
# product, (len a + len b - 1) times the slot width.  solve_b(11, 1000)
# took the same time from 5e4 to 1.2e5 and 30 % longer at 1.5e5.  The
# widest square of any solve up to order 500 packs to 1.07e5 digits, so
# those run int loops alone (2 vCPU, Python 3.11)
DECIMAL_CROSSOVER = 120_000

# solve_b's square width.  libmpdec's transform scratch grows with the
# product, so a wider square is faster and costs memory: the peak RSS
# of constants --p 11 was 21.4 MB with int loops alone, and 22.2, 22.5,
# 22.8 and 22.9 MB at PIECE = 64, 80, 96 and 128, while solve_b(11, 1000)
# took 2.4, 2.2, 1.8 and 1.7 s of CPU
PIECE = 64

# exact Decimal arithmetic on integers of any size
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.Inexact, decimal.Rounded],
)


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


def add_products(
    out: list[int],
    start: int,
    stop: int,
    base: int,
    terms: Sequence[tuple[list[int], list[int]]],
) -> None:
    """out[n] += [x^(n - base)] sum_t a_t(x) b_t(x) for start <= n < stop.

    terms holds pairs (a_t, b_t) of coefficient lists, and every
    coefficient must be non-negative: a negative one raises
    IntegrityError.  A product whose Kronecker packing would have fewer
    than DECIMAL_CROSSOVER digits runs as an int loop.  A larger one
    goes through Decimal, whose libmpdec multiplies large operands by a
    number-theoretic transform where int multiplication is Karatsuba.
    It is evaluated at X and -X with X = 10^half (Harvey's KS2, "Faster
    polynomial multiplication via multipoint Kronecker substitution",
    2009): two products of half the digits of one product at 10^w, so
    libmpdec's transform scratch, the largest transient of the solve,
    is half as large.
    """
    terms = [(a, b) for a, b in terms if a and b]
    if not terms or start >= stop:
        return
    if any(min(a) < 0 or min(b) < 0 for a, b in terms):
        raise IntegrityError("a block product input is negative")
    # every product coefficient is below 10^w: it is at most
    # len(terms) * min(len a, len b) * max(a) * max(b) for the largest
    # term, bounded here through bit lengths, and a number of `bits`
    # bits has at most bits * 0.30103 + 1 decimal digits
    bits = len(terms).bit_length() + max(
        max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length()
        for a, b in terms
    )
    w = bits * 30103 // 100000 + 1
    if max(len(a) + len(b) - 1 for a, b in terms) * w < DECIMAL_CROSSOVER:
        for n in range(start, stop):
            m = n - base
            for a, b in terms:
                lo, hi = max(0, m - len(b) + 1), min(m, len(a) - 1)
                if lo <= hi:
                    out[n] += sum(map(mul, a[lo : hi + 1], b[m - hi : m - lo + 1][::-1]))
        return
    # slots of 2 half >= w + 1 digits hold twice any coefficient
    half = (w + 2) // 2
    plus = minus = Decimal(0)
    with long_decimals():
        for a, b in terms:
            ap, am = _at_plus_minus(a, half)
            bp, bm = _at_plus_minus(b, half)
            plus = _EXACT.fma(ap, bp, plus)
            minus = _EXACT.fma(am, bm, minus)
        # plus + minus = 2 h_even(X^2), plus - minus = 2 X h_odd(X^2)
        parts = (_EXACT.add(plus, minus), _EXACT.subtract(plus, minus))
        del plus, minus
        for parity, part in enumerate(parts):
            _unpack(out, start, stop, base, str(part), parity, half)


def _at_plus_minus(coeffs: list[int], half: int) -> tuple[Decimal, Decimal]:
    """f(X) and f(-X) for X = 10^half, coefficients below 10^(2 half)."""
    even, odd = (
        Decimal("".join(str(c).zfill(2 * half) for c in reversed(coeffs[r::2])) or 0)
        for r in (0, 1)
    )
    odd = _EXACT.scaleb(odd, half)
    return _EXACT.add(even, odd), _EXACT.subtract(even, odd)


def _unpack(
    out: list[int], start: int, stop: int, base: int, text: str, parity: int, half: int
) -> None:
    """Add half of each slot of 2 X^parity h(X^2), written as text, to out."""
    end = len(text) - parity * half
    for n in range(start + (start - base + parity) % 2, stop, 2):
        m = (n - base) // 2
        slot = text[max(0, end - (m + 1) * 2 * half) : max(0, end - m * 2 * half)]
        if slot:
            out[n] += exact_div(int(slot), 2, "Kronecker slot")


def solve_b(p: int, order: int, power_out: list[int] | None = None) -> list[int]:
    """Coefficients y_0..y_order of the series y with y = exp(sum_i x^i y^p(x^i)/i).

    This is a Polya exponential with weight W_n = C_{n-1}, writing
    C = y^p.  Logarithmic differentiation gives x y'/y = sum_m sums_m x^m
    with sums_m = sum_{d|m} d C_{d-1}, and C = exp(p log y) shares it:

        n y_n = sum_{m=1}^{n} sums_m y_{n-m},
        n C_n = p sum_{m=1}^{n} sums_m C_{n-m}.

    So y and C are both online convolutions against sums, and sums_m is
    complete once C_{m-1} is known.  The pairs (m, n - m) with both
    indices >= 1 fall in two parts:

    - the band, where one index is below PIECE: two dot products of at
      most PIECE - 1 terms each, summed when y_n and C_n are computed;
    - the squares [i, i + PIECE) x [j, j + PIECE) with i and j positive
      multiples of PIECE.  A square is multiplied by add_products as
      soon as its last inputs are final, at n = max(i, j) + PIECE - 1;
      its outputs start at i + j > n, and until their turn the partial
      sums wait in y and C themselves.

    This is relaxed multiplication (van der Hoeven, "Relax, but don't be
    too lazy", J. Symbolic Comput. 34, 2002) with every block capped at
    PIECE: the doubling blocks below PIECE are the band's plain loops,
    and the larger ones are cut into PIECE squares.  The pair (n, 0)
    adds sums_n, since y_0 = C_0 = 1.

    Squares past DECIMAL_CROSSOVER are Decimal products and the rest int
    loops; up to order 500 every square is an int loop.  A remainder in
    either division would mean the recurrence is wired wrong and raises
    InexactDivisionError, and a negative y_n raises IntegrityError.

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
        w = n * c[n - 1]
        for m in range(n, order + 1, n):
            sums[m] += w
        # the band: pairs (i, n - i) with i < PIECE, then with n - i < PIECE <= i
        k, m = min(PIECE - 1, n - 1), max(0, min(PIECE - 1, n - PIECE))
        low, high = sums[1 : k + 1], sums[n - m : n][::-1]
        acc_y = sum(map(mul, low, y[n - k : n][::-1])) + sum(map(mul, high, y[1 : m + 1]))
        acc_c = sum(map(mul, low, c[n - k : n][::-1])) + sum(map(mul, high, c[1 : m + 1]))
        y[n] = exact_count(y[n] + acc_y + sums[n], n, f"y recurrence at n={n}")
        c[n] = exact_div(p * (c[n] + acc_c + sums[n]), n, f"power update at n={n}")
        # the squares [i, i + PIECE) x [j, j + PIECE) with i, j >= PIECE
        # whose last inputs are y_n, C_n and sums_n
        t = n + 1
        if t % PIECE or t < 2 * PIECE:
            continue
        i = t - PIECE
        for j in range(PIECE, i + 1, PIECE):
            if i + j > order:
                break
            stop = min(i + j + 2 * PIECE - 1, order + 1)
            for out in (y, c):
                terms = [(sums[i:t], out[j : j + PIECE])]
                if i != j:
                    terms.append((sums[j : j + PIECE], out[i:t]))
                add_products(out, i + j, stop, i + j, terms)
    return y


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
