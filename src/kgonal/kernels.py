"""Integer kernels, and the errors every exact computation raises.

These are the innermost loops of the whole package.  Every series it
solves is an exponential f, f_0 = 1, whose logarithmic derivative
x f'/f is s L for an integer s and a known series L, so that

    n f_n = s sum_{m=1}^{n} L_m f_{n-m},

and one online convolution kernel, _online, solves that recurrence for
all of them: b and b^(k-1) in solve_b, every other power b^j in
bseries.BTable.int_coeffs (s = j, with the L of b), and the series of
structures fixed by reversing the root edge in oriented.  The L of a
Polya exponential exp(sum_i W(x^i)/i) is the divisor sum
L_m = sum_{d|m} d W_d, and add_at_multiples adds the term of one d;
_online's ready hook lets a caller complete L_{n+1} once f_n is known.

solve_b is the costliest of them.  It is two passes of _online: the
power pass solves b^(k-1) and the series both convolutions run against,
and the pass for b then needs only that series; at k = 2, b^(k-1) is b
and the power pass alone solves it.  A solve of at least FORK_WORK at
k > 2 runs the power pass in a forked child (kgonal.forked), which
streams the series to the parent as it becomes final, so the two passes
run side by side, each pinned to a CPU of its own.  _online tiles its
convolution into squares whose width doubles from PIECE to CAP and then
stays at CAP, and add_products multiplies each square as one Kronecker
product: packed in bytes into one int below DECIMAL_CROSSOVER digits,
and through Decimal past it, whose libmpdec multiplies large operands
by a number-theoretic transform.  The square width is capped because
the transform's scratch memory grows with the product: a wider square
is faster but raises the peak RSS of the solve.  A square that the
order cuts to at most the lower half of its outputs is summed pair by
pair below the crossover, and past it split into the quarter products
that hold wanted outputs.  Each pass converts each of its coefficients
to decimal text at most once, however many Decimal squares read it.

Every division divides a count and goes through exact_count, which
checks its remainder and its sign, and every integrity condition
raises one of the two errors below instead of relying on assert, so the
checks also run under python -O.  long_decimals is the one scope in
which counts are written as or read from decimal text, past the
interpreter's digit limit.
"""

from __future__ import annotations

import decimal
import math
import sys
from contextlib import contextmanager
from decimal import Decimal
from operator import mul
from typing import Callable, Iterator, NamedTuple, Sequence

__all__ = [
    "BACKEND",
    "IntegrityError",
    "InexactDivisionError",
    "exact_count",
    "solve_b",
    "solve_work",
    "add_products",
    "add_at_multiples",
    "long_decimals",
]

# the kernels are plain Python; benchmarks report this name.  The setup
# probe of perfbench/run.py (PROBE) prints kgonal.kernels.BACKEND and
# fails without it, so it goes only together with a change to that probe
BACKEND = "python"

# add_products goes through Decimal from this many digits of packed
# product, (len a + len b - 1) times the slot width, and splits a
# product cut to its lower half from there on.  With the squares of
# PIECE and CAP below, solve_b(11, 1000) in one process took 1.0-1.2 s
# of CPU at every crossover from 3e4 to 2.4e5, and 1.4-1.6 s at 5e5 or
# with no Decimal product at all (medians of 5, two rounds; 2 vCPU,
# Python 3.11)
DECIMAL_CROSSOVER = 120_000

# solve_b's squares: PIECE is the width of the band and of the narrowest
# square, CAP that of the widest, and CAP must be PIECE times a power of
# two.  libmpdec's transform scratch grows with the product, so wider
# squares cost memory.  At CAP = 64, 128, 256 and 512, solve_b(11,
# 1000) in one process took 1.4-1.6, 1.1-1.4, 1.1-1.3 and 1.1-1.4 s of
# CPU (medians of 5, two rounds), and the peak RSS of constants --p 11
# --series-order 1600 was 21.1-21.2, 21.8-22.2, 23.3-23.5 and 25.3-27.0
# MB (three runs).  CAP = 128 keeps that peak within 5 % of CAP = 64's
# for most of the time a wider square saves (2 vCPU, Python 3.11)
PIECE = 64
CAP = 128

# solve_b forks its power pass from this much work (solve_work), the
# unit of the CLI's TABLE_COST_CEILING: from order 588 at p = 11.  A
# solve at p = 1 is one pass and never forks.  With both sides of the
# fork pinned to their own CPU, constants --p P --no-empirical
# --series-order N, forked against one process (median ratios of 10
# alternating pairs each, and how many the fork won; 2 vCPU, Python
# 3.11): at p = 11 1.07 at order 300 (4.0e7 units; 2 of 10), 0.93-0.97
# at 350 and 400 (7 of 10), 0.76 at 500 (10 of 10), 0.75 at 590 (3.0e8;
# 9 of 10) and 0.73 at 600 (9 of 10).  Every measured order at or above
# this threshold won at least 9 of 10 pairs; the solves of constants
# --no-empirical at order 500 stay in one process up to p = 11.  The
# same sweep at p = 1, from when that solve still ran two passes, gated
# the threshold too (0.79 at order 850, 2.7e8 units, 9 of 10; 1.00 at
# 700, 5 of 10) and gates nothing now.  Unpinned, constants --p 11
# --no-empirical --series-order 500 had taken 0.273 s forked against
# 0.258 s, which set the threshold at 5e8 before the fork was pinned
FORK_WORK = 3e8

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


def exact_count(num: int, den: int, what: str) -> int:
    """num / den, a count: a remainder or a negative quotient raises, naming `what`."""
    q, r = divmod(num, den)
    if r:
        raise InexactDivisionError(f"{what}: remainder {r} dividing by {den}")
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


class _Block(NamedTuple):
    """coeffs, the coefficients first, first + 1, ... of a series.

    memo holds the decimal text of that series' coefficients by index.
    _online keeps one memo per series and pass, so that each of its
    coefficients is converted at most once, however many squares read
    it.
    """

    coeffs: list[int]
    first: int
    memo: dict[int, str]

    def cut(self, h: int) -> tuple[_Block, _Block]:
        """The coefficients below h and those from h on."""
        return (
            _Block(self.coeffs[:h], self.first, self.memo),
            _Block(self.coeffs[h:], self.first + h, self.memo),
        )


def add_products(
    out: list[int],
    start: int,
    stop: int,
    terms: Sequence[tuple[list[int] | _Block, list[int] | _Block]],
) -> None:
    """out[n] += [x^(n - start)] sum_t a_t(x) b_t(x) for start <= n < stop.

    terms holds pairs (a_t, b_t) of coefficient lists, or of blocks of
    a series, whose decimal text is kept in their memo; a list has a
    memo of its own.  Every coefficient must be non-negative: a negative
    one raises IntegrityError.

    The size of the Kronecker packing, one slot of w digits per product
    coefficient, picks the route.  A product whose packing would have
    fewer than DECIMAL_CROSSOVER digits is summed pair by pair when at
    most the lower half of its coefficients is wanted, and is otherwise
    one int product: each list is packed into bytes at 2^(8 width), with
    slots wide enough for any coefficient of the sum, and the slots are
    read back from the bytes of the sum of products.  This pays for a
    solve_b square, whose coefficients are of similar size, and not for
    a whole series, whose coefficients grow like beta^n, so that every
    slot is padded to the largest.  A larger product goes through
    Decimal, whose libmpdec multiplies large operands by a
    number-theoretic transform where int multiplication is Karatsuba.
    It is evaluated at X and -X with X = 10^half (Harvey's KS2, "Faster
    polynomial multiplication via multipoint Kronecker substitution",
    2009): two products of half the digits of one product at 10^w, so
    libmpdec's transform scratch, the largest transient of the solve,
    is half as large.  A larger product of which at most the lower half
    is wanted is split instead: each list is cut at h, half the longest,
    the product of the two upper halves starts past every wanted output
    and is dropped, and the low product, at start, and the two cross
    products, at start + h, are requests to this function again, each
    either whole or split once more.
    """
    blocks = [
        (a, b)
        for a, b in ((_block(a), _block(b)) for a, b in terms)
        if a.coeffs and b.coeffs
    ]
    if not blocks or start >= stop:
        return
    pairs = [(a.coeffs, b.coeffs) for a, b in blocks]
    if any(min(a) < 0 or min(b) < 0 for a, b in pairs):
        raise IntegrityError("a block product input is negative")
    size = max(len(a) + len(b) - 1 for a, b in pairs)
    end = min(stop, start + size)
    # every product coefficient is below 10^w: it is at most
    # len(terms) * min(len a, len b) * max(a) * max(b) for the largest
    # term, bounded here through bit lengths, and a number of `bits`
    # bits has at most bits * 0.30103 + 1 decimal digits
    bits = len(pairs).bit_length() + max(
        max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length()
        for a, b in pairs
    )
    w = bits * 30103 // 100000 + 1
    if 2 * (end - start) <= size:
        # at most the lower half of the product is wanted, as in a square
        # cut by the order of the solve
        if size * w < DECIMAL_CROSSOVER:
            # the loop multiplies at most half of the pairs, where a
            # Kronecker product multiplies them all
            _pair_loop(out, start, end, pairs)
            return
        # the upper halves' product starts at start + 2h >= end, since
        # end - start <= size / 2 < h
        h = (max(max(len(a), len(b)) for a, b in pairs) + 1) // 2
        cuts = [(a.cut(h), b.cut(h)) for a, b in blocks]
        add_products(out, start, stop, [(a_lo, b_lo) for (a_lo, _), (b_lo, _) in cuts])
        if start + h < stop:
            cross = [(a_lo, b_hi) for (a_lo, _), (_, b_hi) in cuts]
            cross += [(a_hi, b_lo) for (_, a_hi), (b_lo, _) in cuts]
            add_products(out, start + h, stop, cross)
        return
    if size * w < DECIMAL_CROSSOVER:
        # one Kronecker product at 2^(8 width): slots of `width` bytes
        # hold every coefficient of the sum, so no slot carries
        width = (bits + 7) // 8
        packed = sum(_packed(a, width) * _packed(b, width) for a, b in pairs)
        data = packed.to_bytes(size * width, "little")
        for n in range(start, end):
            m = (n - start) * width
            out[n] += int.from_bytes(data[m : m + width], "little")
        return
    # slots of 2 half >= w + 1 digits hold twice any coefficient
    half = (w + 2) // 2
    plus = minus = Decimal(0)
    with long_decimals():
        for a, b in blocks:
            ap, am = _at_plus_minus(_texts(a), half)
            bp, bm = _at_plus_minus(_texts(b), half)
            plus = _EXACT.fma(ap, bp, plus)
            minus = _EXACT.fma(am, bm, minus)
        # plus + minus = 2 h_even(X^2), plus - minus = 2 X h_odd(X^2)
        parts = (_EXACT.add(plus, minus), _EXACT.subtract(plus, minus))
        del plus, minus
        for parity, part in enumerate(parts):
            _unpack(out, start, stop, str(part), parity, half)


def _block(factor: list[int] | _Block) -> _Block:
    """factor itself, or a coefficient list as a block with a memo of its own."""
    return factor if isinstance(factor, _Block) else _Block(factor, 0, {})


def _pair_loop(
    out: list[int], start: int, end: int, terms: list[tuple[list[int], list[int]]]
) -> None:
    """out[n] += [x^(n - start)] sum_t a_t b_t for start <= n < end, one dot product per n."""
    for n in range(start, end):
        m = n - start
        for a, b in terms:
            lo, hi = max(0, m - len(b) + 1), min(m, len(a) - 1)
            if lo <= hi:
                out[n] += sum(map(mul, a[lo : hi + 1], b[m - hi : m - lo + 1][::-1]))


def _texts(block: _Block) -> list[str]:
    """The decimal text of block's coefficients, each converted once into its memo."""
    memo, texts = block.memo, []
    for n, c in enumerate(block.coeffs, block.first):
        text = memo.get(n)
        if text is None:
            text = memo[n] = str(c)
        texts.append(text)
    return texts


def _packed(coeffs: list[int], width: int) -> int:
    """f(2^(8 width)) for non-negative coefficients below 2^(8 width)."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def _at_plus_minus(texts: list[str], half: int) -> tuple[Decimal, Decimal]:
    """f(X) and f(-X) for X = 10^half, from the decimal text of f's coefficients.

    Each coefficient is below 10^(2 half), and its text is zero-filled
    to that slot width here; nothing is converted again.
    """
    even, odd = (
        Decimal("".join(t.zfill(2 * half) for t in reversed(texts[r::2])) or 0)
        for r in (0, 1)
    )
    odd = _EXACT.scaleb(odd, half)
    return _EXACT.add(even, odd), _EXACT.subtract(even, odd)


def _unpack(out: list[int], start: int, stop: int, text: str, parity: int, half: int) -> None:
    """Add half of each slot of 2 X^parity h(X^2), written as text, to out[start + parity::2]."""
    end = len(text) - parity * half
    for n in range(start + parity, stop, 2):
        m = (n - start) // 2
        slot = text[max(0, end - (m + 1) * 2 * half) : max(0, end - m * 2 * half)]
        if slot:
            out[n] += exact_count(int(slot), 2, "Kronecker slot")


def _squares(t: int, order: int) -> Iterator[tuple[int, int, int]]:
    """The squares (i, j, s) of _online whose last inputs have index t - 1.

    (i, j, s) stands for sums[i:i+s] times out[j:j+s] and, when i != j,
    its mirror sums[j:j+s] times out[i:i+s]; only squares whose first
    output i + j is at most order are listed.  Together with the band,
    where the smaller index is below PIECE, they cover every pair of
    indices >= 1 once:

    - strips, for s = PIECE, 2 PIECE, ..., CAP / 2: the pairs whose
      smaller index lies in [s, 2s) are the s-squares at (t - s, s), one
      at each multiple t >= 2s of s;
    - a grid past CAP: the CAP-squares at (t - CAP, j) for every
      multiple j of CAP up to t - CAP, at each multiple t of CAP.

    Every square has s <= min(i, j), so its first output i + j comes
    after its last input max(i, j) + s - 1 = t - 1.
    """
    s = PIECE
    while s < CAP and t % s == 0 and t >= 2 * s:
        if t <= order:
            yield t - s, s, s
        s *= 2
    if t % CAP == 0:
        i = t - CAP
        for j in range(CAP, min(i, order - i) + 1, CAP):
            yield i, j, CAP


def _expiry(order: int) -> dict[int, list[int]]:
    """The indices that no square of _online reads after those listed at t, by t."""
    last: dict[int, int] = {}
    for t in range(PIECE, order + 2, PIECE):
        for i, j, s in _squares(t, order):
            last.update(dict.fromkeys(range(i, i + s), t))
            last.update(dict.fromkeys(range(j, j + s), t))
    expiry: dict[int, list[int]] = {}
    for m, t in last.items():
        expiry.setdefault(t, []).append(m)
    return expiry


def solve_b(p: int, order: int, power_out: list[int] | None = None) -> list[int]:
    """Coefficients y_0..y_order of the series y with y = exp(sum_i x^i y^p(x^i)/i).

    This is a Polya exponential with weight W_n = C_{n-1}, writing
    C = y^p.  Logarithmic differentiation gives x y'/y = sum_m sums_m x^m
    with sums_m = sum_{d|m} d C_{d-1}, and C = exp(p log y) shares it:

        n C_n = p sum_{m=1}^{n} sums_m C_{n-m},
        n y_n = sum_{m=1}^{n} sums_m y_{n-m}.

    sums_m is complete once C_{m-1} is known, so C and sums need nothing
    from y, and y is then an online convolution against sums.  The solve
    is two passes of one kernel, _online: the power pass builds C and,
    from it, sums; the y pass runs against sums.

    A solve whose work, solve_work(p, order), reaches FORK_WORK runs
    the power pass in a child made by os.fork (kgonal.forked.solve_b)
    when forked.may_fork allows it: two CPUs, one thread, and no fork
    already live, so no solve forks inside either half of a split
    table.  The child streams each final block of sums through a pipe
    with marshal, and finally sends C; the parent runs the y pass as
    the blocks arrive, so the two passes share the wall time, pinned to
    two different CPUs while the child lives.  Smaller solves run the
    two passes one after the other in this process.  The
    child always ends through os._exit, so it runs no atexit handler and
    flushes no buffer it inherited.  An exception in it reaches the
    caller as the same class with the same message.  The parent reaps
    the child before solve_b returns or raises, and kills it first when
    it is itself unwinding.

    A remainder in either division would mean the recurrence is wired
    wrong and raises InexactDivisionError, and a negative coefficient
    raises IntegrityError.

    At p = 1, C = y and the two recurrences are one: the power pass
    alone solves it, its C is returned as y, and the solve never forks.

    The return value is y alone.  A caller that also wants C = y^p
    passes a list as power_out; it is filled in place with
    C_0..C_order, the power the recurrence has built anyway.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if order < 0:
        raise ValueError("order must be >= 0")
    if _fork_pays(p, order):
        from kgonal import forked

        return forked.solve_b(p, order, power_out)
    c = [] if power_out is None else power_out
    sums = [0] * (order + 1)
    _power_pass(p, c, sums)
    if p == 1:
        # C = y: the y pass would solve the power pass's recurrence again
        return c if power_out is None else list(c)
    y = [1] + [0] * order
    _online(y, sums, 1, "y recurrence")
    return y


def solve_work(p: int, order: int) -> float:
    """The work of solve_b(p, order), order^3 log10(e p), in the units of FORK_WORK.

    The CLI's cost ceilings count in the same units.  log10(e p) is
    summed as log10(p) + log10(e): e p as a float overflows from p of
    309 digits on, and log10 takes an int of any size.
    """
    return order**3 * (math.log10(p) + math.log10(math.e))


def _fork_pays(p: int, order: int) -> bool:
    """Whether solve_b runs its power pass in a forked child; never at p = 1, a single pass.

    kgonal.forked is imported only past the work gate, so a small solve
    never compiles it.
    """
    if p <= 1 or solve_work(p, order) < FORK_WORK:
        return False
    from kgonal import forked

    return forked.may_fork()


def _power_pass(
    p: int, c: list[int], sums: list[int], send: Callable[[list[int]], None] | None = None
) -> None:
    """Fill c with C_0..C_order, C = y^p, and the zeros of sums with sums_0..sums_order.

    order is len(sums) - 1.  When send is given, each block of sums is
    handed to it as soon as it is final: at every multiple of PIECE,
    ahead of that step's squares, and at the end.
    """
    order = len(sums) - 1
    c[:] = [1] + [0] * order
    sent = 1

    def ready(n: int) -> None:
        nonlocal sent
        # C_n is final: its term completes sums_{n + 1}
        m = n + 1
        add_at_multiples(sums, m, m * c[n])
        if send is not None and (m % PIECE == 0 or m == order):
            send(sums[sent : m + 1])
            sent = m + 1

    _online(c, sums, p, "power update", ready)


def add_at_multiples(sums: list[int], d: int, w: int) -> None:
    """sums[m] += w at every multiple m of d, d >= 1, up to the end of sums.

    The term of divisor d in the divisor sums sums_m = sum_{d|m} d W_d
    of a Polya exponential, with w = d W_d.  Once the terms of d = 1..n
    are in, sums_1..sums_n are complete, since every divisor of m <= n
    is at most n.
    """
    for m in range(d, len(sums), d):
        sums[m] += w


def _online(
    out: list[int],
    sums: list[int],
    scale: int,
    what: str,
    ready: Callable[[int], None] | None = None,
) -> None:
    """Solve n out_n = scale sum_{m=1}^{n} sums_m out_{n-m} online, out_0 = 1.

    out must hold out_0 = 1 and zeros to its full length, order + 1.
    sums_m may be final only once out_{m-1} is: ready(n), when given,
    is called for n = 0..order - 1 once out_n is final and before the
    squares of that step, and must make sums_{n+1} final.  sums may
    grow as it does, provided it holds sums_0..sums_{n+1} when ready(n)
    returns.  Every pair (m, n - m) with both indices >= 1 is in one of
    two parts:

    - the band, where one index is below PIECE: two dot products of at
      most PIECE - 1 terms each, summed when out_n is computed;
    - the squares listed by _squares: s-squares for the pairs whose
      smaller index lies in [s, 2s), s = PIECE, 2 PIECE, ..., CAP / 2,
      and CAP-squares past CAP.  A square is multiplied by add_products
      as soon as its last inputs are final, at n = max(i, j) + s - 1;
      its outputs start at i + j > n, and until their turn the partial
      sums wait in out itself.

    This is relaxed multiplication (van der Hoeven, "Relax, but don't be
    too lazy", J. Symbolic Comput. 34, 2002) with every block capped at
    CAP: the doubling blocks below PIECE are the band's plain loops,
    those from PIECE to CAP / 2 the strips, and the larger ones are cut
    into CAP-squares.  The pair (n, 0) adds sums_n, since out_0 = 1.
    The digits of its Kronecker packing pick each square's route in
    add_products: below DECIMAL_CROSSOVER a byte-packed int product, or
    pair by pair when at most half its outputs are at or below order;
    past it a Decimal product, or, when so cut, the quarter products
    that hold wanted outputs.  Each square reads its blocks of sums and
    out with the pass's memo of their decimal text, by index, so that
    every coefficient is converted at most once per pass, and each text
    is dropped after the last square that reads it (_expiry).  Each
    out_n goes through exact_count, naming `what` and n.
    """
    order = len(out) - 1
    # the decimal text of the coefficients that Decimal squares have
    # read, by index, until the last square that reads them
    sums_text: dict[int, str] = {}
    out_text: dict[int, str] = {}
    expiry = _expiry(order)
    if ready is not None and order:
        ready(0)
    for n in range(1, order + 1):
        # the band: pairs (i, n - i) with i < PIECE, then with n - i < PIECE <= i
        k, m = min(PIECE - 1, n - 1), min(PIECE - 1, n - PIECE)
        acc = sum(map(mul, sums[1 : k + 1], out[n - 1 : n - k - 1 : -1]))
        if m > 0:
            acc += sum(map(mul, sums[n - 1 : n - m - 1 : -1], out[1 : m + 1]))
        out[n] = exact_count(scale * (out[n] + acc + sums[n]), n, f"{what} at n={n}")
        if ready is not None and n < order:
            ready(n)
        # the squares whose last inputs are out_n and sums_n; every square
        # ends on a multiple of PIECE
        if (n + 1) % PIECE:
            continue
        for i, j, s in _squares(n + 1, order):
            terms = [(_Block(sums[i : i + s], i, sums_text), _Block(out[j : j + s], j, out_text))]
            if i != j:
                terms.append(
                    (_Block(sums[j : j + s], j, sums_text), _Block(out[i : i + s], i, out_text))
                )
            add_products(out, i + j, min(i + j + 2 * s - 1, order + 1), terms)
        for index in expiry.pop(n + 1, ()):
            sums_text.pop(index, None)
            out_text.pop(index, None)

