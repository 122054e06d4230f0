"""Coefficients of the large-p expansion of the singularity.

The singularity admits xi_p = sum_{m>=1} c_m / p^m with coefficients
c_m independent of p, each a finite rational combination of powers of
1/e.  The working formula sums over partitions mu with every part at
least 2 and |mu| - length(mu) = m - 1 (equivalently, over partitions
lambda of m-1 after adding 1 to every part):

    c_m = sum over mu of (1/n) e^{-n}
          * prod_{i>=2, n_i>0} (s_i - n)^{n_i - 1} (s*_i - n)
          / prod_{i>=2} i^{n_i} n_i!

with n = |mu| + 1, n_i the multiplicity of i in mu, s_i the divisor sum
over d | i of d n_d, and s*_i the same sum without d = i.

The sum runs in integers.  n = m + length(mu), so the number of parts
is fixed outermost, and mu is built depth-first in one multiplicity
vector by ascending part size: when n_i is chosen, every n_d with d < i
is known, so s*_i and the factor of i are multiplied in at that moment
and shared by every mu that extends the prefix.  The product z(mu) =
prod i^{n_i} n_i! divides |mu|! = (n-1)!, so each n keeps a single
integer S_n = sum numerator(mu) (n-1)!/z(mu), and the e^{-n}
coefficient is the one Fraction S_n / n!.  Values are kept symbolically
as {n: rational} maps of e^{-n} coefficients, so comparisons against
published closed forms are exact and independent of float precision.

A naive alternative reading (partitions of m itself, with the same
factors) does not reproduce the published constants from c_3 on; the
partition-shift form above reproduces all of them and sums to the
directly solved singularity, so it is the one implemented.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:
    from mpmath import mpf

__all__ = [
    "UniversalConstant",
    "universal_c",
    "xi_from_expansion",
]


class UniversalConstant(NamedTuple):
    """c_m as an exact combination of e^{-n} terms."""

    m: int
    terms: tuple[tuple[int, Fraction], ...]  # (n, coefficient), n descending

    def closed_form(self) -> str:
        """Human-readable form like '1/8*exp(-5) - 1/3*exp(-4)'."""
        if not self.terms:
            return "0"
        pieces = []
        for n, coeff in self.terms:
            magnitude = abs(coeff)
            body = f"exp(-{n})" if magnitude == 1 else f"{magnitude}*exp(-{n})"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def value(self, dps: int = 30) -> mpf:
        from mpmath import exp as mp_exp
        from mpmath import mp, mpf

        with mp.workdps(dps):
            acc = mpf(0)
            for n, coeff in self.terms:
                acc += mpf(coeff.numerator) / coeff.denominator * mp_exp(-n)
            return acc


@lru_cache(maxsize=None)
def universal_c(m: int) -> UniversalConstant:
    """The m-th expansion coefficient, exactly; computed once per m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    factorials = [factorial(i) for i in range(2 * m)]
    # the parts d of mu that s*_i reads: 2 <= d < i, d | i
    proper = [[d for d in range(2, i) if i % d == 0] for i in range(m + 1)]
    counts = [0] * (m + 1)  # n_i of the mu being built
    n = total = 0

    def walk(low: int, left: int, parts: int, term: int) -> None:
        """Add every mu that extends the chosen prefix to total.

        The rest of mu has `parts` parts, each at least `low`, whose
        sizes minus one sum to `left`.  term is the prefix's numerator
        times (n-1)!/z(prefix), an integer: z(prefix) divides the
        factorial of the prefix's size, so every division below is exact.
        """
        nonlocal total
        if parts <= 1:
            if parts:  # the last part's size is forced
                i = left + 1
                s = -n
                for d in proper[i]:
                    s += d * counts[d]
                term = term * s // i
            total += term
            return
        for i in range(low, left // parts + 2):
            # n_i = k leaves left - k (i-1) to the parts - k parts above i,
            # which weigh at least i each
            multiplicities = range(max(1, parts * i - left), min(parts, left // (i - 1)) + 1)
            if not multiplicities:
                continue
            # s*_i - n: every part below i is chosen
            s = -n
            for d in proper[i]:
                s += d * counts[d]
            if not s:
                continue
            for k in multiplicities:
                rest, more = left - k * (i - 1), parts - k
                if more or not rest:  # the last parts leave no weight over
                    counts[i] = k
                    factor = (s + i * k) ** (k - 1) * s
                    walk(i + 1, rest, more, term * factor // (i**k * factorials[k]))
            counts[i] = 0

    terms: list[tuple[int, Fraction]] = []
    # a partition of m - 1 has at least one part unless m = 1
    for length in range(m - 1, min(1, m - 1) - 1, -1):
        n = m + length
        total = 0
        walk(2, m - 1, length, factorials[n - 1])
        if total:
            terms.append((n, Fraction(total, factorials[n])))
    return UniversalConstant(m, tuple(terms))


def xi_from_expansion(p: int, values: Sequence[mpf]) -> float:
    """Partial sum sum_{m<=len(values)} c_m / p^m, summed at 30 digits.

    values holds c_1, c_2, ... already evaluated to at least 30 digits,
    as the universal command prints them before it sums them.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    from mpmath import mp, mpf

    with mp.workdps(30):
        acc = mpf(0)
        for m, value in enumerate(values, start=1):
            acc += value / mpf(p) ** m
        return float(acc)
