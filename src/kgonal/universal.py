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
over d | i of d n_d, and s*_i the same sum without d = i.  mu is held
as a labelled.CycleType, whose sigma and centralizer are exactly these
divisor sums and the product i^{n_i} n_i!.  Values are
kept symbolically as {n: rational} maps of e^{-n} coefficients, so
comparisons against published closed forms are exact and independent of
float precision.

A naive alternative reading (partitions of m itself, with the same
factors) does not reproduce the published constants from c_3 on; the
partition-shift form above reproduces all of them and sums to the
directly solved singularity, so it is the one implemented.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from kgonal.labelled import CycleType
from kgonal.partitions import partitions

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

    def as_float(self, dps: int = 30) -> float:
        return float(self.value(dps))


@lru_cache(maxsize=None)
def universal_c(m: int) -> UniversalConstant:
    """The m-th expansion coefficient, exactly; computed once per m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    acc: dict[int, Fraction] = {}
    for small in partitions(m - 1):
        parts = tuple(part + 1 for part in small)
        # mu has no part 1, so its cycle-type sigma skips d = 1 for free
        mu = CycleType.from_parts(parts)
        n = sum(parts) + 1
        numerator = 1
        for i, n_i in enumerate(mu.counts, start=1):
            if n_i:
                numerator *= (mu.sigma(i) - n) ** (n_i - 1) * (mu.sigma(i, drop_own=True) - n)
        acc[n] = acc.get(n, Fraction(0)) + Fraction(numerator, n * mu.centralizer())
    terms = tuple(sorted(((n, c) for n, c in acc.items() if c != 0), reverse=True))
    return UniversalConstant(m, terms)


def xi_from_expansion(p: int, m_max: int, dps: int = 30) -> float:
    """Partial sum sum_{m<=m_max} c_m / p^m."""
    if p < 1:
        raise ValueError("p must be >= 1")
    from mpmath import mp, mpf

    with mp.workdps(dps):
        acc = mpf(0)
        for m in range(1, m_max + 1):
            acc += universal_c(m).value(dps) / mpf(p) ** m
        return float(acc)
