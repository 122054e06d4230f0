"""Truncated formal power series over exact rationals.

A Series of order N stores the coefficients of x^0 .. x^N and nothing
beyond.  Coefficients are fractions.Fraction, so every operation here is
exact.  The kgonal package counts on integer lists and never imports
this module; the tests keep it as an independent exact reference.

Orders never coerce silently.  Combining two series of different orders
raises OrderMismatchError, because a mismatch is almost always a caller
bug that would otherwise surface as a wrong count much later.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

__all__ = [
    "Series",
    "OrderMismatchError",
    "ConstantTermError",
    "exp",
]


class OrderMismatchError(ValueError):
    """Two series of different truncation orders were combined."""


class ConstantTermError(ValueError):
    """exp() was applied to a series with a nonzero constant term."""


def _coeff(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficient must be int or Fraction, not {type(value).__name__}")


@dataclass(frozen=True)
class Series:
    """Immutable truncated series; coeffs[i] is the coefficient of x^i."""

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError("order must be non-negative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"order {self.order} needs {self.order + 1} coefficients, got {len(self.coeffs)}"
            )

    # construction helpers

    @staticmethod
    def from_coeffs(values: Iterable[int | Fraction], order: int) -> Series:
        """Series from leading coefficients, zero-padded up to `order`."""
        cs = [_coeff(v) for v in values]
        if len(cs) > order + 1:
            raise ValueError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        return Series(order, tuple(cs))

    @staticmethod
    def zero(order: int) -> Series:
        return Series.from_coeffs([], order)

    @staticmethod
    def one(order: int) -> Series:
        return Series.from_coeffs([1], order)

    @staticmethod
    def x(order: int) -> Series:
        return Series.from_coeffs([0, 1], order)

    @staticmethod
    def constant(value: int | Fraction, order: int) -> Series:
        return Series.from_coeffs([value], order)

    # access

    def __getitem__(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside 0..{self.order}")
        return self.coeffs[i]

    def agrees_with(self, other: Series) -> bool:
        """Coefficient-wise equality up to the smaller of the two orders."""
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def integer_coeffs(self) -> tuple[int, ...]:
        """All coefficients as ints; raises if any denominator is not 1."""
        out = []
        for i, c in enumerate(self.coeffs):
            if c.denominator != 1:
                raise ValueError(f"coefficient of x^{i} is not an integer: {c}")
            out.append(c.numerator)
        return tuple(out)

    def _check_order(self, other: Series) -> None:
        if self.order != other.order:
            raise OrderMismatchError(f"order {self.order} vs {other.order}")

    # arithmetic

    def __add__(self, other: Series) -> Series:
        self._check_order(other)
        return Series(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: Series) -> Series:
        self._check_order(other)
        return Series(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> Series:
        return Series(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: Series) -> Series:
        """Truncated Cauchy product.  Direct O(N^2); exact."""
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        out = []
        for n in range(self.order + 1):
            out.append(sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)))
        return Series(self.order, tuple(out))

    def scale(self, c: int | Fraction) -> Series:
        c = _coeff(c)
        return Series(self.order, tuple(c * a for a in self.coeffs))

    def shift(self, m: int) -> Series:
        """Multiply by x^m, truncating at the fixed order."""
        if m < 0:
            raise ValueError("shift must be non-negative")
        cs = (Fraction(0),) * min(m, self.order + 1) + self.coeffs[: max(self.order + 1 - m, 0)]
        return Series(self.order, cs)

    def truncate(self, order: int) -> Series:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return Series(order, self.coeffs[: order + 1])

    def pow(self, e: int) -> Series:
        """e-th power by binary exponentiation; identical to e-fold mul."""
        if e < 0:
            raise ValueError("exponent must be non-negative")
        result = Series.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def substitute_power(self, d: int) -> Series:
        """Return self(x^d) truncated to the same order."""
        if d < 1:
            raise ValueError("substitution power must be >= 1")
        out = [Fraction(0)] * (self.order + 1)
        for i, c in enumerate(self.coeffs):
            if i * d > self.order:
                break
            out[i * d] = c
        return Series(self.order, tuple(out))


def exp(a: Series) -> Series:
    """Exponential of a series with zero constant term.

    Uses the exact differential recurrence E' = a'E, coefficient-wise:
    n E_n = sum_{j=1}^{n} j a_j E_{n-j}, with E_0 = 1.
    """
    if a.coeffs[0] != 0:
        raise ConstantTermError("exp needs a zero constant term")
    n_max = a.order
    e = [Fraction(1)] + [Fraction(0)] * n_max
    for n in range(1, n_max + 1):
        s = sum((j * a.coeffs[j] * e[n - j] for j in range(1, n + 1)), Fraction(0))
        e[n] = s / n
    return Series(n_max, tuple(e))
