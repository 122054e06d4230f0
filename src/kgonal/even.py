"""Unlabelled counts for even polygon size, reflections included.

For even k a reflection axis can leave a whole page fixed (totally
symmetric), pass through a page sideways (mixed), or swap a page with a
mirror twin glued along the axis (alternated pair).  The code follows
that case split through a small triangular system of integer tables:

    pi    polygon-rooted totally symmetric structures
    beta  auxiliary series with x beta' / beta matching pi's divisor sums
    p_m   mixed pages at the root
    p_al  alternated page pairs at the root (even n only)
    omega pi + p_al + p_m, the per-size page weight
    alpha reflection-fixed edge-rooted structures

The per-n evaluation order inside symmetric_system matters: p_m at n
uses alpha below n, p_al at n uses p_m at n/2, omega closes over both,
and alpha at n consumes omega up to n.  Any other order would read a
slot before it is written.

Edge-rooted counts are then (b_n + alpha_n)/2 (cli.family_counts), and
the unrooted counts combine the oriented series, alpha, and two
correction convolutions that cancel the per-edge and per-vertex
overcounts:

    a_n = a_{o,n}/2 + alpha_n/2 + b^{(k/2)}_{(n-1)/2}/4
          - (1/4) sum_{i+j=n-1} (alpha^2)_i b^{((k-2)/2)}_{j/2}.

Every table holds plain integers.  b^{(k-2)/2}, b^{k/2} and b^{k-1}
are read only at half indices, so each is built only to index order/2,
and a_n is accumulated as the integer 4 a_n with one checked division
at the end.  beta and alpha are Polya exponentials with weights pi and
omega, so each of their coefficients is one kernels.polya_step, which
keeps the divisor sums sum_{d|m} d x_d as each weight arrives; the whole
system costs O(order^2) big-integer products.

k = 2 degenerates gracefully: the exponent (k-2)/2 = 0 makes the half
power the constant series 1, and the outputs become the counts of free
trees by edge count.
"""

from __future__ import annotations

from dataclasses import dataclass

from kgonal.bseries import BTable, GonalParams
from kgonal.kernels import IntegrityError, convolve, exact_count, polya_step
from kgonal.oriented import oriented_series

__all__ = [
    "EvenSymTables",
    "totally_symmetric",
    "symmetric_system",
    "even_series",
]


def _require_even(table: BTable) -> int:
    """The even polygon size of the table."""
    k = table.params.k
    if k % 2 == 1:
        raise ValueError("polygon size is odd; use the odd-parity module")
    return k


@dataclass(frozen=True)
class EvenSymTables:
    """Integer tables of the reflection-symmetry system for even k."""

    params: GonalParams
    order: int
    pi: tuple[int, ...]
    beta: tuple[int, ...]
    p_m: tuple[int, ...]
    p_al: tuple[int, ...]
    omega: tuple[int, ...]
    alpha: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (self.pi[0] == 0 and self.beta[0] == 1 and self.alpha[0] == 1):
            raise IntegrityError("pi_0, beta_0 and alpha_0 must be 0, 1 and 1")
        if any(self.p_al[n] for n in range(1, self.order + 1, 2)):
            raise IntegrityError("alternated pairs at an odd size")
        for name in ("pi", "beta", "p_m", "p_al", "omega", "alpha"):
            if any(v < 0 for v in getattr(self, name)):
                raise IntegrityError(f"negative entry in {name}")


def totally_symmetric(table: BTable) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pi and beta tables, advanced jointly in n.

    pi_n sums b^{(k-2)/2} at i/2 times beta_{n-1-i} over even i, so pi
    at n needs beta below n; beta_n closes the loop through

        n beta_n = sum_{j<n} beta_j * sum_{d | n-j} d pi_d

    which needs pi up to n.  Interleaving the two recurrences per n is
    therefore mandatory, not a style choice.
    """
    k, order = _require_even(table), table.order
    b_half = table.int_coeffs((k - 2) // 2, order // 2)
    pi = [0] * (order + 1)
    beta = [0] * (order + 1)
    beta[0] = 1
    pi_sums = [0] * (order + 1)
    for n in range(1, order + 1):
        acc = 0
        for m in range((n + 1) // 2):
            acc += b_half[m] * beta[n - 1 - 2 * m]
        pi[n] = acc
        beta[n] = polya_step(pi_sums, beta, n, acc, f"beta recurrence at n={n}")
    return tuple(pi), tuple(beta)


def symmetric_system(table: BTable) -> EvenSymTables:
    """Solve the full reflection system; see the module docstring for order."""
    k, order = _require_even(table), table.order
    pi, beta = totally_symmetric(table)
    b_half = table.int_coeffs((k - 2) // 2, order // 2)
    b_full = table.int_coeffs(k - 1, order // 2)
    p_m = [0] * (order + 1)
    p_al = [0] * (order + 1)
    omega = [0] * (order + 1)
    alpha = [0] * (order + 1)
    alpha[0] = 1
    omega_sums = [0] * (order + 1)
    for n in range(1, order + 1):
        acc = 0
        for m in range((n + 1) // 2):
            acc += b_half[m] * alpha[n - 1 - 2 * m]
        p_m[n] = acc - pi[n]
        if p_m[n] < 0:
            raise IntegrityError(f"mixed-page count at n={n} is negative")
        if n % 2 == 0:
            h = n // 2
            v = b_full[h - 1] - pi[h] - p_m[h]
            p_al[n] = exact_count(v, 2, f"alternated-pair count at n={n}")
        omega[n] = pi[n] + p_al[n] + p_m[n]
        alpha[n] = polya_step(omega_sums, alpha, n, omega[n], f"alpha recurrence at n={n}")
    return EvenSymTables(
        table.params,
        order,
        tuple(pi),
        tuple(beta),
        tuple(p_m),
        tuple(p_al),
        tuple(omega),
        tuple(alpha),
    )


def even_series(table: BTable) -> list[int]:
    """Unlabelled counts a_n for even k, from the integer 4 a_n."""
    k, order = _require_even(table), table.order
    a_o = oriented_series(table)
    alpha = symmetric_system(table).alpha
    alpha_sq = convolve(alpha, alpha, order)
    b_half = table.int_coeffs((k - 2) // 2, order // 2)
    b_mid = table.int_coeffs(k // 2, order // 2)
    out = []
    for n in range(order + 1):
        v = 2 * (a_o[n] + alpha[n])
        if n % 2:
            v += b_mid[(n - 1) // 2]
        # alpha^2 at i against b^{(k-2)/2} at (n-1-i)/2, for n-1-i even
        for m in range((n + 1) // 2):
            v -= alpha_sq[n - 1 - 2 * m] * b_half[m]
        out.append(exact_count(v, 4, f"count at n={n}"))
    return out
