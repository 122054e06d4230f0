"""Unlabelled counts for even k: the paper's case split, pinned rows, identities."""

from fractions import Fraction

import pytest

from kgonal.bseries import GonalParams, compute_b
from kgonal.cli import family_counts
from kgonal.oriented import oriented_series, reversal_fixed, unlabelled_series
from reference_solve import convolve, polya_step


def _half_coeff(table, j: int, r: Fraction) -> int:
    """Coefficient of x^r in b^j, with 0 for negative or non-integral r."""
    if r < 0 or r.denominator != 1:
        return 0
    return table.int_coeffs(j)[int(r)]


def _case_split(table):
    """The paper's even-k case split of the reflection-fixed structures.

    Six integer tables, advanced jointly in n:

        pi    polygon-rooted totally symmetric structures
        beta  auxiliary series with x beta'/beta matching pi's divisor sums
        p_m   mixed pages at the root
        p_al  alternated page pairs at the root (even n only)
        omega pi + p_al + p_m, the per-size page weight
        alpha reflection-fixed edge-rooted structures

    pi at n needs beta below n and beta at n needs pi up to n; p_m at n
    uses alpha below n, p_al at n uses p_m at n/2, and alpha at n
    consumes omega up to n.  A reference for reversal_fixed, which
    reaches alpha without pi, beta or p_m.
    """
    k, order = table.params.k, table.order
    b_half = table.int_coeffs((k - 2) // 2, order // 2)
    b_full = table.int_coeffs(k - 1, order // 2)
    tables = {name: [0] * (order + 1) for name in ("pi", "beta", "p_m", "p_al", "omega", "alpha")}
    pi, beta, p_m, p_al, omega, alpha = tables.values()
    beta[0] = alpha[0] = 1
    pi_sums = [0] * (order + 1)
    omega_sums = [0] * (order + 1)
    for n in range(1, order + 1):
        pi[n] = sum(b_half[m] * beta[n - 1 - 2 * m] for m in range((n + 1) // 2))
        beta[n] = polya_step(pi_sums, beta, n, pi[n], f"beta at n={n}")
        p_m[n] = sum(b_half[m] * alpha[n - 1 - 2 * m] for m in range((n + 1) // 2)) - pi[n]
        assert p_m[n] >= 0, f"mixed-page count at n={n} is negative"
        if n % 2 == 0:
            h = n // 2
            p_al[n], rem = divmod(b_full[h - 1] - pi[h] - p_m[h], 2)
            assert rem == 0, f"alternated-pair count at n={n} is not an integer"
        omega[n] = pi[n] + p_al[n] + p_m[n]
        assert pi[n] <= omega[n]
        alpha[n] = polya_step(omega_sums, alpha, n, omega[n], f"alpha at n={n}")
    assert not any(p_al[1::2])
    for name, values in tables.items():
        assert min(values) >= 0, f"negative entry in {name}"
    return {name: tuple(values) for name, values in tables.items()}


def test_k4_totally_symmetric_tables():
    tables = _case_split(compute_b(GonalParams(4), 4))
    assert tables["pi"] == (0, 1, 1, 3, 6)
    assert tables["beta"] == (1, 1, 2, 5, 12)


def test_k4_system_tables():
    table = compute_b(GonalParams(4), 4)
    tables = _case_split(table)
    assert tables["alpha"] == (1, 1, 2, 5, 13)
    assert tables["p_m"] == (0, 0, 0, 0, 0)
    assert tables["p_al"] == (0, 0, 0, 0, 1)
    assert tables["omega"] == (0, 1, 1, 3, 7)
    alpha = reversal_fixed(table)
    assert alpha == [1, 1, 2, 5, 13]
    assert tuple(convolve(alpha, alpha, 4)) == (1, 2, 5, 14, 40)


@pytest.mark.parametrize("k", range(2, 13, 2))
def test_reversal_fixed_matches_case_split(k):
    table = compute_b(GonalParams(k), 60)
    assert reversal_fixed(table) == list(_case_split(table)["alpha"])


def test_k4_edge_rooted():
    got = family_counts(4, "edge-rooted-unlabelled", 3)
    assert got == [1, 1, 3, 12]
    assert family_counts(6, "edge-rooted-unlabelled", 1)[1] == 1


def test_k4_row():
    got = unlabelled_series(compute_b(GonalParams(4), 6))
    assert got == [1, 1, 1, 3, 8, 32, 141]


def test_k6_row_prefix():
    got = unlabelled_series(compute_b(GonalParams(6), 5))
    assert got == [1, 1, 1, 4, 16, 103]


def test_k2_degenerates_to_free_trees():
    got = unlabelled_series(compute_b(GonalParams(2), 10))
    assert got == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235]


def test_alpha_parity_and_bound():
    for k in (2, 4, 6, 8):
        table = compute_b(GonalParams(k), 12)
        alpha = reversal_fixed(table)
        tables = _case_split(table)
        for n in range(13):
            b_n = table.int_coeffs(1)[n]
            assert alpha[n] <= b_n
            assert (b_n + alpha[n]) % 2 == 0
            assert tables["pi"][n] <= tables["omega"][n]


def test_unrooting_identity():
    # the paper's combination defining a_n, cleared of denominators, is an
    # exact integer identity among the tables
    for k in range(2, 13, 2):
        table = compute_b(GonalParams(k), 40)
        a = unlabelled_series(table)
        a_o = oriented_series(table)
        alpha = reversal_fixed(table)
        alpha_sq = convolve(alpha, alpha, 40)
        half = (k - 2) // 2
        for n in range(41):
            lhs = 4 * a[n] - 2 * a_o[n] - 2 * alpha[n]
            lhs -= _half_coeff(table, k // 2, Fraction(n - 1, 2))
            lhs += sum(
                alpha_sq[i] * _half_coeff(table, half, Fraction(n - 1 - i, 2))
                for i in range(n)
            )
            assert lhs == 0, (k, n)


def test_sandwich_bounds():
    for k in (2, 4, 10):
        table = compute_b(GonalParams(k), 10)
        a = unlabelled_series(table)
        a_o = oriented_series(table)
        for n in range(1, 11):
            assert a_o[n] >= a[n]
            assert 2 * a[n] >= a_o[n]
