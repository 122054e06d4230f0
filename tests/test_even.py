"""Unlabelled counts for even k: system tables, pinned rows, identities."""

from fractions import Fraction

import pytest

from kgonal.bseries import GonalParams, compute_b
from kgonal.cli import family_counts
from kgonal.even import even_series, symmetric_system, totally_symmetric
from kgonal.kernels import convolve
from kgonal.oriented import oriented_series


def test_rejects_odd_k():
    with pytest.raises(ValueError):
        even_series(compute_b(GonalParams(3), 5))
    with pytest.raises(ValueError):
        totally_symmetric(compute_b(GonalParams(5), 5))


def test_k4_totally_symmetric_tables():
    pi, beta = totally_symmetric(compute_b(GonalParams(4), 4))
    assert pi == (0, 1, 1, 3, 6)
    assert beta == (1, 1, 2, 5, 12)


def test_k4_system_tables():
    sym = symmetric_system(compute_b(GonalParams(4), 4))
    assert sym.alpha == (1, 1, 2, 5, 13)
    assert sym.p_m == (0, 0, 0, 0, 0)
    assert sym.p_al == (0, 0, 0, 0, 1)
    assert sym.omega == (0, 1, 1, 3, 7)
    assert tuple(convolve(sym.alpha, sym.alpha, 4)) == (1, 2, 5, 14, 40)


def test_k4_edge_rooted():
    got = family_counts(4, "edge-rooted-unlabelled", 3)
    assert got == [1, 1, 3, 12]
    assert family_counts(6, "edge-rooted-unlabelled", 1)[1] == 1


def test_k4_row():
    got = even_series(compute_b(GonalParams(4), 6))
    assert got == [1, 1, 1, 3, 8, 32, 141]


def test_k6_row_prefix():
    got = even_series(compute_b(GonalParams(6), 5))
    assert got == [1, 1, 1, 4, 16, 103]


def test_k2_degenerates_to_free_trees():
    got = even_series(compute_b(GonalParams(2), 10))
    assert got == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235]


def test_alpha_parity_and_bound():
    for k in (2, 4, 6, 8):
        table = compute_b(GonalParams(k), 12)
        sym = symmetric_system(table)
        for n in range(13):
            b_n = table.int_coeffs(1)[n]
            assert sym.alpha[n] <= b_n
            assert (b_n + sym.alpha[n]) % 2 == 0
            assert sym.pi[n] <= sym.omega[n]


def test_unrooting_identity():
    # the combination defining a_n, cleared of denominators, is an exact
    # integer identity among the tables
    for k in (2, 4, 6):
        table = compute_b(GonalParams(k), 12)
        a = even_series(table)
        a_o = oriented_series(table)
        sym = symmetric_system(table)
        alpha_sq = convolve(sym.alpha, sym.alpha, 12)
        half = (k - 2) // 2
        for n in range(13):
            lhs = 4 * a[n] - 2 * a_o[n] - 2 * sym.alpha[n]
            lhs -= table.coeff(k // 2, Fraction(n - 1, 2))
            lhs += sum(
                alpha_sq[i] * table.coeff(half, Fraction(n - 1 - i, 2))
                for i in range(n)
            )
            assert lhs == 0, (k, n)


def test_sandwich_bounds():
    for k in (2, 4, 10):
        table = compute_b(GonalParams(k), 10)
        a = even_series(table)
        a_o = oriented_series(table)
        for n in range(1, 11):
            assert a_o[n] >= a[n]
            assert 2 * a[n] >= a_o[n]
