"""Unlabelled counts for odd k: pinned rows and route agreement."""

from fractions import Fraction

import pytest

from kgonal.bseries import GonalParams, compute_b
from kgonal.cli import family_counts
from kgonal.kernels import IntegrityError
from kgonal.odd import odd_omega, odd_recurrence
from kgonal.oriented import oriented_series, reversal_fixed, unlabelled_series
from fraction_series import Series, exp


def test_rejects_even_k():
    with pytest.raises(ValueError):
        odd_recurrence(compute_b(GonalParams(2), 5))


def test_k3_row():
    got = unlabelled_series(compute_b(GonalParams(3), 6))
    assert got == [1, 1, 1, 2, 5, 12, 39]


def test_row_spot_values():
    table5 = compute_b(GonalParams(5), 5)
    assert unlabelled_series(table5) == odd_recurrence(table5)
    assert unlabelled_series(compute_b(GonalParams(5), 4))[4] == 11
    assert unlabelled_series(compute_b(GonalParams(7), 5))[5] == 158
    assert odd_recurrence(compute_b(GonalParams(9), 4))[4] == 32
    assert odd_recurrence(compute_b(GonalParams(3), 0)) == [1]


@pytest.mark.parametrize("n", [1, 4, 9])
def test_recurrence_rejects_inexact_count(n, monkeypatch):
    # a_{o,n} one too high adds 2n to the numerator of 4n a_n
    table = compute_b(GonalParams(5), 10)
    a_o = oriented_series(table)
    a_o[n] += 1
    monkeypatch.setattr("kgonal.odd.oriented_series", lambda _: a_o)
    with pytest.raises(IntegrityError, match=f"recurrence count at n={n}:"):
        odd_recurrence(table)


def test_omega_values():
    table3 = compute_b(GonalParams(3), 6)
    assert odd_omega(table3, 1) == 2
    assert odd_omega(table3, 2) == 0
    table5 = compute_b(GonalParams(5), 6)
    assert odd_omega(table5, 3) == 4


def test_omega_index_range():
    # the weight reads b^h only as far as the table's own readers build
    # it, so an index past the order is refused, whatever is memoized
    table = compute_b(GonalParams(3), 6)
    for n in (0, 7):
        with pytest.raises(ValueError):
            odd_omega(table, n)


def test_routes_agree():
    # acceptance widens this to all odd k <= 11 at order 20
    for k in (3, 5, 7):
        table = compute_b(GonalParams(k), 14)
        assert unlabelled_series(table) == odd_recurrence(table)


def test_symmetric_series_consistency():
    for k in (3, 5):
        table = compute_b(GonalParams(k), 12)
        sym = reversal_fixed(table)
        a = unlabelled_series(table)
        a_o = oriented_series(table)
        for n in range(13):
            # the symmetric classes are exactly the excess of the orbit average
            assert 2 * a[n] - a_o[n] == sym[n]
            assert sym[n] >= 0


def test_sandwich_bounds():
    for k in (3, 7, 11):
        table = compute_b(GonalParams(k), 10)
        a = unlabelled_series(table)
        a_o = oriented_series(table)
        for n in range(1, 11):
            assert a_o[n] >= a[n]
            assert 2 * a[n] >= a_o[n]


def test_edge_rooted_counts():
    row = family_counts(3, "edge-rooted-unlabelled", 3)
    # b = (1, 1, 3, 10), symmetric = (1, 1, 1, 2)
    assert row == [1, 1, 2, 6]


def _symmetric_by_fractions(params, order):
    """exp of the symmetric-class exponent in Fraction series arithmetic."""
    table = compute_b(params, order)
    b_half = Series.from_coeffs(table.int_coeffs((params.k - 1) // 2), order)
    b_full = Series.from_coeffs(table.int_coeffs(params.k - 1), order)
    exponent = Series.zero(order)
    for i in range(1, order + 1):
        term = b_half.substitute_power(2 * i).shift(i).scale(Fraction(2, 2 * i))
        if 2 * i <= order:
            term = term + b_full.substitute_power(2 * i).shift(2 * i).scale(Fraction(1, 2 * i))
            term = term - b_half.substitute_power(4 * i).shift(2 * i).scale(Fraction(1, 2 * i))
        exponent = exponent + term
    return list(exp(exponent).integer_coeffs())


def test_symmetric_matches_fraction_route():
    for k in (3, 5, 7, 9, 11):
        params = GonalParams(k)
        want = _symmetric_by_fractions(params, 60)
        table = compute_b(params, 60)
        assert reversal_fixed(table) == want, f"k={k}"
        # a table of lower order reads shorter power prefixes
        assert reversal_fixed(compute_b(params, 37)) == want[:38], f"k={k}"
        assert reversal_fixed(compute_b(params, 0)) == want[:1]
