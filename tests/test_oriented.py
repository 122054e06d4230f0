"""Oriented unlabelled counts."""

from fractions import Fraction
from operator import mul

import pytest

from kgonal.bseries import BTable, GonalParams, compute_b
from kgonal import kernels, oriented
from kgonal.kernels import exact_count
from kgonal.odd import odd_recurrence
from kgonal.oriented import (
    euler_phi,
    oriented_count,
    oriented_series,
    reversal_fixed,
    unlabelled_series,
)
from fraction_series import Series
from reference_solve import polya_step


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(9) == 6
    assert [euler_phi(d) for d in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    with pytest.raises(ValueError):
        euler_phi(0)


def test_k3_prefix():
    got = oriented_series(compute_b(GonalParams(3), 8))
    assert got == [1, 1, 1, 2, 7, 18, 68, 251, 1020]


def test_k4_prefix():
    got = oriented_series(compute_b(GonalParams(4), 4))
    assert got == [1, 1, 1, 3, 11]


def test_single_polygon():
    for k in (2, 3, 5, 8):
        assert oriented_series(compute_b(GonalParams(k), 1))[1] == 1


def test_k2_matches_free_trees():
    # with two-sided polygons orientation is invisible, so the oriented
    # counts already equal the plain unlabelled ones
    got = oriented_series(compute_b(GonalParams(2), 10))
    assert got == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235]


def test_shared_table_reuse():
    table = compute_b(GonalParams(5), 12)
    a = oriented_series(table)
    b = oriented_series(compute_b(GonalParams(5), 8))
    assert a[:9] == b


def test_bounded_by_rooted():
    for k in (2, 3, 4, 5):
        params = GonalParams(k)
        table = compute_b(params, 12)
        a_o = oriented_series(table)
        for n in range(1, 13):
            assert 1 <= a_o[n] <= table.int_coeffs(1)[n]


def _oriented_by_fractions(params, order):
    """The unrooting formula in Fraction series arithmetic, powers by Series.pow."""
    k = params.k
    b = Series.from_coeffs(compute_b(params, order).int_coeffs(1), order)
    acc = b
    for d in range(2, k + 1):
        if k % d == 0:
            term = b.pow(k // d).substitute_power(d).shift(1)
            acc = acc + term.scale(Fraction(euler_phi(d), k))
    return list((acc - b.pow(k).shift(1).scale(Fraction(k - 1, k))).integer_coeffs())


def test_matches_fraction_route():
    for k in range(2, 13):
        params = GonalParams(k)
        want = _oriented_by_fractions(params, 60)
        table = compute_b(params, 60)
        assert oriented_series(table) == want, f"k={k}"
        # a table of lower order reads shorter power prefixes
        assert oriented_series(compute_b(params, 37)) == want[:38], f"k={k}"
        assert oriented_series(compute_b(params, 0)) == want[:1]


@pytest.mark.parametrize("k", range(2, 13))
def test_single_count_matches_series(k):
    params = GonalParams(k)
    want = _oriented_by_fractions(params, 60)
    table = compute_b(params, 60)
    assert [oriented_count(table, n) for n in range(61)] == want
    # a table of b and b^{k-1} alone, as a cache hit yields; every other
    # power is then built on demand, here smallest index first so that
    # each prefix is rebuilt longer
    bare = BTable(params, table.int_coeffs(1), table.int_coeffs(params.p))
    assert [oriented_count(bare, n) for n in range(61)] == want


def test_series_builds_no_kth_power():
    # b^k enters only through dot products of b with the kept b^{k-1}
    table = compute_b(GonalParams(12), 60)
    kept = table.powers[11]
    oriented_series(table)
    assert 12 not in table.powers
    assert table.powers[11] is kept


@pytest.mark.parametrize("order", [20, 250, 251])
@pytest.mark.parametrize("k", range(2, 13))
def test_each_power_built_once_per_table(k, order, monkeypatch):
    # every reader of a power asks for the last index it reads, so the
    # first pass that builds b^j builds it far enough for all the others
    table = compute_b(GonalParams(k), order)
    built = []
    online = kernels._online

    def recording_online(out, sums, scale, what, ready=None):
        # every power b^j of a table is one _online pass named "b^j"
        if what.startswith("b^"):
            built.append(what)
        online(out, sums, scale, what, ready)

    monkeypatch.setattr(kernels, "_online", recording_online)
    unlabelled_series(table)
    oriented_series(table)
    reversal_fixed(table)
    if k % 2:
        odd_recurrence(table)
    assert len(built) == len(set(built)), built


def test_single_count_reads_short_prefixes():
    solved = compute_b(GonalParams(12), 60)
    table = BTable(GonalParams(12), solved.int_coeffs(1), solved.int_coeffs(11))
    oriented_count(table, 46)
    # b and b^11 are held whole; the product reads b^11 to 45, and
    # 45 = 3 * 15 is divisible by d = 3 only, so b^4 is built to 15
    assert {j: len(c) - 1 for j, c in table.powers.items()} == {1: 60, 11: 60, 4: 15}


def test_single_count_index_range():
    table = compute_b(GonalParams(4), 5)
    with pytest.raises(IndexError):
        oriented_count(table, 6)
    with pytest.raises(IndexError):
        oriented_count(table, -1)


def _fixed_by_steps(table):
    """The reversal-fixed y and its Q by one reference polya_step per coefficient."""
    k, order = table.params.k, table.order
    b_h = table.int_coeffs((k - 1) // 2)
    b_f = table.int_coeffs(k - 1)
    y = [1] + [0] * order
    f = y if k % 2 == 0 else [1] + [0] * order
    q = [0] * (order + 1)
    sums = [0] * (order + 1)
    for n in range(1, order + 1):
        q[n] = sum(map(mul, b_h[: (n + 1) // 2], f[n - 1 :: -2]))
        w = q[n]
        if n % 2 == 0:
            w += exact_count(b_f[n // 2 - 1] - q[n // 2], 2, "mirror pairs")
        y[n] = polya_step(sums, y, n, w, f"step {n}")
    return y, q


@pytest.mark.parametrize("k", [3, 4, 11, 12])
@pytest.mark.parametrize("widths", [None, (4, 16)], ids=["shipped", "narrow"])
def test_reversal_fixed_matches_the_step_loop(k, widths, monkeypatch):
    # the online solve of the reversal-fixed series against the loop it
    # replaced; at order 200 the shipped widths reach the strips, and
    # narrow ones the grid of squares
    table = compute_b(GonalParams(k), 200)
    want = _fixed_by_steps(table)
    if widths is not None:
        monkeypatch.setattr(kernels, "PIECE", widths[0])
        monkeypatch.setattr(kernels, "CAP", widths[1])
    assert oriented._fixed_and_axis_pages(table) == want
