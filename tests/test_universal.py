"""Tests for the large-p expansion coefficients."""

import csv
import pathlib
import tracemalloc
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from kgonal.labelled import partitions
from kgonal.universal import universal_c, xi_from_expansion
from reference_universal import centralizer, divisor_sum, multiplicities, reference_universal_c

DATA = pathlib.Path(__file__).parent / "data"

# Exact closed forms, independently re-derived from the partition sum
# and cross-checked below against the directly solved singularity.
EXACT = {
    1: {1: Fraction(1)},
    2: {3: Fraction(-1, 2)},
    3: {5: Fraction(1, 8), 4: Fraction(-1, 3)},
    4: {7: Fraction(-1, 48), 6: Fraction(1), 5: Fraction(-1, 4)},
    5: {9: Fraction(1, 384), 8: Fraction(-4, 3), 7: Fraction(49, 72), 6: Fraction(-1, 5)},
}

# 20-digit decimal renderings of the exact forms above.  The fifth is
# negative; see the acceptance report for the comparison against the
# reference rendering, which flips its sign.
DECIMALS = {
    1: "0.36787944117144232160",
    2: "-0.02489353418393197149",
    3: "-0.00526296958802571004",
    4: "0.00077526788594593923",
    5: "-0.00032212622183609932",
}

CLOSED_FORMS = {
    1: "exp(-1)",
    2: "-1/2*exp(-3)",
    3: "1/8*exp(-5) - 1/3*exp(-4)",
    4: "-1/48*exp(-7) + exp(-6) - 1/4*exp(-5)",
    5: "1/384*exp(-9) - 4/3*exp(-8) + 49/72*exp(-7) - 1/5*exp(-6)",
}


class TestPartitionMu:
    # the partition reference holds each partition mu (every part >= 2)
    # as its multiplicities

    def test_shape(self):
        mu = multiplicities((4, 2))
        assert mu == (0, 1, 0, 1)
        assert centralizer(mu) == 4 * 2
        assert multiplicities(()) == ()

    def test_divisor_sum(self):
        mu = multiplicities((4, 2))
        assert divisor_sum(mu, 4) == 2 * 1 + 4 * 1
        assert divisor_sum(mu, 4, drop_own=True) == 2
        assert divisor_sum(mu, 2) == 2
        assert divisor_sum(mu, 2, drop_own=True) == 0

    def test_enumeration(self):
        assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert list(partitions(6)) == [
            (6,),
            (5, 1),
            (4, 2),
            (4, 1, 1),
            (3, 3),
            (3, 2, 1),
            (3, 1, 1, 1),
            (2, 2, 2),
            (2, 2, 1, 1),
            (2, 1, 1, 1, 1),
            (1, 1, 1, 1, 1, 1),
        ]
        assert list(partitions(0)) == [()]
        assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]


class TestSymbolic:
    @pytest.mark.parametrize("m", sorted(EXACT))
    def test_exact_terms(self, m):
        assert dict(universal_c(m).terms) == EXACT[m]

    @pytest.mark.parametrize("m", sorted(CLOSED_FORMS))
    def test_closed_form_strings(self, m):
        assert universal_c(m).closed_form() == CLOSED_FORMS[m]

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            universal_c(0)


# universal_c sums the partition formula in integers; the reference adds
# one Fraction per partition, built as a tuple and its multiplicities


@pytest.mark.parametrize("m", range(1, 31))
def test_matches_partition_reference(m):
    assert universal_c(m).terms == reference_universal_c(m).terms


def test_traced_peak_of_first_thirty():
    # a tuple per partition peaked at 2.1 MB over c_1..c_30; one
    # multiplicity vector and one integer per n stay near 0.1 MB
    universal_c.cache_clear()
    tracemalloc.start()
    try:
        for m in range(1, 31):
            universal_c(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak


class TestDecimals:
    @pytest.mark.parametrize("m", sorted(DECIMALS))
    def test_twenty_digit_values(self, m):
        with mp.workdps(40):
            diff = abs(universal_c(m).value(40) - mpf(DECIMALS[m]))
        assert float(diff) < 1e-15


def _values(m_max, dps=30):
    """c_1..c_m_max evaluated at dps digits, as xi_from_expansion reads them."""
    return [universal_c(m).value(dps) for m in range(1, m_max + 1)]


class TestExpansion:
    def reference_xi(self, p):
        with open(DATA / "reference_constants.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                if int(row["p"]) == p:
                    return float(row["xi"])
        raise KeyError(p)

    def test_matches_direct_solution_p3(self):
        assert xi_from_expansion(3, _values(30)) == pytest.approx(
            self.reference_xi(3), abs=1e-6
        )

    def test_matches_direct_solution_p1(self):
        # Convergence is slowest at p = 1 and still reaches nine digits
        # by thirty terms.
        assert xi_from_expansion(1, _values(20)) == pytest.approx(
            self.reference_xi(1), abs=1e-9
        )
        assert xi_from_expansion(1, _values(30)) == pytest.approx(
            self.reference_xi(1), abs=1e-11
        )

    def test_five_term_partial_sum(self):
        # With the fifth coefficient taken with its derived (negative)
        # sign the partial sum lands below the limit.
        assert xi_from_expansion(1, _values(5)) == pytest.approx(0.338176079064, abs=1e-9)

    def test_single_term(self):
        assert xi_from_expansion(2, _values(1)) == pytest.approx(0.3678794411714423 / 2)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            xi_from_expansion(0, _values(5))
