"""Tests for the growth-constant solver."""

import csv
import functools
import math
import pathlib

import pytest
from mpmath import e as mp_e
from mpmath import mp, mpf

from kgonal.asymptotics import (
    NonConvergenceError,
    constants,
    empirical_amplitude,
    omega_eval,
    rho,
    solve_xi,
)
from kgonal.bseries import GonalParams, compute_b
from kgonal.oriented import oriented_series

DATA = pathlib.Path(__file__).parent / "data"


def load_reference():
    rows = {}
    with open(DATA / "reference_constants.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            rows[int(row["p"])] = {
                key: float(value) for key, value in row.items() if key != "p"
            }
    return rows


REFERENCE = load_reference()


def table_for(p, order):
    return compute_b(GonalParams(p + 1), order)


class TestRho:
    def test_values(self):
        assert rho(2) == pytest.approx(0.25)
        assert rho(3) == pytest.approx(4 / 27)

    def test_decreasing(self):
        values = [rho(q) for q in range(2, 14)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestOmega:
    def test_at_zero(self):
        table = table_for(2, 30)
        value, slope = omega_eval(table.params, table.int_coeffs(1), 0.0)
        assert float(value) == pytest.approx(1.0)
        assert float(slope) == pytest.approx(0.0)

    def test_monotone_increasing(self):
        table = table_for(2, 60)
        xs = [0.02, 0.05, 0.10, 0.15]
        values = [float(omega_eval(table.params, table.int_coeffs(1), x)[0]) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))
        slopes = [float(omega_eval(table.params, table.int_coeffs(1), x)[1]) for x in xs]
        assert all(s > 0 for s in slopes)

    def test_rejects_bad_point(self):
        table = table_for(2, 30)
        with pytest.raises(ValueError):
            omega_eval(table.params, table.int_coeffs(1), 1.0)
        with pytest.raises(ValueError):
            omega_eval(table.params, table.int_coeffs(1), -0.1)


class TestXi:
    @pytest.mark.parametrize("p", [1, 2, 11])
    def test_matches_reference(self, p):
        table = table_for(p, 500)
        xi, _, _ = solve_xi(table.params, table.int_coeffs(1))
        assert float(xi) == pytest.approx(REFERENCE[p]["xi"], abs=1e-9)

    @pytest.mark.parametrize("p", [1, 2, 3, 7])
    def test_brackets(self, p):
        table = table_for(p, 400)
        xi, _, _ = solve_xi(table.params, table.int_coeffs(1))
        assert rho(p + 1) <= float(xi)
        upper = math.sqrt(2) - 1 if p == 1 else rho(p)
        assert float(xi) <= upper

    def test_residual_small(self):
        table = table_for(3, 400)
        _, iterations, residual = solve_xi(table.params, table.int_coeffs(1))
        assert iterations < 10_000
        assert abs(float(residual)) < 1e-12

    def test_series_value_near_saddle_height(self):
        # b evaluated just inside the singularity approaches (1/(p xi))^{1/p}.
        table = table_for(2, 500)
        xi, _, _ = solve_xi(table.params, table.int_coeffs(1))
        with mp.workdps(30):
            target = (1 / (2 * xi)) ** mpf("0.5")
            probe = xi * mpf("0.995")
            acc = mpf(0)
            for c in reversed(table.int_coeffs(1)):
                acc = acc * probe + c
        assert float(acc) == pytest.approx(float(target), rel=0.05)

    def test_doubling_order_stability(self):
        params = GonalParams(4)
        small = compute_b(params, 250)
        large = compute_b(params, 500)
        xi_small, _, _ = solve_xi(params, small.int_coeffs(1))
        xi_large, _, _ = solve_xi(params, large.int_coeffs(1))
        assert abs(float(xi_small) - float(xi_large)) < 1e-8

    def test_deterministic(self):
        table = table_for(2, 300)
        first = solve_xi(table.params, table.int_coeffs(1))
        second = solve_xi(table.params, table.int_coeffs(1))
        assert float(first[0]) == float(second[0])


NEWTON_ORDERS = (0, 1, 2, 5, 500)


@functools.lru_cache(maxsize=None)
def shared_table(p, order):
    return table_for(p, order)


def damped_xi(table, tol=1e-13):
    """Oracle: the damped fixed-point iteration x <- (x + g(x))/2.

    g(x) = omega(x)^{-p}/(e p) is decreasing, so plain iteration
    ping-pongs; averaging each iterate with its image converges
    linearly, in 30-35 steps from rho(p+1).
    """
    p = table.params.p
    with mp.workdps(30):
        x = rho(p + 1)
        for _ in range(10_000):
            omega, _ = omega_eval(table.params, table.int_coeffs(1), x)
            x_next = (x + omega ** (-p) / (mp_e * p)) / 2
            if abs(x_next - x) < tol:
                return x_next
            x = x_next
    raise AssertionError("the damped iteration did not converge")


class TestNewton:
    @pytest.mark.parametrize("order", NEWTON_ORDERS)
    def test_few_iterations(self, order):
        for p in range(1, 12):
            table = shared_table(p, order)
            _, iterations, residual = solve_xi(table.params, table.int_coeffs(1))
            assert 1 <= iterations <= 8, f"p={p}"
            assert float(residual) < 1e-20, f"p={p}"

    @pytest.mark.parametrize("order", NEWTON_ORDERS)
    def test_matches_damped_iteration(self, order):
        for p in range(1, 12):
            table = shared_table(p, order)
            xi, _, _ = solve_xi(table.params, table.int_coeffs(1))
            assert abs(float(xi - damped_xi(table))) < 1e-12, f"p={p}"

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr("kgonal.asymptotics.MAX_ITERATIONS", 1)
        table = shared_table(3, 5)
        with pytest.raises(NonConvergenceError):
            solve_xi(table.params, table.int_coeffs(1))

    @pytest.mark.parametrize("p", [1, 2, 5, 11])
    def test_slope_matches_central_difference(self, p):
        table = shared_table(p, 500)
        xi = float(solve_xi(table.params, table.int_coeffs(1))[0])
        with mp.workdps(40):
            h = mpf("1e-12")
            for x in (mpf(xi) / 3, mpf(xi)):
                _, slope = omega_eval(table.params, table.int_coeffs(1), x, dps=40)
                up, _ = omega_eval(table.params, table.int_coeffs(1), x + h, dps=40)
                down, _ = omega_eval(table.params, table.int_coeffs(1), x - h, dps=40)
                difference = (up - down) / (2 * h)
                assert abs(slope - difference) < mpf("1e-15") * slope, f"x={x}"


class TestConstants:
    @pytest.mark.parametrize("p", [1, 2, 11])
    def test_alpha_and_beta(self, p):
        table = table_for(p, 500)
        xi, iterations, residual = solve_xi(table.params, table.int_coeffs(1))
        report = constants(table.params, table.int_coeffs(1), xi, iterations, residual)
        assert float(report.alpha) == pytest.approx(REFERENCE[p]["alpha"], abs=1e-6)
        assert float(report.beta) == pytest.approx(REFERENCE[p]["beta"], abs=1e-9)

    @pytest.mark.parametrize("p", [3, 11])
    def test_alpha_bar_product_form(self, p):
        # The published second-amplitude column agrees with the product form
        # for every p except p = 2, where it repeats the alpha column.
        table = table_for(p, 500)
        xi, iterations, residual = solve_xi(table.params, table.int_coeffs(1))
        report = constants(table.params, table.int_coeffs(1), xi, iterations, residual)
        assert float(report.alpha_bar_product_form) == pytest.approx(
            REFERENCE[p]["alpha_bar"], abs=1e-9
        )
        assert float(report.alpha_bar) == float(report.alpha_bar_product_form)

    def test_alpha_bar_p2_disagrees_with_reference(self):
        # Documented discrepancy: the reference repeats alpha at p = 2.
        table = table_for(2, 500)
        xi, iterations, residual = solve_xi(table.params, table.int_coeffs(1))
        report = constants(table.params, table.int_coeffs(1), xi, iterations, residual)
        assert float(report.alpha_bar_product_form) == pytest.approx(
            0.189630833046, abs=1e-9
        )
        assert abs(float(report.alpha_bar) - REFERENCE[2]["alpha_bar"]) > 1e-3

    def test_report_fields(self):
        table = table_for(2, 300)
        xi, iterations, residual = solve_xi(table.params, table.int_coeffs(1))
        report = constants(table.params, table.int_coeffs(1), xi, iterations, residual)
        data = report._asdict()
        assert data["p"] == 2
        assert data["alpha_bar_empirical"] is None
        assert float(report.tau0) > 0
        assert float(report.tau1) < 0


class TestEmpirical:
    def test_recovers_synthetic_amplitude(self):
        with mp.workdps(40):
            beta = mpf("3.7")
            counts = [mpf(0), mpf(0)]
            for n in range(2, 1025):
                counts.append(beta**n * mpf(n) ** mpf("-1.5"))
            value = empirical_amplitude(counts.__getitem__, 1 / beta, 1.5, n_probe=1024)
        assert float(value) == pytest.approx(1.0, abs=1e-4)

    def test_matches_alpha_for_quadratic_pages(self):
        order = 1000
        table = table_for(2, order)
        xi, iterations, residual = solve_xi(table.params, table.int_coeffs(1))
        report = constants(table.params, table.int_coeffs(1), xi, iterations, residual)
        counts = table.int_coeffs(1)
        value = empirical_amplitude(counts.__getitem__, float(xi), 1.5, n_probe=order)
        assert float(value) == pytest.approx(float(report.alpha), rel=0.01)

    def test_needs_enough_terms(self):
        with pytest.raises(ValueError):
            empirical_amplitude([1, 1, 2, 4].__getitem__, 0.3, 1.5, n_probe=16)
        with pytest.raises(ValueError):
            empirical_amplitude({}.__getitem__, 0.3, 1.5, n_probe=16)

    def test_calls_its_count_once_at_each_probe_largest_first(self):
        # a count that builds power prefixes on demand, as
        # cli.alpha_bar_probe's does, builds each of them once when the
        # largest index comes first
        calls = []

        def count(m):
            calls.append(m)
            return 2**m

        empirical_amplitude(count, 0.5, 0.0, n_probe=1001)
        assert calls == [1001, 500, 250]


class TestOrientedAmplitude:
    def test_second_amplitude_visible_in_oriented_counts(self):
        # The oriented unlabelled counts grow like the edge-rooted ones
        # divided by n, with the second amplitude in front.
        p = 2
        order = 1000
        params = GonalParams(p + 1)
        table = compute_b(params, order)
        xi, iterations, residual = solve_xi(params, table.int_coeffs(1))
        report = constants(params, table.int_coeffs(1), xi, iterations, residual)
        oriented = oriented_series(table)
        counts = oriented
        value = empirical_amplitude(counts.__getitem__, float(xi), 2.5, n_probe=order)
        assert float(value) == pytest.approx(
            float(report.alpha_bar_product_form), rel=1e-3
        )
