"""Growth rate and amplitude constants of the counting sequences.

The edge-rooted counts grow like alpha * beta^n * n^{-3/2} and the
unrooted oriented counts like alpha_bar * beta^n * n^{-5/2}, where
beta = 1/xi and xi is the smallest positive solution of

    xi = (1/(e p)) * omega(xi)^{-p},
    omega(x) = exp( x^2 b^p(x^2)/2 + x^3 b^p(x^3)/3 + ... ),

with p = k-1.  omega consumes b only at arguments x^i for i >= 2, whose
tails die geometrically, so b to a moderate order pins xi far beyond
the printed reference precision.  Every function here reads b as a
plain list of ints, b_0..b_N, and the report's series_order is N.

xi is solved by Newton's method on F(x) = x - omega(x)^{-p}/(e p), the
standard step for a Polya-type tree equation at its square-root
singularity (Flajolet and Sedgewick, Analytic Combinatorics, VII.4).
omega_eval returns omega' beside omega, from one pass over b per power
x^i that sums b(t) and b'(t) together, so each Newton step costs one
evaluation.  From rho(p+1) the solve takes 3-5 steps.

All numerics run in mpmath working precision: the raw coefficients
overflow 64-bit floats long before the probe orders used here (b_n for
p=11 passes 1e308 near n = 210), and the amplitude checks want headroom
below 1e-12.  mpmath is imported inside each function that computes
with it, not at the top of the module: importing this module, as the
command line does for every command, loads no mpmath, and the exact
counting commands never pay its start-up time or memory.

The report carries alpha_bar as the product form 2 pi p^{1+2/p}
xi^{2/p} alpha^3 and optionally an empirical extrapolation from the
coefficients themselves.  The product form agrees with the 3/2-power
singular coefficient route (3/(4 sqrt(pi))) * tau_bar3 to working
precision; the agreement is checked at report time.  The `alpha_bar`
field repeats the product form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from kgonal.kernels import IntegrityError

if TYPE_CHECKING:
    from mpmath import mpf

    from kgonal.bseries import GonalParams

__all__ = [
    "AsymptoticReport",
    "NonConvergenceError",
    "omega_eval",
    "solve_xi",
    "constants",
    "empirical_amplitude",
    "rho",
]

DEFAULT_DPS = 30
DEFAULT_TOL = 1e-13
# Newton converges in 3-5 steps; the cap only stops a runaway solve
MAX_ITERATIONS = 100


class NonConvergenceError(RuntimeError):
    """The Newton solve for xi missed its tolerance within the cap."""


class AsymptoticReport(NamedTuple):
    """Everything computed about one p, with floats for serialization."""

    p: int
    series_order: int
    xi: float
    beta: float
    tau0: float
    tau1: float
    tau2: float
    tau_bar3: float
    alpha: float
    alpha_bar: float
    alpha_bar_product_form: float
    alpha_bar_empirical: float | None
    iterations: int
    residual: float
    tolerance: float


def rho(q: int) -> mpf:
    """(q-1)^(q-1)/q^q, the singularity of the q-ary tree equation."""
    from mpmath import mpf

    if q < 2:
        raise ValueError("q must be >= 2")
    return mpf(q - 1) ** (q - 1) / mpf(q) ** q


def _forward(coeffs: Sequence[int], t: mpf) -> tuple[mpf, mpf]:
    """(b(t), b'(t)) for t in (0, 1), sharing the powers of t.

    The value term is c_n t^n and the derivative term n c_n t^{n-1},
    larger by the factor n/t, so the derivative tail decays more
    slowly.  The loop stops only after three consecutive steps in which
    both terms fall below mp.eps relative to their sums.  The
    derivative is summed as t b'(t) = sum n c_n t^n and divided by t
    at the end.
    """
    from mpmath import mp, mpf

    value = mpf(0)
    slope = mpf(0)  # t b'(t)
    tp = mpf(1)
    tiny = 0
    for n, c in enumerate(coeffs):
        term = c * tp
        dterm = n * term
        value += term
        slope += dterm
        tp *= t
        if n > 8:
            if term < mp.eps * (1 + value) and dterm < mp.eps * (t + slope):
                tiny += 1
                if tiny >= 3:
                    break
            else:
                tiny = 0
    return value, slope / t


def omega_eval(
    params: GonalParams, b: Sequence[int], x0: float | mpf, dps: int = DEFAULT_DPS
) -> tuple[mpf, mpf]:
    """(omega(x0), omega'(x0)) from b_0..b_N."""
    from mpmath import exp as mp_exp
    from mpmath import mp, mpf

    with mp.workdps(dps):
        x = mpf(x0)
        if not 0 <= x < 1:
            raise ValueError("omega is evaluated inside [0, 1) only")
        if x == 0:
            return mpf(1), mpf(0)
        p = params.p
        exponent = mpf(0)
        slope = mpf(0)
        tiny = 0
        i = 2
        t = x
        while True:
            t *= x
            bv, bd = _forward(b, t)
            bv_p1 = bv ** (p - 1)
            piece = t * bv_p1 * bv / i
            exponent += piece
            # d/dx of t b^p(t) / i with t = x^i
            slope += t / x * bv_p1 * (bv + p * t * bd)
            if piece < mp.eps * (1 + exponent):
                tiny += 1
                if tiny >= 3:
                    break
            else:
                tiny = 0
            i += 1
        omega = mp_exp(exponent)
        return omega, slope * omega


def solve_xi(
    params: GonalParams,
    b: Sequence[int],
    tol: float = DEFAULT_TOL,
    dps: int = DEFAULT_DPS,
) -> tuple[mpf, int, mpf]:
    """Root of F(x) = x - g(x), g(x) = (1/(e p)) omega(x)^{-p}, by Newton.

    F'(x) = 1 + p g(x) omega'(x)/omega(x), which is 1 + p r > 1 at the
    root (r = xi omega'/omega), so the root is simple and Newton
    converges quadratically.  Start at the lower bound rho(p+1) and stop
    after the first step shorter than tol.  Returns (xi, iterations,
    residual): iterations counts the Newton steps taken, the short last
    one included, and residual is |F(xi)| from one more evaluation of
    omega at the returned xi.
    """
    from mpmath import e as euler_e
    from mpmath import mp, mpf

    p = params.p
    with mp.workdps(dps):
        x = rho(p + 1)
        tol_mp = mpf(tol)
        for iteration in range(1, MAX_ITERATIONS + 1):
            omega, omega_prime = omega_eval(params, b, x, dps)
            g = omega ** (-p) / (euler_e * p)
            step = (x - g) / (1 + p * g * omega_prime / omega)
            x -= step
            if abs(step) < tol_mp:
                omega, _ = omega_eval(params, b, x, dps)
                residual = abs(x - omega ** (-p) / (euler_e * p))
                upper = mpf(2) ** mpf("0.5") - 1 if p == 1 else rho(p)
                if not rho(p + 1) <= x <= upper:
                    raise IntegrityError(f"xi escaped its bracket for p={p}")
                return x, iteration, residual
        raise NonConvergenceError(
            f"p={p}: no convergence to {tol} within {MAX_ITERATIONS} iterations; last x={x}"
        )


def constants(
    params: GonalParams,
    b: Sequence[int],
    xi: mpf,
    iterations: int = 0,
    residual: float | mpf = 0.0,
    tol: float = DEFAULT_TOL,
    dps: int = DEFAULT_DPS,
    alpha_bar_empirical: float | None = None,
) -> AsymptoticReport:
    """Assemble the full constant report at a solved xi."""
    from mpmath import mp, mpf
    from mpmath import pi as mp_pi
    from mpmath import sqrt as mp_sqrt

    p = params.p
    with mp.workdps(dps):
        xi = mpf(xi)
        omega, omega_prime = omega_eval(params, b, xi, dps)
        r = xi * (omega_prime / omega)
        inv_p = mpf(1) / p
        tau0 = (1 / (p * xi)) ** inv_p
        tau1 = -mp_sqrt(2) * p ** (-(1 + inv_p)) * xi ** (-inv_p) * mp_sqrt(1 + p * r)
        tau2 = xi ** (-inv_p) / (3 * p ** (2 + inv_p)) * ((2 * p + 3) - p * (p - 3) * r)
        tau_bar3 = -(mpf(p) / 3) * tau1**3 / tau0**2
        alpha = (1 / mp_sqrt(2 * mp_pi)) * p ** (-(1 + inv_p)) * xi ** (-inv_p) * mp_sqrt(1 + p * r)
        product_form = 2 * mp_pi * p ** (1 + 2 * inv_p) * xi ** (2 * inv_p) * alpha**3
        singular_route = 3 / (4 * mp_sqrt(mp_pi)) * tau_bar3
        if not abs(product_form - singular_route) <= mpf("1e-12") * product_form:
            raise IntegrityError("product form disagrees with the singular-coefficient route")
        return AsymptoticReport(
            p=p,
            series_order=len(b) - 1,
            xi=float(xi),
            beta=float(1 / xi),
            tau0=float(tau0),
            tau1=float(tau1),
            tau2=float(tau2),
            tau_bar3=float(tau_bar3),
            alpha=float(alpha),
            alpha_bar=float(product_form),
            alpha_bar_product_form=float(product_form),
            alpha_bar_empirical=alpha_bar_empirical,
            iterations=iterations,
            residual=float(residual),
            tolerance=float(tol),
        )


def empirical_amplitude(
    count: Callable[[int], int | float],
    xi: float | mpf,
    exponent: float,
    n_probe: int,
    dps: int = 40,
) -> float:
    """Richardson-extrapolated limit of count(n) xi^n n^exponent, n = n_probe.

    count is called once at each of n, n/2 and n/4, largest first, so
    a count that builds power prefixes builds each of them once; an
    IndexError or KeyError from it raises ValueError.  Two
    extrapolation stages cancel the 1/n and 1/n^2 corrections of the
    square-root singularity expansion.
    """
    n, half, quarter = n_probe, n_probe // 2, n_probe // 4
    if quarter < 2:
        raise ValueError("need a probe index of at least 8")
    try:
        at = {m: count(m) for m in (n, half, quarter)}
    except (IndexError, KeyError):
        raise ValueError("probe index beyond the computed counts") from None
    from mpmath import mp, mpf

    with mp.workdps(dps):
        x = mpf(xi)
        e = mpf(exponent)

        def s(m: int) -> mpf:
            return mpf(at[m]) * x**m * mpf(m) ** e

        r1_full = 2 * s(n) - s(half)
        r1_half = 2 * s(half) - s(quarter)
        return float((4 * r1_full - r1_half) / 3)
