"""Acceptance suite: one test and one visible summary line per criterion.

Each test prints exactly one line to the real stdout, capture or not:

    ACCEPTANCE CRITERION n: PASS/FAIL - detail

Where arithmetic on the reference data alone shows an entry to be
wrong, the criterion checks a corrected value from an errata table
instead: the printed value stays as it is, the erratum's premise is
checked inside the test, the summary line names the erratum, and no
tolerance moves.
"""

import csv
import json
import math
import pathlib
import time
from fractions import Fraction

from mpmath import mp, mpf

from kgonal.asymptotics import constants, empirical_amplitude, solve_xi
from kgonal.bseries import GonalParams, compute_b, recurrence_crosscheck
from kgonal.cli import alpha_bar_probe, packaged_golden_table, render_table
from kgonal.labelled import burnside_b
from kgonal.odd import odd_recurrence
from kgonal.oracle import count_structures
from kgonal.oriented import oriented_series, reversal_fixed, unlabelled_series
from kgonal.universal import universal_c
from bfile import read_bfile
from decoded_oracle import enumerate_b, reversal

DATA = pathlib.Path(__file__).parent / "data"
ARTIFACTS = pathlib.Path(__file__).parents[1] / "artifacts"

_TABLES: dict = {}


def table_for(k: int, order: int):
    key = (k, order)
    if key not in _TABLES:
        _TABLES[key] = compute_b(GonalParams(k), order)
    return _TABLES[key]


def report(capsys, number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def load_reference_constants() -> dict[int, dict[str, float]]:
    rows: dict[int, dict[str, float]] = {}
    with open(DATA / "reference_constants.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            rows[int(row["p"])] = {
                key: float(value) for key, value in row.items() if key != "p"
            }
    return rows


def test_criterion_1_exact_table(capsys):
    start = time.perf_counter()
    out = render_table(2, 12, 20, "csv")
    elapsed = time.perf_counter() - start
    golden = packaged_golden_table()
    matches = out == golden
    cells = sum(len(line.split(",")) - 1 for line in golden.strip().split("\n")[1:])
    report(
        capsys,
        1,
        matches and elapsed < 10.0 and cells == 231,
        f"{cells} unlabelled counts byte-identical to the golden table, "
        f"computed in {elapsed:.2f}s (budget 10s)"
        if matches
        else "computed table differs from the golden file",
    )


def test_criterion_2_singularities(capsys):
    reference = load_reference_constants()
    start = time.perf_counter()
    max_xi_dev = 0.0
    max_beta_dev = 0.0
    for p in range(1, 12):
        table = table_for(p + 1, 500)
        xi, _, _ = solve_xi(table.params, table.int_coeffs(1))
        max_xi_dev = max(max_xi_dev, abs(float(xi) - reference[p]["xi"]))
        max_beta_dev = max(max_beta_dev, abs(float(1 / xi) - reference[p]["beta"]))
    elapsed = time.perf_counter() - start
    report(
        capsys,
        2,
        max_xi_dev < 1e-9 and max_beta_dev < 1e-9 and elapsed < 60.0,
        f"p=1..11 at series order 500: max |xi dev| {max_xi_dev:.2e}, "
        f"max |beta dev| {max_beta_dev:.2e} (tol 1e-9), {elapsed:.1f}s (budget 60s)",
    )


# Errata to the printed reference. Each keeps the printed value as it is and
# applies only while its premise, a fact about the printed reference alone,
# holds; once the reference is corrected the premise fails, and so does the
# criterion, until the erratum is removed.

# p -> corrected second amplitude. Premise: the printed alpha_bar of that row
# repeats its printed alpha to every digit.
ALPHA_BAR_ERRATA = {2: 0.1896308330}


def test_criterion_3_amplitudes(capsys):
    reference = load_reference_constants()
    alpha_tol = 1e-6
    candidate_tol = 1e-4
    alpha_failures: list[int] = []
    candidate_failures: list[int] = []
    premise_failures: list[int] = []
    applied: list[str] = []
    per_p = []
    for p in range(1, 12):
        params = GonalParams(p + 1)
        table = table_for(p + 1, 1000)
        xi, iterations, residual = solve_xi(params, table.int_coeffs(1))
        # the CLI's probe: the oriented counts at n = 1000, 500 and 250
        empirical = alpha_bar_probe(table, xi)
        rep = constants(
            params, table.int_coeffs(1), xi, iterations, residual, alpha_bar_empirical=empirical
        )
        if abs(rep.alpha - reference[p]["alpha"]) > alpha_tol:
            alpha_failures.append(p)
        if p < 2:
            continue
        printed_bar = reference[p]["alpha_bar"]
        ref_bar = printed_bar
        if p in ALPHA_BAR_ERRATA:
            if printed_bar == reference[p]["alpha"]:
                ref_bar = ALPHA_BAR_ERRATA[p]
                applied.append(
                    f"p={p} printed {printed_bar:.12f} (repeats alpha) "
                    f"checked as {ref_bar:.10f}"
                )
            else:
                premise_failures.append(p)
        candidates = {
            "product_form": rep.alpha_bar_product_form,
            "empirical_n1000_richardson": rep.alpha_bar_empirical,
        }
        deviations = {name: abs(value - ref_bar) for name, value in candidates.items()}
        satisfied = min(deviations.values()) <= candidate_tol
        if not satisfied:
            candidate_failures.append(p)
        per_p.append(
            {
                "p": p,
                "reference_second_amplitude": printed_bar,
                "reference_first_amplitude": reference[p]["alpha"],
                "checked_second_amplitude": ref_bar,
                "candidates": candidates,
                "absolute_deviations": deviations,
                "within_1e-4": {
                    name: dev <= candidate_tol for name, dev in deviations.items()
                },
                "satisfied": satisfied,
            }
        )

    ARTIFACTS.mkdir(exist_ok=True)
    artifact = {
        "tolerance": candidate_tol,
        "per_p": per_p,
        "analysis": [
            "The product form matches the reference second-amplitude column "
            "to nine or more digits for every p in 2..11 except p = 2.",
            "At p = 2 the reference column repeats the first-amplitude entry "
            "0.349261381742 (= alpha_2); no computed candidate lies within "
            "1e-4 of it.",
            "The computed candidates agree among themselves at p = 2: "
            "product form 0.189630833046, empirical Richardson extrapolation "
            "at n = 1000 gives 0.189630836 (relative gap about 2e-8); the "
            "tail-cubed identity (3/(4 sqrt(pi))) tau_bar3 equals the "
            "product form by construction and is asserted to 1e-12 whenever "
            "a report is built.",
            "A second printed ratio form is not a candidate: with the slope "
            "ratio scaled as xi * omega'/omega it reproduces the product form "
            "exactly, and as printed, with the bare omega'/omega, it matched "
            "neither the reference column nor the other candidates at any p.",
            "The packaged golden k = 3 unlabelled counts (1, 1, 1, 2, 5, 12, "
            "39, ...) alone give 2 a_n n^(5/2) xi^n = 0.1825 at n = 20, and "
            "Richardson extrapolation in 1/n brings it to 0.1886 at first "
            "order and 0.1901 at second; nothing points to a limit of 0.349.",
            "Conclusion: the reference second amplitude at p = 2 is a "
            "duplicate of the first amplitude, and the true value is "
            "0.1896308330: the product form lies within 1e-10 of it and the "
            "empirical route, which uses only the exact oriented counts, "
            "within 4e-9.",
            "While the printed p = 2 entry repeats alpha_2, the criterion "
            "checks p = 2 against the erratum 0.1896308330 instead; for every "
            "p the deviations and flags above are measured from "
            "checked_second_amplitude, with the tolerance unchanged.",
        ],
    }
    (ARTIFACTS / "alpha_bar_discrepancy.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )

    ok = not alpha_failures and not candidate_failures and not premise_failures
    pieces = [f"alpha within 1e-6 for p=1..11" if not alpha_failures else f"alpha fails at p={alpha_failures}"]
    if candidate_failures:
        pieces.append(
            f"no second-amplitude candidate within 1e-4 at p={candidate_failures} "
            "(see artifacts/alpha_bar_discrepancy.json)"
        )
    else:
        pieces.append("a second-amplitude candidate within 1e-4 for each p>=2")
    if premise_failures:
        pieces.append(
            f"erratum premise fails at p={premise_failures}: the printed "
            "alpha_bar no longer repeats alpha, so remove the erratum"
        )
    pieces.extend(f"erratum {entry}" for entry in applied)
    report(capsys, 3, ok, "; ".join(pieces))


PRINTED_CLOSED_FORMS = {
    1: {1: Fraction(1)},
    2: {3: Fraction(-1, 2)},
    3: {5: Fraction(1, 8), 4: Fraction(-1, 3)},
    4: {7: Fraction(-1, 48), 6: Fraction(1), 5: Fraction(-1, 4)},
    5: {
        9: Fraction(1, 384),
        8: Fraction(-4, 3),
        7: Fraction(49, 72),
        6: Fraction(-1, 5),
    },
}

PRINTED_DECIMALS = {
    1: "0.36787944117144232160",
    2: "-0.02489353418393197149",
    3: "-0.00526296958802571004",
    4: "0.00077526788594593923",
    5: "0.00032212622183609932",
}


# m whose printed decimal dropped its minus sign. Premise: the printed closed
# form, evaluated here without the program, equals the negated printed
# decimal within 1e-15.
DECIMAL_SIGN_ERRATA = {5}


def closed_form_value(terms: dict[int, Fraction]):
    """sum coef * e^(-j) over the printed {j: coef} terms, at the working precision."""
    return sum(mpf(coef.numerator) / coef.denominator * mp.exp(-j) for j, coef in terms.items())


def test_criterion_4_universal_constants(capsys):
    symbolic_bad = []
    decimal_bad = []
    premise_bad = []
    applied = []
    worst = 0.0
    with mp.workdps(40):
        for m in range(1, 6):
            c = universal_c(m)
            if dict(c.terms) != PRINTED_CLOSED_FORMS[m]:
                symbolic_bad.append(m)
            expected = mpf(PRINTED_DECIMALS[m])
            if m in DECIMAL_SIGN_ERRATA:
                if abs(float(closed_form_value(PRINTED_CLOSED_FORMS[m]) + expected)) <= 1e-15:
                    expected = -expected
                    applied.append(
                        f"m={m} printed {PRINTED_DECIMALS[m]} checked as "
                        f"{mp.nstr(expected, 20, min_fixed=-5)}, the value of its "
                        "printed closed form"
                    )
                else:
                    premise_bad.append(m)
            dev = abs(float(c.value(40) - expected))
            if dev > 1e-15:
                decimal_bad.append(m)
                worst = max(worst, dev)
    ok = not symbolic_bad and not decimal_bad and not premise_bad
    if ok:
        pieces = ["c_1..c_5 symbolic forms exact and decimals within 1e-15"]
    else:
        pieces = []
        pieces.append(
            "symbolic closed forms exact for c_1..c_5"
            if not symbolic_bad
            else f"symbolic mismatch at m={symbolic_bad}"
        )
        if decimal_bad:
            pieces.append(
                f"decimals within 1e-15 except m={decimal_bad} (worst dev {worst:.2e})"
            )
        if premise_bad:
            pieces.append(
                f"erratum premise fails at m={premise_bad}: the printed closed "
                "form no longer equals the negated printed decimal, so remove "
                "the erratum"
            )
    pieces.extend(f"erratum {entry}" for entry in applied)
    report(capsys, 4, ok, "; ".join(pieces))


def test_criterion_5_cross_method_identities(capsys):
    for k in range(2, 9):
        params = GonalParams(k)
        table = table_for(k, 12)
        alt = recurrence_crosscheck(params, 12)
        assert table.int_coeffs(1) == alt, f"k={k}"
    for k in range(2, 9):
        params = GonalParams(k)
        table = table_for(k, 12)
        for n in range(11):
            assert burnside_b(params, n) == table.int_coeffs(1)[n], f"k={k} n={n}"
    for k in (3, 5, 7, 9, 11):
        table = table_for(k, 20)
        assert unlabelled_series(table) == odd_recurrence(table), f"k={k}"
    for k in range(2, 13):
        table = table_for(k, 20)
        a = unlabelled_series(table)
        a_o = oriented_series(table)
        for n in range(21):
            assert a[n].denominator == 1 and a[n] >= 0, f"k={k} n={n}"
            assert 2 * a[n] - a_o[n] >= 0, f"k={k} n={n}"
    report(
        capsys,
        5,
        True,
        "kernel==tuple recurrence (k<=8,n<=12); Burnside==kernel (k<=8,n<=10); "
        "odd series==odd recurrence (odd k<=11,n<=20); unlabelled counts "
        "integral, non-negative, and 2a_n - a_o_n >= 0 (k<=12,n<=20)",
    )


def test_criterion_6_oracle_equivalence(capsys):
    checked = 0
    for k in (3, 4, 5, 6):
        params = GonalParams(k)
        table = table_for(k, 6)
        fixed_expected = reversal_fixed(table)
        counts = count_structures(params, 6)
        for n in range(7):
            structures = enumerate_b(params, n)
            assert len(structures) == table.int_coeffs(1)[n], f"k={k} n={n}"
            assert counts[n][1] == fixed_expected[n], f"k={k} n={n}"
            for s in structures:
                assert reversal(reversal(s)) == s
            checked += len(structures)
    report(
        capsys,
        6,
        True,
        f"exhaustive enumeration matches the kernel and the reversal-fixed "
        f"counts for k=3..6, n<=6; reversal is an involution on all "
        f"{checked} structures",
    )


def test_criterion_7_polynomiality(capsys):
    # the counts are polynomials in the polygon size of degree n - 1, so
    # the n-th forward difference over k = 2..n+2 vanishes; at n = 0 the
    # zeroth difference is the constant 1 itself, so the check starts at 1
    for n in range(1, 9):
        values = [table_for(k, n).int_coeffs(1)[n] for k in range(2, n + 3)]
        diff = sum((-1) ** j * math.comb(n, j) * values[j] for j in range(n + 1))
        assert diff == 0, f"n={n}: difference {diff}"
    report(
        capsys,
        7,
        True,
        "n-th forward difference of the count over k=2..n+2 vanishes for n=1..8",
    )


def test_criterion_8_asymptotic_regime(capsys):
    params = GonalParams(3)
    table = table_for(3, 50)
    a = unlabelled_series(table)
    a_o = oriented_series(table)
    ratio_defect = abs(2 * a[50] / a_o[50] - 1)
    defect_ok = ratio_defect < Fraction(1, 10**8)

    big = table_for(3, 1000)
    xi, iterations, residual = solve_xi(params, big.int_coeffs(1))
    rep = constants(params, big.int_coeffs(1), xi, iterations, residual)
    empirical = empirical_amplitude(big.int_coeffs(1).__getitem__, xi, 1.5, n_probe=1000)
    amp_dev = abs(empirical / rep.alpha - 1)
    amp_ok = amp_dev < 0.01
    report(
        capsys,
        8,
        defect_ok and amp_ok,
        f"k=3: |a_50/(a_o_50/2) - 1| = {float(ratio_defect):.2e} (tol 1e-8); "
        f"empirical amplitude at p=2, n=1000 within {amp_dev:.2e} of alpha_2 (tol 1e-2)",
    )


BFILE_SEQUENCES = {
    2: ("A000081", 1),
    3: ("A005750", 0),
    4: ("A052751", 0),
    5: ("A052773", 0),
    6: ("A052781", 0),
}


def test_criterion_9_oeis_fixtures(capsys):
    for k, (name, offset) in BFILE_SEQUENCES.items():
        fixture = read_bfile(DATA / "bfiles" / f"{name}.txt")
        table = table_for(k, 19)
        for n in range(20):
            assert table.int_coeffs(1)[n] == fixture[n + offset], f"{name} n={n}"
    report(
        capsys,
        9,
        True,
        "edge-rooted counts for k=2..6 match the first 20 terms of the five "
        "local sequence fixtures",
    )
