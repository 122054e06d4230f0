"""Command-line surface: counts, tables, growth constants, verification.

Output contract: exact counts are printed as decimal strings inside
JSON or CSV, never as floats, so arbitrarily large values round-trip.
Identical invocations produce bit-identical output; nothing in the
output depends on timing or cache state.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator

from kgonal.asymptotics import (
    NonConvergenceError,
    constants,
    empirical_amplitude,
    solve_xi,
)
from kgonal.bseries import GonalParams, compute_b, recurrence_crosscheck
from kgonal.cache import resolve_cache_dir
from kgonal.kernels import IntegrityError, exact_count, long_decimals, solve_work
from kgonal.labelled import (
    burnside_b,
    labelled_oriented,
    labelled_rooted,
    labelled_unoriented,
)
from kgonal.odd import odd_recurrence
from kgonal.oracle import count_structures
from kgonal.oriented import oriented_count, oriented_series, reversal_fixed, unlabelled_series
from kgonal.universal import universal_c, xi_from_expansion

__all__ = [
    "main",
    "family_counts",
    "render_table",
    "FAMILIES",
    "M_MAX_CEILING",
    "ORDER_CEILING",
    "K_RANGE_CEILING",
    "TABLE_COST_CEILING",
    "TABLE_FORK_WORK",
    "LABELLED_COST_CEILING",
]

FAMILIES = (
    "b",
    "labelled-rooted",
    "labelled-oriented",
    "labelled",
    "unlabelled-oriented",
    "unlabelled",
    "edge-rooted-unlabelled",
)

EMPIRICAL_ORDER = 1000

# universal_c(m) sums over the p(m-1) partitions of m-1, so the cost of
# c_1..c_m grows by about a fifth per m: 0.5 s up to m = 40, 3.1 s up to
# 50, 5.3 s up to 53 and 17 s up to 60 (2 vCPU, Python 3.11);
# universal --m-max 53 --p 11 takes 5.4-6.5 s in all
M_MAX_CEILING = 53

# b and the layers on it cost about order^3 in time at fixed k (a table
# column of k = 12 took 0.44-0.52 s at order 500 and 2.7-3.2 s at 1000).
# At order 1600 and k = 12 the slowest family, count --family
# unlabelled, takes 12-13 s of wall time (13.6-15.0 s of CPU), count
# --family b 2.6-3.2 s (4.6-5.5 s of CPU in two processes), and
# constants --p 11 --series-order 1600 2.5-3.0 s (4.4-5.0 s of CPU).
# Forking the power pass of solve_b halved the solve's wall time, but
# the counting layers after it still set the slowest family's time, so
# the ceiling stays (2 vCPU, Python 3.11; the ranges are two runs)
ORDER_CEILING = 1600

# table solves b once per polygon size, so its time grows linearly in the
# number of columns: 1000 columns take 0.3 s at order 3, 0.8 s at order
# 20 and 4.8 s at order 60, and 20000 columns 1.4 s at order 3 (2 vCPU,
# Python 3.11)
K_RANGE_CEILING = 1000

# a table column costs about order^3 log10(e (k - 1)) work units
# (kernels.solve_work): k - 1 sets the digits per coefficient, and the
# one solve of count, series or constants is held to the same ceiling.
# table --k-min 2 --k-max 12 --order 1600 is 5.1e10 units and took
# 270 s, before the table split its
# columns between two processes.  At order 1000 (1.2e10 units) it took
# 17-19 s of wall time split (32-34 s of CPU), 26 s with only the solves
# of its columns forked, and 32 s on one CPU, each at a peak RSS of
# 41 MB (2 vCPU, Python 3.11).  The ceiling was set by the order-1600
# run and is not raised on the order-1000 numbers alone
TABLE_COST_CEILING = 6e10

# render_table computes about half of its columns in a forked child
# (kgonal.forked) from this much work, in the units above.  table --k-min
# 2 --k-max 12 --order N, split against one process (median ratios of
# alternating pairs, 2 vCPU, Python 3.11): 1.10 at order 20 (9.9e4
# units; split faster in 2 of 10), 0.99-1.00 at 40 and 60, 0.94 at 80
# (6.3e6; 14 of 20), 0.92 at 100 (1.2e7; 12 of 20), 0.86 at 125 (2.4e7;
# 16 of 20), 0.80 at 160 (5.1e7; 20 of 20) and 0.61 at 250 (1.9e8; 8 of
# 8)
TABLE_FORK_WORK = 1e7

# the labelled families are closed forms, so printing them in decimal,
# which is quadratic in the digits, is the work: a count of D digits
# costs about D^2 units.  count --k 3 --family labelled --n 100000
# (2.8e11 units) took 5.3 s, and --family labelled-rooted --order 3000
# (1.2e11 units summed over the rows, 16 MB of output) 2.7 s and a peak
# RSS of 75 MB (2 vCPU, Python 3.11)
LABELLED_COST_CEILING = 5e11


class CliError(Exception):
    """User-facing failure: message goes to standard error, exit is nonzero."""


def _check_order(order: int, what: str = "order", solves_b: bool = True) -> None:
    """Reject a negative order, or past ORDER_CEILING one that b is solved to."""
    if order < 0:
        raise CliError(f"{what} must be >= 0")
    if solves_b and order > ORDER_CEILING:
        raise CliError(
            f"{what} must be <= {ORDER_CEILING}: counting through b grows like the "
            "cube of the order"
        )


def _check_work(what: str, work: float) -> None:
    """Reject solves of b whose work (kernels.solve_work) passes TABLE_COST_CEILING."""
    if work > TABLE_COST_CEILING:
        raise CliError(
            f"{what} is too large: order^3 log10(e (k - 1)) summed over its solves of b "
            f"is {work:.2g}, past the limit of {TABLE_COST_CEILING:.2g} (about five minutes)"
        )


def _labelled_form(family: str):
    """The closed form n -> count of a labelled family; None for the others."""
    return {
        "labelled-rooted": labelled_rooted,
        "labelled-oriented": labelled_oriented,
        "labelled": labelled_unoriented,
    }.get(family)


def _check_printed_digits(params: GonalParams, family: str, indices: range) -> None:
    """Reject labelled counts at these indices whose decimal printing would be too slow.

    The counts near m^(n-2), m = (k - 1) n + 1, have about (n - 2) log10 m
    digits.  Their squares are summed from the largest index down, so an
    index far past the ceiling fails at its first term, before any loop
    over the indices below it.
    """
    cost = 0.0
    for n in reversed(indices):
        if n > 2:
            cost += ((n - 2) * math.log10(params.m(n))) ** 2
        if cost > LABELLED_COST_CEILING:
            raise CliError(
                f"{family} counts up to n={indices[-1]} are too large to print: "
                f"their squared decimal digits sum past {LABELLED_COST_CEILING:.2g} "
                "(about ten seconds)"
            )


def _checked_params(k: int, family: str, order: int, what: str = "order") -> GonalParams:
    """Check a count's family, order, k and work once; labelled closed forms solve no b."""
    if family not in FAMILIES:
        raise CliError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
    solves_b = _labelled_form(family) is None
    _check_order(order, what, solves_b)
    try:
        params = GonalParams(k)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if solves_b:
        _check_work(f"b to order {order}", solve_work(params.p, order))
    return params


def family_counts(
    k: int, family: str, order: int, cache_dir: Path | None = None
) -> list[int]:
    """Counts for n = 0..order of one family at one polygon size."""
    return _counts(_checked_params(k, family, order), family, range(order + 1), cache_dir)


def _counts(params: GonalParams, family: str, indices: range, cache_dir: Path | None) -> list[int]:
    """The counts at indices, a range of step 1, once its inputs are checked.

    A labelled closed form is evaluated at the indices alone; every
    other family is solved to the last index and sliced from the first.
    """
    form = _labelled_form(family)
    if form is not None:
        _check_printed_digits(params, family, indices)
        return [form(params, n) for n in indices]
    table = compute_b(params, indices[-1], cache_dir)
    if family == "b":
        counts = table.int_coeffs(1)
    elif family == "unlabelled-oriented":
        counts = oriented_series(table)
    elif family == "unlabelled":
        counts = unlabelled_series(table)
    else:
        # edge-rooted-unlabelled: the orbits of root reversal
        pairs = enumerate(zip(table.int_coeffs(1), reversal_fixed(table)))
        counts = [exact_count(b + f, 2, f"b_n + fixed_n at n={n}") for n, (b, f) in pairs]
    return counts[indices.start :]


def _count_document(k: int, family: str, entries: list[tuple[int, int]]) -> str:
    with long_decimals():
        counts = [{"n": n, "value": str(v)} for n, v in entries]
    doc = {"k": k, "family": family, "counts": counts}
    return json.dumps(doc, indent=2) + "\n"


def cmd_count(args: argparse.Namespace, cache_dir: Path | None) -> int:
    if (args.n is None) == (args.order is None):
        raise CliError("provide exactly one of --n or --order")
    if args.n is not None:
        params = _checked_params(args.k, args.family, args.n, "n")
        entries = [(args.n, _counts(params, args.family, range(args.n, args.n + 1), cache_dir)[0])]
    else:
        entries = list(enumerate(family_counts(args.k, args.family, args.order, cache_dir)))
    sys.stdout.write(_count_document(args.k, args.family, entries))
    return 0


def render_table(
    k_min: int, k_max: int, order: int, fmt: str = "csv", cache_dir: Path | None = None
) -> Iterable[str]:
    """The unlabelled-count matrix, one column per polygon size, as text pieces.

    The arguments are checked and the columns computed before this
    returns.  The CSV text is then made one line per row as the pieces
    are read, so a writer can send each row as it is made and hold no
    more than one row of text; JSON is one piece, the whole document.
    Either way the pieces joined are the whole table.

    A table of two columns or more whose work reaches TABLE_FORK_WORK
    computes about half of its columns in a forked child when
    forked.may_fork allows it (kgonal.forked.split): the child takes the
    costliest columns, as many as bring the costs of the two halves
    closest, and the parent the rest.  Each half reads and writes the
    cache files of its own columns, and neither half's solves fork
    again.  The output is the same bytes either way.
    """
    if not 2 <= k_min <= k_max:
        raise CliError("need 2 <= k-min <= k-max")
    if k_max - k_min + 1 > K_RANGE_CEILING:
        raise CliError(
            f"k-max - k-min + 1 must be <= {K_RANGE_CEILING}: table solves b once "
            "per polygon size"
        )
    _check_order(order)
    ks = range(k_min, k_max + 1)
    costs = [solve_work(k - 1, order) for k in ks]
    cost = sum(costs)
    _check_work(f"table of {len(ks)} columns to order {order}", cost)

    def column(k: int) -> list[int]:
        return unlabelled_series(compute_b(GonalParams(k), order, cache_dir))

    if len(ks) >= 2 and cost >= TABLE_FORK_WORK:
        from kgonal import forked

        ahead = list(accumulate(costs, initial=0))
        cut = min(range(len(ks) + 1), key=lambda i: abs(cost - 2 * ahead[i]))
        columns = list(forked.split(column, ks, cut, "the forked half of the table"))
    else:
        columns = [column(k) for k in ks]
    if fmt == "csv":
        return _csv_rows(ks, columns)
    with long_decimals():
        doc = {
            "k_min": k_min,
            "k_max": k_max,
            "order": order,
            "columns": [f"k{k}" for k in ks],
            "rows": [
                {"n": n, "values": [str(c) for c in row]}
                for n, row in enumerate(zip(*columns))
            ],
        }
    return [json.dumps(doc, indent=2) + "\n"]


def _csv_rows(ks: range, columns: list[list[int]]) -> Iterator[str]:
    """The CSV lines of render_table, newline included, made one at a time."""
    yield "n," + ",".join(f"k{k}" for k in ks) + "\n"
    for n, row in enumerate(zip(*columns)):
        # the limit is lifted only while a row converts, never while the
        # reader holds the iterator
        with long_decimals():
            line = f"{n}," + ",".join(map(str, row)) + "\n"
        yield line


def cmd_table(args: argparse.Namespace, cache_dir: Path | None) -> int:
    for piece in render_table(args.k_min, args.k_max, args.order, args.format, cache_dir):
        sys.stdout.write(piece)
    return 0


def constants_report(
    p: int,
    series_order: int,
    tol: float,
    with_empirical: bool,
    cache_dir: Path | None = None,
) -> dict:
    """The full constant report for one p, as a JSON-ready dict.

    Two stages, exact then analytic.  The exact stage solves b, to
    EMPIRICAL_ORDER (or series_order if larger) with with_empirical,
    and takes the probe's oriented counts a_{o,n} at n = N, N/2 and N/4
    of that order N, largest first, so that each power prefix they read
    is built once.  Only b cut at series_order and those three
    ints outlive it: the table, with b^{k-1} and the powers the probe
    built, is let go before the analytic stage loads mpmath, which is
    where the command's memory peaks.  The analytic stage then solves
    xi, extrapolates alpha_bar from the three counts and builds the
    report.
    """
    params = GonalParams(p + 1)
    probe_order = max(series_order, EMPIRICAL_ORDER) if with_empirical else series_order
    _check_work(f"b to order {probe_order}", solve_work(p, probe_order))
    table = compute_b(params, probe_order, cache_dir)
    # solve_b is prefix-stable, so this is b solved to series_order
    b = table.int_coeffs(1)[: series_order + 1]
    counts = {}
    if with_empirical:
        # the indices empirical_amplitude reads, in its order
        indices = (probe_order, probe_order // 2, probe_order // 4)
        counts = {m: oriented_count(table, m) for m in indices}
    del table
    xi, iterations, residual = solve_xi(params, b, tol)
    empirical = None
    if with_empirical:
        # the square-root singularity puts n^{-5/2} in front of the
        # unrooted-type counts at every page size
        empirical = empirical_amplitude(counts.__getitem__, xi, 2.5, n_probe=probe_order)
    report = constants(
        params,
        b,
        xi,
        iterations,
        residual,
        tol=tol,
        alpha_bar_empirical=empirical,
    )
    return report._asdict()


def cmd_constants(args: argparse.Namespace, cache_dir: Path | None) -> int:
    if args.p < 1:
        raise CliError("p must be >= 1")
    _check_order(args.series_order, "series order")
    if not 0 < args.tol < float("inf"):
        raise CliError("tol must be > 0 and finite")
    try:
        doc = constants_report(
            args.p, args.series_order, args.tol, not args.no_empirical, cache_dir
        )
    except NonConvergenceError as exc:
        raise CliError(f"constant solve failed: {exc}") from None
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_universal(args: argparse.Namespace, cache_dir: Path | None) -> int:
    if args.m_max < 1:
        raise CliError("m-max must be >= 1")
    if args.m_max > M_MAX_CEILING:
        raise CliError(
            f"m-max must be <= {M_MAX_CEILING}: c_m sums over the partitions of m-1, "
            "whose number grows exponentially in sqrt(m)"
        )
    if args.p is not None and args.p < 1:
        raise CliError("p must be >= 1")
    from mpmath import mp, nstr

    entries, values = [], []
    with mp.workdps(40):
        for m in range(1, args.m_max + 1):
            c = universal_c(m)
            values.append(c.value(40))
            entries.append(
                {
                    "m": m,
                    "closed_form": c.closed_form(),
                    "value": nstr(values[-1], 20, strip_zeros=False),
                }
            )
    doc: dict = {"m_max": args.m_max, "constants": entries}
    if args.p is not None:
        doc["p"] = args.p
        doc["xi_partial_sum"] = xi_from_expansion(args.p, values)
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def packaged_golden_table() -> str:
    from importlib import resources

    return (resources.files("kgonal") / "data" / "unlabelled_golden.csv").read_text()


def _require(ok: bool, what: str) -> None:
    """Fail a verify check; unlike assert this also runs under python -O."""
    if not ok:
        raise IntegrityError(what)


def _verify_checks(level: str, with_oracle: bool, cache_dir: Path | None):
    """Yield (name, callable) pairs; each callable raises on failure."""
    wide = level == "full"

    def check_recurrence():
        k_max, order = (8, 12) if wide else (6, 10)
        for k in range(2, k_max + 1):
            params = GonalParams(k)
            table = compute_b(params, order, cache_dir)
            alt = recurrence_crosscheck(params, order)
            _require(table.int_coeffs(1) == alt, f"k={k}")

    def check_burnside():
        k_max, n_max = (8, 10) if wide else (6, 8)
        for k in range(2, k_max + 1):
            params = GonalParams(k)
            table = compute_b(params, n_max, cache_dir)
            for n in range(n_max + 1):
                _require(burnside_b(params, n) == table.int_coeffs(1)[n], f"k={k} n={n}")

    def check_odd_routes():
        ks, order = ((3, 5, 7, 9, 11), 20) if wide else ((3, 5, 7), 12)
        for k in ks:
            table = compute_b(GonalParams(k), order, cache_dir)
            _require(unlabelled_series(table) == odd_recurrence(table), f"k={k}")

    def check_group_average():
        k_max, order = (12, 14) if wide else (8, 12)
        for k in range(2, k_max + 1):
            table = compute_b(GonalParams(k), order, cache_dir)
            a = unlabelled_series(table)
            a_o = oriented_series(table)
            for n in range(order + 1):
                _require(isinstance(a[n], int) and a[n] >= 0, f"k={k} n={n}")
                _require(2 * a[n] - a_o[n] >= 0, f"k={k} n={n}")

    def check_golden_table():
        table = "".join(render_table(2, 12, 20, "csv", cache_dir))
        _require(table == packaged_golden_table(), "differs from the packaged golden table")

    def check_oracle():
        n_max = 6 if wide else 5
        for k in (3, 4, 5, 6):
            params = GonalParams(k)
            table = compute_b(params, n_max, cache_dir)
            fixed_expected = reversal_fixed(table)
            for n, (total, fixed) in enumerate(count_structures(params, n_max)):
                _require(total == table.int_coeffs(1)[n], f"k={k} n={n}")
                _require(fixed == fixed_expected[n], f"k={k} n={n}")

    yield "kernel-vs-tuple-recurrence", check_recurrence
    yield "burnside-vs-kernel", check_burnside
    yield "odd-series-vs-recurrence", check_odd_routes
    yield "group-average-bounds", check_group_average
    yield "golden-table", check_golden_table
    if wide or with_oracle:
        yield "exhaustive-oracle", check_oracle


def _failure(check) -> str | None:
    """None when check passes, else the message of what it raised."""
    try:
        check()
    except Exception as exc:  # noqa: BLE001 - report and continue
        return str(exc)
    return None


def cmd_verify(args: argparse.Namespace, cache_dir: Path | None) -> int:
    """Run the checks of the level and print one PASS or FAIL line each, in order.

    The exhaustive oracle, about two thirds of the full level's work,
    runs in a forked child when forked.may_fork allows it
    (kgonal.forked.split), forked before the first check so that it
    starts from the heap the imports left.  The parent runs the other
    checks meanwhile, printing each line as its check ends, then prints
    the oracle's line from the None or failure message the child sends,
    so stdout is the same bytes as in one process.  A child that dies
    raises ChildProcessError, which main reports as one error line.
    """
    names, checks = zip(*_verify_checks(args.level, args.oracle, cache_dir))
    if names[-1] == "exhaustive-oracle":
        from kgonal import forked

        messages = forked.split(_failure, checks, len(checks) - 1, "the exhaustive oracle")
    else:
        messages = map(_failure, checks)
    failures = 0
    for name, message in zip(names, messages):
        if message is None:
            sys.stdout.write(f"PASS {name}\n")
        else:
            failures += 1
            sys.stdout.write(f"FAIL {name}: {message}\n")
    if failures:
        sys.stdout.write(f"{failures} check(s) failed\n")
        return 1
    sys.stdout.write("all checks passed\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgonal",
        description="Exact and asymptotic enumeration of polygonal cactus-like complexes.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="series cache directory (default: KGONAL_CACHE environment variable, else no cache)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="counts of one family at one polygon size")
    count.add_argument("--k", type=int, required=True)
    count.add_argument("--family", choices=FAMILIES, required=True)
    count.add_argument("--n", type=int, default=None, help="single index to report")
    count.add_argument("--order", type=int, default=None, help="report all of n = 0..order")
    count.set_defaults(handler=cmd_count)

    series = sub.add_parser("series", help="full count prefix of one family")
    series.add_argument("--k", type=int, required=True)
    series.add_argument("--family", choices=FAMILIES, required=True)
    series.add_argument("--order", type=int, required=True)
    # the same document as count --order
    series.set_defaults(handler=cmd_count, n=None)

    table = sub.add_parser("table", help="unlabelled-count matrix over a range of polygon sizes")
    table.add_argument("--k-min", type=int, default=2)
    table.add_argument("--k-max", type=int, default=12)
    table.add_argument("--order", type=int, default=20)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.set_defaults(handler=cmd_table)

    consts = sub.add_parser("constants", help="growth constants at one page size")
    consts.add_argument("--p", type=int, required=True, help="pages per new polygon (k - 1)")
    consts.add_argument("--series-order", type=int, default=500)
    consts.add_argument("--tol", type=float, default=1e-13)
    consts.add_argument(
        "--no-empirical",
        action="store_true",
        help="skip the empirical extrapolation candidate",
    )
    consts.set_defaults(handler=cmd_constants)

    universal = sub.add_parser("universal", help="size-independent expansion coefficients")
    universal.add_argument(
        "--m-max",
        type=int,
        default=5,
        help=f"last coefficient to report (at most {M_MAX_CEILING}; c_1..c_{M_MAX_CEILING} take "
        "about 6 s, and the cost grows exponentially in sqrt(m-max))",
    )
    universal.add_argument(
        "--p", type=int, default=None, help="also report the partial sum at this p"
    )
    universal.set_defaults(handler=cmd_universal)

    verify = sub.add_parser("verify", help="cross-method identity suite")
    verify.add_argument("--level", choices=("quick", "full"), default="quick")
    verify.add_argument(
        "--oracle",
        action="store_true",
        help="include the exhaustive enumerator sweep at the quick level",
    )
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache_dir = resolve_cache_dir(args.cache_dir)
    # a failed integrity check, e.g. on a corrupt cache file, or a forked
    # child killed, e.g. for lack of memory, is an error line, not a traceback
    try:
        return args.handler(args, cache_dir)
    except (CliError, IntegrityError, ChildProcessError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
