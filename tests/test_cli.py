"""Tests for the command-line surface."""

import errno
import gc
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

from kgonal.cli import (
    CliError,
    K_RANGE_CEILING,
    M_MAX_CEILING,
    ORDER_CEILING,
    TABLE_FORK_WORK,
    constants_report,
    family_counts,
    main,
    packaged_golden_table,
    render_table,
)
import kgonal
from kgonal import cache, kernels, oracle
from kgonal.asymptotics import solve_xi
from kgonal.bseries import BTable
from kgonal.kernels import IntegrityError, long_decimals
from kgonal.universal import UniversalConstant, universal_c, xi_from_expansion
from forks import assert_left_clean, spy_forks, two_cpus

GOLDEN = pathlib.Path(__file__).parents[1] / "src" / "kgonal" / "data" / "unlabelled_golden.csv"
DEFAULT_LIMIT = sys.get_int_max_str_digits()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_text(*args):
    # render_table's pieces joined: the text that the table command writes
    return "".join(render_table(*args))


class TestCount:
    def test_order_prefix(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--k", "3", "--family", "unlabelled", "--order", "6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["k"] == 3
        assert doc["family"] == "unlabelled"
        assert [entry["value"] for entry in doc["counts"]] == [
            "1", "1", "1", "2", "5", "12", "39",
        ]
        assert [entry["n"] for entry in doc["counts"]] == list(range(7))

    def test_single_index(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--k", "5", "--family", "labelled-rooted", "--n", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == [{"n": 2, "value": "9"}]

    def test_b_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--k", "4", "--family", "b", "--order", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert [entry["value"] for entry in doc["counts"]] == ["1", "1", "4"]

    def test_requires_exactly_one_size(self, capsys):
        code, _, err = run_cli(capsys, "count", "--k", "3", "--family", "b")
        assert code == 1
        assert "exactly one" in err
        code, _, err = run_cli(
            capsys, "count", "--k", "3", "--family", "b", "--n", "2", "--order", "4"
        )
        assert code == 1

    def test_rejects_small_k(self, capsys):
        code, _, err = run_cli(
            capsys, "count", "--k", "1", "--family", "b", "--order", "3"
        )
        assert code == 1
        assert "k" in err

    def test_large_k_oriented(self, capsys):
        # the exponent 2002 lies past the interpreter's recursion limit,
        # so building b^{k-1} must not recurse on the exponent
        code, out, _ = run_cli(
            capsys, "count", "--k", "2003", "--family", "unlabelled-oriented", "--order", "2"
        )
        assert code == 0
        assert [entry["value"] for entry in json.loads(out)["counts"]] == ["1", "1", "1"]

    def test_huge_k_returns_promptly(self):
        # the rotation term scans the divisors d <= n - 1, not every d <= k,
        # which at k = 10^10 would not finish
        proc = _run_python(
            "-m", "kgonal", "count", "--k", str(10**10), "--family", "unlabelled-oriented",
            "--n", "2", timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["counts"] == [{"n": 2, "value": "1"}]

    @pytest.mark.parametrize("family", ["labelled-rooted", "labelled-oriented", "labelled", "unlabelled"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_single_index_is_the_order_row(self, capsys, k, family):
        code, out_n, _ = run_cli(capsys, "count", "--k", str(k), "--family", family, "--n", "9")
        assert code == 0
        code, out_order, _ = run_cli(
            capsys, "count", "--k", str(k), "--family", family, "--order", "9"
        )
        row = json.loads(out_order)["counts"][9]
        expected = {"k": k, "family": family, "counts": [row]}
        assert out_n == json.dumps(expected, indent=2) + "\n"

    def test_labelled_single_index_evaluates_one_form(self, capsys, monkeypatch):
        # count --n N of a labelled family is one closed form, not N + 1
        from kgonal.labelled import labelled_unoriented

        seen = []

        def recording(params, n):
            seen.append(n)
            return labelled_unoriented(params, n)

        monkeypatch.setattr("kgonal.cli.labelled_unoriented", recording)
        code, out, _ = run_cli(capsys, "count", "--k", "3", "--family", "labelled", "--n", "4000")
        assert code == 0
        assert seen == [4000]
        assert json.loads(out)["counts"][0]["n"] == 4000

    def test_labelled_single_index_rejects_negative_n(self, capsys):
        code, out, err = run_cli(capsys, "count", "--k", "3", "--family", "labelled", "--n", "-1")
        assert code == 1
        assert out == ""
        assert "n must be >= 0" in err
        assert "order" not in err

    def test_single_index_rejects_negative_n(self, capsys):
        # the message names the flag that was given
        code, out, err = run_cli(capsys, "count", "--k", "3", "--family", "b", "--n", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: n must be >= 0\n"

    def test_single_index_is_checked_once(self, capsys, monkeypatch):
        # count --n checks the family, k and n once, not again as an order
        from kgonal.cli import _check_order, _checked_params

        checked = []
        monkeypatch.setattr(
            "kgonal.cli._checked_params", lambda *a: checked.append(a) or _checked_params(*a)
        )
        monkeypatch.setattr(
            "kgonal.cli._check_order", lambda *a: checked.append(a) or _check_order(*a)
        )
        code, out, _ = run_cli(capsys, "count", "--k", "3", "--family", "b", "--n", "4")
        assert code == 0
        assert json.loads(out)["counts"] == [{"n": 4, "value": "39"}]
        assert checked == [(3, "b", 4, "n"), (4, "n", True)]

    @pytest.mark.parametrize("command", ["count", "series"])
    def test_rejects_negative_order(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--k", "3", "--family", "b", "--order", "-1")
        assert code == 1
        assert out == ""
        assert err == "error: order must be >= 0\n"

    def test_values_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--k", "4", "--family", "labelled-rooted", "--order", "25"
        )
        doc = json.loads(out)
        for entry, expected in zip(doc["counts"], family_counts(4, "labelled-rooted", 25)):
            assert int(entry["value"]) == expected


class TestFamilies:
    def test_edge_rooted_both_parities(self):
        assert family_counts(3, "edge-rooted-unlabelled", 3) == [1, 1, 2, 6]
        assert family_counts(4, "edge-rooted-unlabelled", 3) == [1, 1, 3, 12]

    def test_labelled_families(self):
        assert family_counts(3, "labelled-rooted", 2) == [1, 1, 5]
        assert family_counts(3, "labelled-oriented", 3) == [1, 1, 1, 7]
        assert family_counts(4, "labelled", 3) == [1, 1, 1, 7]

    def test_unlabelled_oriented(self):
        assert family_counts(3, "unlabelled-oriented", 4) == [1, 1, 1, 2, 7]

    def test_unlabelled_parity_dispatch(self):
        assert family_counts(3, "unlabelled", 5) == [1, 1, 1, 2, 5, 12]
        assert family_counts(4, "unlabelled", 5) == [1, 1, 1, 3, 8, 32]

    def test_unknown_family_rejected_before_solving(self, monkeypatch, tmp_path):
        # a bad name must fail before b is solved or a cache file written
        def no_solve(*args):
            raise AssertionError("compute_b called for an unknown family")

        monkeypatch.setattr("kgonal.cli.compute_b", no_solve)
        with pytest.raises(CliError, match="unknown family 'bogus'"):
            family_counts(3, "bogus", 5, tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestSeries:
    def test_matches_count_prefix(self, capsys):
        code, out_series, _ = run_cli(
            capsys, "series", "--k", "4", "--family", "unlabelled", "--order", "8"
        )
        assert code == 0
        code, out_count, _ = run_cli(
            capsys, "count", "--k", "4", "--family", "unlabelled", "--order", "8"
        )
        assert out_series == out_count


class TestTable:
    def test_golden_byte_match(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--k-min", "2", "--k-max", "12", "--order", "20"
        )
        assert code == 0
        assert out == GOLDEN.read_text()
        assert out == packaged_golden_table()

    def test_order_zero(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--order", "0")
        assert code == 0
        assert out == "n,k2,k3,k4,k5,k6,k7,k8,k9,k10,k11,k12\n0,1,1,1,1,1,1,1,1,1,1,1\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--k-min", "3", "--k-max", "4", "--order", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["k3", "k4"]
        assert doc["rows"][3] == {"n": 3, "values": ["2", "3"]}

    def test_rejects_bad_range(self):
        with pytest.raises(Exception):
            render_table(5, 3, 4)

    def test_rejects_negative_order(self, capsys):
        code, out, err = run_cli(capsys, "table", "--order", "-1")
        assert code == 1
        assert out == ""
        assert "order must be >= 0" in err
        with pytest.raises(CliError, match="order must be >= 0"):
            render_table(2, 3, -1)

    @pytest.mark.parametrize("k_max", [str(2 + K_RANGE_CEILING), "1000000000"])
    def test_rejects_wide_k_range(self, capsys, monkeypatch, k_max):
        # table solves b once per column; a huge range fails before any solve
        def no_solve(*args):
            raise AssertionError("b solved for a range past the ceiling")

        monkeypatch.setattr("kgonal.cli.compute_b", no_solve)
        code, out, err = run_cli(capsys, "table", "--k-min", "2", "--k-max", k_max, "--order", "3")
        assert code == 1
        assert out == ""
        assert f"must be <= {K_RANGE_CEILING}" in err
        with pytest.raises(CliError, match=f"must be <= {K_RANGE_CEILING}"):
            render_table(2, int(k_max), 3)

    @pytest.mark.parametrize(("k_max", "order"), [(1001, ORDER_CEILING), (1001, 400), (14, 1600)])
    def test_rejects_costly_table(self, capsys, monkeypatch, k_max, order):
        # columns and order each within their ceiling, but not together
        def no_solve(*args):
            raise AssertionError("b solved for a table past the cost ceiling")

        monkeypatch.setattr("kgonal.cli.compute_b", no_solve)
        argv = ("table", "--k-min", "2", "--k-max", str(k_max), "--order", str(order))
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "too large" in err
        with pytest.raises(CliError, match="too large"):
            render_table(2, k_max, order)

    @pytest.mark.parametrize(("k_max", "order"), [(12, ORDER_CEILING), (1001, 60)])
    def test_costly_table_within_ceiling_accepted(self, monkeypatch, k_max, order):
        # the check passes and the solve starts, which is as far as a test runs
        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr("kgonal.cli.compute_b", started)
        with pytest.raises(Started):
            render_table(2, k_max, order)

    def test_widest_k_range_accepted(self):
        rows = table_text(2, 1 + K_RANGE_CEILING, 0).splitlines()
        assert len(rows[0].split(",")) == 1 + K_RANGE_CEILING
        assert rows[1] == "0" + ",1" * K_RANGE_CEILING

    def test_deep_table_digest(self):
        # sha256 of the table to n = 100, recorded before the counting
        # layers moved from Fraction series to integer lists, and to
        # n = 250, the table perfbench's table-deep workload checks; they
        # pin every count past the golden table's n <= 20
        for order, want in (
            (100, "c273f8dcf03d557299da56aa129512220717581a45070c494f2b696e05998a8f"),
            (250, "dfc6183c24f50cb367a5cd33632f3eca7ea254c264fd71776f265b14368eef7d"),
        ):
            digest = hashlib.sha256(table_text(2, 12, order).encode()).hexdigest()
            assert digest == want, f"order {order}"

    def test_single_cell_k12(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--k", "12", "--family", "unlabelled", "--n", "6"
        )
        assert json.loads(out)["counts"] == [{"n": 6, "value": "15189"}]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_is_the_joined_pieces(self, monkeypatch, fmt):
        # the command writes each CSV row as it is made, so no one write
        # holds the whole table; JSON is one document, written once
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)
                return len(text)

        monkeypatch.setattr(sys, "stdout", Recorder())
        argv = ["table", "--k-min", "2", "--k-max", "6", "--order", "30", "--format", fmt]
        assert main(argv) == 0
        want = table_text(2, 6, 30, fmt)
        assert "".join(writes) == want
        if fmt == "csv":
            assert len(writes) == 1 + 31
            assert max(map(len, writes)) < len(want)
        else:
            assert writes == [want]


def _table_cost(k_min, k_max, order):
    # the work units of TABLE_COST_CEILING and TABLE_FORK_WORK
    return order**3 * sum(math.log10(math.e * (k - 1)) for k in range(k_min, k_max + 1))


def _refuse_affinity(pid, mask):
    raise OSError(errno.EPERM, "sched_setaffinity refused")


class TestSplitTable:
    """render_table with about half of its columns in a forked child.

    The child takes the costliest columns, k = 9..12 of k = 2..12.  After
    every path, no child is left unreaped and the affinity mask is the
    one from before the call.
    """

    ARGV = ("table", "--k-min", "2", "--k-max", "12", "--order", "40")

    @pytest.fixture
    def split(self, monkeypatch):
        """The fork counter of a process whose every table splits, and its mask."""
        two_cpus(monkeypatch)
        monkeypatch.setattr("kgonal.cli.TABLE_FORK_WORK", 0)
        return spy_forks(monkeypatch), os.sched_getaffinity(0)

    def _one_process(self, monkeypatch, run):
        monkeypatch.setattr("kgonal.cli.TABLE_FORK_WORK", math.inf)
        try:
            return run()
        finally:
            monkeypatch.setattr("kgonal.cli.TABLE_FORK_WORK", 0)

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_is_byte_identical(self, capsys, monkeypatch, tmp_path, split, fmt, cached):
        forks, mask = split
        argv = self.ARGV + ("--format", fmt)
        want = self._one_process(monkeypatch, lambda: run_cli(capsys, *argv))
        assert want[0] == 0
        assert forks == []
        if cached:
            # a cold cache, then a warm one
            argv = ("--cache-dir", str(tmp_path)) + argv
        runs = [run_cli(capsys, *argv) for _ in range(2)]
        assert_left_clean(mask)
        assert runs == [want, want]
        assert forks == [1, 1]

    def test_cache_holds_one_complete_file_per_column(self, monkeypatch, tmp_path, split):
        forks, mask = split
        first = table_text(2, 12, 40, "csv", tmp_path)
        assert_left_clean(mask)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"b_k{k}.json" for k in range(2, 13)
        )
        for k in range(2, 13):
            assert json.loads((tmp_path / f"b_k{k}.json").read_text())["order"] == 40
            assert cache.load_b(tmp_path, k, 40) is not None, k

        # the second run hits every file, in both halves
        def no_solve(*args):
            raise AssertionError("a column missed the cache")

        monkeypatch.setattr(kernels, "solve_b", no_solve)
        assert table_text(2, 12, 40, "csv", tmp_path) == first
        assert_left_clean(mask)
        assert forks == [1, 1]

    def test_child_check_failure_reaches_the_caller(self, capsys, monkeypatch, tmp_path, split):
        # a corrupt cached b for k = 12, a column of the child, fails an
        # exact division there as in one process
        forks, mask = split
        _write_corrupt_cache(tmp_path, 12, 40)
        with pytest.raises(IntegrityError) as one_process:
            self._one_process(monkeypatch, lambda: render_table(2, 12, 40, "csv", tmp_path))
        with pytest.raises(IntegrityError) as halves:
            render_table(2, 12, 40, "csv", tmp_path)
        assert_left_clean(mask)
        assert type(halves.value) is type(one_process.value) is kernels.InexactDivisionError
        assert str(halves.value) == str(one_process.value)
        assert forks == [1]
        code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path), *self.ARGV)
        assert_left_clean(mask)
        assert (code, out, err) == (1, "", f"error: {one_process.value}\n")
        assert forks == [1, 1]

    def test_parent_failure_kills_the_child(self, monkeypatch, split):
        # the parent's first column fails while the child still sleeps;
        # the child is killed, not waited for
        forks, mask = split
        parent = os.getpid()

        def column(table):
            if os.getpid() != parent:
                time.sleep(60)
            raise IntegrityError(f"column k={table.params.k} failed")

        monkeypatch.setattr("kgonal.cli.unlabelled_series", column)
        start = time.monotonic()
        with pytest.raises(IntegrityError, match="column k=2 failed"):
            render_table(2, 12, 40)
        assert time.monotonic() - start < 30
        assert_left_clean(mask)
        assert forks == [1]

    def test_dead_child_is_an_error_line(self, capsys, monkeypatch, split):
        # a child killed, e.g. for lack of memory, ends the command with
        # one error line, not a traceback
        forks, mask = split
        parent = os.getpid()
        column = kgonal.cli.unlabelled_series

        def dies_in_child(table):
            if os.getpid() != parent:
                os._exit(3)
            return column(table)

        monkeypatch.setattr("kgonal.cli.unlabelled_series", dies_in_child)
        code, out, err = run_cli(capsys, *self.ARGV)
        assert_left_clean(mask)
        assert (code, out) == (1, "")
        assert err == "error: the forked half of the table ended without its result\n"
        assert forks == [1]

    def test_output_is_the_same_when_pinning_fails(self, monkeypatch, split):
        forks, mask = split
        want = self._one_process(monkeypatch, lambda: table_text(2, 12, 40))
        monkeypatch.setattr(os, "sched_setaffinity", _refuse_affinity)
        assert table_text(2, 12, 40) == want
        assert_left_clean(mask)
        assert forks == [1]

    @pytest.mark.parametrize("pinning", ["pinned", "refused"])
    def test_no_solve_forks_inside_a_split_table(self, monkeypatch, split, pinning):
        # every solve of k >= 3 would fork by FORK_WORK, k = 12 in the
        # child's half too; neither half forks again, whether pinned or not
        forks, mask = split
        monkeypatch.setattr(kernels, "FORK_WORK", 0)
        if pinning == "refused":
            monkeypatch.setattr(os, "sched_setaffinity", _refuse_affinity)
        want = self._one_process(monkeypatch, lambda: table_text(2, 12, 40))
        assert len(forks) == 10
        forks.clear()
        assert table_text(2, 12, 40) == want
        assert_left_clean(mask)
        assert forks == [1]

    def test_fork_threshold(self, monkeypatch):
        # perfbench table-deep (order 250, 1.9e8 units) splits; verify's
        # golden table (order 20, 9.9e4 units) stays in one process
        assert _table_cost(2, 12, 250) >= TABLE_FORK_WORK
        assert _table_cost(2, 12, 20) < TABLE_FORK_WORK
        two_cpus(monkeypatch)
        forks = spy_forks(monkeypatch)
        assert table_text(2, 12, 20) == packaged_golden_table()
        assert forks == []
        # nor does a single column, whatever its size: its solve forks
        # by FORK_WORK instead
        monkeypatch.setattr("kgonal.cli.TABLE_FORK_WORK", 0)
        render_table(5, 5, 20)
        assert forks == []


HUGE = str(10**400)


class TestHugeInputs:
    # a k or p of 309 digits or more overflowed the float e (k - 1) of the
    # work estimate, with a traceback; every command that solves b is
    # held to the table's cost ceiling

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--k", HUGE, "--family", "unlabelled", "--order", "3"),
            ("count", "--k", HUGE, "--family", "b", "--n", "0"),
            ("table", "--k-min", HUGE, "--k-max", HUGE),
        ],
    )
    def test_huge_k_is_counted(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert err == ""
        assert out

    @pytest.mark.parametrize(
        "argv",
        [
            ("constants", "--p", HUGE),
            ("count", "--k", str(10**50), "--family", "b", "--order", "1600"),
            ("count", "--k", str(10**50), "--family", "unlabelled", "--n", "1600"),
            ("series", "--k", str(10**50), "--family", "unlabelled-oriented", "--order", "1600"),
        ],
    )
    def test_costly_solve_rejected_before_solving(self, capsys, monkeypatch, argv):
        def no_solve(*args):
            raise AssertionError("b solved past the cost ceiling")

        monkeypatch.setattr("kgonal.cli.compute_b", no_solve)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: b to order ")
        assert err.count("\n") == 1
        assert "too large" in err


class TestConstants:
    def test_report_p2(self, capsys):
        code, out, _ = run_cli(
            capsys, "constants", "--p", "2", "--series-order", "200", "--no-empirical"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["p"] == 2
        assert doc["xi"] == pytest.approx(0.177099522303, abs=1e-9)
        assert doc["beta"] == pytest.approx(5.646542616233, abs=1e-9)
        assert doc["alpha"] == pytest.approx(0.349261381742, abs=1e-6)
        assert doc["alpha_bar_empirical"] is None
        for key in ("alpha_bar", "alpha_bar_product_form"):
            assert key in doc

    def test_empirical_candidate(self, capsys):
        code, out, _ = run_cli(
            capsys, "constants", "--p", "2", "--series-order", "200"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha_bar_empirical"] == pytest.approx(0.189630833046, abs=1e-4)

    def test_empirical_candidate_p3(self, capsys):
        # pins the probe exponent: the second amplitude sits in front of
        # n^{-5/2} at every p, not just p = 2
        code, out, _ = run_cli(
            capsys, "constants", "--p", "3", "--series-order", "200"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha_bar_empirical"] == pytest.approx(
            doc["alpha_bar_product_form"], rel=1e-3
        )

    @pytest.mark.parametrize("p", [10**32, 10**100 + 1], ids=["1e32", "1e100+1"])
    def test_large_p_stays_in_its_bracket(self, capsys, p):
        # xi lies within about xi/p of both ends of its bracket, which 30
        # digits cannot resolve at p = 10^32: "xi escaped its bracket"
        code, out, err = run_cli(
            capsys, "constants", "--p", str(p), "--no-empirical", "--series-order", "60"
        )
        assert (code, err) == (0, "")
        want = xi_from_expansion(p, [universal_c(m).value(30) for m in (1, 2, 3)])
        assert json.loads(out)["xi"] == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_p(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--p", "0")
        assert code == 1
        assert "p must be" in err

    def test_rejects_negative_series_order(self, capsys):
        code, _, err = run_cli(capsys, "constants", "--p", "2", "--series-order", "-1")
        assert code == 1
        assert "series order must be" in err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "-0.0", "inf"])
    def test_rejects_bad_tol(self, capsys, tol):
        # the first four used to run the full iteration cap before failing;
        # inf stopped after one step and printed "tolerance": Infinity,
        # which is not JSON
        code, out, err = run_cli(
            capsys, "constants", "--p", "2", "--series-order", "100", "--tol", tol
        )
        assert code == 1
        assert out == ""
        assert "tol must be > 0 and finite" in err


class TestAmplitudeProbe:
    def test_probe_builds_only_short_powers(self, monkeypatch):
        # the probe reads a_o at n = 1000, 500 and 250 from the b^11 the
        # solve keeps; building b^12, or any power past index 499, means
        # the full oriented series is back.  Of the rotation terms, only
        # 999 = 3^3 37 and 249 = 3 83 have a divisor d > 1 of k = 12, so
        # the one power built is b^4, to 999 / 3; the full series would
        # also build b^6, b^3 and b^2
        calls = []
        online = kernels._online

        def recording_online(out, sums, scale, what, ready=None):
            # every power b^j of a table is one _online pass named "b^j";
            # the solve's own passes have other names
            if what.startswith("b^"):
                calls.append((scale, len(out) - 1))
            online(out, sums, scale, what, ready)

        monkeypatch.setattr(kernels, "_online", recording_online)
        doc = constants_report(11, 500, 1e-13, True)
        assert doc["alpha_bar_empirical"] == pytest.approx(
            doc["alpha_bar_product_form"], rel=1e-4
        )
        assert calls, "no power went through the power route"
        assert all(e != 12 for e, _ in calls), calls
        assert all(order <= (1000 - 1) // 2 for _, order in calls), calls
        assert calls == [(4, 333)]

    @pytest.mark.parametrize("p", [2, 11])
    def test_probe_table_serves_the_report(self, p):
        # with the probe, the xi solve and the report read b cut from the
        # order-1000 solve; without it, b solved to the series order
        probed = constants_report(p, 300, 1e-13, True)
        plain = constants_report(p, 300, 1e-13, False)
        assert probed["alpha_bar_empirical"] is not None
        assert plain["alpha_bar_empirical"] is None
        del probed["alpha_bar_empirical"], plain["alpha_bar_empirical"]
        assert probed == plain

    @staticmethod
    def _tables_alive_at_xi_solve(monkeypatch, with_empirical):
        # the BTables alive when solve_xi starts, other than those that
        # were alive before the report began
        before = [o for o in gc.get_objects() if isinstance(o, BTable)]
        seen = []

        def spying_solve(*args, **kwargs):
            seen.extend(
                o for o in gc.get_objects()
                if isinstance(o, BTable) and not any(o is t for t in before)
            )
            return solve_xi(*args, **kwargs)

        monkeypatch.setattr("kgonal.cli.solve_xi", spying_solve)
        monkeypatch.setattr("kgonal.cli.EMPIRICAL_ORDER", 40)
        constants_report(3, 30, 1e-13, with_empirical)
        return seen

    def test_no_table_alive_when_mpmath_loads(self, monkeypatch):
        # without the probe only b is read, so no b^{k-1} is kept into
        # the xi solve, which loads mpmath
        assert self._tables_alive_at_xi_solve(monkeypatch, False) == []

    def test_probe_keeps_no_table(self, monkeypatch):
        # with the probe too: its three counts are taken before the xi
        # solve, and only they and b outlive the table
        assert self._tables_alive_at_xi_solve(monkeypatch, True) == []

    def test_probe_counts_before_the_xi_solve(self, monkeypatch):
        # the exact stage ends, largest count first, before the analytic
        # stage starts
        events = []
        count = kgonal.cli.oriented_count

        def spying_count(table, n):
            events.append(("count", table.order, n))
            return count(table, n)

        def spying_solve(*args, **kwargs):
            events.append(("solve_xi",))
            return solve_xi(*args, **kwargs)

        monkeypatch.setattr("kgonal.cli.oriented_count", spying_count)
        monkeypatch.setattr("kgonal.cli.solve_xi", spying_solve)
        monkeypatch.setattr("kgonal.cli.EMPIRICAL_ORDER", 40)
        doc = constants_report(3, 30, 1e-13, True)
        assert events == [
            ("count", 40, 40), ("count", 40, 20), ("count", 40, 10), ("solve_xi",)
        ]
        assert doc["alpha_bar_empirical"] is not None


class TestOrderCeiling:
    # past the ceiling a command fails at once instead of running for
    # minutes

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--k", "12", "--family", "b", "--order"),
            ("count", "--k", "3", "--family", "unlabelled", "--n"),
            ("series", "--k", "4", "--family", "unlabelled-oriented", "--order"),
            ("table", "--order"),
            ("constants", "--p", "11", "--series-order"),
        ],
    )
    def test_rejects_order_above_ceiling(self, capsys, monkeypatch, argv):
        def no_solve(*args):
            raise AssertionError("b solved past the ceiling")

        monkeypatch.setattr("kgonal.cli.compute_b", no_solve)
        code, out, err = run_cli(capsys, *argv, str(ORDER_CEILING + 1))
        assert code == 1
        assert out == ""
        # a single index is named as the user gave it
        what = "error: n" if argv[-1] == "--n" else "order"
        assert f"{what} must be <= {ORDER_CEILING}" in err

    def test_api_rejects_order_above_ceiling(self):
        with pytest.raises(CliError, match="order must be <="):
            family_counts(3, "b", ORDER_CEILING + 1)
        with pytest.raises(CliError, match="order must be <="):
            render_table(2, 3, ORDER_CEILING + 1)

    def test_labelled_families_have_no_ceiling(self):
        # labelled counts are closed forms and never solve b, so the order
        # ceiling does not bind them; LABELLED_COST_CEILING does
        assert len(family_counts(3, "labelled", ORDER_CEILING + 1)) == ORDER_CEILING + 2
        with pytest.raises(CliError, match="too large to print"):
            family_counts(3, "labelled", 10000)

    @staticmethod
    def _patch_labelled_forms(monkeypatch, form):
        for name in ("labelled_rooted", "labelled_oriented", "labelled_unoriented"):
            monkeypatch.setattr(f"kgonal.cli.{name}", form)

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--k", "3", "--family", "labelled", "--n", "1000000"),
            ("count", "--k", "3", "--family", "labelled", "--n", str(10**18)),
            ("count", "--k", "3", "--family", "labelled-rooted", "--order", "10000"),
            ("series", "--k", "4", "--family", "labelled-oriented", "--order", "10000"),
        ],
    )
    def test_rejects_costly_labelled_counts(self, capsys, monkeypatch, argv):
        def no_form(*args):
            raise AssertionError("closed form evaluated past the ceiling")

        self._patch_labelled_forms(monkeypatch, no_form)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "too large to print" in err

    @pytest.mark.parametrize(("flag", "size"), [("--n", "4000"), ("--n", "100000"), ("--order", "3000")])
    def test_costly_labelled_within_ceiling_accepted(self, capsys, monkeypatch, flag, size):
        # measured at 5.3 s (--n 100000) and 2.7 s (--order 3000); the
        # patched form skips that work
        self._patch_labelled_forms(monkeypatch, lambda params, n: n)
        code, out, _ = run_cli(capsys, "count", "--k", "3", "--family", "labelled-rooted", flag, size)
        assert code == 0
        assert json.loads(out)["counts"][-1] == {"n": int(size), "value": size}


class TestUniversal:
    def test_decimals(self, capsys):
        code, out, _ = run_cli(capsys, "universal", "--m-max", "5")
        assert code == 0
        doc = json.loads(out)
        values = [entry["value"] for entry in doc["constants"]]
        assert values[0].startswith("0.36787944117144232160"[:20])
        assert values[1].startswith("-0.02489353418393197149")
        assert values[4].startswith("-0.000322126221836099322")
        forms = [entry["closed_form"] for entry in doc["constants"]]
        assert forms[1] == "-1/2*exp(-3)"
        assert forms[2] == "1/8*exp(-5) - 1/3*exp(-4)"

    def test_partial_sum(self, capsys):
        code, out, _ = run_cli(capsys, "universal", "--m-max", "10", "--p", "3")
        doc = json.loads(out)
        assert doc["xi_partial_sum"] == pytest.approx(0.119674100436, abs=1e-6)

    def test_evaluates_each_constant_once(self, capsys, monkeypatch):
        # the printed values also feed xi_partial_sum
        calls = []
        value = UniversalConstant.value
        monkeypatch.setattr(
            UniversalConstant, "value", lambda c, *args: calls.append(c.m) or value(c, *args)
        )
        code, _, _ = run_cli(capsys, "universal", "--m-max", "12", "--p", "3")
        assert code == 0
        assert calls == list(range(1, 13))

    def test_rejects_bad_p_before_computing(self, capsys, monkeypatch):
        # --p is checked before c_1..c_{m-max}, which take seconds to compute
        def no_c(*args):
            raise AssertionError("universal_c called before --p was checked")

        monkeypatch.setattr("kgonal.cli.universal_c", no_c)
        code, out, err = run_cli(capsys, "universal", "--m-max", "34", "--p", "0")
        assert code == 1
        assert out == ""
        assert "p must be >= 1" in err

    def test_rejects_m_max_above_ceiling(self, capsys):
        # the partition sum behind c_m grows like p(m-1); past the ceiling
        # the command would run for minutes to hours, so it fails at once
        code, out, err = run_cli(
            capsys, "universal", "--m-max", str(M_MAX_CEILING + 1), "--p", "3"
        )
        assert code == 1
        assert out == ""
        assert f"m-max must be <= {M_MAX_CEILING}" in err
        code, _, err = run_cli(capsys, "universal", "--m-max", "90")
        assert code == 1
        assert "m-max" in err

    def test_benchmark_digest(self, capsys):
        # sha256 of the constants perfbench's constants-sweep workload
        # prints, recorded when the partition sum moved from one Fraction
        # per partition to integers
        code, out, _ = run_cli(capsys, "universal", "--m-max", "30", "--p", "11")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "15e4a0387f8ecaf90c678f9613cbc91a1d45b45153dc87bc1c44e41f5c517837"


class TestVerify:
    """verify, with the exhaustive oracle in a forked child where it runs.

    After every path, no child is left unreaped and the affinity mask is
    the one from before the run.
    """

    def test_quick_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--level", "quick")
        assert code == 0
        assert out.endswith("all checks passed\n")
        assert out.count("PASS") == 5

    def test_quick_with_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--level", "quick", "--oracle")
        assert code == 0
        assert "PASS exhaustive-oracle" in out

    @pytest.fixture
    def forking(self, monkeypatch):
        """The fork counter of a process that may fork, and its mask."""
        two_cpus(monkeypatch)
        return spy_forks(monkeypatch), os.sched_getaffinity(0)

    def _one_process(self, capsys, monkeypatch, *argv):
        with monkeypatch.context() as patch:
            patch.setattr("kgonal.forked.may_fork", lambda: False)
            return run_cli(capsys, *argv)

    @pytest.mark.parametrize(
        "argv", [("--level", "full"), ("--level", "quick", "--oracle")], ids=["full", "oracle"]
    )
    def test_output_is_byte_identical(self, capsys, monkeypatch, forking, argv):
        forks, mask = forking
        want = self._one_process(capsys, monkeypatch, "verify", *argv)
        assert want[0] == 0
        assert want[1].endswith("PASS exhaustive-oracle\nall checks passed\n")
        assert forks == []
        assert run_cli(capsys, "verify", *argv) == want
        assert_left_clean(mask)
        assert forks == [1]

    def test_oracle_builds_one_enumerator_per_k(self, capsys, monkeypatch):
        # every n of one k is counted by one enumerator of the largest n
        built = []

        class Recorded(oracle._Enumerator):
            def __init__(self, k, n):
                super().__init__(k, n)
                built.append((k, n))

        monkeypatch.setattr(oracle, "_Enumerator", Recorded)
        code, _, _ = self._one_process(capsys, monkeypatch, "verify", "--level", "full")
        assert code == 0
        assert built == [(3, 6), (4, 6), (5, 6), (6, 6)]

    def test_quick_level_makes_no_fork(self, capsys, forking):
        forks, mask = forking
        code, out, _ = run_cli(capsys, "verify", "--level", "quick")
        assert code == 0
        assert "exhaustive-oracle" not in out
        assert_left_clean(mask)
        assert forks == []

    def test_oracle_failure_in_the_child(self, capsys, monkeypatch, tmp_path, forking):
        # a cached b_5 of k = 3 one too large fails the oracle at k=3 n=5,
        # in the child as in one process
        forks, mask = forking
        _write_corrupt_cache(tmp_path)
        argv = ("--cache-dir", str(tmp_path), "verify", "--level", "full")
        want = self._one_process(capsys, monkeypatch, *argv)
        assert want[0] == 1
        assert "FAIL exhaustive-oracle: k=3 n=5\n" in want[1]
        assert run_cli(capsys, *argv) == want
        assert_left_clean(mask)
        assert forks == [1]

    def test_dead_child_is_an_error_line(self, capsys, monkeypatch, forking):
        # a child killed, e.g. for lack of memory, ends the command with
        # one error line, after the lines of the parent's checks
        forks, mask = forking
        parent = os.getpid()
        count = kgonal.cli.count_structures

        def dies_in_child(params, n):
            if os.getpid() != parent:
                os._exit(3)
            return count(params, n)

        monkeypatch.setattr("kgonal.cli.count_structures", dies_in_child)
        code, out, err = run_cli(capsys, "verify", "--level", "full")
        assert_left_clean(mask)
        assert code == 1
        assert err == "error: the exhaustive oracle ended without its result\n"
        assert "all checks passed" not in out
        assert out.count("\n") == out.count("PASS") == 5
        assert forks == [1]

    def test_cache_written_from_both_sides(self, capsys, monkeypatch, tmp_path, forking):
        # parent and child both store b_k3..b_k6, at different orders; a
        # shorter table may win the rename, which is a miss, not a wrong
        # table
        forks, mask = forking
        want = self._one_process(capsys, monkeypatch, "verify", "--level", "full")
        argv = ("--cache-dir", str(tmp_path), "verify", "--level", "full")
        assert [run_cli(capsys, *argv) for _ in range(2)] == [want, want]
        assert_left_clean(mask)
        assert forks == [1, 1]
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == sorted(f"b_k{k}.json" for k in range(2, 13))
        for k in range(2, 13):
            order = json.loads((tmp_path / f"b_k{k}.json").read_text())["order"]
            assert cache.load_b(tmp_path, k, order) is not None, k


class TestCache:
    def test_writes_and_reuses(self, capsys, tmp_path):
        code, first, _ = run_cli(
            capsys, "--cache-dir", str(tmp_path),
            "count", "--k", "4", "--family", "b", "--order", "30",
        )
        assert code == 0
        assert (tmp_path / "b_k4.json").exists()
        code, second, _ = run_cli(
            capsys, "--cache-dir", str(tmp_path),
            "count", "--k", "4", "--family", "b", "--order", "30",
        )
        assert second == first

    def test_corrupt_cache_recomputed(self, capsys, tmp_path):
        (tmp_path / "b_k4.json").write_text("{not json at all")
        code, out, _ = run_cli(
            capsys, "--cache-dir", str(tmp_path),
            "count", "--k", "4", "--family", "b", "--order", "4",
        )
        assert code == 0
        assert [e["value"] for e in json.loads(out)["counts"]] == [
            "1", "1", "4", "19", "107",
        ]
        # the bad entry was replaced by a good one
        stored = json.loads((tmp_path / "b_k4.json").read_text())
        assert stored["coefficients"][:5] == ["1", "1", "4", "19", "107"]

    def test_deeply_nested_file_is_a_miss(self, capsys, tmp_path):
        # json gives up on this nesting with RecursionError, which is a
        # miss like any other unreadable file, and store_b replaces it
        argv = ("count", "--k", "5", "--family", "b", "--order", "5")
        want = run_cli(capsys, *argv)
        assert want[0] == 0
        (tmp_path / "b_k5.json").write_text("[" * 200000 + "]" * 200000)
        assert run_cli(capsys, "--cache-dir", str(tmp_path), *argv) == want
        assert cache.load_b(tmp_path, 5, 5) is not None

    def test_altered_value_is_a_miss(self, capsys, tmp_path):
        # a well-formed file whose b_5 was changed no longer matches its
        # hash, so the count is recomputed instead of served
        run_cli(capsys, "--cache-dir", str(tmp_path), "count", "--k", "3", "--family", "b", "--n", "5")
        path = tmp_path / "b_k3.json"
        doc = json.loads(path.read_text())
        assert doc["coefficients"][5] == "160"
        doc["coefficients"][5] = "161"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "--cache-dir", str(tmp_path), "count", "--k", "3", "--family", "b", "--n", "5"
        )
        assert code == 0
        assert json.loads(out)["counts"] == [{"n": 5, "value": "160"}]
        assert json.loads(path.read_text())["coefficients"][5] == "160"

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--order", "250"),
            ("count", "--k", "12", "--family", "unlabelled", "--order", "300"),
        ],
        ids=["table", "count"],
    )
    def test_cold_warm_and_no_cache_print_the_same(self, capsys, tmp_path, argv):
        without = run_cli(capsys, *argv)
        assert without[0] == 0
        cached = [run_cli(capsys, "--cache-dir", str(tmp_path), *argv) for _ in range(2)]
        assert cached == [without, without]

    def test_warm_unlabelled_count_solves_nothing(self, capsys, tmp_path, monkeypatch):
        # the cache serves b^{k-1} beside b, the power every other one is
        # built from, so a hit needs no solve
        argv = ("--cache-dir", str(tmp_path), "count", "--k", "12", "--family", "unlabelled",
                "--order", "60")
        cold = run_cli(capsys, *argv)

        def no_solve(*args):
            raise AssertionError("a warm count solved b")

        monkeypatch.setattr(kernels, "solve_b", no_solve)
        assert run_cli(capsys, *argv) == cold

    def test_env_variable(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KGONAL_CACHE", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "count", "--k", "5", "--family", "b", "--order", "10"
        )
        assert code == 0
        assert (tmp_path / "b_k5.json").exists()


class TestDeterminism:
    def test_identical_invocations(self, capsys):
        runs = [
            run_cli(capsys, "count", "--k", "6", "--family", "unlabelled", "--order", "12")[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        runs = [
            run_cli(capsys, "constants", "--p", "3", "--series-order", "150",
                    "--no-empirical")[1]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_cache_does_not_change_output(self, capsys, tmp_path):
        without = run_cli(
            capsys, "count", "--k", "4", "--family", "unlabelled", "--order", "15"
        )[1]
        with_cache = run_cli(
            capsys, "--cache-dir", str(tmp_path),
            "count", "--k", "4", "--family", "unlabelled", "--order", "15",
        )[1]
        assert with_cache == without


class TestLongIntegers:
    # CPython refuses int <-> str conversions past 4300 digits by default;
    # counts are exact, so the output must not stop there
    BIG = 10**4400 + 12345

    def test_count_document(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--k", "3", "--family", "labelled-rooted", "--n", "2000"
        )
        assert code == 0, err
        value = json.loads(out)["counts"][0]["value"]
        assert len(value) > 4300
        assert sys.get_int_max_str_digits() == DEFAULT_LIMIT

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_render_table(self, monkeypatch, fmt):
        monkeypatch.setattr(
            "kgonal.cli.unlabelled_series",
            lambda table: [self.BIG + n for n in range(table.order + 1)],
        )
        pieces = []
        for piece in render_table(3, 4, 2, fmt):
            # the CSV rows are made as they are read, each under a
            # lifted limit that is restored before the reader gets it
            assert sys.get_int_max_str_digits() == DEFAULT_LIMIT
            pieces.append(piece)
        out = "".join(pieces)
        assert sys.get_int_max_str_digits() == DEFAULT_LIMIT
        with long_decimals():
            want = [str(self.BIG + n) for n in range(3)]
        if fmt == "csv":
            assert out.splitlines()[3] == f"2,{want[2]},{want[2]}"
        else:
            assert json.loads(out)["rows"][1]["values"] == [want[1]] * 2


def _run_python(*args, timeout=None):
    # the child must import the same kgonal as this test, installed or not
    src = str(pathlib.Path(kgonal.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_module_entry_point():
    proc = _run_python("-m", "kgonal", "count", "--k", "3", "--family", "b", "--n", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["counts"] == [{"n": 3, "value": "10"}]


def _run_optimized(*argv):
    # python -O strips assert statements, so every check must be an explicit raise
    return _run_python("-O", "-m", "kgonal", *argv)


def test_optimized_table_matches_golden():
    proc = _run_optimized("table")
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN.read_text()


def _write_corrupt_cache(cache_dir, k=3, order=20, corrupt="b"):
    # a cache whose b_5, or with corrupt="power" whose b^{k-1}_5, is off
    # by one, by default long enough to serve every k = 3 table the quick
    # verify level asks for; it is written through store_b, so its hash
    # matches and only the checks downstream of the cache can catch it
    from kgonal.cache import store_b
    from kgonal.kernels import solve_b

    c = []
    b = solve_b(k - 1, order, c)
    {"b": b, "power": c}[corrupt][5] += 1
    store_b(cache_dir, k, b, c)


def test_optimized_verify_catches_corrupt_cache(tmp_path):
    _write_corrupt_cache(tmp_path)
    proc = _run_optimized("--cache-dir", str(tmp_path), "verify")
    assert proc.returncode == 1
    for name in ("kernel-vs-tuple-recurrence", "burnside-vs-kernel", "golden-table"):
        assert f"FAIL {name}:" in proc.stdout, proc.stdout
        assert f"PASS {name}" not in proc.stdout


def _corrupt_unlabelled_count(cache_dir, corrupt):
    _write_corrupt_cache(cache_dir, corrupt=corrupt)
    proc = _run_python(
        "-m", "kgonal", "--cache-dir", str(cache_dir),
        "count", "--k", "3", "--family", "unlabelled", "--order", "6",
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stderr


def test_integrity_error_is_reported_as_an_error(tmp_path):
    # the corrupt b_5 leaves a remainder in an exact division of the
    # unlabelled count; that must surface as an error line, not a traceback
    _corrupt_unlabelled_count(tmp_path, "b")


def test_corrupt_cached_power_is_reported_as_an_error(tmp_path):
    # the cache serves b^{k-1} as stored: b^2_5 one too large, under a
    # matching hash, adds 2 to 3 a_{o,6} through the product b b^2
    err = _corrupt_unlabelled_count(tmp_path, "power")
    assert err.startswith("error: oriented count at n=6: remainder"), err


# Runs kgonal.cli.main on its arguments, if any, in a fresh interpreter and
# writes its exit code and the loaded modules of interest as the last line
# of stderr; the command's own output goes to stdout.
_MODULES_SCRIPT = """
import json, sys
import kgonal.cli
code = kgonal.cli.main(sys.argv[1:]) if sys.argv[1:] else None
roots = ("mpmath", "dataclasses", "inspect", "kgonal")
loaded = sorted(m for m in sys.modules if m.partition(".")[0] in roots)
sys.stderr.write("\\n" + json.dumps({"code": code, "loaded": loaded}) + "\\n")
"""

# every layer stays imported by cli: the per-layer tracing of perfbench
# wraps only the modules that `import kgonal.cli` loads
LAYERS = (
    "kgonal.asymptotics",
    "kgonal.universal",
    "kgonal.oracle",
    "kgonal.odd",
    "kgonal.labelled",
)


def _loaded_modules(*argv):
    proc = _run_python("-c", _MODULES_SCRIPT, *argv)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stderr.splitlines()[-1])
    return doc["code"], set(doc["loaded"])


class TestStartUp:
    # mpmath and dataclasses (which pulls in inspect) cost about 45 ms and
    # 5 MB at start-up; only constants and universal compute with mpmath
    UNUSED = {"mpmath", "dataclasses", "inspect"}

    @pytest.mark.parametrize("argv", [(), ("table", "--order", "3")], ids=["import", "table"])
    def test_exact_commands_load_no_mpmath(self, argv):
        code, loaded = _loaded_modules(*argv)
        assert code == (0 if argv else None)
        assert not loaded & self.UNUSED, sorted(loaded)
        assert set(LAYERS) <= loaded

    def test_count_loads_no_mpmath_on_cache_miss_or_hit(self, tmp_path):
        argv = ("--cache-dir", str(tmp_path), "count", "--k", "5", "--family", "b", "--order", "20")
        for _ in range(2):
            code, loaded = _loaded_modules(*argv)
            assert code == 0
            assert (tmp_path / "b_k5.json").exists()
            assert not loaded & self.UNUSED, sorted(loaded)
            assert set(LAYERS) <= loaded

    def test_constants_loads_mpmath_when_it_runs(self):
        code, loaded = _loaded_modules("constants", "--p", "2")
        assert code == 0
        assert "mpmath" in loaded
