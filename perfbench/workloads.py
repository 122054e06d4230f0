"""The four benchmark workloads and the checks applied to every output.

A workload is a list of CLI invocations run one after another, each in a
fresh interpreter.  Each invocation carries the check its output must
pass; a check raises CheckError, and its return value (a dict) is kept
in the run record as information that does not gate, such as the
alpha_bar deviation from the reference table.

Two scales exist: "full" is what the benchmark measures, "smoke" runs
the same commands at tiny sizes so the harness itself can be tested in
seconds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "src" / "kgonal" / "data" / "unlabelled_golden.csv"
REFERENCE = ROOT / "tests" / "data" / "reference_constants.csv"
BFILES = ROOT / "tests" / "data" / "bfiles"

# k -> (fixture, index offset); the same mapping the acceptance tests use
BFILE_FIXTURES = {2: ("A000081", 1), 3: ("A005750", 0), 4: ("A052751", 0), 5: ("A052773", 0), 6: ("A052781", 0)}

# sha256 of the full `table --k-min 2 --k-max 12 --order N` stdout, by N
TABLE_SHA256 = {
    250: "dfc6183c24f50cb367a5cd33632f3eca7ea254c264fd71776f265b14368eef7d",
    125: "f1092ccb25f742cf1b92cb2d99fa25ec8c6f961748b88a83e25451c1fb856c67",
    30: "a27c91502e43572125ae9b4ba2c842e56a1ad6cdb28d192b7d472cd9ca199648",
    15: "c2f781e3062e7cbdce1c835e034239b407b00c337c4bbf2f76d0b3579e1f6a3e",
}

XI_BETA_TOL = 1e-9
ALPHA_TOL = 1e-6

WORKLOADS = ("table-deep", "amplitude-p11", "constants-sweep", "verify-full")

SIZES = {
    "full": {"table_order": 250, "amplitude": ("11", "500"), "sweep_ps": range(1, 12),
             "sweep_order": 500, "m_max": 30, "verify": "full"},
    "smoke": {"table_order": 30, "amplitude": ("1", "100"), "sweep_ps": (1, 2),
              "sweep_order": 50, "m_max": 5, "verify": "quick"},
}


class CheckError(Exception):
    """An output that differs from what the command must print."""


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Callable[[tuple[str, ...], int, bytes], dict]


def reference_constants() -> dict[int, dict[str, float]]:
    with open(REFERENCE, newline="") as fh:
        return {int(row["p"]): {k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)}


def read_bfile(name: str) -> dict[int, int]:
    """A sequence fixture; parsed here, not by kgonal, so no check runs the code it checks."""
    out = {}
    for line in (BFILES / f"{name}.txt").read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            n, value = line.split()
            out[int(n)] = int(value)
    return out


def _option(argv: tuple[str, ...], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _json(stdout: bytes) -> dict:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None


def check_table(argv, rc, stdout):
    """Rows n <= 20 equal the golden table; the whole output matches its recorded hash."""
    _require(rc == 0, f"exit status {rc}")
    order = int(_option(argv, "--order"))
    lines = stdout.decode().splitlines(keepends=True)
    golden = GOLDEN.read_text().splitlines(keepends=True)
    rows = min(order, 20) + 2
    _require(lines[:rows] == golden[:rows], "rows n <= 20 differ from the golden table")
    _require(len(lines) == order + 2, f"{len(lines)} lines for order {order}")
    want = TABLE_SHA256.get(order)
    got = hashlib.sha256(stdout).hexdigest()
    _require(want is None or got == want, f"stdout sha256 {got} != recorded {want}")
    return {}


def check_count(argv, rc, stdout):
    """The b prefix is well formed and equals the sequence fixture where one covers k."""
    _require(rc == 0, f"exit status {rc}")
    doc = _json(stdout)
    k, order = int(_option(argv, "--k")), int(_option(argv, "--order"))
    _require(doc.get("k") == k and doc.get("family") == "b", "wrong k or family")
    counts = doc.get("counts", [])
    _require([c["n"] for c in counts] == list(range(order + 1)), "indices are not 0..order")
    values = [int(c["value"]) for c in counts]
    _require(values[0] == 1 and all(v > 0 for v in values), "b must start at 1 and stay positive")
    if k in BFILE_FIXTURES:
        name, offset = BFILE_FIXTURES[k]
        fixture = read_bfile(name)
        for n, value in enumerate(values):
            if n + offset in fixture:
                _require(value == fixture[n + offset], f"b_{n} differs from {name}")
    return {}


def check_constants(argv, rc, stdout):
    """xi and beta within 1e-9, alpha within 1e-6 of the reference; alpha_bar only reported."""
    _require(rc == 0, f"exit status {rc}")
    doc = _json(stdout)
    p = int(_option(argv, "--p"))
    ref = reference_constants()[p]
    _require(doc.get("p") == p, "wrong p")
    _require(doc.get("series_order") == int(_option(argv, "--series-order", "500")), "wrong series order")
    for key, tol in (("xi", XI_BETA_TOL), ("beta", XI_BETA_TOL), ("alpha", ALPHA_TOL)):
        dev = abs(float(doc.get(key, "nan")) - ref[key])
        _require(dev <= tol, f"{key} off the reference by {dev:.3e} (tol {tol:g})")
    _require(("--no-empirical" in argv) == (doc.get("alpha_bar_empirical") is None),
             "empirical amplitude present exactly when requested")
    return {"p": p, "alpha_bar_dev": abs(doc["alpha_bar"] - ref["alpha_bar"])}


def check_universal(argv, rc, stdout):
    """One entry per m, and the partial sum near the reference xi up to its truncation."""
    _require(rc == 0, f"exit status {rc}")
    doc = _json(stdout)
    m_max, p = int(_option(argv, "--m-max")), int(_option(argv, "--p"))
    entries = doc.get("constants", [])
    _require(doc.get("m_max") == m_max and doc.get("p") == p, "wrong m_max or p")
    _require([e["m"] for e in entries] == list(range(1, m_max + 1)), "entries are not m = 1..m_max")
    _require(all(e["closed_form"] and float(e["value"]) == float(e["value"]) for e in entries),
             "empty closed form or non-numeric value")
    dev = abs(doc["xi_partial_sum"] - reference_constants()[p]["xi"])
    tol = max(XI_BETA_TOL, float(p) ** -(m_max + 1))
    _require(dev <= tol, f"xi partial sum off the reference by {dev:.3e} (tol {tol:.1e})")
    return {}


def check_verify(argv, rc, stdout):
    """Exit 0, every check passes, and the last line says so."""
    _require(rc == 0, f"exit status {rc}")
    lines = stdout.decode().splitlines()
    _require(bool(lines) and lines[-1] == "all checks passed", "last line is not 'all checks passed'")
    _require(all(line.startswith("PASS ") for line in lines[:-1]), "a verify check did not pass")
    return {}


def table_invocation(order: int) -> Invocation:
    argv = ("table", "--k-min", "2", "--k-max", "12", "--order", str(order))
    return Invocation(argv, check_table)


def invocations(name: str, seed: int | str, cache_dir: Path | None = None, scale: str = "full") -> list[Invocation]:
    """The commands of one repetition of a workload.

    Only constants-sweep depends on the seed, which permutes its p order;
    the other three are fixed jobs.  constants-sweep needs an empty
    cache_dir, fresh for each repetition.
    """
    size = SIZES[scale]
    if name == "table-deep":
        return [table_invocation(size["table_order"])]
    if name == "amplitude-p11":
        p, series_order = size["amplitude"]
        return [Invocation(("constants", "--p", p, "--series-order", series_order), check_constants)]
    if name == "constants-sweep":
        ps = list(size["sweep_ps"])
        random.Random(seed).shuffle(ps)
        order = str(size["sweep_order"])
        cache = ("--cache-dir", str(cache_dir))
        out = []
        for p in ps:
            out.append(Invocation(cache + ("constants", "--p", str(p), "--no-empirical",
                                           "--series-order", order), check_constants))
            out.append(Invocation(cache + ("count", "--k", str(p + 1), "--family", "b",
                                           "--order", order), check_count))
        out.append(Invocation(("universal", "--m-max", str(size["m_max"]), "--p", str(max(ps))),
                              check_universal))
        return out
    if name == "verify-full":
        return [Invocation(("verify", "--level", size["verify"]), check_verify)]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
