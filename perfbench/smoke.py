"""Smoke test of the benchmark harness, at tiny sizes.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Runs every workload at the "smoke" scale, untraced and traced, and
requires that each produces every metric BENCHMARK.json names with no
failed invocation.  Then feeds each output check a corrupted copy of a
real output and requires the check to fail, and runs the benchmark in a
directory that holds only BENCHMARK.json and perfbench/, where it must
exit nonzero without printing a result.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from workloads import SIZES, WORKLOADS, CheckError, Invocation, invocations

FAILURES: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        FAILURES.append(message)


def rejects(inv: Invocation, rc: int, stdout: bytes) -> bool:
    try:
        inv.check(inv.argv, rc, stdout)
    except CheckError:
        return True
    return False


def edit_json(stdout: bytes, edit) -> bytes:
    doc = json.loads(stdout)
    edit(doc)
    return (json.dumps(doc, indent=2) + "\n").encode()


def flip_digit(line: str) -> str:
    """The line with its last digit changed."""
    i = max(i for i, ch in enumerate(line) if ch.isdigit())
    return line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1:]


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(workload, 7, 0, traced, scale="smoke")["result"]
            names = [m["name"] for m in spec[key]]
            metrics = result["metrics"]
            expect(list(metrics) == names and all(isinstance(m["value"], (int, float)) for m in metrics.values()),
                   f"{workload} trace={int(traced)}: all {len(names)} {key} metrics produced")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={int(traced)}: {result['attempted']} invocations, none failed")
            if not traced:
                expect(all(metrics[m]["value"] > 0 for m in metrics), f"{workload}: end-to-end metrics nonzero")


def check_corruption(workdir: Path) -> None:
    env = run.child_env()
    sweep = invocations("constants-sweep", 1, workdir / "cache", "smoke")
    constants = next(i for i in sweep if i.argv[2] == "constants")
    count = next(i for i in sweep if i.argv[2] == "count" and i.argv[4] == "3")
    universal = sweep[-1]
    table = invocations("table-deep", 1, scale="smoke")[0]
    verify = invocations("verify-full", 1, scale="smoke")[0]
    out = {}
    for inv in (constants, count, universal, table, verify):
        child = run.spawn(["-m", "kgonal", *inv.argv], workdir, env)
        out[inv] = child.stdout
        command = " ".join(inv.argv[2:] if inv.argv[0] == "--cache-dir" else inv.argv)
        expect(not rejects(inv, child.rc, child.stdout), f"{command}: passes its check as produced")

    lines = out[table].decode().splitlines(keepends=True)
    order = SIZES["smoke"]["table_order"]
    for n, what in ((5, "golden row"), (order, "row past the golden table")):
        bad = lines[:n + 1] + [flip_digit(lines[n + 1])] + lines[n + 2:]
        expect(rejects(table, 0, "".join(bad).encode()), f"table: a changed {what} fails")
    expect(rejects(table, 0, "".join(lines[:-1]).encode()), "table: a missing last row fails")

    def bump_b3(doc):
        doc["counts"][3]["value"] = str(int(doc["counts"][3]["value"]) + 1)

    expect(rejects(count, 0, edit_json(out[count], bump_b3)), "count: b_3 off the fixture fails")
    for key, delta in (("xi", 1e-8), ("beta", 1e-8), ("alpha", 1e-5)):
        bad = edit_json(out[constants], lambda doc: doc.update({key: doc[key] + delta}))
        expect(rejects(constants, 0, bad), f"constants: {key} moved by {delta:g} fails")
    expect(rejects(universal, 0, edit_json(out[universal], lambda doc: doc["constants"].pop())),
           "universal: a missing constant fails")
    expect(rejects(universal, 0, edit_json(out[universal], lambda doc: doc.update(xi_partial_sum=0.5))),
           "universal: a wrong partial sum fails")
    vlines = out[verify].decode().splitlines(keepends=True)
    expect(rejects(verify, 0, "".join(vlines[:-1] + ["1 check(s) failed\n"]).encode()),
           "verify: a failed last line fails")
    expect(rejects(verify, 1, out[verify]), "verify: a nonzero exit fails")

    tally = run.Tally()
    plain = run.Child(0, 1.0, 0.0, 1.0, 1.0, out[table])
    traced = run.Child(0, 1.0, 0.0, 1.0, 1.0, out[table] + b"\n",
                       spans={"names": ["cli.main"], "name_ids": [0], "parents": [-1], "starts": [0], "ends": [1]})
    run.check_traced(tally, [table], [plain], [traced])
    expect(tally.failures != [], "trace: traced stdout that differs from the untraced one fails")


def check_bare_directory(workdir: Path) -> None:
    bare = workdir / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH_DIR.glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-deep", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    run.STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.STATE))
    try:
        check_metrics()
        check_corruption(workdir)
        check_bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
