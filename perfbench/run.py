"""Benchmark of the kgonal command line on four workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every CLI invocation runs in a fresh interpreter (`python -m kgonal`
with src/ on PYTHONPATH), started with posix_spawn and reaped with
wait4 by perfbench/spawn.py, so each child's own peak RSS and CPU time
are read exactly.
Children run one after another from this process and never overlap.

--trace 0 measures the end-to-end metrics: the workload is repeated
while another repetition fits in --seconds (at least once) and the
median repetition is reported, after a series of interpreter-start
probes for setup_s.
--trace 1 runs the workload once untraced and once through
perfbench/traced.py, which records a span around each layer's public
functions, and reports the per-layer metrics.  Either way every output
is checked, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A fuller record of the
run goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import SIZES, WORKLOADS, CheckError, Invocation, invocations, reference_constants, table_invocation

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"

SETUP_PROBES = 15
TIMEOUT_S = 120
PROBE = (
    "import time, kgonal.cli; t = time.monotonic(); "
    "import json, kgonal, kgonal.kernels, mpmath.libmp; "
    "print(json.dumps([t, kgonal.__file__, kgonal.kernels.BACKEND, mpmath.libmp.BACKEND]))"
)

# span -> the statistics reported for it, besides self_s
SPAN_STATS = {
    "kernels.solve_b": ("calls", "out_bits"),
    "kernels.convolve": ("calls", "out_bits"),
    "bseries.compute_b": ("calls", "repeat_ratio"),
    "bseries.int_coeffs": ("calls",),
    "bseries.power": (),
    "bseries.recurrence_crosscheck": (),
    "series.arith": ("calls",),
    "series.exp": (),
    "oriented.oriented_series": ("calls",),
    "odd.odd_symmetric_series": ("calls",),
    "odd.odd_series": ("calls",),
    "odd.odd_recurrence": ("calls",),
    "even.totally_symmetric": ("calls",),
    "even.symmetric_system": ("calls",),
    "even.even_series": ("calls",),
    "even.edge_rooted_counts": ("calls",),
    "asymptotics.solve_xi": ("iterations",),
    "asymptotics.omega_eval": ("calls",),
    "asymptotics.constants": (),
    "asymptotics.empirical_amplitude": (),
    "universal.universal_c": ("calls",),
    "cache.load_b": ("hits", "misses"),
    "cache.store_b": ("calls",),
    "labelled.burnside_b": ("calls",),
    "oracle.enumerate_b": ("calls", "structures"),
    "oracle.count_tau_fixed": ("calls",),
    "cli.main": (),
}
# the Series operators are reported together as series.arith
SERIES_ARITH = ("series.add", "series.sub", "series.mul", "series.scale", "series.shift",
                "series.substitute_power", "series.truncate")
# spans whose growth with the series order is fitted on table-deep
ORDER_EXPONENT_SPANS = (
    "kernels.solve_b", "kernels.convolve", "bseries.power", "series.arith", "series.exp",
    "oriented.oriented_series", "odd.odd_symmetric_series", "even.totally_symmetric",
    "even.symmetric_system", "even.even_series", "cli.main",
)


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    rc: int
    wall_s: float
    start: float
    peak_rss_mb: float
    cpu_s: float
    stdout: bytes
    spans: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    alpha_bar_dev: dict[int, float] = field(default_factory=dict)

    def judge(self, inv: Invocation, child: Child, problem: str | None = None) -> None:
        """Count one invocation and record why it failed, if it did."""
        self.attempted += 1
        if problem is None:
            try:
                info = inv.check(inv.argv, child.rc, child.stdout)
            except CheckError as exc:
                problem = str(exc)
            except Exception as exc:  # noqa: BLE001 - malformed output, e.g. a missing JSON key
                problem = f"{type(exc).__name__}: {exc}"
            else:
                if "alpha_bar_dev" in info:
                    self.alpha_bar_dev[info["p"]] = info["alpha_bar_dev"]
        if problem is not None:
            self.failures.append(f"{' '.join(inv.argv)}: {problem}")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("KGONAL_CACHE", "KGONAL_PURE_PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list[str], workdir: Path, env: dict[str, str]) -> Child:
    """Run one interpreter to completion through perfbench/spawn.py.

    Its stdout and stderr go through files in workdir.
    """
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    helper = [sys.executable, "-S", str(BENCH_DIR / "spawn.py"), str(TIMEOUT_S), str(out_path), str(err_path)]
    try:
        done = subprocess.run(helper + [sys.executable, *args], env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S + 30, check=True)
    except (subprocess.SubprocessError, OSError) as exc:
        raise HarnessError(f"could not run {args[:2]}: {exc}") from None
    rc, start, wall, maxrss_kb, cpu_s = json.loads(done.stdout)
    if rc != 0:
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    return Child(rc, wall, start, maxrss_kb / 1024, cpu_s, out_path.read_bytes())


def probe_setup(workdir: Path, env: dict[str, str]) -> tuple[list[float], dict]:
    """Seconds from spawning an interpreter to kgonal.cli imported, over SETUP_PROBES starts.

    One untimed start first compiles the bytecode caches, which a user
    pays once per installation, not per run.
    """
    times, info = [], {}
    for i in range(SETUP_PROBES + 1):
        child = spawn(["-c", PROBE], workdir, env)
        if child.rc != 0:
            raise HarnessError("kgonal does not import from src/ in this directory")
        imported, module_file, backend, mp_backend = json.loads(child.stdout)
        if not Path(module_file).resolve().is_relative_to(ROOT / "src"):
            raise HarnessError(f"kgonal imported from {module_file}, not from this checkout")
        info = {"kernels_backend": backend, "mpmath_backend": mp_backend}
        if i:
            times.append(imported - child.start)
    return times, info


def run_sequence(invs: list[Invocation], workdir: Path, env: dict[str, str], traced: bool) -> list[Child]:
    children = []
    for inv in invs:
        if traced:
            spans_path = workdir / "spans.json"
            child = spawn([str(BENCH_DIR / "traced.py"), str(spans_path), *inv.argv], workdir, env)
            child.spans = json.loads(spans_path.read_text()) if spans_path.exists() else None
            spans_path.unlink(missing_ok=True)
        else:
            child = spawn(["-m", "kgonal", *inv.argv], workdir, env)
        children.append(child)
    return children


def span_totals(docs: list[dict]) -> tuple[dict[str, float], dict[str, int], float]:
    """Self seconds and calls per span name, and the summed root durations.

    A span's self time is its duration minus that of its direct children.
    Raises CheckError when the self times do not add up to the roots.
    """
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    root_total = 0.0
    for doc in docs:
        names, ids, parents = doc["names"], doc["name_ids"], doc["parents"]
        dur = [(e - s) * 1e-9 for s, e in zip(doc["starts"], doc["ends"])]
        child = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
            else:
                root_total += dur[i]
        for i, nid in enumerate(ids):
            own = dur[i] - child[i]
            if own < -1e-6:
                raise CheckError(f"span {names[nid]} has negative self time {own}")
            self_s[names[nid]] = self_s.get(names[nid], 0.0) + own
            calls[names[nid]] = calls.get(names[nid], 0) + 1
    total = sum(self_s.values())
    if abs(total - root_total) > 1e-6 * max(root_total, 1.0):
        raise CheckError(f"span self times sum to {total}, roots to {root_total}")
    return self_s, calls, root_total


def layer_metrics(docs: list[dict]) -> tuple[dict[str, float], float]:
    """Per-layer metrics of the traced children, and the seconds their spans cover."""
    self_s, calls, covered = span_totals(docs)
    for op in SERIES_ARITH:
        self_s["series.arith"] = self_s.get("series.arith", 0.0) + self_s.pop(op, 0.0)
        calls["series.arith"] = calls.get("series.arith", 0) + calls.pop(op, 0)
    counters: dict[str, float] = {}
    for doc in docs:
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value
    out = {}
    for span, stats in SPAN_STATS.items():
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
        for stat in stats:
            if stat == "calls":
                out[f"{span}.calls"] = calls.get(span, 0)
            elif stat == "repeat_ratio":
                out[f"{span}.repeat_ratio"] = counters.get(f"{span}.repeats", 0) / max(calls.get(span, 0), 1)
            else:
                out[f"{span}.{stat}"] = counters.get(f"{span}.{stat}", 0)
    reference = reference_constants()
    out["asymptotics.xi_max_abs_dev"] = max(
        (abs(xi - reference[p]["xi"]) for doc in docs for p, xi in doc["xi_values"]), default=0.0
    )
    return out, covered


def check_traced(tally: Tally, invs: list[Invocation], plain: list[Child] | None, traced: list[Child]) -> None:
    """Judge traced children: same stdout as untraced, and spans that add up."""
    for i, (inv, child) in enumerate(zip(invs, traced)):
        problem = None
        if child.spans is None:
            problem = "traced run wrote no spans"
        elif plain is not None and child.stdout != plain[i].stdout:
            problem = "traced stdout differs from the untraced stdout"
        else:
            try:
                span_totals([child.spans])
            except CheckError as exc:
                problem = str(exc)
        tally.judge(inv, child, problem)


def measure(workload: str, seed: int, seconds: float, workdir: Path, env: dict, tally: Tally,
            scale: str) -> tuple[dict[str, float], dict]:
    """End-to-end metrics: setup probes, then repetitions while another fits in `seconds`."""
    setup, info = probe_setup(workdir, env)
    walls, rss = [], 0.0
    started = time.monotonic()
    while True:
        invs = invocations(workload, f"{seed}/{len(walls)}", Path(tempfile.mkdtemp(dir=workdir)), scale)
        children = run_sequence(invs, workdir, env, traced=False)
        walls.append(sum(c.wall_s for c in children))
        rss = max([rss] + [c.peak_rss_mb for c in children])
        for inv, child in zip(invs, children):
            tally.judge(inv, child)
        # start another repetition only if a typical one still fits in the budget
        if time.monotonic() - started + statistics.median(walls) > seconds:
            break
    metrics = {"wall_s": statistics.median(walls), "peak_rss_mb": rss, "setup_s": statistics.median(setup)}
    info.update(repetition_walls_s=walls, setup_probes_s=setup)
    return metrics, info


def trace(workload: str, seed: int, workdir: Path, env: dict, tally: Tally, scale: str) -> tuple[dict, dict]:
    """Per-layer metrics from one untraced and one traced run of the workload.

    The two runs alternate invocation by invocation, each with its own
    cache directory, so that both see the machine in the same state.
    """
    _, info = probe_setup(workdir, env)
    key = f"{seed}/0"
    plain_invs = invocations(workload, key, Path(tempfile.mkdtemp(dir=workdir)), scale)
    invs = invocations(workload, key, Path(tempfile.mkdtemp(dir=workdir)), scale)
    plain, traced = [], []
    for plain_inv, inv in zip(plain_invs, invs):
        plain += run_sequence([plain_inv], workdir, env, traced=False)
        traced += run_sequence([inv], workdir, env, traced=True)
    for inv, child in zip(plain_invs, plain):
        tally.judge(inv, child)
    check_traced(tally, invs, plain, traced)
    docs = [c.spans for c in traced if c.spans is not None]
    metrics, covered = layer_metrics(docs)
    untraced_wall = sum(c.wall_s for c in plain)
    traced_wall = sum(c.spans["main_end"] - c.start for c in traced if c.spans is not None)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    metrics["cli.stdout_bytes"] = sum(len(c.stdout) for c in plain)
    metrics["cli.cpu_s"] = sum(c.cpu_s for c in plain)
    half_self = {}
    if workload == "table-deep":
        half = [table_invocation(SIZES[scale]["table_order"] // 2)]
        half_children = run_sequence(half, workdir, env, traced=True)
        check_traced(tally, half, None, half_children)
        if half_children[0].spans is not None:
            half_self, _ = layer_metrics([half_children[0].spans])
    for span in ORDER_EXPONENT_SPANS:
        full, low = metrics[f"{span}.self_s"], half_self.get(f"{span}.self_s", 0.0)
        metrics[f"{span}.order_exponent"] = math.log2(full / low) if full > 0 and low > 0 else 0.0
    info.update(
        untraced_wall_s=untraced_wall,
        traced_wall_s=traced_wall,
        # interpreter start, imports and wrapper installation: the traced
        # wall that no span covers
        traced_startup_s=traced_wall - covered,
        traced_sites={k: v for c in traced if c.spans for k, v in c.spans["sites"].items()},
        missing_targets=sorted({m for c in traced if c.spans for m in c.spans["missing"]}),
    )
    if info["missing_targets"]:
        sys.stderr.write(f"warning: not traced, absent from kgonal: {info['missing_targets']}\n")
    return metrics, info


def run(workload: str, seed: int, seconds: float, traced: bool, scale: str = "full") -> dict:
    """One benchmark run; returns the run record, whose "result" is the printed line."""
    if not (ROOT / "src" / "kgonal" / "cli.py").is_file():
        raise HarnessError("src/kgonal is missing; run from the root of a kgonal checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    record = {
        "workload": workload,
        "seed": seed,
        "seed_use": "permutes the p order" if workload == "constants-sweep"
        else "none: a fixed job, identical for every seed",
        "seconds": seconds,
        "trace": int(traced),
        "scale": scale,
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
    }
    STATE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    tally = Tally()
    try:
        env = child_env()
        if traced:
            values, info = trace(workload, seed, workdir, env, tally, scale)
        else:
            values, info = measure(workload, seed, seconds, workdir, env, tally, scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise HarnessError(f"metrics computed {sorted(values)} but BENCHMARK.json names {sorted(names)}")
    record.update(info)
    record["failures"] = tally.failures
    record["failed_ratio"] = len(tally.failures) / tally.attempted
    record["alpha_bar_dev_by_p"] = tally.alpha_bar_dev
    record["result"] = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return record


def git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/kgonal's files, which identifies the program where git is absent."""
    digest = hashlib.sha256()
    base = ROOT / "src" / "kgonal"
    for path in sorted(base.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(base)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    result = record["result"]
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"{args.workload} seed={args.seed}: attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_ratio {record['failed_ratio']:g}; record in {path.relative_to(ROOT)}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
