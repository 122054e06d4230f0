"""Run the kgonal CLI with a span recorded around each layer's public functions.

Usage: python perfbench/traced.py SPANS_JSON ARG...

The arguments after SPANS_JSON are passed to kgonal.cli.main unchanged,
so standard output and the exit status are those of `python -m kgonal
ARG...`.  Nothing under src/ is modified: each function is replaced, for
the duration of this process, by a wrapper installed on every name a
caller looks it up by (a module global, a name imported into another
module, or a class attribute for methods).

Spans are kept in memory as parallel arrays (name, parent, start, end;
times in integer nanoseconds of time.perf_counter_ns) and written to
SPANS_JSON after main returns, together with the counters the wrappers
keep and the time.monotonic() readings of main's start and end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# span name -> (module, attribute); "Class.method" wraps a method on its class
TARGETS = {
    "cli.main": ("kgonal.cli", "main"),
    "kernels.solve_b": ("kgonal.kernels", "solve_b"),
    "kernels.convolve": ("kgonal.kernels", "convolve"),
    "bseries.compute_b": ("kgonal.bseries", "compute_b"),
    "bseries.int_coeffs": ("kgonal.bseries", "BTable.int_coeffs"),
    "bseries.power": ("kgonal.bseries", "BTable.power"),
    "bseries.recurrence_crosscheck": ("kgonal.bseries", "recurrence_crosscheck"),
    "series.add": ("kgonal.series", "Series.__add__"),
    "series.sub": ("kgonal.series", "Series.__sub__"),
    "series.mul": ("kgonal.series", "Series.__mul__"),
    "series.scale": ("kgonal.series", "Series.scale"),
    "series.shift": ("kgonal.series", "Series.shift"),
    "series.substitute_power": ("kgonal.series", "Series.substitute_power"),
    "series.truncate": ("kgonal.series", "Series.truncate"),
    "series.exp": ("kgonal.series", "exp"),
    "oriented.oriented_series": ("kgonal.oriented", "oriented_series"),
    "odd.odd_symmetric_series": ("kgonal.odd", "odd_symmetric_series"),
    "odd.odd_series": ("kgonal.odd", "odd_series"),
    "odd.odd_recurrence": ("kgonal.odd", "odd_recurrence"),
    "even.totally_symmetric": ("kgonal.even", "totally_symmetric"),
    "even.symmetric_system": ("kgonal.even", "symmetric_system"),
    "even.even_series": ("kgonal.even", "even_series"),
    "even.edge_rooted_counts": ("kgonal.even", "edge_rooted_counts"),
    "asymptotics.solve_xi": ("kgonal.asymptotics", "solve_xi"),
    "asymptotics.omega_eval": ("kgonal.asymptotics", "omega_eval"),
    "asymptotics.constants": ("kgonal.asymptotics", "constants"),
    "asymptotics.empirical_amplitude": ("kgonal.asymptotics", "empirical_amplitude"),
    "universal.universal_c": ("kgonal.universal", "universal_c"),
    "cache.load_b": ("kgonal.cache", "load_b"),
    "cache.store_b": ("kgonal.cache", "store_b"),
    "labelled.burnside_b": ("kgonal.labelled", "burnside_b"),
    "oracle.enumerate_b": ("kgonal.oracle", "enumerate_b"),
    "oracle.count_tau_fixed": ("kgonal.oracle", "count_tau_fixed"),
}


class Tracer:
    """Span store plus the per-layer counters that need a call's arguments or result."""

    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.xi_values: list[list[float]] = []
        self.sites: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self._covered: dict[int, int] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # counters derived from one call; they run after the span has closed

    def _out_bits(self, name: str, args, result) -> None:
        self.count(name + ".out_bits", sum(c.bit_length() for c in result))

    def _compute_b(self, name: str, args, result) -> None:
        k, order = result.params.k, result.order
        if self._covered.get(k, -1) >= order:
            self.count(name + ".repeats")
        self._covered[k] = max(order, self._covered.get(k, -1))

    def _solve_xi(self, name: str, args, result) -> None:
        self.count(name + ".iterations", result[1])
        self.xi_values.append([args[0].p, float(result[0])])

    def _load_b(self, name: str, args, result) -> None:
        # store_b probes the file through load_b; only lookups made for a
        # computation count as hits or misses
        if self.stack[-1] >= 0 and self.names[self.name_ids[self.stack[-1]]] == "cache.store_b":
            return
        self.count(name + (".misses" if result is None else ".hits"))

    def _enumerate_b(self, name: str, args, result) -> None:
        self.count(name + ".structures", len(result))

    def wrap(self, name: str, fn):
        nid = self.names.index(name)
        post = {
            "kernels.solve_b": self._out_bits,
            "kernels.convolve": self._out_bits,
            "bseries.compute_b": self._compute_b,
            "asymptotics.solve_xi": self._solve_xi,
            "cache.load_b": self._load_b,
            "oracle.enumerate_b": self._enumerate_b,
        }.get(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(ends)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target on every kgonal name that refers to it."""
        import kgonal.cli  # noqa: F401 - loads every module the CLI reaches

        modules = [m for n, m in list(sys.modules.items()) if n == "kgonal" or n.startswith("kgonal.")]
        for name, (module_name, attr) in TARGETS.items():
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            if owner_name:
                setattr(owner, method, wrapper)
                self.sites[name] = [f"{module_name}.{attr}"]
                continue
            sites = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        sites.append(f"{mod.__name__}.{key}")
            self.sites[name] = sorted(sites)

    def dump(self, path: str, main_start: float, main_end: float) -> None:
        doc = {
            "names": self.names,
            "name_ids": self.name_ids.tolist(),
            "parents": self.parents.tolist(),
            "starts": self.starts.tolist(),
            "ends": self.ends.tolist(),
            "counters": self.counters,
            "xi_values": self.xi_values,
            "sites": self.sites,
            "missing": self.missing,
            "main_start": main_start,
            "main_end": main_end,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import kgonal.cli

    main_start = time.monotonic()
    try:
        return kgonal.cli.main(argv)
    finally:
        main_end = time.monotonic()
        sys.stdout.flush()
        tracer.dump(spans_path, main_start, main_end)


if __name__ == "__main__":
    raise SystemExit(main())
