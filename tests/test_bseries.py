"""Edge-rooted series: anchors, cross-route agreement, index conventions."""

import hashlib
import json
import os
import pathlib
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kgonal
from kgonal import cache, kernels
from kgonal.bseries import BTable, GonalParams, compute_b, recurrence_crosscheck
from kgonal.kernels import IntegrityError
from fraction_series import Series, exp
from reference_solve import power

DEFAULT_LIMIT = sys.get_int_max_str_digits()


def test_params():
    params = GonalParams(4)
    assert params.p == 3
    assert params.m(3) == 10
    with pytest.raises(ValueError):
        GonalParams(1)


def test_params_are_values():
    params = GonalParams(k=4)
    assert params == GonalParams(4)
    assert params != GonalParams(5)
    assert hash(params) == hash(GonalParams(4)) == hash((4,))
    assert repr(params) == "GonalParams(k=4)"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(params, protocol))
        assert type(copy) is GonalParams
        assert copy == params
    with pytest.raises(AttributeError):
        params.k = 5
    with pytest.raises(AttributeError):
        del params.k
    with pytest.raises(AttributeError):
        params.order = 5
    assert params.k == 4
    with pytest.raises(ValueError, match="polygon size k must be >= 2"):
        GonalParams(k=1)


@pytest.mark.parametrize("p", range(1, 12))
def test_solve_keeps_true_power(p):
    # the b^p the kernel carries is kept in the table; it must be the
    # true power of b, and for p = 1 b itself
    table = compute_b(GonalParams(p + 1), 80)
    b = table.int_coeffs(1)
    assert table.powers[p] == power(b, p, 80)
    assert table.int_coeffs(p) is table.powers[p]


def test_cache_hit_holds_b_and_its_power(tmp_path, monkeypatch):
    # a hit reads b^{k-1} beside b, so it needs no solve and no power pass
    solved = compute_b(GonalParams(5), 10, cache_dir=tmp_path)

    def no_kernel(*args):
        raise AssertionError("a cache hit ran the kernel")

    monkeypatch.setattr(kernels, "solve_b", no_kernel)
    monkeypatch.setattr(kernels, "_online", no_kernel)
    hit = compute_b(GonalParams(5), 10, cache_dir=tmp_path)
    assert sorted(hit.powers) == [1, 4]
    assert hit.int_coeffs(4) == solved.powers[4]
    assert hit.int_coeffs(1) == solved.powers[1]


def test_compute_b_anchors():
    assert compute_b(GonalParams(3), 3).int_coeffs(1) == [1, 1, 3, 10]
    assert compute_b(GonalParams(2), 4).int_coeffs(1) == [1, 1, 2, 4, 9]
    for k in (2, 3, 5, 9):
        assert compute_b(GonalParams(k), 1).int_coeffs(1)[1] == 1


def test_crosscheck_anchors():
    assert recurrence_crosscheck(GonalParams(3), 3) == [1, 1, 3, 10]
    assert recurrence_crosscheck(GonalParams(2), 4) == [1, 1, 2, 4, 9]
    for k in (2, 4, 7):
        assert recurrence_crosscheck(GonalParams(k), 1)[1] == 1


def test_two_routes_agree():
    # the acceptance sweep goes to k=8, order 12; keep the unit test snappy
    for k in (2, 3, 4, 5):
        params = GonalParams(k)
        assert compute_b(params, 10).int_coeffs(1) == recurrence_crosscheck(params, 10)


def test_two_routes_agree_at_order_40():
    # each tuple sum is read off the crosscheck's own powers of b; a sum
    # over the tuples themselves costs O(order^(k-1)) and would not finish
    # at k = 12, order 40
    for k in range(2, 13):
        params = GonalParams(k)
        assert recurrence_crosscheck(params, 40) == compute_b(params, 40).int_coeffs(1), k


def _powered_self_sum(y: Series, power: int) -> Series:
    # sum_i x^i (y^power)(x^i) / i at y's order
    order = y.order
    yp = y.pow(power)
    acc = Series.zero(order)
    for i in range(1, order + 1):
        acc = acc + yp.substitute_power(i).shift(i).scale(Fraction(1, i))
    return acc


def test_b_satisfies_its_equation():
    # b = exp(sum_i x^i b^{k-1}(x^i) / i), checked in Fraction series arithmetic
    for k in (2, 3, 4, 6):
        params = GonalParams(k)
        b = Series.from_coeffs(compute_b(params, 12).int_coeffs(1), 12)
        assert exp(_powered_self_sum(b, params.p)) == b, f"k={k}"


def test_convolution_power():
    table = compute_b(GonalParams(3), 4)
    b = Series.from_coeffs(table.int_coeffs(1), 4)
    assert table.int_coeffs(0) == [1, 0, 0, 0, 0]
    assert table.int_coeffs(3)[2] == 12
    assert table.int_coeffs(3) == list(b.pow(3).integer_coeffs())
    assert table.int_coeffs(3) is table.int_coeffs(3)


def test_table_checks_b():
    with pytest.raises(IntegrityError):
        BTable(GonalParams(3), [2, 1, 3], [4, 4, 13])
    with pytest.raises(ValueError):
        BTable(GonalParams(3), [1, 1, 3], [1, 2, 7, 30])
    with pytest.raises(ValueError, match=r"b\^2"):
        BTable(GonalParams(3), [1, 1, 3], [1, 2])
    table = BTable(GonalParams(3), [1, 1, 3], [1, 2, 7])
    assert table.order == 2 and table.powers == {2: [1, 2, 7], 1: [1, 1, 3]}


@given(st.integers(2, 8), st.integers(0, 25), st.integers(0, 10), st.data())
def test_power_prefix_then_full(k, order, j, data):
    upto = data.draw(st.integers(0, order))
    table = compute_b(GonalParams(k), order)
    prefix = table.int_coeffs(j, upto)
    full = table.int_coeffs(j)
    want = compute_b(GonalParams(k), order).int_coeffs(j)
    assert len(prefix) >= upto + 1
    assert prefix[: upto + 1] == want[: upto + 1]
    assert full == want
    assert len(full) == order + 1


def test_solve_is_prefix_stable():
    # cli.constants_report reads b at the series order from a table
    # solved to the probe order
    params = GonalParams(5)
    table = compute_b(params, 12)
    low = compute_b(params, 7)
    assert low.order == 7
    for j in (1, 4):
        assert table.int_coeffs(j)[:8] == low.int_coeffs(j)
    assert sorted(low.powers) == [1, 4]
    assert table.int_coeffs(3)[:8] == low.int_coeffs(3)
    with pytest.raises(IndexError):
        low.int_coeffs(3, 8)


def test_monotone():
    for k in (2, 3, 6):
        b = compute_b(GonalParams(k), 12).int_coeffs(1)
        for n in range(1, 13):
            assert b[n] >= b[n - 1]


def _nth_difference(values):
    while len(values) > 1:
        values = [b - a for a, b in zip(values, values[1:])]
    return values[0]


def test_polynomial_in_k():
    # for fixed n the count is a polynomial in k of degree n-1, so the
    # n-th difference over n+1 consecutive k values vanishes
    tables = {k: compute_b(GonalParams(k), 8).int_coeffs(1) for k in range(2, 11)}
    for n in range(1, 9):
        column = [tables[k][n] for k in range(2, n + 3)]
        assert _nth_difference(column) == 0, f"n={n}"


def test_disk_cache_roundtrip(tmp_path):
    params = GonalParams(3)
    t1 = compute_b(params, 6, cache_dir=tmp_path)
    assert cache.load_b(tmp_path, 3, 6) == (t1.int_coeffs(1), t1.int_coeffs(2))
    # shorter request served from the stored longer table
    t2 = compute_b(params, 4, cache_dir=tmp_path)
    assert t2.int_coeffs(1) == t1.int_coeffs(1)[:5]
    assert t2.int_coeffs(2) == t1.int_coeffs(2)[:5]
    # longer request recomputes and extends the store
    t3 = compute_b(params, 8, cache_dir=tmp_path)
    assert cache.load_b(tmp_path, 3, 8) == (t3.int_coeffs(1), t3.int_coeffs(2))


def test_disk_cache_corruption_is_a_miss(tmp_path):
    params = GonalParams(3)
    compute_b(params, 5, cache_dir=tmp_path)
    path = tmp_path / "b_k3.json"
    path.write_text("{ not json", encoding="utf-8")
    t = compute_b(params, 5, cache_dir=tmp_path)
    assert t.int_coeffs(1) == [1, 1, 3, 10, 39, 160]
    # the bad file was replaced by a good one
    assert cache.load_b(tmp_path, 3, 5) is not None


def test_disk_cache_version_skew(tmp_path):
    params = GonalParams(2)
    compute_b(params, 4, cache_dir=tmp_path)
    path = tmp_path / "b_k2.json"
    doc = path.read_text(encoding="utf-8").replace(
        f'"version": {cache.CACHE_VERSION}', '"version": 999'
    )
    path.write_text(doc, encoding="utf-8")
    assert cache.load_b(tmp_path, 2, 4) is None
    assert compute_b(params, 4, cache_dir=tmp_path).int_coeffs(1)[4] == 9


def test_disk_cache_stores_sha256(tmp_path):
    # one hash over b and b^{k-1}
    compute_b(GonalParams(4), 10, cache_dir=tmp_path)
    doc = json.loads((tmp_path / "b_k4.json").read_text(encoding="utf-8"))
    joined = (",".join(doc["coefficients"]) + ";" + ",".join(doc["power"])).encode("ascii")
    assert doc["sha256"] == hashlib.sha256(joined).hexdigest()
    assert doc["power"] == [str(c) for c in compute_b(GonalParams(4), 10).int_coeffs(3)]


def test_disk_cache_version_2_is_a_miss(tmp_path, monkeypatch):
    # a version-2 file held b alone, under a hash of b alone; it is a
    # miss, and the solve that follows rewrites it as version 3
    table = compute_b(GonalParams(3), 6)
    strings = [str(c) for c in table.int_coeffs(1)]
    doc = {
        "version": 2,
        "k": 3,
        "order": 6,
        "sha256": hashlib.sha256(",".join(strings).encode("ascii")).hexdigest(),
        "coefficients": strings,
    }
    path = tmp_path / "b_k3.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cache.load_b(tmp_path, 3, 6) is None
    solves = []
    solve = kernels.solve_b
    monkeypatch.setattr(kernels, "solve_b", lambda *args: solves.append(args) or solve(*args))
    assert compute_b(GonalParams(3), 6, cache_dir=tmp_path).powers == table.powers
    assert len(solves) == 1
    assert json.loads(path.read_text(encoding="utf-8"))["version"] == cache.CACHE_VERSION == 3
    assert cache.load_b(tmp_path, 3, 6) == (table.int_coeffs(1), table.int_coeffs(2))


def test_disk_cache_long_integers(tmp_path):
    # past 4300 digits, where CPython's default str/int limit would refuse
    big = 10**4400 + 1
    cache.store_b(tmp_path, 3, [1, big], [1, 2 * big])
    assert cache.load_b(tmp_path, 3, 1) == ([1, big], [1, 2 * big])
    assert sys.get_int_max_str_digits() == DEFAULT_LIMIT


def test_cache_file_built_whole_is_a_hit(tmp_path, monkeypatch):
    # a version-3 document built whole, with its hash before the lists,
    # loads as a hit; store_b writes the same fields one coefficient at a time
    table = compute_b(GonalParams(4), 30)
    b, c = ([str(v) for v in table.int_coeffs(j)] for j in (1, 3))
    whole = {
        "version": 3,
        "k": 4,
        "order": 30,
        "sha256": hashlib.sha256((",".join(b) + ";" + ",".join(c)).encode("ascii")).hexdigest(),
        "coefficients": b,
        "power": c,
    }
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "b_k4.json").write_text(json.dumps(whole), encoding="utf-8")
    cache.store_b(tmp_path / "new", 4, table.int_coeffs(1), table.int_coeffs(3))
    written = (tmp_path / "new" / "b_k4.json").read_text(encoding="utf-8")
    assert json.loads(written) == whole

    def no_kernel(*args):
        raise AssertionError("a cache hit ran the kernel")

    monkeypatch.setattr(kernels, "solve_b", no_kernel)
    hit = compute_b(GonalParams(4), 30, cache_dir=tmp_path / "old")
    assert hit.powers == table.powers


def test_store_b_builds_no_list_of_strings(tmp_path):
    # the write holds about one coefficient's string at a time, well
    # below the decimal strings of b and C together
    b = [1] + [10**2000 + n for n in range(1, 300)]
    c = [1] + [3 * 10**2000 + n for n in range(1, 300)]
    strings = sys.getsizeof([]) * 2 + sum(sys.getsizeof(str(v)) + 8 for v in b + c)
    tracemalloc.start()
    try:
        cache.store_b(tmp_path, 3, b, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache.load_b(tmp_path, 3, 299) == (b, c)
    assert peak < strings / 4, (peak, strings)


def test_load_b_holds_one_list_of_strings(tmp_path):
    # the parse holds the file's text beside its strings; past that, the
    # hash is fed string by string, not from a joined copy, and b's
    # strings are let go before C's are converted
    b = [1] + [10**2000 + n for n in range(1, 300)]
    c = [1] + [3 * 10**2000 + n for n in range(1, 300)]
    cache.store_b(tmp_path, 3, b, c)
    chars = sum(len(str(v)) for v in b + c)
    tracemalloc.start()
    try:
        hit = cache.load_b(tmp_path, 3, 299)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hit == (b, c)
    assert peak < 2.5 * chars, peak / chars


_WRITER = """
import sys, time
from pathlib import Path
from kgonal.cache import load_b, store_b
from kgonal.kernels import solve_b

cache_dir = Path(sys.argv[1])
b = solve_b(1, 500)
while not (cache_dir / "go").exists():
    time.sleep(0.005)
for n in range(501):
    store_b(cache_dir, 2, b[: n + 1], b[: n + 1])
    if load_b(cache_dir, 2, 0) is None:
        sys.exit(f"the cache file did not load after writing order {n}")
"""


def test_disk_cache_concurrent_writers(tmp_path):
    # each writer renames its own complete temporary file into place, so
    # at no moment does any writer find a file that fails to load; three
    # writers, more than the two cores of a small runner
    src = str(pathlib.Path(kgonal.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    writers = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(tmp_path)], env=env)
        for _ in range(3)
    ]
    try:
        (tmp_path / "go").touch()
        codes = [w.wait(timeout=120) for w in writers]
    finally:
        for w in writers:
            w.kill()
    assert codes == [0, 0, 0]
    b = compute_b(GonalParams(2), 500).int_coeffs(1)
    assert cache.load_b(tmp_path, 2, 500) == (b, b)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b_k2.json", "go"]
