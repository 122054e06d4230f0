"""Integer kernels: anchors, the solve against its reference, block
products, the powers of b and the Polya exponential on the online
kernel, and the division checks."""

import hashlib
import os
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgonal import cli, forked, kernels
from kgonal.bseries import BTable, GonalParams, compute_b
from forks import assert_left_clean, assert_no_child_left, spy_forks, two_cpus
from fraction_series import Series
from reference_solve import convolve, polya_step, power, solve_b_reference


def test_backend_reported():
    assert kernels.BACKEND == "python"


def test_solve_b_anchors():
    assert kernels.solve_b(1, 8) == [1, 1, 2, 4, 9, 20, 48, 115, 286]
    assert kernels.solve_b(2, 8) == [1, 1, 3, 10, 39, 160, 702, 3177, 14830]
    assert kernels.solve_b(3, 4) == [1, 1, 4, 19, 107]


def test_solve_b_hands_out_its_power():
    # power_out receives b^p in place, whatever the list held before
    c = [7, 7]
    b = kernels.solve_b(2, 8, c)
    assert b == [1, 1, 3, 10, 39, 160, 702, 3177, 14830]
    assert c == power(b, 2, 8)


def test_solve_b_validation():
    with pytest.raises(ValueError):
        kernels.solve_b(0, 5)
    with pytest.raises(ValueError):
        kernels.solve_b(2, -1)


@pytest.mark.parametrize("p", range(1, 12))
@pytest.mark.parametrize("crossover", [0, 10**18])
@pytest.mark.parametrize("piece", [5, 8])
def test_solve_b_matches_reference(p, crossover, piece, monkeypatch):
    # at the shipped widths, order 120 is all band.  A narrow band of odd
    # or even width runs with CAP = piece, the flat grid of piece-squares,
    # and with CAP = 4 piece: strips of piece- and 2 piece-squares, then
    # the grid.  A crossover of 0 sends every square through Decimal, one
    # of 10^18 none
    monkeypatch.setattr(kernels, "DECIMAL_CROSSOVER", crossover)
    monkeypatch.setattr(kernels, "PIECE", piece)
    want_c = []
    want = solve_b_reference(p, 120, want_c)
    for cap in (piece, 4 * piece):
        monkeypatch.setattr(kernels, "CAP", cap)
        got_c = []
        assert kernels.solve_b(p, 120, got_c) == want, cap
        assert got_c == want_c, cap


def _take_path(monkeypatch, path):
    """Make every solve_b take the forked or the one-process path."""
    monkeypatch.setattr(kernels, "FORK_WORK", 0)
    if path == "one-process":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        two_cpus(monkeypatch)


def _count_forks(monkeypatch):
    """A list that gains one item per solve_b that forks."""
    forks = []
    solve_b = forked.solve_b
    monkeypatch.setattr(forked, "solve_b", lambda *args: forks.append(1) or solve_b(*args))
    return forks


@pytest.mark.parametrize("path", ["forked", "one-process"])
@pytest.mark.parametrize("crossover", [0, 10**18])
@pytest.mark.parametrize("piece", [5, 8])
def test_solve_b_paths_match_reference(path, crossover, piece, monkeypatch):
    # the settings of the parent are those of the forked child too
    _take_path(monkeypatch, path)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(kernels, "DECIMAL_CROSSOVER", crossover)
    monkeypatch.setattr(kernels, "PIECE", piece)
    for p in (1, 4, 11):
        want_c = []
        want = solve_b_reference(p, 120, want_c)
        for cap in (piece, 4 * piece):
            monkeypatch.setattr(kernels, "CAP", cap)
            got_c = []
            assert kernels.solve_b(p, 120, got_c) == want, (p, cap)
            assert_no_child_left()
            assert got_c == want_c, (p, cap)
            # without power_out, C still arrives and is dropped
            assert kernels.solve_b(p, 120) == want, (p, cap)
            assert_no_child_left()
    # p = 1 is one pass and never forks
    assert len(forks) == (8 if path == "forked" else 0)


@pytest.mark.parametrize("path", ["forked", "one-process"])
def test_solve_b_at_p1_is_one_pass(path, monkeypatch):
    # at p = 1, C = y: the power pass alone solves it on either path,
    # and hands out C and y as two lists; p >= 2 runs the y pass too,
    # in the parent beside a forked power pass
    _take_path(monkeypatch, path)
    forks = _count_forks(monkeypatch)
    passes = []
    online = kernels._online

    def spy(out, sums, scale, what, ready=None):
        passes.append(what)
        online(out, sums, scale, what, ready)

    monkeypatch.setattr(kernels, "_online", spy)
    c = []
    b = kernels.solve_b(1, 120, c)
    assert b == c == solve_b_reference(1, 120)
    assert b is not c
    assert passes == ["power update"]
    assert kernels.solve_b(1, 120) == b
    assert passes == ["power update"] * 2
    assert forks == []
    for p in (2, 11):
        passes.clear()
        assert kernels.solve_b(p, 120) == solve_b_reference(p, 120)
        assert_no_child_left()
        if path == "forked":
            assert passes == ["y recurrence"]
        else:
            assert passes == ["power update", "y recurrence"]
    assert len(forks) == (2 if path == "forked" else 0)


def _break_power_pass(monkeypatch):
    """Make the power pass divide inexactly: sums_3 is one too large."""
    power_pass = kernels._power_pass

    def broken(p, c, sums, send=None):
        sums[3] += 1
        power_pass(p, c, sums, send)

    monkeypatch.setattr(kernels, "_power_pass", broken)


def test_forked_power_pass_error_reaches_the_caller(monkeypatch):
    # 3 C_3 is off by p = 2, so the division by 3 leaves a remainder, in
    # the child as in one process, and the parent re-raises it unchanged
    _break_power_pass(monkeypatch)
    messages = []
    for path in ("one-process", "forked"):
        _take_path(monkeypatch, path)
        with pytest.raises(kernels.InexactDivisionError) as caught:
            kernels.solve_b(2, 200, [])
        assert_no_child_left()
        assert type(caught.value) is kernels.InexactDivisionError
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("power update at n=3: remainder")


def test_forked_power_pass_error_is_a_cli_error_line(monkeypatch, capsys):
    _break_power_pass(monkeypatch)
    _take_path(monkeypatch, "forked")
    assert cli.main(["count", "--k", "3", "--family", "b", "--order", "100"]) == 1
    assert_no_child_left()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: power update at n=3: remainder")


def test_forked_child_that_dies_without_a_result(monkeypatch):
    # a child that ends before its last message is a ChildProcessError,
    # not a hang and not a wrong result
    _take_path(monkeypatch, "forked")
    parent = os.getpid()

    def dies(*args):
        if os.getpid() == parent:
            raise AssertionError("the power pass ran in the parent")
        os._exit(3)

    monkeypatch.setattr(kernels, "_power_pass", dies)
    with pytest.raises(ChildProcessError, match="without its result"):
        kernels.solve_b(2, 50)
    assert_no_child_left()


def test_forked_child_that_dies_is_a_cli_error_line(monkeypatch, capsys):
    # a child killed, e.g. for lack of memory, ends the command with one
    # error line, not a traceback
    _take_path(monkeypatch, "forked")
    parent = os.getpid()

    def dies(*args):
        if os.getpid() == parent:
            raise AssertionError("the power pass ran in the parent")
        os._exit(3)

    monkeypatch.setattr(kernels, "_power_pass", dies)
    assert cli.main(["count", "--k", "3", "--family", "b", "--order", "100"]) == 1
    assert_no_child_left()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the power pass of solve_b ended without its result\n"


def test_forked_child_is_killed_when_the_parent_unwinds(monkeypatch):
    # an error in the y pass, while the child is still solving, kills
    # and reaps the child before the error reaches the caller
    _take_path(monkeypatch, "forked")
    online = kernels._online

    def broken(out, sums, scale, what, ready=None):
        if what == "y recurrence":
            raise kernels.IntegrityError("y pass failed")
        online(out, sums, scale, what, ready)

    monkeypatch.setattr(kernels, "_online", broken)
    with pytest.raises(kernels.IntegrityError, match="y pass failed"):
        kernels.solve_b(11, 600)
    assert_no_child_left()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="pins to two CPUs of the real mask")
def test_forked_solve_pins_each_side_to_its_own_cpu(monkeypatch):
    # while the child lives, the parent runs on the first CPU of the mask
    # and the child on the second; the parent's mask comes back after
    _take_path(monkeypatch, "forked")
    mask = os.sched_getaffinity(0)
    first, second = sorted(mask)[:2]
    seen = []
    power_pass, online = kernels._power_pass, kernels._online

    def child_side(p, c, sums, send=None):
        if os.sched_getaffinity(0) != {second}:
            raise AssertionError(f"the child runs on {os.sched_getaffinity(0)}")
        power_pass(p, c, sums, send)

    def parent_side(out, sums, scale, what, ready=None):
        seen.append(os.sched_getaffinity(0))
        online(out, sums, scale, what, ready)

    monkeypatch.setattr(kernels, "_power_pass", child_side)
    monkeypatch.setattr(kernels, "_online", parent_side)
    assert kernels.solve_b(4, 120) == solve_b_reference(4, 120)
    assert seen == [{first}]
    assert_left_clean(mask)


def test_forked_solve_when_pinning_fails(monkeypatch):
    _take_path(monkeypatch, "forked")
    forks = _count_forks(monkeypatch)
    mask = os.sched_getaffinity(0)

    def refuse(pid, cpus):
        raise OSError("sched_setaffinity refused")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    want_c = []
    want = solve_b_reference(11, 120, want_c)
    got_c = []
    assert kernels.solve_b(11, 120, got_c) == want
    assert got_c == want_c
    assert_left_clean(mask)
    assert forks == [1]


@pytest.mark.parametrize("size", [10, 200_000], ids=["short", "past-the-pipe"])
def test_split_matches_one_process(monkeypatch, size):
    # the child's half, 4 results of size ints, arrives in order whether
    # the child ended before the parent read it ("short", read at EOF by
    # a drain) or waited on a full pipe until the parent drained it
    two_cpus(monkeypatch)
    mask = os.sched_getaffinity(0)
    forks = spy_forks(monkeypatch)
    parent = os.getpid()

    def compute(i):
        if os.getpid() == parent and i == 0:
            time.sleep(0.2)
        return [i] * size + [parent]

    items = range(8)
    assert forked.split(compute, items, [1] * 8, "a test split") == [compute(i) for i in items]
    assert_left_clean(mask)
    assert forks == [1]


def test_fork_threshold(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # the solves of table-deep (order 250) and constants-sweep (order
    # 500) stay in one process; the order-1000 solve of constants --p 11
    # forks
    for p in range(1, 12):
        assert not kernels._fork_pays(p, 250)
        assert not kernels._fork_pays(p, 500)
    assert kernels._fork_pays(11, 1000)
    # from order 588 at p = 11; p = 1 is one pass and never forks
    assert kernels._fork_pays(11, 600) and not kernels._fork_pays(11, 580)
    assert not kernels._fork_pays(1, cli.ORDER_CEILING)
    # never on one CPU, nor beside another thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not kernels._fork_pays(11, 1000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert not kernels._fork_pays(11, 1000)
    finally:
        release.set()
        other.join()


def test_solve_b_digest_at_order_1000(monkeypatch):
    # sha256 of the decimal coefficients of b and of C = b^11 to order
    # 1000, recorded from the solve in one process; this one forks
    two_cpus(monkeypatch)
    forks = _count_forks(monkeypatch)
    c = []
    b = kernels.solve_b(11, 1000, c)
    assert_no_child_left()
    assert forks == [1]
    with kernels.long_decimals():
        digests = [hashlib.sha256(",".join(map(str, s)).encode()).hexdigest() for s in (b, c)]
    assert digests == [
        "ef1dce63234d3483cba12344ff1c7cfe740fdd2d7b56df9fb22ba34aa331de36",
        "83b4d208bc482e0dc050e2ecfb5c8a9ff06281226b2730612fddc2ef5fa964f6",
    ]


def test_solve_b_digest_at_order_1000_in_one_process(monkeypatch):
    # the digests of test_solve_b_digest_at_order_1000, from the path
    # that runs both passes here
    _take_path(monkeypatch, "one-process")
    forks = _count_forks(monkeypatch)
    c = []
    b = kernels.solve_b(11, 1000, c)
    assert forks == []
    with kernels.long_decimals():
        digests = [hashlib.sha256(",".join(map(str, s)).encode()).hexdigest() for s in (b, c)]
    assert digests == [
        "ef1dce63234d3483cba12344ff1c7cfe740fdd2d7b56df9fb22ba34aa331de36",
        "83b4d208bc482e0dc050e2ecfb5c8a9ff06281226b2730612fddc2ef5fa964f6",
    ]


@pytest.mark.parametrize(
    "piece, cap", [(5, 5), (5, 20), (8, 32), (3, 48), (kernels.PIECE, kernels.CAP)]
)
def test_squares_cover_every_pair_once(piece, cap, monkeypatch):
    # the band (smaller index below PIECE) and the squares listed at
    # t = 1..order + 1 together hold every pair (m, n - m) with both
    # indices >= 1 and n <= order exactly once, and each square's inputs,
    # the last of which has index t - 1, are final before its first output
    monkeypatch.setattr(kernels, "PIECE", piece)
    monkeypatch.setattr(kernels, "CAP", cap)
    order = 3 * cap + 2 * piece + 1
    pairs = [(m, r) for m in range(1, order) for r in range(1, order + 1 - m)]
    seen = {(m, r): 1 for m, r in pairs if min(m, r) < piece}
    for t in range(1, order + 2):
        for i, j, s in kernels._squares(t, order):
            assert s <= min(i, j) and max(i, j) + s == t and i + j <= order
            blocks = [(i, j)] if i == j else [(i, j), (j, i)]
            for u, v in blocks:
                for m in range(u, u + s):
                    for r in range(v, min(v + s, order + 1 - m)):
                        seen[m, r] = seen.get((m, r), 0) + 1
    assert set(seen) == set(pairs)
    assert [pair for pair, times in seen.items() if times != 1] == []


def test_shipped_cap_is_piece_times_a_power_of_two():
    # the strips double from PIECE and must end exactly at CAP
    ratio, rest = divmod(kernels.CAP, kernels.PIECE)
    assert rest == 0 and ratio >= 1 and ratio & (ratio - 1) == 0


def test_solve_b_matches_reference_at_size(monkeypatch):
    # at order 600 the widest squares of p = 11 pass the crossover
    # with the shipped settings
    calls = []
    at_plus_minus = kernels._at_plus_minus
    monkeypatch.setattr(
        kernels, "_at_plus_minus", lambda *args: calls.append(1) or at_plus_minus(*args)
    )
    want_c, got_c = [], []
    assert kernels.solve_b(11, 600, got_c) == solve_b_reference(11, 600, want_c)
    assert got_c == want_c
    assert calls


# non-negative coefficients: small and large, zeros, all nines, and
# values past the interpreter's 4300-digit limit for int <-> str
_coeffs = st.lists(
    st.one_of(
        st.integers(0, 10**40),
        st.just(0),
        st.integers(1, 60).map(lambda d: 10**d - 1),
        st.integers(4290, 4400).map(lambda d: 10**d - 1),
        st.integers(10**4300, 10**4400),
    ),
    min_size=1,
    max_size=12,
)


@given(_coeffs, _coeffs, st.data())
def test_block_product_matches_int_loop(a, b, data):
    # a second term, of other lengths, summed into the same slots
    a2 = data.draw(st.lists(st.integers(0, 10**40), max_size=len(a)))
    b2 = data.draw(st.lists(st.integers(0, 10**4400), max_size=len(b)))
    size = len(a) + len(b) - 1
    # outputs from start on, possibly past the product's last coefficient
    start = data.draw(st.integers(0, 3))
    stop = data.draw(st.integers(start, start + size + 1))
    length = start + size + 1
    for terms in ([(a, b)], [(a, b), (a2, b2)]):
        want = [sum(h) for h in zip(*(convolve(x, z, size - 1) for x, z in terms))]
        want += [0] * (length - size)
        for crossover in (0, 10**18):
            out = [1] * length
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "DECIMAL_CROSSOVER", crossover)
                kernels.add_products(out, start, stop, terms)
            expected = [1 + want[n - start] if start <= n < stop else 1 for n in range(length)]
            # indices, not values: the values can pass the 4300-digit limit of repr
            assert [n for n in range(length) if out[n] != expected[n]] == []


# up to 40 coefficients: a request for at most the lower half of a
# product splits at least twice before its pieces are whole products
_long = st.lists(st.integers(0, 10**30), min_size=1, max_size=40)


@given(_long, _long, st.data())
def test_cut_product_matches_int_loop(a, b, data):
    # a second term of other lengths; only outputs in the lower half
    a2 = data.draw(_long.filter(lambda c: len(c) != len(a)))
    b2 = data.draw(_long.filter(lambda c: len(c) != len(b)))
    size = len(a) + len(b) - 1
    start = data.draw(st.integers(0, 3))
    stop = data.draw(st.integers(start + 1, start + max(1, size // 2)))
    length = start + size + 1
    for terms in ([(a, b)], [(a, b), (a2, b2)]):
        want = [sum(h) for h in zip(*(convolve(x, z, stop - start - 1) for x, z in terms))]
        # a crossover of 0 splits every such request, one of 10^18 none
        for crossover in (0, 10**18):
            out = [1] * length
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "DECIMAL_CROSSOVER", crossover)
                kernels.add_products(out, start, stop, terms)
            expected = [1 + want[n - start] if start <= n < stop else 1 for n in range(length)]
            assert out == expected, (len(terms), crossover)


def _pair_loop_depths(monkeypatch):
    """A list that gains, per pair loop, how deep in add_products it runs.

    Depth 1 is a square of _online looped whole; 2 and more, a piece
    of a square that add_products split.
    """
    depth, loops = [0], []
    add_products, pair_loop = kernels.add_products, kernels._pair_loop

    def nested(*args):
        depth[0] += 1
        try:
            add_products(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(kernels, "add_products", nested)
    monkeypatch.setattr(
        kernels, "_pair_loop", lambda *args: loops.append(depth[0]) or pair_loop(*args)
    )
    return loops


def test_cut_squares_take_the_route_of_their_digits(monkeypatch):
    # the same cut squares are looped whole at order 250, below the
    # crossover, and split at order 1000, past it: every pair loop there
    # multiplies a piece of a split square
    _take_path(monkeypatch, "one-process")
    loops = _pair_loop_depths(monkeypatch)
    kernels.solve_b(11, 250)
    assert loops and set(loops) == {1}
    loops.clear()
    kernels.solve_b(11, 1000)
    assert loops and min(loops) >= 2


def test_each_coefficient_is_converted_once_per_pass(monkeypatch):
    # every text a Decimal square reads comes from the memo of its
    # series and pass; a coefficient whose text is dropped and read
    # again would be converted twice.  Each text goes after the last
    # square that reads it, so every memo is empty when its pass ends
    _take_path(monkeypatch, "one-process")
    texts = kernels._texts
    memos, converted = {}, {}

    def counted(block):
        before = set(block.memo)
        got = texts(block)
        memos[id(block.memo)] = block.memo
        for n in block.memo.keys() - before:
            key = id(block.memo), n
            converted[key] = converted.get(key, 0) + 1
        return got

    monkeypatch.setattr(kernels, "_texts", counted)
    kernels.solve_b(11, 1000)
    # C and sums in the power pass, y and sums in the y pass
    assert len(memos) == 4
    assert converted and max(converted.values()) == 1
    assert [len(memo) for memo in memos.values()] == [0] * 4


@pytest.mark.parametrize("crossover", [0, 10**18])
def test_block_product_rejects_a_negative_input(crossover, monkeypatch):
    monkeypatch.setattr(kernels, "DECIMAL_CROSSOVER", crossover)
    with pytest.raises(kernels.IntegrityError, match="negative"):
        kernels.add_products([0] * 3, 0, 3, [([1, 1], [1, 1]), ([1, -1], [1, 1])])


def test_convolve_short_operands():
    # the reference product: truncation order may exceed the data, and
    # missing coefficients are zero
    assert convolve([1, 1], [1, 1], 4) == [1, 2, 1, 0, 0]
    assert convolve([2], [3, 4], 2) == [6, 8, 0]


def test_power_matches_series_pow():
    # b^3 and b^0 from the table's one power route, the online kernel
    # over the logarithmic derivative of b
    table = compute_b(GonalParams(3), 4)
    coeffs = table.int_coeffs(1)
    assert coeffs == [1, 1, 3, 10, 39]
    want = Series.from_coeffs(coeffs, 4).pow(3)
    assert table.int_coeffs(3) == [int(c) for c in want.coeffs]
    assert table.int_coeffs(0, 3)[:4] == [1, 0, 0, 0]


@given(st.integers(2, 12), st.integers(0, 12), st.integers(0, 30))
def test_power_is_repeated_convolution(k, e, order):
    table = compute_b(GonalParams(k), order)
    a = table.int_coeffs(1)
    want = [1] + [0] * order
    for _ in range(e):
        want = convolve(want, a, order)
    assert table.int_coeffs(e) == want


def test_power_matches_the_power_rule_at_size(monkeypatch):
    # at k = 12 some squares of b^j to index 499 pass DECIMAL_CROSSOVER,
    # so this covers the Decimal products of the power route
    decimal_packs = []
    pack = kernels._at_plus_minus

    def spy(coeffs, half):
        decimal_packs.append(len(coeffs))
        return pack(coeffs, half)

    table = compute_b(GonalParams(12), 499)
    b = table.int_coeffs(1)
    monkeypatch.setattr(kernels, "_at_plus_minus", spy)
    for j in (2, 6, 11):
        assert table.int_coeffs(j) == power(b, j, 499), j
    assert decimal_packs, "no square of the power route went through Decimal"


@given(
    st.lists(st.integers(0, 10**6), min_size=1).filter(lambda a: a[0] != 1),
)
def test_power_rejects_constant_term(a):
    # powers are built only for a b whose constant term is 1
    with pytest.raises(kernels.IntegrityError):
        BTable(GonalParams(3), a, list(a))


def test_power_validation():
    table = compute_b(GonalParams(3), 3)
    with pytest.raises(ValueError):
        BTable(GonalParams(3), [], [])
    with pytest.raises(ValueError):
        table.int_coeffs(-1)
    with pytest.raises(IndexError):
        table.int_coeffs(3, -1)


def test_power_checks_its_division():
    # a non-integer b^{k-1} leaves a remainder in the online kernel's
    # division by n: L_2 = 2 C_1 + C_0 = 2, so 2 (b^3)_2 = 3 (1 3 + 2)
    # is odd.  The check is an exception rather than an assert, so it
    # also runs under -O
    table = BTable(GonalParams(3), [1, 1, 3], [1, Fraction(1, 2), 7])
    with pytest.raises(kernels.InexactDivisionError, match=r"b\^3 at n=2"):
        table.int_coeffs(3)


def _polya(weights, scatter=kernels.add_at_multiples):
    """y_0..y_len(weights) of exp(sum_i W(x^i)/i), W_n = weights[n-1].

    The online kernel against the divisor sums of W, each term added by
    its ready hook as soon as the kernel reaches it.
    """
    order = len(weights)
    y = [1] + [0] * order
    sums = [0] * (order + 1)

    def ready(n):
        scatter(sums, n + 1, (n + 1) * weights[n])

    kernels._online(y, sums, 1, "step", ready)
    return y


def test_polya_step_partition_numbers(monkeypatch):
    # W_n = 1 for every n is prod 1/(1 - x^n), the partition numbers
    assert _polya([1] * 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    # past the band, through the strips and the grid of squares, the
    # kernel matches the reference step for step
    monkeypatch.setattr(kernels, "PIECE", 4)
    monkeypatch.setattr(kernels, "CAP", 16)
    weights = [n % 5 for n in range(1, 81)]
    want = [1] + [0] * 80
    sums = [0] * 81
    for n in range(1, 81):
        want[n] = polya_step(sums, want, n, weights[n - 1], f"step {n}")
    assert _polya(weights) == want


def test_polya_step_checks_its_division():
    # W_1 = 1 gives y_1 = 1 and sums = [0, 1, 1]; with the scatter to
    # m = 2 lost, 2 y_2 = 1 leaves a remainder
    def first_only(sums, d, w):
        sums[d] += w

    with pytest.raises(kernels.InexactDivisionError, match="step at n=2"):
        _polya([1, 0], first_only)


def test_polya_step_rejects_a_negative_count():
    with pytest.raises(kernels.IntegrityError, match="step at n=1 is negative"):
        _polya([-1])
