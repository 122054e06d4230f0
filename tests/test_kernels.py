"""Integer kernels: anchors, the solve against its reference, block
products, the power rule and the division checks."""

import hashlib
import os
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgonal import cli, forked, kernels
from fraction_series import Series
from reference_solve import convolve, solve_b_reference


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
    assert c == kernels.power(b, 2, 8)


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
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _count_forks(monkeypatch):
    """A list that gains one item per solve_b that forks."""
    forks = []
    solve_b = forked.solve_b
    monkeypatch.setattr(forked, "solve_b", lambda *args: forks.append(1) or solve_b(*args))
    return forks


def _assert_no_child_left():
    # every child of this process has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
            _assert_no_child_left()
            assert got_c == want_c, (p, cap)
            # without power_out, C still arrives and is dropped
            assert kernels.solve_b(p, 120) == want, (p, cap)
            _assert_no_child_left()
    assert len(forks) == (12 if path == "forked" else 0)


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
        _assert_no_child_left()
        assert type(caught.value) is kernels.InexactDivisionError
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("power update at n=3: remainder")


def test_forked_power_pass_error_is_a_cli_error_line(monkeypatch, capsys):
    _break_power_pass(monkeypatch)
    _take_path(monkeypatch, "forked")
    assert cli.main(["count", "--k", "3", "--family", "b", "--order", "100"]) == 1
    _assert_no_child_left()
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
    _assert_no_child_left()


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
    _assert_no_child_left()


def test_fork_threshold(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # the solves of table-deep (order 250) and constants-sweep (order
    # 500) stay in one process; the order-1000 solve of constants --p 11
    # forks
    for p in range(1, 12):
        assert not kernels._fork_pays(p, 250)
        assert not kernels._fork_pays(p, 500)
    assert kernels._fork_pays(11, 1000)
    assert kernels._fork_pays(1, cli.ORDER_CEILING)
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
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = _count_forks(monkeypatch)
    c = []
    b = kernels.solve_b(11, 1000, c)
    _assert_no_child_left()
    assert forks == [1]
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
    base = data.draw(st.integers(0, 3))
    size = base + len(a) + len(b) - 1
    start = data.draw(st.integers(0, size))
    stop = data.draw(st.integers(start, size))
    top = len(a) + len(b) - 2
    for terms in ([(a, b)], [(a, b), (a2, b2)]):
        want = [0] * base + [sum(h) for h in zip(*(convolve(x, z, top) for x, z in terms))]
        for crossover in (0, 10**18):
            out = [1] * size
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "DECIMAL_CROSSOVER", crossover)
                kernels.add_products(out, start, stop, base, terms)
            expected = [1 + want[n] if start <= n < stop else 1 for n in range(size)]
            # indices, not values: the values can pass the 4300-digit limit of repr
            assert [n for n in range(size) if out[n] != expected[n]] == []


@pytest.mark.parametrize("crossover", [0, 10**18])
def test_block_product_rejects_a_negative_input(crossover, monkeypatch):
    monkeypatch.setattr(kernels, "DECIMAL_CROSSOVER", crossover)
    with pytest.raises(kernels.IntegrityError, match="negative"):
        kernels.add_products([0] * 3, 0, 3, 0, [([1, 1], [1, 1]), ([1, -1], [1, 1])])


def test_convolve_short_operands():
    # the reference product: truncation order may exceed the data, and
    # missing coefficients are zero
    assert convolve([1, 1], [1, 1], 4) == [1, 2, 1, 0, 0]
    assert convolve([2], [3, 4], 2) == [6, 8, 0]


def test_power_matches_series_pow():
    coeffs = [1, 1, 3, 10, 39]
    got = kernels.power(coeffs, 3, 4)
    want = Series.from_coeffs(coeffs, 4).pow(3)
    assert got == [int(c) for c in want.coeffs]
    assert kernels.power(coeffs, 0, 3) == [1, 0, 0, 0]


@given(
    st.lists(st.integers(-(10**6), 10**6), max_size=30),
    st.integers(0, 15),
    st.integers(0, 30),
)
def test_power_is_repeated_convolution(tail, e, order):
    a = [1] + tail
    want = [1] + [0] * order
    for _ in range(e):
        want = convolve(want, a, order)
    assert kernels.power(a, e, order) == want


@given(
    st.lists(st.integers(), min_size=1).filter(lambda a: a[0] != 1),
    st.integers(0, 15),
    st.integers(0, 30),
)
def test_power_rejects_constant_term(a, e, order):
    with pytest.raises(ValueError):
        kernels.power(a, e, order)


def test_power_validation():
    with pytest.raises(ValueError):
        kernels.power([], 2, 3)
    with pytest.raises(ValueError):
        kernels.power([1, 1], -1, 3)
    with pytest.raises(ValueError):
        kernels.power([1, 1], 2, -1)


def test_power_checks_its_division():
    # a non-integer coefficient leaves a remainder the check must catch,
    # as an exception rather than an assert, so it also runs under -O
    with pytest.raises(kernels.InexactDivisionError):
        kernels.power([1, Fraction(1, 3)], 1, 2)



def _polya(weights):
    """y_0..y_len(weights) of exp(sum_i W(x^i)/i), W_n = weights[n-1]."""
    order = len(weights)
    y = [1] + [0] * order
    sums = [0] * (order + 1)
    for n in range(1, order + 1):
        y[n] = kernels.polya_step(sums, y, n, weights[n - 1], f"step {n}")
    return y


def test_polya_step_partition_numbers():
    # W_n = 1 for every n is prod 1/(1 - x^n), the partition numbers
    assert _polya([1] * 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_polya_step_checks_its_division():
    # W_1 = 1 gives y_1 = 1 and sums = [0, 1, 1]; with the scatter to
    # m = 2 lost, 2 y_2 = 1 leaves a remainder
    with pytest.raises(kernels.InexactDivisionError, match="step 2"):
        kernels.polya_step([0, 1, 0], [1, 1, 0], 2, 0, "step 2")


def test_polya_step_rejects_a_negative_count():
    with pytest.raises(kernels.IntegrityError, match="step 1 is negative"):
        _polya([-1])
