"""Brute-force enumeration against the series and symmetry routes."""

import gc
import weakref

import pytest

from kgonal.bseries import GonalParams, compute_b
from kgonal.cli import family_counts
from kgonal import oracle
from kgonal.oracle import count_structures
from kgonal.oriented import oriented_series, reversal_fixed, unlabelled_series
import decoded_oracle
from decoded_oracle import enumerate_b, reversal
from unrooted_oracle import unrooted_count


def polygon_count(s) -> int:
    """Polygons in a canonical structure: one per page plus its children's."""
    return sum(1 + sum(polygon_count(c) for c in page) for page in s)


def test_single_polygon():
    for k in (2, 3, 4, 6):
        structures = enumerate_b(GonalParams(k), 1)
        assert len(structures) == 1
        (s,) = structures
        assert polygon_count(s) == 1
        assert count_structures(GonalParams(k), 1)[1][1] == 1


def test_two_polygons_k3():
    assert len(enumerate_b(GonalParams(3), 2)) == 3


def test_two_polygons_k4():
    structures = enumerate_b(GonalParams(4), 2)
    assert len(structures) == 4
    assert count_structures(GonalParams(4), 2)[2][1] == 2


def test_k3_two_polygon_orbit():
    # the two one-child pages swap under reversal, the others are fixed
    structures = enumerate_b(GonalParams(3), 2)
    moved = [s for s in structures if reversal(s) != s]
    assert len(moved) == 2
    assert {reversal(s) for s in moved} == set(moved)


def test_cardinalities_match_b():
    # acceptance widens this to n <= 6
    for k in (2, 3, 4, 5):
        params = GonalParams(k)
        b = compute_b(params, 5).int_coeffs(1)
        for n in range(6):
            assert len(enumerate_b(params, n)) == b[n], (k, n)


def test_reversal_involution_and_size():
    for k in (3, 4):
        for n in range(5):
            for s in enumerate_b(GonalParams(k), n):
                image = reversal(s)
                assert polygon_count(image) == n
                assert reversal(image) == s


def test_fixed_counts_match_even_alpha():
    for k in (4, 6):
        params = GonalParams(k)
        alpha = reversal_fixed(compute_b(params, 5))
        counts = count_structures(params, 5)
        for n in range(6):
            assert counts[n][1] == alpha[n], (k, n)


def test_fixed_counts_match_odd_symmetric():
    for k in (3, 5):
        params = GonalParams(k)
        sym = reversal_fixed(compute_b(params, 5))
        counts = count_structures(params, 5)
        for n in range(6):
            assert counts[n][1] == sym[n], (k, n)


def test_edge_rooted_identity_k4():
    params = GonalParams(4)
    table = compute_b(params, 3)
    rooted = family_counts(4, "edge-rooted-unlabelled", 3)
    b = table.int_coeffs(1)
    count = count_structures(params, 3)[3][1]
    assert (b[3] + count) // 2 == rooted[3] == 12


def test_validation():
    with pytest.raises(ValueError):
        enumerate_b(GonalParams(3), -1)


def test_edge_rooted_orbit_count_k3():
    # Orbits of reversal acting on the edge-rooted structures equal the
    # edge-rooted count: (|all| + |fixed|) / 2.
    params = GonalParams(3)
    row = family_counts(3, "edge-rooted-unlabelled", 4)
    counts = count_structures(params, 4)
    for n in range(5):
        total = len(enumerate_b(params, n))
        fixed = counts[n][1]
        assert (total + fixed) % 2 == 0
        assert (total + fixed) // 2 == int(row[n])


def _page_text(page) -> str:
    return "[" + "".join("(" + "".join(map(_page_text, c)) + ")" for c in page) + "]"


def _plain_reversal(s):
    """Reversal with no memo and no cache: flip, recurse, sort the pages."""
    pages = (tuple(_plain_reversal(c) for c in reversed(page)) for page in s)
    return tuple(sorted(pages, key=lambda page: (len(_page_text(page)), _page_text(page))))


@pytest.mark.parametrize("k", range(2, 8))
def test_memoized_count_matches_plain_reversal(k):
    params = GonalParams(k)
    counts = count_structures(params, 5)
    for n in range(6):
        structures = enumerate_b(params, n)
        fixed = sum(reversal(s) == s for s in structures)
        assert counts[n][1] == fixed, (k, n)
        assert fixed == sum(_plain_reversal(s) == s for s in structures), (k, n)


@pytest.mark.parametrize("k", range(2, 8))
def test_enumeration_is_canonical_as_drawn(k):
    # a page of s polygons serializes to 2k*s characters, and every
    # decoded structure lists its pages in canonical order
    params = GonalParams(k)
    for n in range(6):
        for s in enumerate_b(params, n):
            assert s == decoded_oracle._canonical(s)
            for page in s:
                assert len(decoded_oracle._serialize_page(page)) == 2 * k * polygon_count((page,))


@pytest.mark.parametrize("k", range(2, 8))
def test_streamed_counts_match_enumeration(k):
    # sizes 0..4 are counted from the stored structures, size 5 streamed
    params = GonalParams(k)
    want = []
    for m in range(6):
        structures = enumerate_b(params, m)
        want.append((len(structures), sum(_plain_reversal(s) == s for s in structures)))
    assert count_structures(params, 5) == want


def test_count_stores_nothing_of_its_own_size():
    # size n is streamed: after counting it only the children, of sizes
    # below n, are stored
    for k in (3, 6):
        b = compute_b(GonalParams(k), 5).int_coeffs(1)
        for n in range(6):
            enumerator = oracle._Enumerator(k, n)
            assert enumerator.count()[n][0] == b[n]
            assert len(enumerator.struct_range) == max(n, 1)
            assert len(enumerator.structs) == sum(b[: max(n, 1)])


def test_count_validation():
    with pytest.raises(ValueError):
        count_structures(GonalParams(3), -1)


def test_count_leaves_no_module_level_memo(monkeypatch):
    # every enumerator of a count, with its stored structures and its
    # reversal tables, is freed when the count returns, and the module's
    # names still point at the objects they held before
    enumerators = []

    class Recorded(oracle._Enumerator):
        def __init__(self, k, n):
            super().__init__(k, n)
            enumerators.append(weakref.ref(self))

    params = GonalParams(6)
    want = (compute_b(params, 5).int_coeffs(1)[5], reversal_fixed(compute_b(params, 5))[5])
    monkeypatch.setattr(oracle, "_Enumerator", Recorded)
    names = {name: id(value) for name, value in vars(oracle).items()}
    assert count_structures(params, 5)[5] == want
    gc.collect()
    assert len(enumerators) == 1
    assert all(ref() is None for ref in enumerators)
    assert {name: id(value) for name, value in vars(oracle).items()} == names


@pytest.mark.parametrize("k", range(3, 7))
def test_unrooted_count_matches_unlabelled_series(k):
    # the only check of a_n against enumeration; n <= 6 also matched, in
    # 1.6 s for the four k
    params = GonalParams(k)
    want = unlabelled_series(compute_b(params, 5))
    assert [unrooted_count(params, n) for n in range(6)] == want


@pytest.mark.parametrize("k", range(3, 7))
def test_oriented_unrooted_count_matches_oriented_series(k):
    # the only check of a_{o,n} against enumeration: re-rooting along the
    # orientation alone; a_o differs from a from n = 4 on at every k here
    params = GonalParams(k)
    want = oriented_series(compute_b(params, 5))
    assert [unrooted_count(params, n, oriented=True) for n in range(6)] == want
