"""Labelled closed forms and the Burnside route to b."""

import pickle

import pytest

from kgonal import labelled
from kgonal.bseries import GonalParams, compute_b
from kgonal.kernels import IntegrityError
from kgonal.labelled import (
    CycleType,
    burnside_b,
    fixed_point_count,
    labelled_oriented,
    labelled_rooted,
    labelled_unoriented,
)


def test_labelled_rooted():
    assert labelled_rooted(GonalParams(3), 2) == 5
    assert labelled_rooted(GonalParams(4), 3) == 100
    for k in (2, 3, 7):
        assert labelled_rooted(GonalParams(k), 1) == 1
        assert labelled_rooted(GonalParams(k), 0) == 1


def test_cycle_type():
    t = CycleType.from_parts((2, 1, 1))
    assert t.counts == (2, 1)
    assert sum(i * c for i, c in enumerate(t.counts, start=1)) == 4
    assert CycleType.from_parts((1, 1, 1)).counts == (3,)
    assert t.sigma(2) == 4
    assert t.sigma(2, drop_own=True) == 2


def test_cycle_types_are_values():
    t = CycleType((2, 1))
    assert t == CycleType.from_parts((2, 1, 1))
    assert t != CycleType((1, 2))
    assert hash(t) == hash(CycleType.from_parts((1, 2, 1))) == hash(((2, 1),))
    assert len({t, CycleType((2, 1)), CycleType(())}) == 2
    assert repr(t) == "CycleType(counts=(2, 1))"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(t, protocol))
        assert type(copy) is CycleType
        assert copy == t
    with pytest.raises(AttributeError):
        t.counts = (3,)
    with pytest.raises(AttributeError):
        del t.counts
    with pytest.raises(AttributeError):
        t.size = 4
    assert t.counts == (2, 1)
    with pytest.raises(ValueError, match="cycle counts must be non-negative"):
        CycleType((1, -1))


def test_fixed_points_identity_type():
    for k in (2, 3, 5):
        for n in range(1, 7):
            assert fixed_point_count(GonalParams(k), CycleType((n,))) == labelled_rooted(
                GonalParams(k), n
            )


def test_fixed_points_single_cycles():
    assert fixed_point_count(GonalParams(3), CycleType.from_parts((2,))) == 1
    for k in (3, 4, 6):
        for n in (2, 3, 5):
            assert fixed_point_count(GonalParams(k), CycleType.from_parts((n,))) == 1


def test_labelled_oriented():
    assert labelled_oriented(GonalParams(3), 3) == 7
    assert labelled_oriented(GonalParams(5), 2) == 1
    for k in (3, 4):
        params = GonalParams(k)
        for n in range(2, 7):
            assert labelled_rooted(params, n) == params.m(n) * labelled_oriented(params, n)


def test_labelled_unoriented():
    assert labelled_unoriented(GonalParams(3), 2) == 1
    assert labelled_unoriented(GonalParams(4), 2) == 1
    assert labelled_unoriented(GonalParams(4), 3) == 7
    for n in (0, 1):
        assert labelled_unoriented(GonalParams(6), n) == 1


def test_unoriented_bounds():
    for k in (3, 4, 5, 6):
        params = GonalParams(k)
        for n in range(2, 9):
            a = labelled_unoriented(params, n)
            a_o = labelled_oriented(params, n)
            assert a <= a_o
            assert 2 * a - a_o >= 0


def test_even_k_symmetric_residue():
    for k in (2, 4, 6, 8):
        params = GonalParams(k)
        for n in range(2, 9):
            residue = 2 * labelled_unoriented(params, n) - params.m(n) ** (n - 2)
            assert residue == (n + 1) ** (n - 2)


def test_burnside_anchors():
    assert burnside_b(GonalParams(3), 2) == 3
    assert burnside_b(GonalParams(3), 3) == 10
    for k in (2, 4, 9):
        assert burnside_b(GonalParams(k), 1) == 1
        assert burnside_b(GonalParams(k), 0) == 1


def test_burnside_matches_series():
    # acceptance widens this to k <= 8, n <= 10
    for k in (2, 3, 4, 5):
        params = GonalParams(k)
        b = compute_b(params, 8).int_coeffs(1)
        for n in range(9):
            assert burnside_b(params, n) == b[n], (k, n)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_burnside_rejects_inexact_average(n, monkeypatch):
    # one more fixed point of the identity, whose n!/z is 1, leaves the
    # sum one past a multiple of n!; raising every type's count by one
    # would add sum n!/z = n! and go unseen
    params = GonalParams(3)
    fixed = labelled.fixed_point_count
    identity = CycleType((n,))
    monkeypatch.setattr(
        labelled, "fixed_point_count", lambda p, t: fixed(p, t) + (t == identity)
    )
    with pytest.raises(IntegrityError, match=f"Burnside average at n={n}:"):
        burnside_b(params, n)


def test_validation():
    with pytest.raises(ValueError):
        labelled_rooted(GonalParams(3), -1)
    with pytest.raises(ValueError):
        CycleType((-1,))
