"""Plane-partition enumerators: frozen counts and the generating-series bridge."""

import pytest

from arithdt.errors import ArithdtError
from arithdt.partitions import (
    count_plane_partitions,
    count_symmetric_plane_partitions,
    is_transpose_symmetric,
    plane_partitions,
    verify_macmahon,
    verify_symmetric,
)

# frozen from exhaustive enumeration
PP = [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479]
SPP = [1, 1, 1, 2, 3, 4, 6, 8, 12, 16, 22, 29, 41]


def test_counts_match_frozen_values():
    assert [count_plane_partitions(n) for n in range(13)] == PP
    assert [count_symmetric_plane_partitions(n) for n in range(13)] == SPP


def test_the_six_plane_partitions_of_three():
    pps = set(plane_partitions(3))
    assert pps == {
        ((3,),),
        ((2, 1),),
        ((2,), (1,)),
        ((1, 1, 1),),
        ((1, 1), (1,)),
        ((1,), (1,), (1,)),
    }


def test_partitions_are_weakly_decreasing_both_ways():
    for pp in plane_partitions(6):
        for row in pp:
            assert all(row[i] >= row[i + 1] for i in range(len(row) - 1))
        for upper, lower in zip(pp, pp[1:]):
            assert len(lower) <= len(upper)
            assert all(lower[j] <= upper[j] for j in range(len(lower)))
        assert sum(map(sum, pp)) == 6


def test_symmetry_detection():
    assert is_transpose_symmetric(((2,),))
    assert is_transpose_symmetric(((1, 1), (1,)))
    assert not is_transpose_symmetric(((1, 1),))
    assert [p for p in plane_partitions(2) if is_transpose_symmetric(p)] == [((2,),)]


def test_count_monotonicity_and_domination():
    for n in range(1, 13):
        assert count_plane_partitions(n) >= count_symmetric_plane_partitions(n)
        assert count_plane_partitions(n) >= count_plane_partitions(n - 1)
        assert count_symmetric_plane_partitions(n) >= count_symmetric_plane_partitions(n - 1)


def test_verify_reports():
    assert verify_macmahon(6).agrees
    assert verify_macmahon(0).agrees
    assert verify_symmetric(10).agrees
    report = verify_macmahon(10)
    assert report.first_mismatch is None
    assert "agreement" in str(report)


def test_enumeration_caps():
    with pytest.raises(ArithdtError):
        count_plane_partitions(15)
    with pytest.raises(ArithdtError):
        verify_macmahon(13)
    with pytest.raises(ArithdtError):
        count_plane_partitions(-1)


@pytest.mark.parametrize("verify", [verify_macmahon, verify_symmetric])
@pytest.mark.parametrize("order", [-1, -4])
def test_a_negative_order_is_refused(verify, order):
    # as plane_partitions refuses a negative n: there is no agreement to report
    with pytest.raises(ArithdtError, match="nonnegative"):
        verify(order)
