"""Unit tests for the interference model's calibration anchors."""

import pytest

from repro.gpusim.interference import MAX_SLOWDOWN, slowdowns


def pair_slowdown(m_self, m_other, restricted=False):
    """Slowdown of the first of two co-running kernels (Fig. 9(a))."""
    return slowdowns([(m_self, restricted), (m_other, restricted)])[0]


class TestValidation:
    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            slowdowns([(-0.1, False)])


class TestSoloExecution:
    def test_solo_kernel_unaffected(self):
        assert slowdowns([(0.9, False)]) == [pytest.approx(1.0)]


class TestFig9Anchors:
    def test_extreme_pair_capped_at_two(self):
        """Fig. 9(a): slowdown <= 2x even vs a memory hog."""
        slowdown = pair_slowdown(1.0, 1.0)
        assert slowdown == pytest.approx(MAX_SLOWDOWN)
        assert slowdown <= 2.0

    def test_moderate_restricted_pair_near_seven_percent(self):
        """Fig. 9(b): typical app kernels on MPS partitions ~7%."""
        slowdown = pair_slowdown(0.5, 0.5, restricted=True)
        assert 1.03 < slowdown < 1.12

    def test_slowdown_monotone_in_pressure(self):
        values = [pair_slowdown(0.8, p) for p in (0.1, 0.3, 0.5, 0.8, 1.0)]
        assert values == sorted(values)

    def test_slowdown_monotone_in_own_intensity(self):
        values = [pair_slowdown(m, 0.8) for m in (0.1, 0.3, 0.5, 0.8)]
        assert values == sorted(values)


class TestPartitionAwareness:
    def test_restricted_cheaper_than_scattered(self):
        scattered = pair_slowdown(0.5, 0.5, restricted=False)
        pinned = pair_slowdown(0.5, 0.5, restricted=True)
        assert pinned < scattered

    def test_single_scattered_kernel_counts_as_restricted(self):
        """One unrestricted kernel next to a pinned one fills the
        complement — it must not pay the scattered coupling."""
        values = slowdowns([(0.5, False), (0.5, True)])
        pinned_pair = slowdowns([(0.5, True), (0.5, True)])
        assert values[0] == pytest.approx(pinned_pair[0])

    def test_two_scattered_kernels_pay_full_coupling(self):
        scattered = slowdowns([(0.5, False), (0.5, False)])
        pinned = slowdowns([(0.5, True), (0.5, True)])
        assert scattered[0] > pinned[0]

    def test_restricted_kernel_never_pays_scattered_rate(self):
        mixed = slowdowns([(0.5, True), (0.5, False), (0.5, False)])
        assert mixed[0] < mixed[1]


class TestBounds:
    def test_all_slowdowns_at_least_one(self):
        for values in (
            slowdowns([(0.0, False), (1.0, False)]),
            slowdowns([(1.0, True)] * 5),
        ):
            assert all(v >= 1.0 for v in values)

    def test_all_slowdowns_capped(self):
        values = slowdowns([(1.0, False)] * 8)
        assert all(v <= MAX_SLOWDOWN for v in values)
