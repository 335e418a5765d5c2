"""Unit tests for the MIG partitioning model."""

import pytest

from repro.gpusim.mig import (
    MIG_COMPUTE_SLICES,
    MIG_PROFILES,
    MIGInstance,
    assign_slices,
    nearest_profile,
    partition,
)


class TestProfiles:
    def test_profile_fractions(self):
        inst = MIGInstance("3g.20gb", 3, 4)
        assert inst.sm_fraction == pytest.approx(3 / 7)

    def test_profile_table_covers_expected_sizes(self):
        sizes = {compute for _, compute, _ in MIG_PROFILES}
        assert sizes == {1, 2, 3, 4, 7}


class TestNearestProfile:
    def test_small_quota_gets_smallest_slice(self):
        assert nearest_profile(0.05).compute_slices == 1

    def test_half_quota_rounds_up_to_four(self):
        assert nearest_profile(0.5).compute_slices == 4

    def test_full_quota_gets_whole_gpu(self):
        assert nearest_profile(1.0).compute_slices == 7

    def test_invalid_quota_rejected(self):
        with pytest.raises(ValueError):
            nearest_profile(0.0)
        with pytest.raises(ValueError):
            nearest_profile(1.2)


class TestStrictPartition:
    def test_feasible_mix(self):
        instances = partition([1 / 7, 2 / 7, 3 / 7])
        assert sum(i.compute_slices for i in instances) <= MIG_COMPUTE_SLICES

    def test_infeasible_mix_raises(self):
        # Two half-GPU quotas round up to 4 + 4 = 8 > 7 slices.
        with pytest.raises(ValueError):
            partition([0.5, 0.5])


class TestAssignSlices:
    def test_even_pair_underprovisions(self):
        """50/50 becomes 3/7 + 3/7 (or similar) — MIG's key weakness."""
        instances = assign_slices([0.5, 0.5])
        total = sum(i.compute_slices for i in instances)
        assert total <= MIG_COMPUTE_SLICES
        assert all(i.sm_fraction < 0.5 for i in instances)

    def test_four_model_quota_menu(self):
        instances = assign_slices([0.10, 0.20, 0.30, 0.40])
        assert len(instances) == 4
        assert sum(i.compute_slices for i in instances) <= MIG_COMPUTE_SLICES
        assert all(i.compute_slices >= 1 for i in instances)

    def test_eight_apps_do_not_fit(self):
        with pytest.raises(ValueError):
            assign_slices([0.05] * 8)

    def test_clamps_to_valid_profile_sizes(self):
        instances = assign_slices([0.8, 0.1])
        for inst in instances:
            assert inst.compute_slices in (1, 2, 3, 4, 7)

    def test_empty_input(self):
        assert assign_slices([]) == []

    def test_invalid_quota_rejected(self):
        with pytest.raises(ValueError):
            assign_slices([0.5, -0.1])

    def test_single_full_gpu(self):
        [inst] = assign_slices([1.0])
        assert inst.compute_slices == 7
