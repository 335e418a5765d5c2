"""Unit tests for the kernel descriptors and the scaling model."""

import pickle

import pytest

from repro.gpusim.kernel import (
    DEFAULT_SERIAL_FRACTION,
    KernelInstance,
    KernelKind,
    KernelSpec,
)


def make_spec(**kwargs):
    defaults = dict(name="k", base_duration_us=100.0, sm_demand=0.8, mem_intensity=0.4)
    defaults.update(kwargs)
    return KernelSpec(**defaults)


class TestKernelSpecValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            make_spec(base_duration_us=-1.0)

    def test_zero_demand_rejected(self):
        with pytest.raises(ValueError):
            make_spec(sm_demand=0.0)

    def test_demand_above_one_rejected(self):
        with pytest.raises(ValueError):
            make_spec(sm_demand=1.5)

    def test_mem_intensity_bounds(self):
        with pytest.raises(ValueError):
            make_spec(mem_intensity=-0.1)
        with pytest.raises(ValueError):
            make_spec(mem_intensity=1.1)

    def test_serial_fraction_bounds(self):
        with pytest.raises(ValueError):
            make_spec(serial_fraction=1.0)
        with pytest.raises(ValueError):
            make_spec(serial_fraction=-0.1)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            make_spec(dispatch_gap_us=-5.0)

    def test_valid_spec_accepted(self):
        spec = make_spec()
        assert spec.is_compute
        assert not spec.is_memcpy


class TestKindPredicates:
    def test_h2d_is_memcpy(self):
        assert make_spec(kind=KernelKind.H2D).is_memcpy

    def test_d2h_is_memcpy(self):
        assert make_spec(kind=KernelKind.D2H).is_memcpy

    def test_sync_is_neither(self):
        spec = make_spec(kind=KernelKind.SYNC)
        assert not spec.is_compute
        assert not spec.is_memcpy


class TestDurationScaling:
    def test_full_demand_gives_base_duration(self):
        spec = make_spec(sm_demand=0.8)
        assert spec.duration_at(0.8) == pytest.approx(100.0)

    def test_more_sms_than_demand_no_speedup(self):
        spec = make_spec(sm_demand=0.5)
        assert spec.duration_at(1.0) == pytest.approx(spec.duration_at(0.5))

    def test_half_sms_slows_down(self):
        spec = make_spec(sm_demand=1.0)
        expected = 100.0 * (DEFAULT_SERIAL_FRACTION + (1 - DEFAULT_SERIAL_FRACTION) * 2)
        assert spec.duration_at(0.5) == pytest.approx(expected)

    def test_monotonically_nonincreasing_in_sms(self):
        spec = make_spec(sm_demand=0.9)
        fractions = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
        durations = [spec.duration_at(f) for f in fractions]
        assert durations == sorted(durations, reverse=True)

    def test_zero_fraction_rejected(self):
        with pytest.raises(ValueError):
            make_spec().duration_at(0.0)

    def test_serial_fraction_limits_slowdown(self):
        spec = make_spec(sm_demand=1.0, serial_fraction=0.5)
        # Even at 1% of the GPU, the serial half never stretches.
        assert spec.duration_at(0.01) == pytest.approx(100.0 * (0.5 + 0.5 * 100))

    def test_memcpy_insensitive_to_sms(self):
        spec = make_spec(kind=KernelKind.H2D)
        assert spec.duration_at(0.01) == spec.duration_at(1.0) == 100.0


class TestRateAndBandwidth:
    def test_rate_at_full_demand_is_one(self):
        assert make_spec(sm_demand=0.7).rate_at(0.7) == pytest.approx(1.0)

    def test_rate_below_one_when_starved(self):
        assert make_spec(sm_demand=1.0).rate_at(0.25) < 1.0


class TestKernelInstance:
    def test_remaining_work_initialised(self):
        inst = KernelInstance(make_spec())
        assert inst.remaining_work == pytest.approx(100.0)
        assert not inst.done

    def test_unique_uids(self):
        a, b = KernelInstance(make_spec()), KernelInstance(make_spec())
        assert a.uid != b.uid
        assert a != b
        assert a == a

    def test_done_predicate(self):
        inst = KernelInstance(make_spec())
        inst.remaining_work = 0.0
        assert inst.done

    def test_name_delegates_to_spec(self):
        assert KernelInstance(make_spec(name="conv1")).name == "conv1"

    def test_hashable(self):
        inst = KernelInstance(make_spec())
        assert inst in {inst}

    def test_pickle_round_trip(self):
        inst = KernelInstance(make_spec(name="conv1"), app_id="a", request_id=7, seq=3)
        inst.remaining_work = 12.5
        inst.start_time = 4.0
        copy = pickle.loads(pickle.dumps(inst))
        assert copy == inst and copy is not inst
        assert copy.uid == inst.uid
        for name in KernelInstance.__slots__:
            assert getattr(copy, name) == getattr(inst, name)

    def test_undeclared_attribute_raises(self):
        inst = KernelInstance(make_spec())
        assert not hasattr(inst, "__dict__")
        with pytest.raises(AttributeError):
            inst.traced_context_id = 0
