"""Unit and property tests for load traces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.loadgen.diurnal import DiurnalTrace, diurnal_shape
from repro.loadgen.mmpp import MMPPTrace
from repro.loadgen.traces import (
    ConcatTrace,
    ConstantTrace,
    RampTrace,
    ReplayTrace,
    SampledTrace,
    SpikeTrace,
    StepTrace,
)


class TestConstantAndStep:
    def test_constant(self):
        trace = ConstantTrace(0.5, 100)
        assert trace.load_at(0) == trace.load_at(99.9) == 0.5
        assert trace.n_intervals(1.0) == 100

    def test_step_sequence(self):
        trace = StepTrace([(10, 0.2), (5, 0.8)])
        assert trace.duration_s == 15
        assert trace.load_at(9.9) == 0.2
        assert trace.load_at(10.0) == 0.8
        assert trace.load_at(15.0) == 0.8  # clamped to the end

    def test_step_validation(self):
        with pytest.raises(ValueError):
            StepTrace([])
        with pytest.raises(ValueError):
            StepTrace([(0, 0.5)])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ConstantTrace(0.5, 10).load_at(-1)


class TestRampAndSpike:
    def test_figure8_ramp(self):
        trace = RampTrace(start_level=0.5, end_level=1.0, ramp_s=175.0)
        assert trace.load_at(0) == 0.5
        assert trace.load_at(87.5) == pytest.approx(0.75)
        assert trace.load_at(175.0) == 1.0

    def test_ramp_with_lead_and_hold(self):
        trace = RampTrace(0.2, 0.8, ramp_s=10, lead_s=5, hold_s=5)
        assert trace.duration_s == 20
        assert trace.load_at(4.9) == 0.2
        assert trace.load_at(19.9) == 0.8

    def test_spike(self):
        trace = SpikeTrace(
            base_level=0.3,
            spike_level=0.9,
            spike_start_s=10,
            spike_duration_s=5,
            duration_s=30,
        )
        assert trace.load_at(9.9) == 0.3
        assert trace.load_at(12.0) == 0.9
        assert trace.load_at(15.0) == 0.3

    def test_concat(self):
        trace = ConcatTrace([ConstantTrace(0.2, 10), RampTrace(0.5, 1.0, ramp_s=10)])
        assert trace.duration_s == 20
        assert trace.load_at(5) == 0.2
        assert trace.load_at(10.0) == 0.5
        assert trace.load_at(20.0) == 1.0


class TestDiurnal:
    def test_shape_spans_wide_range(self):
        x = np.linspace(0, 1, 500)
        shape = diurnal_shape(x)
        assert float(np.min(shape)) < 0.15
        assert float(np.max(shape)) > 0.85

    def test_trace_respects_bounds(self):
        trace = DiurnalTrace(duration_s=600, min_load=0.05, max_load=0.95)
        loads = [trace.load_at(t) for t in range(600)]
        assert all(0.0 <= load <= 1.0 for load in loads)
        assert min(loads) < 0.2
        assert max(loads) > 0.8

    def test_same_seed_same_trace(self):
        a = DiurnalTrace(duration_s=300, seed=5)
        b = DiurnalTrace(duration_s=300, seed=5)
        assert [a.load_at(t) for t in range(300)] == [b.load_at(t) for t in range(300)]

    def test_different_seed_differs(self):
        a = DiurnalTrace(duration_s=300, seed=5)
        b = DiurnalTrace(duration_s=300, seed=6)
        assert [a.load_at(t) for t in range(300)] != [b.load_at(t) for t in range(300)]

    def test_noise_is_smooth(self):
        """AR(1) noise: consecutive-second jumps stay small."""
        trace = DiurnalTrace(duration_s=600, seed=3)
        loads = np.array([trace.load_at(t) for t in range(600)])
        assert float(np.max(np.abs(np.diff(loads)))) < 0.12

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            DiurnalTrace(duration_s=100, min_load=0.9, max_load=0.5)

    @staticmethod
    def per_second_samples(trace: DiurnalTrace) -> np.ndarray:
        """The trace's samples with one scalar normal draw per second."""
        n = int(np.ceil(trace.duration_s)) + 1
        x = np.arange(n) / max(trace.duration_s, 1.0)
        scaled = trace.min_load + (trace.max_load - trace.min_load) * diurnal_shape(x)
        rng = np.random.default_rng(trace.seed)
        noise = np.empty(n)
        innovation_std = trace.noise_std * np.sqrt(1.0 - trace.noise_rho**2)
        noise[0] = rng.normal(0.0, trace.noise_std)
        for i in range(1, n):
            noise[i] = trace.noise_rho * noise[i - 1] + rng.normal(0.0, innovation_std)
        return np.clip(scaled + noise, 0.0, 1.0)

    @pytest.mark.parametrize("duration_s", [1.0, 2.5, 450.0, 1400.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_bulk_noise_draw_matches_per_second_draws(self, seed, duration_s):
        trace = DiurnalTrace(duration_s=duration_s, seed=seed)
        expected = self.per_second_samples(trace)
        assert trace._samples.tobytes() == expected.tobytes()

    def test_bulk_noise_draw_matches_with_custom_noise(self):
        trace = DiurnalTrace(duration_s=77.3, noise_std=0.2, noise_rho=0.35, seed=9)
        assert trace._samples.tobytes() == self.per_second_samples(trace).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(t=st.floats(min_value=0, max_value=10_000), seed=st.integers(0, 99))
    def test_load_always_in_unit_interval(self, t, seed):
        trace = DiurnalTrace(duration_s=1000, seed=seed)
        assert 0.0 <= trace.load_at(min(t, trace.duration_s)) <= 1.0


class TestLoadAtMany:
    """Vectorized lookahead: bit-identical to per-call load_at.

    The engine reads a whole run's interval-midpoint loads through
    ``load_at_many`` once, up front; every trace class overriding the
    per-element default with batched arithmetic must return the exact
    floats ``load_at`` would, or the decision-epoch fast path diverges
    from the scalar loop.
    """

    def traces(self):
        return [
            ConstantTrace(0.4, 120.0),
            StepTrace([(30.0, 0.1), (45.0, 0.8), (25.0, 0.3)]),
            RampTrace(start_level=0.2, end_level=0.9, ramp_s=60.0,
                      lead_s=10.0, hold_s=15.0),
            SampledTrace([0.1, 0.5, 0.2, 0.9, 0.05], interval_s=7.0),
            SpikeTrace(base_level=0.3, spike_level=1.0, spike_start_s=20.0,
                       spike_duration_s=5.0, duration_s=90.0),
            ConcatTrace([ConstantTrace(0.2, 30.0),
                         StepTrace([(20.0, 0.6), (20.0, 0.4)])]),
            DiurnalTrace(duration_s=200.0, seed=4),
            MMPPTrace(levels=(0.2, 0.9), mean_dwell_s=(25.0, 10.0),
                      duration_s=150.0, seed=3),
            ReplayTrace(times_s=(0.0, 10.0, 35.0, 80.0),
                        levels=(0.1, 0.7, 0.4, 0.9), interp="previous"),
            ReplayTrace(times_s=(0.0, 10.0, 35.0, 80.0),
                        levels=(0.1, 0.7, 0.4, 0.9), interp="linear"),
        ]

    def test_bit_identical_to_scalar_lookup(self):
        for trace in self.traces():
            dt = 1.0
            n = trace.n_intervals(dt)
            mids = np.arange(n, dtype=np.float64) * dt + dt / 2.0
            batched = trace.load_at_many(mids)
            scalar = np.array(
                [trace.load_at(float(t)) for t in mids], dtype=float
            )
            assert batched.tobytes() == scalar.tobytes(), type(trace).__name__

    def test_fractional_and_clamped_times(self):
        for trace in self.traces():
            times = np.array(
                [0.0, 0.25, 1.0 / 3.0, trace.duration_s / 2.0,
                 trace.duration_s - 1e-9, trace.duration_s,
                 trace.duration_s + 5.0]
            )
            batched = trace.load_at_many(times)
            scalar = np.array(
                [trace.load_at(float(t)) for t in times], dtype=float
            )
            assert batched.tobytes() == scalar.tobytes(), type(trace).__name__

    def test_negative_time_rejected(self):
        for trace in self.traces():
            with pytest.raises(ValueError):
                trace.load_at_many(np.array([1.0, -0.5]))

    def test_empty_query(self):
        trace = StepTrace([(10.0, 0.5)])
        assert trace.load_at_many(np.empty(0)).shape == (0,)

    @settings(max_examples=30, deadline=None)
    @given(
        times=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=40),
        levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_step_and_sampled_fuzz(self, times, levels):
        step = StepTrace([(13.0, lv) for lv in levels])
        sampled = SampledTrace(levels, interval_s=11.0)
        arr = np.asarray(times)
        for trace in (step, sampled):
            batched = trace.load_at_many(arr)
            scalar = np.array(
                [trace.load_at(float(t)) for t in arr], dtype=float
            )
            assert batched.tobytes() == scalar.tobytes()


class TestMMPP:
    def test_deterministic_per_seed(self):
        kwargs = dict(levels=(0.2, 0.6, 1.1), mean_dwell_s=(40.0, 20.0, 5.0),
                      duration_s=300.0)
        a = MMPPTrace(seed=7, **kwargs)
        b = MMPPTrace(seed=7, **kwargs)
        times = np.linspace(0.0, 300.0, 601)
        assert a.load_at_many(times).tobytes() == b.load_at_many(times).tobytes()
        c = MMPPTrace(seed=8, **kwargs)
        assert a.load_at_many(times).tobytes() != c.load_at_many(times).tobytes()

    def test_levels_come_from_the_state_set(self):
        trace = MMPPTrace(levels=(0.25, 0.75), mean_dwell_s=(10.0, 10.0),
                          duration_s=200.0, seed=1)
        seen = set(trace.load_at_many(np.linspace(0.0, 199.9, 400)).tolist())
        assert seen <= {0.25, 0.75}
        assert len(seen) == 2  # both states visited over 20 mean dwells

    def test_start_state_pins_the_first_level(self):
        trace = MMPPTrace(levels=(0.3, 0.9), mean_dwell_s=(50.0, 50.0),
                          duration_s=100.0, seed=0, start_state=1)
        assert trace.load_at(0.0) == 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            MMPPTrace(levels=(), mean_dwell_s=(), duration_s=10.0)
        with pytest.raises(ValueError):
            MMPPTrace(levels=(0.5, 0.6), mean_dwell_s=(10.0,), duration_s=10.0)
        with pytest.raises(ValueError):
            MMPPTrace(levels=(0.5,), mean_dwell_s=(-1.0,), duration_s=10.0)
        with pytest.raises(ValueError):
            MMPPTrace(levels=(2.0,), mean_dwell_s=(10.0,), duration_s=10.0)


class TestReplay:
    def test_previous_interpolation_holds_the_last_sample(self):
        trace = ReplayTrace(times_s=(0.0, 10.0, 20.0), levels=(0.2, 0.8, 0.5))
        assert trace.load_at(0.0) == 0.2
        assert trace.load_at(9.99) == 0.2
        assert trace.load_at(10.0) == 0.8
        assert trace.load_at(25.0) == 0.5  # clamped past the last sample

    def test_linear_interpolation_matches_np_interp(self):
        times = (0.0, 10.0, 30.0)
        levels = (0.0, 1.0, 0.5)
        trace = ReplayTrace(times_s=times, levels=levels, interp="linear")
        query = np.array([0.0, 5.0, 10.0, 20.0, 30.0, 40.0])
        expected = np.interp(query, times, levels)
        assert trace.load_at_many(query).tobytes() == expected.tobytes()

    def test_duration_defaults_to_last_sample_time(self):
        trace = ReplayTrace(times_s=(0.0, 42.0), levels=(0.1, 0.2))
        assert trace.duration_s == 42.0
        explicit = ReplayTrace(times_s=(0.0, 42.0), levels=(0.1, 0.2),
                               duration_s=60.0)
        assert explicit.duration_s == 60.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayTrace(times_s=(), levels=())
        with pytest.raises(ValueError):
            ReplayTrace(times_s=(0.0, 1.0), levels=(0.5,))
        with pytest.raises(ValueError):
            ReplayTrace(times_s=(5.0, 1.0), levels=(0.5, 0.5))
        with pytest.raises(ValueError):
            ReplayTrace(times_s=(0.0, 1.0), levels=(0.5, 0.5), interp="cubic")
