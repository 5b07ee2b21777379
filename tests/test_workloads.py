"""Unit tests for workload models (latency-critical and batch)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.topology import Configuration
from repro.workloads.base import capacity_rps, lc_server_speeds
from repro.workloads.batch import MEMORY_CEILING_IPS, BatchJobSet, BatchProgram
from repro.workloads.memcached import memcached
from repro.workloads.spec import SPEC_CPU2006, spec_job_set, spec_mix, spec_program
from repro.workloads.websearch import websearch


class TestLatencyCriticalWorkloads:
    def test_table1_contracts(self):
        mc = memcached()
        ws = websearch()
        assert (mc.qos_percentile, mc.target_latency_ms, mc.max_load_rps) == (
            0.95,
            10.0,
            36_000.0,
        )
        assert (ws.qos_percentile, ws.target_latency_ms, ws.max_load_rps) == (
            0.90,
            500.0,
            44.0,
        )

    def test_dilation_preserves_utilization(self, rng):
        """rate/scale x demand*scale = the same offered work per second."""
        mc = memcached()
        rate = mc.sim_arrival_rate(1.0)
        demands = mc.sample_demands(rng, 200_000)
        offered_work = rate * float(np.mean(demands))
        undilated = mc.with_overrides(sim_scale=1.0)
        offered_ref = undilated.sim_arrival_rate(1.0) * (
            undilated.demand_mean_ms * 1e-3
        )
        assert offered_work == pytest.approx(offered_ref, rel=0.02)

    def test_reported_latency_descales_and_adds_floor(self):
        mc = memcached()
        sim_latency = np.array([mc.sim_scale * 1e-3])  # 1 ms real
        reported = mc.reported_latency_ms(sim_latency)
        assert reported[0] == pytest.approx(1.0 + mc.base_latency_ms)

    def test_reported_latency_in_place_is_byte_identical(self, rng):
        mc = memcached()
        sim_latency = rng.exponential(0.05, 257)
        want = mc.reported_latency_ms(sim_latency)
        buffer = sim_latency.copy()
        got = mc.reported_latency_ms(buffer, out=buffer)
        assert got is buffer
        assert got.tobytes() == want.tobytes()

    def test_demand_mean_matches_parameter(self, rng):
        ws = websearch()
        demands = ws.sample_demands(rng, 100_000)
        assert float(np.mean(demands)) == pytest.approx(
            ws.demand_mean_ms * 1e-3, rel=0.02
        )

    def test_core_speed_reference_is_one(self, platform):
        ws = websearch()
        assert ws.core_speed(
            platform.big.core_type, 1.15, platform.big.core_type
        ) == pytest.approx(1.0)

    def test_small_core_is_slower(self, platform):
        ws = websearch()
        small = ws.core_speed(platform.small.core_type, 0.65, platform.big.core_type)
        assert 0.2 < small < 0.5

    def test_small_core_penalty_applies(self, platform):
        base = websearch().with_overrides(small_core_penalty=1.0)
        penalized = websearch()  # 1.10
        assert penalized.core_speed(
            platform.small.core_type, 0.65, platform.big.core_type
        ) < base.core_speed(platform.small.core_type, 0.65, platform.big.core_type)

    def test_qos_contract_helpers(self):
        mc = memcached()
        assert mc.qos_met(9.9) and not mc.qos_met(10.1)
        assert mc.tardiness(15.0) == pytest.approx(1.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            memcached().with_overrides(qos_percentile=1.5)
        with pytest.raises(ValueError):
            memcached().with_overrides(max_load_rps=-1)


class TestServerSpeeds:
    def test_big_cores_first(self, platform):
        speeds = lc_server_speeds(
            websearch(), platform, Configuration(1, 2, 1.15, 0.65)
        )
        assert len(speeds) == 3
        assert speeds[0] > speeds[1] == speeds[2]

    def test_truncated_to_thread_count(self, platform):
        wl = websearch().with_overrides(n_threads=2)
        speeds = lc_server_speeds(wl, platform, Configuration(2, 2, 1.15, 0.65))
        assert len(speeds) == 2

    def test_slowdowns_reduce_speed(self, platform):
        config = Configuration(2, 2, 1.15, 0.65)
        clean = lc_server_speeds(websearch(), platform, config)
        slowed = lc_server_speeds(
            websearch(), platform, config, big_slowdown=1.5, small_slowdown=1.2
        )
        assert slowed[0] == pytest.approx(clean[0] / 1.5)
        assert slowed[-1] == pytest.approx(clean[-1] / 1.2)

    def test_invalid_slowdown_rejected(self, platform):
        with pytest.raises(ValueError):
            lc_server_speeds(
                websearch(), platform, Configuration(1, 0, 1.15, None), big_slowdown=0.5
            )

    def test_capacity_scales_with_dvfs(self, platform):
        ws = websearch()
        low = capacity_rps(ws, platform, Configuration(2, 0, 0.60, None))
        high = capacity_rps(ws, platform, Configuration(2, 0, 1.15, None))
        assert high == pytest.approx(low * 1.15 / 0.60, rel=0.01)

    def test_max_load_within_2b_capacity(self, platform):
        """Table 1's max load must be servable by 2B-1.15 (rho < 1)."""
        for workload in (memcached(), websearch()):
            capacity = capacity_rps(
                workload, platform, Configuration(2, 0, 1.15, None)
            )
            assert workload.max_load_rps < capacity


class TestBatchPrograms:
    def test_compute_bound_scales_with_frequency(self, platform):
        calculix = spec_program("calculix")
        low = calculix.ips(platform.big.core_type, 0.60)
        high = calculix.ips(platform.big.core_type, 1.15)
        assert high / low > 1.7  # nearly linear in f

    def test_memory_bound_barely_scales(self, platform):
        lbm = spec_program("lbm")
        low = lbm.ips(platform.big.core_type, 0.60)
        high = lbm.ips(platform.big.core_type, 1.15)
        assert high / low < 1.25

    def test_big_core_advantage_spread(self, platform):
        """Compute-bound programs gain ~2.6x from big cores; memory-bound
        far less (the Figure 11 spread)."""
        big, small = platform.big.core_type, platform.small.core_type
        calculix = spec_program("calculix")
        lbm = spec_program("lbm")
        calculix_gain = calculix.ips(big, 1.15) / calculix.ips(small, 0.65)
        lbm_gain = lbm.ips(big, 1.15) / lbm.ips(small, 0.65)
        assert calculix_gain == pytest.approx(2.6, abs=0.2)
        assert lbm_gain < 1.4

    def test_memory_ceiling_binds(self, platform):
        fully_bound = BatchProgram("membound", ipc_factor=1.0, mem_intensity=1.0)
        assert fully_bound.ips(platform.big.core_type, 1.15) == pytest.approx(
            MEMORY_CEILING_IPS
        )

    def test_throughput_factor_applies(self, platform):
        program = spec_program("povray")
        full = program.ips(platform.big.core_type, 1.15)
        degraded = program.ips(platform.big.core_type, 1.15, throughput_factor=0.5)
        assert degraded == pytest.approx(full * 0.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BatchProgram("x", ipc_factor=0.0, mem_intensity=0.5)
        with pytest.raises(ValueError):
            BatchProgram("x", ipc_factor=1.0, mem_intensity=1.5)

    def test_spec_suite_has_figure11_programs(self):
        names = {p.name for p in SPEC_CPU2006}
        assert len(SPEC_CPU2006) == 12
        assert {"povray", "calculix", "lbm", "libquantum", "zeusmp"} <= names

    def test_unknown_program_rejected(self):
        with pytest.raises(KeyError, match="unknown SPEC program"):
            spec_program("doom")

    def test_job_sets(self):
        single = spec_job_set("lbm")
        assert single.program_for_job(0).name == "lbm"
        assert single.program_for_job(5).name == "lbm"
        mix = spec_mix()
        assert mix.program_for_job(0).name == "povray"
        assert mix.program_for_job(12).name == "povray"  # round robin
        with pytest.raises(ValueError):
            BatchJobSet(programs=())

    @settings(max_examples=30, deadline=None)
    @given(
        ipc=st.floats(min_value=0.1, max_value=2.0),
        mem=st.floats(min_value=0.0, max_value=1.0),
        freq_idx=st.integers(0, 2),
    )
    def test_ips_interpolates_between_bottleneck_rates(self, platform, ipc, mem, freq_idx):
        """The bottleneck law is a harmonic interpolation: IPS always lies
        between the compute rate and the memory ceiling."""
        program = BatchProgram("p", ipc_factor=ipc, mem_intensity=mem)
        freq = platform.big.core_type.freqs_ghz[freq_idx]
        ips = program.ips(platform.big.core_type, freq)
        compute_only = ipc * platform.big.core_type.microbench_ips(freq)
        lo = min(compute_only, MEMORY_CEILING_IPS)
        hi = max(compute_only, MEMORY_CEILING_IPS)
        assert lo * 0.999 <= ips <= hi * 1.001
