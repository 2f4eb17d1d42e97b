"""Unit tests for the performance and power models."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim.opp import JETSON_NANO_OPP_TABLE
from repro.sim.perf_model import PerformanceModel
from repro.sim.power_model import PowerModel
from repro.sim.workload import Phase

COMPUTE_PHASE = Phase("compute", 1e9, cpi_core=0.85, mpki=0.4, apki=18.0, activity=1.1)
MEMORY_PHASE = Phase("memory", 1e9, cpi_core=0.7, mpki=26.0, apki=80.0, activity=0.7)


class TestPerformanceModel:
    def test_zero_mpki_means_core_cpi(self):
        model = PerformanceModel()
        phase = Phase("pure", 1e9, cpi_core=1.25, mpki=0.0, apki=10.0, activity=1.0)
        perf = model.evaluate(phase, 1e9)
        assert perf.cpi == pytest.approx(1.25)
        assert perf.duty == pytest.approx(1.0)

    def test_memory_cycles_grow_with_frequency(self):
        model = PerformanceModel()
        low = model.memory_cycles_per_instruction(MEMORY_PHASE, 102e6)
        high = model.memory_cycles_per_instruction(MEMORY_PHASE, 1479e6)
        assert high / low == pytest.approx(1479 / 102)

    def test_compute_bound_ips_scales_almost_linearly(self):
        model = PerformanceModel()
        ips_low = model.evaluate(COMPUTE_PHASE, 102e6).ips
        ips_high = model.evaluate(COMPUTE_PHASE, 1479e6).ips
        # Perfect scaling would be 14.5x; compute-bound should be close.
        assert ips_high / ips_low > 12.0

    def test_memory_bound_ips_saturates(self):
        model = PerformanceModel()
        ips_low = model.evaluate(MEMORY_PHASE, 102e6).ips
        ips_high = model.evaluate(MEMORY_PHASE, 1479e6).ips
        assert ips_high / ips_low < 5.0
        assert ips_high < model.saturation_ips(MEMORY_PHASE)

    def test_saturation_ips_infinite_without_misses(self):
        model = PerformanceModel()
        phase = Phase("pure", 1e9, cpi_core=1.0, mpki=0.0, apki=10.0, activity=1.0)
        assert model.saturation_ips(phase) == float("inf")

    def test_ipc_decreases_with_frequency_for_memory_bound(self):
        model = PerformanceModel()
        ipc_low = model.evaluate(MEMORY_PHASE, 102e6).ipc
        ipc_high = model.evaluate(MEMORY_PHASE, 1479e6).ipc
        assert ipc_high < ipc_low

    def test_duty_between_zero_and_one(self):
        model = PerformanceModel()
        for freq in JETSON_NANO_OPP_TABLE.frequencies_hz:
            perf = model.evaluate(MEMORY_PHASE, freq)
            assert 0.0 < perf.duty <= 1.0

    def test_rejects_bad_frequency(self):
        with pytest.raises(SimulationError):
            PerformanceModel().evaluate(COMPUTE_PHASE, 0.0)

    def test_rejects_bad_miss_penalty(self):
        with pytest.raises(ConfigurationError):
            PerformanceModel(miss_penalty_s=0.0)

    def test_miss_rate_passthrough(self):
        perf = PerformanceModel().evaluate(MEMORY_PHASE, 1e9)
        assert perf.miss_rate == pytest.approx(26.0 / 80.0)


class TestPowerModel:
    def test_power_increases_with_opp_level(self):
        model = PowerModel()
        powers = [
            model.total_power(op, activity=1.0, duty=1.0)
            for op in JETSON_NANO_OPP_TABLE
        ]
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_memory_bound_draws_less_than_compute_bound(self):
        model = PowerModel()
        perf_model = PerformanceModel()
        op = JETSON_NANO_OPP_TABLE[14]
        duty_mem = perf_model.evaluate(MEMORY_PHASE, op.frequency_hz).duty
        duty_cpu = perf_model.evaluate(COMPUTE_PHASE, op.frequency_hz).duty
        p_mem = model.total_power(op, MEMORY_PHASE.activity, duty_mem)
        p_cpu = model.total_power(op, COMPUTE_PHASE.activity, duty_cpu)
        assert p_mem < 0.6 < p_cpu

    def test_compute_bound_exceeds_budget_at_fmax(self):
        # The calibration the experiments rely on: a compute-dense phase
        # at the top level draws well over P_crit = 0.6 W.
        model = PowerModel()
        op = JETSON_NANO_OPP_TABLE[14]
        assert model.total_power(op, COMPUTE_PHASE.activity, duty=0.95) > 1.0

    def test_opp_power_constants_reproduce_total_power_exactly(self):
        # The table both simulators read: dynamic * a_eff + leakage must
        # be total_power to the last bit, at every level.
        model = PowerModel()
        table = model.opp_power_constants(JETSON_NANO_OPP_TABLE)
        assert len(table) == JETSON_NANO_OPP_TABLE.num_levels
        for op, (dynamic_w, leakage_w) in zip(JETSON_NANO_OPP_TABLE, table):
            assert leakage_w == model.static_power(op)
            for activity, duty in ((1.05, 1.0), (0.75, 0.31), (0.9, 0.0)):
                a_eff = model.effective_activity(activity, duty)
                assert dynamic_w * a_eff + leakage_w == model.total_power(
                    op, activity, duty
                )

    def test_effective_activity_blend(self):
        model = PowerModel(memory_activity=0.2)
        assert model.effective_activity(1.0, 1.0) == pytest.approx(1.0)
        assert model.effective_activity(1.0, 0.0) == pytest.approx(0.2)
        assert model.effective_activity(1.0, 0.5) == pytest.approx(0.6)

    def test_static_power_scales_with_voltage_squared(self):
        model = PowerModel(leakage_coefficient_w_per_v2=0.07)
        low = model.static_power(JETSON_NANO_OPP_TABLE[0])
        high = model.static_power(JETSON_NANO_OPP_TABLE[14])
        v_low = JETSON_NANO_OPP_TABLE[0].voltage_v
        v_high = JETSON_NANO_OPP_TABLE[14].voltage_v
        assert high / low == pytest.approx((v_high / v_low) ** 2)

    def test_temperature_ignored_by_default(self):
        model = PowerModel()
        op = JETSON_NANO_OPP_TABLE[7]
        assert model.static_power(op, temperature_c=90.0) == model.static_power(op)

    def test_temperature_coupling_when_enabled(self):
        model = PowerModel(
            leakage_temperature_coefficient=0.01, reference_temperature_c=45.0
        )
        op = JETSON_NANO_OPP_TABLE[7]
        hot = model.static_power(op, temperature_c=65.0)
        cold = model.static_power(op, temperature_c=45.0)
        assert hot == pytest.approx(cold * 1.2)

    def test_rejects_invalid_duty(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            PowerModel().dynamic_power(JETSON_NANO_OPP_TABLE[0], 1.0, duty=1.5)

    def test_rejects_invalid_capacitance(self):
        with pytest.raises(ConfigurationError):
            PowerModel(effective_capacitance_f=0.0)
