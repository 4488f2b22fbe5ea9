"""Tests for the power and thermal models."""

import pytest

from repro.platforms.power import (
    ClusterPowerModel,
    PowerModelParams,
    dynamic_power_mw,
    static_power_mw,
)
from repro.platforms.thermal import ThermalModel, ThermalParams


class TestDynamicPower:
    def test_scales_linearly_with_frequency_and_utilisation(self):
        base = dynamic_power_mw(0.5, 1.0, 1000.0, 1.0)
        assert dynamic_power_mw(0.5, 1.0, 2000.0, 1.0) == pytest.approx(2 * base)
        assert dynamic_power_mw(0.5, 1.0, 1000.0, 0.5) == pytest.approx(0.5 * base)

    def test_scales_quadratically_with_voltage(self):
        low = dynamic_power_mw(0.5, 1.0, 1000.0, 1.0)
        high = dynamic_power_mw(0.5, 1.2, 1000.0, 1.0)
        assert high == pytest.approx(low * 1.44)

    def test_invalid_utilisation_rejected(self):
        with pytest.raises(ValueError):
            dynamic_power_mw(0.5, 1.0, 1000.0, 1.5)


class TestStaticPower:
    def test_grows_with_temperature(self):
        params = PowerModelParams(ceff_mw_per_mhz_v2=0.5, static_mw=100.0)
        cold = static_power_mw(params, 1.0, 25.0)
        hot = static_power_mw(params, 1.0, 85.0)
        assert hot > cold

    def test_scales_with_voltage(self):
        params = PowerModelParams(ceff_mw_per_mhz_v2=0.5, static_mw=100.0, nominal_voltage_v=1.0)
        assert static_power_mw(params, 1.2, params.reference_temperature_c) == pytest.approx(120.0)

    def test_reference_point(self):
        params = PowerModelParams(ceff_mw_per_mhz_v2=0.5, static_mw=100.0)
        assert static_power_mw(params, 1.0, params.reference_temperature_c) == pytest.approx(100.0)


class TestClusterPowerModel:
    def test_idle_cores_draw_less_than_busy_cores(self):
        model = ClusterPowerModel(PowerModelParams(ceff_mw_per_mhz_v2=0.5, static_mw=100.0))
        busy = model.cluster_power_mw(1.0, 1000.0, [1.0], online_cores=1)
        idle = model.cluster_power_mw(1.0, 1000.0, [], online_cores=1)
        assert idle < busy

    def test_more_busy_cores_draw_more_power(self):
        model = ClusterPowerModel(PowerModelParams(ceff_mw_per_mhz_v2=0.5, static_mw=100.0))
        one = model.cluster_power_mw(1.0, 1000.0, [1.0], online_cores=4)
        four = model.cluster_power_mw(1.0, 1000.0, [1.0] * 4, online_cores=4)
        assert four > one

    def test_too_many_utilisation_samples_rejected(self):
        model = ClusterPowerModel(PowerModelParams(ceff_mw_per_mhz_v2=0.5, static_mw=100.0))
        with pytest.raises(ValueError):
            model.cluster_power_mw(1.0, 1000.0, [1.0, 1.0], online_cores=1)

    def test_energy_conversion(self):
        model = ClusterPowerModel(PowerModelParams(ceff_mw_per_mhz_v2=0.5, static_mw=100.0))
        # 1000 mW for 1000 ms is 1 J = 1000 mJ.
        assert model.energy_mj(1000.0, 1000.0) == pytest.approx(1000.0)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            PowerModelParams(ceff_mw_per_mhz_v2=-1.0, static_mw=100.0)
        with pytest.raises(ValueError):
            PowerModelParams(ceff_mw_per_mhz_v2=1.0, static_mw=-5.0)
        with pytest.raises(ValueError):
            PowerModelParams(ceff_mw_per_mhz_v2=1.0, static_mw=5.0, idle_fraction=1.5)


class TestThermalModel:
    def test_heats_up_under_power_and_cools_down_without(self):
        model = ThermalModel(ThermalParams())
        start = model.temperature_c
        model.step(5000.0, 10000.0)
        heated = model.temperature_c
        assert heated > start
        model.step(0.0, 60000.0)
        assert model.temperature_c < heated

    def test_never_cools_below_ambient(self):
        params = ThermalParams(ambient_c=25.0)
        model = ThermalModel(params)
        model.step(0.0, 120000.0)
        assert model.temperature_c >= params.ambient_c - 1e-6

    def test_steady_state_formula(self):
        params = ThermalParams(thermal_resistance_c_per_w=10.0, ambient_c=25.0)
        model = ThermalModel(params)
        assert model.steady_state_temperature_c(2000.0) == pytest.approx(45.0)

    def test_converges_to_steady_state(self):
        params = ThermalParams(thermal_resistance_c_per_w=10.0, thermal_capacitance_j_per_c=1.0)
        model = ThermalModel(params)
        model.step(3000.0, 200000.0)  # many time constants
        assert model.temperature_c == pytest.approx(model.steady_state_temperature_c(3000.0), abs=0.5)

    def test_throttle_hysteresis(self):
        params = ThermalParams(
            thermal_resistance_c_per_w=10.0,
            thermal_capacitance_j_per_c=1.0,
            throttle_threshold_c=60.0,
            throttle_release_c=50.0,
        )
        model = ThermalModel(params)
        model.step(5000.0, 100000.0)  # steady state 75 C -> throttling
        assert model.throttling
        # Cool a little but stay above the release temperature: still throttled.
        model.step(3000.0, 3000.0)
        assert model.temperature_c > params.throttle_release_c
        assert model.throttling
        # Cool below the release threshold: throttling clears.
        model.step(0.0, 200000.0)
        assert not model.throttling

    def test_sustainable_power(self):
        params = ThermalParams(
            thermal_resistance_c_per_w=10.0, ambient_c=25.0, throttle_threshold_c=85.0
        )
        model = ThermalModel(params)
        sustainable = model.sustainable_power_mw()
        assert sustainable == pytest.approx(6000.0)
        assert model.steady_state_temperature_c(sustainable) <= params.throttle_threshold_c + 1e-6

    def test_headroom_and_reset(self):
        model = ThermalModel(ThermalParams())
        initial_headroom = model.headroom_c()
        model.step(8000.0, 20000.0)
        assert model.headroom_c() < initial_headroom
        model.reset()
        assert model.temperature_c == model.params.ambient_c
        assert not model.throttling

    def test_invalid_inputs_rejected(self):
        model = ThermalModel(ThermalParams())
        with pytest.raises(ValueError):
            model.step(-1.0, 100.0)
        with pytest.raises(ValueError):
            model.step(100.0, -1.0)

    @pytest.mark.parametrize("duration_ms", [float("inf"), float("nan")])
    def test_non_finite_duration_rejected(self, duration_ms):
        # An infinite duration used to keep the sub-step loop running forever.
        model = ThermalModel(ThermalParams())
        with pytest.raises(ValueError, match="finite"):
            model.step(1000.0, duration_ms)
        assert model.temperature_c == model.params.ambient_c

    @pytest.mark.parametrize("power_mw", [float("inf"), float("nan")])
    def test_non_finite_power_rejected_and_state_kept(self, power_mw):
        params = ThermalParams(
            thermal_resistance_c_per_w=10.0,
            thermal_capacitance_j_per_c=1.0,
            throttle_threshold_c=60.0,
            throttle_release_c=50.0,
        )
        model = ThermalModel(params)
        with pytest.raises(ValueError, match="finite"):
            model.step(power_mw, 100.0)
        # A NaN power used to turn every later temperature into NaN, which
        # no throttle comparison is ever true for.
        assert model.temperature_c == params.ambient_c
        model.step(5000.0, 100000.0)
        assert model.throttling
        model.step(0.0, 200000.0)
        assert not model.throttling

    def test_step_returns_the_sensed_temperature(self):
        model = ThermalModel(ThermalParams())
        assert model.step(3000.0, 1000.0) == model.temperature_c
        model.set_sensor_bias(4.5)
        sensed = model.step(3000.0, 1000.0)
        assert sensed == model.temperature_c == model.true_temperature_c + 4.5
        model.set_sensor_bias(0.0)
        frozen = model.freeze_sensor()
        sensed = model.step(6000.0, 5000.0)
        assert sensed == model.temperature_c == frozen
        assert model.true_temperature_c > frozen

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ThermalParams(thermal_resistance_c_per_w=0.0)
        with pytest.raises(ValueError):
            ThermalParams(throttle_threshold_c=70.0, throttle_release_c=80.0)
        with pytest.raises(ValueError):
            ThermalParams(critical_c=50.0, throttle_threshold_c=85.0)
