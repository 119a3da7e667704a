import dataclasses
import math
import sys
import time
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldsnap.errors import ConfigurationError
from coldsnap.population import HeatingFuel, Insulation, Population
from coldsnap.thermal import INTERNAL_GAIN_W
from coldsnap.weather import WeatherSeries

from conftest import constant_weather, make_building
from oracles import (
    ExposureTrace,
    free_float_closed_form,
    hvac_thermostat,
    simulate_building,
    simulate_new_block,
    step_indoor_temp,
    write_traces_csv,
)


def superposition_oracle(building, t_out_steps, t_start, gain_w, dt_s):
    """Independent free-float solution for piecewise-constant outdoor temps.

    Direct evaluation of T_n = T_0 d^n + (1-d) sum_k d^(n-1-k) te_k, summed
    in a different order than the simulator's recursion.
    """
    tau = building.thermal_mass_j_per_k / building.ua_w_per_k
    d = math.exp(-dt_s / tau)
    te = np.asarray(t_out_steps, dtype=float) + gain_w / building.ua_w_per_k
    n = len(te)
    out = np.empty(n)
    out[0] = t_start
    powers = d ** np.arange(n, dtype=float)
    for i in range(1, n):
        # kernel sum evaluated highest-order-first
        kernel = powers[i - 1::-1]
        out[i] = t_start * powers[i] + (1.0 - d) * float(np.dot(kernel, te[:i]))
    return out


class TestStep:
    def test_equilibrium_is_fixed_point(self):
        b = make_building()
        assert step_indoor_temp(5.0, b, 5.0, 0.0, 0.0, 300.0) == pytest.approx(5.0)

    def test_half_life_algebra(self):
        # ua*dt/C = ln 2 halves the gap: 20 degC over 0 degC outdoor -> 10.
        b = make_building()
        dt = math.log(2.0) * b.thermal_mass_j_per_k / b.ua_w_per_k
        assert step_indoor_temp(20.0, b, 0.0, 0.0, 0.0, dt) == pytest.approx(10.0, abs=1e-12)

    def test_24h_free_float_matches_closed_form(self):
        b = make_building(insulation=Insulation.POOR, ua_per_m2=2.6, mass_per_m2=240e3)
        dt = 300.0
        n = int(24 * 3600 / dt)
        temp = 20.0
        sim = [temp]
        for _ in range(n):
            temp = step_indoor_temp(temp, b, -10.0, 0.0, 0.0, dt)
            sim.append(temp)
        times = np.arange(n + 1) * dt
        exact = free_float_closed_form(b, 20.0, -10.0, 0.0, times)
        assert np.abs(np.array(sim) - exact).max() < 1e-9

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            step_indoor_temp(20.0, make_building(), 0.0, 0.0, 0.0, 0.0)


class TestThermostat:
    def test_power_gating(self):
        for t_in in (-20.0, 0.0, 19.0, 25.0):
            assert hvac_thermostat(t_in, 20.0, 1.0, False, True, 9.0) == (False, 0.0)

    def test_turns_on_below_band(self):
        on, kw = hvac_thermostat(5.0, 20.0, 1.0, True, False, 9.0)
        assert on and kw == 9.0

    def test_holds_state_inside_band(self):
        assert hvac_thermostat(20.0, 20.0, 1.0, True, True, 9.0)[0] is True
        assert hvac_thermostat(20.0, 20.0, 1.0, True, False, 9.0)[0] is False

    def test_turns_off_above_band(self):
        on, kw = hvac_thermostat(20.6, 20.0, 1.0, True, True, 9.0)
        assert not on and kw == 0.0

    def test_gas_heat_draws_blower_power_only(self):
        b = make_building(heating_fuel=HeatingFuel.GAS_ELECTRIC_BLOWER)
        assert b.hvac_electric_kw == pytest.approx(0.5)
        electric = make_building(heating_fuel=HeatingFuel.ELECTRIC)
        assert electric.hvac_electric_kw == pytest.approx(electric.hvac_heat_w / 1000.0)

    def test_fuels_share_temperature_trajectory(self):
        # Gas furnaces lose their blower on outage, so both fuels heat (and
        # fail to heat) identically; only the metered draw differs.
        weather = constant_weather(-10.0, hours=30)
        powered = np.zeros(weather.n_steps, dtype=bool)
        powered[: weather.n_steps // 2] = True
        gas = simulate_building(
            make_building(heating_fuel=HeatingFuel.GAS_ELECTRIC_BLOWER), weather, powered)
        electric = simulate_building(
            make_building(heating_fuel=HeatingFuel.ELECTRIC), weather, powered)
        np.testing.assert_array_equal(gas.t_in_c, electric.t_in_c)
        on = gas.hvac_kw > 0
        assert np.array_equal(on, electric.hvac_kw > 0)
        assert np.all(gas.hvac_kw[on] == 0.5)
        assert np.all(electric.hvac_kw[on] > 0.5)


class TestSimulateBuilding:
    def test_base_band_held_all_window(self):
        # Powered throughout with demo-scale parameters: t_in stays within
        # the deadband plus one-step overshoot allowance.
        weather = constant_weather(-10.0, hours=96)
        for ins, ua in (("little", 3.2), ("average", 1.8), ("very_good", 0.9)):
            b = make_building(insulation=Insulation(ins), ua_per_m2=ua)
            trace = simulate_building(b, weather, np.ones(weather.n_steps, dtype=bool))
            assert trace.t_in_c.min() >= 19.3
            assert trace.t_in_c.max() <= 20.7

    def test_unpowered_poor_insulation_drops_below_minus5(self):
        weather = constant_weather(-12.0, hours=96)
        b = make_building(insulation=Insulation.POOR, ua_per_m2=2.6, mass_per_m2=240e3)
        trace = simulate_building(b, weather, np.zeros(weather.n_steps, dtype=bool))
        assert trace.t_in_c.min() < -5.0

    def test_good_insulation_stays_warmer_than_poor(self):
        weather = constant_weather(-12.0, hours=96)
        off = np.zeros(weather.n_steps, dtype=bool)
        poor = simulate_building(
            make_building(insulation=Insulation.POOR, ua_per_m2=2.6, mass_per_m2=240e3),
            weather, off)
        good = simulate_building(
            make_building(insulation=Insulation.VERY_GOOD, ua_per_m2=0.9, mass_per_m2=270e3),
            weather, off)
        assert good.t_in_c.min() > poor.t_in_c.min()
        assert good.t_in_c.mean() > poor.t_in_c.mean()

    def test_larger_ua_means_colder_unpowered_average(self):
        weather = constant_weather(-12.0, hours=48)
        off = np.zeros(weather.n_steps, dtype=bool)
        means = [
            simulate_building(make_building(ua_per_m2=ua), weather, off).t_in_c.mean()
            for ua in (0.9, 1.5, 2.6, 3.2)
        ]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_power_gating_zeroes_hvac_draw(self):
        weather = constant_weather(-12.0, hours=24)
        powered = np.zeros(weather.n_steps, dtype=bool)
        powered[::3] = True
        trace = simulate_building(make_building(), weather, powered)
        assert np.all(trace.hvac_kw[~powered] == 0.0)

    def test_unpowered_decay_is_monotone_toward_outdoor(self):
        weather = constant_weather(-12.0, hours=96)
        b = make_building(n_occupants=0)
        trace = simulate_building(b, weather, np.zeros(weather.n_steps, dtype=bool))
        assert np.all(np.diff(trace.t_in_c) <= 0.0)
        assert trace.t_in_c.min() >= -12.0

    def test_free_float_matches_superposition_oracle(self):
        # Varying outdoor temperatures, no power: recursion vs direct sum.
        rng = np.random.default_rng(3)
        t_out = rng.uniform(-18.0, 2.0, 288)
        weather = constant_weather(0.0, hours=24)
        weather = type(weather)(start=weather.start, dt_s=300.0,
                                t_out_c=t_out, rh_pct=np.full(288, 70.0))
        b = make_building()
        trace = simulate_building(b, weather, np.zeros(288, dtype=bool))
        oracle = superposition_oracle(b, t_out, 20.0, INTERNAL_GAIN_W, 300.0)
        assert np.abs(trace.t_in_c - oracle).max() < 1e-9

    def test_schedule_length_mismatch_rejected(self):
        weather = constant_weather(-12.0, hours=24)
        with pytest.raises(ConfigurationError, match="steps"):
            simulate_building(make_building(), weather, np.ones(5, dtype=bool))

    def test_bounds_never_exceeded(self):
        weather = constant_weather(-12.0, hours=48)
        b = make_building()
        powered = np.ones(weather.n_steps, dtype=bool)
        trace = simulate_building(b, weather, powered)
        t_eq_heating = -12.0 + (b.hvac_heat_w + 200.0) / b.ua_w_per_k
        assert trace.t_in_c.max() <= max(20.0, t_eq_heating) + 1e-9
        assert trace.t_in_c.min() >= -12.0 - 1e-9

    @given(
        ua=st.floats(min_value=0.5, max_value=4.0),
        t_out=st.floats(min_value=-25.0, max_value=10.0),
        start_temp=st.floats(min_value=-5.0, max_value=25.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_free_float_stays_between_start_and_outdoor(self, ua, t_out, start_temp):
        b = make_building(ua_per_m2=ua, setpoint_c=start_temp, n_occupants=0)
        weather = constant_weather(t_out, hours=12)
        trace = simulate_building(b, weather, np.zeros(weather.n_steps, dtype=bool))
        lo, hi = min(start_temp, t_out), max(start_temp, t_out)
        assert trace.t_in_c.min() >= lo - 1e-9
        assert trace.t_in_c.max() <= hi + 1e-9


def edges(lo, hi):
    """Floats in [lo, hi], its two ends drawn often."""
    return st.sampled_from([lo, hi]) | st.floats(lo, hi)


@st.composite
def edge_buildings(draw):
    """A building whose bounded columns lie anywhere in their `Building`
    bounds, ends included; a column bounded on one side reaches the
    largest float."""
    return dataclasses.replace(
        make_building(n_occupants=draw(st.integers(0, 1))),
        ua_w_per_k=draw(edges(1e-3, 1e10)),
        thermal_mass_j_per_k=draw(edges(1.0, sys.float_info.max)),
        hvac_heat_w=draw(edges(0.0, 1e15)),
        setpoint_c=draw(edges(-100.0, 100.0)),
        deadband_c=draw(edges(5e-324, sys.float_info.max)))


@given(buildings=st.lists(edge_buildings(), min_size=1, max_size=4),
       t_out=st.lists(edges(-100.0, 100.0), min_size=2, max_size=12),
       dt_s=edges(1.0, 86400.0), data=st.data())
@settings(max_examples=200, deadline=None)
def test_bounded_buildings_and_weather_give_finite_temperatures(buildings, t_out, dt_s, data):
    # The loaders' bounds are all that keeps each relay equilibrium
    # t_out + Q/UA finite: the relay itself checks nothing.
    weather = WeatherSeries(datetime(2021, 2, 15, tzinfo=timezone.utc), dt_s, t_out,
                            [80.0] * len(t_out))
    powered = np.array(data.draw(st.lists(st.booleans(), min_size=len(t_out) * len(buildings),
                                          max_size=len(t_out) * len(buildings)))
                       ).reshape(len(buildings), len(t_out))
    # The bounds keep the decay exponent -UA dt / C finite too: an overflow
    # raises.
    with np.errstate(over="raise"):
        t_in, _ = simulate_new_block(Population.from_buildings(buildings), weather, powered)
    assert np.isfinite(t_in).all()


class TestTraceExport:
    def test_csv_schema_and_values(self, tmp_path):
        weather = constant_weather(-5.0, hours=1)
        trace = simulate_building(make_building(7), weather,
                                  np.ones(weather.n_steps, dtype=bool))
        path = tmp_path / "traces.csv"
        write_traces_csv([trace], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "building_id,timestamp,t_in_c,powered,hvac_kw"
        first = lines[1].split(",")
        assert first[0] == "7"
        assert first[1] == "2021-02-15T00:00:00+00:00"
        assert first[3] == "true"
        assert len(lines) == 1 + trace.n_steps

    def test_mismatched_arrays_rejected(self):
        from datetime import datetime, timezone
        with pytest.raises(ConfigurationError):
            ExposureTrace(0, datetime(2021, 2, 15, tzinfo=timezone.utc), 300.0,
                          np.zeros(5), np.ones(4, dtype=bool), np.zeros(5))
