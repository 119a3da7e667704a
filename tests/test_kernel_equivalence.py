"""The block kernel of `assemble_bundle` against the per-building oracle.

Every comparison is exact: the kernel must reproduce the one-building path
bit for bit, so that run artifacts stay byte-identical.
"""

import json
import math

import numpy as np
import pytest

import oracles
from coldsnap.demo import demo_config_dict, make_uri_like_weather, write_weather_csv
from coldsnap.scenario import (
    REDUCE_BLOCK,
    SCENARIO_NAMES,
    SIM_BLOCK,
    assemble_bundle,
    build_schedules,
    load_config,
)
from coldsnap.population import synthesize_population
from coldsnap.thermal import simulate_block, simulate_building
from coldsnap.weather import load_weather_csv, slice_window

from conftest import constant_weather, make_building

# Demo counts scaled so the population spans two simulation blocks and ends
# in partial blocks of both sizes.
SCALE = 0.21


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    directory = tmp_path_factory.mktemp("kernel_equivalence")
    write_weather_csv(make_uri_like_weather(), directory / "weather.csv")
    config = demo_config_dict(weather_filename="weather.csv", out_dir="runs")
    counts = config["population"]["spec"]["counts"]
    config["population"]["spec"]["counts"] = {k: round(n * SCALE) for k, n in counts.items()}
    paths = {}
    for variant, hazard, valuation in (
        ("demo", {}, {}),
        # Constant indoor humidity gates the freeze index at every cold step,
        # and an unset beta_wi takes the population maximum.
        ("indoor_rh", {"winter_index": {"indoor_rh_pct": 90.0}}, {"beta_wi": None}),
    ):
        variant_config = json.loads(json.dumps(config))
        variant_config["hazard"].update(hazard)
        variant_config["valuation"].update(valuation)
        paths[variant] = directory / f"{variant}.json"
        paths[variant].write_text(json.dumps(variant_config), encoding="utf-8")
    return paths


def prepare(path, scenario):
    config = load_config(path, {"scenario": scenario})
    pop = synthesize_population(config.population_spec, config.seed)
    return config, pop, build_schedules(config, pop)


def test_population_ends_in_partial_blocks(assets):
    config, pop, _ = prepare(assets["demo"], "base")
    n = len(pop.buildings)
    assert n > SIM_BLOCK
    assert n % SIM_BLOCK and n % REDUCE_BLOCK


@pytest.mark.parametrize("variant", ["demo", "indoor_rh"])
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_bundle_matches_oracle_exactly(assets, variant, scenario):
    config, pop, schedule = prepare(assets[variant], scenario)
    bundle, rows = assemble_bundle(config, pop, schedule)
    ref, _, ref_rows = oracles.assemble_bundle(config, pop, schedule)

    assert np.array_equal(bundle.p_mort_by_building, ref.p_mort_by_building)
    assert np.array_equal(bundle.wi_sum_by_building, ref.wi_sum_by_building)
    assert np.array_equal(bundle.mean_rr_by_building, ref.mean_rr_by_building)
    assert np.array_equal(bundle.occupant_building_index, ref.occupant_building_index)
    assert bundle.c_prod == ref.c_prod
    assert bundle.c_cic == ref.c_cic
    assert bundle.beta_wi == ref.beta_wi
    assert rows == ref_rows
    if scenario != "base":
        assert bundle.c_prod > 0.0 and bundle.c_cic > 0.0
    if variant == "indoor_rh" and scenario in ("co", "ro-di"):
        # Buildings dark for the whole window fall below freezing.
        assert (bundle.wi_sum_by_building > 0.0).any()


def test_streamed_traces_match_oracle_export(assets, tmp_path):
    config, pop, schedule = prepare(assets["demo"], "ro-hi")
    streamed = tmp_path / "streamed.csv"
    assemble_bundle(config, pop, schedule, streamed)
    _, traces, _ = oracles.assemble_bundle(config, pop, schedule)
    exported = tmp_path / "exported.csv"
    oracles.write_traces_csv(traces.values(), exported)
    assert streamed.read_bytes() == exported.read_bytes()


def test_block_row_matches_single_building_runs(assets):
    config, pop, schedule = prepare(assets["demo"], "ro-di")
    window = slice_window(load_weather_csv(config.weather_path),
                          config.window_start, config.window_end)
    buildings = pop.buildings[:REDUCE_BLOCK + 3]
    powered = np.stack([schedule.schedules[b.id] for b in buildings], axis=1)
    gain = 350.0
    t_in, hvac_on = simulate_block(buildings, window, powered, internal_gain_w=gain)
    for j, b in enumerate(buildings):
        single = simulate_building(b, window, powered[:, j], internal_gain_w=gain)
        scalar = oracles.simulate_building(b, window, powered[:, j], internal_gain_w=gain)
        for trace in (single, scalar):
            assert np.array_equal(trace.t_in_c, t_in[:, j])
            assert np.array_equal(trace.hvac_kw, np.where(hvac_on[:, j], b.hvac_electric_kw, 0.0))


def test_block_decay_is_the_scalar_exponential():
    # For some of these envelopes numpy's vector exp differs from math.exp in
    # the last bit, so only a per-building math.exp keeps the rows identical.
    weather = constant_weather(-8.0, hours=24)
    buildings = [make_building(i, mass_per_m2=m)
                 for i, m in enumerate(np.linspace(150e3, 350e3, REDUCE_BLOCK))]
    exponents = [-b.ua_w_per_k * weather.dt_s / b.thermal_mass_j_per_k for b in buildings]
    assert (np.exp(exponents) != [math.exp(x) for x in exponents]).any()
    powered = np.zeros((weather.n_steps, len(buildings)), dtype=bool)
    powered[: weather.n_steps // 2] = True
    t_in, _ = simulate_block(buildings, weather, powered)
    for j, b in enumerate(buildings):
        scalar = oracles.simulate_building(b, weather, powered[:, j])
        assert np.array_equal(scalar.t_in_c, t_in[:, j])
