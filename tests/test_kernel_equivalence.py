"""The block kernels against the per-building oracles: the schedule matrix,
the thermal block, interruption and medical costs and `assemble_bundle`.

Every comparison is exact: the kernel must reproduce the one-building path
bit for bit, so that run artifacts stay byte-identical.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
from coldsnap import scenario as scenario_module
from coldsnap.demo import demo_config_dict, make_uri_like_weather, write_weather_csv
from coldsnap.errors import ConfigurationError
from coldsnap.hazard import CONDITIONS, STATUS_DEATH, STATUS_HOME, STATUS_HOSPITAL, OutcomeBatch
from coldsnap.population import BuildingKind, synthesize_population
from coldsnap.scenario import (
    REDUCE_BLOCK,
    SCENARIO_NAMES,
    SIM_BLOCK,
    assemble_bundle,
    build_schedules,
    load_config,
)
from coldsnap.thermal import simulate_block
from coldsnap.valuation import (
    CICParams,
    CICTable,
    ValuationParams,
    interruption_cost,
    medical_cost,
)
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
    for variant, hazard, valuation, co in (
        ("demo", {}, {}, {}),
        # Constant indoor humidity gates the freeze index at every cold step,
        # and an unset beta_wi takes the population maximum.
        ("indoor_rh", {"winter_index": {"indoor_rh_pct": 90.0}}, {"beta_wi": None}, {}),
        # An explicit shed set, partly overlapping the fault-isolated customers.
        ("shed_ids", {}, {}, {"shed_ids": list(range(0, 290, 7)), "fault_fraction": 0.1}),
    ):
        variant_config = json.loads(json.dumps(config))
        variant_config["hazard"].update(hazard)
        variant_config["valuation"].update(valuation)
        variant_config["scenarios"]["co"].update(co)
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


@pytest.mark.parametrize("variant, scenario",
                         [("demo", s) for s in SCENARIO_NAMES] + [("shed_ids", "co")])
def test_schedule_rows_match_oracle_exactly(assets, monkeypatch, variant, scenario):
    config, pop, schedule = prepare(assets[variant], scenario)
    for name in ("build_base_schedule", "build_controlled_outage", "build_rolling_outage"):
        monkeypatch.setattr(scenario_module, name, getattr(oracles, name))
    ref = build_schedules(config, pop)

    assert schedule.powered.shape == (len(pop.buildings), ref.n_steps)
    assert not schedule.powered.flags.writeable
    for b, row in zip(pop.buildings, schedule.powered):
        assert np.array_equal(row, ref.schedules[b.id])
    assert schedule.isolated_ids == ref.isolated_ids
    assert schedule.unpowered_hours().tolist() == [ref.unpowered_hours(b.id)
                                                   for b in pop.buildings]
    if scenario != "base":
        assert not schedule.powered.all()
    if scenario in ("co", "ro-di"):
        assert ref.isolated_ids


def cic_buildings():
    """Every pricing branch: income brackets (one absent from the multiplier
    table), small C&I with and without backup, medium and large C&I."""
    residential = [dataclasses.replace(make_building(i, avg_annual_kwh=9000.0 + 977.3 * i),
                                       income_bracket=bracket)
                   for i, bracket in enumerate(("median", "low", "high", "unlisted"))]
    commercial = [make_building(10 + i, kind=kind, avg_annual_kwh=kwh, backup=backup)
                  for i, (kind, kwh, backup) in enumerate((
                      (BuildingKind.STRIP_MALL, 151_234.7, False),
                      (BuildingKind.FOOD_SALES, 287_654.3, True),
                      (BuildingKind.OFFICE, 333_333.3, False),
                      (BuildingKind.BIG_BOX, 1_234_567.8, True)))]
    return residential + commercial


# Zero, below the cap, at the cap and beyond it.
CIC_HOURS = (0.0, 0.25, 7.3, 11.0 / 3.0, 16.0, 23.7, 95.9)


def cic_params(**changes):
    tables = {"residential": CICTable(5.3, 2.17, 1.53, 3.1),
              "small_ci": CICTable(201.7, 151.3, 2.11, 99.7),
              "large_medium_ci": CICTable(4999.9, 2500.3, 1.07, 1500.9)}
    params = CICParams(tables=tables, season_multiplier=1.1, industry_multiplier=1.7,
                       income_multiplier={"median": 1.0, "low": 0.7, "high": 1.9},
                       backup_discount=0.85, duration_cap_h=16.0)
    return dataclasses.replace(params, **changes)


def test_block_cic_matches_scalar_oracle_exactly():
    buildings = [b for b in cic_buildings() for _ in CIC_HOURS]
    hours = [h for _ in cic_buildings() for h in CIC_HOURS]
    params = cic_params()
    # These multipliers round differently when grouped the other way, so
    # only the scalar's order reproduces its results.
    season, industry, backup = (params.season_multiplier, params.industry_multiplier,
                                params.backup_discount)
    assert (season * industry) * backup != season * (industry * backup)
    usd = interruption_cost(buildings, np.array(hours), params)
    ref = [oracles.interruption_cost(b, h, params) for b, h in zip(buildings, hours)]
    assert usd.tolist() == ref
    assert sum(usd.tolist()) == sum(ref)
    assert (usd[np.array(hours) == 0.0] == 0.0).all()
    assert (usd[np.array(hours) > 0.0] > 0.0).all()


def test_medical_bills_match_scalar_oracle_exactly():
    # Every (status, condition, insurance) case at severities below, at and
    # beyond the ceiling, against the one-occupant bill.
    params = ValuationParams(
        medical_insured_usd={"cardiac": (1013.7, 6282.3), "respiratory": (733.1, 4102.9),
                             "hypothermia_frost": (511.3, 2999.7)},
        medical_uninsured_usd={"cardiac": (3162.1, 9100.7), "respiratory": (2201.3, 7007.1),
                               "hypothermia_frost": (1300.9, 5003.3)},
        home_care_fraction=0.3)
    statuses = {STATUS_HOME: oracles.OutcomeStatus.INJURED_RECOVERED_HOME,
                STATUS_HOSPITAL: oracles.OutcomeStatus.INJURED_RECOVERED_HOSPITAL,
                STATUS_DEATH: oracles.OutcomeStatus.DEATH}
    severities = (0.0, 0.013, 0.37 * params.severity_ceiling, params.severity_ceiling, 0.9)
    cases = [(s, c, ins, p) for s in statuses for c in range(len(CONDITIONS))
             for ins in (False, True) for p in severities]
    status, condition, insured, p_mort = (np.array(col) for col in zip(*cases))
    usd = medical_cost(OutcomeBatch(status.astype(np.int8), condition.astype(np.int8),
                                    insured), p_mort, params)
    ref = [oracles.medical_cost([oracles.OccupantOutcome(
        statuses[s], CONDITIONS[c], s == STATUS_HOSPITAL, bool(ins))], [p], params)
        for s, c, ins, p in cases]
    assert usd.tolist() == ref
    assert (usd[status == STATUS_DEATH] == 0.0).all()


def test_missing_sector_table_raises_only_for_unpowered_hours():
    params = cic_params(tables={"residential": CICTable(5.3, 2.17, 1.53, 3.1)})
    buildings = cic_buildings()
    residential = buildings[:4]
    hours = np.array([7.3] * len(residential) + [0.0] * (len(buildings) - len(residential)))
    usd = interruption_cost(buildings, hours, params)
    assert usd.tolist() == [oracles.interruption_cost(b, h, params)
                            for b, h in zip(buildings, hours.tolist())]
    hours[-1] = 0.25
    with pytest.raises(ConfigurationError, match="no interruption-cost table"):
        interruption_cost(buildings, hours, params)
    with pytest.raises(ConfigurationError, match="no interruption-cost table"):
        oracles.interruption_cost(buildings[-1], 0.25, params)


@pytest.mark.parametrize("variant", ["demo", "indoor_rh"])
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_bundle_matches_oracle_exactly(assets, variant, scenario):
    config, pop, schedule = prepare(assets[variant], scenario)
    bundle, rows = assemble_bundle(config, pop, schedule)
    ref, _, ref_rows = oracles.assemble_bundle(config, pop, schedule)

    assert np.array_equal(bundle.p_mort_by_building, ref.p_mort_by_building)
    assert np.array_equal(bundle.wi_sum_by_building, ref.wi_sum_by_building)
    assert np.array_equal(bundle.mean_rr_by_building, ref.mean_rr_by_building)
    assert np.array_equal(bundle.occupants_by_building, ref.occupants_by_building)
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
    powered = schedule.powered[:len(buildings)].T
    gain = 350.0
    t_in, hvac_on = simulate_block(buildings, window, powered, internal_gain_w=gain)
    for j, b in enumerate(buildings):
        single = oracles.simulate_building(b, window, powered[:, j], internal_gain_w=gain)
        scalar = oracles.simulate_building_scalar(b, window, powered[:, j],
                                                  internal_gain_w=gain)
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
        scalar = oracles.simulate_building_scalar(b, weather, powered[:, j])
        assert np.array_equal(scalar.t_in_c, t_in[:, j])
