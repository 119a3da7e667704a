"""The config codec: strict keys, round trips, and exit codes of bad values."""

from __future__ import annotations

import copy
import csv
import dataclasses
import hashlib
import json
import math
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldsnap import scenario as scenario_module
from coldsnap.cli import main
from coldsnap.codec import Bound, decode, encode
from coldsnap.demo import demo_config_dict, write_demo
from coldsnap.hazard import HazardConfig, HealthDistributions, RRModel
from coldsnap.population import (
    BuildingKind,
    Population,
    PopulationSpec,
    save_population,
    synthesize_population,
)
from coldsnap.outage import SCENARIO_PARAMS, Scenario
from coldsnap.scenario import ScenarioConfig, load_config
from coldsnap.valuation import PLACEHOLDER_CIC_TABLES, ValuationParams, interruption_cost

# Very large values find keys without an upper bound, which would fail in
# an allocation or overflow instead of exiting 2.
BAD_VALUES = ["x", -1, 2, None, [], {}, True, 0, [1.0], -0.5, 10**12, 1e300]
SCENARIO_NAMES = [s.value for s in Scenario]


@pytest.fixture(scope="module")
def small_config(demo_config_path):
    """The demo config with one building per kind and 2 trials, and the
    default population and valuation tables and rate distributions written
    out.

    Counts and trial numbers stay small because a mutation may legally
    raise any of them to a bad value's magnitude.
    """
    config = json.loads(demo_config_path.read_text())
    spec = config["population"]["spec"]
    spec["counts"] = {kind: 1 for kind in spec["counts"]}
    default_spec = encode(PopulationSpec(counts={BuildingKind.OFFICE: 1}))
    for key in ("insulation_table", "residential_profiles", "commercial_profiles"):
        spec[key] = default_spec[key]
    default_valuation = encode(ValuationParams())
    for key in ("medical_insured_usd", "medical_uninsured_usd", "wage_usd_per_hour", "cic"):
        config["valuation"][key] = default_valuation[key]
    config["valuation"]["cic"]["tables"] = encode(PLACEHOLDER_CIC_TABLES)
    config["hazard"]["distributions_pct"] = encode(HealthDistributions())
    config["n_trials"] = 2
    config["weather_path"] = str(demo_config_path.parent / config["weather_path"])
    return config


def run(config, tmp_path, scenario="co"):
    """Run `config`; `scenario` None runs the one the config selects."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    flag = ["--scenario", scenario] if scenario is not None else []
    return main(["run", "--config", str(path), *flag, "--out", str(tmp_path / "out")])


def set_key(config, path, value):
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value


@pytest.mark.parametrize("path, value, named", [
    (("hazard", "detla"), 0.5, "hazard.detla"),
    (("n_trial",), 3, "n_trial"),
    (("scenarios", "co", "shed_fractoin"), 0.25, "scenarios.co.shed_fractoin"),
    # A key of another scenario's section is unknown here.
    (("scenarios", "ro-di", "shed_fraction"), 0.25, "scenarios.ro-di.shed_fraction"),
    (("valuation", "cic"), {"seasn": 2.0}, "valuation.cic.seasn"),
    (("hazard", "distributions_pct"), {"health_insurance": [79.4, 3.0, 0.0]},
     "hazard.distributions_pct.health_insurance"),
    # Derived from the window, or set by the command line: not config keys.
    (("n_steps",), 1152, "n_steps"),
    (("threads",), 2, "threads"),
    (("write_traces",), True, "write_traces"),
    # A file value that a flag overrides is still checked.
    (("scenario",), 5, "scenario"),
    (("out_dir",), ["runs"], "out_dir"),
    # A curve's keys are its model's fields; the wage and CIC tables are
    # keyed by building kind and by table.
    (("hazard", "rr_model"), {"coefficents_high_to_low": [0.0, 0.0, 0.0, 0.0, 1.0]},
     "hazard.rr_model.coefficents_high_to_low"),
    (("valuation", "wage_usd_per_hour", "singel_family"), 45.51,
     "valuation.wage_usd_per_hour.singel_family"),
    (("valuation", "cic", "tables", "residental"),
     {"base": 5.0, "per_hour": 2.0, "per_kwh": 1.5, "slope_beyond_cap": 3.0},
     "valuation.cic.tables.residental"),
])
def test_unknown_or_malformed_key_exits_2_naming_it(small_config, tmp_path, capsys,
                                                    path, value, named):
    config = copy.deepcopy(small_config)
    set_key(config, path, value)
    assert run(config, tmp_path) == 2
    assert repr(named) in capsys.readouterr().err


def explicit_config(small_config):
    """Curves given as coefficients and as fit points, and CIC tables."""
    config = copy.deepcopy(small_config)
    rr = encode(RRModel())
    config["hazard"]["rr_model"] = {"coefficients_high_to_low": rr["coefficients_high_to_low"],
                                    "valid_range_c": rr["valid_range_c"],
                                    "fit_points": rr["fit_points"]}
    config["hazard"]["productivity_model"] = {
        "fit_points": [[10.0, 0.66], [16.0, 0.93], [22.0, 1.0], [28.0, 0.94], [32.0, 0.88]]}
    config["valuation"] = {"cic": {"tables": {
        sector: {"base": 1.0, "per_hour": 2.0, "per_kwh": 0.5, "slope_beyond_cap": 1.5}
        for sector in ("residential", "small_ci", "large_medium_ci")},
        "season_multiplier": 1.2}}
    return config


@pytest.mark.parametrize("variant", ["demo", "explicit"])
def test_materialized_sections_round_trip(small_config, tmp_path, variant):
    config = small_config if variant == "demo" else explicit_config(small_config)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    loaded = load_config(path)
    materialized = loaded.materialized()
    for section, tp in ((materialized["population"]["spec"], PopulationSpec),
                        (materialized["hazard"], HazardConfig),
                        (materialized["valuation"], ValuationParams)):
        assert json.dumps(encode(decode(tp, section, "s"))) == json.dumps(section)

    # Fed back as a config, the materialized sections reproduce the hash.
    config = copy.deepcopy(config)
    config["population"] = materialized["population"]
    config["hazard"] = materialized["hazard"]
    config["valuation"] = materialized["valuation"]
    path.write_text(json.dumps(config), encoding="utf-8")
    assert load_config(path).config_hash() == loaded.config_hash()


def write_config(config, directory, name="config.json"):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_hash_ignores_the_config_folder(small_config, tmp_path):
    config = {**small_config, "weather_path": "demo_weather.csv"}
    hashes = {load_config(write_config(config, tmp_path / folder / "demo")).config_hash()
              for folder in ("a", "b")}
    assert len(hashes) == 1


def test_hash_same_with_selected_section_defaults_written(small_config, tmp_path):
    config = copy.deepcopy(small_config)
    written = load_config(write_config(config, tmp_path), {"scenario": "co"})
    config["scenarios"]["co"] = encode(written.params)
    assert "shed_ids" in config["scenarios"]["co"]
    path = write_config(config, tmp_path / "filled")
    assert load_config(path, {"scenario": "co"}).config_hash() == written.config_hash()

    # Keys that another key makes unused are recorded at their defaults:
    # shed_fraction beside shed_ids, availability_constant beside availability.
    for scenario, given, unused, values in (
            ("co", {"shed_ids": [1, 2, 3]}, "shed_fraction", (0.25, 0.0)),
            ("ro-di", {"availability": [0.5] * 96}, "availability_constant", (0.25, 1.0))):
        hashes = set()
        for value in values:
            config["scenarios"][scenario].update(given, **{unused: value})
            path = write_config(config, tmp_path / f"{scenario}-{value}")
            hashes.add(load_config(path, {"scenario": scenario}).config_hash())
        assert len(hashes) == 1, scenario


def test_hash_ignores_unselected_sections(small_config, tmp_path):
    before = load_config(write_config(small_config, tmp_path), {"scenario": "co"})
    config = copy.deepcopy(small_config)
    config["scenarios"]["ro-di"]["n_groups"] = 7
    del config["scenarios"]["ro-hi"]
    after = load_config(write_config(config, tmp_path / "changed"), {"scenario": "co"})
    assert after.config_hash() == before.config_hash()


@pytest.mark.parametrize("scenario", ["base", "co", "ro-di"])
def test_materialized_config_reruns_to_same_hash_and_outputs(tmp_path, scenario):
    config_path = write_demo(tmp_path)
    original = load_config(config_path, {"scenario": scenario, "n_trials": 20})
    copy_path = write_config(original.materialized(), tmp_path, "materialized.json")
    assert load_config(copy_path).config_hash() == original.config_hash()
    outputs = []
    for path in (config_path, copy_path):
        out = tmp_path / path.stem
        assert main(["run", "--config", str(path), "--scenario", scenario, "--trials", "20",
                     "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("trials.csv", "exposure.csv")])
        outputs[-1].append(json.loads((out / "summary.json").read_text())["config_hash"])
        manifest = json.loads((out / "manifest.json").read_text())
        outputs[-1].append(manifest["config_hash"])
        # The demo prices interruptions with the acknowledged placeholder
        # tables, and the run's materialized config says so.
        valuation = manifest["materialized_config"]["valuation"]
        assert valuation["cic"]["tables"] is None and valuation["acknowledge_default_cic"] is True
    assert outputs[0] == outputs[1]


def test_cic_without_tables_is_honoured_and_gated(small_config, tmp_path, capsys):
    config = copy.deepcopy(small_config)
    config["valuation"]["cic"] = {"season_multiplier": 2.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert load_config(path).valuation.cic.season_multiplier == 2.0

    del config["valuation"]["acknowledge_default_cic"]
    assert run(config, tmp_path) == 2
    assert "acknowledge_default_cic" in capsys.readouterr().err


def test_acknowledged_placeholders_hash_apart_from_equal_own_tables(small_config, tmp_path):
    config = copy.deepcopy(small_config)
    config["valuation"]["cic"]["tables"] = None
    placeholders = load_config(write_config(config, tmp_path / "placeholders"))
    materialized = placeholders.materialized()["valuation"]
    assert materialized["cic"]["tables"] is None
    assert materialized["acknowledge_default_cic"] is True

    # small_config gives tables equal to the placeholders as its own.
    own = load_config(write_config(small_config, tmp_path / "own"))
    assert own.config_hash() != placeholders.config_hash()
    # The two price every sector alike.
    pop = synthesize_population(own.population_spec, own.seed)
    hours = np.full(len(pop), 30.0)
    assert (interruption_cost(pop, hours, own.valuation.cic).tolist()
            == interruption_cost(pop, hours, placeholders.valuation.cic).tolist())

    for loaded in (placeholders, own):
        rerun = load_config(write_config(loaded.materialized(), tmp_path / "rerun"))
        assert rerun.config_hash() == loaded.config_hash()


def test_own_tables_hash_alike_with_and_without_the_opt_in(small_config, tmp_path):
    assert small_config["valuation"]["acknowledge_default_cic"] is True
    config = copy.deepcopy(small_config)
    del config["valuation"]["acknowledge_default_cic"]
    hashes = {load_config(write_config(c, tmp_path / name)).config_hash()
              for c, name in ((small_config, "acknowledged"), (config, "unacknowledged"))}
    assert len(hashes) == 1


@pytest.mark.parametrize("path, value, named", [
    (("window", "start"), 5, "window.start"),
    (("seed",), -1, "seed"),
    (("n_trials",), 3.0, "n_trials"),
    (("population", "spec", "wfh_share"), 1.5, "wfh_share"),
    (("scenarios", "ro-di", "slot_s"), 0, "slot_s"),
    # The 96 h window is not a whole number of steps, or less than one.
    (("dt_s",), 700.0, "dt_s"),
    (("dt_s",), 1e6, "dt_s"),
    (("hazard", "rr_model"), {"valid_range_c": [30.0, -15.0]}, "hazard.rr_model"),
    (("hazard", "productivity_model"), {"valid_range_c": [32.0, 10.0]},
     "hazard.productivity_model"),
    (("hazard", "delta"), 5, "delta"),
    # Checked although the run selects another scenario.
    (("scenarios", "ro-hi", "fault_fraction"), 1.0, "fault_fraction"),
    (("scenarios", "ro-hi", "availability_constant"), 1.5, "availability_constant"),
    (("scenarios", "ro-di", "availability"), [0.5, 1.2], "availability"),
    (("scenarios", "ro-di", "n_groups"), 1, "n_groups"),
    # Checked against the population, before the output directory exists.
    (("scenarios", "co", "shed_ids"), [0, 99999999],
     "'scenarios.co.shed_ids' contains unknown building ids: [99999999]"),
    # Windows of one step, a window ending before it starts, and a bad end stamp.
    (("dt_s",), 96 * 3600.0, "dt_s"),
    (("window", "end"), "2021-02-15T00:05:00+00:00", "dt_s"),
    (("window", "end"), "2021-02-14T00:00:00+00:00", "window"),
    (("window", "end"), "2021-02-15T25:00", "window.end"),
    (("histogram_bins",), 10**12, "histogram_bins"),
    (("n_trials",), 10**12, "n_trials"),
    # Rates are percentages: a support outside [0, 100] would make a
    # Bernoulli certain or impossible for part of it.
    (("hazard", "distributions_pct", "home_insurance", 3), 150.0,
     "'hazard.distributions_pct.home_insurance'"),
    (("hazard", "distributions_pct", "health_insurance", 2), -5.0,
     "'hazard.distributions_pct.health_insurance'"),
    (("hazard", "distributions_pct", "hospital_survival", "cardiac", 3), 1e300,
     "'hazard.distributions_pct.hospital_survival.cardiac'"),
    (("population", "spec", "counts", "office"), 10**12, "'population.spec.counts'"),
    (("scenarios", "ro-hi", "n_groups"), 10**12, "n_groups"),
    # Scenario names are case-sensitive.
    (("scenario",), "CO", "'scenario'"),
    # The extremum check evaluates the curve on a 0.1 C grid over the range.
    (("hazard", "rr_model"), {"valid_range_c": [-15.0, 1e12]},
     "'hazard.rr_model.valid_range_c[1]' must lie in [-100, 100], got 1000000000000.0"),
    # The fit computes its residual, needs more points than the degree and
    # a range of some width; given coefficients must have an extremum of 1.
    (("hazard", "rr_model"), {"fit_points": [[-15.0, 1.5], [-5.0, 1.13], [5.0, 1.02],
                                             [15.0, 1.0], [25.0, 1.1]],
                              "fit_max_abs_residual": 0.01},
     "'hazard.rr_model': fit_max_abs_residual is computed by the fit"),
    (("hazard", "rr_model"), {"valid_range_c": [20.0, 20.0]},
     "'hazard.rr_model.valid_range_c' must have lo < hi, got [20.0, 20.0]"),
    (("hazard", "rr_model"), {"fit_points": [[-15.0, 1.5], [0.0, 1.05], [15.0, 1.0],
                                             [25.0, 1.1]]},
     "'hazard.rr_model': need more than 4 points for a degree-4 fit"),
    (("hazard", "rr_model"), {"coefficients_high_to_low": [0, 0, 0, 0, 2]},
     "'hazard.rr_model': mortality curve minimum over its range is 2.0; expected 1"),
    # Building ids are 64-bit integers.
    (("scenarios", "co", "shed_ids"), [0, 10**20],
     "'scenarios.co.shed_ids[1]' must lie in [-9,223,372,036,854,775,808, "
     "9,223,372,036,854,775,807], got 100000000000000000000"),
    # 345,600 one-second steps: more than the window may hold.
    (("dt_s",), 1, "'dt_s'"),
])
def test_out_of_range_value_exits_2_naming_key(small_config, tmp_path, capsys,
                                               path, value, named):
    config = copy.deepcopy(small_config)
    set_key(config, path, value)
    # The --scenario flag would override a bad `scenario` value.
    assert run(config, tmp_path, None if path == ("scenario",) else "co") == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("probe, named", [
    ("ua_cell", "row=3; column=ua_w_per_k"),
    ("ua_row", "'population.spec.insulation_table.little.ua_w_per_k_m2'"),
    ("mass_row", "'population.spec.insulation_table.little.mass_j_per_k_m2'"),
    ("shed_id", "'scenarios.co.shed_ids[1]'"),
    ("tier_cells", "'scenarios.ro-di.n_groups'"),
    ("dt_1", "'dt_s'"),
])
def test_overflowing_input_exits_2_before_the_output_directory(small_config, tmp_path, capsys,
                                                               probe, named):
    config = copy.deepcopy(small_config)
    if probe == "ua_cell":
        loaded = load_config(write_config(config, tmp_path / "spec"))
        columns = synthesize_population(loaded.population_spec, loaded.seed).columns
        ua = columns["ua_w_per_k"].copy()
        ua[1] = 1e308
        save_population(Population({**columns, "ua_w_per_k": ua}), tmp_path / "pop.csv")
        config["population"] = {"path": str(tmp_path / "pop.csv")}
    elif probe == "ua_row":
        for row in config["population"]["spec"]["insulation_table"].values():
            row["ua_w_per_k_m2"] = 5e-324
    elif probe == "mass_row":
        config["population"]["spec"]["insulation_table"]["little"]["mass_j_per_k_m2"] = 5e-324
    elif probe == "shed_id":
        config["scenarios"]["co"]["shed_ids"] = [0, 10**20]
    elif probe == "tier_cells":  # 10,000 tiers of 5,760 one-minute steps
        config["dt_s"] = 60.0
        config["scenarios"]["ro-di"]["n_groups"] = 10_000
    else:  # 345,600 one-second steps
        config["dt_s"] = 1.0
    assert run(config, tmp_path) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("table, column, value", [
    ("population", "ua_w_per_k", "-3.0"),
    # Cells that would drive a thermostat equilibrium out of range.
    ("population", "setpoint_c", "1e308"),
    ("weather", "temp_c", "150"),
])
def test_bad_file_cell_exits_2_naming_file_row_and_column(small_config, tmp_path, capsys,
                                                          table, column, value):
    config = copy.deepcopy(small_config)
    if table == "population":
        loaded = load_config(write_config(config, tmp_path / "spec"))
        source = tmp_path / "spec" / "population.csv"
        save_population(synthesize_population(loaded.population_spec, loaded.seed), source)
    else:
        source = Path(config["weather_path"])
    with open(source, newline="") as handle:
        rows = list(csv.DictReader(handle))
    # Row 3 of a population file, row 12 of the weather file.
    at = 1 if table == "population" else 10
    rows[at][column] = value
    path = tmp_path / f"{table}.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    if table == "population":
        config["population"] = {"path": str(path)}
    else:
        config["weather_path"] = str(path)
    assert run(config, tmp_path) == 2
    assert f"file={path}; row={at + 2}; column={column}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("update, named", [
    ({"dt_s": 450.0}, "'dt_s'"),
    # Off the weather file's 300 s grid, and past its end.
    ({"window": {"start": "2021-02-15T00:02:00", "end": "2021-02-19T00:02:00"}}, "'window'"),
    ({"window": {"start": "2021-02-17T00:00:00", "end": "2021-02-21T00:00:00"}}, "'window'"),
])
def test_window_cut_exits_2_naming_key_and_weather_file(small_config, tmp_path, capsys,
                                                        update, named):
    config = {**copy.deepcopy(small_config), **update}
    assert run(config, tmp_path) == 2
    err = capsys.readouterr().err
    assert named in err and config["weather_path"] in err


# The sha256 of each demo scenario's materialized config, its curves reduced
# to `fit_points` and `valid_range_c`: the fitted coefficients come from
# LAPACK and may differ in the last bit between builds. A shipped default
# that moves changes one of them.
DEMO_MATERIALIZED_SHA256 = {
    "base": "ce9b609a63131e84f61c7e924847282b87436477f886f93c3e878fad47b7465f",
    "co": "0f96828159de5e1d10858852094035a563538ac3721f1bfb22edaef3e001ac1a",
    "ro-di": "b00f41ca5ae3daf32f4078b5fa36819f904053e1b8a5ad19c109100583e9385c",
    "ro-hi": "22b812d616bc33d90f8923d707a8fd8edb18137ad0a6df783669ccc1e3ad42bc",
}


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_shipped_defaults_are_pinned(scenario):
    data = decode(ScenarioConfig, {**demo_config_dict(), "scenario": scenario}, "").materialized()
    for curve in ("rr_model", "productivity_model"):
        data["hazard"][curve] = {key: data["hazard"][curve][key]
                                 for key in ("fit_points", "valid_range_c")}
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DEMO_MATERIALIZED_SHA256[scenario]


@pytest.mark.parametrize("dt_s", [600.0, 900.0, 3600.0])
def test_coarser_steps_than_the_weather_file_run(small_config, tmp_path, dt_s):
    # The demo file's 1,440 samples leave 1,439 gaps: no stride spans it.
    config = {**copy.deepcopy(small_config), "dt_s": dt_s}
    assert run(config, tmp_path) == 0
    assert (tmp_path / "out" / "exposure.csv").exists()


def test_finer_step_than_the_weather_file_runs(small_config, tmp_path):
    # 150 s steps interpolate between the demo file's 300 s samples.
    config = {**copy.deepcopy(small_config), "dt_s": 150.0}
    assert run(config, tmp_path) == 0
    assert (tmp_path / "out" / "exposure.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("slot_s", 450.0), ("slot_s", 150.0),
    # The demo window is 96 one-hour slots.
    ("availability", [0.34] * 95), ("availability", [0.34] * 97),
])
def test_rolling_slots_checked_at_load_naming_key(small_config, tmp_path, capsys, monkeypatch,
                                                  key, value):
    config = copy.deepcopy(small_config)
    config["scenarios"]["ro-di"][key] = value

    def synthesize(*args):
        raise AssertionError("population synthesized before the config was checked")

    monkeypatch.setattr(scenario_module, "synthesize_population", synthesize)
    assert run(config, tmp_path, "base") == 2
    assert f"'scenarios.ro-di.{key}'" in capsys.readouterr().err


def test_slot_longer_than_window_is_one_slot(small_config, tmp_path):
    outputs = []
    for slot_s in (96 * 3600.0, 1e300):
        config = copy.deepcopy(small_config)
        config["scenarios"]["ro-di"].update(slot_s=slot_s, availability=[0.34])
        out = tmp_path / str(slot_s)
        out.mkdir()
        assert run(config, out, "ro-di") == 0
        outputs.append([(out / "out" / name).read_bytes()
                        for name in ("trials.csv", "exposure.csv")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("path, value, named", [
    (("population", "spec", "insulation_table"),
     {"little": {"ua_w_per_k_m2": 3.2, "mass_j_per_k_m2": 230e3}},
     ("'population.spec.insulation_table' has no row for 'poor'",)),
    # The spec's checks across fields name the field at fault.
    (("population", "spec", "counts"), {"office": 0},
     ("'population.spec.counts' must add up to 1 to 10,000,000 buildings, got 0",)),
    (("population", "spec", "insulation_weights"), {"poor": 0.5, "good": 0.4},
     ("'population.spec.insulation_weights' must sum to 1.0, got 0.9",)),
    (("population", "spec", "occupant_weights"), {"1": 0.5, "2": 0.6},
     ("'population.spec.occupant_weights' must sum to 1.0",)),
    (("population", "spec", "residential_profiles"), {},
     ("'population.spec.residential_profiles' has no row for 'single_family'",)),
    (("population", "spec", "residential_profiles", "single_family", "floor_m2"), "x",
     ("'population.spec.residential_profiles.single_family.floor_m2'",)),
    (("population", "spec", "commercial_profiles", "office", "workers"), [40, 15],
     ("'population.spec.commercial_profiles.office.workers' must have lo <= hi, "
      "got [40, 15]",)),
    (("population", "spec", "commercial_profiles"), {},
     ("'population.spec.commercial_profiles' has no row for 'office'",)),
    # Heating sized for an outdoor design temperature above the setpoint
    # would be negative.
    (("population", "spec", "hvac_design_outdoor_c"), 40.0,
     ("'population.spec.hvac_design_outdoor_c' must not exceed setpoint_c 20.0, got 40.0",)),
    (("population", "spec", "occupant_weights"), {"-1": 0.5, "2": 0.5},
     ("'population.spec.occupant_weights.-1' must lie in [0, 1,000,000], got -1",)),
    (("population", "spec", "occupant_weights"), {"1000001": 0.5, "2": 0.5},
     ("'population.spec.occupant_weights.1000001' must lie in [0, 1,000,000]",)),
    # A synthesized floor area must be positive: the spec is rejected
    # before anything is synthesized.
    (("population", "spec", "residential_profiles", "single_family", "floor_m2"), [-10, 5],
     ("'population.spec.residential_profiles.single_family.floor_m2[0]' must lie in "
      "[1, 10,000,000.0], got -10.0",)),
    (("scenarios", "co", "shed_scope"), "resdential",
     ("'scenarios.co.shed_scope' must be one of 'residential', 'all', got 'resdential'",)),
    (("hazard", "distributions_pct", "hospital_survival"), {"cardiac": [90.0, 5.0, 0.0, 100.0]},
     ("'hazard.distributions_pct.hospital_survival' needs exactly the conditions",)),
    (("hazard", "distributions_pct", "home_insurance", 1), 0.0,
     ("'hazard.distributions_pct.home_insurance' std must be positive",)),
    # A bracket that no residential building is in would be priced by no one.
    (("valuation", "cic", "income_multiplier", "hgih"), 5.0,
     ("'valuation.cic.income_multiplier.hgih' is not the income bracket",)),
    (("valuation", "wage_usd_per_hour"), {"office": 30.0},
     ("'valuation.wage_usd_per_hour'",)),
    (("valuation", "medical_insured_usd"), {"cardiac": [1, 2]},
     ("'valuation.medical_insured_usd' needs exactly the conditions",)),
    (("valuation", "medical_uninsured_usd", "none"), [1, 2],
     ("'valuation.medical_uninsured_usd.none' must be one of 'cardiac'",)),
    (("valuation", "medical_insured_usd", "cardiak"), [1014.0, 6282.0],
     ("'valuation.medical_insured_usd.cardiak' must be one of 'cardiac'",)),
    (("population", "spec", "residential_profiles", "office"),
     {"floor_m2": [1.0, 2.0], "kwh": [1.0, 2.0]},
     ("'population.spec.residential_profiles.office'", "not a residential kind")),
    (("population", "spec", "commercial_profiles", "single_family"),
     {"floor_m2": [1.0, 2.0], "kwh": [1.0, 2.0], "workers": [1, 2]},
     ("'population.spec.commercial_profiles.single_family'", "not a commercial kind")),
    # Every priced input is bounded, and an input out of bounds names its leaf.
    (("valuation", "wage_usd_per_hour", "office"), -30.0,
     ("'valuation.wage_usd_per_hour.office' must lie in [0, inf), got -30.0",)),
    (("valuation", "cic", "season_multiplier"), -2, ("'valuation.cic.season_multiplier'",)),
    (("valuation", "cic", "income_multiplier", "median"), -3,
     ("'valuation.cic.income_multiplier.median'",)),
    (("valuation", "pipe_repair_insured_usd"), [-900, -100],
     ("'valuation.pipe_repair_insured_usd[0]'",)),
    (("valuation", "home_care_fraction"), -1,
     ("'valuation.home_care_fraction' must lie in [0, 1], got -1.0",)),
    (("valuation", "medical_insured_usd", "cardiac"), [-2000.0, -1000.0],
     ("'valuation.medical_insured_usd.cardiac[0]'",)),
    (("valuation", "cic", "duration_cap_h"), -5, ("'valuation.cic.duration_cap_h'",)),
    (("valuation", "work_hours_commercial"), [30, -4],
     ("'valuation.work_hours_commercial[0]' must lie in [0, 24], got 30",)),
    # An inverted window would leave no working step.
    (("valuation", "work_hours_residential"), [16, 8],
     ("'valuation.work_hours_residential' must have lo <= hi, got [16, 8]",)),
    (("hazard", "winter_index"), {"indoor_rh_pct": 150},
     ("'hazard.winter_index.indoor_rh_pct' must lie in [0, 100], got 150.0",)),
    # ro-hi's hardened feeders strand no one, even when the run selects co.
    (("scenarios", "ro-hi", "fault_fraction"), 0.5,
     ("'scenarios.ro-hi.fault_fraction' must lie in [0, 0], got 0.5",)),
])
def test_bad_table_exits_2_naming_key(small_config, tmp_path, capsys, path, value, named):
    config = copy.deepcopy(small_config)
    set_key(config, path, value)
    assert run(config, tmp_path) == 2
    err = capsys.readouterr().err
    assert all(part in err for part in named), err


def test_income_brackets_unchecked_without_residential_buildings(small_config, tmp_path):
    config = copy.deepcopy(small_config)
    config["population"]["spec"]["counts"] = {"office": 2}
    config["valuation"]["cic"]["income_multiplier"] = {"hgih": 5.0}
    assert run(config, tmp_path) == 0


def test_partial_wage_table_covers_a_population_without_other_workers(small_config, tmp_path):
    config = copy.deepcopy(small_config)
    config["population"]["spec"]["counts"] = {"office": 2}
    config["valuation"]["wage_usd_per_hour"] = {"office": 30.0}
    assert run(config, tmp_path) == 0


def test_missing_wage_exits_2_before_simulating_or_writing(small_config, tmp_path, capsys,
                                                           monkeypatch):
    config = copy.deepcopy(small_config)
    config["valuation"]["wage_usd_per_hour"] = {"office": 30.0}

    def simulate(*args, **kwargs):
        raise AssertionError("buildings simulated before the wages were checked")

    monkeypatch.setattr(scenario_module, "simulate_block", simulate)
    assert run(config, tmp_path) == 2
    assert ("config key 'valuation.wage_usd_per_hour' has no wage for 'multi_family', "
            "whose buildings have workers") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def full_config(small_config, tmp_path_factory):
    """small_config as it loads: every default written out, and every
    scenario section."""
    loaded = load_config(write_config(small_config, tmp_path_factory.mktemp("full")))
    config = loaded.materialized()
    config["scenarios"] = {s.value: encode(params) for s, params in loaded.scenarios.items()}
    return config


def out_of_bounds(tp, data, path=()):
    """(key path, value) for each value just outside a declared bound of a
    leaf of the JSON `data` read as `tp`: past each finite limit of a
    number, or an ordered pair reversed."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        tp = typing.get_args(tp)[0]
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        for f in dataclasses.fields(tp):
            if f.name not in data:
                continue
            at = path + (f.name,)
            if Bound in f.metadata:
                yield from past_bound(f.metadata[Bound], data[f.name], at)
            elif tp is ScenarioConfig and f.name == "scenarios":
                for name, section in data[f.name].items():
                    params = SCENARIO_PARAMS[Scenario(name)]
                    yield from out_of_bounds(params, section, at + (name,))
            else:
                yield from out_of_bounds(hints[f.name], data[f.name], at)
    elif typing.get_origin(tp) is dict and data is not None:
        for key, value in data.items():
            yield from out_of_bounds(typing.get_args(tp)[1], value, path + (key,))


def past_bound(bound, value, path):
    """`out_of_bounds` of the JSON `value` of one bounded field at `path`."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from past_bound(bound, item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from past_bound(bound, item, path + (index,))
        if bound.ordered and value[0] != value[1]:
            yield path, value[::-1]
    elif value is not None:
        for limit, side in ((bound.lo, -1), (bound.hi, 1)):
            if math.isfinite(limit):  # an integer leaf takes only integers
                yield path, (limit + side if type(value) is int
                             else math.nextafter(limit, side * math.inf))
        for limit in (bound.above, bound.below):
            if math.isfinite(limit):
                yield path, limit


def dotted(path) -> str:
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def test_every_declared_bound_exits_2_naming_its_leaf(full_config, tmp_path, capsys):
    cases = list(out_of_bounds(ScenarioConfig, full_config))
    leaves = {dotted(path) for path, _ in cases}
    # Spot checks that the walk reaches every section.
    assert {"n_trials", "scenarios.ro-hi.fault_fraction", "population.spec.counts.office",
            "population.spec.commercial_profiles.office.workers",
            "population.spec.insulation_table.little.ua_w_per_k_m2",
            "population.spec.hvac_design_outdoor_c", "population.spec.hvac_oversize",
            "hazard.winter_index.rh_crit_pct", "hazard.rr_model.valid_range_c[1]",
            "valuation.cic.tables.residential.base",
            "valuation.medical_uninsured_usd.cardiac[1]",
            "valuation.work_hours_commercial"} <= leaves
    for path, value in cases:
        config = copy.deepcopy(full_config)
        set_key(config, path, value)
        assert run(config, tmp_path) == 2, (path, value)
        err = capsys.readouterr().err
        assert f"config key {dotted(path)!r} must " in err, (path, value, err)
        assert not (tmp_path / "out").exists(), (path, value)


def key_paths(node, prefix=()):
    """Every key path of a JSON tree: objects, lists and leaves."""
    if prefix:
        yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from key_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from key_paths(value, prefix + (index,))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_bad_leaf_exits_0_or_2(small_config, tmp_path_factory, data):
    paths = sorted(key_paths(small_config), key=repr)
    path = data.draw(st.sampled_from(paths))
    value = data.draw(st.sampled_from(BAD_VALUES))
    scenario = data.draw(st.sampled_from(SCENARIO_NAMES))
    config = copy.deepcopy(small_config)
    set_key(config, path, value)
    assert run(config, tmp_path_factory.mktemp("mutant"), scenario) in (0, 2)
