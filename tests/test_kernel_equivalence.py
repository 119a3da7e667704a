"""The block kernels against the per-building oracles: the schedule matrix,
the thermal block, the curves, interruption and medical costs and
`assemble_bundle`.

Every comparison is exact: the kernel must reproduce the one-building path
bit for bit, so that run artifacts stay byte-identical.
"""

import dataclasses
import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest

import oracles
from coldsnap import scenario as scenario_module
from coldsnap import thermal as thermal_module
from coldsnap.cli import main
from coldsnap.codec import decode
from coldsnap.demo import demo_config_dict, make_uri_like_weather, write_weather_csv
from coldsnap.errors import ConfigurationError
from coldsnap.hazard import CONDITIONS, HazardConfig, OutcomeTable, ProductivityModel, RRModel
from coldsnap.outage import ISOLATED, TIERS, Scenario, assign_rolling_groups
from coldsnap.population import BuildingKind, Population, Sector, synthesize_population
from coldsnap.scenario import (
    EXPOSURE_FIELDS,
    _write_exposure_csv,
    assemble_bundle,
    block_rows,
    build_schedules,
    load_config,
    read_inputs,
    sequential_sum,
)
from coldsnap.thermal import STEP_CHUNK, TraceWriter, format_fixed4, simulate_block
from coldsnap.valuation import (
    CICParams,
    CICTable,
    ValuationParams,
    interruption_cost,
    lost_work_hours,
    medical_bills,
    medical_cost,
    medical_severity,
)
from coldsnap.weather import WeatherSeries, load_weather_csv, slice_window

from conftest import constant_weather, make_building, make_population

# Demo counts scaled so the population spans two blocks of `WIDTH` buildings
# and ends in partial blocks and reduction slices.
SCALE = 0.21
# Buildings per block under `narrow_blocks`: the shipped budget takes the
# whole scaled demo in one block.
WIDTH = 256


ROLLING = ("scenarios.ro-di", "scenarios.ro-hi")
SCENARIO_NAMES = [s.value for s in Scenario]

# Each variant updates sections of the scaled demo config, keyed by dotted path
# ("" is the top level).
VARIANTS = {
    "demo": {},
    # Constant indoor humidity gates the freeze index at every cold step,
    # and an unset beta_wi takes the population maximum.
    "indoor_rh": {"hazard.winter_index": {"indoor_rh_pct": 90.0},
                  "valuation": {"beta_wi": None}},
    # An explicit shed set, partly overlapping the fault-isolated customers.
    "shed_ids": {"scenarios.co": {"shed_ids": list(range(0, 290, 7)), "fault_fraction": 0.1}},
    # A seeded shed fraction of every building, not only the homes.
    "scope_all": {"scenarios.co": {"shed_scope": "all"}},
    # Per-slot availability serving 0, 1, 2 and all 3 groups.
    "availability": dict.fromkeys(ROLLING, {
        "availability": [(0.0, 0.34, 0.67, 1.0, 0.99)[i % 5] for i in range(96)]}),
    # 3900 s slots of 13 steps: 88 whole slots and a partial last one.
    "slot_3900": dict.fromkeys(ROLLING, {"slot_s": 3900.0}),
    "groups_7": dict.fromkeys(ROLLING, {"n_groups": 7}),
    # Tiers of 5-7 homes: fewer than half a narrowed block, so they share blocks.
    "groups_40": dict.fromkeys(ROLLING, {"n_groups": 40}),
    "commercial": {"population.spec": {"counts": {"office": 20, "big_box": 15}}},
    # Half the weather file's step: the window is interpolated between samples.
    "dt_150": {"": {"dt_s": 150.0}},
    # Seven groups over four homes: some tiers hold no building.
    "few_homes": {"population.spec": {"counts": {"single_family": 3, "mobile_home": 1,
                                                 "office": 20, "big_box": 15}},
                  **dict.fromkeys(ROLLING, {"n_groups": 7})},
}


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    directory = tmp_path_factory.mktemp("kernel_equivalence")
    write_weather_csv(make_uri_like_weather(), directory / "weather.csv")
    config = demo_config_dict(weather_filename="weather.csv", out_dir="runs")
    counts = config["population"]["spec"]["counts"]
    config["population"]["spec"]["counts"] = {k: round(n * SCALE) for k, n in counts.items()}
    paths = {}
    for variant, updates in VARIANTS.items():
        variant_config = json.loads(json.dumps(config))
        for dotted, values in updates.items():
            section = variant_config
            for key in filter(None, dotted.split(".")):
                section = section.setdefault(key, {})
            section.update(values)
        paths[variant] = directory / f"{variant}.json"
        paths[variant].write_text(json.dumps(variant_config), encoding="utf-8")
    return paths


def prepare(path, scenario):
    config = load_config(path, {"scenario": scenario})
    pop = synthesize_population(config.population_spec, config.seed)
    return config, pop, build_schedules(config, pop)


def narrow_blocks(monkeypatch, config, width=WIDTH) -> tuple[int, int]:
    """Shrinks the byte budget to `width` buildings of the config's window;
    returns the block width and the rows of one reduction slice."""
    monkeypatch.setattr(scenario_module, "BLOCK_BYTES", width * 8 * config.n_steps)
    return width, width // 8


def test_population_ends_in_partial_blocks(assets, monkeypatch):
    config, pop, _ = prepare(assets["demo"], "base")
    sim_block, reduce_block = narrow_blocks(monkeypatch, config)
    n = len(pop.buildings)
    assert n > sim_block
    assert n % sim_block and n % reduce_block


def kwh_ties_population():
    """Residential buildings in shuffled id order whose consumption takes
    three values, four buildings each, with commercial buildings between them."""
    ids = [17, 3, 11, 5, 0, 8, 21, 2, 14, 9, 30, 1]
    buildings = [make_building(bid, avg_annual_kwh=(12_000.0, 9_000.0, 15_500.0)[i % 3])
                 for i, bid in enumerate(ids)]
    buildings[4:4] = [make_building(40, kind=BuildingKind.OFFICE, avg_annual_kwh=12_000.0)]
    buildings.append(make_building(41, kind=BuildingKind.BIG_BOX, avg_annual_kwh=9_000.0))
    return make_population(buildings)


@pytest.mark.parametrize("n_groups", [2, 3, 4, 7])
def test_rolling_groups_match_oracle_exactly(assets, n_groups):
    _, demo, _ = prepare(assets["demo"], "base")
    assert len(demo) == 295
    for pop in (demo, kwh_ties_population()):
        tier = assign_rolling_groups(pop, n_groups)
        rows = pop.buildings
        assert (tier >= 0).tolist() == [b.sector is Sector.RESIDENTIAL for b in rows]
        assert {b.id: t for b, t in zip(rows, tier.tolist()) if t >= 0} == \
            oracles.assign_rolling_groups(pop, n_groups)
    assert len(set(pop.avg_annual_kwh.tolist())) == 3


@pytest.mark.parametrize("variant, scenario",
                         [("demo", s) for s in SCENARIO_NAMES] + [("shed_ids", "co")]
                         + [(v, "ro-di") for v in ("availability", "slot_3900", "groups_7",
                                                   "commercial", "few_homes")]
                         + [("availability", "ro-hi"), ("commercial", "co")])
def test_schedule_rows_match_oracle_exactly(assets, variant, scenario):
    config, pop, schedule = prepare(assets[variant], scenario)
    ref = oracles.build_schedules(config, pop)

    assert not schedule.group.flags.writeable
    assert not schedule.on.flags.writeable
    assert schedule.group.shape == (len(pop.buildings),)
    assert schedule.on.shape[1] == ref.n_steps == config.n_steps
    powered = schedule.on[schedule.group]
    for b, row in zip(pop.buildings, powered):
        assert np.array_equal(row, ref.schedules[b.id])
    for first in range(0, len(pop), WIDTH):
        rows = slice(first, first + WIDTH)
        block = schedule.on[schedule.group[rows]]
        assert block.flags.c_contiguous and np.array_equal(
            block, [ref.schedules[b.id] for b in pop.buildings[rows]])
    isolated = schedule.group == ISOLATED
    assert isolated.tolist() == [b.id in ref.isolated_ids for b in pop.buildings]
    assert schedule.unpowered_hours().tolist() == [ref.unpowered_hours(b.id)
                                                   for b in pop.buildings]
    if scenario != "base":
        assert not powered.all()
    if scenario in ("co", "ro-di"):
        assert isolated.any()
    if variant == "availability":
        n_groups = config.params.n_groups
        served = set(schedule.on[TIERS:].sum(axis=0).tolist())
        assert served == set(range(n_groups + 1))
    if variant == "few_homes":
        assert sum(b.sector is Sector.RESIDENTIAL for b in pop.buildings) < config.params.n_groups


def exposure_by_id(config, pop) -> dict:
    """Each building's unpowered hours, mortality and freeze index, keyed by id."""
    schedule = build_schedules(config, pop)
    _, exposure = assemble_bundle(config, pop, schedule, *read_inputs(config, pop, schedule))
    columns = [exposure[name].tolist() for name in ("unpowered_h", "p_mort", "wi_sum")]
    return dict(zip(pop.id.tolist(), zip(*columns)))


@pytest.mark.parametrize("variant, scenario", [("scope_all", "co"), ("demo", "ro-di")])
def test_row_order_and_id_spacing_leave_each_building_alone(assets, variant, scenario):
    # Ids 10, 13, 16, ... keep the order of 0, 1, 2, ..., so each seeded
    # draw and each tier picks the same buildings from the reversed rows.
    config, pop, _ = prepare(assets[variant], scenario)
    moved = Population({**pop.columns, "id": 10 + 3 * pop.id})[::-1]
    before, after = exposure_by_id(config, pop), exposure_by_id(config, moved)
    assert {10 + 3 * bid: row for bid, row in before.items()} == after
    hours = [row[0] for row in after.values()]
    assert 0.0 in hours and 96.0 in hours


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
    usd = interruption_cost(make_population(buildings), np.array(hours), params)
    ref = [oracles.interruption_cost(b, h, params) for b, h in zip(buildings, hours)]
    assert usd.tolist() == ref
    assert sum(usd.tolist()) == sum(ref)
    assert (usd[np.array(hours) == 0.0] == 0.0).all()
    assert (usd[np.array(hours) > 0.0] > 0.0).all()


def test_medical_bills_match_scalar_oracle_exactly():
    # Every outcome code, so every (condition, status, insurance) case, at
    # severities below, at and beyond the ceiling, against the one-occupant
    # bill.
    params = ValuationParams(
        medical_insured_usd={"cardiac": (1013.7, 6282.3), "respiratory": (733.1, 4102.9),
                             "hypothermia_frost": (511.3, 2999.7)},
        medical_uninsured_usd={"cardiac": (3162.1, 9100.7), "respiratory": (2201.3, 7007.1),
                               "hypothermia_frost": (1300.9, 5003.3)},
        home_care_fraction=0.3)
    statuses = {oracles.STATUS_HOME: oracles.OutcomeStatus.INJURED_RECOVERED_HOME,
                oracles.STATUS_HOSPITAL: oracles.OutcomeStatus.INJURED_RECOVERED_HOSPITAL,
                oracles.STATUS_DEATH: oracles.OutcomeStatus.DEATH}
    severities = (0.0, 0.013, 0.37 * params.severity_ceiling, params.severity_ceiling, 0.9)
    bills = medical_bills(params)
    assert [len(b) for b in bills] == [len(OutcomeTable.death)] * 2 == [18, 18]
    code = np.repeat(np.arange(len(OutcomeTable.death)), len(severities))
    p_mort = np.tile(severities, len(OutcomeTable.death))
    batch = oracles.decode_outcome(code)
    usd = medical_cost(code, medical_severity(p_mort, params), bills)
    assert usd.tolist() == oracles.medical_cost_sampled(batch, p_mort, params).tolist()
    ref = [oracles.medical_cost([oracles.OccupantOutcome(
        statuses[s], CONDITIONS[c], s == oracles.STATUS_HOSPITAL, bool(ins))], [p], params)
        for s, c, ins, p in zip(batch.status.tolist(), batch.condition.tolist(),
                                batch.insured.tolist(), p_mort.tolist())]
    assert usd.tolist() == ref
    assert (usd[OutcomeTable.death[code]] == 0.0).all()


def test_missing_sector_table_raises_only_for_unpowered_hours():
    params = cic_params(tables={"residential": CICTable(5.3, 2.17, 1.53, 3.1)})
    buildings = cic_buildings()
    residential = buildings[:4]
    hours = np.array([7.3] * len(residential) + [0.0] * (len(buildings) - len(residential)))
    usd = interruption_cost(make_population(buildings), hours, params)
    assert usd.tolist() == [oracles.interruption_cost(b, h, params)
                            for b, h in zip(buildings, hours.tolist())]
    hours[-1] = 0.25
    with pytest.raises(ConfigurationError, match="no interruption-cost table"):
        interruption_cost(make_population(buildings), hours, params)
    with pytest.raises(ConfigurationError, match="no interruption-cost table"):
        oracles.interruption_cost(buildings[-1], 0.25, params)


def assert_bundle_matches_oracle(config, pop, schedule, directory, traces=False):
    """`assemble_bundle` against the one-building oracle: the bundle, the
    exposure columns and `exposure.csv`, and with `traces` the streamed
    `traces.csv`. Returns the bundle."""
    streamed = directory / "traces.csv" if traces else None
    bundle, exposure = assemble_bundle(config, pop, schedule,
                                       *read_inputs(config, pop, schedule), streamed)
    ref, ref_traces, ref_rows = oracles.assemble_bundle(config, pop, schedule)

    assert np.array_equal(bundle.p_mort_by_building, ref.p_mort_by_building)
    assert np.array_equal(bundle.wi_sum_by_building, ref.wi_sum_by_building)
    assert np.array_equal(bundle.occupants_by_building, ref.occupants_by_building)
    assert bundle.c_prod == ref.c_prod
    assert bundle.c_cic == ref.c_cic
    assert bundle.beta_wi == ref.beta_wi
    assert tuple(exposure) == EXPOSURE_FIELDS == oracles.EXPOSURE_FLOATS
    for name in EXPOSURE_FIELDS:
        assert exposure[name].tolist() == [row[name] for row in ref_rows], name
    _write_exposure_csv(directory / "exposure.csv", pop, exposure)
    oracles.write_exposure_csv(ref_rows, directory / "ref.csv")
    assert (directory / "exposure.csv").read_bytes() == (directory / "ref.csv").read_bytes()
    if traces:
        oracles.write_traces_csv(ref_traces.values(), directory / "ref_traces.csv")
        assert streamed.read_bytes() == (directory / "ref_traces.csv").read_bytes()
    return bundle


@pytest.mark.parametrize("variant", ["demo", "indoor_rh", "dt_150"])
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_bundle_matches_oracle_exactly(assets, tmp_path, variant, scenario):
    config, pop, schedule = prepare(assets[variant], scenario)
    bundle = assert_bundle_matches_oracle(config, pop, schedule, tmp_path)
    if scenario != "base":
        assert bundle.c_prod > 0.0 and bundle.c_cic > 0.0
    if variant == "indoor_rh" and scenario in ("co", "ro-di"):
        # Buildings dark for the whole window fall below freezing.
        assert (bundle.wi_sum_by_building > 0.0).any()


@pytest.mark.parametrize("width, traces", [(16, True), (29, True), (16, False), (29, False)],
                         ids=["16", "29", "16-by_group", "29-by_group"])
@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 3)])
def test_blocks_of_every_fill_match_oracle(assets, tmp_path, monkeypatch, width, blocks, extra,
                                           traces):
    # W - 1, W, W + 1 and 2W + 3 buildings: a block shorter than the one
    # before it leaves that block's rows in the reused buffer, and none of
    # them may reach the exposure or the traces. At W = 29 the reduction
    # slices hold 3 rows, so a block of 29 ends in a short slice of 2.
    # With traces the blocks are near-equal runs of population order, and
    # W + 1 buildings at W = 16 and 2W + 3 at either W end in a shorter
    # block; without, they are `block_rows` by power row.
    config, demo, _ = prepare(assets["demo"], "ro-di")
    narrow_blocks(monkeypatch, config, width=width)
    widths = []

    def recording_simulate_block(block, *args):
        widths.append(len(block))
        simulate_block(block, *args)

    monkeypatch.setattr(scenario_module, "simulate_block", recording_simulate_block)
    # The last buildings of the demo: homes and every commercial kind.
    pop = demo[len(demo) - blocks * width - extra:]
    assert len({*pop.sector.tolist()}) > 1
    schedule = build_schedules(config, pop)
    assert_bundle_matches_oracle(config, pop, schedule, tmp_path, traces=traces)
    n = len(pop)
    if traces:
        assert widths == [len(rows) for rows in np.array_split(np.arange(n), -(-n // width))]
    else:
        assert widths == [len(rows) for rows in block_rows(schedule.group, width)]
        assert len(widths) > 1 and sum(widths) == n


@pytest.mark.parametrize("variant, width", [("groups_7", 16), ("groups_7", 29), ("groups_40", 29)])
def test_own_and_shared_blocks_match_oracle(assets, tmp_path, monkeypatch, variant, width):
    # groups_7's tiers of 35-40 homes are cut into near-equal blocks of
    # their own, a row's last blocks one shorter than its first. groups_40's
    # tiers of 5-7 homes share blocks with each other and with the isolated
    # row, so the rows of one block are lit at different steps.
    config, pop, schedule = prepare(assets[variant], "ro-di")
    narrow_blocks(monkeypatch, config, width=width)
    group = schedule.group
    blocks = block_rows(group, width)
    rows_on = [schedule.on[np.unique(group[block])] for block in blocks]
    assert any((on != on[0]).any() for on in rows_on) == (variant == "groups_40")
    assert any(len(a) > len(b) and group[a[0]] == group[b[0]]
               for a, b in zip(blocks, blocks[1:])) == (variant == "groups_7")
    assert_bundle_matches_oracle(config, pop, schedule, tmp_path)


@pytest.mark.parametrize("sizes", [[20, 0, 10, 40, 37, 39], [1] * 1000, [3, 300, 2, 2, 700, 1, 5] * 20],
                         ids=["tiers", "singles", "mixed"])
@pytest.mark.parametrize("width", [1, 3, 16, 29, 400])
def test_block_rows_pack_short_power_rows(sizes, width):
    group = np.random.default_rng(7).permutation(np.repeat(np.arange(len(sizes)), sizes))
    n = len(group)
    blocks = block_rows(group, width)
    assert sorted(np.concatenate(blocks).tolist()) == list(range(n))
    assert all(0 < len(block) <= width for block in blocks)
    # However many rows there are, the block count stays near n / width.
    assert len(blocks) <= 2 * n / width + 1
    own = 2 * np.bincount(group) > width
    for g in np.flatnonzero(own):
        mine = [block for block in blocks if (group[block] == g).any()]
        assert all((group[block] == g).all() for block in mine)
        assert np.concatenate(mine).tolist() == np.flatnonzero(group == g).tolist()
        lengths = [len(block) for block in mine]
        assert len(lengths) == -(-len(np.flatnonzero(group == g)) // width)
        assert max(lengths) - min(lengths) <= 1
    shared = [block for block in blocks if not own[group[block[0]]]]
    order = np.argsort(group, kind="stable")
    assert [i for block in shared for i in block.tolist()] == order[~own[group[order]]].tolist()
    # Each short row lies whole in one shared block, and a block is closed
    # only when the next row would overflow it.
    assert sum(len(np.unique(group[block])) for block in shared) == len(np.unique(group[~own[group]]))
    assert all(len(a) + len(b) > width for a, b in zip(shared, shared[1:]))
    # One key for every building: near-equal runs of population order.
    ordered = block_rows(np.zeros_like(group), width)
    assert np.concatenate(ordered).tolist() == list(range(n))
    lengths = [len(block) for block in ordered]
    assert len(lengths) == -(-n // width) and max(lengths) - min(lengths) <= 1


@pytest.mark.parametrize("scenario", ["co", "ro-di", "ro-hi"])
def test_traced_and_plain_runs_write_the_same_outputs(assets, tmp_path, monkeypatch, scenario):
    # Heating flags are kept only for traces.csv, and a traced run cuts its
    # blocks in population order, a plain one by power row (co and ro-di
    # have dark and isolated rows); the numbers must depend on neither.
    config, _, _ = prepare(assets["demo"], scenario)
    narrow_blocks(monkeypatch, config)
    cuts = []

    def recording_block_rows(*args):
        cuts.append(block_rows(*args))
        return cuts[-1]

    monkeypatch.setattr(scenario_module, "block_rows", recording_block_rows)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    for out, flags in ((plain, []), (traced, ["--traces"])):
        assert main(["run", "--config", str(assets["demo"]), "--scenario", scenario,
                     "--trials", "20", "--out", str(out), *flags]) == 0
    assert (traced / "traces.csv").exists() and not (plain / "traces.csv").exists()
    plain_cut, traced_cut = ([rows.tolist() for rows in cut] for cut in cuts)
    assert len(traced_cut) > 1 and plain_cut != traced_cut
    for name in ("exposure.csv", "trials.csv", "summary.json"):
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name


@pytest.mark.parametrize("scenario", ["co", "ro-di"])
def test_cost_totals_add_left_to_right(assets, monkeypatch, scenario):
    config, pop, schedule = prepare(assets["demo"], scenario)
    blocks, slices = [], []

    def recording_block_rows(*args, **kwargs):
        blocks.extend(block_rows(*args, **kwargs))
        return blocks

    def recording_lost_work_hours(*args):
        slices.append(lost_work_hours(*args))
        return slices[-1]

    monkeypatch.setattr(scenario_module, "block_rows", recording_block_rows)
    monkeypatch.setattr(scenario_module, "lost_work_hours", recording_lost_work_hours)
    window, wage, c_cic = read_inputs(config, pop, schedule)
    bundle, _ = assemble_bundle(config, pop, schedule, window, wage, c_cic)
    total = 0.0
    for usd in interruption_cost(pop, schedule.unpowered_hours(), config.valuation.cic).tolist():
        total += usd
    assert bundle.c_cic == total > 0.0
    # The slices come in block order; each is placed at its buildings' rows.
    rows = np.concatenate(blocks)
    assert sorted(rows.tolist()) == list(range(len(pop)))
    assert (rows != np.arange(len(pop))).any()
    lost_h = np.empty(len(pop))
    lost_h[rows] = np.concatenate(slices)
    assert len(slices) > 1
    total = 0.0
    for n, hours, usd in zip(pop.n_workers.tolist(), lost_h.tolist(), wage.tolist()):
        total += n * hours * usd
    assert bundle.c_prod == total > 0.0


def test_sequential_sum_is_the_loop():
    # A compensated sum (Python's `sum` from 3.12) gives 2.0 here.
    assert sequential_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert sequential_sum([]) == 0.0 and str(sequential_sum([-0.0])) == "0.0"
    rng = np.random.default_rng(3)
    for n in (1, 2, 17, 4209):
        values = rng.lognormal(3.0, 2.0, n)
        total = 0.0
        for v in values.tolist():
            total += v
        assert sequential_sum(values) == total


def test_streamed_traces_match_oracle_export(assets, tmp_path, monkeypatch):
    config, pop, schedule = prepare(assets["demo"], "ro-hi")
    writers = []

    def recording_writer(*args):
        writers.append(TraceWriter(*args))
        return writers[-1]

    monkeypatch.setattr(scenario_module, "TraceWriter", recording_writer)
    sim_block, _ = narrow_blocks(monkeypatch, config)
    streamed = tmp_path / "streamed.csv"
    assemble_bundle(config, pop, schedule, *read_inputs(config, pop, schedule), streamed)
    # The population spans two simulation blocks, and each ends in a partial
    # write chunk.
    blocks = block_rows(np.zeros(len(pop), dtype=np.int64), sim_block)
    chunk = writers[0].chunk
    assert len(blocks) > 1 and chunk > 1
    assert all(len(block) % chunk for block in blocks)
    _, traces, _ = oracles.assemble_bundle(config, pop, schedule)
    exported = tmp_path / "exported.csv"
    oracles.write_traces_csv(traces.values(), exported)
    assert streamed.read_bytes() == exported.read_bytes()


def test_fractional_step_export_matches_oracle(tmp_path, monkeypatch):
    # 37.5 s steps alternate stamps with and without microseconds; ids and
    # kW draws of several widths; temperatures that take the f-string
    # fallback, one of them wider than the fixed-width field.
    weather = constant_weather(-30.0, hours=0.5, dt_s=37.5)
    buildings = [make_building(bid, ua_per_m2=u, hvac_heat_w=w)
                 for bid, u, w in ((0, 1.8, 900.0), (7, 4.0, 12_500.0), (42, 1.2, 2_000.0),
                                   (130, 6.0, 1_234_567.0), (2_500, 2.5, 5_000.0),
                                   (1_000_001, 3.0, 40.0), (9, 5.0, 7_000.0))]
    powered = np.zeros((len(buildings), weather.n_steps), dtype=bool)
    powered[:, ::3] = True
    powered[3] = True
    pop = make_population(buildings)
    t_in, hvac_on = oracles.simulate_new_block(pop, weather, powered)
    t_in[1:4, 5] = (-0.0, 0.00015, 123_456.78901)
    t_in[2, 6] = -1e-7
    assert hvac_on.any() and (t_in < 0).any()

    monkeypatch.setattr(thermal_module, "TRACE_CHUNK_BYTES", 3 * weather.n_steps * 50)
    streamed = tmp_path / "streamed.csv"
    with open(streamed, "wb") as handle:
        writer = TraceWriter(handle, weather.start, weather.dt_s, weather.n_steps)
        for at in (slice(0, 5), slice(5, None)):
            writer.write(pop[at], t_in[at], powered[at], hvac_on[at])
    assert 1 < writer.chunk < 5 and 5 % writer.chunk
    exported = tmp_path / "exported.csv"
    oracles.write_traces_csv(
        [oracles.ExposureTrace(b.id, weather.start, weather.dt_s, t_in[j].copy(),
                               powered[j].copy(),
                               np.where(hvac_on[j], b.hvac_electric_kw, 0.0))
         for j, b in enumerate(buildings)], exported)
    assert streamed.read_bytes() == exported.read_bytes()
    rows = [line.split(",") for line in exported.read_text().splitlines()[1:]]
    assert len({len(row[1]) for row in rows}) == 2
    assert "-0.0000" in {row[2] for row in rows}


def fixed4_fuzz_values() -> np.ndarray:
    rng = np.random.default_rng(20210215)
    ties = (rng.integers(-10**7, 10**7, 50_000) + 0.5) / 1e4
    edges = np.array([0.0, 5e-324, 1e-300, 1e-7, 4e-5, 5e-5, 6e-5, 0.00015, 0.03125,
                      0.99995, 9.99995, 99.99995, 999.99995, 999.99994, 999.99996,
                      999.9999, 1000.0, 1000.00004, 1e6])
    edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    return np.concatenate([
        rng.uniform(-60.0, 60.0, 600_000),
        rng.choice([-1.0, 1.0], 300_000) * 10.0 ** rng.uniform(-7.0, 3.0, 300_000),
        ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
        edges, -edges,
    ])


def assert_fixed4_matches_fstring(values):
    field = format_fixed4(values)
    lines = np.concatenate([field, np.full((len(values), 1), ord("\n"), np.uint8)], axis=1)
    got = lines[lines != 0].tobytes().decode("ascii").split("\n")[:-1]
    want = [f"{v:.4f}" for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad[:10]


def test_fixed4_matches_fstring():
    values = fixed4_fuzz_values()
    assert len(values) >= 1_000_000
    assert_fixed4_matches_fstring(values)


def test_fixed4_fallbacks_wider_than_the_field():
    assert_fixed4_matches_fstring(np.array([1e17, -1e17, 1e300, -1e300, 1234567.89, 5.0]))


def test_fixed4_keeps_the_input_shape():
    block = fixed4_fuzz_values()[:6_000].reshape(3, 2_000)
    assert np.array_equal(format_fixed4(block)[1], format_fixed4(block[1]))


def test_block_row_matches_single_building_runs(assets):
    config, pop, schedule = prepare(assets["demo"], "ro-di")
    window = slice_window(load_weather_csv(config.file(config.weather_path)),
                          config.window.start, config.n_steps, config.dt_s)
    block = pop[:67]
    buildings = block.buildings
    powered = schedule.on[schedule.group[:len(buildings)]]
    t_in, hvac_on = oracles.simulate_new_block(block, window, powered)
    for j, b in enumerate(buildings):
        single = oracles.simulate_building(b, window, powered[j])
        scalar = oracles.simulate_building_scalar(b, window, powered[j])
        for trace in (single, scalar):
            assert np.array_equal(trace.t_in_c, t_in[j])
            assert np.array_equal(trace.hvac_kw, np.where(hvac_on[j], b.hvac_electric_kw, 0.0))
    # A buffer of another block's rows is overwritten whole; without a
    # heating-flag buffer the temperatures are the same.
    buffer = np.full(t_in.shape, np.nan)
    simulate_block(block, window, powered, buffer)
    assert np.array_equal(buffer, t_in)


@pytest.mark.parametrize("lit", [False, True])
def test_uniform_block_over_a_short_last_chunk_matches_single_building_runs(lit):
    # Every building dark at every step, so the relay is skipped throughout,
    # or lit at every step, over a window that ends in a short step chunk.
    n_steps = 3 * STEP_CHUNK + 7
    weather = WeatherSeries(start=datetime(2021, 2, 15, tzinfo=timezone.utc), dt_s=300.0,
                            t_out_c=-12.0 + 9.0 * np.sin(np.arange(n_steps) / 9.0),
                            rh_pct=np.full(n_steps, 80.0))
    buildings = [make_building(i, ua_per_m2=u, mass_per_m2=m, setpoint_c=sp, deadband_c=db,
                               n_occupants=occ)
                 for i, (u, m, sp, db, occ) in enumerate((
                     (1.8, 255e3, 20.0, 1.0, 2), (4.0, 150e3, 18.5, 0.3, 0),
                     (0.9, 350e3, 22.0, 2.5, 5), (6.0, 180e3, 21.0, 0.0, 1)))]
    powered = np.full((len(buildings), n_steps), lit)
    t_in, hvac_on = oracles.simulate_new_block(make_population(buildings), weather, powered)
    assert n_steps % STEP_CHUNK and hvac_on.any() == lit
    for j, b in enumerate(buildings):
        for trace in (oracles.simulate_building(b, weather, powered[j]),
                      oracles.simulate_building_scalar(b, weather, powered[j])):
            assert trace.t_in_c.tobytes() == t_in[j].tobytes()
            assert np.array_equal(trace.hvac_kw, np.where(hvac_on[j], b.hvac_electric_kw, 0.0))
        if lit:
            # The relay switches both ways, across chunk boundaries.
            assert 0 < hvac_on[j].sum() < n_steps


def curve_models():
    """Both curve classes with default coefficients, and as a config gives
    them: fit points over another range, explicit coefficients, and
    explicit coefficients led by +0.0 (mortality) and -0.0 (productivity)."""
    fitted = ProductivityModel(
        fit_points=((8.0, 0.61), (15.0, 0.9), (21.0, 1.0), (27.0, 0.95), (34.0, 0.8)),
        valid_range_c=(8.0, 34.0))
    configured = decode(HazardConfig, {
        "rr_model": {"fit_points": [[-20.0, 1.7], [-5.0, 1.2], [10.0, 1.02], [18.0, 1.0],
                                    [25.0, 1.05], [31.0, 1.2]],
                     "valid_range_c": [-20.0, 31.0]},
        "productivity_model": {"coefficients_high_to_low": list(fitted.coefficients_high_to_low),
                               "valid_range_c": [8.0, 34.0]}}, "hazard")
    hz = HazardConfig()
    zero_led = decode(HazardConfig, {
        "rr_model": {"coefficients_high_to_low": [0.0, *hz.rr_model.coefficients_high_to_low]},
        "productivity_model": {"coefficients_high_to_low":
                               [-0.0, *hz.productivity_model.coefficients_high_to_low]}},
        "hazard")
    assert math.copysign(1.0, zero_led.productivity_model.coefficients_high_to_low[0]) == -1.0
    constant = decode(HazardConfig, {"rr_model": {"coefficients_high_to_low": [1.0]}}, "hazard")
    return [hz.rr_model, hz.productivity_model, configured.rr_model,
            configured.productivity_model, zero_led.rr_model, zero_led.productivity_model,
            constant.rr_model]


@pytest.mark.parametrize("model", curve_models(), ids=[
    "rr", "productivity", "rr_config", "productivity_config", "rr_plus_zero_led",
    "productivity_minus_zero_led", "rr_constant"])
def test_in_place_horner_is_polyval_bit_for_bit(model):
    lo, hi = model.valid_range_c
    edges = np.array([lo, hi, -0.0, 0.0, -1e6, 1e6, 22.0])
    temps = np.concatenate([np.linspace(lo - 12.0, hi + 12.0, 4001), edges,
                            np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    assert (temps < lo).any() and (temps > hi).any() and (temps == lo).any()
    floor, ceiling = (1.0 - 1e-9, np.inf) if isinstance(model, RRModel) else (0.0, 1.0)

    def reference(t):
        return np.clip(np.polyval(model.coefficients_high_to_low, np.clip(t, lo, hi)), floor, ceiling)

    given = temps.copy()
    assert model.evaluate(temps).tobytes() == reference(temps).tobytes()
    assert np.array_equal(temps, given)
    block = temps[:4000].reshape(40, 100)
    assert model.evaluate(block).tobytes() == reference(block).tobytes()
    # Into reused buffers holding another evaluation's values.
    out, clipped = np.full(block.shape, np.nan), np.full(block.shape, -7.0)
    assert model.evaluate(block, out, clipped) is out
    assert out.tobytes() == reference(block).tobytes()
    assert clipped.tobytes() == np.clip(block, lo, hi).tobytes()
    for t in (*edges.tolist(), lo - 1.0, (lo + hi) / 2.0):
        for scalar in (t, np.float64(t), np.array(t)):
            value = model.evaluate(scalar)
            assert np.ndim(value) == 0 and isinstance(value, np.float64)
            assert value.tobytes() == reference(t).tobytes()


def test_block_decay_is_the_scalar_exponential():
    # For some of these envelopes numpy's vector exp differs from math.exp in
    # the last bit, so only a per-building math.exp keeps the rows identical.
    weather = constant_weather(-8.0, hours=24)
    buildings = [make_building(i, mass_per_m2=m)
                 for i, m in enumerate(np.linspace(150e3, 350e3, 64))]
    exponents = [-b.ua_w_per_k * weather.dt_s / b.thermal_mass_j_per_k for b in buildings]
    assert (np.exp(exponents) != [math.exp(x) for x in exponents]).any()
    powered = np.zeros((len(buildings), weather.n_steps), dtype=bool)
    powered[:, : weather.n_steps // 2] = True
    t_in, _ = oracles.simulate_new_block(make_population(buildings), weather, powered)
    for j, b in enumerate(buildings):
        scalar = oracles.simulate_building_scalar(b, weather, powered[j])
        assert np.array_equal(scalar.t_in_c, t_in[j])
