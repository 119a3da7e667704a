"""End-to-end scenario runs from a JSON config file.

A run binds the pipeline together: build or load the population, ingest
weather, construct the scenario's power schedules, simulate every building,
reduce traces to per-building hazard aggregates, then Monte-Carlo the
valuation. Artifacts land in the output directory: trials.csv,
summary.json, histogram.csv, exposure.csv, and manifest.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
import typing
from dataclasses import dataclass, field, replace
from datetime import datetime
from pathlib import Path

import numpy as np

from . import __version__
from .codec import Bounded, checked, decode, encode, within
from .errors import ConfigurationError
from .hazard import HazardConfig, mortality_probability, winter_index_rows
from .outage import (
    SCENARIO_PARAMS,
    BaseParams,
    ControlledOutageParams,
    PowerScheduleSet,
    RollingOutageParams,
    Scenario,
    build_schedule,
)
from .population import (
    BuildingKind,
    Insulation,
    Population,
    PopulationSpec,
    Sector,
    code,
    label,
    load_population,
    population_csv_blocks,
    synthesize_population,
)
from .tables import fixed, save_csv
from .thermal import TraceWriter, simulate_block
from .valuation import (
    COMPONENTS,
    COUNTS,
    CostDistribution,
    ScenarioBundle,
    ValuationParams,
    check_income_brackets,
    hourly_wages,
    interruption_cost,
    lost_work_hours,
    run_monte_carlo,
    summarize,
    work_steps,
)
from .weather import WeatherSeries, load_weather_csv, slice_window

# Bytes of the one (buildings x steps) float64 buffer that `assemble_bundle`
# simulates a block of buildings into, 512 buildings of a 1,152-step window:
# wide enough that numpy's per-step overhead is paid rarely. Four times as
# wide saves a little more CPU at 100x the demo but adds about 40 % to the
# peak memory of a run of 3x the demo.
BLOCK_BYTES = 9 << 19
# Upper bound of `histogram_bins`: the histogram is a list of that many rows.
MAX_HISTOGRAM_BINS = 1_000_000
# Upper bound of `n_trials`: the trials matrix holds 7 float64 values per
# trial, 560 MB at the bound.
MAX_TRIALS = 10_000_000
# Upper bound of the window's step count: a building's row of temperatures
# is 800 KB at the bound, so a `BLOCK_BYTES` block still holds 5 buildings.
MAX_STEPS = 100_000
# The per-building exposure columns, in exposure.csv order after the
# building's own columns.
EXPOSURE_FIELDS = ("mean_t_in_c", "min_t_in_c", "mean_rr", "p_mort", "wi_sum", "unpowered_h")


@dataclass(frozen=True)
class PopulationSource:
    """The `population` section: a spec to synthesize, or a CSV path."""

    spec: PopulationSpec | None = None
    path: str | None = None

    def __post_init__(self):
        if (self.spec is None) == (self.path is None):
            raise ConfigurationError("population section needs either 'spec' or 'path'")


@dataclass(frozen=True)
class Window:
    """The `window` section: event start and end, ISO-8601, held as UTC
    instants (a stamp without an offset is UTC)."""

    start: datetime
    end: datetime


@dataclass
class ScenarioConfig(Bounded):
    """The config file: one field per top-level key, its default the key's
    default. `__post_init__` checks the window, derives `n_steps` and decodes each
    `scenarios` section present, adding the selected one if absent. The
    fields after `out_dir` are not keys: the command line sets `threads` and
    `write_traces`, and `load_config` sets `base_dir`, the file's folder."""

    population: PopulationSource
    weather_path: str
    window: Window
    notes: object = None  # free-form
    dt_s: float = within(above=0, default=300.0)
    scenario: Scenario = Scenario.BASE
    # Raw sections as read; `__post_init__` decodes each by its scenario.
    scenarios: dict[Scenario, dict] = field(default_factory=dict)
    hazard: HazardConfig = field(default_factory=HazardConfig)
    valuation: ValuationParams = field(default_factory=ValuationParams)
    n_trials: int = within(1, MAX_TRIALS, default=100)
    seed: int = within(0, default=0)
    histogram_bins: int = within(1, MAX_HISTOGRAM_BINS, default=50)
    out_dir: str = "runs"
    threads: int = field(default=1, init=False)
    write_traces: bool = field(default=False, init=False)
    base_dir: Path = field(default=Path(), init=False)
    n_steps: int = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        start, end = self.window.start, self.window.end
        if not end > start:
            raise ConfigurationError(f"must end after it starts, got {start.isoformat()} "
                                     f"to {end.isoformat()}", "window")
        steps = (end - start).total_seconds() / self.dt_s
        if not 2 <= steps <= MAX_STEPS or abs(steps - round(steps)) > 1e-9:
            raise ConfigurationError(f"must divide the window into 2 to {MAX_STEPS:,} whole "
                                     f"steps, got {self.dt_s}", "dt_s")
        self.n_steps = round(steps)
        # Every section present is checked, not only the selected one, and
        # every rolling one must fit its slots and tiers to this window.
        self.scenarios = {s: decode(SCENARIO_PARAMS[s], section, f"scenarios.{s.value}")
                          for s, section in self.scenarios.items()}
        self.scenarios.setdefault(self.scenario, SCENARIO_PARAMS[self.scenario]())
        for s, params in self.scenarios.items():
            if isinstance(params, RollingOutageParams):
                checked(f"scenarios.{s.value}", params.slots, self.n_steps, self.dt_s)
        # The shipped interruption-cost tables are placeholders, not
        # calibrated economics: a run without its own tables must opt in.
        # With its own tables the opt-in says nothing, so it is cleared and
        # equal runs hash alike.
        if self.valuation.cic.tables is not None:
            self.valuation = replace(self.valuation, acknowledge_default_cic=False)
        elif not self.valuation.acknowledge_default_cic:
            raise ConfigurationError(
                "no interruption-cost tables configured; set "
                "valuation.acknowledge_default_cic=true to accept the shipped placeholders")

    @property
    def params(self) -> BaseParams | ControlledOutageParams | RollingOutageParams:
        return self.scenarios[self.scenario]

    @property
    def population_spec(self) -> PopulationSpec | None:
        return self.population.spec

    def file(self, name: str) -> Path:
        """A path written in the config file, taken from the file's folder."""
        return self.base_dir / name

    def materialized(self) -> dict:
        """The config as it runs, itself a config file that reruns to the same
        hash: every default filled in, only the selected scenario's section,
        paths as written and the window as UTC instants. `notes` and
        `out_dir` are left out."""
        data = encode(self)
        del data["notes"], data["out_dir"]
        data["scenarios"] = {self.scenario.value: data["scenarios"][self.scenario.value]}
        return data

    def config_hash(self) -> str:
        return materialized_hash(self.materialized())


def materialized_hash(materialized: dict) -> str:
    """SHA-256 of a `ScenarioConfig.materialized()` dict's canonical JSON."""
    canonical = json.dumps(materialized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_config(path, overrides: dict | None = None) -> ScenarioConfig:
    """Parse a JSON config file. `overrides` are top-level keys that win over
    the file's and are checked as file values are. Unknown keys and bad
    values raise ConfigurationError naming their key path."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or a byte that is not UTF-8
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    overrides = overrides or {}
    # A file value that an override replaces must still have its key's type.
    types = typing.get_type_hints(ScenarioConfig)
    for key in overrides.keys() & raw.keys() & types.keys():
        decode(types[key], raw[key], key)
    config = decode(ScenarioConfig, {**raw, **overrides}, "")
    config.base_dir = path.parent
    return config


def build_schedules(config: ScenarioConfig, pop: Population) -> PowerScheduleSet:
    """Construct the power schedule set for the configured scenario; an
    error in its parameters names their key under `scenarios.<name>`."""
    return checked(f"scenarios.{config.scenario.value}", build_schedule,
                   pop, config.n_steps, config.dt_s, config.params, config.seed)


@dataclass
class RunResult:
    config: ScenarioConfig
    pop: Population
    schedule: PowerScheduleSet
    bundle: ScenarioBundle
    distribution: CostDistribution
    summary: dict
    histogram: list
    exposure: dict[str, np.ndarray]  # one column per EXPOSURE_FIELDS name


def population_digest(pop: Population) -> str:
    """SHA-256 of the population's CSV text (`write_population_csv`), fed a block at a time."""
    digest = hashlib.sha256()
    for block in population_csv_blocks(pop):
        digest.update(block)
    return digest.hexdigest()


def sequential_sum(values) -> float:
    """The sum of `values` added left to right from 0.0, on every Python
    (its `sum` of floats is compensated from 3.12 on)."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def read_inputs(config: ScenarioConfig, pop: Population,
                schedule: PowerScheduleSet) -> tuple[WeatherSeries, np.ndarray, float]:
    """The weather window, each building's hourly wage and the interruption
    cost of the run: what a run reads and checks beside its population and
    schedules, all before it creates its output directory."""
    window = slice_window(load_weather_csv(config.file(config.weather_path)),
                          config.window.start, config.n_steps, config.dt_s)
    wage = hourly_wages(pop, config.valuation)
    check_income_brackets(pop, config.valuation.cic)
    c_cic = sequential_sum(interruption_cost(pop, schedule.unpowered_hours(), config.valuation.cic))
    return window, wage, c_cic


def block_rows(group: np.ndarray, width: int) -> list[np.ndarray]:
    """The population indices of each simulated block, at most `width` apiece.
    The buildings are stably sorted by their key `group`, a building's power
    row in a plain run. A key held by more than half a block is cut into
    near-equal blocks of its own, so a step at which that row is dark skips
    the thermostat. Shorter keys are packed, in key order, into shared
    blocks, each closed when the next key would overflow it. Any two
    consecutive shared blocks then hold more than `width` buildings, and
    every block of its own at least half of it, so there are at most
    2 n / `width` + 1 blocks of n buildings however many keys there are.
    One key for every building gives near-equal runs of population order."""
    order = np.argsort(group, kind="stable")
    blocks, shared, filled = [], [], 0
    for run in np.split(order, np.flatnonzero(np.diff(group[order])) + 1):
        if 2 * len(run) > width:
            blocks += np.array_split(run, -(-len(run) // width))
            continue
        if filled + len(run) > width:
            blocks.append(np.concatenate(shared))
            shared, filled = [], 0
        shared.append(run)
        filled += len(run)
    if shared:
        blocks.append(np.concatenate(shared))
    return blocks


def assemble_bundle(config: ScenarioConfig, pop: Population, schedule: PowerScheduleSet,
                    window: WeatherSeries, wage: np.ndarray, c_cic: float,
                    traces_path=None) -> tuple[ScenarioBundle, dict[str, np.ndarray]]:
    """Simulate every building and reduce its trace to valuation inputs.

    Buildings are simulated a block at a time, as many as fit `BLOCK_BYTES`
    of temperatures, into one (buildings x steps) buffer allocated once and
    reused for every block. The blocks are `block_rows` of the power rows
    `schedule.group`, or with `traces_path` of one key for every building,
    since `traces.csv` lists buildings in population order; each block's
    traces are appended to it as soon as they are simulated, from a second
    such buffer that keeps the heating flags.
    Each building's trace is a contiguous row of the buffer, and the
    reductions read those rows in place, an eighth of the block at a time,
    beside the block's power rows, and write each result at its building's
    population index. The slices reduce physics only, and productivity is
    priced once at `wage`. The inputs after `schedule` are `read_inputs`'s,
    so this opens no input file. Returns the trial bundle and the
    per-building exposure, one column per `EXPOSURE_FIELDS` name.
    """
    hz = config.hazard
    n_b = len(pop)
    mean_rr, mean_t, min_t, wi_sum, lost_h = (np.empty(n_b) for _ in range(5))
    residential = pop.sector == code(Sector.RESIDENTIAL)
    steps = [work_steps(window.start, window.dt_s, window.n_steps, hours) for hours in
             (config.valuation.work_hours_residential, config.valuation.work_hours_commercial)]
    width = max(1, min(n_b, BLOCK_BYTES // (8 * window.n_steps)))
    part = max(1, width // 8)
    temps = np.empty((width, window.n_steps))
    flags = np.empty(temps.shape, dtype=bool) if traces_path is not None else None
    curve = np.empty((part, window.n_steps))
    clipped = np.empty(curve.shape)
    with (open(traces_path, "wb") if traces_path is not None
          else contextlib.nullcontext()) as handle:
        sink = TraceWriter(handle, window) if handle is not None else None
        keys = schedule.group if sink is None else np.zeros_like(schedule.group)
        for rows in block_rows(keys, width):
            block = pop[rows]
            powered = schedule.on[schedule.group[rows]]
            t_in = temps[:len(block)]
            hvac_on = flags[:len(block)] if flags is not None else None
            simulate_block(block, window, powered, t_in, hvac_on)
            if sink is not None:
                sink.write(block, t_in, powered, hvac_on)
            for lo in range(0, len(block), part):
                local = slice(lo, lo + part)
                t, at = t_in[local], rows[local]
                # The block's last slice is short unless `part` divides it.
                rr = hz.rr_model.evaluate(t, curve[:len(t)], clipped[:len(t)])
                mean_rr[at] = rr.mean(axis=1)
                mean_t[at] = t.mean(axis=1)
                min_t[at] = lowest = t.min(axis=1)
                # Only a row that falls below T_crit can freeze, and only a
                # building with workers prices lost work: the others are 0.0.
                wi_sum[at] = winter_index_rows(t, window.rh_pct, hz.winter_index,
                                               np.flatnonzero(lowest < hz.winter_index.t_crit_c))
                lost_h[at] = lost_work_hours(
                    t, powered[local], residential[at], pop.job_requires_power[at],
                    steps, window.dt_s, hz.productivity_model, np.flatnonzero(pop.n_workers[at]))
    p_mort = mortality_probability(mean_rr, hz.delta)

    beta = config.valuation.beta_wi
    if beta is None:
        beta = float(max(wi_sum.max(initial=0.0), 1e-9))

    bundle = ScenarioBundle(
        p_mort_by_building=p_mort,
        wi_sum_by_building=wi_sum,
        beta_wi=float(beta),
        occupants_by_building=pop.n_occupants,
        c_prod=sequential_sum(pop.n_workers * lost_h * wage),
        c_cic=c_cic,
        hazard_cfg=hz,
        val_params=config.valuation,
    )
    exposure = dict(zip(EXPOSURE_FIELDS, (mean_t, min_t, mean_rr, p_mort, wi_sum,
                                          schedule.unpowered_hours())))
    return bundle, exposure


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute the full pipeline and write all artifacts to the output dir."""
    started = time.time()
    if config.population.path is not None:
        pop = load_population(config.file(config.population.path))
    else:
        pop = synthesize_population(config.population_spec, config.seed)
    schedule = build_schedules(config, pop)
    inputs = read_inputs(config, pop, schedule)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle, exposure = assemble_bundle(
        config, pop, schedule, *inputs, out / "traces.csv" if config.write_traces else None)
    distribution = run_monte_carlo(bundle, config.n_trials, config.seed, config.threads)
    summary, histogram = summarize(distribution, config.histogram_bins)

    summary["scenario"] = config.scenario.value
    summary["seed"] = config.seed
    materialized = config.materialized()
    summary["config_hash"] = materialized_hash(materialized)
    summary["population_digest"] = population_digest(pop)
    summary["mean_rr_population"] = float(exposure["mean_rr"].mean())
    # The sampler's exact expectations of n_death + n_injured and of n_death
    # per trial.
    summary["expected_at_risk"] = float((bundle.occupants_by_building
                                         * bundle.p_mort_by_building).sum())
    summary["expected_deaths"] = summary["expected_at_risk"] * bundle.outcome_table.p_death
    summary["n_buildings"] = len(pop)
    summary["total_occupants"] = pop.total_occupants

    _write_trials_csv(out / "trials.csv", distribution)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    _write_histogram_csv(out / "histogram.csv", histogram)
    _write_exposure_csv(out / "exposure.csv", pop, exposure)

    manifest = {
        "engine": "coldsnap",
        "engine_version": __version__,
        "config_hash": summary["config_hash"],
        "population_digest": summary["population_digest"],
        "scenario": config.scenario.value,
        "seed": config.seed,
        "n_trials": config.n_trials,
        "wall_clock_s": round(time.time() - started, 3),
        "input_digests": _input_digests(config),
        "beta_wi_effective": bundle.beta_wi,
        "materialized_config": materialized,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return RunResult(config, pop, schedule, bundle, distribution, summary, histogram, exposure)


def _input_digests(config: ScenarioConfig) -> dict:
    digests = {}
    for label, name in (("weather", config.weather_path), ("population", config.population.path)):
        if name is not None and config.file(name).exists():
            digests[label] = hashlib.sha256(config.file(name).read_bytes()).hexdigest()
    return digests


def _write_trials_csv(path, distribution: CostDistribution) -> None:
    money = COMPONENTS + ("total",)
    save_csv(path, ("trial", *money, *COUNTS), [(range(len(distribution.trials)), None)] + [
        (distribution.component(name), fixed(2)) for name in money] + [
        (distribution.component(name).astype(np.int64), None) for name in COUNTS])


def _write_histogram_csv(path, histogram: list) -> None:
    left, right, count = zip(*histogram)
    save_csv(path, ("bin_left", "bin_right", "count"),
             [(left, fixed(2)), (right, fixed(2)), (count, None)])


def _write_exposure_csv(path, pop: Population, exposure: dict[str, np.ndarray]) -> None:
    save_csv(path, ("building_id", "kind", "sector", "insulation", "n_occupants",
                    *EXPOSURE_FIELDS),
             [(pop.id, None), (pop.kind, label(BuildingKind)), (pop.sector, label(Sector)),
              (pop.insulation, label(Insulation)), (pop.n_occupants, None)] + [
                 (exposure[name], fixed(6)) for name in EXPOSURE_FIELDS])
