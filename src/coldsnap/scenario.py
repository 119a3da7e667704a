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
import io
import json
import time
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from . import __version__, defaults
from .errors import ConfigurationError
from .hazard import (
    HazardConfig,
    ProductivityModel,
    RRModel,
    TruncNormal,
    WinterIndexParams,
    mortality_probability,
    winter_index_rows,
)
from .outage import (
    AvailabilitySeries,
    PowerScheduleSet,
    Scenario,
    build_base_schedule,
    build_controlled_outage,
    build_rolling_outage,
)
from .population import (
    BuildingKind,
    Insulation,
    Population,
    PopulationSpec,
    load_population,
    synthesize_population,
    validate_population,
    write_population_csv,
)
from .thermal import ExposureTrace, TraceWriter, simulate_block
from .valuation import (
    CICParams,
    CICTable,
    CostDistribution,
    ScenarioBundle,
    ValuationParams,
    interruption_cost,
    productivity_cost,
    run_monte_carlo,
    summarize,
)
from .weather import load_weather_csv, parse_timestamp, resample, slice_window

SCENARIO_NAMES = tuple(s.value for s in Scenario)

# Buildings advanced together per time step: wide enough that numpy's
# per-step overhead is paid rarely, narrow enough that the block's
# (steps x buildings) matrices stay a few MB.
SIM_BLOCK = 256
# Rows per reduction block: bounds the temporaries of the curve evaluations.
REDUCE_BLOCK = 64


@dataclass
class ScenarioConfig:
    """Parsed and validated run configuration."""

    raw: dict
    base_dir: Path
    population_spec: PopulationSpec | None
    population_path: Path | None
    weather_path: Path
    window_start: datetime
    window_end: datetime
    dt_s: float
    scenario: str
    scenario_params: dict
    hazard: HazardConfig
    valuation: ValuationParams
    n_trials: int
    seed: int
    histogram_bins: int
    out_dir: Path
    threads: int = 1
    write_traces: bool = False

    def materialized(self) -> dict:
        """Effective settings with every default filled in; hash input."""
        hz = self.hazard
        vp = self.valuation
        return {
            "population": (
                {"path": str(self.population_path)} if self.population_path
                else {"spec": _spec_to_dict(self.population_spec)}
            ),
            "weather_path": str(self.weather_path),
            "window": {"start": self.window_start.isoformat(),
                       "end": self.window_end.isoformat()},
            "dt_s": self.dt_s,
            "scenario": self.scenario,
            "scenario_params": self.scenario_params,
            "hazard": {
                "delta": hz.delta,
                "rr_model": hz.rr_model.provenance(),
                "productivity_model": hz.productivity_model.provenance(),
                "winter_index": {
                    "t_crit_c": hz.wi_params.t_crit_c,
                    "rh_crit_pct": hz.wi_params.rh_crit_pct,
                    "indoor_rh_pct": hz.wi_params.indoor_rh_pct,
                },
                "distributions_pct": {
                    "pre_existing_cardiac": _tn_to_list(hz.pre_cardiac),
                    "pre_existing_respiratory": _tn_to_list(hz.pre_respiratory),
                    "healthcare_access": _tn_to_list(hz.healthcare_access),
                    "health_insurance": _tn_to_list(hz.health_insurance),
                    "home_insurance": _tn_to_list(hz.home_insurance),
                    "hospital_survival": {k.value: _tn_to_list(v)
                                          for k, v in hz.hospital_survival.items()},
                    "home_survival": {k.value: _tn_to_list(v)
                                      for k, v in hz.home_survival.items()},
                },
            },
            "valuation": {
                "vsl_usd": vp.vsl_usd,
                "medical_insured_usd": {k: list(v) for k, v in vp.medical_insured_usd.items()},
                "medical_uninsured_usd": {k: list(v) for k, v in vp.medical_uninsured_usd.items()},
                "severity_ceiling": vp.severity_ceiling,
                "home_care_fraction": vp.home_care_fraction,
                "pipe_repair_insured_usd": list(vp.pipe_repair_insured_usd),
                "pipe_repair_uninsured_usd": list(vp.pipe_repair_uninsured_usd),
                "beta_wi": vp.beta_wi,
                "wage_usd_per_hour": vp.wage_usd_per_hour,
                "work_hours_residential": list(vp.work_hours_residential),
                "work_hours_commercial": list(vp.work_hours_commercial),
                "cic": {
                    "tables": {k: vars(t) for k, t in vp.cic.tables.items()},
                    "season_multiplier": vp.cic.season_multiplier,
                    "industry_multiplier": vp.cic.industry_multiplier,
                    "income_multiplier": vp.cic.income_multiplier,
                    "backup_discount": vp.cic.backup_discount,
                    "duration_cap_h": vp.cic.duration_cap_h,
                },
            },
            "n_trials": self.n_trials,
            "seed": self.seed,
            "histogram_bins": self.histogram_bins,
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.materialized(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _tn_to_list(tn: TruncNormal) -> list:
    return [tn.mean, tn.std, tn.lo, tn.hi]


def _spec_to_dict(spec: PopulationSpec) -> dict:
    return {
        "counts": {k.value: v for k, v in spec.counts.items()},
        "insulation_weights": {k.value: v for k, v in spec.insulation_weights.items()},
        "occupant_weights": {str(k): v for k, v in spec.occupant_weights.items()},
        "wfh_share": spec.wfh_share,
        "electric_heat_share": spec.electric_heat_share,
        "power_required_share_residential": spec.power_required_share_residential,
        "power_required_share_commercial": spec.power_required_share_commercial,
        "commercial_backup_share": spec.commercial_backup_share,
        "setpoint_c": spec.setpoint_c,
        "deadband_c": spec.deadband_c,
        "hvac_design_outdoor_c": spec.hvac_design_outdoor_c,
        "hvac_oversize": spec.hvac_oversize,
        "insulation_table": spec.insulation_table,
        "residential_profiles": spec.residential_profiles,
        "commercial_profiles": spec.commercial_profiles,
    }


def _spec_from_dict(data: dict) -> PopulationSpec:
    try:
        counts = {BuildingKind(k): int(v) for k, v in data["counts"].items()}
    except KeyError as exc:
        raise ConfigurationError("population spec needs a 'counts' table") from exc
    except ValueError as exc:
        raise ConfigurationError(f"unknown building kind in counts: {exc}") from exc
    kwargs = {"counts": counts}
    if "insulation_weights" in data:
        kwargs["insulation_weights"] = {Insulation(k): float(v)
                                        for k, v in data["insulation_weights"].items()}
    if "occupant_weights" in data:
        kwargs["occupant_weights"] = {int(k): float(v)
                                      for k, v in data["occupant_weights"].items()}
    for key in ("wfh_share", "electric_heat_share", "power_required_share_residential",
                "power_required_share_commercial", "commercial_backup_share", "setpoint_c",
                "deadband_c", "hvac_design_outdoor_c", "hvac_oversize", "insulation_table",
                "residential_profiles", "commercial_profiles"):
        if key in data:
            kwargs[key] = data[key]
    return PopulationSpec(**kwargs)


def _hazard_from_dict(data: dict) -> HazardConfig:
    rr_section = data.get("rr_model", {})
    if "coefficients_high_to_low" in rr_section:
        lo, hi = rr_section["valid_range_c"]
        rr = RRModel(tuple(rr_section["coefficients_high_to_low"]), lo, hi)
    else:
        anchors = rr_section.get("fit_points", defaults.RR_CURVE_ANCHORS)
        lo, hi = rr_section.get("valid_range_c", defaults.RR_VALID_RANGE_C)
        rr = RRModel.from_points(anchors, lo, hi)
    prod_section = data.get("productivity_model", {})
    if "coefficients_high_to_low" in prod_section:
        lo, hi = prod_section["valid_range_c"]
        prod = ProductivityModel(tuple(prod_section["coefficients_high_to_low"]), lo, hi)
    else:
        anchors = prod_section.get("fit_points", defaults.PRODUCTIVITY_ANCHORS)
        lo, hi = prod_section.get("valid_range_c", defaults.PRODUCTIVITY_VALID_RANGE_C)
        prod = ProductivityModel.from_points(anchors, lo, hi)
    wi_section = data.get("winter_index", {})
    wi = WinterIndexParams(
        t_crit_c=float(wi_section.get("t_crit_c", defaults.WI_T_CRIT_C)),
        rh_crit_pct=float(wi_section.get("rh_crit_pct", defaults.WI_RH_CRIT_PCT)),
        indoor_rh_pct=wi_section.get("indoor_rh_pct"),
    )
    kwargs: dict = {"rr_model": rr, "productivity_model": prod, "wi_params": wi,
                    "delta": float(data.get("delta", defaults.MORTALITY_DURATION_DELTA))}
    dists = data.get("distributions_pct", {})
    simple = {"pre_existing_cardiac": "pre_cardiac",
              "pre_existing_respiratory": "pre_respiratory",
              "healthcare_access": "healthcare_access",
              "health_insurance": "health_insurance",
              "home_insurance": "home_insurance"}
    for json_key, attr in simple.items():
        if json_key in dists:
            kwargs[attr] = TruncNormal(*dists[json_key])
    from .hazard import Condition
    for json_key, attr in (("hospital_survival", "hospital_survival"),
                           ("home_survival", "home_survival")):
        if json_key in dists:
            kwargs[attr] = {Condition(k): TruncNormal(*v) for k, v in dists[json_key].items()}
    return HazardConfig(**kwargs)


def _valuation_from_dict(data: dict) -> ValuationParams:
    kwargs: dict = {}
    if "vsl_usd" in data:
        kwargs["vsl_usd"] = float(data["vsl_usd"])
    for key in ("medical_insured_usd", "medical_uninsured_usd"):
        if key in data:
            kwargs[key] = {k: tuple(v) for k, v in data[key].items()}
    for key in ("severity_ceiling", "home_care_fraction"):
        if key in data:
            kwargs[key] = float(data[key])
    for key in ("pipe_repair_insured_usd", "pipe_repair_uninsured_usd"):
        if key in data:
            kwargs[key] = tuple(data[key])
    if "beta_wi" in data and data["beta_wi"] is not None:
        kwargs["beta_wi"] = float(data["beta_wi"])
    if "wage_usd_per_hour" in data:
        kwargs["wage_usd_per_hour"] = {k: float(v) for k, v in data["wage_usd_per_hour"].items()}
    for key in ("work_hours_residential", "work_hours_commercial"):
        if key in data:
            kwargs[key] = tuple(data[key])
    cic_section = data.get("cic")
    if cic_section is not None and "tables" in cic_section:
        cic_kwargs = {"tables": {k: CICTable(**v) for k, v in cic_section["tables"].items()}}
        for key in ("season_multiplier", "industry_multiplier", "backup_discount",
                    "duration_cap_h"):
            if key in cic_section:
                cic_kwargs[key] = float(cic_section[key])
        if "income_multiplier" in cic_section:
            cic_kwargs["income_multiplier"] = dict(cic_section["income_multiplier"])
        kwargs["cic"] = CICParams(**cic_kwargs)
    else:
        # Shipped interruption-cost tables are placeholders, not calibrated
        # economics; a study config must either provide tables or opt in.
        if not data.get("acknowledge_default_cic", False):
            raise ConfigurationError(
                "no interruption-cost tables configured; set "
                "valuation.acknowledge_default_cic=true to accept the shipped placeholders"
            )
        kwargs["cic"] = CICParams()
    return ValuationParams(**kwargs)


def _number(value, key: str, kind):
    """`kind(value)`, or a ConfigurationError naming the key."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"config key {key!r} must be a number, got {value!r}") from exc


def load_config(path, overrides: dict | None = None) -> ScenarioConfig:
    """Parse a JSON config file; `overrides` wins over file values."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    overrides = overrides or {}
    base_dir = path.parent

    pop_section = raw.get("population")
    if not pop_section:
        raise ConfigurationError(f"config {path} is missing the 'population' section")
    pop_spec = None
    pop_path = None
    if "path" in pop_section:
        pop_path = Path(pop_section["path"])
        if not pop_path.is_absolute():
            pop_path = base_dir / pop_path
    elif "spec" in pop_section:
        pop_spec = _spec_from_dict(pop_section["spec"])
    else:
        raise ConfigurationError("population section needs either 'spec' or 'path'")

    if "weather_path" not in raw:
        raise ConfigurationError(f"config {path} is missing 'weather_path'")
    weather_path = Path(raw["weather_path"])
    if not weather_path.is_absolute():
        weather_path = base_dir / weather_path

    window = raw.get("window") or {}
    if "start" not in window or "end" not in window:
        raise ConfigurationError("config needs window.start and window.end timestamps")
    window_start = parse_timestamp(window["start"])
    window_end = parse_timestamp(window["end"])
    if window_end <= window_start:
        raise ConfigurationError("window end must be after window start")

    scenario = str(overrides.get("scenario", raw.get("scenario", "base"))).lower()
    if scenario not in SCENARIO_NAMES:
        raise ConfigurationError(
            f"unknown scenario {scenario!r}; expected one of {', '.join(SCENARIO_NAMES)}"
        )
    scenario_params = dict((raw.get("scenarios") or {}).get(scenario, {}))

    n_trials = _number(overrides.get("n_trials", raw.get("n_trials", 100)), "n_trials", int)
    if n_trials < 1:
        raise ConfigurationError("n_trials must be >= 1")
    seed = _number(overrides.get("seed", raw.get("seed", 0)), "seed", int)
    out_dir = Path(overrides.get("out_dir", raw.get("out_dir", "runs")))

    return ScenarioConfig(
        raw=raw,
        base_dir=base_dir,
        population_spec=pop_spec,
        population_path=pop_path,
        weather_path=weather_path,
        window_start=window_start,
        window_end=window_end,
        dt_s=_number(raw.get("dt_s", 300.0), "dt_s", float),
        scenario=scenario,
        scenario_params=scenario_params,
        hazard=_hazard_from_dict(raw.get("hazard", {})),
        valuation=_valuation_from_dict(raw.get("valuation", {})),
        n_trials=n_trials,
        seed=seed,
        histogram_bins=_number(raw.get("histogram_bins", 50), "histogram_bins", int),
        out_dir=out_dir,
        threads=int(overrides.get("threads", 1)),
        write_traces=bool(overrides.get("write_traces", False)),
    )


def build_schedules(config: ScenarioConfig, pop: Population) -> PowerScheduleSet:
    """Construct the power schedule set for the configured scenario."""
    params = config.scenario_params
    start, end, dt = config.window_start, config.window_end, config.dt_s
    fault = float(params.get("fault_fraction", 0.0))

    if config.scenario == Scenario.BASE.value:
        return build_base_schedule(pop, start, end, dt)

    if config.scenario == Scenario.CO.value:
        shed_ids = params.get("shed_ids")
        if shed_ids is None:
            fraction = _number(params.get("shed_fraction", 0.0), "scenarios.co.shed_fraction",
                               float)
            if not 0.0 <= fraction <= 1.0:
                raise ConfigurationError(
                    f"scenarios.co.shed_fraction must lie in [0, 1], got {fraction}")
            scope = params.get("shed_scope", "residential")
            if scope == "residential":
                candidates = sorted(b.id for b in pop.residential())
            elif scope == "all":
                candidates = sorted(pop.ids)
            else:
                raise ConfigurationError(f"unknown shed_scope {scope!r}")
            n_shed = int(round(fraction * len(candidates)))
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x5348)))
            shed_ids = sorted(int(i) for i in
                              rng.choice(np.array(candidates), size=n_shed, replace=False))
        return build_controlled_outage(pop, start, end, dt, shed_ids, fault, config.seed)

    n_groups = int(params.get("n_groups", 3))
    slot_s = float(params.get("slot_s", 3600.0))
    n_slots = int(np.ceil((end - start).total_seconds() / slot_s))
    if "availability" in params:
        fractions = [float(f) for f in params["availability"]]
        availability = AvailabilitySeries(tuple(fractions), slot_s)
    else:
        constant = float(params.get("availability_constant", 1.0))
        availability = AvailabilitySeries.constant(constant, n_slots, slot_s)
    hardened = config.scenario == Scenario.RO_HI.value
    return build_rolling_outage(pop, start, end, dt, n_groups, availability,
                                hardened, fault, config.seed)


@dataclass
class RunResult:
    config: ScenarioConfig
    pop: Population
    schedule: PowerScheduleSet
    bundle: ScenarioBundle
    distribution: CostDistribution
    summary: dict
    histogram: list
    exposure_rows: list[dict] = field(default_factory=list)


def population_digest(pop: Population) -> str:
    """Stable hash of the population's canonical CSV serialization."""
    buffer = io.StringIO()
    write_population_csv(buffer, pop)
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def assemble_bundle(config: ScenarioConfig, pop: Population, schedule: PowerScheduleSet,
                    traces_path=None) -> tuple[ScenarioBundle, list[dict]]:
    """Simulate every building and reduce its trace to valuation inputs.

    Buildings are simulated `SIM_BLOCK` at a time and reduced in row blocks
    of `REDUCE_BLOCK`, so no array of size buildings x steps outlives its
    block. With `traces_path`, each block's traces are appended to that CSV
    as soon as they are simulated. Returns the trial bundle and the
    per-building exposure rows for reporting.
    """
    series = load_weather_csv(config.weather_path)
    if series.dt_s != config.dt_s:
        series = resample(series, config.dt_s)
    window = slice_window(series, config.window_start, config.window_end)

    hz = config.hazard
    buildings = pop.buildings
    n_b = len(buildings)
    mean_rr, mean_t, min_t, wi_sum, unpowered_h, prod_usd = (np.empty(n_b) for _ in range(6))
    with (open(traces_path, "w", newline="", encoding="utf-8") if traces_path is not None
          else contextlib.nullcontext()) as handle:
        sink = TraceWriter(handle) if handle is not None else None
        for first in range(0, n_b, SIM_BLOCK):
            block = buildings[first:first + SIM_BLOCK]
            powered = np.stack([schedule.schedules[b.id] for b in block])
            t_in, hvac_on = simulate_block(block, window, powered.T)
            if sink is not None:
                for j, b in enumerate(block):
                    hvac_kw = np.where(hvac_on[:, j], b.hvac_electric_kw, 0.0)
                    sink.write(ExposureTrace(b.id, window.start, window.dt_s,
                                             t_in[:, j], powered[j], hvac_kw))
            unpowered_h[first:first + len(block)] = (
                (~powered).sum(axis=1) * schedule.dt_s / 3600.0)
            # Row reductions need C-contiguous rows to add in the same order
            # as a reduction over one building's trace.
            for lo in range(0, len(block), REDUCE_BLOCK):
                rows = np.ascontiguousarray(t_in[:, lo:lo + REDUCE_BLOCK].T)
                at = slice(first + lo, first + lo + len(rows))
                mean_rr[at] = hz.rr_model.evaluate(rows).mean(axis=1)
                mean_t[at] = rows.mean(axis=1)
                min_t[at] = rows.min(axis=1)
                wi_sum[at] = winter_index_rows(rows, window.rh_pct, hz.wi_params)
                prod_usd[at] = productivity_cost(
                    rows, powered[lo:lo + len(rows)], block[lo:lo + len(rows)],
                    window.start, window.dt_s, config.valuation, hz.productivity_model)
    p_mort = mortality_probability(mean_rr, hz.delta)

    beta = config.valuation.beta_wi
    if beta is None:
        beta = float(max(wi_sum.max(initial=0.0), 1e-9))

    # Both totals add in building order, one building at a time.
    c_cic = sum(interruption_cost(b, h, config.valuation.cic)
                for b, h in zip(buildings, unpowered_h.tolist()))
    c_prod = 0.0
    for usd in prod_usd.tolist():
        c_prod += usd
    occupant_idx = np.repeat(np.arange(n_b), [b.n_occupants for b in buildings])

    bundle = ScenarioBundle(
        scenario=config.scenario,
        pop=pop,
        p_mort_by_building=p_mort,
        wi_sum_by_building=wi_sum,
        beta_wi=float(beta),
        occupant_building_index=occupant_idx,
        c_prod=float(c_prod),
        c_cic=float(c_cic),
        hazard_cfg=hz,
        val_params=config.valuation,
        mean_rr_by_building=mean_rr,
    )
    columns = (mean_t, min_t, mean_rr, p_mort, wi_sum, unpowered_h)
    exposure_rows = [
        {
            "building_id": b.id,
            "kind": b.kind.value,
            "sector": b.sector.value,
            "insulation": b.insulation.value,
            "n_occupants": b.n_occupants,
            "mean_t_in_c": t_mean,
            "min_t_in_c": t_min,
            "mean_rr": rr,
            "p_mort": p,
            "wi_sum": wi,
            "unpowered_h": hours,
        }
        for b, t_mean, t_min, rr, p, wi, hours in zip(buildings, *(c.tolist() for c in columns))
    ]
    return bundle, exposure_rows


def run_scenario(config: ScenarioConfig) -> RunResult:
    """Execute the full pipeline and write all artifacts to the output dir."""
    started = time.time()
    if config.population_path is not None:
        pop = load_population(config.population_path)
    else:
        pop = synthesize_population(config.population_spec, config.seed)
    violations = validate_population(pop)
    if violations:
        first = violations[0]
        raise ConfigurationError(
            f"population fails validation ({len(violations)} problems; first: "
            f"building {first.building_id} field {first.field}: {first.message})"
        )

    schedule = build_schedules(config, pop)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle, exposure_rows = assemble_bundle(
        config, pop, schedule, out / "traces.csv" if config.write_traces else None)
    distribution = run_monte_carlo(bundle, config.n_trials, config.seed, config.threads)
    summary, histogram = summarize(distribution, config.histogram_bins)

    summary["scenario"] = config.scenario
    summary["seed"] = config.seed
    summary["config_hash"] = config.config_hash()
    summary["population_digest"] = population_digest(pop)
    summary["mean_rr_population"] = float(bundle.mean_rr_by_building.mean())
    summary["n_buildings"] = len(pop.buildings)
    summary["total_occupants"] = pop.total_occupants

    _write_trials_csv(out / "trials.csv", distribution)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    _write_histogram_csv(out / "histogram.csv", histogram)
    _write_exposure_csv(out / "exposure.csv", exposure_rows)

    manifest = {
        "engine": "coldsnap",
        "engine_version": __version__,
        "config_hash": summary["config_hash"],
        "population_digest": summary["population_digest"],
        "scenario": config.scenario,
        "seed": config.seed,
        "n_trials": config.n_trials,
        "wall_clock_s": round(time.time() - started, 3),
        "input_digests": _input_digests(config),
        "beta_wi_effective": bundle.beta_wi,
        "curve_fit_provenance": {
            "relative_risk": config.hazard.rr_model.provenance(),
            "productivity": config.hazard.productivity_model.provenance(),
        },
        "materialized_config": config.materialized(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")
    return RunResult(config, pop, schedule, bundle, distribution, summary, histogram,
                     exposure_rows)


def _input_digests(config: ScenarioConfig) -> dict:
    digests = {}
    for label, path in (("weather", config.weather_path),
                        ("population", config.population_path)):
        if path is not None and Path(path).exists():
            digests[label] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return digests


def _write_trials_csv(path, distribution: CostDistribution) -> None:
    import csv as _csv
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = _csv.writer(handle)
        writer.writerow(["trial", "c_vsl", "c_medical", "c_prod", "c_build", "c_cic",
                         "total", "n_death", "n_injured"])
        for i, t in enumerate(distribution.trials):
            writer.writerow([
                i, f"{t.c_vsl:.2f}", f"{t.c_medical:.2f}", f"{t.c_prod:.2f}",
                f"{t.c_build:.2f}", f"{t.c_cic:.2f}", f"{t.total:.2f}",
                t.n_death, t.n_injured,
            ])


def _write_histogram_csv(path, histogram: list) -> None:
    import csv as _csv
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = _csv.writer(handle)
        writer.writerow(["bin_left", "bin_right", "count"])
        for left, right, count in histogram:
            writer.writerow([f"{left:.2f}", f"{right:.2f}", count])


def _write_exposure_csv(path, rows: list[dict]) -> None:
    import csv as _csv
    if not rows:
        raise ConfigurationError("no exposure rows to write")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = _csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            formatted = dict(row)
            for key in ("mean_t_in_c", "min_t_in_c", "mean_rr", "p_mort", "wi_sum",
                        "unpowered_h"):
                formatted[key] = f"{row[key]:.6f}"
            writer.writerow(formatted)
