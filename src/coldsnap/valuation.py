"""Monetary valuation of outage damages and the Monte-Carlo trial loop.

Five cost components per trial: statistical-life cost of deaths, medical
cost of recovered health events, productivity losses over working hours,
freeze-damage repair, and direct power-interruption cost. Interruption and
productivity costs are deterministic per scenario; all stochastic spread
comes from occupant outcomes and damage draws. Trials are pure functions
of (bundle, trial index, master seed), so any worker count reproduces the
same numbers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import defaults
from .errors import ConfigurationError
from .hazard import (
    CONDITIONS,
    HazardConfig,
    OutcomeBatch,
    TruncNormal,
    simulate_outcomes,
)
from .population import Population, Sector


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one Monte-Carlo trial."""
    return np.random.default_rng(np.random.SeedSequence((int(master_seed), 0x7269616C, int(trial_index))))


@dataclass(frozen=True)
class CICTable:
    """Interruption-cost coefficients for one customer sector."""

    base: float
    per_hour: float
    per_kwh: float
    slope_beyond_cap: float

    def __post_init__(self):
        if min(self.base, self.per_hour, self.per_kwh, self.slope_beyond_cap) < 0:
            raise ConfigurationError("interruption-cost coefficients must be >= 0")


_SECTOR_TABLE_KEY = {
    Sector.RESIDENTIAL: "residential",
    Sector.SMALL_CI: "small_ci",
    Sector.MEDIUM_CI: "large_medium_ci",
    Sector.LARGE_CI: "large_medium_ci",
}


@dataclass(frozen=True)
class CICParams:
    tables: dict[str, CICTable] = field(default_factory=lambda: {
        key: CICTable(**row) for key, row in defaults.CIC_TABLES.items()
    })
    season_multiplier: float = defaults.CIC_SEASON_MULTIPLIER
    industry_multiplier: float = defaults.CIC_INDUSTRY_MULTIPLIER
    income_multiplier: dict[str, float] = field(
        default_factory=lambda: dict(defaults.CIC_INCOME_MULTIPLIER))
    backup_discount: float = defaults.CIC_BACKUP_DISCOUNT
    duration_cap_h: float = defaults.CIC_DURATION_CAP_H


def interruption_cost(buildings, unpowered_h, params: CICParams) -> np.ndarray:
    """Direct interruption cost of each customer given its total unpowered
    hours, one value per building.

    Base + hourly (capped) + per-kWh-of-average-load terms, scaled by season
    and by industry (C&I) or income (residential) multipliers; small C&I
    with backup equipment get a discount. Durations beyond the cap accrue a
    linear surcharge. Customers with power throughout cost nothing and need
    no table.
    """
    hours = np.asarray(unpowered_h, dtype=float)
    if (hours < 0).any():
        raise ConfigurationError("unpowered hours cannot be negative")
    usd = np.zeros(len(hours))
    dark = np.flatnonzero(hours > 0)
    customers = [buildings[i] for i in dark.tolist()]
    tables = [params.tables.get(_SECTOR_TABLE_KEY.get(b.sector)) for b in customers]
    for b, table in zip(customers, tables):
        if table is None:
            raise ConfigurationError(f"no interruption-cost table for sector {b.sector}")
    base, per_hour, per_kwh, slope = (np.array([getattr(t, name) for t in tables])
                                      for name in ("base", "per_hour", "per_kwh",
                                                   "slope_beyond_cap"))
    residential = np.array([b.sector is Sector.RESIDENTIAL for b in customers])
    income = np.array([params.income_multiplier.get(b.income_bracket, 1.0) for b in customers])
    discounted = np.array([b.sector is Sector.SMALL_CI and b.backup for b in customers])
    # The same operations in the same order as for one customer at a time.
    ci = params.season_multiplier * params.industry_multiplier
    multiplier = np.where(residential, params.season_multiplier * income,
                          np.where(discounted, ci * params.backup_discount, ci))
    h = hours[dark]
    avg_kw = np.array([b.avg_annual_kwh for b in customers]) / 8760.0
    inner = base + per_hour * np.minimum(h, params.duration_cap_h) + per_kwh * avg_kw * h
    surcharge = slope * np.maximum(h - params.duration_cap_h, 0.0)
    usd[dark] = inner * multiplier + surcharge
    return usd


@dataclass(frozen=True)
class ValuationParams:
    vsl_usd: float = defaults.VSL_FEMA_USD
    medical_insured_usd: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(defaults.MEDICAL_COST_INSURED_USD))
    medical_uninsured_usd: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(defaults.MEDICAL_COST_UNINSURED_USD))
    severity_ceiling: float = defaults.MEDICAL_SEVERITY_CEILING
    home_care_fraction: float = defaults.HOME_CARE_COST_FRACTION
    pipe_repair_insured_usd: tuple[float, float] = defaults.PIPE_REPAIR_INSURED_USD
    pipe_repair_uninsured_usd: tuple[float, float] = defaults.PIPE_REPAIR_UNINSURED_USD
    beta_wi: float | None = None  # None: use the run's population maximum
    wage_usd_per_hour: dict[str, float] = field(
        default_factory=lambda: dict(defaults.WAGE_USD_PER_HOUR))
    work_hours_residential: tuple[int, int] = defaults.WORK_HOURS_RESIDENTIAL
    work_hours_commercial: tuple[int, int] = defaults.WORK_HOURS_COMMERCIAL
    cic: CICParams = field(default_factory=CICParams)

    def __post_init__(self):
        if self.vsl_usd <= 0:
            raise ConfigurationError("VSL must be positive")
        if self.severity_ceiling <= 0:
            raise ConfigurationError("severity ceiling must be positive")
        if self.beta_wi is not None and self.beta_wi <= 0:
            raise ConfigurationError("beta_wi must be positive when set")
        for name in ("medical_insured_usd", "medical_uninsured_usd"):
            table = getattr(self, name)
            if set(table) != {c.value for c in CONDITIONS}:
                raise ConfigurationError(f"{name} needs exactly the conditions "
                                         f"{', '.join(c.value for c in CONDITIONS)}")
            for cond, (lo, hi) in table.items():
                if lo > hi:
                    raise ConfigurationError(f"medical cost range inverted for {cond}")
        for lo, hi in (self.pipe_repair_insured_usd, self.pipe_repair_uninsured_usd):
            if lo > hi:
                raise ConfigurationError("pipe repair cost range inverted")

    def require_wages(self, pop: Population) -> None:
        """Every kind with workers in the population needs an hourly wage."""
        for b in pop.buildings:
            if b.n_workers and b.kind.value not in self.wage_usd_per_hour:
                raise ConfigurationError(
                    f"config key 'valuation.wage_usd_per_hour' has no wage for "
                    f"{b.kind.value!r}, whose buildings have workers")


@dataclass(frozen=True)
class CostBreakdown:
    c_vsl: float
    c_medical: float
    c_prod: float
    c_build: float
    c_cic: float
    n_death: int
    n_injured: int

    @property
    def total(self) -> float:
        return self.c_vsl + self.c_medical + self.c_prod + self.c_build + self.c_cic

    @property
    def nei_total(self) -> float:
        """Non-energy impacts: everything except the interruption cost."""
        return self.c_vsl + self.c_medical + self.c_prod + self.c_build


def _medical_cost_batch(batch: OutcomeBatch, p_mort_occ: np.ndarray,
                        params: ValuationParams) -> float:
    severity = np.clip(p_mort_occ / params.severity_ceiling, 0.0, 1.0)
    total = 0.0
    hospital = batch.status == 2
    for c_i, cond in enumerate(CONDITIONS):
        for insured, table in ((True, params.medical_insured_usd),
                               (False, params.medical_uninsured_usd)):
            mask = hospital & (batch.condition == c_i) & (batch.insured == insured)
            if mask.any():
                lo, hi = table[cond.value]
                total += float((lo + (hi - lo) * severity[mask]).sum())
    home = batch.status == 1
    for c_i, cond in enumerate(CONDITIONS):
        count = int((home & (batch.condition == c_i)).sum())
        if count:
            lo, _ = params.medical_insured_usd[cond.value]
            total += params.home_care_fraction * lo * count
    return total


def repair_cost(wi_sum_by_building, beta_wi: float, params: ValuationParams,
                home_insurance: TruncNormal, rng: np.random.Generator) -> float:
    """Freeze-damage repair cost over buildings.

    Each building is damaged with probability (accumulated index / beta),
    draws a home-insurance flag, and bills the matching repair range at the
    same severity ratio.
    """
    if beta_wi <= 0:
        raise ConfigurationError("beta_wi must be positive")
    wi = np.asarray(wi_sum_by_building, dtype=float)
    ratio = np.clip(wi / beta_wi, 0.0, 1.0)
    n = wi.shape[0]
    damaged = rng.random(n) < ratio
    insured = rng.random(n) < home_insurance.sample(rng, n) / 100.0
    if not damaged.any():
        return 0.0
    ins_lo, ins_hi = params.pipe_repair_insured_usd
    unins_lo, unins_hi = params.pipe_repair_uninsured_usd
    cost = np.where(
        insured,
        ins_lo + (ins_hi - ins_lo) * ratio,
        unins_lo + (unins_hi - unins_lo) * ratio,
    )
    return float(cost[damaged].sum())


def _work_hour_mask(start_seconds_of_day: float, dt_s: float, n_steps: int,
                    hours: tuple[int, int]) -> np.ndarray:
    seconds = (start_seconds_of_day + dt_s * np.arange(n_steps)) % 86400.0
    return (seconds >= hours[0] * 3600.0) & (seconds < hours[1] * 3600.0)


def productivity_cost(t_in_c, powered, buildings, start, dt_s: float,
                      params: ValuationParams, productivity_model) -> np.ndarray:
    """Wage value of lost work performance over the event's working hours,
    one value per building.

    `t_in_c` and `powered` hold one C-contiguous row per building
    (buildings x steps, starting at `start`, `dt_s` apart). Performance is
    zero at unpowered steps for power-dependent jobs and follows the
    temperature curve otherwise. Residential (work-from-home) and commercial
    premises use their configured daily working windows. Buildings without
    workers cost nothing.
    """
    t_in_c = np.asarray(t_in_c, dtype=float)
    n_steps = t_in_c.shape[1]
    start_sec = start.hour * 3600.0 + start.minute * 60.0 + start.second
    res_mask = _work_hour_mask(start_sec, dt_s, n_steps, params.work_hours_residential)
    com_mask = _work_hour_mask(start_sec, dt_s, n_steps, params.work_hours_commercial)

    needs_power = np.array([b.job_requires_power for b in buildings], dtype=bool)
    loss = 1.0 - np.where(needs_power[:, None] & ~np.asarray(powered, dtype=bool),
                          0.0, productivity_model.evaluate(t_in_c))
    # Boolean column selection leaves the rows non-contiguous, and their sums
    # would differ in the last bit from the one-trace sums; copy first.
    lost_res = np.ascontiguousarray(loss[:, res_mask]).sum(axis=1)
    lost_com = np.ascontiguousarray(loss[:, com_mask]).sum(axis=1)
    residential = np.array([b.sector is Sector.RESIDENTIAL for b in buildings], dtype=bool)
    lost_h = np.where(residential, lost_res, lost_com) * (dt_s / 3600.0)
    workers = np.array([b.n_workers for b in buildings], dtype=float)
    wage = np.array([params.wage_usd_per_hour[b.kind.value] if b.n_workers else 0.0
                     for b in buildings])
    return workers * lost_h * wage


@dataclass(frozen=True)
class ScenarioBundle:
    """Deterministic per-scenario inputs shared by every trial."""

    scenario: str
    pop: Population
    p_mort_by_building: np.ndarray   # aligned with pop.buildings order
    wi_sum_by_building: np.ndarray
    beta_wi: float
    occupant_building_index: np.ndarray  # occupant -> index into building arrays
    c_prod: float
    c_cic: float
    hazard_cfg: HazardConfig
    val_params: ValuationParams
    mean_rr_by_building: np.ndarray = None

    @property
    def n_occupants(self) -> int:
        return int(self.occupant_building_index.shape[0])


def run_trial(bundle: ScenarioBundle, trial_index: int, master_seed: int) -> CostBreakdown:
    """One Monte-Carlo trial: draw outcomes and damages, price them.

    Pure function of (bundle, trial index, master seed); the interruption
    and productivity components are scenario constants from the bundle.
    """
    rng = trial_rng(master_seed, trial_index)
    p_mort_occ = bundle.p_mort_by_building[bundle.occupant_building_index]
    batch = simulate_outcomes(p_mort_occ, bundle.hazard_cfg, rng)
    c_vsl = batch.n_death * bundle.val_params.vsl_usd
    c_medical = _medical_cost_batch(batch, p_mort_occ, bundle.val_params)
    if bundle.wi_sum_by_building.max(initial=0.0) > 0.0:
        c_build = repair_cost(bundle.wi_sum_by_building, bundle.beta_wi, bundle.val_params,
                              bundle.hazard_cfg.distributions_pct.home_insurance, rng)
    else:
        c_build = 0.0
    return CostBreakdown(
        c_vsl=c_vsl,
        c_medical=c_medical,
        c_prod=bundle.c_prod,
        c_build=c_build,
        c_cic=bundle.c_cic,
        n_death=batch.n_death,
        n_injured=batch.n_injured,
    )


@dataclass(frozen=True)
class CostDistribution:
    """Per-trial cost breakdowns plus exact summary statistics."""

    trials: tuple[CostBreakdown, ...]

    def __post_init__(self):
        if not self.trials:
            raise ConfigurationError("cost distribution needs at least one trial")
        object.__setattr__(self, "trials", tuple(self.trials))

    def component(self, name: str) -> np.ndarray:
        return np.array([getattr(t, name) for t in self.trials], dtype=float)


def run_monte_carlo(bundle: ScenarioBundle, n_trials: int, master_seed: int,
                    threads: int = 1) -> CostDistribution:
    """Run independent trials; results are identical for any worker count.

    Each trial derives its own stream from (master seed, trial index) and
    results are assembled in trial order, so scheduling cannot leak in.
    """
    if n_trials < 1:
        raise ConfigurationError("need at least one trial")
    if threads <= 1:
        results = [run_trial(bundle, i, master_seed) for i in range(n_trials)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda i: run_trial(bundle, i, master_seed),
                                    range(n_trials)))
    return CostDistribution(trials=tuple(results))


def _nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    n = len(sorted_values)
    rank = max(int(math.ceil(pct / 100.0 * n)), 1)
    return float(sorted_values[rank - 1])


COMPONENTS = ("c_vsl", "c_medical", "c_prod", "c_build", "c_cic")


def summarize(dist: CostDistribution, histogram_bins: int = 50) -> tuple[dict, list]:
    """Exact summary statistics per component plus a fixed-width histogram
    of the total (bin_left, bin_right, count) rows."""
    if histogram_bins < 1:
        raise ConfigurationError("histogram needs at least one bin")
    summary: dict = {"n_trials": len(dist.trials)}
    for name in COMPONENTS + ("nei_total", "total", "n_death", "n_injured"):
        values = dist.component(name)
        ordered = np.sort(values)
        summary[name] = {
            "mean": float(values.mean()),
            "std": float(values.std()),
            "p5": _nearest_rank(ordered, 5.0),
            "p50": _nearest_rank(ordered, 50.0),
            "p95": _nearest_rank(ordered, 95.0),
        }
    totals = dist.component("total")
    lo, hi = float(totals.min()), float(totals.max())
    if hi == lo:
        hi = lo + 1.0
    counts, edges = np.histogram(totals, bins=histogram_bins, range=(lo, hi))
    histogram = [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
                 for i in range(histogram_bins)]
    return summary, histogram
