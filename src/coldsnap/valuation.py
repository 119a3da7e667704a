"""Monetary valuation of outage damages and the Monte-Carlo trial kernel.

Five cost components per trial: statistical-life cost of deaths, medical
cost of recovered health events, productivity losses over working hours,
freeze-damage repair, and direct power-interruption cost. Interruption and
productivity costs are deterministic per scenario; all stochastic spread
comes from occupant outcomes and damage draws. Trials run in batches of
`MC_BATCH`, each drawn from a stream keyed by (master seed, batch index),
so any worker count and any trial count reproduce the same rows.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .codec import Bounded, within
from .errors import ConfigurationError
from .hazard import (CONDITIONS, Condition, HazardConfig, OutcomeTable, check_conditions,
                     resolve_at_risk)
from .population import BuildingKind, Population, Sector, code

# Trials per Monte-Carlo batch. The last batch is drawn in full and cut, so
# trial i depends only on (master seed, i).
MC_BATCH = 64
# Most bytes of one block of cell uniforms. A batch's MC_BATCH x buildings
# uniforms (72 MB at 140,300 buildings) are drawn this many bytes of whole
# trial rows at a time, the same numbers as one draw of the whole block.
DRAW_BYTES = 1 << 20


def batch_rng(master_seed: int, batch_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one batch of `MC_BATCH` trials."""
    return np.random.default_rng(np.random.SeedSequence((int(master_seed), 0x6D63, int(batch_index))))


def uniform_rows(rng: np.random.Generator, n_rows: int, width: int):
    """`rng.random((n_rows, width))` as (first row, block) pairs of whole
    rows, each block at most `DRAW_BYTES` unless one row is larger. The
    blocks hold the same numbers and leave `rng` in the same state."""
    step = max(1, DRAW_BYTES // (8 * max(width, 1)))
    for first in range(0, n_rows, step):
        yield first, rng.random((min(step, n_rows - first), width))


def bernoulli_cells(u: np.ndarray, prob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(trial, index) of the Bernoulli(`prob`) draws that fire in a
    (trials x len(prob)) block of uniforms `u`, row by row: the cells whose
    uniform lies below `prob`, in row-major order.

    Under one block a cell that fires at some probability fires at every
    higher one.
    """
    return np.divmod(np.flatnonzero(u < prob), len(prob))


def at_risk_chance(occupants: np.ndarray, p_mort: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(q, log(1 - p)) per building: q = 1 - (1 - p)^n is the chance that the
    building has any occupant at risk in a trial, 0 for no occupants or
    p = 0. Where p = 1, log(1 - p) is set to 0 and q is 1 if occupied."""
    sure = p_mort == 1.0
    log_miss = np.log1p(-np.where(sure, 0.0, p_mort))
    return np.where(sure, occupants > 0, -np.expm1(occupants * log_miss)), log_miss


def draw_at_risk(rng: np.random.Generator, occupants: np.ndarray, p_mort: np.ndarray,
                 chance: tuple[np.ndarray, np.ndarray],
                 n_trials: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """At-risk occupants per (trial, building), as the non-zero cells
    (trial, building, count); each cell's count is Binomial(occupants, p_mort).

    `chance` is `at_risk_chance(occupants, p_mort)`. The first draw is one
    uniform per (trial, building) cell against q; buildings with q = 0
    never fire. Each firing cell then draws its first at-risk occupant J by
    inverse CDF of the geometric law truncated to n, and the n - J occupants
    after it are at risk independently: count = 1 + Binomial(n - J, p), the
    exact zero-truncated binomial.
    """
    q, log_miss = chance
    cells = [(first, *bernoulli_cells(u, q)) for first, u in uniform_rows(rng, n_trials, len(q))]
    trial = np.concatenate([first + t for first, t, _ in cells])
    building = np.concatenate([b for _, _, b in cells])
    n = occupants[building]
    p = p_mort[building]
    # J = ceil(log(1 - u q) / log(1 - p)); p = 1 makes J = 1.
    ratio = np.divide(np.log1p(-rng.random(trial.size) * q[building]), log_miss[building],
                      out=np.zeros(trial.size), where=p != 1.0)
    first = np.clip(np.ceil(ratio), 1, n).astype(np.int64)
    return trial, building, 1 + rng.binomial(n - first, p)


@dataclass(frozen=True)
class CICTable(Bounded):
    """Interruption-cost coefficients for one customer sector."""

    base: float = within(0)
    per_hour: float = within(0)
    per_kwh: float = within(0)
    slope_beyond_cap: float = within(0)


class CICTableKey(str, Enum):
    """The interruption-cost tables: medium and large C&I share one."""

    RESIDENTIAL = "residential"
    SMALL_CI = "small_ci"
    LARGE_MEDIUM_CI = "large_medium_ci"


_SECTOR_TABLE_KEY = {
    Sector.RESIDENTIAL: CICTableKey.RESIDENTIAL,
    Sector.SMALL_CI: CICTableKey.SMALL_CI,
    Sector.MEDIUM_CI: CICTableKey.LARGE_MEDIUM_CI,
    Sector.LARGE_CI: CICTableKey.LARGE_MEDIUM_CI,
}


# The shipped interruption-cost tables: order-of-magnitude placeholders
# patterned on published interruption-cost surveys. Each row is a per-event
# base, a per-hour charge up to the duration cap, a per-kWh charge on average
# load and a per-hour slope beyond the cap, in USD.
PLACEHOLDER_CIC_TABLES = {
    CICTableKey.RESIDENTIAL: CICTable(5.0, 2.0, 1.5, 3.0),
    CICTableKey.SMALL_CI: CICTable(200.0, 150.0, 2.0, 100.0),
    CICTableKey.LARGE_MEDIUM_CI: CICTable(5000.0, 2500.0, 1.0, 1500.0),
}


@dataclass(frozen=True)
class CICParams(Bounded):
    tables: dict[CICTableKey, CICTable] | None = None  # None: `PLACEHOLDER_CIC_TABLES`
    season_multiplier: float = within(0, default=1.0)
    industry_multiplier: float = within(0, default=1.0)
    income_multiplier: dict[str, float] = within(0, default_factory=lambda: {"median": 1.0})
    backup_discount: float = within(0, 1, default=0.85)  # small C&I with backup equipment
    duration_cap_h: float = within(0, default=16.0)


def interruption_cost(pop: Population, unpowered_h, params: CICParams) -> np.ndarray:
    """Direct interruption cost of each customer given its total unpowered
    hours, one value per building.

    Base + hourly (capped) + per-kWh-of-average-load terms, scaled by season
    and by industry (C&I) or income (residential) multipliers; small C&I
    with backup equipment get a discount. Durations beyond the cap accrue a
    linear surcharge. Customers with power throughout cost nothing and need
    no table.
    """
    hours = np.asarray(unpowered_h, dtype=float)
    usd = np.zeros(len(hours))
    dark = np.flatnonzero(hours > 0)
    sector = pop.sector[dark]
    by_key = PLACEHOLDER_CIC_TABLES if params.tables is None else params.tables
    tables = [by_key.get(_SECTOR_TABLE_KEY[s]) for s in Sector]
    untabled = np.array([t is None for t in tables])[sector]
    if untabled.any():
        key = _SECTOR_TABLE_KEY[tuple(Sector)[sector[untabled.argmax()]]]
        raise ConfigurationError(f"has no interruption-cost table {key.value!r}",
                                 "valuation.cic.tables")
    base, per_hour, per_kwh, slope = (
        np.array([math.nan if t is None else getattr(t, name) for t in tables])[sector]
        for name in ("base", "per_hour", "per_kwh", "slope_beyond_cap"))
    residential = sector == code(Sector.RESIDENTIAL)
    brackets, bracket = np.unique(pop.income_bracket[dark], return_inverse=True)
    income = np.array([params.income_multiplier.get(b, 1.0) for b in brackets.tolist()])[bracket]
    discounted = (sector == code(Sector.SMALL_CI)) & pop.backup[dark]
    # The same operations in the same order as for one customer at a time.
    ci = params.season_multiplier * params.industry_multiplier
    multiplier = np.where(residential, params.season_multiplier * income,
                          np.where(discounted, ci * params.backup_discount, ci))
    h = hours[dark]
    avg_kw = pop.avg_annual_kwh[dark] / 8760.0
    inner = base + per_hour * np.minimum(h, params.duration_cap_h) + per_kwh * avg_kw * h
    surcharge = slope * np.maximum(h - params.duration_cap_h, 0.0)
    usd[dark] = inner * multiplier + surcharge
    return usd


@dataclass(frozen=True)
class ValuationParams(Bounded):
    vsl_usd: float = within(above=0, default=11.6e6)  # FEMA benefit-cost analysis guidance
    medical_insured_usd: dict[Condition, tuple[float, float]] = within(
        0, ordered=True, default_factory=lambda: dict.fromkeys(Condition, (1014.0, 6282.0)))
    medical_uninsured_usd: dict[Condition, tuple[float, float]] = within(
        0, ordered=True, default_factory=lambda: dict.fromkeys(Condition, (3162.0, 15348.0)))
    # About the largest excess risk the shipped RR curve gives.
    severity_ceiling: float = within(above=0, default=0.5)
    home_care_fraction: float = within(0, 1, default=0.25)
    pipe_repair_insured_usd: tuple[float, float] = within(0, ordered=True, default=(500.0, 2000.0))
    pipe_repair_uninsured_usd: tuple[float, float] = within(
        0, ordered=True, default=(600.0, 5000.0))
    beta_wi: float | None = within(above=0, default=None)  # None: the population maximum
    # Average hourly pay by building type (BLS, Texas).
    wage_usd_per_hour: dict[BuildingKind, float] = within(0, default_factory=lambda: {
        BuildingKind.SINGLE_FAMILY: 45.51, BuildingKind.MULTI_FAMILY: 45.51,
        BuildingKind.MOBILE_HOME: 45.51, BuildingKind.OFFICE: 37.88,
        BuildingKind.WAREHOUSE_STORAGE: 15.49, BuildingKind.BIG_BOX: 29.36,
        BuildingKind.STRIP_MALL: 22.38, BuildingKind.EDUCATION: 27.95,
        BuildingKind.FOOD_SERVICE: 13.40, BuildingKind.FOOD_SALES: 15.64,
        BuildingKind.LODGING: 13.44, BuildingKind.HEALTHCARE: 43.15,
        BuildingKind.LOW_OCCUPANCY: 21.41})
    work_hours_residential: tuple[int, int] = within(0, 24, ordered=True, default=(8, 16))
    work_hours_commercial: tuple[int, int] = within(0, 24, ordered=True, default=(8, 17))
    cic: CICParams = field(default_factory=CICParams)
    # A run config without `cic.tables` must set this to price with the
    # placeholders (`scenario.ScenarioConfig` checks it).
    acknowledge_default_cic: bool = False

    def __post_init__(self):
        super().__post_init__()
        for name in ("medical_insured_usd", "medical_uninsured_usd"):
            check_conditions(getattr(self, name), name)


def medical_severity(p_mort: np.ndarray, params: ValuationParams) -> np.ndarray:
    """Severity of a hospital stay: p_mort / ceiling, clipped to [0, 1]."""
    return np.clip(np.asarray(p_mort, dtype=float) / params.severity_ceiling, 0.0, 1.0)


def medical_bills(params: ValuationParams) -> tuple[np.ndarray, np.ndarray]:
    """(base, slope) of the medical bill base + slope x severity of each
    outcome code of `hazard.resolve_at_risk`.

    Hospital recoveries bill their condition's uninsured or insured range at
    the severity; home recoveries bill a fraction of the insured minimum,
    insured or not; deaths bill nothing.
    """
    bills = []
    for c in CONDITIONS:
        home = params.home_care_fraction * params.medical_insured_usd[c][0]
        hospital = (params.medical_uninsured_usd[c], params.medical_insured_usd[c])
        bills += [(home, 0.0)] * 2 + [(lo, hi - lo) for lo, hi in hospital] + [(0.0, 0.0)] * 2
    base, slope = np.array(bills).T
    return base, slope


def medical_cost(outcome: np.ndarray, severity: np.ndarray,
                 bills: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Medical bill of each at-risk occupant, USD: the `medical_bills` entry
    of its outcome code at its `medical_severity`."""
    base, slope = bills
    return base[outcome] + slope[outcome] * severity


def repair_cost(wi_sum_by_building, beta_wi: float, params: ValuationParams,
                p_home_insured: float, rng: np.random.Generator,
                n_trials: int) -> np.ndarray:
    """Freeze-damage repair cost over buildings, one value per trial.

    In each trial each building with a positive index draws one uniform u.
    It is damaged if u < r, with r = index / beta (clipped to 1), and then
    insured if u < r x P(home insured), so a damaged building is insured
    with that chance. It bills the matching repair range at r. A building
    damaged at some r is damaged at every higher one.
    """
    wi = np.asarray(wi_sum_by_building, dtype=float)
    ratio = np.clip(wi[wi > 0.0] / beta_wi, 0.0, 1.0)
    ins_lo, ins_hi = params.pipe_repair_insured_usd
    unins_lo, unins_hi = params.pipe_repair_uninsured_usd
    uninsured = unins_lo + (unins_hi - unins_lo) * ratio
    insured = ins_lo + (ins_hi - ins_lo) * ratio
    # Every damaged building bills the uninsured range; the insured ones,
    # damaged too, then add the difference to the insured range.
    bills = ((ratio, uninsured), (ratio * p_home_insured, insured - uninsured))
    cost = np.empty(n_trials)
    for first, u in uniform_rows(rng, n_trials, len(ratio)):
        part = np.zeros(len(u))
        for below, bill in bills:
            trial, building = bernoulli_cells(u, below)
            part += np.bincount(trial, weights=bill[building], minlength=len(u))
        cost[first:first + len(u)] = part
    return cost


def work_steps(start, dt_s: float, n_steps: int, hours: tuple[int, int]) -> np.ndarray:
    """Indices of the steps of a window from `start`, `dt_s` apart, whose
    time of day lies in the daily working window [hours[0], hours[1])."""
    start_sec = start.hour * 3600.0 + start.minute * 60.0 + start.second
    seconds = (start_sec + dt_s * np.arange(n_steps)) % 86400.0
    return np.flatnonzero((seconds >= hours[0] * 3600.0) & (seconds < hours[1] * 3600.0))


def lost_work_hours(t_in_c, powered, residential, needs_power, steps, dt_s: float,
                    productivity_model, rows=None) -> np.ndarray:
    """Work hours lost per worker of each row of (buildings x steps) `t_in_c`
    and `powered`. `residential` and `needs_power` flag the rows; `steps`
    holds the `work_steps` of residential (work-from-home), then commercial,
    premises. Performance is zero at unpowered steps of power-dependent jobs
    and follows the temperature curve, evaluated only at working steps, otherwise.
    Only the row indices `rows` (every row for None) are reduced; the others
    lose 0.0 hours."""
    lost_h = np.zeros(len(t_in_c))
    priced = np.arange(len(t_in_c)) if rows is None else np.asarray(rows)
    for flag, cols in ((residential, steps[0]), (~residential, steps[1])):
        rows = priced[flag[priced]]
        if not len(rows):
            continue
        # The gathered cells are C-contiguous rows, so each row sums in the
        # same order as one building's working steps. Columns are gathered
        # first, so the intermediate holds only working steps.
        t = np.take(np.take(t_in_c, cols, axis=1), rows, axis=0)
        dark = ~np.take(np.take(powered, cols, axis=1), rows, axis=0)
        perf = productivity_model.evaluate(t, clipped=t)
        loss = np.subtract(1.0, perf, out=perf)
        loss[needs_power[rows, None] & dark] = 1.0
        lost_h[rows] = loss.sum(axis=1)
    lost_h *= dt_s / 3600.0
    return lost_h


def hourly_wages(pop: Population, params: ValuationParams) -> np.ndarray:
    """Each building's hourly wage, 0 without workers. Every kind with workers
    needs one; the first kind without one, in building order, is named."""
    wage_by_kind = np.array([params.wage_usd_per_hour.get(k, math.nan) for k in BuildingKind])
    wage = np.where(pop.n_workers != 0, wage_by_kind[pop.kind], 0.0)
    missing = np.flatnonzero(np.isnan(wage))
    if missing.size:
        kind = tuple(BuildingKind)[pop.kind[missing[0]]]
        raise ConfigurationError(f"has no wage for {kind.value!r}, whose buildings have workers",
                                 "valuation.wage_usd_per_hour")
    return wage


def check_income_brackets(pop: Population, params: CICParams) -> None:
    """Raise a ConfigurationError keyed by the first `income_multiplier`
    bracket that no residential building of `pop` is in. A population
    without residential buildings prices no income, so it checks none."""
    brackets = set(pop.income_bracket[pop.sector == code(Sector.RESIDENTIAL)].tolist())
    for key in params.income_multiplier:
        if brackets and key not in brackets:
            raise ConfigurationError("is not the income bracket of any residential building "
                                     f"(those are {', '.join(map(repr, sorted(brackets)))})",
                                     f"valuation.cic.income_multiplier.{key}")


@dataclass(frozen=True)
class ScenarioBundle:
    """Deterministic per-scenario inputs shared by every trial: what
    `run_batch` reads."""

    p_mort_by_building: np.ndarray   # in population order
    wi_sum_by_building: np.ndarray
    beta_wi: float
    occupants_by_building: np.ndarray
    c_prod: float
    c_cic: float
    hazard_cfg: HazardConfig
    val_params: ValuationParams
    # Derived once from the fields above, for every batch to read.
    outcome_table: OutcomeTable = field(init=False, repr=False)
    at_risk_chance: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    medical_bills: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        derived = {
            "outcome_table": OutcomeTable.from_distributions(self.hazard_cfg.distributions_pct),
            "at_risk_chance": at_risk_chance(self.occupants_by_building, self.p_mort_by_building),
            "medical_bills": medical_bills(self.val_params),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


COMPONENTS = ("c_vsl", "c_medical", "c_prod", "c_build", "c_cic")
COUNTS = ("n_death", "n_injured")
TRIAL_COLUMNS = COMPONENTS + COUNTS
# The reported metrics: one summary.json entry and one `compare` row each.
METRICS = COMPONENTS + ("nei_total", "total") + COUNTS


def run_batch(bundle: ScenarioBundle, batch_index: int, master_seed: int) -> np.ndarray:
    """Trials batch_index * MC_BATCH onward: one row per trial, one column
    per `TRIAL_COLUMNS` name.

    Every occupant of a building shares its mortality probability, so the
    building's at-risk count in a trial is Binomial(occupants, p_mort).
    The batch's first draw picks the (trial, building) cells with any
    occupant at risk (`draw_at_risk`), so scenarios with the same
    population and seed share those uniforms; only the at-risk occupants
    draw an outcome, one categorical draw each against the bundle's
    outcome table (`resolve_at_risk`). The interruption and productivity
    components are scenario constants from the bundle.
    """
    rng = batch_rng(master_seed, batch_index)
    cell_trial, building, counts = draw_at_risk(
        rng, bundle.occupants_by_building, bundle.p_mort_by_building, bundle.at_risk_chance,
        MC_BATCH)
    trial = np.repeat(cell_trial, counts)
    outcome = resolve_at_risk(trial.size, bundle.outcome_table, rng)
    severity = medical_severity(np.repeat(bundle.p_mort_by_building[building], counts),
                                bundle.val_params)
    medical = medical_cost(outcome, severity, bundle.medical_bills)

    n_death = np.bincount(trial[bundle.outcome_table.death[outcome]], minlength=MC_BATCH)
    n_at_risk = np.bincount(trial, minlength=MC_BATCH)
    return np.column_stack((  # TRIAL_COLUMNS order
        n_death * bundle.val_params.vsl_usd,
        np.bincount(trial, weights=medical, minlength=MC_BATCH),
        np.full(MC_BATCH, bundle.c_prod),
        repair_cost(bundle.wi_sum_by_building, bundle.beta_wi, bundle.val_params,
                    bundle.outcome_table.p_home_insured, rng, MC_BATCH),
        np.full(MC_BATCH, bundle.c_cic),
        n_death,
        n_at_risk - n_death,
    ))


@dataclass(frozen=True)
class CostDistribution:
    """Per-trial costs and counts: one row per trial, one column per
    `TRIAL_COLUMNS` name."""

    trials: np.ndarray

    def component(self, name: str) -> np.ndarray:
        """One column per trial; `total` and `nei_total` add the components
        in `COMPONENTS` order, the same sums as one trial at a time."""
        if name in ("total", "nei_total"):
            parts = COMPONENTS if name == "total" else COMPONENTS[:-1]
            values = self.component(parts[0])
            for part in parts[1:]:
                values = values + self.component(part)
            return values
        return self.trials[:, TRIAL_COLUMNS.index(name)]


def run_monte_carlo(bundle: ScenarioBundle, n_trials: int, master_seed: int,
                    threads: int = 1) -> CostDistribution:
    """Run independent trials; results are identical for any worker count.

    Batches derive their streams from (master seed, batch index) and are
    assembled in batch order, so scheduling cannot leak in; `threads`
    workers run batches side by side.
    """
    batches = range(-(-n_trials // MC_BATCH))
    if threads <= 1:  # in this thread: a one-worker pool measured slower end to end
        blocks = [run_batch(bundle, b, master_seed) for b in batches]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(lambda b: run_batch(bundle, b, master_seed), batches))
    return CostDistribution(trials=np.concatenate(blocks)[:n_trials])


def _nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    n = len(sorted_values)
    rank = max(int(math.ceil(pct / 100.0 * n)), 1)
    return float(sorted_values[rank - 1])


def summarize(dist: CostDistribution, histogram_bins: int = 50) -> tuple[dict, list]:
    """Exact summary statistics per component plus a fixed-width histogram
    of the total (bin_left, bin_right, count) rows."""
    n = len(dist.trials)
    summary: dict = {"n_trials": n}
    for name in METRICS:
        values = dist.component(name)
        ordered = np.sort(values)
        std = float(values.std())
        summary[name] = {
            "mean": float(values.mean()),
            "std": std,
            "se": std / math.sqrt(n),
            "p5": _nearest_rank(ordered, 5.0),
            "p50": _nearest_rank(ordered, 50.0),
            "p95": _nearest_rank(ordered, 95.0),
        }
    totals = dist.component("total")
    lo, hi = float(totals.min()), float(totals.max())
    if hi == lo:
        hi = lo + 1.0
    # numpy needs every bin wider than the float spacing at the totals' size.
    hi = max(hi, lo + 4.0 * histogram_bins * float(np.spacing(max(abs(lo), abs(hi)))))
    counts, edges = np.histogram(totals, bins=histogram_bins, range=(lo, hi))
    histogram = [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
                 for i in range(histogram_bins)]
    return summary, histogram
