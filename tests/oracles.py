"""Per-building and scalar reference paths that the package is checked against.

These are the resample-then-slice form of the weather window, the
one-building-at-a-time forms of the power schedules and their rolling
groups, the thermal simulation, the hazard reductions, the interruption
and productivity costs and the trace export, plus the scalar forms of the
outcome tree and the medical cost, the one-trial Monte-Carlo path, and the
batch kernel that samples every rate of the outcome tree and every
home-insurance rate. The package computes the same quantities over blocks
of buildings, occupants or trials; the equivalence tests require the two
to agree bit for bit, or, for the Monte-Carlo path, in distribution.
Outcomes here are records of (status, condition, insured), and
`decode_outcome` turns the package's outcome codes into that form.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta
from enum import Enum

import numpy as np

from coldsnap.errors import ConfigurationError
from coldsnap.hazard import (
    CONDITIONS,
    Condition,
    HazardConfig,
    WinterIndexParams,
    mortality_probability,
)
from coldsnap.population import Building, Population, Sector
from coldsnap.thermal import INTERNAL_GAIN_W, simulate_block
from coldsnap.valuation import (
    _SECTOR_TABLE_KEY,
    MC_BATCH,
    PLACEHOLDER_CIC_TABLES,
    CICParams,
    ScenarioBundle,
    ValuationParams,
    batch_rng,
    bernoulli_cells,
    draw_at_risk,
)
from coldsnap.weather import WeatherSeries, load_weather_csv


# --- Power schedules: one array per building, keyed by id -------------------

@dataclass(frozen=True)
class ScheduleDict:
    dt_s: float
    schedules: dict[int, np.ndarray] = field(repr=False)
    isolated_ids: frozenset[int] = frozenset()

    def __post_init__(self):
        for arr in self.schedules.values():
            arr.flags.writeable = False

    @property
    def n_steps(self) -> int:
        return next(iter(self.schedules.values())).shape[0] if self.schedules else 0

    def unpowered_hours(self, building_id: int) -> float:
        return unpowered_hours(self.schedules[building_id], self.dt_s)


def unpowered_hours(powered, dt_s: float) -> float:
    """Unpowered hours of one building's schedule."""
    return float((~np.asarray(powered, dtype=bool)).sum()) * dt_s / 3600.0


def choose_ids(ids, fraction: float, seed: int, stream: int) -> list[int]:
    """round(fraction x len(ids)) of `ids`, chosen uniformly by the RNG
    stream (seed, stream) from the ids in ascending order."""
    n_pick = int(round(fraction * len(ids)))
    if n_pick == 0:
        return []
    rng = np.random.default_rng(np.random.SeedSequence((seed, stream)))
    return rng.choice(np.sort(np.array(ids)), size=n_pick, replace=False).tolist()


def select_isolated(pop, fault_fraction: float, seed: int) -> frozenset[int]:
    """Seeded uniform choice of round(fault_fraction x N) building ids,
    drawn from the sorted ids."""
    return frozenset(choose_ids(pop.id.tolist(), fault_fraction, seed, 0x150))


def build_schedules(config, pop) -> ScheduleDict:
    """The schedules of the config's scenario."""
    build = {"base": build_base_schedule, "co": build_controlled_outage}.get(
        config.scenario.value, build_rolling_outage)
    return build(pop, config.n_steps, config.dt_s, config.params, config.seed)


def build_base_schedule(pop, n_steps, dt_s, params, seed) -> ScheduleDict:
    schedules = {b.id: np.ones(n_steps, dtype=bool) for b in pop.buildings}
    return ScheduleDict(dt_s, schedules, frozenset())


def build_controlled_outage(pop, n_steps, dt_s, params, seed) -> ScheduleDict:
    if params.shed_ids is None:
        candidates = [b.id for b in pop.buildings
                      if params.shed_scope == "all" or b.sector is Sector.RESIDENTIAL]
        shed = set(choose_ids(candidates, params.shed_fraction, seed, 0x5348))
    else:
        shed = set(int(i) for i in params.shed_ids)
    isolated = select_isolated(pop, params.fault_fraction, seed)
    dark = shed | isolated
    schedules = {
        b.id: np.zeros(n_steps, dtype=bool) if b.id in dark else np.ones(n_steps, dtype=bool)
        for b in pop.buildings
    }
    return ScheduleDict(dt_s, schedules, isolated)


def assign_rolling_groups(pop, n_groups: int) -> dict[int, int]:
    """Consumption tier of each residential building, keyed by id: ranked
    by (-kWh, id), tier 0 heaviest, tiers of near-equal size."""
    residential = sorted((b for b in pop.buildings if b.sector is Sector.RESIDENTIAL),
                         key=lambda b: (-b.avg_annual_kwh, b.id))
    groups: dict[int, int] = {}
    size = len(residential) / n_groups
    for rank, b in enumerate(residential):
        groups[b.id] = min(int(rank / size) if size else 0, n_groups - 1)
    return groups


def build_rolling_outage(pop, n_steps, dt_s, params, seed) -> ScheduleDict:
    n_groups = params.n_groups
    per_slot = int(round(params.slot_s / dt_s))
    n_slots = -(-n_steps // per_slot)  # ceil
    fractions = (params.availability if params.availability is not None
                 else [params.availability_constant] * n_slots)

    groups = assign_rolling_groups(pop, n_groups)
    isolated = select_isolated(pop, params.fault_fraction, seed)

    # Per-slot powered tiers: the k-wide served window starts at slot index
    # mod n_groups and wraps.
    group_on = np.zeros((n_slots, n_groups), dtype=bool)
    for s in range(n_slots):
        k = int(np.floor(fractions[s] * n_groups))
        k = min(k, n_groups)
        for j in range(k):
            group_on[s, (s + j) % n_groups] = True

    step_slot = np.minimum(np.arange(n_steps) // per_slot, n_slots - 1)
    schedules: dict[int, np.ndarray] = {}
    for b in pop.buildings:
        if b.id in isolated:
            schedules[b.id] = np.zeros(n_steps, dtype=bool)
        elif b.sector is not Sector.RESIDENTIAL:
            schedules[b.id] = np.ones(n_steps, dtype=bool)
        else:
            schedules[b.id] = group_on[step_slot, groups[b.id]].copy()
    return ScheduleDict(dt_s, schedules, isolated)


def max_contiguous_off(powered, dt_s: float) -> float:
    """Longest unpowered run in a boolean schedule, in hours."""
    arr = np.asarray(powered, dtype=bool)
    longest = 0
    run = 0
    for value in arr:
        if value:
            run = 0
        else:
            run += 1
            longest = max(longest, run)
    return longest * dt_s / 3600.0


# --- Thermal: one building's trace ------------------------------------------

@dataclass(frozen=True)
class ExposureTrace:
    """Per-building simulation record over the event window."""

    building_id: int
    start: datetime
    dt_s: float
    t_in_c: np.ndarray = field(repr=False)
    powered: np.ndarray = field(repr=False)
    hvac_kw: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite(self.t_in_c)):
            raise ConfigurationError("trace contains non-finite temperatures")
        for name in ("t_in_c", "powered", "hvac_kw"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def n_steps(self) -> int:
        return len(self.t_in_c)


def simulate_new_block(pop: Population, weather, powered) -> tuple[np.ndarray, np.ndarray]:
    """`simulate_block` into new buffers: the (buildings x steps) temperatures
    and heating flags."""
    t_in = np.empty(np.shape(powered))
    hvac_on = np.empty(t_in.shape, dtype=bool)
    simulate_block(pop, weather, powered, t_in, hvac_on)
    return t_in, hvac_on


def simulate_building(building: Building, weather, powered) -> ExposureTrace:
    """One building through the package's block kernel."""
    powered = np.asarray(powered, dtype=bool)
    t_in, hvac_on = simulate_new_block(Population.from_buildings([building]), weather,
                                       powered[None, :])
    return ExposureTrace(
        building_id=building.id,
        start=weather.start,
        dt_s=weather.dt_s,
        t_in_c=t_in[0].copy(),
        powered=powered.copy(),
        hvac_kw=np.where(hvac_on[0], building.hvac_electric_kw, 0.0),
    )


def simulate_building_scalar(building, weather, powered) -> ExposureTrace:
    """Scalar relay loop over one building's steps."""
    powered = np.asarray(powered, dtype=bool)
    internal_gain_w = INTERNAL_GAIN_W if building.n_occupants > 0 else 0.0

    ua = building.ua_w_per_k
    cap = building.thermal_mass_j_per_k
    decay = math.exp(-ua * weather.dt_s / cap)
    rated_kw = building.hvac_electric_kw
    lo = building.setpoint_c - building.deadband_c / 2.0
    hi = building.setpoint_c + building.deadband_c / 2.0

    t_eq_off = (weather.t_out_c + internal_gain_w / ua).tolist()
    t_eq_on = (weather.t_out_c + (building.hvac_heat_w + internal_gain_w) / ua).tolist()
    powered_list = powered.tolist()

    n = weather.n_steps
    t_in = np.empty(n)
    hvac_kw = np.empty(n)
    temp = building.setpoint_c
    on = False
    for i in range(n):
        if not powered_list[i]:
            on = False
        elif temp < lo:
            on = True
        elif temp > hi:
            on = False
        t_in[i] = temp
        hvac_kw[i] = rated_kw if on else 0.0
        t_eq = t_eq_on[i] if on else t_eq_off[i]
        temp = t_eq + (temp - t_eq) * decay
    return ExposureTrace(
        building_id=building.id,
        start=weather.start,
        dt_s=weather.dt_s,
        t_in_c=t_in,
        powered=powered.copy(),
        hvac_kw=hvac_kw,
    )


def free_float_closed_form(building: Building, t_start_c: float, t_out_c: float,
                           internal_gain_w: float, times_s) -> np.ndarray:
    """Analytic unpowered trajectory for constant outdoor temperature."""
    times = np.asarray(times_s, dtype=float)
    t_eq = t_out_c + internal_gain_w / building.ua_w_per_k
    tau = building.thermal_mass_j_per_k / building.ua_w_per_k
    return t_eq + (t_start_c - t_eq) * np.exp(-times / tau)


def population_csv(buildings) -> str:
    """The population CSV through `csv.writer`, one `Building` per row: an
    enum's value, "true"/"false", a float's repr and every other field's `str`."""
    handle = io.StringIO()
    writer = csv.writer(handle)
    names = [f.name for f in fields(Building)]
    writer.writerow(names)
    for b in buildings:
        cells = [getattr(b, name) for name in names]
        writer.writerow([c.value if isinstance(c, Enum) else ("true" if c else "false")
                         if isinstance(c, bool) else c for c in cells])
    return handle.getvalue()


def write_traces_csv(traces, path) -> None:
    """Trace export through `csv`, formatting every row's timestamp."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["building_id", "timestamp", "t_in_c", "powered", "hvac_kw"])
        for trace in traces:
            for i in range(trace.n_steps):
                stamp = trace.start + timedelta(seconds=trace.dt_s * i)
                writer.writerow([
                    trace.building_id,
                    stamp.isoformat(),
                    f"{trace.t_in_c[i]:.4f}",
                    "true" if trace.powered[i] else "false",
                    f"{trace.hvac_kw[i]:.3f}",
                ])


# --- Hazard: scalar curves and the outcome tree ------------------------------

def winter_index_sum(t_in_c, rh_pct, params: WinterIndexParams) -> float:
    """Accumulated freeze index of one trace: sum of (T_crit - T)(RH - RH_crit)
    over steps where T < T_crit and RH > RH_crit; zero otherwise."""
    t = np.asarray(t_in_c, dtype=float)
    if params.indoor_rh_pct is not None:
        rh = np.full(t.shape, float(params.indoor_rh_pct))
    else:
        rh = np.asarray(rh_pct, dtype=float)
    gate = (t < params.t_crit_c) & (rh > params.rh_crit_pct)
    if not gate.any():
        return 0.0
    contrib = (params.t_crit_c - t[gate]) * (rh[gate] - params.rh_crit_pct)
    return float(contrib.sum())


def relative_risk(t_in_c, model):
    value = model.evaluate(t_in_c)
    return float(value) if np.isscalar(t_in_c) else value


def productivity(t_in_c, model):
    value = model.evaluate(t_in_c)
    return float(value) if np.isscalar(t_in_c) else value


def base_mortality(t_in_c, model, delta: float = 0.0) -> float:
    """Mortality probability from a temperature trace: mean excess RR plus delta."""
    t = np.asarray(t_in_c, dtype=float)
    return float(mortality_probability(model.evaluate(t).mean(), delta))


def sample_truncated_normal(rate, rng: np.random.Generator, size=None):
    """Draws of the truncated normal `rate`, (loc, std, lo, hi), by
    rejection: `size` of them, each value outside [lo, hi] redrawn until none
    is left, or with no `size` one float."""
    loc, std, lo, hi = rate
    if size is not None:
        out = rng.normal(loc, std, size=size)
        bad = (out < lo) | (out > hi)
        while bad.any():
            out[bad] = rng.normal(loc, std, size=int(bad.sum()))
            bad = (out < lo) | (out > hi)
        return out
    while True:
        value = rng.normal(loc, std)
        if lo <= value <= hi:
            return float(value)


# Integer status codes of the vectorized outcome records.
STATUS_UNAFFECTED, STATUS_HOME, STATUS_HOSPITAL, STATUS_DEATH = 0, 1, 2, 3


@dataclass(frozen=True)
class OutcomeBatch:
    """Vectorized occupant outcomes (integer status codes)."""

    status: np.ndarray      # 0 unaffected, 1 home-recovered, 2 hospital-recovered, 3 death
    condition: np.ndarray   # index into CONDITIONS, -1 for none
    insured: np.ndarray     # health-insurance flag per occupant


def decode_outcome(code) -> OutcomeBatch:
    """The record form of `hazard.resolve_at_risk`'s outcome codes,
    2 x category + insured, the categories condition by condition, each
    recovered at home, recovered in hospital, death."""
    category, insured = np.divmod(np.asarray(code), 2)
    condition, status = np.divmod(category, 3)
    return OutcomeBatch((STATUS_HOME + status).astype(np.int8), condition.astype(np.int8),
                        insured.astype(bool))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial drawn on its own."""
    return np.random.default_rng(np.random.SeedSequence((int(master_seed), 0x7269616C, int(trial_index))))


def resolve_at_risk_sampled(m: int, cfg: HazardConfig, rng: np.random.Generator) -> OutcomeBatch:
    """Walk `m` at-risk occupants down the outcome tree, sampling every rate.

    Each occupant gets fresh draws of their pre-existing-condition rates,
    care access and survival probabilities from the configured
    distributions, then a condition, a care venue and survival; each also
    draws a health-insurance flag. The package's categorical draw has the
    same law.
    """
    dists = cfg.distributions_pct
    if m == 0:
        return OutcomeBatch(np.zeros(0, dtype=np.int8), np.zeros(0, dtype=np.int8),
                            np.zeros(0, dtype=bool))
    p_c = sample_truncated_normal(dists.pre_existing_cardiac, rng, m) / 100.0
    p_r = sample_truncated_normal(dists.pre_existing_respiratory, rng, m) / 100.0
    u_cond = rng.random(m)
    is_cardiac = u_cond < p_c
    # Renormalized second branch keeps the respiratory marginal at its rate.
    u_resp = rng.random(m)
    is_resp = ~is_cardiac & (u_resp < p_r / np.maximum(1.0 - p_c, 1e-12))
    cond = np.full(m, 2, dtype=np.int8)  # hypothermia/frost unless overridden
    cond[is_cardiac] = 0
    cond[is_resp] = 1

    accessed = rng.random(m) < sample_truncated_normal(dists.healthcare_access, rng, m) / 100.0
    # Survival rates are drawn group by group in a fixed (venue, condition)
    # order, hospital first, each group's occupants in index order.
    group = np.where(accessed, 0, len(CONDITIONS)) + cond
    counts = np.bincount(group, minlength=2 * len(CONDITIONS)).tolist()
    tables = [dists.hospital_survival[c] for c in CONDITIONS] + \
        [dists.home_survival[c] for c in CONDITIONS]
    survival_p = np.empty(m)
    survival_p[np.argsort(group, kind="stable")] = np.concatenate(
        [sample_truncated_normal(table, rng, count)
         for table, count in zip(tables, counts) if count]) / 100.0
    survived = rng.random(m) < survival_p
    insured = rng.random(m) < sample_truncated_normal(dists.health_insurance, rng, m) / 100.0

    status = np.where(~survived, STATUS_DEATH,
                      np.where(accessed, STATUS_HOSPITAL, STATUS_HOME)).astype(np.int8)
    return OutcomeBatch(status, cond, insured)


@dataclass(frozen=True)
class TrialOutcomes(OutcomeBatch):
    """Every occupant's outcome in one trial, with its counts."""

    @property
    def n_death(self) -> int:
        return int((self.status == STATUS_DEATH).sum())

    @property
    def n_injured(self) -> int:
        return int(((self.status == STATUS_HOME) | (self.status == STATUS_HOSPITAL)).sum())


def simulate_outcomes(p_mort: np.ndarray, cfg: HazardConfig, rng: np.random.Generator) -> TrialOutcomes:
    """Resolve one trial's occupants, each at risk with its own probability.

    Each occupant is at risk with probability `p_mort`; the at-risk ones
    walk the outcome tree of `resolve_at_risk_sampled`. Occupants not at
    risk stay unaffected, without a condition or a health-insurance flag.
    """
    p_mort = np.asarray(p_mort, dtype=float)
    n = p_mort.shape[0]
    idx = np.flatnonzero(rng.random(n) < p_mort)
    tree = resolve_at_risk_sampled(idx.size, cfg, rng)
    status = np.zeros(n, dtype=np.int8)
    condition = np.full(n, -1, dtype=np.int8)
    insured = np.zeros(n, dtype=bool)
    status[idx] = tree.status
    condition[idx] = tree.condition
    insured[idx] = tree.insured
    return TrialOutcomes(status, condition, insured)


class OutcomeStatus(str, Enum):
    UNAFFECTED = "unaffected"
    INJURED_RECOVERED_HOME = "injured_recovered_home"
    INJURED_RECOVERED_HOSPITAL = "injured_recovered_hospital"
    DEATH = "death"


@dataclass(frozen=True)
class OccupantOutcome:
    status: OutcomeStatus
    condition: Condition | None  # None: not at risk
    accessed_healthcare: bool
    insured: bool

    def __post_init__(self):
        if (self.condition is None) != (self.status is OutcomeStatus.UNAFFECTED):
            raise ConfigurationError("condition must be None exactly for unaffected occupants")


def simulate_occupant_outcome(p_mort: float, probs: dict, rng: np.random.Generator) -> OccupantOutcome:
    """Resolve one occupant through the outcome tree with fixed probabilities.

    `probs` keys: p_pre_c, p_pre_r, p_access, p_heal_ins, hospital_surv and
    home_surv (each a mapping condition -> survival probability). The
    respiratory branch is renormalized by (1 - p_pre_c) so both pre-existing
    marginals match their configured rates despite sequential drawing.
    """
    insured = bool(rng.random() < probs["p_heal_ins"])
    if not rng.random() < p_mort:
        return OccupantOutcome(OutcomeStatus.UNAFFECTED, None, False, insured)

    u = rng.random()
    p_c = probs["p_pre_c"]
    p_r = probs["p_pre_r"]
    if u < p_c:
        condition = Condition.CARDIAC
    elif p_c < 1.0 and rng.random() < p_r / (1.0 - p_c):
        condition = Condition.RESPIRATORY
    else:
        condition = Condition.HYPOTHERMIA_FROST

    accessed = bool(rng.random() < probs["p_access"])
    surv_table = probs["hospital_surv"] if accessed else probs["home_surv"]
    survived = bool(rng.random() < surv_table[condition])
    if not survived:
        return OccupantOutcome(OutcomeStatus.DEATH, condition, accessed, insured)
    status = OutcomeStatus.INJURED_RECOVERED_HOSPITAL if accessed else OutcomeStatus.INJURED_RECOVERED_HOME
    return OccupantOutcome(status, condition, accessed, insured)


def outcome_tree_probabilities(p_mort: float, p_pre_c: float, p_pre_r: float,
                               p_access: float, hospital_surv: dict, home_surv: dict) -> dict:
    """Closed-form outcome marginals for fixed tree probabilities."""
    p_cond = {
        Condition.CARDIAC: p_pre_c,
        Condition.RESPIRATORY: p_pre_r,
        Condition.HYPOTHERMIA_FROST: 1.0 - p_pre_c - p_pre_r,
    }
    death = hospital = home = 0.0
    for c in CONDITIONS:
        death += p_cond[c] * (p_access * (1.0 - hospital_surv[c]) + (1.0 - p_access) * (1.0 - home_surv[c]))
        hospital += p_cond[c] * p_access * hospital_surv[c]
        home += p_cond[c] * (1.0 - p_access) * home_surv[c]
    return {
        "death": p_mort * death,
        "injured_recovered_hospital": p_mort * hospital,
        "injured_recovered_home": p_mort * home,
        "unaffected": 1.0 - p_mort,
        "condition_given_at_risk": {c.value: p_cond[c] for c in CONDITIONS},
    }


# --- Valuation: one customer or occupant at a time ---------------------------

def _severity(p_mort: float, ceiling: float) -> float:
    return min(max(p_mort / ceiling, 0.0), 1.0)


def medical_cost(outcomes, p_mort_per_occupant, params: ValuationParams) -> float:
    """Medical cost over occupant outcomes; p_mort aligns with the outcomes.

    Hospital-recovered cases bill the insured or uninsured range scaled by
    mortality severity. Home-recovered cases bill a flat fraction of the
    insured range minimum. Deaths and unaffected occupants bill nothing.
    """
    total = 0.0
    for outcome, p_mort in zip(outcomes, p_mort_per_occupant):
        if outcome.status is OutcomeStatus.INJURED_RECOVERED_HOSPITAL:
            table = params.medical_insured_usd if outcome.insured else params.medical_uninsured_usd
            lo, hi = table[outcome.condition.value]
            total += lo + (hi - lo) * _severity(p_mort, params.severity_ceiling)
        elif outcome.status is OutcomeStatus.INJURED_RECOVERED_HOME:
            lo, _ = params.medical_insured_usd[outcome.condition.value]
            total += params.home_care_fraction * lo
    return total


def interruption_cost(building, unpowered_hours: float, params: CICParams) -> float:
    """Direct interruption cost for one customer given total unpowered hours."""
    if unpowered_hours == 0:
        return 0.0
    tables = PLACEHOLDER_CIC_TABLES if params.tables is None else params.tables
    table = tables.get(_SECTOR_TABLE_KEY.get(building.sector))
    if table is None:
        raise ConfigurationError(f"no interruption-cost table for sector {building.sector}")
    avg_kw = building.avg_annual_kwh / 8760.0
    capped_h = min(unpowered_hours, params.duration_cap_h)
    inner = table.base + table.per_hour * capped_h + table.per_kwh * avg_kw * unpowered_hours
    multiplier = params.season_multiplier
    if building.sector is Sector.RESIDENTIAL:
        multiplier *= params.income_multiplier.get(building.income_bracket, 1.0)
    else:
        multiplier *= params.industry_multiplier
        if building.sector is Sector.SMALL_CI and building.backup:
            multiplier *= params.backup_discount
    surcharge = table.slope_beyond_cap * max(unpowered_hours - params.duration_cap_h, 0.0)
    return inner * multiplier + surcharge


def work_hour_mask(start_seconds_of_day: float, dt_s: float, n_steps: int,
                   hours: tuple[int, int]) -> np.ndarray:
    """Whether each step's time of day lies in the working window [hours)."""
    seconds = (start_seconds_of_day + dt_s * np.arange(n_steps)) % 86400.0
    return (seconds >= hours[0] * 3600.0) & (seconds < hours[1] * 3600.0)


def productivity_cost(traces, pop, params, productivity_model) -> float:
    """Lost-wage total over buildings, one trace at a time, in building order."""
    total = 0.0
    dt_h = None
    for b in pop.buildings:
        if b.n_workers == 0:
            continue
        trace = traces[b.id]
        if dt_h is None:
            dt_h = trace.dt_s / 3600.0
            start_sec = (trace.start.hour * 3600.0 + trace.start.minute * 60.0
                         + trace.start.second)
            res_mask = work_hour_mask(start_sec, trace.dt_s, trace.n_steps,
                                      params.work_hours_residential)
            com_mask = work_hour_mask(start_sec, trace.dt_s, trace.n_steps,
                                      params.work_hours_commercial)
        mask = res_mask if b.sector is Sector.RESIDENTIAL else com_mask
        perf = productivity_model.evaluate(trace.t_in_c)
        if b.job_requires_power:
            perf = np.where(trace.powered, perf, 0.0)
        lost = (1.0 - perf[mask]).sum() * dt_h
        total += b.n_workers * lost * params.wage_usd_per_hour[b.kind.value]
    return float(total)


# --- Weather: resample the whole series, then slice the window --------------

def index_of(series: WeatherSeries, stamp: datetime) -> int:
    """Grid index of `stamp`."""
    return int(round((stamp - series.start).total_seconds() / series.dt_s))


def slice_window(series: WeatherSeries, start: datetime, end: datetime) -> WeatherSeries:
    """The half-open window [start, end) of a series, bounds on its grid."""
    i0 = index_of(series, start)
    i1 = index_of(series, end)
    return WeatherSeries(start, series.dt_s, series.t_out_c[i0:i1], series.rh_pct[i0:i1])


def resample(series: WeatherSeries, new_dt_s: float) -> WeatherSeries:
    """Resample onto a commensurate grid spanning the same sample endpoints.

    Finer grids are filled by linear interpolation; coarser grids take every
    m-th sample. Both preserve the first and last original samples.
    """
    if new_dt_s == series.dt_s:
        return series
    n = series.n_steps
    if new_dt_s < series.dt_s:
        factor = int(round(series.dt_s / new_dt_s))
        old_pos = np.arange(n, dtype=float)
        new_pos = np.arange((n - 1) * factor + 1, dtype=float) / factor
        t_new = np.interp(new_pos, old_pos, series.t_out_c)
        rh_new = np.interp(new_pos, old_pos, series.rh_pct)
    else:
        factor = int(round(new_dt_s / series.dt_s))
        t_new = series.t_out_c[::factor]
        rh_new = series.rh_pct[::factor]
    return WeatherSeries(series.start, float(new_dt_s), t_new, rh_new)


# --- The bundle, one building at a time --------------------------------------

EXPOSURE_FLOATS = ("mean_t_in_c", "min_t_in_c", "mean_rr", "p_mort", "wi_sum", "unpowered_h")


def assemble_bundle(config, pop, schedule):
    """Simulate and reduce one building at a time; building i's schedule is
    row `group[i]` of the schedule's `on` matrix.

    Returns the trial bundle, the traces keyed by building id, and the
    per-building exposure rows.
    """
    series = load_weather_csv(config.file(config.weather_path))
    if series.dt_s != config.dt_s:
        series = resample(series, config.dt_s)
    window = slice_window(series, config.window.start, config.window.end)

    hz = config.hazard
    traces = {}
    n_b = len(pop.buildings)
    p_mort = np.empty(n_b)
    wi_sum = np.empty(n_b)
    mean_rr = np.empty(n_b)
    powered = schedule.on[schedule.group]
    hours = [unpowered_hours(row, schedule.dt_s) for row in powered]
    exposure_rows = []
    for i, b in enumerate(pop.buildings):
        trace = simulate_building_scalar(b, window, powered[i])
        traces[b.id] = trace
        mean_rr[i] = hz.rr_model.evaluate(trace.t_in_c).mean()
        p_mort[i] = base_mortality(trace.t_in_c, hz.rr_model, hz.delta)
        wi_sum[i] = winter_index_sum(trace.t_in_c, window.rh_pct, hz.winter_index)
        exposure_rows.append({
            "building_id": b.id,
            "kind": b.kind.value,
            "sector": b.sector.value,
            "insulation": b.insulation.value,
            "n_occupants": b.n_occupants,
            "mean_t_in_c": float(trace.t_in_c.mean()),
            "min_t_in_c": float(trace.t_in_c.min()),
            "mean_rr": float(mean_rr[i]),
            "p_mort": float(p_mort[i]),
            "wi_sum": float(wi_sum[i]),
            "unpowered_h": hours[i],
        })

    beta = config.valuation.beta_wi
    if beta is None:
        beta = float(max(wi_sum.max(initial=0.0), 1e-9))

    c_cic = 0.0
    for b, h in zip(pop.buildings, hours):
        c_cic += interruption_cost(b, h, config.valuation.cic)
    c_prod = productivity_cost(traces, pop, config.valuation, hz.productivity_model)

    bundle = ScenarioBundle(
        p_mort_by_building=p_mort,
        wi_sum_by_building=wi_sum,
        beta_wi=float(beta),
        occupants_by_building=np.array([b.n_occupants for b in pop.buildings]),
        c_prod=float(c_prod),
        c_cic=float(c_cic),
        hazard_cfg=hz,
        val_params=config.valuation,
    )
    return bundle, traces, exposure_rows


def write_exposure_csv(rows, path) -> None:
    """Exposure export through `csv.DictWriter`, one row dict at a time."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: f"{v:.6f}" if k in EXPOSURE_FLOATS else v
                             for k, v in row.items()})


# --- Monte-Carlo: one trial at a time, one draw per occupant ----------------

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


def medical_cost_batch(batch: OutcomeBatch, p_mort_occ: np.ndarray,
                       params: ValuationParams) -> float:
    """Medical cost of one trial's occupant outcomes, grouped by bill."""
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


def repair_cost_trial(wi_sum_by_building, beta_wi: float, params: ValuationParams,
                      home_insurance, rng: np.random.Generator) -> float:
    """Freeze-damage repair cost of one trial: a damage draw and a
    home-insurance flag for every building."""
    wi = np.asarray(wi_sum_by_building, dtype=float)
    ratio = np.clip(wi / beta_wi, 0.0, 1.0)
    n = wi.shape[0]
    damaged = rng.random(n) < ratio
    insured = rng.random(n) < sample_truncated_normal(home_insurance, rng, n) / 100.0
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


def run_trial(bundle: ScenarioBundle, trial_index: int, master_seed: int) -> CostBreakdown:
    """One Monte-Carlo trial: an at-risk draw for every occupant, then
    damages, priced per trial.

    Pure function of (bundle, trial index, master seed); the interruption
    and productivity components are scenario constants from the bundle.
    """
    rng = trial_rng(master_seed, trial_index)
    occupant_building = np.repeat(np.arange(len(bundle.occupants_by_building)),
                                  bundle.occupants_by_building)
    p_mort_occ = bundle.p_mort_by_building[occupant_building]
    batch = simulate_outcomes(p_mort_occ, bundle.hazard_cfg, rng)
    c_vsl = batch.n_death * bundle.val_params.vsl_usd
    c_medical = medical_cost_batch(batch, p_mort_occ, bundle.val_params)
    if bundle.wi_sum_by_building.max(initial=0.0) > 0.0:
        c_build = repair_cost_trial(bundle.wi_sum_by_building, bundle.beta_wi,
                                    bundle.val_params,
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


# --- Monte-Carlo: the batch kernel with every rate sampled -------------------

def medical_cost_sampled(outcomes: OutcomeBatch, p_mort: np.ndarray,
                         params: ValuationParams) -> np.ndarray:
    """Medical bill of each at-risk occupant, USD, priced from the tables.

    Hospital recoveries bill their condition's insured or uninsured range at
    the severity ratio p_mort / ceiling (clipped to 1); home recoveries bill
    a fraction of the insured minimum; deaths bill nothing.
    """
    lo, hi = (np.array([[table[c.value][end] for c in CONDITIONS]
                        for table in (params.medical_uninsured_usd, params.medical_insured_usd)])
              for end in (0, 1))
    severity = np.clip(np.asarray(p_mort, dtype=float) / params.severity_ceiling, 0.0, 1.0)
    insured, condition = outcomes.insured.astype(np.intp), outcomes.condition
    low = lo[insured, condition]
    hospital = low + (hi[insured, condition] - low) * severity
    home = params.home_care_fraction * lo[1, condition]
    return np.where(outcomes.status == STATUS_HOSPITAL, hospital,
                    np.where(outcomes.status == STATUS_HOME, home, 0.0))


def repair_cost_sampled(wi_sum_by_building, beta_wi: float, params: ValuationParams,
                        home_insurance, rng: np.random.Generator,
                        n_trials: int) -> np.ndarray:
    """Freeze-damage repair cost over buildings, one value per trial: each
    damaged building draws a home-insurance rate and a uniform below it."""
    wi = np.asarray(wi_sum_by_building, dtype=float)
    ratio = np.clip(wi[wi > 0.0] / beta_wi, 0.0, 1.0)
    trial, building = bernoulli_cells(rng.random((n_trials, len(ratio))), ratio)
    insured = rng.random(trial.size) < sample_truncated_normal(
        home_insurance, rng, trial.size) / 100.0
    ratio = ratio[building]
    ins_lo, ins_hi = params.pipe_repair_insured_usd
    unins_lo, unins_hi = params.pipe_repair_uninsured_usd
    cost = np.where(insured, ins_lo + (ins_hi - ins_lo) * ratio,
                    unins_lo + (unins_hi - unins_lo) * ratio)
    return np.bincount(trial, weights=cost, minlength=n_trials)


def run_batch_sampled(bundle: ScenarioBundle, batch_index: int, master_seed: int) -> np.ndarray:
    """`valuation.run_batch` with every rate of the outcome tree and every
    home-insurance rate sampled: the same at-risk cells, then
    `resolve_at_risk_sampled`, `medical_cost_sampled` and
    `repair_cost_sampled`. Rows in `TRIAL_COLUMNS` order."""
    rng = batch_rng(master_seed, batch_index)
    cell_trial, building, counts = draw_at_risk(
        rng, bundle.occupants_by_building, bundle.p_mort_by_building, bundle.at_risk_chance,
        MC_BATCH)
    trial = np.repeat(cell_trial, counts)
    outcomes = resolve_at_risk_sampled(trial.size, bundle.hazard_cfg, rng)
    medical = medical_cost_sampled(
        outcomes, np.repeat(bundle.p_mort_by_building[building], counts), bundle.val_params)
    n_death = np.bincount(trial[outcomes.status == STATUS_DEATH], minlength=MC_BATCH)
    return np.column_stack((
        n_death * bundle.val_params.vsl_usd,
        np.bincount(trial, weights=medical, minlength=MC_BATCH),
        np.full(MC_BATCH, bundle.c_prod),
        repair_cost_sampled(bundle.wi_sum_by_building, bundle.beta_wi, bundle.val_params,
                            bundle.hazard_cfg.distributions_pct.home_insurance, rng, MC_BATCH),
        np.full(MC_BATCH, bundle.c_cic),
        n_death,
        np.bincount(trial, minlength=MC_BATCH) - n_death,
    ))
