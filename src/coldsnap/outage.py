"""The four outage scenarios: their parameters and their power schedules.

Scenarios: `base` (full service), `co` (controlled outage: selected circuits
switched off for the whole window), `ro-di` / `ro-hi` (rolling outages over
consumption-ranked residential groups, with damaged or hardened feeder
infrastructure). Fault damage isolates a seeded fraction of customers for
the entire window; hardened infrastructure (`ro-hi`) has no faults.

A scenario serves a handful of distinct power rows, so a schedule is one
row index per building and one row of steps per index, in one layout for
every scenario: lit, shed, isolated, then the rolling tiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .codec import Bounded, within
from .errors import ConfigurationError
from .population import Population, Sector, code


class Scenario(str, Enum):
    BASE = "base"
    CO = "co"
    RO_DI = "ro-di"
    RO_HI = "ro-hi"


@dataclass(frozen=True)
class BaseParams:
    """`scenarios.base`: full service takes no parameters."""


def _reset(params, *names: str) -> None:
    """Set unused fields of frozen `params` to their defaults: equal runs hash alike."""
    for f in fields(params):
        if f.name in names:
            object.__setattr__(params, f.name, f.default)


class ShedScope(str, Enum):
    RESIDENTIAL = "residential"
    ALL = "all"


@dataclass(frozen=True)
class ControlledOutageParams(Bounded):
    """`scenarios.co`: the shed set, by id or as a seeded fraction."""

    shed_ids: tuple[int, ...] | None = within(-2**63, 2**63 - 1, default=None)
    shed_fraction: float = within(0, 1, default=0.0)
    shed_scope: ShedScope = ShedScope.RESIDENTIAL
    fault_fraction: float = within(0, below=1, default=0.0)

    def __post_init__(self):
        super().__post_init__()
        if self.shed_ids is not None:  # the seeded choice is not made
            _reset(self, "shed_fraction", "shed_scope")


# Upper bound of `n_groups`: the schedule holds a groups x steps table of
# one byte a cell, 12 MB at the bound for 1,152 steps.
MAX_GROUPS = 10_000
# Upper bound of `n_groups` x steps, the tier table's cells: the table keeps
# 17 MB at the bound, and building it, a row at a time, peaks at 17 MB by
# tracemalloc. A 1,152-step window still allows more than `MAX_GROUPS` groups.
MAX_TIER_CELLS = 1 << 24


@dataclass(frozen=True)
class RollingOutageParams(Bounded):
    """`scenarios.ro-di`: rotation over residential groups, behind damaged feeders."""

    n_groups: int = within(2, MAX_GROUPS, default=3)
    slot_s: float = within(above=0, default=3600.0)
    availability: tuple[float, ...] | None = within(0, 1, default=None)  # None: the constant
    availability_constant: float = within(0, 1, default=1.0)
    fault_fraction: float = within(0, below=1, default=0.0)

    def __post_init__(self):
        super().__post_init__()
        if self.availability is not None:
            _reset(self, "availability_constant")

    def slots(self, n_steps: int, dt_s: float) -> tuple[int, np.ndarray]:
        """Steps per slot and each slot's available share over `n_steps` steps,
        which the tier table must fit. A slot longer than the window is the window."""
        if self.n_groups * n_steps > MAX_TIER_CELLS:
            raise ConfigurationError(f"must be at most {MAX_TIER_CELLS // n_steps:,} for "
                                     f"{n_steps:,} steps, got {self.n_groups:,}", "n_groups")
        per_slot = self.slot_s / dt_s
        if per_slot < 1 or (math.isfinite(per_slot) and abs(per_slot - round(per_slot)) > 1e-9):
            raise ConfigurationError(
                f"must be a positive multiple of dt_s ({dt_s}), got {self.slot_s}", "slot_s")
        per_slot = round(min(per_slot, n_steps))
        n_slots = -(-n_steps // per_slot)  # ceil
        if self.availability is None:
            return per_slot, np.full(n_slots, self.availability_constant)
        if len(self.availability) != n_slots:
            raise ConfigurationError(
                f"has {len(self.availability)} slots, window needs {n_slots}", "availability")
        return per_slot, np.asarray(self.availability)


@dataclass(frozen=True)
class HardenedRollingParams(RollingOutageParams):
    """`scenarios.ro-hi`: the rotation on hardened feeders, where no fault isolates anyone."""

    fault_fraction: float = within(0, 0, default=0.0)


SCENARIO_PARAMS = {Scenario.BASE: BaseParams, Scenario.CO: ControlledOutageParams,
                   Scenario.RO_DI: RollingOutageParams, Scenario.RO_HI: HardenedRollingParams}

# The rows of every schedule: LIT is lit throughout, DARK (shed) and
# ISOLATED (fault-isolated) are dark throughout, and rolling tier g is row
# TIERS + g.
LIT, DARK, ISOLATED, TIERS = range(4)


@dataclass(frozen=True)
class PowerScheduleSet:
    """Power availability of every building at every step: building i is
    powered at step t when `on[group[i], t]`. `group` holds one row of `on`
    per building in population order, `on` the rows `LIT`, `DARK`,
    `ISOLATED` and then one per rolling tier; both are read-only."""

    dt_s: float
    group: np.ndarray = field(repr=False)
    on: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.group.flags.writeable = False
        self.on.flags.writeable = False

    def unpowered_hours(self) -> np.ndarray:
        """Unpowered hours of every building, in population order."""
        return (self.on.shape[1] - self.on.sum(axis=1))[self.group] * self.dt_s / 3600.0


def draw_subset(pop: Population, candidates: np.ndarray, fraction: float, seed: int,
                stream: int) -> np.ndarray:
    """A seeded uniform choice of round(`fraction` x count) of the buildings in
    the `candidates` mask, as a mask. The draw is made among the candidates
    in id order, so it picks the same ids whatever the row order."""
    rows = np.flatnonzero(candidates)
    rows = rows[np.argsort(pop.id[rows])]
    chosen = np.zeros(len(pop), dtype=bool)
    n_pick = int(round(fraction * len(rows)))
    if n_pick:
        rng = np.random.default_rng(np.random.SeedSequence((seed, stream)))
        chosen[rows[rng.choice(len(rows), size=n_pick, replace=False)]] = True
    return chosen


def shed_set(pop: Population, params: ControlledOutageParams, seed: int) -> np.ndarray:
    """The mask of the buildings `co` switches off: its `shed_ids`, or else a
    seeded `shed_fraction` of the `shed_scope` buildings."""
    if params.shed_ids is None:
        scope = (np.ones(len(pop), dtype=bool) if params.shed_scope is ShedScope.ALL
                 else pop.sector == code(Sector.RESIDENTIAL))
        return draw_subset(pop, scope, params.shed_fraction, seed, 0x5348)
    shed = np.array(params.shed_ids, dtype=np.int64)
    unknown = sorted(set(shed[~np.isin(shed, pop.id)].tolist()))
    if unknown:
        raise ConfigurationError(f"contains unknown building ids: {unknown[:5]}", "shed_ids")
    return np.isin(pop.id, shed)


def assign_rolling_groups(pop: Population, n_groups: int) -> np.ndarray:
    """Partition residential buildings into consumption tiers of near-equal
    size: each building's tier, -1 for the non-residential.

    Tier 0 holds the heaviest consumers; ties break on ascending id so the
    grouping is reproducible.
    """
    residential = np.flatnonzero(pop.sector == code(Sector.RESIDENTIAL))
    ranked = residential[np.lexsort((pop.id[residential], -pop.avg_annual_kwh[residential]))]
    size = len(ranked) / n_groups
    tier = np.full(len(pop), -1)
    tier[ranked] = np.minimum((np.arange(len(ranked)) / size).astype(np.int64), n_groups - 1)
    return tier


def build_schedule(pop: Population, n_steps: int, dt_s: float, params, seed: int
                   ) -> PowerScheduleSet:
    """The power schedule of a scenario, over one row layout. `base` lights
    everyone; `co` puts its shed set in `DARK`; a rolling outage puts
    residential tier g in `TIERS + g` and leaves the other buildings lit.
    Every scenario but `base` then puts a seeded `fault_fraction` of all
    buildings, stranded behind damaged equipment, in `ISOLATED`.

    Per slot of a rolling outage, k = floor(availability * n_groups) tiers
    are served, the served window rotating round-robin so curtailment falls
    evenly: tier g is served in slot s when it lies in the k-wide window
    that starts at tier s mod n_groups and wraps.
    """
    group = np.full(len(pop), LIT)
    on = np.zeros((TIERS, n_steps), dtype=bool)
    if isinstance(params, ControlledOutageParams):
        group[shed_set(pop, params, seed)] = DARK
    elif isinstance(params, RollingOutageParams):
        n_groups = params.n_groups
        per_slot, fractions = params.slots(n_steps, dt_s)
        slot = np.arange(n_steps) // per_slot
        served = np.minimum(np.floor(fractions * n_groups), n_groups)[slot]  # k at each step
        on = np.zeros((TIERS + n_groups, n_steps), dtype=bool)
        for g in range(n_groups):  # a row at a time: no groups x steps temporary
            on[TIERS + g] = (g - slot) % n_groups < served
        tier = assign_rolling_groups(pop, n_groups)
        group = np.where(tier < 0, LIT, TIERS + tier)
    if not isinstance(params, BaseParams):
        everyone = np.ones(len(pop), dtype=bool)
        group[draw_subset(pop, everyone, params.fault_fraction, seed, 0x150)] = ISOLATED
    on[LIT] = True
    return PowerScheduleSet(dt_s, group, on)
