"""The four outage scenarios: their parameters and their power schedules.

Scenarios: `base` (full service), `co` (controlled outage: selected circuits
switched off for the whole window), `ro-di` / `ro-hi` (rolling outages over
consumption-ranked residential groups, with damaged or hardened feeder
infrastructure). Fault damage isolates a seeded fraction of customers for
the entire window; hardened infrastructure (`ro-hi`) has no faults.

A scenario serves a handful of distinct power rows, so a schedule is one
group per building and one row per group.
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

    shed_ids: tuple[int, ...] | None = None
    shed_fraction: float = within(0, 1, default=0.0)
    shed_scope: ShedScope = ShedScope.RESIDENTIAL
    fault_fraction: float = within(0, below=1, default=0.0)

    def __post_init__(self):
        super().__post_init__()
        if self.shed_ids is not None:  # the seeded choice is not made
            _reset(self, "shed_fraction", "shed_scope")


# Upper bound of `n_groups`: the schedule holds a groups x steps table and
# a slots x groups rotation, 92 MB at the bound for 1,152 one-step slots.
MAX_GROUPS = 10_000


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
        """Steps per slot and the available share of each slot of a window
        of `n_steps` steps. A slot longer than the window is the window."""
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


SCENARIO_PARAMS = {"base": BaseParams, "co": ControlledOutageParams,
                   "ro-di": RollingOutageParams, "ro-hi": HardenedRollingParams}


@dataclass(frozen=True)
class PowerScheduleSet:
    """Power availability of every building at every step: building i is
    powered at step t when `on[group[i], t]`. `group` holds one group per
    building in population order, `on` one row of steps per group; both are
    read-only."""

    dt_s: float
    group: np.ndarray = field(repr=False)
    on: np.ndarray = field(repr=False)
    isolated_ids: frozenset[int] = frozenset()

    def __post_init__(self):
        self.group.flags.writeable = False
        self.on.flags.writeable = False

    @property
    def n_steps(self) -> int:
        return self.on.shape[1]

    def powered(self, rows=slice(None)) -> np.ndarray:
        """The (buildings x steps) power matrix of the buildings `rows`."""
        return self.on[self.group[rows]]

    def powered_by_step(self, rows=slice(None)) -> np.ndarray:
        """The same matrix transposed, (steps x buildings) and C-contiguous:
        the layout in which the thermal relay reads it a step at a time."""
        return np.take(self.on.T, self.group[rows], axis=1)

    def unpowered_hours(self) -> np.ndarray:
        """Unpowered hours of every building, in population order."""
        return (self.n_steps - self.on.sum(axis=1))[self.group] * self.dt_s / 3600.0


def build_base_schedule(pop: Population, n_steps: int, dt_s: float, params: BaseParams,
                        seed: int) -> PowerScheduleSet:
    """Normal operation: every building powered for the whole window."""
    return PowerScheduleSet(dt_s, np.zeros(len(pop), dtype=np.intp),
                            np.ones((1, n_steps), dtype=bool))


def select_isolated(pop: Population, fault_fraction: float, seed: int) -> frozenset[int]:
    """Seeded uniform choice of customers stranded behind damaged equipment."""
    n_pick = int(round(fault_fraction * len(pop)))
    if n_pick == 0:
        return frozenset()
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x150)))
    return frozenset(rng.choice(np.sort(pop.id), size=n_pick, replace=False).tolist())


def build_controlled_outage(pop: Population, n_steps: int, dt_s: float,
                            params: ControlledOutageParams, seed: int) -> PowerScheduleSet:
    """Switch off the shed set (plus fault-isolated customers) for the window:
    group 0 is lit, group 1 dark. Without `shed_ids`, the shed set is a
    seeded `shed_fraction` of the `shed_scope` buildings."""
    if params.shed_ids is None:
        candidates = np.sort(pop.id if params.shed_scope is ShedScope.ALL
                             else pop.id[pop.sector == code(Sector.RESIDENTIAL)])
        n_shed = int(round(params.shed_fraction * len(candidates)))
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5348)))
        shed = rng.choice(candidates, size=n_shed, replace=False)
    else:
        shed = np.array(params.shed_ids, dtype=np.int64)
    unknown = sorted(set(shed[~np.isin(shed, pop.id)].tolist()))
    if unknown:
        raise ConfigurationError(f"contains unknown building ids: {unknown[:5]}", "shed_ids")
    isolated = select_isolated(pop, params.fault_fraction, seed)
    dark = np.isin(pop.id, shed) | np.isin(pop.id, list(isolated))
    on = np.array([[True], [False]]).repeat(n_steps, axis=1)
    return PowerScheduleSet(dt_s, dark.astype(np.intp), on, isolated)


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


def build_rolling_outage(pop: Population, n_steps: int, dt_s: float,
                         params: RollingOutageParams, seed: int) -> PowerScheduleSet:
    """Rotate service across residential consumption tiers slot by slot.

    Per slot, k = floor(availability * n_groups) tiers are served, the served
    window rotating round-robin so curtailment falls evenly. Groups
    0..n_groups-1 are the tiers; commercial and industrial customers stay
    powered in group n_groups. Fault-isolated customers get no service at
    all, in group n_groups + 1.
    """
    n_groups = params.n_groups
    per_slot, fractions = params.slots(n_steps, dt_s)
    isolated = select_isolated(pop, params.fault_fraction, seed)

    # Tier g is served in slot s when it lies in the k-wide window that
    # starts at tier s mod n_groups and wraps.
    k = np.minimum(np.floor(fractions * n_groups), n_groups)
    offset = (np.arange(n_groups) - np.arange(len(k))[:, None]) % n_groups
    step_slot = np.minimum(np.arange(n_steps) // per_slot, len(k) - 1)
    on = np.vstack([(offset < k[:, None])[step_slot].T,
                    np.ones(n_steps, dtype=bool), np.zeros(n_steps, dtype=bool)])

    tier = assign_rolling_groups(pop, n_groups)
    group = np.where(tier < 0, n_groups, tier)
    group[np.isin(pop.id, list(isolated))] = n_groups + 1
    return PowerScheduleSet(dt_s, group, on, isolated)
