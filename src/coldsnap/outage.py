"""Power-availability schedules for the four outage scenarios, one
buildings x steps matrix per scenario.

Scenarios: `base` (full service), `co` (controlled outage: selected circuits
switched off for the whole window), `ro-di` / `ro-hi` (rolling outages over
consumption-ranked residential groups, with damaged or hardened feeder
infrastructure). Fault damage isolates a seeded fraction of customers for
the entire window unless the infrastructure is hardened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum

import numpy as np

from .errors import ConfigurationError
from .population import Population, Sector, code


class Scenario(str, Enum):
    BASE = "base"
    CO = "co"
    RO_DI = "ro-di"
    RO_HI = "ro-hi"


@dataclass(frozen=True)
class AvailabilitySeries:
    """Fraction of supply available per scheduling slot (default 1 h slots)."""

    fractions: tuple[float, ...]
    slot_s: float = 3600.0

    def __post_init__(self):
        if self.slot_s <= 0:
            raise ConfigurationError("slot length must be positive")
        if any(not 0.0 <= f <= 1.0 for f in self.fractions):
            raise ConfigurationError("availability fractions must lie in [0, 1]")

    @classmethod
    def constant(cls, fraction: float, n_slots: int, slot_s: float = 3600.0):
        return cls(fractions=tuple([float(fraction)] * n_slots), slot_s=slot_s)


@dataclass(frozen=True)
class PowerScheduleSet:
    """Power availability of every building at every step: `powered` is a
    read-only (buildings x steps) boolean matrix in population order."""

    scenario: Scenario
    window_start: datetime
    window_end: datetime
    dt_s: float
    powered: np.ndarray = field(repr=False)
    isolated_ids: frozenset[int] = frozenset()

    def __post_init__(self):
        self.powered.flags.writeable = False

    @property
    def n_steps(self) -> int:
        return self.powered.shape[1]

    def unpowered_hours(self) -> np.ndarray:
        """Unpowered hours of every building, in population order."""
        return (self.n_steps - self.powered.sum(axis=1)) * self.dt_s / 3600.0


def _window_steps(start: datetime, end: datetime, dt_s: float) -> int:
    span = (end - start).total_seconds()
    if dt_s <= 0:
        raise ConfigurationError("dt must be positive")
    steps = span / dt_s
    if steps < 1:
        raise ConfigurationError("window must contain at least 1 step")
    if abs(steps - round(steps)) > 1e-9:
        raise ConfigurationError("window length must be a multiple of dt")
    return int(round(steps))


def build_base_schedule(pop: Population, start: datetime, end: datetime,
                        dt_s: float) -> PowerScheduleSet:
    """Normal operation: every building powered for the whole window."""
    n = _window_steps(start, end, dt_s)
    powered = np.ones((len(pop), n), dtype=bool)
    return PowerScheduleSet(Scenario.BASE, start, end, dt_s, powered, frozenset())


def select_isolated(pop: Population, fault_fraction: float, seed: int) -> frozenset[int]:
    """Seeded uniform choice of customers stranded behind damaged equipment."""
    if not 0.0 <= fault_fraction < 1.0:
        raise ConfigurationError(f"fault fraction must be in [0, 1), got {fault_fraction}")
    n_pick = int(round(fault_fraction * len(pop)))
    if n_pick == 0:
        return frozenset()
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x150)))
    return frozenset(rng.choice(np.sort(pop.id), size=n_pick, replace=False).tolist())


def build_controlled_outage(pop: Population, start: datetime, end: datetime, dt_s: float,
                            shed_ids, fault_fraction: float, seed: int) -> PowerScheduleSet:
    """Switch off the shed set (plus fault-isolated customers) for the window."""
    shed = np.array([int(i) for i in shed_ids], dtype=np.int64)
    unknown = sorted(set(shed[~np.isin(shed, pop.id)].tolist()))
    if unknown:
        raise ConfigurationError(f"shed set contains unknown building ids: {unknown[:5]}")
    isolated = select_isolated(pop, fault_fraction, seed)
    n = _window_steps(start, end, dt_s)
    lit = ~(np.isin(pop.id, shed) | np.isin(pop.id, list(isolated)))
    powered = np.repeat(lit[:, None], n, axis=1)
    return PowerScheduleSet(Scenario.CO, start, end, dt_s, powered, isolated)


def assign_rolling_groups(pop: Population, n_groups: int) -> np.ndarray:
    """Partition residential buildings into consumption tiers of near-equal
    size: each building's tier, -1 for the non-residential.

    Tier 0 holds the heaviest consumers; ties break on ascending id so the
    grouping is reproducible.
    """
    if n_groups < 2:
        raise ConfigurationError(f"need at least 2 rolling groups, got {n_groups}")
    residential = np.flatnonzero(pop.sector == code(Sector.RESIDENTIAL))
    ranked = residential[np.lexsort((pop.id[residential], -pop.avg_annual_kwh[residential]))]
    size = len(ranked) / n_groups
    tier = np.full(len(pop), -1)
    tier[ranked] = np.minimum((np.arange(len(ranked)) / size).astype(np.int64), n_groups - 1)
    return tier


def build_rolling_outage(pop: Population, start: datetime, end: datetime, dt_s: float,
                         n_groups: int, availability: AvailabilitySeries,
                         hardened: bool, fault_fraction: float, seed: int) -> PowerScheduleSet:
    """Rotate service across residential consumption tiers slot by slot.

    Per slot, k = floor(availability * n_groups) tiers are served, the served
    window rotating round-robin so curtailment falls evenly. Commercial and
    industrial customers stay powered. Without hardening, fault-isolated
    customers get no service at all.
    """
    n = _window_steps(start, end, dt_s)
    slot_s = availability.slot_s
    per_slot = slot_s / dt_s
    if abs(per_slot - round(per_slot)) > 1e-9 or per_slot < 1:
        raise ConfigurationError("slot length must be a positive multiple of dt")
    per_slot = int(round(per_slot))
    n_slots = -(-n // per_slot)  # ceil
    if len(availability.fractions) < n_slots:
        raise ConfigurationError(
            f"availability has {len(availability.fractions)} slots, window needs {n_slots}"
        )

    tier = assign_rolling_groups(pop, n_groups)
    isolated = frozenset() if hardened else select_isolated(pop, fault_fraction, seed)

    # Tier g is served in slot s when it lies in the k-wide window that
    # starts at tier s mod n_groups and wraps.
    k = np.minimum(np.floor(np.asarray(availability.fractions[:n_slots]) * n_groups), n_groups)
    offset = (np.arange(n_groups) - np.arange(n_slots)[:, None]) % n_groups
    group_on = offset < k[:, None]

    step_slot = np.minimum(np.arange(n) // per_slot, n_slots - 1)
    powered = np.ones((len(pop), n), dtype=bool)
    for g in range(n_groups):
        powered[tier == g] = group_on[step_slot, g]
    powered[np.isin(pop.id, list(isolated))] = False
    scenario = Scenario.RO_HI if hardened else Scenario.RO_DI
    return PowerScheduleSet(scenario, start, end, dt_s, powered, isolated)
