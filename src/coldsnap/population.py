"""Building stock synthesis, persistence, and validation.

Buildings carry all attributes the thermal, outage, hazard, and valuation
stages consume. A population is immutable after construction and safe to
share across parallel trial workers.
"""

from __future__ import annotations

import csv
import operator
import typing
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from . import defaults
from .errors import ConfigurationError, IngestionError


class BuildingKind(str, Enum):
    SINGLE_FAMILY = "single_family"
    MULTI_FAMILY = "multi_family"
    MOBILE_HOME = "mobile_home"
    OFFICE = "office"
    WAREHOUSE_STORAGE = "warehouse_storage"
    BIG_BOX = "big_box"
    STRIP_MALL = "strip_mall"
    EDUCATION = "education"
    FOOD_SERVICE = "food_service"
    FOOD_SALES = "food_sales"
    LODGING = "lodging"
    HEALTHCARE = "healthcare"
    LOW_OCCUPANCY = "low_occupancy"


class Sector(str, Enum):
    RESIDENTIAL = "residential"
    SMALL_CI = "small_ci"
    MEDIUM_CI = "medium_ci"
    LARGE_CI = "large_ci"


# Total, fixed kind -> sector mapping. C&I size classes are a configuration
# convention; residential membership is structural.
SECTOR_BY_KIND = {
    BuildingKind.SINGLE_FAMILY: Sector.RESIDENTIAL,
    BuildingKind.MULTI_FAMILY: Sector.RESIDENTIAL,
    BuildingKind.MOBILE_HOME: Sector.RESIDENTIAL,
    BuildingKind.OFFICE: Sector.MEDIUM_CI,
    BuildingKind.WAREHOUSE_STORAGE: Sector.LARGE_CI,
    BuildingKind.BIG_BOX: Sector.LARGE_CI,
    BuildingKind.STRIP_MALL: Sector.SMALL_CI,
    BuildingKind.EDUCATION: Sector.MEDIUM_CI,
    BuildingKind.FOOD_SERVICE: Sector.SMALL_CI,
    BuildingKind.FOOD_SALES: Sector.SMALL_CI,
    BuildingKind.LODGING: Sector.SMALL_CI,
    BuildingKind.HEALTHCARE: Sector.MEDIUM_CI,
    BuildingKind.LOW_OCCUPANCY: Sector.SMALL_CI,
}


class Insulation(str, Enum):
    LITTLE = "little"
    POOR = "poor"
    BELOW_AVERAGE = "below_average"
    AVERAGE = "average"
    ABOVE_AVERAGE = "above_average"
    GOOD = "good"
    VERY_GOOD = "very_good"


# Worst to best; used for ordered reporting.
INSULATION_ORDER = (
    Insulation.LITTLE,
    Insulation.POOR,
    Insulation.BELOW_AVERAGE,
    Insulation.AVERAGE,
    Insulation.ABOVE_AVERAGE,
    Insulation.GOOD,
    Insulation.VERY_GOOD,
)


class HeatingFuel(str, Enum):
    ELECTRIC = "electric"
    GAS_ELECTRIC_BLOWER = "gas_electric_blower"


@dataclass(frozen=True)
class Building:
    """One customer premise with envelope, HVAC, and occupancy attributes."""

    id: int
    kind: BuildingKind
    insulation: Insulation
    heating_fuel: HeatingFuel
    floor_area_m2: float
    ua_w_per_k: float          # envelope conductance
    thermal_mass_j_per_k: float
    hvac_heat_w: float         # rated heat output when running
    setpoint_c: float
    deadband_c: float
    n_occupants: int
    n_workers: int
    job_requires_power: bool
    avg_annual_kwh: float
    income_bracket: str = "median"
    backup: bool = False

    @property
    def sector(self) -> Sector:
        return SECTOR_BY_KIND[self.kind]

    @property
    def hvac_electric_kw(self) -> float:
        """Electric draw while heating: full draw for electric heat, blower only for gas."""
        if self.heating_fuel is HeatingFuel.ELECTRIC:
            return self.hvac_heat_w / 1000.0
        return defaults.GAS_BLOWER_KW


@dataclass(frozen=True)
class Population:
    buildings: tuple[Building, ...]
    total_occupants: int
    seed_used: int

    def __post_init__(self):
        object.__setattr__(self, "buildings", tuple(self.buildings))

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buildings)

    def residential(self) -> list[Building]:
        return [b for b in self.buildings if b.sector is Sector.RESIDENTIAL]


@dataclass(frozen=True)
class InsulationRow:
    """Envelope of one insulation class per floor area: UA (W/K.m2) and
    lumped thermal mass (J/K.m2)."""

    ua_w_per_k_m2: float
    mass_j_per_k_m2: float


@dataclass(frozen=True)
class Profile:
    """Synthesis ranges (lo, hi) of one building kind: floor area (m2) and
    annual consumption (kWh/yr)."""

    floor_m2: tuple[float, float]
    kwh: tuple[float, float]

    def __post_init__(self):
        for f in fields(self):
            lo, hi = getattr(self, f.name)
            if lo > hi:
                raise ConfigurationError(f"{f.name} range [{lo}, {hi}] is inverted")


@dataclass(frozen=True)
class CommercialProfile(Profile):
    """A commercial kind's ranges, with the worker count."""

    workers: tuple[int, int]


@dataclass
class PopulationSpec:
    """Knobs for synthesizing a building stock."""

    counts: dict[BuildingKind, int]
    insulation_weights: dict[Insulation, float] = field(
        default_factory=lambda: {Insulation(k): v for k, v in defaults.INSULATION_WEIGHTS.items()}
    )
    occupant_weights: dict[int, float] = field(
        default_factory=lambda: dict(defaults.OCCUPANT_COUNT_WEIGHTS)
    )
    wfh_share: float = defaults.WFH_SHARE
    electric_heat_share: float = defaults.ELECTRIC_HEAT_SHARE
    power_required_share_residential: float = defaults.POWER_REQUIRED_SHARE_RESIDENTIAL
    power_required_share_commercial: float = defaults.POWER_REQUIRED_SHARE_COMMERCIAL
    commercial_backup_share: float = defaults.COMMERCIAL_BACKUP_SHARE
    setpoint_c: float = defaults.THERMOSTAT_SETPOINT_C
    deadband_c: float = defaults.THERMOSTAT_DEADBAND_C
    hvac_design_outdoor_c: float = defaults.HVAC_DESIGN_OUTDOOR_C
    hvac_oversize: float = defaults.HVAC_OVERSIZE_FACTOR
    insulation_table: dict[Insulation, InsulationRow] = field(default_factory=lambda: {
        Insulation(k): InsulationRow(**v) for k, v in defaults.INSULATION_TABLE.items()})
    residential_profiles: dict[BuildingKind, Profile] = field(default_factory=lambda: {
        BuildingKind(k): Profile(**v) for k, v in defaults.RESIDENTIAL_PROFILES.items()})
    commercial_profiles: dict[BuildingKind, CommercialProfile] = field(default_factory=lambda: {
        BuildingKind(k): CommercialProfile(**v) for k, v in defaults.COMMERCIAL_PROFILES.items()})

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not self.counts or sum(self.counts.values()) == 0:
            raise ConfigurationError("population spec has zero buildings")
        if any(c < 0 for c in self.counts.values()):
            raise ConfigurationError("negative building count")
        w = sum(self.insulation_weights.values())
        if abs(w - 1.0) > 1e-9:
            raise ConfigurationError(f"insulation weights sum to {w!r}, expected 1.0")
        ow = sum(self.occupant_weights.values())
        if abs(ow - 1.0) > 1e-9:
            raise ConfigurationError(f"occupant weights sum to {ow!r}, expected 1.0")
        if any(v < 0 for v in self.insulation_weights.values()):
            raise ConfigurationError("negative insulation weight")
        if any(v < 0 for v in self.occupant_weights.values()):
            raise ConfigurationError("negative occupant weight")
        for name in ("wfh_share", "electric_heat_share", "power_required_share_residential",
                     "power_required_share_commercial", "commercial_backup_share"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        for ins, weight in self.insulation_weights.items():
            if weight > 0 and ins not in self.insulation_table:
                raise ConfigurationError(f"insulation_table has no row for {ins.value!r}, "
                                         "which has a positive weight")
        for name, residential in (("residential_profiles", True),
                                  ("commercial_profiles", False)):
            for kind in getattr(self, name):
                if (SECTOR_BY_KIND[kind] is Sector.RESIDENTIAL) != residential:
                    raise ConfigurationError(
                        f"{kind.value!r} is not a {name.split('_')[0]} kind",
                        key=f"{name}.{kind.value}")
        for kind, count in self.counts.items():
            name = ("residential_profiles" if SECTOR_BY_KIND[kind] is Sector.RESIDENTIAL
                    else "commercial_profiles")
            if count > 0 and kind not in getattr(self, name):
                raise ConfigurationError(f"{name} has no row for {kind.value!r}, "
                                         "which has a positive count")


def synthesize_population(spec: PopulationSpec, seed: int) -> Population:
    """Deterministically synthesize a building stock from a spec and seed."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x706F70)))

    ins_classes = list(INSULATION_ORDER)
    ins_p = np.array([spec.insulation_weights.get(c, 0.0) for c in ins_classes], dtype=float)
    occ_sizes = np.array(sorted(spec.occupant_weights), dtype=int)
    occ_p = np.array([spec.occupant_weights[s] for s in sorted(spec.occupant_weights)], dtype=float)

    buildings: list[Building] = []
    next_id = 0
    total_occupants = 0
    for kind in BuildingKind:
        count = int(spec.counts.get(kind, 0))
        if count == 0:
            continue
        residential = SECTOR_BY_KIND[kind] is Sector.RESIDENTIAL
        profile = (spec.residential_profiles if residential else spec.commercial_profiles)[kind]

        ins_idx = rng.choice(len(ins_classes), size=count, p=ins_p)
        floor = rng.uniform(*profile.floor_m2, size=count)
        kwh = rng.uniform(*profile.kwh, size=count)
        electric = rng.random(count) < spec.electric_heat_share
        if residential:
            occupants = rng.choice(occ_sizes, size=count, p=occ_p)
            workers = rng.binomial(occupants, spec.wfh_share)
            needs_power = rng.random(count) < spec.power_required_share_residential
            backup = np.zeros(count, dtype=bool)
        else:
            lo, hi = profile.workers
            workers = rng.integers(lo, hi + 1, size=count)
            occupants = workers.copy()
            needs_power = rng.random(count) < spec.power_required_share_commercial
            backup = rng.random(count) < spec.commercial_backup_share

        for i in range(count):
            ins = ins_classes[int(ins_idx[i])]
            row = spec.insulation_table[ins]
            ua = row.ua_w_per_k_m2 * float(floor[i])
            mass = row.mass_j_per_k_m2 * float(floor[i])
            hvac_w = ua * (spec.setpoint_c - spec.hvac_design_outdoor_c) * spec.hvac_oversize
            buildings.append(Building(
                id=next_id,
                kind=kind,
                insulation=ins,
                heating_fuel=HeatingFuel.ELECTRIC if electric[i] else HeatingFuel.GAS_ELECTRIC_BLOWER,
                floor_area_m2=float(floor[i]),
                ua_w_per_k=ua,
                thermal_mass_j_per_k=mass,
                hvac_heat_w=hvac_w,
                setpoint_c=spec.setpoint_c,
                deadband_c=spec.deadband_c,
                n_occupants=int(occupants[i]),
                n_workers=int(workers[i]),
                job_requires_power=bool(needs_power[i]),
                avg_annual_kwh=float(kwh[i]),
                income_bracket="median" if residential else "",
                backup=bool(backup[i]),
            ))
            total_occupants += int(occupants[i])
            next_id += 1

    return Population(buildings=tuple(buildings), total_occupants=total_occupants, seed_used=int(seed))


_FIELD_TYPES = typing.get_type_hints(Building)
# One column per Building field, in field order.
CSV_COLUMNS = list(_FIELD_TYPES)


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(f"expected true/false, got {raw!r}")
    return raw == "true"


def _formatter(tp):
    """Cell text of a field's values, or None where csv writes them as they
    are; floats use repr so reload is bit-exact."""
    if tp is bool:
        return lambda value: "true" if value else "false"
    if tp is float:
        return repr
    if issubclass(tp, Enum):
        return operator.attrgetter("value")
    return None


_PARSERS = {col: _parse_bool if tp is bool else tp for col, tp in _FIELD_TYPES.items()}
_FORMATTERS = [(col, _formatter(tp)) for col, tp in _FIELD_TYPES.items()]


def write_population_csv(handle, pop: Population) -> None:
    """Write one building per row, one column per field."""
    writer = csv.writer(handle)
    writer.writerow(CSV_COLUMNS)
    for b in pop.buildings:
        writer.writerow([getattr(b, col) if fmt is None else fmt(getattr(b, col))
                         for col, fmt in _FORMATTERS])


def save_population(pop: Population, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        write_population_csv(handle, pop)


def load_population(path) -> Population:
    """Load a population CSV written by :func:`save_population`."""
    buildings: list[Building] = []
    seen_ids: set[int] = set()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise IngestionError(f"missing columns: {', '.join(missing)}", path=path)
        for row_no, row in enumerate(reader, start=2):
            values = {}
            for col, parse in _PARSERS.items():
                raw = row[col]
                try:
                    values[col] = parse(raw)
                except ValueError as exc:
                    raise IngestionError(
                        f"unparsable value {raw!r}: {exc}", path=path, row=row_no, column=col
                    ) from exc
            if values["id"] in seen_ids:
                raise IngestionError(
                    f"duplicate building id {values['id']}", path=path, row=row_no, column="id"
                )
            seen_ids.add(values["id"])
            buildings.append(Building(**values))
    if not buildings:
        raise IngestionError("zero buildings", path=path)
    total = sum(b.n_occupants for b in buildings)
    return Population(buildings=tuple(buildings), total_occupants=total, seed_used=-1)


@dataclass(frozen=True)
class Violation:
    building_id: int | None
    field: str
    message: str


def validate_population(pop: Population) -> list[Violation]:
    """Collect invariant violations; an empty list means the population is sound."""
    violations: list[Violation] = []
    seen: set[int] = set()
    occupants = 0
    for b in pop.buildings:
        if b.id in seen:
            violations.append(Violation(b.id, "id", "duplicate building id"))
        seen.add(b.id)
        occupants += b.n_occupants
        if not b.ua_w_per_k > 0:
            violations.append(Violation(b.id, "ua_w_per_k", f"must be > 0, got {b.ua_w_per_k}"))
        if not b.thermal_mass_j_per_k > 0:
            violations.append(Violation(b.id, "thermal_mass_j_per_k",
                                        f"must be > 0, got {b.thermal_mass_j_per_k}"))
        if not b.avg_annual_kwh > 0:
            violations.append(Violation(b.id, "avg_annual_kwh",
                                        f"must be > 0, got {b.avg_annual_kwh}"))
        if b.floor_area_m2 <= 0:
            violations.append(Violation(b.id, "floor_area_m2",
                                        f"must be > 0, got {b.floor_area_m2}"))
        if b.hvac_heat_w < 0:
            violations.append(Violation(b.id, "hvac_heat_w", "must be >= 0"))
        if b.deadband_c <= 0:
            violations.append(Violation(b.id, "deadband_c", "must be > 0"))
        if b.n_occupants < 0:
            violations.append(Violation(b.id, "n_occupants", "must be >= 0"))
        if b.n_workers < 0:
            violations.append(Violation(b.id, "n_workers", "must be >= 0"))
    if pop.total_occupants != occupants:
        violations.append(Violation(None, "total_occupants",
                                    f"recorded {pop.total_occupants}, actual {occupants}"))
    return violations
