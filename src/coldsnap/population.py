"""Building stock synthesis and persistence.

Buildings carry all attributes the thermal, outage, hazard, and valuation
stages consume. A population holds them as one numpy column per `Building`
field; `Building` rows appear only on request. A population is
immutable after construction and safe to share across parallel trial
workers.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .codec import Bound, Bounded, within
from .errors import ConfigurationError, IngestionError
from .tables import cell_parser, csv_blocks, labels, read_csv, save_csv, write_csv


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


# Worst to best, the declaration order; used for ordered reporting.
INSULATION_ORDER = tuple(Insulation)


class HeatingFuel(str, Enum):
    ELECTRIC = "electric"
    GAS_ELECTRIC_BLOWER = "gas_electric_blower"


# Electric draw of a gas furnace's air handler while heating, kW.
GAS_BLOWER_KW = 0.5


@dataclass(frozen=True)
class Building:
    """One customer premise with envelope, HVAC, and occupancy attributes. A
    `within` bound is its column's valid range: `load_population` checks each
    cell against it, and a `PopulationSpec`'s bounds keep synthesis inside it."""

    id: int
    kind: BuildingKind
    insulation: Insulation
    heating_fuel: HeatingFuel
    floor_area_m2: float = within(above=0)
    ua_w_per_k: float = within(1e-3, 1e10)  # envelope conductance
    thermal_mass_j_per_k: float = within(1)
    hvac_heat_w: float = within(0, 1e15)  # rated heat output when running
    setpoint_c: float = within(-100, 100)
    deadband_c: float = within(above=0)
    n_occupants: int = within(0)
    n_workers: int = within(0)
    job_requires_power: bool
    avg_annual_kwh: float = within(above=0)
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
        return GAS_BLOWER_KW


_FIELD_TYPES = typing.get_type_hints(Building)
# One column per Building field, in field order.
CSV_COLUMNS = list(_FIELD_TYPES)


@functools.cache
def _codes(enum: type[Enum]) -> dict:
    return {member: index for index, member in enumerate(enum)}


def code(member: Enum) -> int:
    """A member's small-int code in a population column: its index in its
    enum's declaration order."""
    return _codes(type(member))[member]


def label(enum: type[Enum]) -> labels:
    """Maps a column code of `enum` to its member's `.value`."""
    return labels(tuple(m.value for m in enum))


# The `Sector` code of each `BuildingKind` code.
_SECTOR_CODE_BY_KIND = np.array([code(SECTOR_BY_KIND[k]) for k in BuildingKind], np.int8)
_SECTOR_CODE_BY_KIND.flags.writeable = False


def _dtype(tp) -> type:
    if issubclass(tp, Enum):
        return np.int8
    return {bool: np.bool_, int: np.int64, float: np.float64, str: np.str_}[tp]


@dataclass(frozen=True, eq=False)
class Population:
    """The building stock as one read-only numpy column per `Building`
    field, in building order: `pop.<field>` is a column and `pop[rows]` the
    population of those rows. Enum fields hold `code`s; `sector` and
    `hvac_electric_kw` are derived columns. `Building` rows exist only
    through `from_buildings` and `buildings`. Immutable, so parallel trial
    workers can share it.
    """

    columns: dict[str, np.ndarray]

    def __post_init__(self):
        if set(self.columns) != set(CSV_COLUMNS) or len(set(map(len, self.columns.values()))) > 1:
            raise ConfigurationError("a population needs one equally long column per field")
        columns = {}
        for name, tp in _FIELD_TYPES.items():
            col = np.asarray(self.columns[name], dtype=_dtype(tp))
            if col.flags.writeable:  # never share memory that a caller can change
                col = col.copy()
                col.flags.writeable = False
            columns[name] = col
        object.__setattr__(self, "columns", columns)

    def __getattr__(self, name: str) -> np.ndarray:
        """Column `name`."""
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self) -> int:
        return len(self.columns["id"])

    def __getitem__(self, rows) -> Population:
        """The buildings at `rows`: a slice, an index array or a mask."""
        return Population({name: col[rows] for name, col in self.columns.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Population):
            return NotImplemented
        return all(np.array_equal(col, other.columns[name]) for name, col in self.columns.items())

    @property
    def total_occupants(self) -> int:
        return int(self.n_occupants.sum())

    @property
    def sector(self) -> np.ndarray:
        """Each building's `Sector` code, by its kind."""
        return _SECTOR_CODE_BY_KIND[self.kind]

    @property
    def hvac_electric_kw(self) -> np.ndarray:
        """Each building's `Building.hvac_electric_kw`."""
        return np.where(self.heating_fuel == code(HeatingFuel.ELECTRIC),
                        self.hvac_heat_w / 1000.0, GAS_BLOWER_KW)

    @classmethod
    def from_buildings(cls, rows) -> Population:
        rows = tuple(rows)
        return cls({name: [code(getattr(b, name)) if issubclass(tp, Enum) else getattr(b, name)
                           for b in rows] for name, tp in _FIELD_TYPES.items()})

    @property
    def buildings(self) -> tuple[Building, ...]:
        """The population as `Building` rows, built on each access."""
        values = [list(map(tuple(tp).__getitem__, self.columns[name].tolist()))
                  if issubclass(tp, Enum) else self.columns[name].tolist()
                  for name, tp in _FIELD_TYPES.items()]
        return tuple(Building(*row) for row in zip(*values))


# Upper bound of a synthesized building's occupants and workers.
MAX_OCCUPANTS = 1_000_000


@dataclass(frozen=True)
class InsulationRow(Bounded):
    """Envelope of one insulation class per floor area: UA (W/K.m2) and
    lumped thermal mass (J/K.m2)."""

    ua_w_per_k_m2: float = within(1e-3, 1e3)
    mass_j_per_k_m2: float = within(1, 1e9)


@dataclass(frozen=True)
class Profile(Bounded):
    """Synthesis ranges (lo, hi) of one building kind: floor area (m2) and
    annual consumption (kWh/yr)."""

    floor_m2: tuple[float, float] = within(1, 1e7, ordered=True)
    kwh: tuple[float, float] = within(above=0, ordered=True)


@dataclass(frozen=True)
class CommercialProfile(Profile):
    """A commercial kind's ranges, with the worker count."""

    workers: tuple[int, int] = within(0, MAX_OCCUPANTS, ordered=True)


# Upper bound of the buildings a spec synthesizes: about 70 times the
# 140,300 of the demo counts x 100; the population's columns alone take
# about 1 GB at the bound.
MAX_BUILDINGS = 10_000_000


@dataclass(frozen=True)
class PopulationSpec(Bounded):
    """Knobs for synthesizing a building stock, checked once when built. Its
    bounds keep every synthesized column inside its `Building` bound: 1 m2 or
    more of floor keeps UA at 1e-3 W/K or more and mass above 0, and the heat
    output stays below 1e15 W (1e3 W/K.m2 x 1e7 m2 x 200 K x 100 at most)."""

    counts: dict[BuildingKind, int] = within(0)
    insulation_weights: dict[Insulation, float] = within(0, default_factory=lambda: {
        Insulation.LITTLE: 0.06, Insulation.POOR: 0.14, Insulation.BELOW_AVERAGE: 0.20,
        Insulation.AVERAGE: 0.25, Insulation.ABOVE_AVERAGE: 0.17, Insulation.GOOD: 0.12,
        Insulation.VERY_GOOD: 0.06})
    occupant_weights: dict[int, float] = within(0, default_factory=lambda: {
        1: 0.24, 2: 0.35, 3: 0.20, 4: 0.12, 5: 0.06, 6: 0.03})
    wfh_share: float = within(0, 1, default=0.35)
    electric_heat_share: float = within(0, 1, default=0.6)
    power_required_share_residential: float = within(0, 1, default=0.5)
    power_required_share_commercial: float = within(0, 1, default=0.7)
    commercial_backup_share: float = within(0, 1, default=0.25)
    setpoint_c: float = within(-100, 100, default=20.0)
    deadband_c: float = within(above=0, default=1.0)
    hvac_design_outdoor_c: float = within(-100, 100, default=-15.0)
    hvac_oversize: float = within(0, 100, default=1.25)
    insulation_table: dict[Insulation, InsulationRow] = field(default_factory=lambda: {
        Insulation.LITTLE: InsulationRow(3.2, 230e3),
        Insulation.POOR: InsulationRow(2.6, 240e3),
        Insulation.BELOW_AVERAGE: InsulationRow(2.2, 250e3),
        Insulation.AVERAGE: InsulationRow(1.8, 255e3),
        Insulation.ABOVE_AVERAGE: InsulationRow(1.5, 260e3),
        Insulation.GOOD: InsulationRow(1.2, 265e3),
        Insulation.VERY_GOOD: InsulationRow(0.9, 270e3)})
    residential_profiles: dict[BuildingKind, Profile] = field(default_factory=lambda: {
        BuildingKind.SINGLE_FAMILY: Profile((90.0, 280.0), (9000.0, 21000.0)),
        BuildingKind.MULTI_FAMILY: Profile((50.0, 120.0), (5000.0, 12000.0)),
        BuildingKind.MOBILE_HOME: Profile((50.0, 110.0), (7000.0, 15000.0))})
    commercial_profiles: dict[BuildingKind, CommercialProfile] = field(default_factory=lambda: {
        BuildingKind.OFFICE: CommercialProfile(
            (800.0, 3000.0), (250000.0, 450000.0), (15, 40)),
        BuildingKind.WAREHOUSE_STORAGE: CommercialProfile(
            (2000.0, 8000.0), (200000.0, 400000.0), (5, 15)),
        BuildingKind.BIG_BOX: CommercialProfile(
            (3000.0, 10000.0), (900000.0, 1500000.0), (25, 60)),
        BuildingKind.STRIP_MALL: CommercialProfile(
            (500.0, 2000.0), (120000.0, 240000.0), (8, 20)),
        BuildingKind.EDUCATION: CommercialProfile(
            (1500.0, 6000.0), (300000.0, 500000.0), (20, 60)),
        BuildingKind.FOOD_SERVICE: CommercialProfile(
            (200.0, 800.0), (180000.0, 320000.0), (8, 25)),
        BuildingKind.FOOD_SALES: CommercialProfile(
            (400.0, 1500.0), (220000.0, 380000.0), (6, 15)),
        BuildingKind.LODGING: CommercialProfile(
            (1000.0, 5000.0), (250000.0, 450000.0), (5, 20)),
        BuildingKind.HEALTHCARE: CommercialProfile(
            (1000.0, 6000.0), (350000.0, 650000.0), (20, 60)),
        BuildingKind.LOW_OCCUPANCY: CommercialProfile(
            (300.0, 2000.0), (50000.0, 110000.0), (1, 5))})

    def __post_init__(self):
        super().__post_init__()
        total = sum(self.counts.values())
        if not 0 < total <= MAX_BUILDINGS:
            raise ConfigurationError(f"must add up to 1 to {MAX_BUILDINGS:,} buildings, "
                                     f"got {total:,}", "counts")
        for name in ("insulation_weights", "occupant_weights"):
            weight = sum(getattr(self, name).values())
            if abs(weight - 1.0) > 1e-9:
                raise ConfigurationError(f"must sum to 1.0, got {weight!r}", name)
        for size in self.occupant_weights:  # a key is a count of occupants
            Bound(0, MAX_OCCUPANTS).check(size, f"occupant_weights.{size}")
        if self.hvac_design_outdoor_c > self.setpoint_c:
            raise ConfigurationError(f"must not exceed setpoint_c {self.setpoint_c!r}, "
                                     f"got {self.hvac_design_outdoor_c!r}",
                                     "hvac_design_outdoor_c")
        for ins, weight in self.insulation_weights.items():
            if weight > 0 and ins not in self.insulation_table:
                raise ConfigurationError(f"has no row for {ins.value!r}, which has a "
                                         "positive weight", "insulation_table")
        for name, residential in (("residential_profiles", True),
                                  ("commercial_profiles", False)):
            for kind in getattr(self, name):
                if (SECTOR_BY_KIND[kind] is Sector.RESIDENTIAL) != residential:
                    raise ConfigurationError(f"is not a {name.split('_')[0]} kind",
                                             key=f"{name}.{kind.value}")
        for kind, count in self.counts.items():
            name = ("residential_profiles" if SECTOR_BY_KIND[kind] is Sector.RESIDENTIAL
                    else "commercial_profiles")
            if count > 0 and kind not in getattr(self, name):
                raise ConfigurationError(f"has no row for {kind.value!r}, which has a "
                                         "positive count", name)


def synthesize_population(spec: PopulationSpec, seed: int) -> Population:
    """Deterministically synthesize a building stock from a spec and seed."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x706F70)))

    ins_p = np.array([spec.insulation_weights.get(c, 0.0) for c in INSULATION_ORDER], dtype=float)
    # Classes without a table row have zero weight and are never drawn.
    rows = [spec.insulation_table.get(c) for c in INSULATION_ORDER]
    ua_per_m2 = np.array([row.ua_w_per_k_m2 if row else math.nan for row in rows])
    mass_per_m2 = np.array([row.mass_j_per_k_m2 if row else math.nan for row in rows])
    occ_sizes = np.array(sorted(spec.occupant_weights), dtype=int)
    occ_p = np.array([spec.occupant_weights[s] for s in sorted(spec.occupant_weights)], dtype=float)

    parts: list[dict] = []  # one set of columns per kind, in kind order
    for kind in BuildingKind:
        count = int(spec.counts.get(kind, 0))
        if count == 0:
            continue
        residential = SECTOR_BY_KIND[kind] is Sector.RESIDENTIAL
        profile = (spec.residential_profiles if residential else spec.commercial_profiles)[kind]

        ins_idx = rng.choice(len(INSULATION_ORDER), size=count, p=ins_p)
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

        ua = ua_per_m2[ins_idx] * floor
        parts.append({
            "kind": np.full(count, code(kind)),
            "insulation": ins_idx,
            "heating_fuel": np.where(electric, code(HeatingFuel.ELECTRIC),
                                     code(HeatingFuel.GAS_ELECTRIC_BLOWER)),
            "floor_area_m2": floor,
            "ua_w_per_k": ua,
            "thermal_mass_j_per_k": mass_per_m2[ins_idx] * floor,
            "hvac_heat_w": ua * (spec.setpoint_c - spec.hvac_design_outdoor_c) * spec.hvac_oversize,
            "setpoint_c": np.full(count, float(spec.setpoint_c)),
            "deadband_c": np.full(count, float(spec.deadband_c)),
            "n_occupants": occupants,
            "n_workers": workers,
            "job_requires_power": needs_power,
            "avg_annual_kwh": kwh,
            "income_bracket": np.full(count, "median" if residential else ""),
            "backup": backup,
        })

    columns = {name: np.concatenate([part[name] for part in parts]) for name in CSV_COLUMNS[1:]}
    columns["id"] = np.arange(len(columns["kind"]))
    return Population(columns)


def _csv_columns(pop: Population) -> list:
    """Each field's column and cell text; a float is written as its repr, so reload is bit-exact."""
    return [(pop.columns[name], label(tp) if issubclass(tp, Enum)
             else {bool: labels(("false", "true"))}.get(tp))
            for name, tp in _FIELD_TYPES.items()]


def write_population_csv(handle, pop: Population) -> None:
    """Write one building per row, one column per field."""
    write_csv(handle, CSV_COLUMNS, _csv_columns(pop))


def population_csv_blocks(pop: Population):
    """The bytes that `write_population_csv` writes, a block at a time (`tables.csv_blocks`)."""
    return csv_blocks(CSV_COLUMNS, _csv_columns(pop))


def save_population(pop: Population, path) -> None:
    save_csv(path, CSV_COLUMNS, _csv_columns(pop))


def load_population(path) -> Population:
    """Load a population CSV written by :func:`save_population`. A repeated
    building id, a non-finite float and a number outside its `Building`
    field's bound are bad cells, named by file, row and column."""
    seen: set[int] = set()
    parse_int = cell_parser(int)

    def parse_id(raw: str) -> int:
        if (value := parse_int(raw)) in seen:
            raise ConfigurationError(f"duplicate building id {value}")
        seen.add(value)
        return value

    parsers = {f.name: cell_parser(_FIELD_TYPES[f.name], f.metadata.get(Bound))
               for f in fields(Building)}
    parsers["id"] = parse_id
    columns = read_csv(path, parsers)
    if not columns["id"]:
        raise IngestionError("zero buildings", path=path)
    return Population(columns)
