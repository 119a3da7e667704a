import csv
import dataclasses
import hashlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from coldsnap.codec import Bound
from coldsnap.demo import DEMO_COUNTS
from coldsnap.errors import ConfigurationError, IngestionError
from coldsnap.population import (
    CSV_COLUMNS,
    INSULATION_ORDER,
    MAX_OCCUPANTS,
    SECTOR_BY_KIND,
    Building,
    BuildingKind,
    CommercialProfile,
    HeatingFuel,
    Insulation,
    InsulationRow,
    Population,
    PopulationSpec,
    Profile,
    Sector,
    code,
    label,
    load_population,
    save_population,
    synthesize_population,
    write_population_csv,
)
from coldsnap.scenario import population_digest

from conftest import make_building, make_population


def demo_spec():
    return PopulationSpec(counts={BuildingKind(k): v for k, v in DEMO_COUNTS.items()})


def assert_inside_building_bounds(pop):
    """Every float column is finite and every column inside its `Building`
    field's bound."""
    for f in dataclasses.fields(Building):
        column = pop.columns[f.name]
        if column.dtype.kind == "f":
            assert np.isfinite(column).all(), f.name
        if (bound := f.metadata.get(Bound)) is not None:
            inside = ((bound.lo <= column) & (column <= bound.hi)
                      & (bound.above < column) & (column < bound.below))
            assert inside.all(), (f.name, column[~inside])


class TestSynthesize:
    def test_demo_counts_give_1403_buildings(self):
        pop = synthesize_population(demo_spec(), seed=42)
        assert len(pop.buildings) == 1403
        assert sum(1 for b in pop.buildings if b.sector is Sector.RESIDENTIAL) == 1308
        assert sum(1 for b in pop.buildings if b.sector is not Sector.RESIDENTIAL) == 95

    def test_degenerate_insulation_mix(self):
        spec = PopulationSpec(
            counts={BuildingKind.SINGLE_FAMILY: 1},
            insulation_weights={ins: (1.0 if ins is Insulation.POOR else 0.0)
                                for ins in INSULATION_ORDER},
        )
        pop = synthesize_population(spec, seed=1)
        assert pop.buildings[0].insulation is Insulation.POOR

    def test_constant_occupant_distribution(self):
        spec = PopulationSpec(
            counts={BuildingKind.SINGLE_FAMILY: 40},
            occupant_weights={2: 1.0},
        )
        pop = synthesize_population(spec, seed=3)
        assert pop.total_occupants == 2 * 40

    def test_deterministic_for_fixed_spec_and_seed(self):
        a = synthesize_population(demo_spec(), seed=7)
        b = synthesize_population(demo_spec(), seed=7)
        assert a == b
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_population_csv(buf_a, a)
        write_population_csv(buf_b, b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_different_seeds_differ(self):
        a = synthesize_population(demo_spec(), seed=7)
        b = synthesize_population(demo_spec(), seed=8)
        assert a != b

    def test_every_building_passes_invariants(self):
        pop = synthesize_population(demo_spec(), seed=42)
        assert_inside_building_bounds(pop)
        assert len(np.unique(pop.id)) == len(pop)

    def test_weights_not_summing_to_one_rejected(self):
        # At construction: a spec cannot be changed afterwards.
        for name in ("insulation_weights", "occupant_weights"):
            weights = dict(getattr(demo_spec(), name))
            weights[next(iter(weights))] += 0.05
            with pytest.raises(ConfigurationError, match="must sum to 1.0") as info:
                dataclasses.replace(demo_spec(), **{name: weights})
            assert info.value.key == name

    def test_zero_buildings_rejected(self):
        with pytest.raises(ConfigurationError, match="got 0") as info:
            PopulationSpec(counts={})
        assert info.value.key == "counts"

    def test_spec_cannot_be_reassigned(self):
        spec = demo_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.insulation_weights = {Insulation.GOOD: 1.0}

    def test_commercial_occupants_equal_workers(self):
        spec = PopulationSpec(counts={BuildingKind.OFFICE: 25})
        pop = synthesize_population(spec, seed=5)
        for b in pop.buildings:
            assert b.n_occupants == b.n_workers > 0

    def test_insulation_mix_converges_to_weights(self):
        # Chi-squared goodness of fit at n=1e5 must not reject (p > 0.001).
        spec = PopulationSpec(counts={BuildingKind.SINGLE_FAMILY: 100_000})
        pop = synthesize_population(spec, seed=11)
        observed = np.array([
            sum(1 for b in pop.buildings if b.insulation is ins) for ins in INSULATION_ORDER
        ])
        expected = np.array([spec.insulation_weights[ins] for ins in INSULATION_ORDER]) * 100_000
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001

    def test_sector_mapping_total_and_stable(self):
        assert set(SECTOR_BY_KIND) == set(BuildingKind)
        assert set(SECTOR_BY_KIND.values()) == set(Sector)
        for kind in (BuildingKind.SINGLE_FAMILY, BuildingKind.MULTI_FAMILY,
                     BuildingKind.MOBILE_HOME):
            assert SECTOR_BY_KIND[kind] is Sector.RESIDENTIAL


class TestCsvRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        pop = synthesize_population(demo_spec(), seed=42)
        path = tmp_path / "pop.csv"
        save_population(pop, path)
        loaded = load_population(path)
        assert loaded.buildings == pop.buildings
        assert loaded.total_occupants == pop.total_occupants

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        pop = synthesize_population(demo_spec(), seed=42)[:25]
        path = tmp_path / "pop.csv"
        save_population(pop, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_population(path) == pop

    def test_duplicate_id_names_the_id(self, tmp_path):
        pop = make_population([make_building(5), make_building(9)])
        path = tmp_path / "pop.csv"
        save_population(pop, path)
        lines = path.read_text().splitlines()
        lines.append(lines[1])  # repeat id 5
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match="duplicate building id 5") as info:
            load_population(path)
        assert (info.value.row, info.value.column) == (4, "id")

    def test_header_only_file_rejected(self, tmp_path):
        pop = make_population([make_building(0)])
        path = tmp_path / "pop.csv"
        save_population(pop, path)
        path.write_text(path.read_text().splitlines()[0] + "\n")
        with pytest.raises(IngestionError, match="zero buildings"):
            load_population(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,kind\n0,single_family\n")
        with pytest.raises(IngestionError, match="missing columns"):
            load_population(path)

    def test_unparsable_value_names_row_and_column(self, tmp_path):
        pop = make_population([make_building(0)])
        path = tmp_path / "pop.csv"
        save_population(pop, path)
        text = path.read_text().replace("180.0,", "not-a-number,", 1)
        path.write_text(text)
        with pytest.raises(IngestionError, match="row=2"):
            load_population(path)

    def test_short_row_names_its_first_empty_cell(self, tmp_path):
        pop = make_population([make_building(0), make_building(1)])
        path = tmp_path / "pop.csv"
        save_population(pop, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 3)[0]  # drops avg_annual_kwh onward
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match="unparsable value ''") as info:
            load_population(path)
        assert (info.value.row, info.value.column) == (3, "avg_annual_kwh")

    def test_floats_are_written_as_their_repr(self):
        values = [-0.0, 5e-324, 1e16, 0.1 + 0.2]
        pop = make_population([make_building(i, floor_area_m2=v) for i, v in enumerate(values)])
        handle = io.StringIO()
        write_population_csv(handle, pop)
        rows = list(csv.DictReader(io.StringIO(handle.getvalue(), newline="")))
        for column in FLOAT_COLUMNS:
            assert [row[column] for row in rows] == list(map(repr, pop.columns[column].tolist()))
        assert [row["floor_area_m2"] for row in rows] == [
            "-0.0", "5e-324", "1e+16", "0.30000000000000004"]


# Each bounded column's lower limit and whether a cell may equal it: what a
# population file must hold, written out apart from the `Building` bounds.
COLUMN_LIMITS = {
    "floor_area_m2": (0.0, False),
    "ua_w_per_k": (1e-3, True),
    "thermal_mass_j_per_k": (1.0, True),
    "hvac_heat_w": (0.0, True),
    "setpoint_c": (-100.0, True),
    "deadband_c": (0.0, False),
    "n_occupants": (0, True),
    "n_workers": (0, True),
    "avg_annual_kwh": (0.0, False),
}
# The upper limits of the columns that have one.
UPPER_LIMITS = {
    "ua_w_per_k": (1e10, True),
    "hvac_heat_w": (1e15, True),
    "setpoint_c": (100.0, True),
}
FLOAT_COLUMNS = [c for c in CSV_COLUMNS if isinstance(getattr(make_building(), c), float)]


def saved_with(tmp_path, *cells):
    """The path of a saved five-building population with each
    `(index, column, value)` of `cells` set."""
    rows = [make_building(i) for i in range(5)]
    for index, column, value in cells:
        rows[index] = dataclasses.replace(rows[index], **{column: value})
    path = tmp_path / "pop.csv"
    save_population(make_population(rows), path)
    return path


class TestLoadBounds:
    def test_limits_cover_every_bounded_field(self):
        assert {f.name for f in dataclasses.fields(Building) if Bound in f.metadata} == set(
            COLUMN_LIMITS)

    @pytest.mark.parametrize("column", COLUMN_LIMITS)
    def test_each_bounded_column_at_and_just_past_its_limit(self, tmp_path, column):
        self.check_limit(tmp_path, column, *COLUMN_LIMITS[column], outward=-1)

    @pytest.mark.parametrize("column", UPPER_LIMITS)
    def test_each_upper_limit_at_and_just_past_it(self, tmp_path, column):
        self.check_limit(tmp_path, column, *UPPER_LIMITS[column], outward=1)

    @staticmethod
    def check_limit(tmp_path, column, limit, allowed, outward):
        """A cell at `limit` loads if `allowed`, one step past it in the
        direction `outward` (+1 or -1) fails naming its row and column, and
        one step inside loads."""
        if isinstance(limit, int):
            past, inside = limit + outward, limit - outward
        else:
            past, inside = (math.nextafter(limit, side * math.inf) for side in (outward, -outward))
        for value, ok in ((limit, allowed), (past, False), (inside, True)):
            path = saved_with(tmp_path, (3, column, value))
            if ok:
                assert load_population(path).columns[column][3] == value
                continue
            with pytest.raises(IngestionError, match=rf"must lie in .*, got {value!r}") as info:
                load_population(path)
            assert (info.value.row, info.value.column) == (5, column)

    def test_message_names_the_range_file_row_and_column(self, tmp_path):
        path = saved_with(tmp_path, (1, "ua_w_per_k", -3.0))
        with pytest.raises(IngestionError) as info:
            load_population(path)
        assert str(info.value) == (f"must lie in [0.001, 10,000,000,000.0], got -3.0; "
                                   f"file={path}; row=3; column=ua_w_per_k")

    @pytest.mark.parametrize("column, value", [("ua_w_per_k", 1e308),
                                               ("thermal_mass_j_per_k", 5e-324)])
    def test_cells_that_overflow_the_decay_exponent_rejected(self, tmp_path, column, value):
        # Either would make UA x dt / C overflow to infinity.
        with pytest.raises(IngestionError, match=re.escape(f"got {value!r}")) as info:
            load_population(saved_with(tmp_path, (1, column, value)))
        assert (info.value.row, info.value.column) == (3, column)

    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rejected(self, tmp_path, column, value):
        with pytest.raises(IngestionError, match=f"got {value!r}") as info:
            load_population(saved_with(tmp_path, (4, column, value)))
        assert (info.value.row, info.value.column) == (6, column)

    def test_lowest_bad_row_reported_first(self, tmp_path):
        # Building 1's deadband comes before building 2's conductance,
        # although the conductance column comes first.
        path = saved_with(tmp_path, (1, "deadband_c", 0.0), (2, "ua_w_per_k", 0.0),
                          (2, "hvac_heat_w", -1.0))
        with pytest.raises(IngestionError) as info:
            load_population(path)
        assert (info.value.row, info.value.column) == (3, "deadband_c")
        # Within a row, the first column in field order.
        path = saved_with(tmp_path, (2, "hvac_heat_w", -1.0), (2, "ua_w_per_k", 0.0))
        with pytest.raises(IngestionError) as info:
            load_population(path)
        assert (info.value.row, info.value.column) == (4, "ua_w_per_k")

    def test_bad_cell_before_a_later_duplicate_id_reported_first(self, tmp_path):
        path = saved_with(tmp_path, (1, "deadband_c", 0.0), (3, "id", 0))
        with pytest.raises(IngestionError, match="must lie in") as info:
            load_population(path)
        assert (info.value.row, info.value.column) == (3, "deadband_c")
        path = saved_with(tmp_path, (3, "deadband_c", 0.0), (1, "id", 0))
        with pytest.raises(IngestionError, match="duplicate building id 0") as info:
            load_population(path)
        assert (info.value.row, info.value.column) == (3, "id")


def bounded(tp, name):
    """Values of field `name` of the dataclass `tp` drawn from its whole
    declared range, edges included."""
    bound = next(f for f in dataclasses.fields(tp) if f.name == name).metadata[Bound]
    lo, hi = max(bound.lo, bound.above), min(bound.hi, bound.below)
    if tp is CommercialProfile and name == "workers":
        return st.integers(lo, hi)
    return st.floats(None if lo == -math.inf else lo, None if hi == math.inf else hi,
                     exclude_min=-math.inf < bound.above == lo,
                     exclude_max=math.inf > bound.below == hi,
                     allow_nan=False, allow_infinity=False)


def ordered_pair(values):
    return st.tuples(values, values).map(sorted).map(tuple)


def weights(keys):
    """Weights summing to 1 over one to seven keys drawn from `keys`."""
    return st.dictionaries(keys, st.integers(1, 5), min_size=1, max_size=7).map(
        lambda counts: {k: n / sum(counts.values()) for k, n in counts.items()})


@st.composite
def population_specs(draw):
    """A `PopulationSpec` drawn from the full declared ranges, with one to a
    few buildings of each drawn kind."""
    counts = draw(st.dictionaries(st.sampled_from(list(BuildingKind)), st.integers(1, 2),
                                  min_size=1))
    insulation = draw(weights(st.sampled_from(list(Insulation))))
    floats = {name: draw(bounded(PopulationSpec, name)) for name in (
        "wfh_share", "electric_heat_share", "power_required_share_residential",
        "power_required_share_commercial", "commercial_backup_share", "deadband_c",
        "hvac_oversize")}
    design, setpoint = sorted(draw(bounded(PopulationSpec, name))
                              for name in ("hvac_design_outdoor_c", "setpoint_c"))
    profiles = {}
    for kind in counts:
        fields = {name: draw(ordered_pair(bounded(CommercialProfile, name)))
                  for name in ("floor_m2", "kwh", "workers")}
        if SECTOR_BY_KIND[kind] is Sector.RESIDENTIAL:
            del fields["workers"]
            profiles[kind] = Profile(**fields)
        else:
            profiles[kind] = CommercialProfile(**fields)
    return PopulationSpec(
        counts=counts, insulation_weights=insulation,
        occupant_weights=draw(weights(st.integers(0, MAX_OCCUPANTS))),
        setpoint_c=setpoint, hvac_design_outdoor_c=design, **floats,
        insulation_table={ins: InsulationRow(*(draw(bounded(InsulationRow, name)) for name in (
            "ua_w_per_k_m2", "mass_j_per_k_m2"))) for ins in insulation},
        residential_profiles={k: p for k, p in profiles.items() if type(p) is Profile},
        commercial_profiles={k: p for k, p in profiles.items() if type(p) is not Profile})


@settings(max_examples=200, deadline=None)
@given(spec=population_specs(), seed=st.integers(0, 2**32))
def test_spec_bounds_keep_synthesis_inside_the_building_bounds(spec, seed):
    assert_inside_building_bounds(synthesize_population(spec, seed))


class TestColumns:
    def test_code_is_the_declaration_index(self):
        for enum in (BuildingKind, Insulation, HeatingFuel, Sector):
            assert [code(member) for member in enum] == list(range(len(enum)))

    def test_total_occupants_is_the_column_sum(self):
        # No second copy of the total is stored, so none can disagree.
        pop = make_population([make_building(0, n_occupants=3), make_building(1, n_occupants=4)])
        assert pop.total_occupants == 7
        with pytest.raises(ConfigurationError, match="one equally long column per field"):
            Population({**pop.columns, "total_occupants": np.array([99, 99])})

    def test_columns_follow_the_building_fields(self):
        pop = synthesize_population(demo_spec(), seed=42)
        assert list(pop.columns) == CSV_COLUMNS
        assert len(pop) == 1403
        assert pop.kind.dtype == pop.insulation.dtype == pop.heating_fuel.dtype == np.int8
        assert pop.total_occupants == int(pop.n_occupants.sum())

    def test_from_buildings_reproduces_every_column(self):
        pop = synthesize_population(demo_spec(), seed=42)
        rebuilt = Population.from_buildings(pop.buildings)
        for name, column in pop.columns.items():
            assert rebuilt.columns[name].dtype == column.dtype, name
            assert np.array_equal(rebuilt.columns[name], column), name
        assert rebuilt == pop

    def test_derived_columns_match_the_rows(self):
        pop = synthesize_population(demo_spec(), seed=42)
        rows = pop.buildings
        assert list(map(label(Sector), pop.sector.tolist())) == [b.sector.value for b in rows]
        assert list(map(label(BuildingKind), pop.kind.tolist())) == [b.kind.value for b in rows]
        assert pop.hvac_electric_kw.tolist() == [b.hvac_electric_kw for b in rows]
        fuels = {b.heating_fuel for b in rows}
        assert fuels == set(HeatingFuel)

    def test_digest_and_saved_bytes_unchanged(self, tmp_path):
        # The demo population's canonical CSV, as written before the
        # population became columns.
        pop = synthesize_population(demo_spec(), seed=42)
        pinned = "f49aacb3333b43a2543c6ef4b99eb41e9b666c33a06d32daf87df4615f811253"
        assert population_digest(pop) == pinned
        save_population(pop, tmp_path / "pop.csv")
        assert hashlib.sha256((tmp_path / "pop.csv").read_bytes()).hexdigest() == pinned

    def test_load_equals_synthesized_columns(self, tmp_path):
        pop = synthesize_population(demo_spec(), seed=42)
        save_population(pop, tmp_path / "pop.csv")
        loaded = load_population(tmp_path / "pop.csv")
        assert loaded == pop
        for name, column in pop.columns.items():
            assert loaded.columns[name].dtype == column.dtype, name

    def test_equality_compares_values(self):
        a = synthesize_population(demo_spec(), seed=7)
        b = synthesize_population(demo_spec(), seed=7)
        assert a is not b and a == b and not a != b
        assert a != a[:-1]
        assert a != Population({**a.columns, "setpoint_c": a.setpoint_c + 1e-9})
        assert a != "population"

    def test_columns_are_read_only_and_slices_share_them(self):
        pop = make_population([make_building(i) for i in range(5)])
        with pytest.raises(ValueError):
            pop.ua_w_per_k[0] = 1.0
        block = pop[1:3]
        assert block.id.tolist() == [1, 2]
        assert np.shares_memory(block.ua_w_per_k, pop.ua_w_per_k)
        columns = {name: column.copy() for name, column in pop.columns.items()}
        copied = Population(columns)
        columns["ua_w_per_k"][0] = 1.0
        assert copied.ua_w_per_k[0] == pop.ua_w_per_k[0]

    def test_unequal_columns_rejected(self):
        pop = make_population([make_building(i) for i in range(3)])
        with pytest.raises(ConfigurationError, match="equally long column per field"):
            Population({**pop.columns, "n_workers": np.zeros(2, dtype=int)})
