import dataclasses
import hashlib
import io

import numpy as np
import pytest
from scipy import stats

from coldsnap import defaults
from coldsnap.errors import ConfigurationError, IngestionError
from coldsnap.population import (
    CSV_COLUMNS,
    INSULATION_ORDER,
    SECTOR_BY_KIND,
    BuildingKind,
    HeatingFuel,
    Insulation,
    Population,
    PopulationSpec,
    Sector,
    label,
    load_population,
    save_population,
    synthesize_population,
    validate_population,
    write_population_csv,
)
from coldsnap.scenario import population_digest

from conftest import make_building, make_population


def demo_spec():
    return PopulationSpec(counts={BuildingKind(k): v for k, v in defaults.DEMO_COUNTS.items()})


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
        assert validate_population(pop) == []

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


class TestValidate:
    def test_valid_population_has_no_violations(self):
        pop = make_population([make_building(0), make_building(1)])
        assert validate_population(pop) == []

    def test_zero_ua_flagged_with_id_and_field(self):
        import dataclasses
        bad = dataclasses.replace(make_building(3), ua_w_per_k=0.0)
        violations = validate_population(make_population([make_building(0), bad]))
        assert len(violations) == 1
        assert violations[0].building_id == 3
        assert violations[0].field == "ua_w_per_k"

    def test_negative_kwh_flagged(self):
        import dataclasses
        bad = dataclasses.replace(make_building(2), avg_annual_kwh=-5.0)
        violations = validate_population(make_population([bad]))
        assert [v.field for v in violations] == ["avg_annual_kwh"]

    def test_total_occupants_is_the_column_sum(self):
        # No second copy of the total is stored, so none can disagree.
        pop = make_population([make_building(0, n_occupants=3), make_building(1, n_occupants=4)])
        assert pop.total_occupants == 7
        with pytest.raises(ConfigurationError, match="one equally long column per field"):
            Population({**pop.columns, "total_occupants": np.array([99, 99])})

    def test_violations_run_building_by_building(self):
        # Building 0's deadband comes before building 1's conductance,
        # although the conductance rule is checked first within a building.
        pop = make_population([dataclasses.replace(make_building(0), deadband_c=0.0),
                               dataclasses.replace(make_building(1), ua_w_per_k=0.0,
                                                   hvac_heat_w=-1.0)])
        assert [(v.building_id, v.field) for v in validate_population(pop)] == [
            (0, "deadband_c"), (1, "ua_w_per_k"), (1, "hvac_heat_w")]

    @pytest.mark.parametrize("name", [c for c in CSV_COLUMNS
                                      if isinstance(getattr(make_building(), c), float)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_flagged_once(self, name, value):
        bad = dataclasses.replace(make_building(4), **{name: value})
        violations = validate_population(make_population([make_building(0), bad]))
        assert [(v.building_id, v.field) for v in violations] == [(4, name)]
        # A range rule that already rejects the value keeps its message:
        # `not > 0` rejects NaN, every range rule rejects -inf.
        ranged = name != "setpoint_c" and (value == -np.inf or np.isnan(value) and name in (
            "ua_w_per_k", "thermal_mass_j_per_k", "avg_annual_kwh"))
        assert violations[0].message.startswith("must be finite") != ranged


class TestColumns:
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
