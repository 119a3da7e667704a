import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest

from coldsnap.demo import DEMO_COUNTS
from coldsnap.errors import ConfigurationError
from coldsnap.outage import (
    DARK,
    ISOLATED,
    LIT,
    MAX_TIER_CELLS,
    TIERS,
    BaseParams,
    ControlledOutageParams,
    HardenedRollingParams,
    RollingOutageParams,
    assign_rolling_groups,
    build_schedule,
)
from coldsnap.population import BuildingKind, PopulationSpec, Sector, synthesize_population

import oracles
from conftest import make_building, make_population
from oracles import max_contiguous_off, write_schedules_csv

UTC = timezone.utc
START = datetime(2021, 2, 15, tzinfo=UTC)
DT = 300.0
N_STEPS = int(96 * 3600 / DT)


def shed(ids, fault_fraction=0.0):
    return ControlledOutageParams(shed_ids=tuple(ids), fault_fraction=fault_fraction)


def powered(sched):
    """The (buildings x steps) power matrix."""
    return sched.on[sched.group]


def isolated_ids(pop, sched) -> set[int]:
    return set(pop.id[sched.group == ISOLATED].tolist())


def select_isolated(pop, fault_fraction, seed):
    """The ids a rolling outage isolates at `fault_fraction`."""
    params = RollingOutageParams(fault_fraction=fault_fraction)
    return isolated_ids(pop, build_schedule(pop, N_STEPS, DT, params, seed))


def by_id(pop, values):
    """Rows of a per-building matrix or vector, keyed by building id."""
    return dict(zip(pop.id.tolist(), values))


def residential(pop):
    return [b for b in pop.buildings if b.sector is Sector.RESIDENTIAL]


@pytest.fixture(scope="module")
def demo_pop():
    spec = PopulationSpec(counts={BuildingKind(k): v for k, v in DEMO_COUNTS.items()})
    return synthesize_population(spec, seed=42)


@pytest.fixture(scope="module")
def small_pop():
    buildings = [make_building(i, avg_annual_kwh=20000.0 - 1000.0 * i) for i in range(9)]
    buildings.append(make_building(100, kind=BuildingKind.OFFICE, n_occupants=10, n_workers=10))
    return make_population(buildings)


class TestBase:
    def test_all_series_true(self, small_pop):
        sched = build_schedule(small_pop, N_STEPS, DT, BaseParams(), seed=1)
        assert all(s.all() for s in powered(sched))
        assert not (sched.group == ISOLATED).any()
        assert sched.on.shape == (TIERS, N_STEPS)

    def test_demo_population_gets_1403_schedules(self, demo_pop):
        sched = build_schedule(demo_pop, N_STEPS, DT, BaseParams(), seed=1)
        assert powered(sched).shape == (1403, N_STEPS)
        assert sched.on[sched.group[256:512]].shape == (256, N_STEPS)


class TestLayout:
    @pytest.mark.parametrize("params", [BaseParams(), shed((0, 3), 0.2),
                                        RollingOutageParams(n_groups=4, fault_fraction=0.2)])
    def test_rows_are_lit_dark_isolated_then_tiers(self, small_pop, params):
        sched = build_schedule(small_pop, N_STEPS, DT, params, seed=1)
        assert sched.on[LIT].all()
        assert not sched.on[DARK].any() and not sched.on[ISOLATED].any()
        n_tiers = params.n_groups if isinstance(params, RollingOutageParams) else 0
        assert sched.on.shape == (TIERS + n_tiers, N_STEPS)

    def test_group_numbers_do_not_depend_on_the_scenario(self, small_pop):
        co = build_schedule(small_pop, N_STEPS, DT, shed((0, 3)), seed=1)
        ro = build_schedule(small_pop, N_STEPS, DT, RollingOutageParams(), seed=1)
        assert by_id(small_pop, co.group.tolist()) == {
            b.id: DARK if b.id in (0, 3) else LIT for b in small_pop.buildings}
        tier = assign_rolling_groups(small_pop, 3)
        assert ro.group.tolist() == [LIT if t < 0 else TIERS + t for t in tier.tolist()]


class TestIsolation:
    def test_zero_fraction_is_empty(self, demo_pop):
        assert select_isolated(demo_pop, 0.0, seed=1) == set()

    def test_three_point_four_percent_of_1403_is_48(self, demo_pop):
        isolated = select_isolated(demo_pop, 0.034, seed=1)
        assert len(isolated) == 48  # round(47.702)

    def test_deterministic_per_seed_and_different_across_seeds(self, demo_pop):
        a1 = select_isolated(demo_pop, 0.034, seed=1)
        a2 = select_isolated(demo_pop, 0.034, seed=1)
        b = select_isolated(demo_pop, 0.034, seed=2)
        assert a1 == a2
        assert len(b) == len(a1)
        assert a1 != b

    @pytest.mark.parametrize("params", [ControlledOutageParams, RollingOutageParams])
    def test_fraction_bounds_enforced(self, params):
        with pytest.raises(ConfigurationError, match=r"'fault_fraction' must lie in \[0, 1\)") \
                as info:
            params(fault_fraction=1.0)
        assert info.value.key == "fault_fraction"

    def test_hardened_feeders_isolate_no_one(self):
        with pytest.raises(ConfigurationError, match=r"must lie in \[0, 0\], got 0.034") as info:
            HardenedRollingParams(fault_fraction=0.034)
        assert info.value.key == "fault_fraction"


class TestControlledOutage:
    def test_empty_shed_no_fault_equals_base(self, small_pop):
        sched = build_schedule(small_pop, N_STEPS, DT, shed(()), seed=1)
        assert all(s.all() for s in powered(sched))

    def test_shed_all_residential_leaves_commercial_powered(self, small_pop):
        dark = {b.id for b in residential(small_pop)}
        sched = build_schedule(small_pop, N_STEPS, DT, shed(dark), seed=1)
        schedules = by_id(small_pop, powered(sched))
        for b in small_pop.buildings:
            if b.id in dark:
                assert not schedules[b.id].any()
            else:
                assert schedules[b.id].all()

    def test_shed_buildings_dark_entire_window(self, small_pop):
        sched = build_schedule(small_pop, N_STEPS, DT, shed((0, 3)), seed=1)
        schedules = by_id(small_pop, powered(sched))
        assert not schedules[0].any()
        assert not schedules[3].any()
        assert schedules[1].all()

    def test_isolated_union_shed(self, demo_pop):
        sched = build_schedule(demo_pop, N_STEPS, DT, shed((0, 1), 0.034), seed=3)
        schedules = by_id(demo_pop, powered(sched))
        for bid in isolated_ids(demo_pop, sched) | {0, 1}:
            assert not schedules[bid].any()

    def test_shed_ids_are_64_bit_integers(self):
        assert shed((-2**63, 2**63 - 1)).shed_ids == (-2**63, 2**63 - 1)
        with pytest.raises(ConfigurationError, match=r"got 100000000000000000000") as info:
            shed((0, 10**20))
        assert info.value.key == "shed_ids[1]"

    def test_unknown_shed_id_rejected(self, small_pop):
        with pytest.raises(ConfigurationError, match=r"unknown building ids: \[999\]") as info:
            build_schedule(small_pop, N_STEPS, DT, shed((999,)), seed=1)
        assert info.value.key == "shed_ids"


def rolling(pop, fraction=0.34, fault_fraction=0.0, n_groups=3, **kwargs):
    params = RollingOutageParams(n_groups=n_groups, availability_constant=fraction,
                                 fault_fraction=fault_fraction, **kwargs)
    return build_schedule(pop, N_STEPS, DT, params, seed=1)


class TestRollingOutage:

    def test_full_availability_equals_base(self, small_pop):
        sched = rolling(small_pop, 1.0)
        assert all(s.all() for s in powered(sched))

    def test_k1_gives_exactly_two_hour_max_off(self, demo_pop):
        sched = rolling(demo_pop)
        schedules = by_id(demo_pop, powered(sched))
        for b in residential(demo_pop):
            assert max_contiguous_off(schedules[b.id], DT) == pytest.approx(2.0)

    def test_commercial_always_powered(self, demo_pop):
        sched = rolling(demo_pop)
        schedules = by_id(demo_pop, powered(sched))
        for b in demo_pop.buildings:
            if b.sector is not Sector.RESIDENTIAL:
                assert schedules[b.id].all()

    def test_unhardened_isolates_faulted_customers(self, demo_pop):
        sched = rolling(demo_pop, fault_fraction=0.034)
        isolated = isolated_ids(demo_pop, sched)
        assert len(isolated) == 48
        schedules = by_id(demo_pop, powered(sched))
        for bid in isolated:
            assert not schedules[bid].any()
        # The lit, dark and isolated rows, then three tiers.
        assert sched.on.shape == (TIERS + 3, N_STEPS)

    def test_hardened_dominates_damaged_for_isolated_ids(self, demo_pop):
        di = rolling(demo_pop, fault_fraction=0.034)
        hi = rolling(demo_pop, fault_fraction=0.0)
        di_schedules = by_id(demo_pop, powered(di))
        hi_schedules = by_id(demo_pop, powered(hi))
        isolated = isolated_ids(demo_pop, di)
        for bid in isolated:
            assert np.all(hi_schedules[bid] >= di_schedules[bid])
        for bid in set(demo_pop.id.tolist()) - isolated:
            np.testing.assert_array_equal(hi_schedules[bid], di_schedules[bid])

    def test_conservation_exactly_k_groups_per_slot(self, demo_pop):
        n_groups = 3
        sched = rolling(demo_pop, 0.67, n_groups=n_groups)
        groups = by_id(demo_pop, assign_rolling_groups(demo_pop, n_groups).tolist())
        k = int(np.floor(0.67 * n_groups))
        per_slot = int(3600 / DT)
        schedules = by_id(demo_pop, powered(sched))
        for slot in range(0, N_STEPS // per_slot):
            step = slot * per_slot
            powered_groups = {
                groups[b.id] for b in residential(demo_pop)
                if schedules[b.id][step]
            }
            assert len(powered_groups) == k

    def test_fairness_unpowered_totals_within_one_slot(self, demo_pop):
        sched = rolling(demo_pop)
        groups = by_id(demo_pop, assign_rolling_groups(demo_pop, 3).tolist())
        off_hours: dict[int, float] = {}
        unpowered_h = by_id(demo_pop, sched.unpowered_hours())
        for b in residential(demo_pop):
            off_hours.setdefault(groups[b.id], unpowered_h[b.id])
        values = sorted(off_hours.values())
        assert values[-1] - values[0] <= 1.0 + 1e-9

    def test_groups_ranked_by_consumption_ties_by_id(self):
        buildings = [make_building(i, avg_annual_kwh=10000.0) for i in range(6)]
        pop = make_population(buildings)
        groups = by_id(pop, assign_rolling_groups(pop, 3).tolist())
        # Equal consumption: ascending id fills tiers in order.
        assert groups == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}

    @pytest.mark.parametrize("n_slots", [10, 97, 120])
    def test_availability_of_another_length_rejected(self, small_pop, n_slots):
        with pytest.raises(ConfigurationError, match="availability") as info:
            rolling(small_pop, availability=(0.34,) * n_slots)
        assert info.value.key == "availability"
        assert info.value.message == f"has {n_slots} slots, window needs 96"

    def test_n_groups_minimum(self):
        with pytest.raises(ConfigurationError) as info:
            RollingOutageParams(n_groups=1)
        assert info.value.key == "n_groups"
        assert str(info.value) == "config key 'n_groups' must lie in [2, 10,000], got 1"

    @pytest.mark.parametrize("n_groups, n_steps", [(10_000, MAX_TIER_CELLS // 10_000),
                                                   (2_912, 5_760)])
    def test_tier_table_at_the_cell_bound_peaks_within_twice_its_size(
            self, small_pop, n_groups, n_steps):
        # One-step slots: the most slots a window of `n_steps` can have.
        params = RollingOutageParams(n_groups=n_groups, slot_s=60.0, availability_constant=0.5)
        tracemalloc.start()
        try:
            sched = build_schedule(small_pop, n_steps, 60.0, params, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_groups * n_steps <= MAX_TIER_CELLS
        assert sched.on.shape == (TIERS + n_groups, n_steps)
        assert peak <= 2 * sched.on.nbytes
        # Each step serves floor(0.5 x n_groups) tiers, starting at its slot's.
        assert (sched.on[TIERS:].sum(axis=0) == n_groups // 2).all()
        assert sched.on[TIERS + 7, 7] and not sched.on[TIERS + 6, 7]


class TestMaxContiguousOff:
    def test_all_true_is_zero(self):
        assert max_contiguous_off(np.ones(10, dtype=bool), 3600.0) == 0.0

    def test_all_false_96h(self):
        assert max_contiguous_off(np.zeros(96, dtype=bool), 3600.0) == 96.0

    def test_alternating_hourly(self):
        sched = np.tile([True, False], 48)
        assert max_contiguous_off(sched, 3600.0) == 1.0


class TestExport:
    def test_schedule_csv_schema(self, tmp_path, small_pop):
        sched = oracles.build_base_schedule(small_pop, 2, 1800.0, BaseParams(), seed=1)
        path = tmp_path / "schedules.csv"
        write_schedules_csv(sched, START, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "building_id,slot_start,powered"
        assert lines[1] == "0,2021-02-15T00:00:00+00:00,true"
        assert len(lines) == 1 + len(small_pop.buildings) * 2
