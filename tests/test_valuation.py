import dataclasses
import math
import warnings
from datetime import datetime, timezone

import numpy as np
import pytest
from scipy import stats

from coldsnap import valuation
from coldsnap.errors import ConfigurationError
from coldsnap.hazard import CONDITIONS, Condition, HazardConfig
from coldsnap.population import BuildingKind, Sector, code
from coldsnap.valuation import (
    COMPONENTS,
    MC_BATCH,
    PLACEHOLDER_CIC_TABLES,
    TRIAL_COLUMNS,
    CICParams,
    CICTable,
    CostDistribution,
    ScenarioBundle,
    ValuationParams,
    at_risk_chance,
    batch_rng,
    bernoulli_cells,
    draw_at_risk,
    hourly_wages,
    interruption_cost,
    lost_work_hours,
    repair_cost,
    run_monte_carlo,
    summarize,
    uniform_rows,
    work_steps,
)

from conftest import make_building, make_population
from oracles import (
    ExposureTrace,
    OccupantOutcome,
    OutcomeStatus,
    medical_cost,
    outcome_tree_probabilities,
    run_batch_sampled,
    run_trial,
)

UTC = timezone.utc


def outcome(status, condition=Condition.CARDIAC, insured=True):
    return OccupantOutcome(status, condition, status is OutcomeStatus.INJURED_RECOVERED_HOSPITAL,
                           insured)


class TestVslCost:
    """`run_monte_carlo` prices each trial's deaths at the value of a
    statistical life, exactly, in every row."""

    def test_zero_deaths(self):
        col = trial_columns(make_bundle(p_mort=0.02))
        none = col["n_death"] == 0
        assert none.any() and not none.all()
        assert (col["c_vsl"][none] == 0.0).all()

    def test_single_death_at_fema_value(self):
        col = trial_columns(make_bundle(p_mort=0.02))
        one = col["n_death"] == 1
        assert one.any()
        assert (col["c_vsl"][one] == 11.6e6).all()

    def test_linear_in_death_count(self):
        for p_mort in (0.3, 1.0):
            bundle = make_bundle(p_mort=p_mort)
            col = trial_columns(bundle)
            assert col["n_death"].max() > 1
            assert np.array_equal(col["c_vsl"], col["n_death"] * bundle.val_params.vsl_usd)


class TestMedicalCost:
    def test_no_injuries_is_zero(self):
        outcomes = [outcome(OutcomeStatus.UNAFFECTED, None),
                    outcome(OutcomeStatus.DEATH)]
        assert medical_cost(outcomes, [0.3, 0.3], ValuationParams()) == 0.0

    def test_insured_at_severity_ceiling_bills_range_max(self):
        params = ValuationParams()
        cases = [outcome(OutcomeStatus.INJURED_RECOVERED_HOSPITAL, insured=True)]
        assert medical_cost(cases, [params.severity_ceiling], params) == pytest.approx(6282.0)

    def test_uninsured_at_zero_severity_bills_range_min(self):
        cases = [outcome(OutcomeStatus.INJURED_RECOVERED_HOSPITAL, insured=False)]
        assert medical_cost(cases, [0.0], ValuationParams()) == pytest.approx(3162.0)

    def test_home_recovery_bills_fraction_of_insured_min(self):
        params = ValuationParams()
        cases = [outcome(OutcomeStatus.INJURED_RECOVERED_HOME)]
        assert medical_cost(cases, [0.4], params) == pytest.approx(0.25 * 1014.0)

    def test_severity_interpolates_linearly(self):
        params = ValuationParams()
        cases = [outcome(OutcomeStatus.INJURED_RECOVERED_HOSPITAL, insured=True)]
        mid = medical_cost(cases, [params.severity_ceiling / 2], params)
        assert mid == pytest.approx((1014.0 + 6282.0) / 2)


class TestProductivityCost:
    def make_trace(self, t_in, powered, start_hour=8, n=96, dt_s=300.0):
        start = datetime(2021, 2, 15, start_hour, tzinfo=UTC)
        return ExposureTrace(
            building_id=0, start=start, dt_s=dt_s,
            t_in_c=np.full(n, float(t_in)),
            powered=np.full(n, powered, dtype=bool),
            hvac_kw=np.zeros(n),
        )

    def cost(self, trace, building, params, model):
        """Lost wages of one building: its workers x its lost work hours,
        from a one-row block, x its wage."""
        pop = make_population([building])
        steps = [work_steps(trace.start, trace.dt_s, trace.n_steps, hours)
                 for hours in (params.work_hours_residential, params.work_hours_commercial)]
        (lost_h,) = lost_work_hours(trace.t_in_c[None, :], trace.powered[None, :],
                                    pop.sector == code(Sector.RESIDENTIAL),
                                    pop.job_requires_power, steps, trace.dt_s, model)
        (usd,) = pop.n_workers * lost_h * hourly_wages(pop, params)
        return usd

    def test_full_performance_costs_nothing(self):
        cfg = HazardConfig()
        grid = np.arange(10.0, 32.0, 0.01)
        argmax = grid[np.argmax(cfg.productivity_model.evaluate(grid))]
        office = make_building(0, kind=BuildingKind.OFFICE, n_workers=10)
        trace = self.make_trace(argmax, True)
        cost = self.cost(trace, office, ValuationParams(), cfg.productivity_model)
        assert cost == pytest.approx(0.0, abs=1e-4)

    def test_office_example_value(self):
        # 10 workers, wage 37.88, zero performance for the 8 h window.
        cfg = HazardConfig()
        office = make_building(0, kind=BuildingKind.OFFICE, n_workers=10,
                               job_requires_power=True)
        trace = self.make_trace(20.0, False)  # unpowered, power-required job
        params = ValuationParams(work_hours_commercial=(8, 16))
        cost = self.cost(trace, office, params, cfg.productivity_model)
        assert cost == pytest.approx(10 * 1 * 37.88 * 8, abs=1e-9)

    def test_unpowered_hour_power_required_job_loses_full_wage(self):
        cfg = HazardConfig()
        home = make_building(0, n_workers=1, job_requires_power=True)
        n = 12  # one hour
        start = datetime(2021, 2, 15, 9, tzinfo=UTC)
        trace = ExposureTrace(0, start, 300.0, np.full(n, 22.0),
                              np.zeros(n, dtype=bool), np.zeros(n))
        cost = self.cost(trace, home, ValuationParams(), cfg.productivity_model)
        assert cost == pytest.approx(45.51 * 1.0, abs=1e-9)

    def test_non_power_job_keeps_thermal_performance_when_dark(self):
        cfg = HazardConfig()
        home = make_building(0, n_workers=1, job_requires_power=False)
        n = 12
        start = datetime(2021, 2, 15, 9, tzinfo=UTC)
        trace = ExposureTrace(0, start, 300.0, np.full(n, 22.0),
                              np.zeros(n, dtype=bool), np.zeros(n))
        cost = self.cost(trace, home, ValuationParams(), cfg.productivity_model)
        perf = float(cfg.productivity_model.evaluate(22.0))
        assert cost == pytest.approx((1 - perf) * 45.51, abs=1e-9)


    def test_wages_are_zero_without_workers_and_name_the_first_missing_kind(self):
        # Building order, not the kinds' order, picks the kind named.
        buildings = [make_building(0, n_workers=0),
                     make_building(1, kind=BuildingKind.FOOD_SERVICE, n_workers=3),
                     make_building(2, kind=BuildingKind.OFFICE, n_workers=2),
                     make_building(3, kind=BuildingKind.BIG_BOX, n_workers=4)]
        params = ValuationParams(wage_usd_per_hour={BuildingKind.OFFICE: 30.0})
        with pytest.raises(ConfigurationError, match="no wage for 'food_service'") as info:
            hourly_wages(make_population(buildings), params)
        assert info.value.key == "valuation.wage_usd_per_hour"
        wages = hourly_wages(make_population([buildings[0], buildings[2]]), params)
        assert wages.tolist() == [0.0, 30.0]


def repair(wi, beta_wi, params, p_insured, rng):
    """Repair cost of one trial, from a one-trial batch."""
    (usd,) = repair_cost(wi, beta_wi, params, p_insured, rng, 1)
    return usd


class TestRepairCost:
    def certain_insurance(self, insured=True):
        return 1.0 if insured else 0.0

    def test_zero_index_costs_nothing(self):
        rng = np.random.default_rng(1)
        assert repair(np.zeros(100), 1000.0, ValuationParams(),
                      self.certain_insurance(), rng) == 0.0

    def test_full_index_insured_bills_2000(self):
        rng = np.random.default_rng(2)
        cost = repair(np.array([1000.0]), 1000.0, ValuationParams(),
                      self.certain_insurance(True), rng)
        assert cost == pytest.approx(2000.0)

    def test_half_index_uninsured_bills_2800_per_damaged(self):
        rng = np.random.default_rng(3)
        n = 1000
        cost = repair(np.full(n, 500.0), 1000.0, ValuationParams(),
                      self.certain_insurance(False), rng)
        per_case = 600.0 + 0.5 * (5000.0 - 600.0)
        n_damaged = cost / per_case
        assert n_damaged == pytest.approx(round(n_damaged))  # exact multiples
        sigma = math.sqrt(n * 0.5 * 0.5)
        assert abs(n_damaged - n * 0.5) < 3 * sigma

    def test_ratio_clamped_above_beta(self):
        rng = np.random.default_rng(4)
        cost = repair(np.array([5000.0]), 1000.0, ValuationParams(),
                      self.certain_insurance(True), rng)
        assert cost == pytest.approx(2000.0)

    def test_damage_and_insurance_rates(self):
        # Damaged at the index ratio; a damaged building insured at P(insured).
        params = ValuationParams()
        n, ratio, p_insured = 200_000, 0.3, 0.8
        cost = repair_cost(np.full(n, ratio * 1000.0), 1000.0, params, p_insured,
                           np.random.default_rng(6), 1)[0]
        insured = params.pipe_repair_insured_usd[0] + ratio * (
            params.pipe_repair_insured_usd[1] - params.pipe_repair_insured_usd[0])
        uninsured = params.pipe_repair_uninsured_usd[0] + ratio * (
            params.pipe_repair_uninsured_usd[1] - params.pipe_repair_uninsured_usd[0])
        expected = n * ratio * (p_insured * insured + (1.0 - p_insured) * uninsured)
        per_cell_var = (ratio * (p_insured * insured ** 2 + (1.0 - p_insured) * uninsured ** 2)
                        - (expected / n) ** 2)
        assert abs(cost - expected) < 4.0 * math.sqrt(n * per_cell_var)

    def test_higher_index_damages_a_superset_of_buildings(self):
        # One uniform per exposed building and trial: u < r is damaged, so
        # under one stream a building damaged at r is damaged at any r' >= r,
        # and one insured at r stays insured.
        rng = np.random.default_rng(14)
        wi = rng.uniform(1.0, 600.0, 400)
        higher = wi + rng.uniform(0.0, 400.0, 400) * (rng.random(400) < 0.5)
        params = ValuationParams(pipe_repair_insured_usd=(1.0, 1.0),
                                 pipe_repair_uninsured_usd=(1000.0, 1000.0))
        for b in range(10):
            u = batch_rng(2, b).random((MC_BATCH, len(wi)))
            damaged = [bernoulli_cells(u, np.clip(w / 1000.0, 0.0, 1.0)) for w in (wi, higher)]
            cells = [set(zip(trial.tolist(), index.tolist())) for trial, index in damaged]
            assert cells[0] and cells[0] < cells[1]
            # Insured buildings bill 1 and uninsured ones 1000, so each cost
            # counts both; fewer than 1000 buildings keep the counts apart.
            counts = []
            for w in (wi, higher):
                usd = repair_cost(w, 1000.0, params, 0.9, batch_rng(2, b), MC_BATCH)
                insured, uninsured = np.mod(usd, 1000.0), usd // 1000.0
                counts.append((insured, insured + uninsured))
            (insured_low, damaged_low), (insured_high, damaged_high) = counts
            assert (insured_low <= insured_high).all() and (damaged_low <= damaged_high).all()
            assert damaged_low.tolist() == np.bincount(damaged[0][0], minlength=MC_BATCH).tolist()


def cic(building, hours, params):
    """Interruption cost of one building, from a one-building block."""
    (usd,) = interruption_cost(make_population([building]), [hours], params)
    return usd


class TestInterruptionCost:
    def test_zero_duration_is_free(self):
        assert cic(make_building(), 0.0, CICParams()) == 0.0

    def test_slope_beyond_cap_is_linear(self):
        tables = {
            "residential": CICTable(base=10.0, per_hour=2.0, per_kwh=0.0,
                                    slope_beyond_cap=3.0),
            "small_ci": CICTable(0, 0, 0, 0),
            "large_medium_ci": CICTable(0, 0, 0, 0),
        }
        params = CICParams(tables=tables)
        b = make_building()
        c16 = cic(b, 16.0, params)
        c32 = cic(b, 32.0, params)
        assert c32 - c16 == pytest.approx(16.0 * 3.0)
        assert c16 == pytest.approx(10.0 + 2.0 * 16.0)

    def test_hourly_term_caps_at_16h(self):
        params = CICParams()
        b = make_building()
        c20 = cic(b, 20.0, params)
        table = PLACEHOLDER_CIC_TABLES["residential"]
        expected = (table.base + table.per_hour * 16.0
                    + table.per_kwh * b.avg_annual_kwh / 8760.0 * 20.0)
        expected += table.slope_beyond_cap * 4.0
        assert c20 == pytest.approx(expected)

    def test_residential_ignores_backup_flag(self):
        params = CICParams()
        plain = make_building(0)
        flagged = make_building(0, backup=True)
        assert cic(plain, 8.0, params) == pytest.approx(
            cic(flagged, 8.0, params))

    def test_small_ci_backup_discount_applies(self):
        params = CICParams()
        shop = make_building(0, kind=BuildingKind.STRIP_MALL, backup=False)
        shop_backup = make_building(0, kind=BuildingKind.STRIP_MALL, backup=True)
        base = cic(shop, 8.0, params)
        discounted = cic(shop_backup, 8.0, params)
        assert discounted == pytest.approx(base * params.backup_discount)

    def test_large_ci_uses_shared_table(self):
        params = CICParams()
        bigbox = make_building(0, kind=BuildingKind.BIG_BOX, avg_annual_kwh=1_000_000.0)
        office = make_building(0, kind=BuildingKind.OFFICE, avg_annual_kwh=1_000_000.0)
        assert cic(bigbox, 8.0, params) == pytest.approx(
            cic(office, 8.0, params))


def make_bundle(n_buildings=20, occupants_each=5, p_mort=0.3, wi=0.0,
                c_prod=1234.5, c_cic=777.0):
    return ScenarioBundle(
        p_mort_by_building=np.full(n_buildings, float(p_mort)),
        wi_sum_by_building=np.full(n_buildings, float(wi)),
        beta_wi=1000.0,
        occupants_by_building=np.full(n_buildings, occupants_each),
        c_prod=c_prod,
        c_cic=c_cic,
        hazard_cfg=HazardConfig(),
        val_params=ValuationParams(),
    )


def trial_columns(bundle, n_trials=3 * MC_BATCH + 5, master_seed=11) -> dict:
    """`run_monte_carlo`'s trials of `bundle` over a few batches, one array
    per `TRIAL_COLUMNS` name."""
    return dict(zip(TRIAL_COLUMNS, run_monte_carlo(bundle, n_trials, master_seed).trials.T))


class TestRunTrial:
    """The accounting of each trial row of `run_monte_carlo`."""

    def test_different_trials_differ(self):
        # One mortality for every building bills a handful of medical
        # amounts, so two trials with the same outcome counts would
        # coincide by chance; a spread of mortality makes each bill its own.
        bundle = dataclasses.replace(make_bundle(),
                                     p_mort_by_building=np.linspace(0.05, 0.45, 20))
        trials = run_monte_carlo(bundle, 3 * MC_BATCH + 5, master_seed=11).trials
        assert len(np.unique(trials, axis=0)) == len(trials)

    def test_deterministic_components_are_constant_across_trials(self):
        bundle = make_bundle(wi=400.0)
        col = trial_columns(bundle)
        assert (col["c_prod"] == bundle.c_prod).all()
        assert (col["c_cic"] == bundle.c_cic).all()

    def test_counts_bounded_by_population(self):
        for p_mort in (0.3, 1.0):
            bundle = make_bundle(p_mort=p_mort)
            col = trial_columns(bundle)
            people = col["n_death"] + col["n_injured"]
            assert (col["n_death"] >= 0).all() and (col["n_injured"] >= 0).all()
            assert (people <= bundle.occupants_by_building.sum()).all()
            # Certain mortality puts every occupant at risk in every trial.
            assert (people == bundle.occupants_by_building.sum()).all() == (p_mort == 1.0)

    def test_all_components_nonnegative_and_total_exact(self):
        bundle = make_bundle(wi=400.0)
        dist = run_monte_carlo(bundle, 3 * MC_BATCH + 5, master_seed=9)
        total = 0.0
        for name in COMPONENTS:
            assert (dist.component(name) >= 0.0).all(), name
            total = total + dist.component(name)
        assert dist.component("c_build").any() and dist.component("c_medical").any()
        assert np.array_equal(dist.component("total"), total)


class TestRunMonteCarlo:
    def test_fewer_trials_are_a_prefix(self):
        # Trial i depends only on (seed, i): a shorter run is the first rows
        # of a longer one, whether it ends inside a batch or on its edge.
        bundle = make_bundle(wi=400.0)
        full = run_monte_carlo(bundle, 3 * MC_BATCH + 5, master_seed=4).trials
        for n in (1, MC_BATCH - 1, MC_BATCH, 2 * MC_BATCH + 3):
            assert np.array_equal(run_monte_carlo(bundle, n, master_seed=4).trials, full[:n])

    def test_parallelism_does_not_change_results(self):
        bundle = make_bundle()
        serial = run_monte_carlo(bundle, 3 * MC_BATCH + 7, master_seed=4, threads=1)
        parallel = run_monte_carlo(bundle, 3 * MC_BATCH + 7, master_seed=4, threads=8)
        assert np.array_equal(serial.trials, parallel.trials)

    @pytest.mark.parametrize("width", [0, 1, 300])
    def test_uniform_rows_are_one_draw_of_the_block(self, monkeypatch, width):
        monkeypatch.setattr(valuation, "DRAW_BYTES", 8 * 7)
        chunked, whole = batch_rng(1, 2), batch_rng(1, 2)
        blocks = list(uniform_rows(chunked, MC_BATCH, width))
        step = max(1, 7 // max(width, 1))
        assert [first for first, _ in blocks] == list(range(0, MC_BATCH, step))
        assert np.array_equal(np.concatenate([u for _, u in blocks]),
                              whole.random((MC_BATCH, width)))
        assert chunked.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("rows", [1, 5, MC_BATCH - 1])
    def test_trials_drawn_a_few_rows_at_a_time_are_the_same(self, monkeypatch, rows):
        # 37 buildings at risk, 24 of them exposed to freeze damage: a budget
        # of `rows` rows of the at-risk block splits both draws.
        bundle = dataclasses.replace(
            make_bundle(n_buildings=37),
            wi_sum_by_building=np.where(np.arange(37) % 3, 400.0, 0.0))
        whole = run_monte_carlo(bundle, 2 * MC_BATCH + 9, master_seed=6).trials
        assert whole[:, TRIAL_COLUMNS.index("c_build")].any()
        monkeypatch.setattr(valuation, "DRAW_BYTES", 8 * 37 * rows)
        assert np.array_equal(run_monte_carlo(bundle, 2 * MC_BATCH + 9, master_seed=6).trials,
                              whole)

    def test_mean_deaths_match_closed_form(self):
        # Expected deaths per trial from the analytic tree with exact
        # truncated means; Monte-Carlo mean within 3 sigma.
        bundle = make_bundle(n_buildings=20, occupants_each=5, p_mort=0.3)
        n_trials = 2000
        dist = run_monte_carlo(bundle, n_trials, master_seed=21)

        def trunc_mean(rate):
            loc, std, lo, hi = rate
            return stats.truncnorm.mean((lo - loc) / std, (hi - loc) / std, loc=loc,
                                        scale=std) / 100.0

        cfg = bundle.hazard_cfg
        exact = outcome_tree_probabilities(
            0.3, trunc_mean(cfg.distributions_pct.pre_existing_cardiac),
            trunc_mean(cfg.distributions_pct.pre_existing_respiratory),
            trunc_mean(cfg.distributions_pct.healthcare_access),
            {c: trunc_mean(cfg.distributions_pct.hospital_survival[c]) for c in CONDITIONS},
            {c: trunc_mean(cfg.distributions_pct.home_survival[c]) for c in CONDITIONS},
        )
        n_occ = bundle.occupants_by_building.sum()
        expected_deaths = n_occ * exact["death"]
        observed = dist.component("n_death")
        sigma_mean = math.sqrt(n_occ * exact["death"] * (1 - exact["death"]) / n_trials)
        assert abs(observed.mean() - expected_deaths) < 3 * sigma_mean

    def test_doubling_population_doubles_expected_costs(self):
        # c_cic doubles exactly (deterministic); c_vsl within 2% at 1e4 trials.
        small = make_bundle(n_buildings=10, occupants_each=5, p_mort=0.35,
                            c_cic=500.0, c_prod=100.0)
        big = make_bundle(n_buildings=20, occupants_each=5, p_mort=0.35,
                          c_cic=1000.0, c_prod=200.0)
        n = 10_000
        dist_small = run_monte_carlo(small, n, master_seed=31)
        dist_big = run_monte_carlo(big, n, master_seed=32)
        assert big.c_cic == pytest.approx(2 * small.c_cic)
        vsl_small = dist_small.component("c_vsl").mean()
        vsl_big = dist_big.component("c_vsl").mean()
        assert vsl_big / vsl_small == pytest.approx(2.0, rel=0.02)

    def test_kernel_matches_one_trial_oracle_in_distribution(self):
        # Batched binomial kernel against the per-occupant, per-trial oracle
        # on buildings of mixed size, mortality and freeze index.
        n_b = 24
        bundle = make_bundle(n_buildings=n_b, wi=0.0)
        bundle = dataclasses.replace(
            bundle,
            occupants_by_building=np.arange(n_b) % 5,
            p_mort_by_building=np.linspace(0.0, 0.6, n_b),
            wi_sum_by_building=np.where(np.arange(n_b) % 3 == 0, 0.0,
                                        np.linspace(0.0, 1500.0, n_b)),
        )
        n = 4000
        kernel = run_monte_carlo(bundle, n, master_seed=8)
        oracle = [run_trial(bundle, i, 9) for i in range(n)]
        for name in ("c_vsl", "c_medical", "c_build", "n_death", "n_injured"):
            a = kernel.component(name)
            b = np.array([getattr(t, name) for t in oracle], dtype=float)
            se = math.sqrt(a.var() / n + b.var() / n)
            assert se > 0.0, name
            assert abs(a.mean() - b.mean()) < 4.0 * se, name

    def test_kernel_matches_sampled_kernel_on_demo_co(self, demo_config_path):
        # The categorical outcome and repair draws against the batch kernel
        # that samples every rate, on the demo population under co: per-trial
        # means within 4 SE and a two-sample KS test.
        from coldsnap.scenario import assemble_bundle, build_schedules, load_config, read_inputs
        from coldsnap.population import synthesize_population

        config = load_config(demo_config_path, {"scenario": "co"})
        pop = synthesize_population(config.population_spec, config.seed)
        schedule = build_schedules(config, pop)
        bundle, _ = assemble_bundle(config, pop, schedule, *read_inputs(config, pop, schedule))
        n = 40 * MC_BATCH
        kernel = run_monte_carlo(bundle, n, master_seed=8)
        oracle = CostDistribution(np.concatenate(
            [run_batch_sampled(bundle, b, 9) for b in range(n // MC_BATCH)]))
        for name in ("n_death", "c_medical", "c_build"):
            a, b = kernel.component(name), oracle.component(name)
            se = math.sqrt(a.var() / n + b.var() / n)
            assert se > 0.0, name
            assert abs(a.mean() - b.mean()) < 4.0 * se, name
            assert stats.ks_2samp(a, b).pvalue > 1e-3, name

    def test_zero_mortality_and_zero_index_cost_exactly_nothing(self):
        no_risk = run_monte_carlo(make_bundle(p_mort=0.0, wi=400.0), 2 * MC_BATCH, 3)
        for name in ("n_death", "n_injured", "c_vsl", "c_medical"):
            assert not no_risk.component(name).any(), name
        assert no_risk.component("c_build").any()
        no_index = run_monte_carlo(make_bundle(p_mort=0.5, wi=0.0), 2 * MC_BATCH, 3)
        assert not no_index.component("c_build").any()
        assert no_index.component("n_death").any()


def at_risk_table(occupants, p_mort, n_batches, seed=0):
    """Per-(trial, building) at-risk counts over `n_batches` batch streams,
    zeros included; numpy floating-point errors and warnings raise."""
    table = np.zeros((n_batches * MC_BATCH, len(occupants)), dtype=np.int64)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        chance = at_risk_chance(occupants, p_mort)
        for b in range(n_batches):
            trial, building, count = draw_at_risk(batch_rng(seed, b), occupants, p_mort,
                                                  chance, MC_BATCH)
            assert (count >= 1).all() and (count <= occupants[building]).all()
            table[b * MC_BATCH + trial, building] = count
    return table


class TestDrawAtRisk:
    def test_cell_counts_match_binomial(self):
        # Chi-square per building against Binomial(n, p), bins pooled to an
        # expected count of at least 5. 2e12 occupants at p = 1e-12 fire in
        # about 86 % of trials, so the zero-truncated count runs at a tiny p.
        occupants = np.array([1, 1, 5, 4, 12, 2, 3, 2 * 10**12, 7, 0, 6])
        p_mort = np.array([0.3, 1.0, 1.0, 0.05, 0.2, 0.5, 0.97, 1e-12, 1e-12, 0.9, 0.0])
        table = at_risk_table(occupants, p_mort, 300, seed=5)
        n_trials = len(table)
        for b, (n, p) in enumerate(zip(occupants.tolist(), p_mort.tolist())):
            counts = table[:, b]
            if p == 1.0:
                assert (counts == n).all(), b
                continue
            if n * p < 1e-9:  # zero, or about 1e-7 expected draws in all
                assert not counts.any(), b
                continue
            k = np.arange(min(n, 40) + 1)
            expected = stats.binom.pmf(k, n, p) * n_trials
            observed = np.bincount(np.minimum(counts, k[-1]), minlength=k.size).astype(float)
            expected[-1] += stats.binom.sf(k[-1], n, p) * n_trials
            small = expected < 5.0
            if small.any():
                observed = np.append(observed[~small], observed[small].sum())
                expected = np.append(expected[~small], expected[small].sum())
            _, p_value = stats.chisquare(observed, expected)
            assert p_value > 1e-3, (b, n, p, observed, expected)

    def test_higher_probability_fires_a_superset_of_cells(self):
        # Same occupants and seed: the cells with anyone at risk under p are
        # among those under any p' >= p, since both compare one shared block
        # of uniforms with q(p) <= q(p').
        rng = np.random.default_rng(12)
        occupants = rng.integers(0, 8, 300)
        low = rng.uniform(0.0, 0.05, 300) * (rng.random(300) < 0.8)
        high = np.minimum(low + rng.uniform(0.0, 0.05, 300) * (rng.random(300) < 0.5), 1.0)
        high[:5] = 1.0
        for b in range(20):
            fired = [set(zip(*draw_at_risk(batch_rng(3, b), occupants, p,
                                           at_risk_chance(occupants, p), MC_BATCH)[:2]))
                     for p in (low, high)]
            assert fired[0] and fired[0] < fired[1]


def distribution(c_vsl) -> CostDistribution:
    """Trials whose only nonzero column is c_vsl."""
    trials = np.zeros((len(c_vsl), len(TRIAL_COLUMNS)))
    trials[:, TRIAL_COLUMNS.index("c_vsl")] = c_vsl
    return CostDistribution(trials)


class TestSummarize:
    def test_constant_trials_have_zero_std_and_equal_percentiles(self):
        dist = distribution([7.0] * 9)
        summary, _ = summarize(dist)
        assert summary["total"]["std"] == 0.0
        assert summary["total"]["se"] == 0.0
        assert summary["total"]["p5"] == summary["total"]["p50"] == summary["total"]["p95"] == 7.0

    def test_two_trials_mean(self):
        dist = distribution([0.0, 10.0])
        summary, _ = summarize(dist)
        assert summary["total"]["mean"] == pytest.approx(5.0)

    def test_median_of_odd_count_is_middle_element(self):
        values = [3.0, 9.0, 1.0, 7.0, 5.0]
        dist = distribution(values)
        summary, _ = summarize(dist)
        assert summary["total"]["p50"] == 5.0

    def test_histogram_counts_cover_all_trials(self):
        rng = np.random.default_rng(8)
        dist = distribution(rng.uniform(0, 100, 500))
        _, histogram = summarize(dist, histogram_bins=20)
        assert len(histogram) == 20
        assert sum(count for _, _, count in histogram) == 500

    def test_summary_recomputable_from_trials(self):
        rng = np.random.default_rng(9)
        dist = distribution(rng.uniform(0, 50, 101))
        summary, _ = summarize(dist)
        totals = dist.component("total")
        assert summary["total"]["mean"] == pytest.approx(totals.mean())
        assert summary["total"]["std"] == pytest.approx(totals.std())
        assert summary["total"]["se"] == pytest.approx(totals.std() / math.sqrt(101))
        assert summary["total"]["p50"] == float(np.sort(totals)[50])
