import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from coldsnap import defaults
from coldsnap.errors import ConfigurationError
from coldsnap.hazard import (
    CONDITIONS,
    Condition,
    HazardConfig,
    ProductivityModel,
    RRModel,
    TruncNormal,
    WinterIndexParams,
    winter_index_sum,
)

from oracles import (
    OutcomeStatus,
    base_mortality,
    outcome_tree_probabilities,
    productivity,
    relative_risk,
    sample_truncated_normal,
    simulate_occupant_outcome,
    simulate_outcomes,
)

GRID = np.arange(-15.0, 30.0 + 1e-9, 0.1)


@pytest.fixture(scope="module")
def rr_model():
    return RRModel.default()


@pytest.fixture(scope="module")
def prod_model():
    return ProductivityModel.default()


class TestRelativeRisk:
    def test_minimum_over_grid_is_one(self, rr_model):
        values = rr_model.evaluate(GRID)
        assert 1.0 - 1e-9 <= values.min() <= 1.0 + 1e-6

    def test_value_at_comfort_minimum_is_one(self, rr_model):
        mmt = GRID[np.argmin(rr_model.evaluate(GRID))]
        assert relative_risk(float(mmt), rr_model) == pytest.approx(1.0, abs=1e-6)

    def test_below_range_clamps_to_lower_bound(self, rr_model):
        assert relative_risk(-40.0, rr_model) == pytest.approx(
            relative_risk(rr_model.t_min_c, rr_model))

    def test_minus10_in_band_and_above_plus10(self, rr_model):
        cold = relative_risk(-10.0, rr_model)
        mild = relative_risk(10.0, rr_model)
        assert 1.0 < cold < 2.0
        assert cold > mild

    def test_cold_limb_monotone_on_grid(self, rr_model):
        values = rr_model.evaluate(GRID)
        mmt_idx = int(np.argmin(values))
        cold = values[: mmt_idx + 1]
        assert np.all(np.diff(cold) <= 1e-12)

    def test_unnormalized_model_rejected(self):
        with pytest.raises(ConfigurationError, match="minimum"):
            RRModel(coefficients=(0.0, 0.0, 0.0, 0.0, 2.0), t_min_c=-15.0, t_max_c=30.0)

    def test_fit_residual_recorded(self, rr_model):
        assert rr_model.fit_residual < 1e-3
        assert len(rr_model.fit_points) == len(defaults.RR_CURVE_ANCHORS)


class TestBaseMortality:
    class ConstantRR:
        def __init__(self, value):
            self.value = value

        def evaluate(self, t):
            return np.full(np.asarray(t, dtype=float).shape, self.value)

    def test_constant_comfort_trace_gives_zero(self, rr_model):
        mmt = GRID[np.argmin(rr_model.evaluate(GRID))]
        trace = np.full(100, float(mmt))
        assert base_mortality(trace, rr_model, 0.0) == pytest.approx(0.0, abs=1e-6)

    def test_constant_rr_143_gives_043(self):
        model = self.ConstantRR(1.43)
        assert base_mortality(np.zeros(10), model, 0.0) == pytest.approx(0.43)

    def test_delta_shifts_additively(self, rr_model):
        trace = np.full(50, 5.0)
        base = base_mortality(trace, rr_model, 0.0)
        assert base_mortality(trace, rr_model, 0.05) == pytest.approx(base + 0.05)

    def test_clamped_to_unit_interval(self):
        assert base_mortality(np.zeros(5), self.ConstantRR(3.5), 0.0) == 1.0
        assert base_mortality(np.zeros(5), self.ConstantRR(1.0), -0.5) == 0.0

    def test_empty_trace_rejected(self, rr_model):
        with pytest.raises(ConfigurationError):
            base_mortality(np.array([]), rr_model, 0.0)

    def test_colder_constant_traces_never_decrease_p_mort(self, rr_model):
        temps = np.arange(-15.0, 20.0, 0.5)
        values = [base_mortality(np.full(10, t), rr_model, 0.0) for t in temps]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestProductivity:
    def test_peak_is_one_within_tolerance(self, prod_model):
        grid = np.arange(prod_model.t_min_c, prod_model.t_max_c + 1e-9, 0.1)
        values = prod_model.evaluate(grid)
        assert values.max() == pytest.approx(1.0, abs=1e-6)
        argmax = grid[np.argmax(values)]
        assert 21.0 <= argmax <= 23.5

    def test_far_below_range_clamps_nonnegative(self, prod_model):
        low = productivity(-30.0, prod_model)
        assert low == pytest.approx(productivity(prod_model.t_min_c, prod_model))
        assert low >= 0.0

    def test_18_beats_10(self, prod_model):
        assert productivity(18.0, prod_model) > productivity(10.0, prod_model)

    @given(st.floats(min_value=-100.0, max_value=150.0))
    @settings(max_examples=60, deadline=None)
    def test_always_in_unit_interval(self, t):
        model = ProductivityModel.default()
        assert 0.0 <= productivity(t, model) <= 1.0


class TestWinterIndex:
    def test_warm_trace_contributes_nothing(self):
        params = WinterIndexParams()
        assert winter_index_sum(np.full(10, 5.0), np.full(10, 95.0), params) == 0.0

    def test_single_step_product(self):
        params = WinterIndexParams()  # T_crit 0, RH_crit 80
        t = np.array([5.0, -5.0, 5.0])
        rh = np.array([95.0, 90.0, 95.0])
        assert winter_index_sum(t, rh, params) == pytest.approx(5.0 * 10.0)

    def test_dry_cold_contributes_nothing(self):
        params = WinterIndexParams()
        assert winter_index_sum(np.full(10, -20.0), np.full(10, 60.0), params) == 0.0

    def test_constant_indoor_rh_override(self):
        params = WinterIndexParams(indoor_rh_pct=90.0)
        value = winter_index_sum(np.array([-2.0]), np.array([10.0]), params)
        assert value == pytest.approx(2.0 * 10.0)

    def test_alignment_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            winter_index_sum(np.zeros(5), np.zeros(4), WinterIndexParams())

    @given(
        temps=st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=40),
        rhs=st.lists(st.floats(min_value=0, max_value=100), min_size=40, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_zero_iff_no_step_passes_both_gates(self, temps, rhs):
        params = WinterIndexParams()
        t = np.array(temps)
        rh = np.array(rhs[: len(temps)])
        total = winter_index_sum(t, rh, params)
        any_gate = bool(np.any((t < params.t_crit_c) & (rh > params.rh_crit_pct)))
        assert (total > 0.0) == any_gate
        assert total >= 0.0


class TestTruncNormal:
    def test_table_means_recovered_at_1e6_draws(self):
        # Empirical mean must match the exact truncated-normal mean; where
        # truncation is negligible that coincides with the nominal mean.
        # home_insurance (95.9, std 3, max 100) genuinely loses ~0.5 to the
        # upper cut, so only the exact mean is a fair target there.
        rng = np.random.default_rng(123)
        for name, (mean, std, lo, hi) in defaults.HEALTH_STATS_PCT.items():
            dist = TruncNormal(mean, std, lo, hi)
            draws = dist.sample(rng, 1_000_000)
            a, b = (lo - mean) / std, (hi - mean) / std
            exact = stats.truncnorm.mean(a, b, loc=mean, scale=std)
            assert abs(draws.mean() - exact) < 0.1, name
            if name != "home_insurance":
                assert abs(draws.mean() - mean) < 0.1, name
            assert draws.min() >= lo and draws.max() <= hi, name

    def test_cardiac_mean_within_half_tenth(self):
        rng = np.random.default_rng(7)
        dist = TruncNormal(*defaults.HEALTH_STATS_PCT["pre_existing_cardiac"])
        draws = dist.sample(rng, 1_000_000)
        assert abs(draws.mean() - 5.1) < 0.05

    def test_matches_scipy_truncated_mean(self):
        # Independent route: closed-form truncated-normal mean from scipy.
        rng = np.random.default_rng(99)
        dist = TruncNormal(10.0, 8.0, 0.0, 100.0)  # truncation actually bites
        draws = dist.sample(rng, 400_000)
        a, b = (dist.lo - dist.mean) / dist.std, (dist.hi - dist.mean) / dist.std
        exact = stats.truncnorm.mean(a, b, loc=dist.mean, scale=dist.std)
        assert abs(draws.mean() - exact) < 0.05
        assert exact != pytest.approx(10.0, abs=0.1)  # shift is real

    def test_tight_std_concentrates(self):
        rng = np.random.default_rng(5)
        dist = TruncNormal(50.0, 1e-6, 0.0, 100.0)
        draws = dist.sample(rng, 1000)
        assert np.abs(draws - 50.0).max() < 1e-4

    def test_scalar_draw_in_window(self):
        rng = np.random.default_rng(6)
        dist = TruncNormal(89.4, 3.0, 0.0, 100.0)
        value = sample_truncated_normal(dist, rng)
        assert isinstance(value, float)
        assert 0.0 <= value <= 100.0

    def test_degenerate_window_rejected(self):
        with pytest.raises(ConfigurationError, match="rejection"):
            TruncNormal(0.0, 1.0, 50.0, 100.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            TruncNormal(10.0, 0.0, 0.0, 100.0)
        with pytest.raises(ConfigurationError):
            TruncNormal(10.0, 1.0, 5.0, 1.0)


FIXED_PROBS = {
    "p_pre_c": 0.051,
    "p_pre_r": 0.073,
    "p_access": 0.894,
    "p_heal_ins": 0.794,
    "hospital_surv": {Condition.CARDIAC: 0.893, Condition.RESPIRATORY: 0.830,
                      Condition.HYPOTHERMIA_FROST: 0.919},
    "home_surv": {Condition.CARDIAC: 0.193, Condition.RESPIRATORY: 0.130,
                  Condition.HYPOTHERMIA_FROST: 0.789},
}


class TestOutcomeTreeScalar:
    def test_zero_mortality_is_unaffected(self):
        rng = np.random.default_rng(1)
        outcome = simulate_occupant_outcome(0.0, FIXED_PROBS, rng)
        assert outcome.status is OutcomeStatus.UNAFFECTED
        assert outcome.condition is Condition.NONE

    def test_forced_hospital_recovery_path(self):
        rng = np.random.default_rng(2)
        probs = dict(FIXED_PROBS)
        probs["p_access"] = 1.0
        probs["hospital_surv"] = {c: 1.0 for c in CONDITIONS}
        for _ in range(200):
            outcome = simulate_occupant_outcome(1.0, probs, rng)
            assert outcome.status is OutcomeStatus.INJURED_RECOVERED_HOSPITAL

    def test_frequencies_match_closed_form_oracle(self):
        # 1e6 scalar walks vs the analytic tree, 3-sigma binomial bands.
        rng = np.random.default_rng(2024)
        p_mort = 0.3
        n = 1_000_000
        counts = {status: 0 for status in OutcomeStatus}
        cond_counts = {c: 0 for c in CONDITIONS}
        for _ in range(n):
            outcome = simulate_occupant_outcome(p_mort, FIXED_PROBS, rng)
            counts[outcome.status] += 1
            if outcome.condition is not Condition.NONE:
                cond_counts[outcome.condition] += 1
        exact = outcome_tree_probabilities(
            p_mort, FIXED_PROBS["p_pre_c"], FIXED_PROBS["p_pre_r"], FIXED_PROBS["p_access"],
            FIXED_PROBS["hospital_surv"], FIXED_PROBS["home_surv"])
        for key, status in (("death", OutcomeStatus.DEATH),
                            ("injured_recovered_hospital", OutcomeStatus.INJURED_RECOVERED_HOSPITAL),
                            ("injured_recovered_home", OutcomeStatus.INJURED_RECOVERED_HOME)):
            p = exact[key]
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[status] / n - p) < 3 * sigma, key
        # Conditional condition marginals among at-risk occupants.
        at_risk = n - counts[OutcomeStatus.UNAFFECTED]
        for cond, target in ((Condition.CARDIAC, FIXED_PROBS["p_pre_c"]),
                             (Condition.RESPIRATORY, FIXED_PROBS["p_pre_r"])):
            p = target
            sigma = math.sqrt(p * (1 - p) / at_risk)
            assert abs(cond_counts[cond] / at_risk - p) < 3 * sigma, cond

    def test_invalid_probability_rejected(self):
        rng = np.random.default_rng(3)
        probs = dict(FIXED_PROBS)
        probs["p_access"] = 1.5
        with pytest.raises(ConfigurationError):
            simulate_occupant_outcome(0.5, probs, rng)


class TestOutcomeTreeVectorized:
    def test_matches_closed_form_with_distribution_draws(self):
        # Vectorized engine path with per-occupant truncated-normal draws;
        # oracle uses scipy's exact truncated means.
        cfg = HazardConfig()
        rng = np.random.default_rng(77)
        n_occ, n_rep = 500, 400
        p_mort = np.full(n_occ, 0.3)
        deaths = hospital = home = 0
        for _ in range(n_rep):
            batch = simulate_outcomes(p_mort, cfg, rng)
            deaths += int((batch.status == 3).sum())
            hospital += int((batch.status == 2).sum())
            home += int((batch.status == 1).sum())
        n = n_occ * n_rep

        def trunc_mean(tn):
            a, b = (tn.lo - tn.mean) / tn.std, (tn.hi - tn.mean) / tn.std
            return stats.truncnorm.mean(a, b, loc=tn.mean, scale=tn.std) / 100.0

        exact = outcome_tree_probabilities(
            0.3,
            trunc_mean(cfg.distributions_pct.pre_existing_cardiac),
            trunc_mean(cfg.distributions_pct.pre_existing_respiratory),
            trunc_mean(cfg.distributions_pct.healthcare_access),
            {c: trunc_mean(cfg.distributions_pct.hospital_survival[c]) for c in CONDITIONS},
            {c: trunc_mean(cfg.distributions_pct.home_survival[c]) for c in CONDITIONS},
        )
        for label, observed, key in (("death", deaths, "death"),
                                     ("hospital", hospital, "injured_recovered_hospital"),
                                     ("home", home, "injured_recovered_home")):
            p = exact[key]
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(observed / n - p) < 3 * sigma, label

    def test_empty_at_risk_short_circuit(self):
        cfg = HazardConfig()
        rng = np.random.default_rng(1)
        batch = simulate_outcomes(np.zeros(50), cfg, rng)
        assert batch.n_death == 0
        assert batch.n_injured == 0
        assert np.all(batch.condition == -1)
