import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from coldsnap.errors import ConfigurationError
from coldsnap.hazard import (
    CONDITIONS,
    Condition,
    HazardConfig,
    HealthDistributions,
    OutcomeTable,
    ProductivityModel,
    RRModel,
    TruncNormal,
    WinterIndexParams,
    resolve_at_risk,
    respiratory_share_pct,
    winter_index_rows,
)

from conftest import RATE_NAMES, shipped_rates
from oracles import (
    STATUS_DEATH,
    OutcomeStatus,
    base_mortality,
    decode_outcome,
    outcome_tree_probabilities,
    productivity,
    relative_risk,
    resolve_at_risk_sampled,
    sample_truncated_normal,
    simulate_occupant_outcome,
    simulate_outcomes,
    winter_index_sum,
)

GRID = np.arange(-15.0, 30.0 + 1e-9, 0.1)


@pytest.fixture(scope="module")
def rr_model():
    return RRModel()


@pytest.fixture(scope="module")
def prod_model():
    return ProductivityModel()


class TestRelativeRisk:
    def test_minimum_over_grid_is_one(self, rr_model):
        values = rr_model.evaluate(GRID)
        assert 1.0 - 1e-9 <= values.min() <= 1.0 + 1e-6

    def test_value_at_comfort_minimum_is_one(self, rr_model):
        mmt = GRID[np.argmin(rr_model.evaluate(GRID))]
        assert relative_risk(float(mmt), rr_model) == pytest.approx(1.0, abs=1e-6)

    def test_below_range_clamps_to_lower_bound(self, rr_model):
        assert relative_risk(-40.0, rr_model) == pytest.approx(
            relative_risk(rr_model.valid_range_c[0], rr_model))

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
            RRModel(coefficients_high_to_low=(0.0, 0.0, 0.0, 0.0, 2.0), valid_range_c=(-15.0, 30.0))

    def test_fit_residual_recorded(self, rr_model):
        assert rr_model.fit_max_abs_residual < 1e-3
        assert len(rr_model.fit_points) == len(RRModel.ANCHORS)


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
        grid = np.arange(prod_model.valid_range_c[0], prod_model.valid_range_c[1] + 1e-9, 0.1)
        values = prod_model.evaluate(grid)
        assert values.max() == pytest.approx(1.0, abs=1e-6)
        argmax = grid[np.argmax(values)]
        assert 21.0 <= argmax <= 23.5

    def test_far_below_range_clamps_nonnegative(self, prod_model):
        low = productivity(-30.0, prod_model)
        assert low == pytest.approx(productivity(prod_model.valid_range_c[0], prod_model))
        assert low >= 0.0

    def test_18_beats_10(self, prod_model):
        assert productivity(18.0, prod_model) > productivity(10.0, prod_model)

    @given(st.floats(min_value=-100.0, max_value=150.0))
    @settings(max_examples=60, deadline=None)
    def test_always_in_unit_interval(self, t):
        model = ProductivityModel()
        assert 0.0 <= productivity(t, model) <= 1.0


def winter_index(t, rh, params):
    """`winter_index_rows` of one trace, as a one-row block."""
    (value,) = winter_index_rows(np.asarray(t, dtype=float)[None, :], rh, params)
    return value


class TestWinterIndex:
    def test_warm_trace_contributes_nothing(self):
        params = WinterIndexParams()
        assert winter_index(np.full(10, 5.0), np.full(10, 95.0), params) == 0.0

    def test_single_step_product(self):
        params = WinterIndexParams()  # T_crit 0, RH_crit 80
        t = np.array([5.0, -5.0, 5.0])
        rh = np.array([95.0, 90.0, 95.0])
        assert winter_index(t, rh, params) == pytest.approx(5.0 * 10.0)

    def test_dry_cold_contributes_nothing(self):
        params = WinterIndexParams()
        assert winter_index(np.full(10, -20.0), np.full(10, 60.0), params) == 0.0

    def test_constant_indoor_rh_override(self):
        params = WinterIndexParams(indoor_rh_pct=90.0)
        value = winter_index(np.array([-2.0]), np.array([10.0]), params)
        assert value == pytest.approx(2.0 * 10.0)

    @given(
        temps=st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=40),
        rhs=st.lists(st.floats(min_value=0, max_value=100), min_size=40, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_zero_iff_no_step_passes_both_gates(self, temps, rhs):
        params = WinterIndexParams()
        t = np.array(temps)
        rh = np.array(rhs[: len(temps)])
        total = winter_index(t, rh, params)
        any_gate = bool(np.any((t < params.t_crit_c) & (rh > params.rh_crit_pct)))
        assert (total > 0.0) == any_gate
        assert total >= 0.0

    @pytest.mark.parametrize("indoor_rh_pct", [None, 87.3])
    def test_rows_match_one_trace_oracle_bit_for_bit(self, indoor_rh_pct):
        # 300 rows of 1,152 steps around the critical levels, some never
        # gated, each against the one-trace sum.
        rng = np.random.default_rng(61)
        params = WinterIndexParams(t_crit_c=0.5, rh_crit_pct=79.0, indoor_rh_pct=indoor_rh_pct)
        t = rng.normal(3.0, 4.0, (300, 1152))
        t[::7] += 40.0
        rh = rng.uniform(60.0, 100.0, 1152)
        sums = winter_index_rows(t, rh, params)
        assert (sums[::7] == 0.0).all() and (sums > 0.0).sum() > 250
        assert sums.tolist() == [winter_index_sum(row, rh, params) for row in t]


class TestTruncNormal:
    def test_table_means_recovered_at_1e6_draws(self):
        # Empirical mean must match the exact truncated-normal mean; where
        # truncation is negligible that coincides with the nominal mean.
        # home_insurance (95.9, std 3, max 100) genuinely loses ~0.5 to the
        # upper cut, so only the exact mean is a fair target there.
        rng = np.random.default_rng(123)
        rates = shipped_rates()
        for name in RATE_NAMES:
            mean, std, lo, hi = rates[name]
            draws = sample_truncated_normal((mean, std, lo, hi), rng, 1_000_000)
            a, b = (lo - mean) / std, (hi - mean) / std
            exact = stats.truncnorm.mean(a, b, loc=mean, scale=std)
            assert abs(draws.mean() - exact) < 0.1, name
            if name != "home_insurance":
                assert abs(draws.mean() - mean) < 0.1, name
            assert draws.min() >= lo and draws.max() <= hi, name

    def test_cardiac_mean_within_half_tenth(self):
        rng = np.random.default_rng(7)
        draws = sample_truncated_normal(HealthDistributions().pre_existing_cardiac, rng,
                                        1_000_000)
        assert abs(draws.mean() - 5.1) < 0.05

    def test_matches_scipy_truncated_mean(self):
        # Independent route: closed-form truncated-normal mean from scipy.
        rng = np.random.default_rng(99)
        loc, std, lo, hi = 10.0, 8.0, 0.0, 100.0  # truncation actually bites
        draws = sample_truncated_normal((loc, std, lo, hi), rng, 400_000)
        exact = stats.truncnorm.mean((lo - loc) / std, (hi - loc) / std, loc=loc, scale=std)
        assert abs(draws.mean() - exact) < 0.05
        assert exact != pytest.approx(10.0, abs=0.1)  # shift is real

    def test_tight_std_concentrates(self):
        rng = np.random.default_rng(5)
        draws = sample_truncated_normal((50.0, 1e-6, 0.0, 100.0), rng, 1000)
        assert np.abs(draws - 50.0).max() < 1e-4

    def test_scalar_draw_in_window(self):
        rng = np.random.default_rng(6)
        value = sample_truncated_normal((89.4, 3.0, 0.0, 100.0), rng)
        assert isinstance(value, float)
        assert 0.0 <= value <= 100.0

    def test_degenerate_window_rejected(self):
        with pytest.raises(ConfigurationError, match="captures almost none"):
            TruncNormal(0.0, 1.0, 50.0, 100.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            TruncNormal(10.0, 0.0, 0.0, 100.0)
        with pytest.raises(ConfigurationError):
            TruncNormal(10.0, 1.0, 5.0, 1.0)

    @pytest.mark.parametrize("params", [
        *shipped_rates().values(),
        # Truncation that bites, windows deep in either tail (acceptance down
        # to about 2e-6), a window narrow against std, and a one-sided cut.
        (10.0, 8.0, 0.0, 100.0), (0.0, 1.0, 4.0, 6.0), (0.0, 1.0, -6.0, -4.5),
        (0.0, 1.0, 4.6, 30.0), (3.0, 2.0, -40.0, -5.5), (50.0, 1e3, 49.0, 51.5),
        (99.0, 5.0, 0.0, 100.0), (5.1, 1.0, 0.0, 5.1),
    ])
    def test_mean_matches_scipy(self, params):
        dist = TruncNormal(*params)
        a, b = (dist.lo - dist.loc) / dist.std, (dist.hi - dist.loc) / dist.std
        exact = stats.truncnorm.mean(a, b, loc=dist.loc, scale=dist.std)
        assert dist.mean() == pytest.approx(exact, rel=1e-9, abs=1e-12)
        assert dist.acceptance_probability() == pytest.approx(
            stats.norm.cdf(b) - stats.norm.cdf(a) if a < 0 else stats.norm.sf(a) - stats.norm.sf(b),
            rel=1e-9)

    @pytest.mark.parametrize("params, cuts", [
        ((7.3, 1.0, 0.0, 100.0), (-5.0, 0.0, 6.0, 7.3, 9.5, 100.0, 120.0)),
        ((10.0, 8.0, 0.0, 100.0), (0.0, 3.0, 20.0, 40.0)),
        ((0.0, 1.0, 4.0, 6.0), (3.0, 4.5, 5.9)),
    ])
    def test_mean_excess_matches_scipy(self, params, cuts):
        dist = TruncNormal(*params)
        law = stats.truncnorm((dist.lo - dist.loc) / dist.std, (dist.hi - dist.loc) / dist.std,
                              loc=dist.loc, scale=dist.std)
        for c in cuts:
            start = max(c, dist.lo)
            exact = integrate.quad(lambda x: (x - c) * law.pdf(x), start, dist.hi,
                                   epsabs=1e-14, epsrel=1e-12)[0] if start < dist.hi else 0.0
            assert dist.mean_excess(c) == pytest.approx(exact, rel=1e-9, abs=1e-13), c


def overlapping_rates(cardiac, respiratory) -> HealthDistributions:
    """The shipped distributions with the two pre-existing-condition rates
    replaced, percent scale."""
    return HealthDistributions(pre_existing_cardiac=cardiac, pre_existing_respiratory=respiratory)


# Pre-existing-condition rates whose sum often exceeds 100 %.
OVERLAPPING = [((55.0, 20.0, 0.0, 100.0), (60.0, 25.0, 0.0, 100.0)),
               ((50.0, 2.0, 0.0, 100.0), (52.0, 3.0, 0.0, 100.0)),
               ((30.0, 10.0, 0.0, 60.0), (85.0, 10.0, 60.0, 100.0))]


class TestOutcomeTable:
    def test_shipped_table_is_the_closed_form_tree(self):
        # With the rates below 50 % the respiratory branch never saturates,
        # so the table is the analytic tree at scipy's truncated means.
        dists = HealthDistributions()

        def share(rate):
            loc, std, lo, hi = rate
            return stats.truncnorm.mean((lo - loc) / std, (hi - loc) / std, loc=loc,
                                        scale=std) / 100.0

        table = OutcomeTable.from_distributions(dists)
        exact = outcome_tree_probabilities(
            1.0, share(dists.pre_existing_cardiac), share(dists.pre_existing_respiratory),
            share(dists.healthcare_access),
            {c: share(dists.hospital_survival[c]) for c in CONDITIONS},
            {c: share(dists.home_survival[c]) for c in CONDITIONS})
        by_status = table.probability.reshape(len(CONDITIONS), 3).sum(axis=0)
        for p, key in zip(by_status, ("injured_recovered_home", "injured_recovered_hospital",
                                      "death")):
            assert p == pytest.approx(exact[key], rel=1e-9), key
        assert table.p_death == pytest.approx(exact["death"], rel=1e-9)
        by_condition = table.probability.reshape(len(CONDITIONS), 3).sum(axis=1)
        for p, c in zip(by_condition, CONDITIONS):
            assert p == pytest.approx(exact["condition_given_at_risk"][c.value], rel=1e-9)
        assert table.p_insured == pytest.approx(share(dists.health_insurance), rel=1e-9)
        assert table.p_home_insured == pytest.approx(share(dists.home_insurance), rel=1e-9)
        respiratory = TruncNormal(*dists.pre_existing_respiratory)
        assert respiratory_share_pct(TruncNormal(*dists.pre_existing_cardiac),
                                     respiratory) == respiratory.mean()

    @pytest.mark.parametrize("cardiac, respiratory", OVERLAPPING)
    def test_respiratory_share_matches_quadrature(self, cardiac, respiratory):
        # E[min(p_r, 100 - p_c)] by scipy's adaptive quadrature over both rates.
        c, r = TruncNormal(*cardiac), TruncNormal(*respiratory)

        def pdf(dist):
            a, b = (dist.lo - dist.loc) / dist.std, (dist.hi - dist.loc) / dist.std
            scale = dist.std * math.sqrt(2.0 * math.pi) * (stats.norm.cdf(b) - stats.norm.cdf(a))
            return lambda x: math.exp(-0.5 * ((x - dist.loc) / dist.std) ** 2) / scale

        f_c, f_r = pdf(c), pdf(r)

        def capped(x):  # E[min(p_r, 100 - x)]
            cap = min(max(100.0 - x, r.lo), r.hi)
            below = integrate.quad(lambda y: y * f_r(y), r.lo, cap, epsabs=1e-13)[0]
            above = integrate.quad(f_r, cap, r.hi, epsabs=1e-13)[0]
            return below + (100.0 - x) * above

        kinks = [x for x in (100.0 - r.hi, 100.0 - r.lo) if c.lo < x < c.hi]
        exact = integrate.quad(lambda x: capped(x) * f_c(x), c.lo, c.hi, points=kinks or None,
                               epsabs=1e-11, limit=200)[0]
        assert respiratory_share_pct(c, r) == pytest.approx(exact, rel=1e-7)
        assert respiratory_share_pct(c, r) < r.mean() - 1.0  # the cap bites

    @pytest.mark.parametrize("cardiac, respiratory", OVERLAPPING)
    def test_respiratory_share_matches_sampled_branch(self, cardiac, respiratory):
        # 1e6 occupants down the sampled tree, whose respiratory branch draws
        # p_r / (1 - p_c) and caps it at 1.
        dists = overlapping_rates(cardiac, respiratory)
        n = 1_000_000
        batch = resolve_at_risk_sampled(n, HazardConfig(distributions_pct=dists),
                                        np.random.default_rng(404))
        table = OutcomeTable.from_distributions(dists)
        by_condition = table.probability.reshape(len(CONDITIONS), 3).sum(axis=1)
        for i, p in enumerate(by_condition):
            observed = float((batch.condition == i).mean())
            assert abs(observed - p) < 4.0 * math.sqrt(p * (1.0 - p) / n), (i, observed, p)

    def test_categorical_draw_follows_the_table(self):
        table = OutcomeTable.from_distributions(HazardConfig().distributions_pct)
        n = 1_000_000
        batch = decode_outcome(resolve_at_risk(n, table, np.random.default_rng(8)))
        category = batch.condition.astype(int) * 3 + batch.status - 1
        observed = np.bincount(category, minlength=9)
        _, p_value = stats.chisquare(observed, table.probability * n)
        assert p_value > 1e-3
        sigma = math.sqrt(table.p_insured * (1.0 - table.p_insured) / n)
        assert abs(batch.insured.mean() - table.p_insured) < 4.0 * sigma
        assert ((batch.status == STATUS_DEATH).mean() - table.p_death) < 4.0 * math.sqrt(
            table.p_death / n)

    def test_no_occupants_draw_nothing(self):
        table = OutcomeTable.from_distributions(HazardConfig().distributions_pct)
        rng = np.random.default_rng(3)
        assert resolve_at_risk(0, table, rng).size == 0
        assert rng.random() == np.random.default_rng(3).random()

    def test_death_flags_the_death_codes(self):
        # Each category has an uninsured and an insured code, and the death
        # flag marks exactly the codes that decode to a death.
        table = OutcomeTable.from_distributions(HazardConfig().distributions_pct)
        codes = np.arange(2 * len(table.probability))
        assert len(table.death) == len(codes)
        assert table.death.tolist() == (decode_outcome(codes).status == STATUS_DEATH).tolist()
        assert not table.death.flags.writeable

    @pytest.mark.parametrize("name", ["health_insurance", "home_insurance",
                                      "pre_existing_cardiac"])
    @pytest.mark.parametrize("lo, hi", [(-1.0, 50.0), (0.0, 100.5), (5.0, 1e300)])
    def test_rates_outside_percent_rejected_naming_key(self, name, lo, hi):
        with pytest.raises(ConfigurationError) as info:
            HealthDistributions(**{name: (10.0, 5.0, lo, hi)})
        assert info.value.key == name

    @pytest.mark.parametrize("name, key", [
        ("home_insurance", "home_insurance"),
        ("hospital_survival", "hospital_survival.respiratory"),
    ])
    def test_zero_std_rejected_naming_key(self, name, key):
        # Each rate is built as a TruncNormal once, when the distributions are.
        rate = (10.0, 0.0, 0.0, 100.0)
        if name == "hospital_survival":
            rate = {**HealthDistributions().hospital_survival, Condition.RESPIRATORY: rate}
        with pytest.raises(ConfigurationError, match="std must be positive") as info:
            HealthDistributions(**{name: rate})
        assert info.value.key == key


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
        assert outcome.condition is None

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
            if outcome.condition is not None:
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

        def trunc_mean(rate):
            loc, std, lo, hi = rate
            return stats.truncnorm.mean((lo - loc) / std, (hi - loc) / std, loc=loc,
                                        scale=std) / 100.0

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
