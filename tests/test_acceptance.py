"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

The demo scenarios (1403 buildings, 1000 trials each) execute once in a
session fixture through the real CLI; criteria 4-8 and 10 read those
artifacts, and so do the exact checks on the at-risk and death means.
Oracle-based criteria (1-3, 9) run standalone.
"""

import csv
import json
import math
import time
from datetime import datetime, timezone

import numpy as np
import pytest
from scipy import stats

from coldsnap.cli import main
from coldsnap.hazard import CONDITIONS, HazardConfig, OutcomeTable, resolve_at_risk
from coldsnap.outage import ISOLATED
from coldsnap.valuation import run_monte_carlo
from coldsnap.weather import WeatherSeries

from conftest import make_building, shipped_rates
from oracles import (
    decode_outcome,
    free_float_closed_form,
    max_contiguous_off,
    outcome_tree_probabilities,
    sample_truncated_normal,
    simulate_building,
    trial_rng,
)
from test_thermal import superposition_oracle
from test_valuation import make_bundle

UTC = timezone.utc
N_TRIALS = 1000


def report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def demo_runs(demo_config_path, tmp_path_factory):
    """All four demo scenarios at full trial count, via the CLI."""
    root = tmp_path_factory.mktemp("acceptance_runs")
    started = time.time()
    dirs = {}
    for name in ("base", "co", "ro-di", "ro-hi"):
        out = root / name
        code = main(["run", "--config", str(demo_config_path), "--scenario", name,
                     "--trials", str(N_TRIALS), "--out", str(out)])
        assert code == 0, name
        dirs[name] = out
    elapsed = time.time() - started
    summaries = {name: json.loads((path / "summary.json").read_text())
                 for name, path in dirs.items()}
    return {"dirs": dirs, "summaries": summaries, "elapsed_s": elapsed, "root": root}


def exact_truncated_mean(rate) -> float:
    """The mean of the truncated normal `rate`, (loc, std, lo, hi), by scipy."""
    loc, std, lo, hi = rate
    return float(stats.truncnorm.mean((lo - loc) / std, (hi - loc) / std, loc=loc, scale=std))


def test_criterion_1_thermal_oracle():
    # Free-float simulation vs piecewise-analytic solution over a 5-day
    # window at dt=300 s; also the constant-outdoor closed form.
    rng = np.random.default_rng(17)
    n = int(5 * 86400 / 300)
    t_out = rng.uniform(-18.0, 0.0, n)
    weather = WeatherSeries(datetime(2021, 2, 15, tzinfo=UTC), 300.0,
                            t_out, np.full(n, 70.0))
    building = make_building(n_occupants=0)  # no internal gains
    started = time.time()
    trace = simulate_building(building, weather, np.zeros(n, dtype=bool))
    runtime = time.time() - started
    oracle = superposition_oracle(building, t_out, 20.0, 0.0, 300.0)
    err_piecewise = float(np.abs(trace.t_in_c - oracle).max())

    const_weather = WeatherSeries(datetime(2021, 2, 15, tzinfo=UTC), 300.0,
                                  np.full(n, -12.0), np.full(n, 70.0))
    const_trace = simulate_building(building, const_weather, np.zeros(n, dtype=bool))
    exact = free_float_closed_form(building, 20.0, -12.0, 0.0, np.arange(n) * 300.0)
    err_const = float(np.abs(const_trace.t_in_c - exact).max())

    ok = err_piecewise < 1e-9 and err_const < 1e-9 and runtime < 1.0
    report(1, ok, f"free-float max err piecewise={err_piecewise:.2e} degC, "
                  f"constant={err_const:.2e} degC, runtime={runtime:.3f}s (< 1 s)")


def test_criterion_2_outcome_tree_oracle():
    # 100-occupant toy, fixed P_mort=0.3, shipped health statistics, 1e5
    # trials; death/injury frequencies of the kernel's outcome draw within
    # 3-sigma of the analytic tree.
    cfg = HazardConfig()
    n_occ, n_trials = 100, 100_000
    p_mort = np.full(n_occ, 0.3)
    started = time.time()
    table = OutcomeTable.from_distributions(cfg.distributions_pct)
    deaths = hospital = home = 0
    for i in range(n_trials):
        rng = trial_rng(2025, i)
        batch = decode_outcome(
            resolve_at_risk(int((rng.random(n_occ) < p_mort).sum()), table, rng))
        deaths += int((batch.status == 3).sum())
        hospital += int((batch.status == 2).sum())
        home += int((batch.status == 1).sum())
    runtime = time.time() - started

    exact = outcome_tree_probabilities(
        0.3,
        exact_truncated_mean(cfg.distributions_pct.pre_existing_cardiac) / 100.0,
        exact_truncated_mean(cfg.distributions_pct.pre_existing_respiratory) / 100.0,
        exact_truncated_mean(cfg.distributions_pct.healthcare_access) / 100.0,
        {c: exact_truncated_mean(cfg.distributions_pct.hospital_survival[c]) / 100.0
         for c in CONDITIONS},
        {c: exact_truncated_mean(cfg.distributions_pct.home_survival[c]) / 100.0
         for c in CONDITIONS},
    )
    n = n_occ * n_trials
    checks = []
    for label, observed, key in (
        ("death", deaths, "death"),
        ("hospital-recovered", hospital, "injured_recovered_hospital"),
        ("home-recovered", home, "injured_recovered_home"),
    ):
        p = exact[key]
        sigma = math.sqrt(p * (1 - p) / n)
        dev = abs(observed / n - p) / sigma
        checks.append((label, dev))
    injured_p = exact["injured_recovered_hospital"] + exact["injured_recovered_home"]
    sigma_inj = math.sqrt(injured_p * (1 - injured_p) / n)
    dev_inj = abs((hospital + home) / n - injured_p) / sigma_inj
    checks.append(("injured-total", dev_inj))

    ok = all(dev < 3.0 for _, dev in checks) and runtime < 30.0
    detail = ", ".join(f"{label} {dev:.2f} sigma" for label, dev in checks)
    report(2, ok, f"{detail}; runtime={runtime:.1f}s (< 30 s)")


def test_criterion_3_sampler_statistics():
    # 1e6 draws per shipped distribution: empirical mean within 0.1 of the
    # exact truncated-normal mean (equal to the nominal mean wherever
    # truncation is negligible, incl. 89.4 accessibility / 5.1 cardiac),
    # and zero samples outside [min, max].
    rng = np.random.default_rng(31415)
    rows = shipped_rates()
    worst = ("", 0.0)
    out_of_range = 0
    for name, (mean, std, lo, hi) in rows.items():
        draws = sample_truncated_normal((mean, std, lo, hi), rng, 1_000_000)
        out_of_range += int(((draws < lo) | (draws > hi)).sum())
        target = exact_truncated_mean((mean, std, lo, hi))
        gap = abs(float(draws.mean()) - target)
        if name != "home_insurance":
            gap = max(gap, abs(float(draws.mean()) - mean))
        if gap > worst[1]:
            worst = (name, gap)
    ok = worst[1] < 0.1 and out_of_range == 0
    report(3, ok, f"worst mean gap {worst[1]:.4f} ({worst[0]}), "
                  f"out-of-range samples={out_of_range}")


def test_criterion_4_rolling_outage_guarantee(demo_runs, demo_config_path):
    # Hardened rolling outage: every residential building's longest dark
    # stretch is exactly 2 h; damaged-infrastructure isolation picks
    # round(3.4% x 1403) = 48 buildings.
    from coldsnap.scenario import build_schedules, load_config
    from coldsnap.population import Sector, synthesize_population

    config_hi = load_config(demo_config_path, {"scenario": "ro-hi"})
    pop = synthesize_population(config_hi.population_spec, config_hi.seed)
    sched_hi = build_schedules(config_hi, pop)
    schedules = dict(zip(pop.id.tolist(), sched_hi.on[sched_hi.group]))
    offs = {max_contiguous_off(schedules[b.id], sched_hi.dt_s)
            for b in pop.buildings if b.sector is Sector.RESIDENTIAL}

    config_di = load_config(demo_config_path, {"scenario": "ro-di"})
    sched_di = build_schedules(config_di, pop)
    n_isolated = int((sched_di.group == ISOLATED).sum())
    expected = round(0.034 * len(pop.buildings))

    ok = offs == {2.0} and n_isolated == expected == 48
    report(4, ok, f"max contiguous off set={sorted(offs)} h (exactly 2 h), "
                  f"isolated={n_isolated} (round(3.4% x 1403)={expected})")


def test_criterion_5_scenario_ordering(demo_runs):
    s = demo_runs["summaries"]
    totals = {k: s[k]["total"]["mean"] for k in s}
    rr = {k: s[k]["mean_rr_population"] for k in s}
    elapsed = demo_runs["elapsed_s"]
    cost_ok = totals["co"] > totals["ro-di"] > totals["ro-hi"] > totals["base"]
    rr_ok = rr["co"] >= rr["ro-di"] > rr["ro-hi"] > rr["base"]
    time_ok = elapsed < 300.0
    ok = cost_ok and rr_ok and time_ok
    report(5, ok,
           "mean totals $M {co:.1f} > {rodi:.1f} > {rohi:.1f} > {base:.3f}; ".format(
               co=totals["co"] / 1e6, rodi=totals["ro-di"] / 1e6,
               rohi=totals["ro-hi"] / 1e6, base=totals["base"] / 1e6)
           + f"mean RR {rr['co']:.4f} >= {rr['ro-di']:.4f} > {rr['ro-hi']:.4f} > "
             f"{rr['base']:.6f}; 4x{N_TRIALS} trials in {elapsed:.0f}s (< 300 s)")


def test_criterion_6_nei_reduction_band(demo_runs):
    s = demo_runs["summaries"]
    nei = {k: s[k]["nei_total"]["mean"] for k in s}
    red_hi = (1.0 - nei["ro-hi"] / nei["co"]) * 100.0
    red_di = (1.0 - nei["ro-di"] / nei["co"]) * 100.0
    ok = 40.0 <= red_hi <= 90.0 and red_di < red_hi
    report(6, ok, f"NEI reduction vs CO: RO-HI {red_hi:.1f}% (band [40, 90]), "
                  f"RO-DI {red_di:.1f}% (< RO-HI)")


def test_criterion_7_insulation_ordering(demo_runs):
    from coldsnap.report import export_exposure
    rows = export_exposure(demo_runs["dirs"]["ro-hi"])
    temps = [r["mean_t_in_c"] for r in rows]
    risks = [r["mean_rr"] for r in rows]
    temp_ok = all(a < b for a, b in zip(temps, temps[1:]))
    rr_ok = all(a > b for a, b in zip(risks, risks[1:]))
    ok = temp_ok and rr_ok and len(rows) == 7
    report(7, ok, f"class mean t_in strictly increasing {temps[0]:.1f}->{temps[-1]:.1f} degC, "
                  f"class mean RR strictly decreasing {risks[0]:.4f}->{risks[-1]:.4f}")


def test_criterion_8_determinism(demo_config_path, tmp_path):
    outs = [tmp_path / "r1", tmp_path / "r2", tmp_path / "r8"]
    for out, threads in zip(outs, ("1", "1", "8")):
        code = main(["run", "--config", str(demo_config_path), "--scenario", "co",
                     "--trials", "200", "--out", str(out), "--threads", threads])
        assert code == 0
    rerun_same = (outs[0] / "trials.csv").read_bytes() == (outs[1] / "trials.csv").read_bytes()
    threads_same = (outs[0] / "trials.csv").read_bytes() == (outs[2] / "trials.csv").read_bytes()
    ok = rerun_same and threads_same
    report(8, ok, f"trials.csv byte-identical across reruns={rerun_same} "
                  f"and threads 1 vs 8={threads_same}")


def test_criterion_9_linearity():
    # Doubling the toy population doubles expected statistical-life and
    # interruption costs at 1e4 trials.
    small = make_bundle(n_buildings=10, occupants_each=5, p_mort=0.35,
                        c_cic=500.0, c_prod=0.0)
    big = make_bundle(n_buildings=20, occupants_each=5, p_mort=0.35,
                      c_cic=1000.0, c_prod=0.0)
    n = 10_000
    vsl_small = np.mean(run_monte_carlo(small, n, 314).component("c_vsl"))
    vsl_big = np.mean(run_monte_carlo(big, n, 315).component("c_vsl"))
    cic_ratio = big.c_cic / small.c_cic
    vsl_ratio = vsl_big / vsl_small
    ok = abs(vsl_ratio - 2.0) <= 0.04 and cic_ratio == 2.0
    report(9, ok, f"doubling ratios at 1e4 trials: c_vsl {vsl_ratio:.3f} "
                  f"(within 2%), c_cic {cic_ratio:.1f} (exact)")


def test_criterion_10_gate_checks(demo_runs):
    trials_path = demo_runs["dirs"]["base"] / "trials.csv"
    c_build = []
    zero_death_trials = 0
    n = 0
    with open(trials_path, newline="") as handle:
        for row in csv.DictReader(handle):
            n += 1
            c_build.append(float(row["c_build"]))
            if int(row["n_death"]) == 0:
                zero_death_trials += 1
    zero_fraction = zero_death_trials / n
    ok = max(c_build) == 0.0 and zero_fraction >= 0.99
    report(10, ok, f"base repair cost max=${max(c_build):.2f} (all zero), "
                   f"zero-death trials {zero_fraction:.1%} (>= 99%)")


def test_mean_at_risk_matches_expected_at_risk(demo_runs):
    # summary.json's expected_at_risk is sum(occupants x p_mort), the exact
    # mean of n_death + n_injured per trial.
    with open(demo_runs["dirs"]["co"] / "trials.csv", newline="") as handle:
        at_risk = np.array([int(row["n_death"]) + int(row["n_injured"])
                            for row in csv.DictReader(handle)], dtype=float)
    expected = demo_runs["summaries"]["co"]["expected_at_risk"]
    with open(demo_runs["dirs"]["co"] / "exposure.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert expected == pytest.approx(sum(int(r["n_occupants"]) * float(r["p_mort"])
                                         for r in rows), rel=1e-6)
    se = at_risk.std() / math.sqrt(len(at_risk))
    assert len(at_risk) == N_TRIALS and expected > 0.0
    assert abs(at_risk.mean() - expected) < 4.0 * se, (at_risk.mean(), expected, se)


def test_mean_deaths_match_expected_deaths(demo_runs, demo_config_path):
    # summary.json's expected_deaths is expected_at_risk x P(death | at
    # risk) from the outcome table, the exact mean of n_death per trial.
    with open(demo_runs["dirs"]["co"] / "trials.csv", newline="") as handle:
        deaths = np.array([int(row["n_death"]) for row in csv.DictReader(handle)], dtype=float)
    summary = demo_runs["summaries"]["co"]
    from coldsnap.scenario import load_config

    table = OutcomeTable.from_distributions(load_config(demo_config_path).hazard.distributions_pct)
    assert summary["expected_deaths"] == pytest.approx(
        summary["expected_at_risk"] * table.p_death, rel=1e-12)
    se = deaths.std() / math.sqrt(len(deaths))
    assert len(deaths) == N_TRIALS and summary["expected_deaths"] > 0.0
    assert abs(deaths.mean() - summary["expected_deaths"]) < 4.0 * se, (
        deaths.mean(), summary["expected_deaths"], se)
