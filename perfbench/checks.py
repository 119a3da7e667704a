"""Checks of one `coldsnap run` output directory, computed apart from the program.

Each check reads the artifacts the run wrote and compares them with what
the benchmark's own inputs imply: row counts, accounting identities between
columns, the unpowered hours each scenario defines, a re-integration of the
thermal model for buildings whose power never changes, outcome rates
against their closed-form expectation, and the exported traces against the
exposure table. A failed check raises `CheckFailed` naming the file and
the value at fault.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COMPONENTS = ("c_vsl", "c_medical", "c_prod", "c_build", "c_cic")
IDENTICAL_ARTIFACTS = ("trials.csv", "summary.json", "exposure.csv")
# Internal heat gain of an occupied premise, W; unoccupied premises get none.
INTERNAL_GAIN_W = 200.0
# Rounding slack for money written with two decimals.
CENT = 0.01
Z_LIMIT = 4.0


class CheckFailed(Exception):
    """An output of the program disagrees with what its inputs imply."""


@dataclass(frozen=True)
class Expectation:
    """What the generated inputs of one workload imply about its outputs."""

    scenario: str
    n_trials: int
    vsl_usd: float
    shed_fraction: float
    fault_fraction: float
    n_groups: int
    availability: float
    dt_s: float
    t_out_c: np.ndarray          # outdoor temperature over the event window
    buildings: tuple             # reference population, in the program's order
    population_digest: str
    health_pct: dict             # name -> (mean, std, lo, hi), percent scale
    hospital_survival_pct: dict  # condition -> (mean, std, lo, hi)
    home_survival_pct: dict
    traces: bool
    outcome_rates: bool
    sample_seed: int

    @property
    def n_steps(self) -> int:
        return len(self.t_out_c)

    @property
    def window_h(self) -> float:
        return self.n_steps * self.dt_s / 3600.0


def _fail(message: str):
    raise CheckFailed(message)


def read_csv_columns(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        columns = list(zip(*reader)) or [()] * len(header)
    return dict(zip(header, columns))


def read_trials(run_dir: Path) -> dict:
    cols = read_csv_columns(run_dir / "trials.csv")
    out = {name: np.array(cols[name], dtype=float) for name in COMPONENTS + ("total",)}
    for name in ("trial", "n_death", "n_injured"):
        out[name] = np.array(cols[name], dtype=np.int64)
    return out


def read_exposure(run_dir: Path) -> dict:
    cols = read_csv_columns(run_dir / "exposure.csv")
    out = {name: np.array(cols[name], dtype=float)
           for name in ("mean_t_in_c", "min_t_in_c", "mean_rr", "p_mort", "unpowered_h")}
    for name in ("building_id", "n_occupants"):
        out[name] = np.array(cols[name], dtype=np.int64)
    out["sector"] = np.array(cols["sector"])
    return out


def check_trials(trials: dict, exp: Expectation) -> None:
    n = len(trials["trial"])
    if n != exp.n_trials:
        _fail(f"trials.csv has {n} rows, expected {exp.n_trials}")
    if not np.array_equal(trials["trial"], np.arange(n)):
        _fail("trials.csv trial column is not 0..n-1")
    parts = sum(trials[name] for name in COMPONENTS)
    worst = int(np.argmax(np.abs(trials["total"] - parts)))
    if abs(trials["total"][worst] - parts[worst]) > 3.5 * CENT:
        _fail(f"trials.csv row {worst}: total {trials['total'][worst]} != "
              f"sum of components {parts[worst]}")
    vsl = trials["n_death"] * exp.vsl_usd
    worst = int(np.argmax(np.abs(trials["c_vsl"] - vsl)))
    if abs(trials["c_vsl"][worst] - vsl[worst]) > CENT:
        _fail(f"trials.csv row {worst}: c_vsl {trials['c_vsl'][worst]} != "
              f"n_death x VSL {vsl[worst]}")
    for name in ("c_prod", "c_cic"):
        if np.unique(trials[name]).size != 1:
            _fail(f"trials.csv {name} differs between trials")


def check_summary(summary: dict, trials: dict, exp: Expectation) -> None:
    if summary.get("n_trials") != exp.n_trials:
        _fail(f"summary.json n_trials {summary.get('n_trials')} != {exp.n_trials}")
    if summary.get("population_digest") != exp.population_digest:
        _fail("summary.json population_digest differs from the reference population")
    for name in COMPONENTS + ("total", "n_death", "n_injured"):
        recomputed = float(trials[name].mean())
        reported = summary[name]["mean"]
        if abs(reported - recomputed) > CENT / 2 + 1e-12 * abs(recomputed):
            _fail(f"summary.json {name} mean {reported} != {recomputed} from trials.csv")


def expected_unpowered_h(exposure: dict, exp: Expectation) -> np.ndarray:
    """Unpowered hours per building, where the scenario fixes them without a draw.

    Fault-isolated customers (and, for `co`, the shed set) are a seeded
    choice, so those rows are matched by count instead; they hold NaN here.
    """
    residential = exposure["sector"] == "residential"
    dark = exposure["unpowered_h"] == exp.window_h
    if exp.scenario == "co":
        return np.where(dark, np.nan, 0.0)
    served = math.floor(exp.availability * exp.n_groups)
    rolling_h = exp.window_h * (exp.n_groups - served) / exp.n_groups
    expected = np.where(residential, rolling_h, 0.0)
    if exp.scenario == "ro-di":
        expected[dark] = np.nan
    return expected


def check_exposure(exposure: dict, exp: Expectation) -> None:
    ids = tuple(b.id for b in exp.buildings)
    if tuple(exposure["building_id"].tolist()) != ids:
        _fail(f"exposure.csv has {len(exposure['building_id'])} rows; expected one per "
              f"building ({len(ids)}) in population order")
    p = exposure["p_mort"]
    bad = ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        _fail(f"exposure.csv building {ids[int(np.argmax(bad))]}: p_mort outside [0, 1]")
    bad = ~(exposure["mean_rr"] >= 1.0)
    if bad.any():
        _fail(f"exposure.csv building {ids[int(np.argmax(bad))]}: mean_rr below 1")

    hours = exposure["unpowered_h"]
    expected = expected_unpowered_h(exposure, exp)
    fixed = ~np.isnan(expected)
    bad = fixed & (np.abs(hours - np.where(fixed, expected, 0.0)) > 1e-6)
    if bad.any():
        i = int(np.argmax(bad))
        _fail(f"exposure.csv building {ids[i]}: unpowered_h {hours[i]} under {exp.scenario}, "
              f"expected {expected[i]}")
    n_dark = int((~fixed).sum())
    n_isolated = int(round(exp.fault_fraction * len(ids)))
    if exp.scenario == "co":
        n_residential = int((exposure["sector"] == "residential").sum())
        n_shed = int(round(exp.shed_fraction * n_residential))
        if not max(n_shed, n_isolated) <= n_dark <= n_shed + n_isolated:
            _fail(f"exposure.csv has {n_dark} dark buildings under co; expected between "
                  f"{max(n_shed, n_isolated)} and {n_shed + n_isolated}")
    elif exp.scenario == "ro-di" and n_dark != n_isolated:
        _fail(f"exposure.csv has {n_dark} buildings dark for the whole window under ro-di; "
              f"expected round({exp.fault_fraction} x {len(ids)}) = {n_isolated}")


def reintegrate(building, t_out_c: np.ndarray, dt_s: float, powered: bool) -> np.ndarray:
    """Indoor temperature before each step: exact exponential step plus relay.

    Over one step with constant inputs, C dT/dt = UA (t_out - T) + Q relaxes
    T toward t_out + Q/UA by the factor exp(-UA dt / C). The heater is a
    hysteresis relay around the setpoint and stays off without power.
    """
    gain = INTERNAL_GAIN_W if building.n_occupants > 0 else 0.0
    ua = building.ua_w_per_k
    decay = math.exp(-ua * dt_s / building.thermal_mass_j_per_k)
    lo = building.setpoint_c - building.deadband_c / 2.0
    hi = building.setpoint_c + building.deadband_c / 2.0
    temp, heating = building.setpoint_c, False
    out = np.empty(len(t_out_c))
    for i, t_out in enumerate(t_out_c.tolist()):
        if not powered:
            heating = False
        elif temp < lo:
            heating = True
        elif temp > hi:
            heating = False
        out[i] = temp
        q_w = gain + (building.hvac_heat_w if heating else 0.0)
        t_eq = t_out + q_w / ua
        temp = t_eq + (temp - t_eq) * decay
    return out


def check_thermal(exposure: dict, exp: Expectation, per_group: int = 12) -> None:
    """Re-integrate a seeded sample of always-powered and always-dark buildings."""
    rng = np.random.default_rng(exp.sample_seed)
    hours = exposure["unpowered_h"]
    for powered, rows in ((True, np.flatnonzero(hours == 0.0)),
                          (False, np.flatnonzero(hours == exp.window_h))):
        for i in rng.permutation(rows)[:per_group].tolist():
            trace = reintegrate(exp.buildings[i], exp.t_out_c, exp.dt_s, powered)
            for column, value in (("mean_t_in_c", trace.mean()), ("min_t_in_c", trace.min())):
                if abs(exposure[column][i] - value) > 1e-6:
                    _fail(f"exposure.csv building {exp.buildings[i].id}: {column} "
                          f"{exposure[column][i]} != re-integrated {value:.7f}")


def _tn_mean_fraction(params) -> float:
    from scipy.stats import truncnorm

    mean, std, lo, hi = params
    return float(truncnorm.mean((lo - mean) / std, (hi - mean) / std, loc=mean, scale=std)) / 100.0


def death_share(exp: Expectation) -> float:
    """P(death | at risk) from the outcome tree and its distribution means.

    Every probability in the tree is drawn independently per occupant, so
    the death share is the tree evaluated at the truncated-normal means.
    """
    p_cardiac = _tn_mean_fraction(exp.health_pct["pre_existing_cardiac"])
    p_resp = _tn_mean_fraction(exp.health_pct["pre_existing_respiratory"])
    access = _tn_mean_fraction(exp.health_pct["healthcare_access"])
    share = 0.0
    for condition, p_cond in (("cardiac", p_cardiac), ("respiratory", p_resp),
                              ("hypothermia_frost", 1.0 - p_cardiac - p_resp)):
        hospital = _tn_mean_fraction(exp.hospital_survival_pct[condition])
        home = _tn_mean_fraction(exp.home_survival_pct[condition])
        share += p_cond * (access * (1.0 - hospital) + (1.0 - access) * (1.0 - home))
    return share


def _z(observed: np.ndarray, expected: float) -> float:
    se = observed.std(ddof=1) / math.sqrt(len(observed))
    gap = float(observed.mean()) - expected
    if se == 0.0:
        return 0.0 if abs(gap) < 1e-9 else math.inf
    return gap / se


def outcome_z_scores(trials: dict, exposure: dict, exp: Expectation) -> tuple[float, float]:
    """z of the mean at-risk count and the mean death count per trial."""
    at_risk_expected = float((exposure["n_occupants"] * exposure["p_mort"]).sum())
    at_risk = (trials["n_death"] + trials["n_injured"]).astype(float)
    return (_z(at_risk, at_risk_expected),
            _z(trials["n_death"].astype(float), at_risk_expected * death_share(exp)))


def check_outcome_rates(trials: dict, exposure: dict, exp: Expectation) -> None:
    z_risk, z_death = outcome_z_scores(trials, exposure, exp)
    if abs(z_risk) > Z_LIMIT:
        _fail(f"trials.csv mean at-risk count per trial is {z_risk:+.2f} SE from "
              "sum(occupants x p_mort)")
    if abs(z_death) > Z_LIMIT:
        _fail(f"trials.csv mean deaths per trial is {z_death:+.2f} SE from the "
              "outcome tree's expectation")


def check_traces(run_dir: Path, exposure: dict, exp: Expectation) -> None:
    path = run_dir / "traces.csv"
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")

    def column(name, dtype):
        # numpy's C parser: the csv module takes seconds on a trace export.
        return np.loadtxt(path, delimiter=",", skiprows=1, usecols=header.index(name),
                          dtype=dtype, ndmin=1)

    ids = column("building_id", np.int64)
    n_b = len(exp.buildings)
    if len(ids) != n_b * exp.n_steps:
        _fail(f"traces.csv has {len(ids)} rows, expected {n_b} buildings x {exp.n_steps} steps")
    ids = ids.reshape(n_b, exp.n_steps)
    if not np.array_equal(ids[:, 0], exposure["building_id"]) or np.any(ids != ids[:, :1]):
        _fail("traces.csv rows are not grouped by building in population order")
    t_in = column("t_in_c", float).reshape(n_b, exp.n_steps)
    gap = np.abs(t_in.mean(axis=1) - exposure["mean_t_in_c"])
    if gap.max() > 5e-5:
        i = int(np.argmax(gap))
        _fail(f"traces.csv building {exp.buildings[i].id}: mean t_in_c differs from "
              f"exposure.csv by {gap[i]:.2e}")
    dark_h = (column("powered", "U5") == "false").reshape(n_b, exp.n_steps).sum(axis=1) \
        * exp.dt_s / 3600.0
    bad = np.abs(dark_h - exposure["unpowered_h"]) > 1e-6
    if bad.any():
        i = int(np.argmax(bad))
        _fail(f"traces.csv building {exp.buildings[i].id}: {dark_h[i]} h unpowered, "
              f"exposure.csv says {exposure['unpowered_h'][i]}")


def artifact_digests(run_dir: Path) -> dict:
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
            for name in IDENTICAL_ARTIFACTS}


def check_run(run_dir: Path, exp: Expectation) -> dict:
    """Run every check on one output directory; return its artifact digests."""
    run_dir = Path(run_dir)
    try:
        trials = read_trials(run_dir)
        exposure = read_exposure(run_dir)
        check_trials(trials, exp)
        check_summary(json.loads((run_dir / "summary.json").read_text(encoding="utf-8")),
                      trials, exp)
        check_exposure(exposure, exp)
        check_thermal(exposure, exp)
        if exp.outcome_rates:
            check_outcome_rates(trials, exposure, exp)
        if exp.traces:
            check_traces(run_dir, exposure, exp)
        return artifact_digests(run_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise CheckFailed(f"malformed output in {run_dir.name}: {exc!r}") from exc
