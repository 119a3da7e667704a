"""The benchmark's output checks pass on a real run and fail on corrupted copies.

    python3 -m pytest perfbench/tests -q

One small `co` run with traces is made in-process; each test corrupts a
copy of its output directory in one way and asserts that the check meant
to catch that corruption raises `CheckFailed`.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402

SMALL = run.Workload(scale=0.1, n_trials=400, scenario="co", traces=True, outcome_rates=True)
SEED = 5


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    from coldsnap import cli

    work = tmp_path_factory.mktemp("inputs")
    config_path = run.write_inputs(work, SMALL, SEED)
    out = work / "out"
    code = cli.main(["run", "--config", str(config_path), "--out", str(out), "--traces"])
    assert code == 0
    return out, run.expectation(config_path, SMALL, SEED)


@pytest.fixture
def copy(reference, tmp_path):
    out, exp = reference
    target = tmp_path / "copy"
    shutil.copytree(out, target)
    return target, exp


def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    rows = [rows[0]] + edit(rows[0], rows[1:])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)


def test_checks_pass_on_the_program_output(reference):
    out, exp = reference
    checks.check_run(out, exp)


def test_dropped_trial_row_fails(copy):
    run_dir, exp = copy
    rewrite_csv(run_dir / "trials.csv", lambda header, rows: rows[:-1])
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_trials(checks.read_trials(run_dir), exp)


def test_total_that_is_not_the_sum_fails(copy):
    run_dir, exp = copy

    def edit(header, rows):
        rows[7][header.index("total")] = f"{float(rows[7][header.index('total')]) + 1.0:.2f}"
        return rows

    rewrite_csv(run_dir / "trials.csv", edit)
    with pytest.raises(CheckFailed, match="sum of components"):
        checks.check_trials(checks.read_trials(run_dir), exp)


def test_summary_mean_off_the_trials_fails(copy):
    run_dir, exp = copy
    trials = checks.read_trials(run_dir)
    trials["c_medical"] = trials["c_medical"] + 1.0
    summary = json.loads((run_dir / "summary.json").read_text())
    with pytest.raises(CheckFailed, match="c_medical mean"):
        checks.check_summary(summary, trials, exp)


def test_altered_unpowered_hours_fail(copy):
    run_dir, exp = copy

    def edit(header, rows):
        col = header.index("unpowered_h")
        row = next(r for r in rows if float(r[col]) == 0.0)
        row[col] = "64.000000"
        return rows

    rewrite_csv(run_dir / "exposure.csv", edit)
    with pytest.raises(CheckFailed, match="unpowered_h"):
        checks.check_exposure(checks.read_exposure(run_dir), exp)


def test_missing_dark_building_fails(copy):
    run_dir, exp = copy

    def edit(header, rows):
        col = header.index("unpowered_h")
        dark = [r for r in rows if float(r[col]) == exp.window_h]
        for row in dark[: len(dark) // 2 + 1]:
            row[col] = "0.000000"
        return rows

    rewrite_csv(run_dir / "exposure.csv", edit)
    with pytest.raises(CheckFailed, match="dark buildings"):
        checks.check_exposure(checks.read_exposure(run_dir), exp)


@pytest.mark.parametrize("column", ["mean_t_in_c", "min_t_in_c"])
def test_indoor_temperature_off_the_reintegration_fails(copy, column):
    run_dir, exp = copy
    exposure = checks.read_exposure(run_dir)
    exposure[column] = exposure[column] + 1e-5
    with pytest.raises(CheckFailed, match=column):
        checks.check_thermal(exposure, exp)


def test_deaths_shifted_by_five_standard_errors_fail(copy):
    run_dir, exp = copy
    trials = checks.read_trials(run_dir)
    exposure = checks.read_exposure(run_dir)
    z_risk, z_death = checks.outcome_z_scores(trials, exposure, exp)
    assert abs(z_risk) < checks.Z_LIMIT and abs(z_death) < checks.Z_LIMIT

    # Move outcomes between injured and death, away from the observed z, so
    # the at-risk count is unchanged and only the death check can see it.
    sign = 1 if z_death >= 0 else -1
    deaths = trials["n_death"]
    n_moved = math.ceil(5.0 * deaths.std(ddof=1) / math.sqrt(len(deaths)) * len(deaths))
    donors = np.flatnonzero((trials["n_injured"] if sign > 0 else deaths) > 0)
    assert len(donors) >= n_moved
    trials["n_death"][donors[:n_moved]] += sign
    trials["n_injured"][donors[:n_moved]] -= sign
    with pytest.raises(CheckFailed, match="deaths per trial"):
        checks.check_outcome_rates(trials, exposure, exp)


def test_at_risk_count_shifted_fails(copy):
    run_dir, exp = copy
    trials = checks.read_trials(run_dir)
    exposure = checks.read_exposure(run_dir)
    at_risk = trials["n_death"] + trials["n_injured"]
    se = at_risk.std(ddof=1) / math.sqrt(len(at_risk))
    z_risk, _ = checks.outcome_z_scores(trials, exposure, exp)
    trials["n_injured"] = trials["n_injured"] + math.copysign(math.ceil(5 * se), z_risk or 1)
    with pytest.raises(CheckFailed, match="at-risk"):
        checks.check_outcome_rates(trials, exposure, exp)


def test_trace_powered_flag_flipped_fails(copy):
    run_dir, exp = copy

    def edit(header, rows):
        col = header.index("powered")
        row = next(r for r in rows if r[col] == "true")
        row[col] = "false"
        return rows

    rewrite_csv(run_dir / "traces.csv", edit)
    with pytest.raises(CheckFailed, match="unpowered"):
        checks.check_traces(run_dir, checks.read_exposure(run_dir), exp)


def test_trace_row_dropped_fails(copy):
    run_dir, exp = copy
    rewrite_csv(run_dir / "traces.csv", lambda header, rows: rows[:-1])
    with pytest.raises(CheckFailed, match="rows"):
        checks.check_traces(run_dir, checks.read_exposure(run_dir), exp)
