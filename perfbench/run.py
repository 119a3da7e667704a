"""Benchmark of `coldsnap run`, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. For the chosen workload the script

1. generates the inputs from `coldsnap.demo` (demo weather, demo config with
   scaled building counts, the scenario, the trial count and `--seed`), so
   the program only receives a config file and a weather CSV;
2. runs `coldsnap run` on them in fresh single-threaded processes: one small
   warm-up run, then repeated timed runs until `--seconds` have passed;
3. checks every run's outputs against computations made apart from the
   program (`checks.py`), and that the repeats wrote identical artifacts;
4. prints, as the last line of standard output, one JSON object with
   `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the medians of the end-to-end figures
(`run_s`, `cpu_s`, `setup_s`, `peak_rss_mb`). With `--trace 1` untraced and
traced runs alternate; the metrics are the medians of the per-layer figures
of the traced runs, and `tracing_overhead_s` is the traced minus the untraced
median `run_s`. One operation is one `coldsnap run` that exits 0 and passes
every check. Progress and failures go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INVOKE = HERE / "invoke.py"
CHILD_TIMEOUT_S = 60.0
# The warm-up runs the workload's code path on a twentieth of the demo
# population: enough to compile bytecode and fill the page cache.
WARM_UP_SCALE = 0.05
WARM_UP_TRIALS = 10

# Valuation and outcome-tree parameters written into every generated config,
# so the checks use the same values the program is given. They equal the
# package defaults the demo runs with.
VSL_USD = 11.6e6
HEALTH_PCT = {
    "pre_existing_cardiac": (5.1, 1.0, 0.0, 100.0),
    "pre_existing_respiratory": (7.3, 1.0, 0.0, 100.0),
    "health_insurance": (79.4, 3.0, 0.0, 100.0),
    "healthcare_access": (89.4, 3.0, 0.0, 100.0),
    "home_insurance": (95.9, 3.0, 0.0, 100.0),
}
HOSPITAL_SURVIVAL_PCT = {
    "cardiac": (89.3, 1.0, 0.0, 100.0),
    "respiratory": (83.0, 1.0, 0.0, 100.0),
    "hypothermia_frost": (91.9, 3.0, 0.0, 100.0),
}
HOME_SURVIVAL_PCT = {
    "cardiac": (19.3, 1.0, 0.0, 100.0),
    "respiratory": (13.0, 1.0, 0.0, 100.0),
    "hypothermia_frost": (78.9, 1.0, 0.0, 100.0),
}


@dataclass(frozen=True)
class Workload:
    scale: float        # multiplier on the demo's per-kind building counts
    n_trials: int
    scenario: str
    traces: bool        # pass --traces
    outcome_rates: bool  # enough trials for the statistical outcome check


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "many-buildings-rodi": Workload(scale=3.0, n_trials=100, scenario="ro-di",
                                    traces=False, outcome_rates=False),
    "many-trials-co": Workload(scale=1.0, n_trials=3000, scenario="co",
                               traces=False, outcome_rates=True),
    "traces-rohi": Workload(scale=0.25, n_trials=50, scenario="ro-hi",
                            traces=True, outcome_rates=False),
}

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "population.synthesize_s": "s",
    "population.validate_s": "s",
    "scenario.population_digest_s": "s",
    "weather.load_s": "s",
    "outage.schedules_s": "s",
    "thermal.simulate_s": "s",
    "thermal.building_steps": "count",
    "thermal.building_steps_per_s": "1/s",
    "thermal.trace_mb": "MB",
    "hazard.reduce_s": "s",
    "valuation.productivity_s": "s",
    "valuation.cic_s": "s",
    "scenario.bundle_self_s": "s",
    "valuation.mc_s": "s",
    "valuation.mc_self_s": "s",
    "valuation.trials_per_s": "1/s",
    "hazard.outcomes_s": "s",
    "hazard.occupants_drawn": "count",
    "hazard.at_risk": "count",
    "hazard.at_risk_share": "ratio",
    "valuation.repair_s": "s",
    "valuation.summarize_s": "s",
    "thermal.write_traces_s": "s",
    "thermal.traces_mb_written": "MB",
    "scenario.run_self_s": "s",
    "scenario.load_config_s": "s",
    "traced_run_s": "s",
    "tracing_overhead_s": "s",
}

# Layer spans whose self times add up to the traced run_s.
RUN_LAYERS = {
    "population.synthesize": "population.synthesize_s",
    "population.validate": "population.validate_s",
    "scenario.population_digest": "scenario.population_digest_s",
    "weather.load": "weather.load_s",
    "outage.schedules": "outage.schedules_s",
    "thermal.simulate": "thermal.simulate_s",
    "hazard.reduce": "hazard.reduce_s",
    "valuation.productivity": "valuation.productivity_s",
    "valuation.cic": "valuation.cic_s",
    "scenario.bundle": "scenario.bundle_self_s",
    "valuation.mc": "valuation.mc_self_s",
    "hazard.outcomes": "hazard.outcomes_s",
    "valuation.repair": "valuation.repair_s",
    "valuation.summarize": "valuation.summarize_s",
    "thermal.write_traces": "thermal.write_traces_s",
    "scenario.run": "scenario.run_self_s",
}


def write_inputs(work: Path, wl: Workload, seed: int, name: str = "config.json") -> Path:
    """Demo weather plus a demo config scaled and seeded for this workload."""
    from coldsnap.demo import demo_config_dict, make_uri_like_weather, write_weather_csv

    write_weather_csv(make_uri_like_weather(), work / "weather.csv")
    config = demo_config_dict(weather_filename="weather.csv", out_dir="runs")
    counts = config["population"]["spec"]["counts"]
    config["population"]["spec"]["counts"] = {
        kind: max(1, round(n * wl.scale)) for kind, n in counts.items()}
    config["scenario"] = wl.scenario
    config["n_trials"] = wl.n_trials
    config["seed"] = seed
    config["valuation"]["vsl_usd"] = VSL_USD
    config["hazard"]["distributions_pct"] = {
        **{k: list(v) for k, v in HEALTH_PCT.items()},
        "hospital_survival": {k: list(v) for k, v in HOSPITAL_SURVIVAL_PCT.items()},
        "home_survival": {k: list(v) for k, v in HOME_SURVIVAL_PCT.items()},
    }
    path = work / name
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def window_temperatures(config: dict, weather_csv: Path):
    """Outdoor temperatures of the generated weather inside [start, end)."""
    import csv

    import numpy as np

    start = datetime.fromisoformat(config["window"]["start"])
    end = datetime.fromisoformat(config["window"]["end"])
    with open(weather_csv, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    return np.array([float(r["temp_c"]) for r in rows
                     if start <= datetime.fromisoformat(r["timestamp"]) < end])


def expectation(config_path: Path, wl: Workload, seed: int):
    """What the inputs imply; the reference population is synthesized here too."""
    from checks import Expectation
    from coldsnap.population import write_population_csv
    from coldsnap.scenario import load_config, synthesize_population

    config = json.loads(config_path.read_text(encoding="utf-8"))
    pop = synthesize_population(load_config(config_path).population_spec, seed)
    csv_text = io.StringIO()
    write_population_csv(csv_text, pop)
    params = config["scenarios"][wl.scenario]
    return Expectation(
        scenario=wl.scenario,
        n_trials=wl.n_trials,
        vsl_usd=VSL_USD,
        shed_fraction=params.get("shed_fraction", 0.0),
        fault_fraction=params.get("fault_fraction", 0.0),
        n_groups=params.get("n_groups", 0),
        availability=params.get("availability_constant", 0.0),
        dt_s=float(config["dt_s"]),
        t_out_c=window_temperatures(config, config_path.parent / config["weather_path"]),
        buildings=pop.buildings,
        population_digest=hashlib.sha256(csv_text.getvalue().encode()).hexdigest(),
        health_pct=HEALTH_PCT,
        hospital_survival_pct=HOSPITAL_SURVIVAL_PCT,
        home_survival_pct=HOME_SURVIVAL_PCT,
        traces=wl.traces,
        outcome_rates=wl.outcome_rates,
        sample_seed=seed,
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Fixed string hashing, so dict and set layouts do not vary between runs.
    env["PYTHONHASHSEED"] = "0"
    return env


class Bench:
    """Runs and checks the operations of one workload in a work directory."""

    def __init__(self, work: Path, wl: Workload, seed: int):
        self.work = work
        self.wl = wl
        self.config_path = write_inputs(work, wl, seed)
        self.expect = expectation(self.config_path, wl, seed)
        self.warm_up_config = write_inputs(
            work, replace(wl, scale=WARM_UP_SCALE, n_trials=WARM_UP_TRIALS), seed, "warm_up.json")
        self.env = child_env()
        self.reference_digests = None
        self.count = 0

    def invoke(self, config: Path, out: Path, result: Path, trace: bool) -> None:
        """Run `coldsnap run` in a fresh process; raise CheckFailed if it fails."""
        from checks import CheckFailed

        argv = [sys.executable, str(INVOKE), str(result), "1" if trace else "0", "--",
                "run", "--config", str(config), "--out", str(out), "--threads", "1"]
        if self.wl.traces:
            argv.append("--traces")
        proc = subprocess.run(argv, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise CheckFailed(f"coldsnap run exited {proc.returncode}: "
                              f"{proc.stderr.decode(errors='replace').strip()}")

    def warm_up(self) -> None:
        """Untimed small run of the same code path; imports what the checks need."""
        from checks import death_share

        out, result = self.work / "warm_up", self.work / "warm_up.json"
        try:
            self.invoke(self.warm_up_config, out, result, trace=False)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            result.unlink(missing_ok=True)
        if self.wl.outcome_rates:
            death_share(self.expect)

    def operation(self, trace: bool) -> dict | None:
        """One `coldsnap run`; its figures, or None if it failed."""
        from checks import CheckFailed, check_run

        self.count += 1
        out = self.work / f"run{self.count}"
        result = self.work / f"run{self.count}.json"
        try:
            spawned = time.monotonic()
            self.invoke(self.config_path, out, result, trace)
            record = json.loads(result.read_text(encoding="utf-8"))
            record["setup_s"] = record["run_enter"] - spawned
            digests = check_run(out, self.expect)
            if self.reference_digests is None:
                self.reference_digests = digests
            changed = [n for n, d in digests.items() if d != self.reference_digests[n]]
            if changed:
                raise CheckFailed(f"repeat {self.count} wrote different {', '.join(changed)}")
            if trace:
                record["layers"] = layer_figures(record, out)
            print(f"operation {self.count}{' traced' if trace else ''}: "
                  f"run_s {record['run_s']:.3f} cpu_s {record['cpu_s']:.3f} "
                  f"setup_s {record['setup_s']:.3f} peak_rss_kb {record['peak_rss_kb']}",
                  file=sys.stderr)
            return record
        except (CheckFailed, subprocess.TimeoutExpired) as exc:
            print(f"operation {self.count} failed: {exc}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
            result.unlink(missing_ok=True)


def layer_figures(record: dict, out: Path) -> dict:
    from checks import CheckFailed

    self_s = record["self_s"]
    counts = record["counts"]
    figures = {metric: self_s.get(span, 0.0) for span, metric in RUN_LAYERS.items()}
    accounted = sum(figures.values())
    if abs(accounted - record["run_s"]) > 1e-3:
        raise CheckFailed(f"layer self times sum to {accounted:.6f} s, traced run took "
                          f"{record['run_s']:.6f} s")
    steps = counts.get("thermal.building_steps", 0)
    mc_s = sum(self_s.get(s, 0.0) for s in ("valuation.mc", "hazard.outcomes", "valuation.repair"))
    drawn = counts.get("hazard.occupants_drawn", 0)
    traces_csv = out / "traces.csv"
    figures.update({
        "thermal.building_steps": steps,
        "thermal.building_steps_per_s": steps / figures["thermal.simulate_s"]
        if figures["thermal.simulate_s"] else 0.0,
        "thermal.trace_mb": counts.get("thermal.trace_bytes", 0) / 1e6,
        "valuation.mc_s": mc_s,
        "valuation.trials_per_s": counts.get("valuation.trials", 0) / mc_s if mc_s else 0.0,
        "hazard.occupants_drawn": drawn,
        "hazard.at_risk": counts.get("hazard.at_risk", 0),
        "hazard.at_risk_share": counts.get("hazard.at_risk", 0) / drawn if drawn else 0.0,
        "thermal.traces_mb_written": traces_csv.stat().st_size / 1e6
        if traces_csv.exists() else 0.0,
        "scenario.load_config_s": self_s.get("scenario.load_config", 0.0),
        "traced_run_s": record["run_s"],
    })
    return figures


def median_of(records: list, key) -> float:
    return statistics.median(key(r) for r in records)


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """Warm up once, then run whole rounds until `seconds` have passed."""
    from checks import CheckFailed

    try:
        bench.warm_up()
    except (CheckFailed, subprocess.TimeoutExpired) as exc:
        print(f"warm-up failed: {exc}", file=sys.stderr)
        return {}, 1, 1
    done, untraced, traced = [], [], []
    started = time.monotonic()
    while not done or time.monotonic() - started < seconds:
        rec = bench.operation(trace=False)
        done.append(rec)
        if rec is not None:
            untraced.append(rec)
        if trace:
            rec = bench.operation(trace=True)
            done.append(rec)
            if rec is not None:
                traced.append(rec)
    failed = sum(r is None for r in done)
    if trace and traced and untraced:
        metrics = {m: median_of(traced, lambda r, m=m: r["layers"][m])
                   for m in PER_LAYER_UNITS if m != "tracing_overhead_s"}
        metrics["tracing_overhead_s"] = (median_of(traced, lambda r: r["run_s"])
                                         - median_of(untraced, lambda r: r["run_s"]))
        units = PER_LAYER_UNITS
    elif untraced and not trace:
        metrics = {
            "run_s": median_of(untraced, lambda r: r["run_s"]),
            "cpu_s": median_of(untraced, lambda r: r["cpu_s"]),
            "setup_s": median_of(untraced, lambda r: r["setup_s"]),
            "peak_rss_mb": median_of(untraced, lambda r: r["peak_rss_kb"] * 1024 / 1e6),
        }
        units = END_TO_END_UNITS
    else:
        metrics, units = {}, {}
    return ({name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            len(done), failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coldsnap" / "__init__.py").is_file():
        print(f"error: no coldsnap package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]

    work = HERE / "work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(work, WORKLOADS[args.workload], args.seed)
        metrics, attempted, failed = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
