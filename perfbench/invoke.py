"""Run one `coldsnap run` in this fresh process and record how long it took.

    python3 perfbench/invoke.py RESULT_JSON TRACE -- run --config ... [--traces]

`run.py` starts this script once per operation with `PYTHONPATH` pointing at
the checkout's `src/`. Nothing under `src/` is changed: the timings come from
wrappers that this script installs on the package's public functions before
it hands the arguments to `coldsnap.cli.main`.

With TRACE 0 only `run_scenario` is wrapped, which gives the end-to-end
figures: the monotonic time at which the first layer starts (the parent
subtracts its own spawn time to get the set-up time), the wall and CPU time
of the run, and the peak resident set of the process. With TRACE 1 every
layer's public entry point is wrapped as well and its self time (its span
minus the spans of the layers it called) is summed per layer, together with
the work counts the layers report.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict
from functools import wraps

clock = time.monotonic  # CLOCK_MONOTONIC: shared with the parent process on Linux


class Tracer:
    """Per-layer self times and counts, aggregated in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # one [child_seconds] cell per open span

    def span(self, fn, layer, count=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]
            self._stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._stack.pop()
                self.self_s[layer] += elapsed - cell[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
            if count is not None:
                count(self.counts, result, args)
            return result
        return wrapper

    def wrap(self, owner, attr, layer, count=None):
        """Replace owner.attr by a span; a layer the program no longer has reads 0."""
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, self.span(fn, layer, count))


def _count_thermal(counts, trace, args):
    counts["thermal.building_steps"] += len(trace.t_in_c)
    counts["thermal.trace_bytes"] += (trace.t_in_c.nbytes + trace.powered.nbytes
                                      + trace.hvac_kw.nbytes)


def _count_outcomes(counts, batch, args):
    counts["hazard.occupants_drawn"] += len(batch.status)
    counts["hazard.at_risk"] += int((batch.status != 0).sum())


def _count_trials(counts, distribution, args):
    counts["valuation.trials"] += len(distribution.trials)


def install_layer_spans(tracer: Tracer) -> None:
    from coldsnap import hazard, scenario, valuation

    tracer.wrap(scenario, "load_config", "scenario.load_config")
    tracer.wrap(scenario, "synthesize_population", "population.synthesize")
    tracer.wrap(scenario, "validate_population", "population.validate")
    tracer.wrap(scenario, "build_schedules", "outage.schedules")
    tracer.wrap(scenario, "assemble_bundle", "scenario.bundle")
    for name in ("load_weather_csv", "resample", "slice_window"):
        tracer.wrap(scenario, name, "weather.load")
    tracer.wrap(scenario, "simulate_building", "thermal.simulate", _count_thermal)
    tracer.wrap(hazard.RRModel, "evaluate", "hazard.reduce")
    tracer.wrap(scenario, "base_mortality", "hazard.reduce")
    tracer.wrap(scenario, "winter_index_sum", "hazard.reduce")
    tracer.wrap(scenario, "interruption_cost", "valuation.cic")
    tracer.wrap(scenario, "productivity_cost", "valuation.productivity")
    tracer.wrap(scenario, "run_monte_carlo", "valuation.mc", _count_trials)
    tracer.wrap(valuation, "simulate_outcomes", "hazard.outcomes", _count_outcomes)
    tracer.wrap(valuation, "repair_cost", "valuation.repair")
    tracer.wrap(scenario, "summarize", "valuation.summarize")
    tracer.wrap(scenario, "population_digest", "scenario.population_digest")
    tracer.wrap(scenario, "write_traces_csv", "thermal.write_traces")


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    `ru_maxrss` is not used on Linux: when the parent spawns with vfork, it
    also counts the parent's resident set at the time of the exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    result_path, trace = argv[0], argv[1] == "1"
    if argv[2] != "--":
        raise SystemExit("usage: invoke.py RESULT_JSON TRACE -- COLDSNAP_ARGS...")
    from coldsnap import cli, scenario

    record = {}
    tracer = Tracer()
    if trace:
        install_layer_spans(tracer)
    run_scenario = scenario.run_scenario

    def timed_run(config):
        record["run_enter"] = clock()
        cpu0 = time.process_time()
        try:
            return run_scenario(config)
        finally:
            record["cpu_s"] = time.process_time() - cpu0
            record["run_s"] = clock() - record["run_enter"]

    scenario.run_scenario = tracer.span(timed_run, "scenario.run") if trace else timed_run
    record["exit_code"] = cli.main(argv[3:])
    record["peak_rss_kb"] = peak_rss_kb()
    if trace:
        record["self_s"] = dict(tracer.self_s)
        record["counts"] = dict(tracer.counts)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
