"""Per-building reference paths that the block kernels are checked against.

These are the one-building-at-a-time forms of the thermal simulation, the
hazard reductions, the productivity total and the trace export. The package
computes the same quantities over blocks of buildings; the equivalence tests
require the two to agree bit for bit.
"""

from __future__ import annotations

import csv
import math
from datetime import timedelta

import numpy as np

from coldsnap import defaults
from coldsnap.errors import ConfigurationError
from coldsnap.hazard import base_mortality, winter_index_sum
from coldsnap.population import Sector
from coldsnap.thermal import ExposureTrace
from coldsnap.valuation import ScenarioBundle, _work_hour_mask, interruption_cost
from coldsnap.weather import load_weather_csv, resample, slice_window


def simulate_building(building, weather, powered, internal_gain_w=None) -> ExposureTrace:
    """Scalar relay loop over one building's steps."""
    powered = np.asarray(powered, dtype=bool)
    if len(powered) != weather.n_steps:
        raise ConfigurationError(
            f"schedule has {len(powered)} steps, weather has {weather.n_steps}"
        )
    if internal_gain_w is None:
        internal_gain_w = defaults.INTERNAL_GAIN_W if building.n_occupants > 0 else 0.0

    ua = building.ua_w_per_k
    cap = building.thermal_mass_j_per_k
    decay = math.exp(-ua * weather.dt_s / cap)
    rated_kw = building.hvac_electric_kw
    lo = building.setpoint_c - building.deadband_c / 2.0
    hi = building.setpoint_c + building.deadband_c / 2.0

    t_eq_off = (weather.t_out_c + internal_gain_w / ua).tolist()
    t_eq_on = (weather.t_out_c + (building.hvac_heat_w + internal_gain_w) / ua).tolist()
    powered_list = powered.tolist()

    n = weather.n_steps
    t_in = np.empty(n)
    hvac_kw = np.empty(n)
    temp = building.setpoint_c
    on = False
    for i in range(n):
        if not powered_list[i]:
            on = False
        elif temp < lo:
            on = True
        elif temp > hi:
            on = False
        t_in[i] = temp
        hvac_kw[i] = rated_kw if on else 0.0
        t_eq = t_eq_on[i] if on else t_eq_off[i]
        temp = t_eq + (temp - t_eq) * decay
    return ExposureTrace(
        building_id=building.id,
        start=weather.start,
        dt_s=weather.dt_s,
        t_in_c=t_in,
        powered=powered.copy(),
        hvac_kw=hvac_kw,
    )


def productivity_cost(traces, schedules, pop, params, productivity_model) -> float:
    """Lost-wage total over buildings, one trace at a time, in building order."""
    total = 0.0
    dt_h = None
    for b in pop.buildings:
        if b.n_workers == 0:
            continue
        trace = traces[b.id]
        powered = schedules.schedules[b.id]
        if dt_h is None:
            dt_h = trace.dt_s / 3600.0
            start_sec = (trace.start.hour * 3600.0 + trace.start.minute * 60.0
                         + trace.start.second)
            res_mask = _work_hour_mask(start_sec, trace.dt_s, trace.n_steps,
                                       params.work_hours_residential)
            com_mask = _work_hour_mask(start_sec, trace.dt_s, trace.n_steps,
                                       params.work_hours_commercial)
        mask = res_mask if b.sector is Sector.RESIDENTIAL else com_mask
        perf = productivity_model.evaluate(trace.t_in_c)
        if b.job_requires_power:
            perf = np.where(powered, perf, 0.0)
        lost = (1.0 - perf[mask]).sum() * dt_h
        total += b.n_workers * lost * params.wage_usd_per_hour[b.kind.value]
    return float(total)


def write_traces_csv(traces, path) -> None:
    """Trace export through `csv`, formatting every row's timestamp."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["building_id", "timestamp", "t_in_c", "powered", "hvac_kw"])
        for trace in traces:
            for i in range(trace.n_steps):
                stamp = trace.start + timedelta(seconds=trace.dt_s * i)
                writer.writerow([
                    trace.building_id,
                    stamp.isoformat(),
                    f"{trace.t_in_c[i]:.4f}",
                    "true" if trace.powered[i] else "false",
                    f"{trace.hvac_kw[i]:.3f}",
                ])


def assemble_bundle(config, pop, schedule):
    """Simulate and reduce one building at a time.

    Returns the trial bundle, the traces keyed by building id, and the
    per-building exposure rows.
    """
    series = load_weather_csv(config.weather_path)
    if series.dt_s != config.dt_s:
        series = resample(series, config.dt_s)
    window = slice_window(series, config.window_start, config.window_end)

    hz = config.hazard
    traces = {}
    n_b = len(pop.buildings)
    p_mort = np.empty(n_b)
    wi_sum = np.empty(n_b)
    mean_rr = np.empty(n_b)
    exposure_rows = []
    for i, b in enumerate(pop.buildings):
        trace = simulate_building(b, window, schedule.schedules[b.id])
        traces[b.id] = trace
        mean_rr[i] = hz.rr_model.evaluate(trace.t_in_c).mean()
        p_mort[i] = base_mortality(trace.t_in_c, hz.rr_model, hz.delta)
        wi_sum[i] = winter_index_sum(trace.t_in_c, window.rh_pct, hz.winter_index)
        exposure_rows.append({
            "building_id": b.id,
            "kind": b.kind.value,
            "sector": b.sector.value,
            "insulation": b.insulation.value,
            "n_occupants": b.n_occupants,
            "mean_t_in_c": float(trace.t_in_c.mean()),
            "min_t_in_c": float(trace.t_in_c.min()),
            "mean_rr": float(mean_rr[i]),
            "p_mort": float(p_mort[i]),
            "wi_sum": float(wi_sum[i]),
            "unpowered_h": schedule.unpowered_hours(b.id),
        })

    beta = config.valuation.beta_wi
    if beta is None:
        beta = float(max(wi_sum.max(initial=0.0), 1e-9))

    c_cic = sum(
        interruption_cost(b, schedule.unpowered_hours(b.id), config.valuation.cic)
        for b in pop.buildings
    )
    c_prod = productivity_cost(traces, schedule, pop, config.valuation,
                               hz.productivity_model)
    occupant_idx = np.repeat(np.arange(n_b), [b.n_occupants for b in pop.buildings])

    bundle = ScenarioBundle(
        scenario=config.scenario,
        pop=pop,
        p_mort_by_building=p_mort,
        wi_sum_by_building=wi_sum,
        beta_wi=float(beta),
        occupant_building_index=occupant_idx,
        c_prod=float(c_prod),
        c_cic=float(c_cic),
        hazard_cfg=hz,
        val_params=config.valuation,
        mean_rr_by_building=mean_rr,
    )
    return bundle, traces, exposure_rows
