"""Single-zone indoor temperature simulation with thermostat control.

The envelope is a lumped conductance/capacitance pair (UA, C). Over one
step with piecewise-constant inputs the balance

    C dT/dt = UA (t_out - T) + Q

has the closed-form solution used here, so the integrator is exact for any
step size: no discretization drift, unconditionally stable. The thermostat
is a hysteresis relay gated by power availability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from . import defaults
from .errors import ConfigurationError
from .population import Building
from .weather import WeatherSeries


@dataclass(frozen=True)
class ExposureTrace:
    """Per-building simulation record over the event window."""

    building_id: int
    start: datetime
    dt_s: float
    t_in_c: np.ndarray = field(repr=False)
    powered: np.ndarray = field(repr=False)
    hvac_kw: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = len(self.t_in_c)
        if len(self.powered) != n or len(self.hvac_kw) != n:
            raise ConfigurationError("trace arrays must be equally long")
        if not np.all(np.isfinite(self.t_in_c)):
            raise ConfigurationError("trace contains non-finite temperatures")
        for name in ("t_in_c", "powered", "hvac_kw"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def n_steps(self) -> int:
        return len(self.t_in_c)


def step_indoor_temp(t_in: float, building: Building, t_out_c: float,
                     hvac_heat_w: float, internal_gain_w: float, dt_s: float) -> float:
    """Advance the indoor temperature one step with constant inputs.

    Exact exponential relaxation toward the equilibrium t_out + Q/UA.
    """
    if dt_s <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt_s}")
    q_w = hvac_heat_w + internal_gain_w
    t_eq = t_out_c + q_w / building.ua_w_per_k
    decay = math.exp(-building.ua_w_per_k * dt_s / building.thermal_mass_j_per_k)
    return t_eq + (t_in - t_eq) * decay


def hvac_thermostat(t_in: float, setpoint_c: float, deadband_c: float,
                    powered: bool, was_on: bool, rated_electric_kw: float) -> tuple[bool, float]:
    """Hysteresis heating control: on below the band, off above it, else hold.

    Power loss forces the unit off regardless of temperature.
    """
    if deadband_c <= 0:
        raise ConfigurationError(f"deadband must be positive, got {deadband_c}")
    if not powered:
        return False, 0.0
    if t_in < setpoint_c - deadband_c / 2.0:
        on = True
    elif t_in > setpoint_c + deadband_c / 2.0:
        on = False
    else:
        on = was_on
    return on, rated_electric_kw if on else 0.0


def simulate_block(buildings, weather: WeatherSeries, powered,
                   internal_gain_w: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Simulate buildings side by side over a weather window.

    `powered` is a (steps x buildings) boolean matrix aligned with the weather
    samples. Returns the indoor temperature and the heating-on flag, both
    (steps x buildings): the loop runs over time and each step advances every
    building at once. Initial temperatures are the setpoints; internal gains
    default as in `simulate_building`.
    """
    powered = np.ascontiguousarray(powered, dtype=bool)
    n, k = weather.n_steps, len(buildings)
    if powered.shape != (n, k):
        raise ConfigurationError(
            f"schedule block is {powered.shape[0]} steps x {powered.shape[1]} buildings, "
            f"weather has {n} steps for {k} buildings"
        )
    if internal_gain_w is None:
        gains = [defaults.INTERNAL_GAIN_W if b.n_occupants > 0 else 0.0 for b in buildings]
    else:
        gains = [internal_gain_w] * k
    # Per-building constants, each computed with the same scalar expression as
    # the one-building relay so that every row is bit-identical to it.
    decay = np.array([math.exp(-b.ua_w_per_k * weather.dt_s / b.thermal_mass_j_per_k)
                      for b in buildings])
    rise_off = np.array([g / b.ua_w_per_k for b, g in zip(buildings, gains)])
    rise_on = np.array([(b.hvac_heat_w + g) / b.ua_w_per_k for b, g in zip(buildings, gains)])
    lo = np.array([b.setpoint_c - b.deadband_c / 2.0 for b in buildings])
    hi = np.array([b.setpoint_c + b.deadband_c / 2.0 for b in buildings])

    t_out = weather.t_out_c
    t_in = np.empty((n, k))
    hvac_on = np.empty((n, k), dtype=bool)
    temp = np.array([b.setpoint_c for b in buildings], dtype=float)
    on = np.zeros(k, dtype=bool)
    hold = np.empty(k, dtype=bool)
    for i in range(n):
        # Hysteresis relay: off when unpowered, on below the band, off above
        # it, else hold. Temperatures are finite, so `<= hi` is `not > hi`.
        np.less_equal(temp, hi, out=hold)
        hold &= on
        np.less(temp, lo, out=on)
        on |= hold
        on &= powered[i]
        t_in[i] = temp
        hvac_on[i] = on
        # Exact step toward the equilibrium t_out + Q/UA.
        t_eq = np.where(on, rise_on, rise_off)
        t_eq += t_out[i]
        temp -= t_eq
        temp *= decay
        temp += t_eq
    if not np.isfinite(t_in).all():
        raise ConfigurationError("simulation produced non-finite temperatures")
    return t_in, hvac_on


def simulate_building(building: Building, weather: WeatherSeries,
                      powered, internal_gain_w: float | None = None) -> ExposureTrace:
    """Simulate one building over a weather window under a power schedule.

    `powered` is a boolean array aligned with the weather samples. The
    initial indoor temperature is the thermostat setpoint (business-as-usual
    start). Internal gains default to the package constant for occupied
    buildings and zero otherwise.
    """
    powered = np.asarray(powered, dtype=bool)
    if len(powered) != weather.n_steps:
        raise ConfigurationError(
            f"schedule has {len(powered)} steps, weather has {weather.n_steps}"
        )
    t_in, hvac_on = simulate_block([building], weather, powered[:, None], internal_gain_w)
    return ExposureTrace(
        building_id=building.id,
        start=weather.start,
        dt_s=weather.dt_s,
        t_in_c=t_in[:, 0].copy(),
        powered=powered.copy(),
        hvac_kw=np.where(hvac_on[:, 0], building.hvac_electric_kw, 0.0),
    )


def free_float_closed_form(building: Building, t_start_c: float, t_out_c: float,
                           internal_gain_w: float, times_s) -> np.ndarray:
    """Analytic unpowered trajectory for constant outdoor temperature."""
    times = np.asarray(times_s, dtype=float)
    t_eq = t_out_c + internal_gain_w / building.ua_w_per_k
    tau = building.thermal_mass_j_per_k / building.ua_w_per_k
    return t_eq + (t_start_c - t_eq) * np.exp(-times / tau)


class TraceWriter:
    """Appends `building_id,timestamp,t_in_c,powered,hvac_kw` rows to an open
    text handle, one trace at a time.

    Timestamps are formatted once per step and reused for every building
    that shares the start, step and length. Lines end in CRLF, as `csv`
    writes them.
    """

    def __init__(self, handle):
        self._handle = handle
        self._stamps: dict[tuple, list[str]] = {}
        handle.write("building_id,timestamp,t_in_c,powered,hvac_kw\r\n")

    def write(self, trace: ExposureTrace) -> None:
        key = (trace.start, trace.dt_s, trace.n_steps)
        stamps = self._stamps.get(key)
        if stamps is None:
            stamps = [(trace.start + timedelta(seconds=trace.dt_s * i)).isoformat()
                      for i in range(trace.n_steps)]
            self._stamps[key] = stamps
        bid = trace.building_id
        self._handle.writelines(
            f"{bid},{stamp},{t:.4f},{'true' if on else 'false'},{kw:.3f}\r\n"
            for stamp, t, on, kw in zip(stamps, trace.t_in_c.tolist(),
                                        trace.powered.tolist(), trace.hvac_kw.tolist())
        )


def write_traces_csv(traces, path) -> None:
    """Export traces as `building_id,timestamp,t_in_c,powered,hvac_kw` rows."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = TraceWriter(handle)
        for trace in traces:
            writer.write(trace)
