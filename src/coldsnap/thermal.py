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
from datetime import datetime, timedelta

import numpy as np

from . import defaults
from .errors import ConfigurationError
from .weather import WeatherSeries


def simulate_block(buildings, weather: WeatherSeries, powered,
                   internal_gain_w: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Simulate buildings side by side over a weather window.

    `powered` is a (steps x buildings) boolean matrix aligned with the weather
    samples. Returns the indoor temperature and the heating-on flag, both
    (steps x buildings): the loop runs over time and each step advances every
    building at once. Initial temperatures are the setpoints (business-as-usual
    start). Internal gains default to the package constant for occupied
    buildings and zero otherwise.
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


class TraceWriter:
    """Appends `building_id,timestamp,t_in_c,powered,hvac_kw` rows to an open
    text handle, one simulated block at a time.

    Timestamps are formatted once per step and reused for every building.
    Lines end in CRLF, as `csv` writes them.
    """

    def __init__(self, handle, start: datetime, dt_s: float, n_steps: int):
        self._handle = handle
        self._stamps = [(start + timedelta(seconds=dt_s * i)).isoformat()
                        for i in range(n_steps)]
        handle.write("building_id,timestamp,t_in_c,powered,hvac_kw\r\n")

    def write(self, buildings, t_in, powered, hvac_on) -> None:
        """Rows of a block as `simulate_block` takes and returns it: `t_in`,
        `powered` and `hvac_on` are (steps x buildings). Columns are converted
        one building at a time, so only one building's values exist as
        Python objects at once."""
        for j, b in enumerate(buildings):
            kw = (f"{0.0:.3f}", f"{b.hvac_electric_kw:.3f}")
            self._handle.writelines(
                f"{b.id},{stamp},{t:.4f},{'true' if p else 'false'},{kw[h]}\r\n"
                for stamp, t, p, h in zip(self._stamps, t_in[:, j].tolist(),
                                          powered[:, j].tolist(), hvac_on[:, j].tolist())
            )
