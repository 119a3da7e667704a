"""Single-zone indoor temperature simulation with thermostat control.

The envelope is a lumped conductance/capacitance pair (UA, C). Over one
step with piecewise-constant inputs the balance

    C dT/dt = UA (t_out - T) + Q

has the closed-form solution used here, so the integrator is exact for any
step size: no discretization drift, unconditionally stable. The thermostat
is a hysteresis relay gated by power availability.
"""

from __future__ import annotations

import functools
import math
from datetime import datetime, timedelta

import numpy as np

from .population import Population
from .weather import WeatherSeries

# Metabolic and plug gain of an occupied building, W. Electrically supplied
# internal gains are otherwise ignored.
INTERNAL_GAIN_W = 200.0
# Steps that `simulate_block` advances in its steps-major scratch before it
# transposes them into the caller's buffers: few enough that each scratch
# array of a 512-building block stays near 130 KB, enough that the
# transposes are paid rarely.
STEP_CHUNK = 32


def simulate_block(pop: Population, weather: WeatherSeries, powered, out: np.ndarray,
                   hvac_on: np.ndarray | None = None) -> None:
    """Simulate a population's buildings side by side over a weather window.

    `powered`, `out` and `hvac_on` are (buildings x steps): column i of `out`
    gets step i's indoor temperatures and, if given, of `hvac_on` its
    heating flags. The loop runs over time, advancing every building at
    once, `STEP_CHUNK` steps at a time in a small steps-major scratch: the
    chunk's equilibria are computed together, each step writes the next
    temperature row and flag row in place, and the chunk is then transposed
    once into `out` and `hvac_on`. At a step where no building of the block
    is powered every relay is off, so the step only decays toward the
    unheated equilibrium.
    Initial temperatures are the setpoints (business-as-usual start).
    Internal gains are `INTERNAL_GAIN_W` for occupied buildings and zero
    otherwise. Every temperature is finite: the `Building` bounds and the
    weather file's keep each equilibrium t_out + Q/UA and each decay
    exponent -UA dt / C finite.
    """
    powered = np.ascontiguousarray(powered, dtype=bool)
    gains = np.where(pop.n_occupants > 0, INTERNAL_GAIN_W, 0.0)
    # Per-building constants, each computed with the same scalar expression as
    # the one-building relay so that every row is bit-identical to it; numpy's
    # vector exp can differ from math.exp in the last bit.
    ua = pop.ua_w_per_k
    exponent = -ua * weather.dt_s / pop.thermal_mass_j_per_k
    decay = np.array([math.exp(x) for x in exponent.tolist()])
    rise_off = gains / ua
    rise_on = (pop.hvac_heat_w + gains) / ua
    lo = pop.setpoint_c - pop.deadband_c / 2.0
    hi = pop.setpoint_c + pop.deadband_c / 2.0

    n_steps = weather.n_steps
    lit = powered.any(axis=0).tolist()
    t_out = weather.t_out_c[:, None]
    chunk = min(STEP_CHUNK, n_steps)
    # In a chunk from step s, row k of `temp` holds step s + k's temperatures
    # and row k + 1 of `flag` its heating flags; row 0 of `flag` and the last
    # row of `temp` carry over to the next chunk.
    temp = np.empty((chunk + 1, len(pop)))
    temp[0] = pop.setpoint_c
    flag = np.zeros(temp.shape, dtype=bool)
    power = np.empty((chunk, len(pop)), dtype=bool)
    eq_on = np.empty(power.shape)
    eq = np.empty(power.shape)
    hold = np.empty(len(pop), dtype=bool)
    rows = list(zip(temp[:-1], temp[1:], flag[:-1], flag[1:], power, eq_on, eq))
    for first in range(0, n_steps, chunk):
        steps = slice(first, first + chunk)
        c = min(chunk, n_steps - first)
        # The equilibria t_out + Q/UA with the heating on and off; a lit step
        # puts the first into `eq` where its relay is on. A dark step leaves
        # its flag row off.
        np.add(rise_on, t_out[steps], out=eq_on[:c])
        np.add(rise_off, t_out[steps], out=eq[:c])
        power[:c] = powered[:, steps].T
        flag[1:] = False
        for (t, t_next, was_on, on, p, eq_if_on, t_eq), any_lit in zip(rows, lit[steps]):
            if any_lit:
                # Hysteresis relay: off when unpowered, on below the band,
                # off above it, else hold. Temperatures are finite, so
                # `<= hi` is `not > hi`.
                np.less_equal(t, hi, out=hold)
                hold &= was_on
                np.less(t, lo, out=on)
                on |= hold
                on &= p
                np.putmask(t_eq, on, eq_if_on)
            # Exact step toward the equilibrium.
            np.subtract(t, t_eq, out=t_next)
            t_next *= decay
            t_next += t_eq
        out[:, steps] = temp[:c].T
        if hvac_on is not None:
            hvac_on[:, steps] = flag[1:c + 1].T
        temp[0] = temp[c]
        flag[0] = flag[c]


# Bytes of fixed-width rows `TraceWriter` formats at once: about eight
# buildings of a 1,152-step window, so the export's memory stays a few MB.
TRACE_CHUNK_BYTES = 1 << 19


def _ascii_rows(strings) -> np.ndarray:
    """One zero-padded row of ASCII codes per string."""
    raw = [s.encode("ascii") for s in strings]
    width = max(map(len, raw), default=0)
    return np.frombuffer(b"".join(r.ljust(width, b"\0") for r in raw),
                         dtype=np.uint8).reshape(len(raw), width)


_FLAGS = _ascii_rows([",false,", ",true,"])
# Bytes of a `format_fixed4` row without a fallback: sign, up to four
# integer digits, the point and four decimals.
_FIXED4_BYTES = 10


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """ASCII of the integer part and of the point with four decimals of
    q = rint(|t| 1e4) for |t| < 1000, so q <= 10**7. Built on first use, so
    that runs without traces neither pay for nor hold them."""
    units = _ascii_rows(str(i) for i in range(1001))
    decimals = np.column_stack([np.full(10000, ord("."))] + [
        np.arange(10000) // p % 10 + ord("0") for p in (1000, 100, 10, 1)]).astype(np.uint8)
    decimals.flags.writeable = False
    return units, decimals


def format_fixed4(t) -> np.ndarray:
    """`f"{t:.4f}"` of every value, as zero-padded ASCII rows of shape
    `t.shape + (width,)`.

    Digits come from q = rint(|t| 1e4). For |t| < 1000, fl(|t| 1e4) lies
    within 1.2e-9 of the exact product, and the f-string rounds the exact
    binary value half-to-even, so the two roundings can differ only next to
    a half-integer: values within 1e-6 of one, and |t| >= 1000, are
    formatted by the f-string itself.
    """
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    small = a < 1000.0
    x = np.where(small, a, 0.0) * 1e4
    fallback = ~small | (np.abs(x - np.floor(x) - 0.5) < 1e-6)
    q = np.rint(x).astype(np.int64)
    units = q // 10000
    decimals = q - units * 10000
    sign = np.signbit(t).view(np.uint8) * np.uint8(ord("-"))
    units_ascii, decimals_ascii = _digit_tables()
    field = np.concatenate([sign[..., None], np.take(units_ascii, units, axis=0),
                            np.take(decimals_ascii, decimals, axis=0)], axis=-1)
    where = np.nonzero(fallback)
    if where[0].size:
        text = _ascii_rows(f"{v:.4f}" for v in t[where].tolist())
        if text.shape[1] > field.shape[-1]:
            field = np.concatenate(
                [field, np.zeros(t.shape + (text.shape[1] - field.shape[-1],), np.uint8)],
                axis=-1)
        field[where] = 0
        field[where + (slice(0, text.shape[1]),)] = text
    return field


class TraceWriter:
    """Appends `building_id,timestamp,t_in_c,powered,hvac_kw` rows to an open
    binary handle, one simulated block at a time.

    Rows are built as bytes, a few buildings at a time: each (building,
    step) gets one zero-padded fixed-width row of its five fields, and the
    padding is deleted from the chunk's bytes as they are written. Timestamps
    are formatted once per step. Lines end in CRLF, as `csv` writes them.
    """

    def __init__(self, handle, start: datetime, dt_s: float, n_steps: int):
        self._handle = handle
        self._stamps = _ascii_rows(f",{(start + timedelta(seconds=dt_s * i)).isoformat()},"
                                   for i in range(n_steps))
        self.chunk = 1
        handle.write(b"building_id,timestamp,t_in_c,powered,hvac_kw\r\n")

    def write(self, pop: Population, t_in, powered, hvac_on) -> None:
        """Rows of a block as `simulate_block` fills it, each argument
        (buildings x steps). `chunk` buildings' rows, about
        `TRACE_CHUNK_BYTES`, exist at once."""
        ids = _ascii_rows(map(str, pop.id.tolist()))
        # Rows 2j and 2j + 1: building j's draw with the heating off and on.
        kw = _ascii_rows(f"{v:.3f}\r\n" for on_kw in pop.hvac_electric_kw.tolist()
                         for v in (0.0, on_kw))
        n = self._stamps.shape[0]
        row_bytes = (ids.shape[1] + self._stamps.shape[1] + _FIXED4_BYTES
                     + _FLAGS.shape[1] + kw.shape[1])
        self.chunk = max(1, TRACE_CHUNK_BYTES // max(1, n * row_bytes))
        for lo in range(0, len(pop), self.chunk):
            at = slice(lo, lo + self.chunk)
            k = len(ids[at])
            kw_rows = 2 * np.arange(lo, lo + k)[:, None] + hvac_on[at]
            fields = (
                ids[at, None, :],
                self._stamps,
                format_fixed4(t_in[at]),
                np.take(_FLAGS, powered[at], axis=0),
                np.take(kw, kw_rows, axis=0),
            )
            rows = np.concatenate([np.broadcast_to(f, (k, n, f.shape[-1])) for f in fields],
                                  axis=2)
            self._handle.write(rows.tobytes().translate(None, b"\0"))
