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

import numpy as np

from .population import Population
from .tables import digit_items, fixed_point, items, lead_items, put_items
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


# Bytes of rows `TraceWriter` lays out at once, the size of the one buffer
# it reuses: about eight buildings of a 1,152-step window.
TRACE_CHUNK_BYTES = 1 << 19


class TraceWriter:
    """Appends `building_id,timestamp,t_in_c,powered,hvac_kw` rows to an open
    binary handle, one simulated block at a time.

    A few buildings' rows at a time are written at their final byte offsets
    into one `uint8` buffer, allocated once and reused, whose filled part
    goes to the handle uncopied. Row (b, s) is five fields: the id,
    `,{stamp}`, the temperature's `,{sign}{integer part}` and `.dddd`, and
    a tail `,{powered},{kW}\r\n` chosen by the building and its (powered,
    heating) pair. One cumulative sum of the row lengths gives the row
    starts. Each field is one fancy assignment of fixed-width table items
    through an overlapping view of the buffer, so an item narrower than its
    table also writes padding. The passes run tail, id, stamp, integer
    part, decimals: all padding lands in fields of later passes (a tail's
    in the next row; a stamp is at most 7 bytes, `.ffffff`, narrower than
    the widest, and the temperature's fields are at least 7 bytes), so no
    byte is deleted, and no two items of one pass overlap, as every row is
    longer than any item. Lines end in CRLF, as `csv` writes them.
    """

    def __init__(self, handle, window: WeatherSeries):
        self._handle = handle
        self._stamps, self._stamp_len = items(
            f",{stamp.isoformat()}" for stamp in window.timestamps())
        self._buf = np.empty(TRACE_CHUNK_BYTES, dtype=np.uint8)
        self.chunk = 1
        handle.write(b"building_id,timestamp,t_in_c,powered,hvac_kw\r\n")

    def write(self, pop: Population, t_in, powered, hvac_on) -> None:
        """Rows of a block as `simulate_block` fills it, each argument
        (buildings x steps), `chunk` buildings (about `TRACE_CHUNK_BYTES`)
        at a time. The buffer grows only for a chunk that outgrows it."""
        ints, int_lengths = lead_items(",")
        decimals = digit_items(4, point=True)
        ids, id_len = items(map(str, pop.id.tolist()))
        # Item 4j + 2 powered + heating: building j's tail.
        tails, tail_len = items(
            f",{flag},{v:.3f}\r\n" for on_kw in pop.hvac_electric_kw.tolist()
            for flag in ("false", "true") for v in (0.0, on_kw))
        n = len(self._stamps)
        row_bytes = ids.itemsize + self._stamps.itemsize + ints.itemsize + 5 + tails.itemsize
        self.chunk = max(1, TRACE_CHUNK_BYTES // (n * row_bytes))
        for lo in range(0, len(pop), self.chunk):
            at = slice(lo, lo + self.chunk)
            t = t_in[at]
            # The digits of `tables.fixed_point`; a value that is not exact
            # there, or whose integer part has more than three digits, takes
            # the f-string's text, split at the point.
            neg, whole, fraction, exact = fixed_point(t, 4)
            exact &= whole < 1000
            fallback = np.flatnonzero(~exact)
            texts = [f"{v:.4f}".encode("ascii") for v in t.flat[fallback].tolist()]
            fallback_len = [1 + text.index(b".") for text in texts]  # raises unless finite
            np.putmask(whole, ~exact, 0)
            units = whole.view(np.int64)
            np.add(units, 1000, out=units, where=neg)
            int_len = int_lengths.take(units)
            int_len.flat[fallback] = fallback_len
            tail = 4 * np.arange(lo, lo + len(t))[:, None] + 2 * powered[at] + hvac_on[at]
            tail_bytes = tail_len.take(tail)
            row_len = id_len[at, None] + self._stamp_len + int_len + tail_bytes + 5
            start = np.cumsum(row_len.ravel()).reshape(row_len.shape) - row_len
            stamp_at = start + id_len[at, None]
            int_at = stamp_at + self._stamp_len
            decimal_at = int_at + int_len
            tail_at = decimal_at + 5
            end = int(tail_at[-1, -1] + tail_bytes[-1, -1])
            if end + tails.itemsize > len(buf := self._buf):
                buf = self._buf = np.empty(end + tails.itemsize, dtype=np.uint8)
            for offsets, field in ((tail_at, tails.take(tail)), (start, ids[at, None]),
                                   (stamp_at, self._stamps), (int_at, ints.take(units)),
                                   (decimal_at, decimals.take(fraction))):
                put_items(buf, offsets, field)
            for at_byte, text in zip(int_at.flat[fallback].tolist(), texts):
                buf[at_byte + 1:at_byte + 1 + len(text)] = np.frombuffer(text, np.uint8)
            self._handle.write(buf[:end].data)
