"""Outdoor weather time series: ingestion, windowing, and resampling.

A :class:`WeatherSeries` is a uniformly spaced record of outdoor dry-bulb
temperature and relative humidity. It drives both the indoor-temperature
simulation and the freeze-damage index. Series are immutable after load
and safe to share across worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import ConfigurationError, IngestionError
from .tables import read_csv

# Tolerated timestamp jitter when checking uniform spacing, in seconds.
SPACING_JITTER_S = 1.0


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are taken as UTC."""
    try:
        stamp = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError as exc:
        raise IngestionError(f"unparsable timestamp {text!r}: {exc}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


@dataclass(frozen=True)
class WeatherSeries:
    """Uniformly spaced outdoor temperature (degC) and relative humidity (%)."""

    start: datetime
    dt_s: float
    t_out_c: np.ndarray = field(repr=False)
    rh_pct: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.asarray(self.t_out_c, dtype=float)
        rh = np.asarray(self.rh_pct, dtype=float)
        if self.dt_s <= 0:
            raise ConfigurationError(f"weather dt must be positive, got {self.dt_s}")
        if t.ndim != 1 or rh.ndim != 1 or len(t) != len(rh):
            raise ConfigurationError("temperature and humidity must be 1-D and equally long")
        if len(t) < 2:
            raise ConfigurationError("weather series needs at least 2 samples")
        if not np.all(np.isfinite(t)):
            raise ConfigurationError("weather contains non-finite temperatures")
        if np.any(rh < 0.0) or np.any(rh > 100.0):
            raise ConfigurationError("relative humidity outside [0, 100]")
        t.flags.writeable = False
        rh.flags.writeable = False
        object.__setattr__(self, "t_out_c", t)
        object.__setattr__(self, "rh_pct", rh)

    @property
    def n_steps(self) -> int:
        return len(self.t_out_c)

    @property
    def end(self) -> datetime:
        """Exclusive end of the covered span (one dt past the last sample)."""
        return self.start + timedelta(seconds=self.dt_s * self.n_steps)

    def timestamps(self) -> list[datetime]:
        return [self.start + timedelta(seconds=self.dt_s * i) for i in range(self.n_steps)]

    def index_of(self, stamp: datetime) -> int:
        """Grid index of `stamp`; raises if off-grid or outside the span."""
        offset = (stamp - self.start).total_seconds()
        idx = offset / self.dt_s
        if abs(idx - round(idx)) * self.dt_s > SPACING_JITTER_S:
            raise ConfigurationError(f"{stamp.isoformat()} is not aligned to the {self.dt_s:g}s grid")
        idx = int(round(idx))
        if idx < 0 or idx > self.n_steps:
            raise ConfigurationError(f"{stamp.isoformat()} outside the series span")
        return idx


def _temperature(raw: str) -> float:
    if not math.isfinite(value := float(raw)):
        raise ConfigurationError(f"non-finite temperature {value}")
    return value


def _humidity(raw: str) -> float:
    if not 0.0 <= (value := float(raw)) <= 100.0:
        raise ConfigurationError(f"relative humidity {value} outside [0, 100]")
    return value


def load_weather_csv(path) -> WeatherSeries:
    """Load a `timestamp,temp_c,rh_pct` CSV into a WeatherSeries.

    Rows must be strictly increasing in time with uniform spacing; the step
    is inferred from the first two rows.
    """
    columns = read_csv(path, {"timestamp": parse_timestamp, "temp_c": _temperature,
                              "rh_pct": _humidity})
    stamps = columns["timestamp"]
    if len(stamps) < 2:
        raise IngestionError("weather file needs at least 2 rows", path=path)
    dt_s = (stamps[1] - stamps[0]).total_seconds()
    if dt_s <= 0:
        raise IngestionError("timestamps must be strictly increasing", path=path, row=3)
    for i in range(1, len(stamps)):
        gap = (stamps[i] - stamps[i - 1]).total_seconds()
        if abs(gap - dt_s) > SPACING_JITTER_S:
            raise IngestionError(
                f"non-uniform spacing: expected {dt_s:g}s, got {gap:g}s",
                path=path, row=i + 2, column="timestamp",
            )
    return WeatherSeries(start=stamps[0], dt_s=dt_s, t_out_c=np.array(columns["temp_c"]),
                         rh_pct=np.array(columns["rh_pct"]))


def slice_window(series: WeatherSeries, start: datetime, end: datetime) -> WeatherSeries:
    """Return the half-open window [start, end) of a series.

    Bounds must lie on the sampling grid; the result has (end-start)/dt steps.
    """
    i0 = series.index_of(start)
    i1 = series.index_of(end)
    if i1 <= i0:
        raise ConfigurationError("window end must be after start")
    if i1 - i0 < 2:
        raise ConfigurationError("window must contain at least 2 samples")
    return WeatherSeries(
        start=start,
        dt_s=series.dt_s,
        t_out_c=series.t_out_c[i0:i1].copy(),
        rh_pct=series.rh_pct[i0:i1].copy(),
    )


def resample(series: WeatherSeries, new_dt_s: float) -> WeatherSeries:
    """Resample onto a commensurate grid spanning the same sample endpoints.

    Finer grids are filled by linear interpolation; coarser grids take every
    m-th sample. Both preserve the first and last original samples.
    """
    if new_dt_s <= 0:
        raise ConfigurationError(f"new dt must be positive, got {new_dt_s}")
    if new_dt_s == series.dt_s:
        return series
    n = series.n_steps
    if new_dt_s < series.dt_s:
        factor = series.dt_s / new_dt_s
        if abs(factor - round(factor)) > 1e-9:
            raise ConfigurationError(
                f"new dt {new_dt_s:g}s is not a divisor of {series.dt_s:g}s"
            )
        factor = int(round(factor))
        old_pos = np.arange(n, dtype=float)
        new_pos = np.arange((n - 1) * factor + 1, dtype=float) / factor
        t_new = np.interp(new_pos, old_pos, series.t_out_c)
        rh_new = np.interp(new_pos, old_pos, series.rh_pct)
    else:
        factor = new_dt_s / series.dt_s
        if abs(factor - round(factor)) > 1e-9:
            raise ConfigurationError(
                f"new dt {new_dt_s:g}s is not a multiple of {series.dt_s:g}s"
            )
        factor = int(round(factor))
        if (n - 1) % factor != 0:
            raise ConfigurationError(
                f"stride {factor} does not land on the final sample (n={n})"
            )
        t_new = series.t_out_c[::factor].copy()
        rh_new = series.rh_pct[::factor].copy()
    return WeatherSeries(start=series.start, dt_s=float(new_dt_s), t_out_c=t_new, rh_pct=rh_new)
