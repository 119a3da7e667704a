"""Outdoor weather time series: ingestion and the cut of the event window.

A :class:`WeatherSeries` is a uniformly spaced record of outdoor dry-bulb
temperature and relative humidity. It drives both the indoor-temperature
simulation and the freeze-damage index. Series are immutable after load
and safe to share across worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .codec import Bound, parse_timestamp
from .errors import ConfigurationError, IngestionError
from .tables import cell_parser, read_csv

# Tolerated timestamp jitter when checking uniform spacing, in seconds.
SPACING_JITTER_S = 1.0


@dataclass(frozen=True)
class WeatherSeries:
    """Uniformly spaced outdoor temperature (degC) and relative humidity (%).
    Construction checks nothing: `load_weather_csv` checks every sample as
    it reads the file, and `slice_window` interpolates between such samples."""

    start: datetime
    dt_s: float
    t_out_c: np.ndarray = field(repr=False)
    rh_pct: np.ndarray = field(repr=False)
    source: str = ""  # the file it was read from, named in errors

    def __post_init__(self):
        t = np.asarray(self.t_out_c, dtype=float)
        rh = np.asarray(self.rh_pct, dtype=float)
        t.flags.writeable = False
        rh.flags.writeable = False
        object.__setattr__(self, "t_out_c", t)
        object.__setattr__(self, "rh_pct", rh)

    @property
    def n_steps(self) -> int:
        return len(self.t_out_c)

    def timestamps(self) -> list[datetime]:
        return [self.start + timedelta(seconds=self.dt_s * i) for i in range(self.n_steps)]


def load_weather_csv(path) -> WeatherSeries:
    """Load a `timestamp,temp_c,rh_pct` CSV into a WeatherSeries.

    Rows must be strictly increasing in time with uniform spacing; the step
    is inferred from the first two rows.
    """
    columns = read_csv(path, {"timestamp": parse_timestamp,
                              "temp_c": cell_parser(float, Bound(-100, 100)),
                              "rh_pct": cell_parser(float, Bound(0, 100))})
    stamps = columns["timestamp"]
    if len(stamps) < 2:
        raise IngestionError("weather file needs at least 2 rows", path=path)
    dt_s = (stamps[1] - stamps[0]).total_seconds()
    if dt_s <= 0:
        raise IngestionError("timestamps must be strictly increasing", path=path, row=3,
                             column="timestamp")
    for i in range(1, len(stamps)):
        gap = (stamps[i] - stamps[i - 1]).total_seconds()
        if abs(gap - dt_s) > SPACING_JITTER_S:
            raise IngestionError(
                f"non-uniform spacing: expected {dt_s:g}s, got {gap:g}s",
                path=path, row=i + 2, column="timestamp",
            )
    return WeatherSeries(start=stamps[0], dt_s=dt_s, t_out_c=np.array(columns["temp_c"]),
                         rh_pct=np.array(columns["rh_pct"]), source=str(path))


def slice_window(series: WeatherSeries, start: datetime, n_steps: int,
                 dt_s: float) -> WeatherSeries:
    """The run's `n_steps` steps of `dt_s` from `start`, cut from the series.

    Step j lies at sample index `(start - series.start) / series.dt_s +
    j * dt_s / series.dt_s` and takes the linear interpolation between the
    samples around it, which is the sample itself where it lands on one. So
    `dt_s` must be a whole multiple or divisor of the series' step and
    `start` must lie on its grid; a finer step reads the sample after the
    window's last step, which must lie inside the series too.
    """
    source = f"weather file {series.source}" if series.source else "the weather series"
    ratio = dt_s / series.dt_s
    if not any(r >= 1 and abs(r - round(r)) <= 1e-9 for r in (ratio, 1.0 / ratio)):
        raise ConfigurationError(
            f"config key 'dt_s' must be a whole multiple or divisor of the {series.dt_s:g} s "
            f"step of {source}, got {dt_s:g}")
    first = (start - series.start).total_seconds() / series.dt_s
    if abs(first - round(first)) * series.dt_s > SPACING_JITTER_S:
        raise ConfigurationError(
            f"config key 'window' starts at {start.isoformat()}, off the {series.dt_s:g} s "
            f"grid of {source}")
    position = round(first) + np.arange(n_steps) * dt_s / series.dt_s
    if position[0] < 0 or position[-1] > series.n_steps - 1:
        last = series.start + timedelta(seconds=series.dt_s * (series.n_steps - 1))
        end = start + timedelta(seconds=dt_s * (n_steps - 1))
        raise ConfigurationError(
            f"config key 'window' from {start.isoformat()} to its last step at "
            f"{end.isoformat()} is not inside {source} ({series.start.isoformat()} to "
            f"{last.isoformat()})")
    samples = np.arange(series.n_steps)
    return WeatherSeries(start, dt_s, np.interp(position, samples, series.t_out_c),
                         np.interp(position, samples, series.rh_pct), series.source)
