"""Bundled demonstration assets: a synthetic cold-snap weather series and a
ready-to-run configuration.

The weather is "Uri-like", not a historical record: five February days with
nightly minima near -15 degC and humidity swinging through the freeze-damage
threshold. Studies should substitute measured ASOS/NOAA series.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .tables import save_csv
from .weather import WeatherSeries

DEMO_START = datetime(2021, 2, 15, 0, 0, tzinfo=timezone.utc)
DEMO_DAYS = 5
DEMO_DT_S = 300.0
# Event window: the four coldest days.
DEMO_WINDOW_START = DEMO_START
DEMO_WINDOW_END = DEMO_START + timedelta(days=4)

# Daily mean outdoor temperature anchors at day boundaries 0..5, degC.
_DAY_MEANS_C = (-6.0, -11.0, -12.0, -9.0, -5.0, -2.0)
_DIURNAL_AMP_C = 4.5
_RH_MEAN_PCT = 82.0
_RH_AMP_PCT = 10.0

# 1308 residential and 95 commercial premises. The commercial mix is spread
# evenly across the ten kinds, an assumption: no per-kind census is bundled.
DEMO_COUNTS = {
    "single_family": 981,
    "multi_family": 222,
    "mobile_home": 105,
    "office": 10,
    "warehouse_storage": 10,
    "big_box": 10,
    "strip_mall": 10,
    "education": 10,
    "food_service": 9,
    "food_sales": 9,
    "lodging": 9,
    "healthcare": 9,
    "low_occupancy": 9,
}


def make_uri_like_weather() -> WeatherSeries:
    """Deterministic 5-day synthetic series at 300 s resolution."""
    n = int(DEMO_DAYS * 86400 / DEMO_DT_S)
    t_days = np.arange(n) * DEMO_DT_S / 86400.0
    mean_c = np.interp(t_days, np.arange(len(_DAY_MEANS_C), dtype=float), _DAY_MEANS_C)
    hour = (t_days % 1.0) * 24.0
    # Warmest mid-afternoon, coldest pre-dawn; humidity peaks pre-dawn.
    t_out = mean_c + _DIURNAL_AMP_C * np.cos(2.0 * math.pi * (hour - 15.0) / 24.0)
    rh = _RH_MEAN_PCT + _RH_AMP_PCT * np.cos(2.0 * math.pi * (hour - 5.0) / 24.0)
    t_out = np.round(t_out, 2)
    rh = np.round(np.clip(rh, 0.0, 100.0), 2)
    return WeatherSeries(start=DEMO_START, dt_s=DEMO_DT_S, t_out_c=t_out, rh_pct=rh)


def write_weather_csv(series: WeatherSeries, path) -> None:
    save_csv(path, ("timestamp", "temp_c", "rh_pct"),
             [(series.timestamps(), datetime.isoformat), (series.t_out_c, "{:.2f}".format),
              (series.rh_pct, "{:.2f}".format)])


def demo_config_dict(weather_filename: str = "demo_weather.csv",
                     out_dir: str = "runs/demo") -> dict:
    """The shipped demo configuration: 1403 premises, four scenarios."""
    return {
        "notes": [
            "Demonstration configuration; parameters are illustrative defaults.",
            "The commercial mix is spread uniformly across kinds (assumption).",
            "Weather is a synthetic cold snap, not a historical record.",
        ],
        "population": {"spec": {"counts": dict(DEMO_COUNTS)}},
        "weather_path": weather_filename,
        "window": {
            "start": DEMO_WINDOW_START.isoformat(),
            "end": DEMO_WINDOW_END.isoformat(),
        },
        "dt_s": DEMO_DT_S,
        "scenario": "base",
        "scenarios": {
            "base": {},
            "co": {
                "shed_fraction": 0.25,
                "shed_scope": "residential",
                "fault_fraction": 0.034,
            },
            "ro-di": {
                "n_groups": 3,
                "availability_constant": 0.34,
                "fault_fraction": 0.034,
            },
            "ro-hi": {
                "n_groups": 3,
                "availability_constant": 0.34,
            },
        },
        "hazard": {"delta": 0.0},
        # beta_wi pinned so repair severity is comparable across scenarios.
        "valuation": {"acknowledge_default_cic": True, "beta_wi": 25000.0},
        "n_trials": 1000,
        "seed": 42,
        "histogram_bins": 50,
        "out_dir": out_dir,
    }


def write_demo(directory) -> Path:
    """Write demo_weather.csv and demo_config.json into a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_weather_csv(make_uri_like_weather(), directory / "demo_weather.csv")
    config = demo_config_dict()
    config_path = directory / "demo_config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path
