"""Shared fixtures: demo assets on disk and small synthetic inputs."""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
import pytest

from coldsnap.demo import write_demo
from coldsnap.hazard import HealthDistributions
from coldsnap.population import (
    Building,
    BuildingKind,
    HeatingFuel,
    Insulation,
    Population,
)
from coldsnap.weather import WeatherSeries

UTC = timezone.utc


@pytest.fixture(scope="session")
def demo_dir(tmp_path_factory):
    """Demo config + weather written once for the whole session."""
    directory = tmp_path_factory.mktemp("demo_assets")
    write_demo(directory)
    return directory


@pytest.fixture(scope="session")
def demo_config_path(demo_dir):
    return demo_dir / "demo_config.json"


def make_building(
    building_id: int = 0,
    kind: BuildingKind = BuildingKind.SINGLE_FAMILY,
    insulation: Insulation = Insulation.AVERAGE,
    floor_area_m2: float = 180.0,
    ua_per_m2: float = 1.8,
    mass_per_m2: float = 255e3,
    setpoint_c: float = 20.0,
    deadband_c: float = 1.0,
    n_occupants: int = 2,
    n_workers: int = 1,
    job_requires_power: bool = True,
    avg_annual_kwh: float = 14000.0,
    heating_fuel: HeatingFuel = HeatingFuel.ELECTRIC,
    hvac_heat_w: float | None = None,
    backup: bool = False,
) -> Building:
    ua = ua_per_m2 * floor_area_m2
    if hvac_heat_w is None:
        hvac_heat_w = ua * 35.0 * 1.25
    return Building(
        id=building_id,
        kind=kind,
        insulation=insulation,
        heating_fuel=heating_fuel,
        floor_area_m2=floor_area_m2,
        ua_w_per_k=ua,
        thermal_mass_j_per_k=mass_per_m2 * floor_area_m2,
        hvac_heat_w=hvac_heat_w,
        setpoint_c=setpoint_c,
        deadband_c=deadband_c,
        n_occupants=n_occupants,
        n_workers=n_workers,
        job_requires_power=job_requires_power,
        avg_annual_kwh=avg_annual_kwh,
        income_bracket="median" if kind in (
            BuildingKind.SINGLE_FAMILY, BuildingKind.MULTI_FAMILY, BuildingKind.MOBILE_HOME
        ) else "",
        backup=backup,
    )


def make_population(buildings) -> Population:
    return Population.from_buildings(buildings)


# The scalar rates of `HealthDistributions`, in the order the seeded
# sampler tests draw them.
RATE_NAMES = ("pre_existing_cardiac", "pre_existing_respiratory", "health_insurance",
              "healthcare_access", "home_insurance")


def shipped_rates() -> dict:
    """Each shipped `HealthDistributions` rate law by name, a survival
    table's as `<table>_<condition>`, in the order the seeded sampler tests
    draw them: `RATE_NAMES`, then hospital and home survival."""
    dists = HealthDistributions()
    rows = {name: getattr(dists, name) for name in RATE_NAMES}
    for table in ("hospital_survival", "home_survival"):
        rows.update({f"{table}_{c.value}": rate for c, rate in getattr(dists, table).items()})
    return rows


def constant_weather(t_out_c: float, hours: float, dt_s: float = 300.0,
                     rh_pct: float = 50.0,
                     start=datetime(2021, 2, 15, tzinfo=UTC)) -> WeatherSeries:
    n = int(hours * 3600 / dt_s)
    return WeatherSeries(
        start=start,
        dt_s=dt_s,
        t_out_c=np.full(n, float(t_out_c)),
        rh_pct=np.full(n, float(rh_pct)),
    )
