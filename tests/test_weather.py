from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldsnap.errors import ConfigurationError, IngestionError
from coldsnap.weather import WeatherSeries, load_weather_csv, resample, slice_window

UTC = timezone.utc
START = datetime(2021, 2, 15, tzinfo=UTC)


def write_csv(path, rows):
    path.write_text("timestamp,temp_c,rh_pct\n" + "\n".join(rows) + "\n")


def make_rows(n, dt_s=300, temp=lambda i: -5.0, rh=lambda i: 80.0):
    return [
        f"{(START + timedelta(seconds=i * dt_s)).isoformat()},{temp(i)},{rh(i)}"
        for i in range(n)
    ]


class TestLoad:
    def test_five_day_file_at_300s_has_1440_steps(self, tmp_path):
        path = tmp_path / "w.csv"
        write_csv(path, make_rows(1440))
        series = load_weather_csv(path)
        assert series.n_steps == 1440
        assert series.dt_s == 300.0
        assert series.start == START

    def test_non_uniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        rows = make_rows(3)
        rows.append(f"{(START + timedelta(seconds=2 * 300 + 600)).isoformat()},-5.0,80.0")
        write_csv(path, rows)
        with pytest.raises(IngestionError, match="non-uniform"):
            load_weather_csv(path)

    def test_humidity_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        write_csv(path, make_rows(3, rh=lambda i: 101.0 if i == 2 else 80.0))
        with pytest.raises(IngestionError, match="rh_pct"):
            load_weather_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_temperature_names_row(self, tmp_path, value):
        path = tmp_path / "w.csv"
        write_csv(path, make_rows(8, temp=lambda i: value if i == 4 else -5.0))
        with pytest.raises(IngestionError, match=f"non-finite temperature {value}") as info:
            load_weather_csv(path)
        assert (info.value.path, info.value.row, info.value.column) == (path, 6, "temp_c")

    def test_bad_timestamp_names_row(self, tmp_path):
        path = tmp_path / "w.csv"
        rows = make_rows(2)
        rows.append("not-a-time,-5.0,80.0")
        write_csv(path, rows)
        with pytest.raises(IngestionError, match="row=4"):
            load_weather_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("timestamp,temp_c\n2021-02-15T00:00:00+00:00,-5.0\n")
        with pytest.raises(IngestionError, match="rh_pct"):
            load_weather_csv(path)


class TestSlice:
    def make_series(self, n=1440, dt_s=300.0):
        rng = np.random.default_rng(7)
        return WeatherSeries(
            start=START, dt_s=dt_s,
            t_out_c=rng.uniform(-20, 5, n),
            rh_pct=rng.uniform(40, 100, n),
        )

    def test_full_span_is_identity(self):
        series = self.make_series()
        out = slice_window(series, series.start, series.end)
        assert out.n_steps == series.n_steps
        np.testing.assert_array_equal(out.t_out_c, series.t_out_c)

    def test_empty_window_rejected(self):
        series = self.make_series()
        with pytest.raises(ConfigurationError):
            slice_window(series, series.start, series.start)

    def test_middle_day_of_5day_series_has_288_steps(self):
        series = self.make_series()
        start = START + timedelta(days=2)
        out = slice_window(series, start, start + timedelta(days=1))
        assert out.n_steps == 288
        np.testing.assert_array_equal(out.t_out_c, series.t_out_c[576:864])

    def test_slice_of_slice_equals_single_slice(self):
        series = self.make_series()
        a = START + timedelta(hours=10)
        b = START + timedelta(hours=80)
        inner_a = START + timedelta(hours=24)
        inner_b = START + timedelta(hours=48)
        once = slice_window(series, inner_a, inner_b)
        twice = slice_window(slice_window(series, a, b), inner_a, inner_b)
        np.testing.assert_array_equal(once.t_out_c, twice.t_out_c)
        assert once.start == twice.start

    def test_misaligned_bound_rejected(self):
        series = self.make_series()
        with pytest.raises(ConfigurationError, match="grid"):
            slice_window(series, START + timedelta(seconds=150), series.end)

    def test_out_of_range_bound_rejected(self):
        series = self.make_series()
        with pytest.raises(ConfigurationError, match="span"):
            slice_window(series, START, series.end + timedelta(seconds=300))


class TestResample:
    def test_same_dt_is_identity(self):
        series = TestSlice().make_series(100)
        assert resample(series, 300.0) is series

    def test_constant_series_finer_preserves_values(self):
        series = WeatherSeries(START, 600.0, np.full(10, 3.5), np.full(10, 70.0))
        out = resample(series, 300.0)
        assert out.n_steps == 19
        assert np.allclose(out.t_out_c, 3.5)

    def test_linear_ramp_round_trips_through_finer_grid(self):
        n = 97
        ramp = np.linspace(-15.0, 5.0, n)
        series = WeatherSeries(START, 600.0, ramp, np.linspace(50, 90, n))
        back = resample(resample(series, 150.0), 600.0)
        assert back.n_steps == n
        assert np.abs(back.t_out_c - ramp).max() < 1e-12

    def test_non_commensurate_dt_rejected(self):
        series = TestSlice().make_series(100)
        with pytest.raises(ConfigurationError):
            resample(series, 450.0)

    def test_coarser_stride_must_hit_endpoint(self):
        series = TestSlice().make_series(100)  # n-1 = 99 not divisible by 2
        with pytest.raises(ConfigurationError, match="final sample"):
            resample(series, 600.0)

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_resample_preserves_extremes_of_monotone_series(self, factor):
        n = 4 * factor + 1
        values = np.sort(np.linspace(-10, 10, n) ** 3)
        series = WeatherSeries(START, 300.0 * factor, values, np.linspace(50, 60, n))
        finer = resample(series, 300.0)
        assert finer.t_out_c.min() == pytest.approx(values.min())
        assert finer.t_out_c.max() == pytest.approx(values.max())
        coarser = resample(finer, 300.0 * factor)
        assert coarser.t_out_c.min() == pytest.approx(values.min())
        assert coarser.t_out_c.max() == pytest.approx(values.max())


class TestInvariants:
    def test_rh_range_enforced_on_construction(self):
        with pytest.raises(ConfigurationError):
            WeatherSeries(START, 300.0, np.zeros(4), np.array([10.0, 50.0, 101.0, 20.0]))

    def test_minimum_two_samples(self):
        with pytest.raises(ConfigurationError):
            WeatherSeries(START, 300.0, np.zeros(1), np.zeros(1))

    def test_series_is_immutable(self):
        series = TestSlice().make_series(10)
        with pytest.raises(ValueError):
            series.t_out_c[0] = 99.0
