import math
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coldsnap.errors import ConfigurationError, IngestionError
from coldsnap.weather import WeatherSeries, load_weather_csv, slice_window

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

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a leading EF BB BF.
        plain, marked = tmp_path / "w.csv", tmp_path / "bom.csv"
        write_csv(plain, make_rows(4, temp=lambda i: -5.0 - i))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        series, ref = load_weather_csv(marked), load_weather_csv(plain)
        assert (series.start, series.dt_s, series.n_steps) == (ref.start, ref.dt_s, 4)
        assert series.t_out_c.tolist() == ref.t_out_c.tolist() == [-5.0, -6.0, -7.0, -8.0]
        marked.write_bytes(marked.read_bytes().replace(b"-7.0", b"-7.\xff"))
        with pytest.raises(IngestionError, match="not UTF-8 text: byte 0xff") as info:
            load_weather_csv(marked)
        assert (info.value.path, info.value.row) == (marked, 4)

    def test_non_uniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        rows = make_rows(3)
        rows.append(f"{(START + timedelta(seconds=2 * 300 + 600)).isoformat()},-5.0,80.0")
        write_csv(path, rows)
        with pytest.raises(IngestionError, match="non-uniform"):
            load_weather_csv(path)

    def test_one_row_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        write_csv(path, make_rows(1))
        with pytest.raises(IngestionError, match="needs at least 2 rows") as info:
            load_weather_csv(path)
        assert info.value.path == path

    @pytest.mark.parametrize("gap_s", [0, -300])
    def test_second_timestamp_not_after_the_first_names_row(self, tmp_path, gap_s):
        path = tmp_path / "w.csv"
        rows = make_rows(3)
        rows[1] = f"{(START + timedelta(seconds=gap_s)).isoformat()},-5.0,80.0"
        write_csv(path, rows)
        with pytest.raises(IngestionError, match="strictly increasing") as info:
            load_weather_csv(path)
        assert (info.value.path, info.value.row, info.value.column) == (path, 3, "timestamp")

    def test_humidity_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "w.csv"
        write_csv(path, make_rows(3, rh=lambda i: 101.0 if i == 2 else 80.0))
        with pytest.raises(IngestionError, match="rh_pct"):
            load_weather_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_temperature_names_row(self, tmp_path, value):
        path = tmp_path / "w.csv"
        write_csv(path, make_rows(8, temp=lambda i: value if i == 4 else -5.0))
        message = f"must lie in [-100, 100], got {value}; file={path}; row=6; column=temp_c"
        with pytest.raises(IngestionError, match=re.escape(message)) as info:
            load_weather_csv(path)
        assert (info.value.path, info.value.row, info.value.column) == (path, 6, "temp_c")

    @pytest.mark.parametrize("value", [-100.0, 100.0, 150.0, -1e300,
                                       math.nextafter(100.0, math.inf),
                                       math.nextafter(-100.0, -math.inf)])
    def test_temperature_outside_plus_minus_100_names_row(self, tmp_path, value):
        path = tmp_path / "w.csv"
        write_csv(path, make_rows(8, temp=lambda i: repr(value) if i == 4 else -5.0))
        if -100.0 <= value <= 100.0:
            assert load_weather_csv(path).t_out_c[4] == value
            return
        message = f"must lie in [-100, 100], got {value!r}; file={path}; row=6; column=temp_c"
        with pytest.raises(IngestionError, match=re.escape(message)) as info:
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


def make_series(n=1440, dt_s=300.0):
    rng = np.random.default_rng(7)
    return WeatherSeries(
        start=START, dt_s=dt_s,
        t_out_c=rng.uniform(-20, 5, n),
        rh_pct=rng.uniform(40, 100, n),
    )


def at(sample):
    """The time of sample `sample` of a 300 s series from START."""
    return START + timedelta(seconds=300 * sample)


class TestSlice:
    def test_full_span_is_identity(self):
        series = make_series()
        out = slice_window(series, series.start, series.n_steps, series.dt_s)
        assert out.n_steps == series.n_steps
        np.testing.assert_array_equal(out.t_out_c, series.t_out_c)
        np.testing.assert_array_equal(out.rh_pct, series.rh_pct)

    def test_middle_day_of_5day_series_has_288_steps(self):
        series = make_series()
        out = slice_window(series, START + timedelta(days=2), 288, 300.0)
        assert out.n_steps == 288
        assert out.start == START + timedelta(days=2)
        np.testing.assert_array_equal(out.t_out_c, series.t_out_c[576:864])

    def test_slice_of_slice_equals_single_slice(self):
        series = make_series()
        inner = START + timedelta(hours=24)
        once = slice_window(series, inner, 288, 300.0)
        twice = slice_window(slice_window(series, START + timedelta(hours=10), 841, 300.0),
                             inner, 288, 300.0)
        np.testing.assert_array_equal(once.t_out_c, twice.t_out_c)
        assert once.start == twice.start

    def test_misaligned_bound_rejected(self):
        with pytest.raises(ConfigurationError, match="'window' starts .* off the 300 s grid"):
            slice_window(make_series(), START + timedelta(seconds=150), 100, 300.0)

    def test_start_within_jitter_snaps_to_the_grid(self):
        series = make_series()
        out = slice_window(series, at(7) + timedelta(seconds=0.5), 10, 150.0)
        np.testing.assert_array_equal(out.t_out_c, slice_window(series, at(7), 10, 150.0).t_out_c)

    def test_out_of_range_bound_rejected(self):
        series = make_series()
        # Past the last sample (a finer step by one half step), before the first.
        for start, n_steps, dt_s in ((0, 1441, 300.0), (1439, 2, 300.0), (1438, 4, 150.0),
                                     (-1, 2, 300.0), (1000, 161, 900.0)):
            with pytest.raises(ConfigurationError, match="'window' .* is not inside"):
                slice_window(series, at(start), n_steps, dt_s)


class TestResample:
    def test_non_commensurate_dt_rejected(self):
        series = make_series()
        for dt_s in (450.0, 200.0, 210.0, 600.001):
            with pytest.raises(ConfigurationError, match="'dt_s' must be a whole multiple"):
                slice_window(series, START, 10, dt_s)

    @pytest.mark.parametrize("dt_s", [60.0, 150.0])
    @pytest.mark.parametrize("first", [0, 1, 577, 1000, 1438])
    def test_finer_step_is_the_oracle_bit_for_bit(self, dt_s, first):
        series = make_series()
        factor = round(series.dt_s / dt_s)
        longest = (series.n_steps - 1 - first) * factor + 1  # ends on the last sample
        for n_steps in (2, min(7 * factor + 3, longest), longest):
            out = slice_window(series, at(first), n_steps, dt_s)
            ref = oracles.slice_window(oracles.resample(series, dt_s), at(first),
                                       at(first) + timedelta(seconds=n_steps * dt_s))
            assert out.dt_s == ref.dt_s == dt_s and out.start == ref.start
            assert out.t_out_c.tolist() == ref.t_out_c.tolist()
            assert out.rh_pct.tolist() == ref.rh_pct.tolist()

    @pytest.mark.parametrize("dt_s", [600.0, 900.0, 3600.0])
    def test_coarser_step_takes_the_samples_at_its_times(self, dt_s):
        series = make_series()  # 1439 gaps: no stride over the whole file lands on its end
        stride = round(dt_s / series.dt_s)
        for first in (0, 5, 101):
            n_steps = (series.n_steps - 1 - first) // stride + 1
            out = slice_window(series, at(first), n_steps, dt_s)
            assert out.t_out_c.tolist() == series.t_out_c[first::stride].tolist()
            assert out.rh_pct.tolist() == series.rh_pct[first::stride].tolist()

    def test_constant_series_finer_preserves_values(self):
        series = WeatherSeries(START, 600.0, np.full(10, 3.5), np.full(10, 70.0))
        out = slice_window(series, START, 19, 300.0)
        assert out.n_steps == 19
        assert np.all(out.t_out_c == 3.5)

    def test_linear_ramp_round_trips_through_finer_grid(self):
        n = 97
        ramp = np.linspace(-15.0, 5.0, n)
        series = WeatherSeries(START, 600.0, ramp, np.linspace(50, 90, n))
        finer = slice_window(series, START, (n - 1) * 4 + 1, 150.0)
        back = slice_window(finer, START, n, 600.0)
        assert back.n_steps == n
        assert np.abs(back.t_out_c - ramp).max() < 1e-12

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_resample_preserves_extremes_of_monotone_series(self, factor):
        n = 4 * factor + 1
        values = np.sort(np.linspace(-10, 10, n) ** 3)
        series = WeatherSeries(START, 300.0 * factor, values, np.linspace(50, 60, n))
        finer = slice_window(series, START, (n - 1) * factor + 1, 300.0)
        assert finer.t_out_c.min() == pytest.approx(values.min())
        assert finer.t_out_c.max() == pytest.approx(values.max())
        coarser = slice_window(finer, START, n, 300.0 * factor)
        assert coarser.t_out_c.min() == pytest.approx(values.min())
        assert coarser.t_out_c.max() == pytest.approx(values.max())


class TestInvariants:
    def test_series_is_immutable(self):
        series = make_series(10)
        with pytest.raises(ValueError):
            series.t_out_c[0] = 99.0
