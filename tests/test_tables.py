"""The block-wise CSV writer against `csv.writer` row by row, and the
row-by-row reader's parsing and error locations."""

import csv
import io
import re

import numpy as np
import pytest

from coldsnap.codec import Bound
from coldsnap.errors import ConfigurationError, IngestionError
from coldsnap.population import Insulation
from coldsnap.tables import BLOCK_ROWS, cell_parser, read_csv, save_csv, write_csv


def reference(header, columns) -> str:
    handle = io.StringIO()
    writer = csv.writer(handle)
    writer.writerow(header)
    for i in range(len(columns[0][0])):
        writer.writerow([values[i] if text is None else text(values[i])
                         for values, text in columns])
    return handle.getvalue()


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               2 * BLOCK_ROWS + 7])
def test_blocks_write_the_rows_of_csv_writer(n):
    rng = np.random.default_rng(n)
    floats = rng.normal(0.0, 1e3, n)
    columns = [
        (range(n), None),
        (floats, "{:.2f}".format),
        (floats, repr),
        (rng.integers(-5, 5, n), None),
        ([("a,b", 'say "x"', "plain", None)[i % 4] for i in range(n)], None),
        (rng.random(n) < 0.5, ("false", "true").__getitem__),
    ]
    handle = io.StringIO()
    write_csv(handle, ["i", "f2", "repr", "k", "text", "flag"], columns)
    # The reference reads numpy cells as Python scalars too.
    listed = [(v.tolist() if isinstance(v, np.ndarray) else v, t) for v, t in columns]
    assert handle.getvalue() == reference(["i", "f2", "repr", "k", "text", "flag"], listed)


def test_save_csv_writes_utf8_with_crlf(tmp_path):
    path = tmp_path / "t.csv"
    save_csv(path, ("name", "value"), [(["α", "b"], None), ([0.5, None], None)])
    assert path.read_bytes() == "name,value\r\nα,0.5\r\nb,\r\n".encode()


def test_read_csv_parses_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("b,a,c\r\n1,x,2.5\r\n3,y\r\n")
    assert read_csv(path, {"a": str, "b": int, "c": str}) == {
        "a": ["x", "y"], "b": [1, 3], "c": ["2.5", ""]}


@pytest.mark.parametrize("rows, named", [
    # The lowest row first, then the parsers' column order.
    (["1,2,3", "1,x,3", "y,2,z"], (3, "b")),
    (["1,2,3", "1,2,x", "y,2,3"], (3, "c")),
    (["1,x,x", "x,2,3"], (2, "b")),
    (["x,2", "1,2,3"], (2, "a")),
    (["1,2"], (2, "c")),
])
def test_read_csv_names_the_first_bad_cell(tmp_path, rows, named):
    path = tmp_path / "t.csv"
    path.write_text("\n".join(["a,b,c"] + rows) + "\n")
    with pytest.raises(IngestionError, match="unparsable value") as info:
        read_csv(path, {"a": int, "b": int, "c": int})
    assert (info.value.path, info.value.row, info.value.column) == (path, *named)


def test_read_csv_names_the_first_missing_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a\n1\n")
    with pytest.raises(IngestionError, match="missing columns: c, b") as info:
        read_csv(path, {"c": int, "a": int, "b": int})
    assert (info.value.row, info.value.column) == (1, "c")


def test_read_csv_keeps_a_configuration_error_message(tmp_path):
    def positive(raw):
        if (value := float(raw)) <= 0:
            raise ConfigurationError(f"{value} is not positive")
        return value

    path = tmp_path / "t.csv"
    path.write_text("v\n1\n-2\n")
    with pytest.raises(IngestionError, match=r"^-2.0 is not positive; file=.*; row=3; column=v$"):
        read_csv(path, {"v": positive})


def test_read_csv_does_not_count_blank_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n\n3,x\n")
    with pytest.raises(IngestionError, match="unparsable value 'x'") as info:
        read_csv(path, {"a": int, "b": int})
    assert (info.value.row, info.value.column) == (3, "b")


def test_read_csv_reads_the_last_column_of_a_repeated_name(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,a\n1,2,3\n4,5\n")
    assert read_csv(path, {"a": str, "b": str}) == {"a": ["3", ""], "b": ["2", "5"]}


@pytest.mark.parametrize("data, row", [(b"a\xff,b\n1,2\n", 1), (b"a,b\n1,2\n\n3,\xe94\n", 3)])
def test_read_csv_names_the_row_of_a_byte_that_is_not_utf8(tmp_path, data, row):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(IngestionError, match="not UTF-8 text") as info:
        read_csv(path, {"a": int, "b": int})
    assert (info.value.path, info.value.row) == (path, row)


@pytest.mark.parametrize("tp, bound, good, bad", [
    (float, Bound(-100, 100), [("-100", -100.0), ("1e2", 100.0)],
     [("nan", "must lie in [-100, 100], got nan"), ("100.5", "got 100.5")]),
    (float, None, [("-1e308", -1e308)], [("inf", "must lie in (-inf, inf), got inf")]),
    (int, Bound(0), [("0", 0)], [("-1", "must lie in [0, inf), got -1"),
                                 ("9223372036854775808", "64-bit"), ("1.0", "invalid literal")]),
    (bool, None, [("true", True), ("false", False)], [("True", "expected true/false")]),
    (Insulation, None, [("little", 0), ("very_good", 6)], [("Good", "not a valid")]),
])
def test_cell_parser_reads_its_type_inside_its_bound(tp, bound, good, bad):
    parse = cell_parser(tp, bound)
    assert [parse(raw) for raw, _ in good] == [value for _, value in good]
    for raw, message in bad:
        with pytest.raises((ValueError, ConfigurationError), match=re.escape(message)):
            parse(raw)
