"""CSV tables read and written column by column: UTF-8, `csv` quoting,
CRLF line ends. Every table the package writes goes through `write_csv`
but `traces.csv`, and every table it reads through `read_csv`."""

from __future__ import annotations

import csv

import numpy as np

from .errors import ConfigurationError, IngestionError

# Rows formatted together: only one block's cell text exists at once.
BLOCK_ROWS = 1024


def write_csv(handle, header, columns) -> None:
    """Write `header`, then one row per index of `columns`. Each column is a
    `(values, text)` pair: a sequence, read as Python scalars, and the
    function that makes a value's cell, or None for `csv`'s own `str`
    (an empty cell for None)."""
    writer = csv.writer(handle)
    writer.writerow(header)
    for lo in range(0, len(columns[0][0]), BLOCK_ROWS):
        cells = []
        for values, text in columns:
            block = values[lo:lo + BLOCK_ROWS]
            if isinstance(block, np.ndarray):
                block = block.tolist()
            cells.append(block if text is None else map(text, block))
        writer.writerows(zip(*cells))


def save_csv(path, header, columns) -> None:
    """`write_csv` into a new file at `path`."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        write_csv(handle, header, columns)


def read_csv(path, parsers: dict) -> dict[str, list]:
    """The columns of the CSV file at `path` that `parsers` names, each cell
    parsed by its column's function (a short row's cells are empty).

    A missing column, or a cell that its function rejects, raises
    IngestionError naming the file, the row and the column: the first
    missing column, else the first bad cell, the lowest row first, then
    `parsers` order. A ValueError reads as an unparsable value; a
    ConfigurationError keeps its own message.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle, restval="")
        missing = [column for column in parsers if column not in (reader.fieldnames or ())]
        if missing:
            raise IngestionError(f"missing columns: {', '.join(missing)}", path, row=1,
                                 column=missing[0])
        columns = {column: [] for column in parsers}
        for record in reader:
            for column, values in columns.items():
                values.append(record[column])
    bad = []
    for order, (column, parse) in enumerate(parsers.items()):
        values = columns[column]
        for index, cell in enumerate(values):
            try:
                values[index] = parse(cell)
            except (ValueError, ConfigurationError) as exc:
                bad.append((index, order, exc))
                break
    if bad:
        index, order, exc = min(bad, key=lambda b: b[:2])
        column = list(parsers)[order]
        message = (exc.message if isinstance(exc, ConfigurationError)
                   else f"unparsable value {columns[column][index]!r}: {exc}")
        raise IngestionError(message, path, row=index + 2, column=column) from exc
    return columns
