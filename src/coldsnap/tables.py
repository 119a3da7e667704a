"""CSV tables: UTF-8, `csv` quoting, CRLF line ends. Every table the
package writes goes through `write_csv` but `traces.csv`, and every table
it reads goes through `read_csv`, row by row, up to the first bad cell."""

from __future__ import annotations

import csv
from enum import Enum

import numpy as np

from .codec import Bound
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


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(f"expected true/false, got {raw!r}")
    return raw == "true"


def _parse_int(raw: str) -> int:
    if not -2**63 <= (value := int(raw)) < 2**63:
        raise ValueError("outside the 64-bit integer range")
    return value


def cell_parser(tp: type, bound: Bound | None = None):
    """The parser of a cell of type `tp`: "true" or "false", a 64-bit
    integer, a finite float, text, or an enum member's value, read as its
    index in declaration order. A number must also lie in `bound`."""
    if issubclass(tp, Enum):
        codes = {member: index for index, member in enumerate(tp)}
        return lambda raw: codes[tp(raw)]  # tp(raw) raises for a non-member
    parse = {bool: _parse_bool, int: _parse_int}.get(tp, tp)
    bound = bound or (Bound() if tp is float else None)  # a float must be finite
    if bound is None:
        return parse
    lo, hi, above, below = bound.lo, bound.hi, bound.above, bound.below

    def parse_within(raw: str):
        if lo <= (value := parse(raw)) <= hi and above < value < below:
            return value
        bound.check(value, None)  # raises, with the message

    return parse_within


def read_csv(path, parsers: dict) -> dict[str, list]:
    """The columns of the CSV file at `path` that `parsers` names, each cell
    parsed by its column's function as its row is read. Blank lines are
    skipped and not counted, a short row's missing cells are empty, and the
    last column of a repeated name is read.

    A missing column, a bad cell, a byte that is not UTF-8 and text that
    `csv` cannot split raise IngestionError naming the file and the row: the
    first missing column, else the first bad row and in it the first bad
    cell in `parsers` order. A ValueError reads as an unparsable value; a
    ConfigurationError keeps its own message.
    """
    columns = {column: [] for column in parsers}
    row = 0  # the last row read; the header is row 1
    # A byte-order mark, as spreadsheets write "CSV UTF-8", is not part of the header.
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        # A byte that is not UTF-8 reads as a lone surrogate, which encode() rejects.
        reader = csv.reader(line for line in handle if line.isascii() or line.encode())
        try:
            header = next(reader, [])
            row = 1
            index = {name: i for i, name in enumerate(header)}
            missing = [column for column in parsers if column not in index]
            if missing:
                raise IngestionError(f"missing columns: {', '.join(missing)}", path, row=1,
                                     column=missing[0])
            cells = [(column, index[column], parse, columns[column].append)
                     for column, parse in parsers.items()]
            for row, record in enumerate(filter(None, reader), 2):
                record += [""] * (len(header) - len(record))
                try:
                    for column, i, parse, append in cells:
                        append(parse(record[i]))
                except (ValueError, ConfigurationError) as exc:
                    message = (exc.message if isinstance(exc, ConfigurationError)
                               else f"unparsable value {record[i]!r}: {exc}")
                    raise IngestionError(message, path, row=row, column=column) from exc
        except UnicodeEncodeError as exc:
            byte = ord(exc.object[exc.start]) & 0xFF
            raise IngestionError(f"not UTF-8 text: byte {byte:#04x}", path, row=row + 1) from exc
        except csv.Error as exc:
            raise IngestionError(f"unreadable CSV text: {exc}", path, row=row + 1) from exc
    return columns
