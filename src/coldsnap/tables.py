"""CSV tables: UTF-8, `csv` quoting, CRLF line ends. Every table the
package writes but `traces.csv` is laid out by `csv_blocks`, and
`traces.csv` takes its numbers from the same digit rule (`fixed_point`);
every table it reads goes through `read_csv`, row by row, up to the first
bad cell."""

from __future__ import annotations

import csv
import functools
from enum import Enum

import numpy as np

from .codec import Bound
from .errors import ConfigurationError, IngestionError

# Rows laid out together: only one block's cells exist at once.
BLOCK_ROWS = 1024
# Powers of 1000 up to the largest below 2**64: integers are written in
# groups of three digits.
_THOUSANDS = 1000 ** np.arange(7, dtype=np.uint64)
_THOUSANDS.flags.writeable = False
_CRLF = np.frombuffer(b"\r\n", dtype="V2")
# The rows of a piece that covers every row of its block.
_ALL = slice(None)
# The longest float repr, that of -2.2250738585072014e-308.
_REPR_WIDTH = 24


class fixed:
    """Column marker: each value's `f"{v:.{decimals}f}"`, a block at a time
    through `fixed_point`. Called on one value, it is that f-string."""

    def __init__(self, decimals: int):
        if not 1 <= decimals <= 6:
            raise ValueError(f"fixed() takes 1 to 6 decimals, got {decimals}")
        self.decimals = decimals

    def __call__(self, value) -> str:
        return f"{value:.{self.decimals}f}"


class labels:
    """Column marker: the cell of code i is `names[i]`, a block at a time
    through one table. Called on one code, it is that name."""

    def __init__(self, names: tuple[str, ...]):
        self.names = names

    def __call__(self, code) -> str:
        return self.names[code]


def items(strings, prefix: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Each `prefix + s` of `strings` as UTF-8 bytes in one fixed-width item,
    padded with spaces, and its length."""
    strings = list(strings)
    raw = strings if "".join(strings).isascii() else [s.encode() for s in strings]
    lengths = np.fromiter(map(len, raw), dtype=np.int64, count=len(raw))
    width = max(1, int(lengths.max(initial=0)))
    pattern = f"{prefix}%-{width}s" * len(raw)
    data = (pattern % tuple(raw)).encode() if raw is strings else pattern.encode() % tuple(raw)
    sep = len(prefix.encode())
    return np.frombuffer(data, dtype=f"V{sep + width}"), lengths + sep


@functools.cache
def lead_items(prefix: str) -> tuple[np.ndarray, np.ndarray]:
    """The items `{prefix}{sign}{g}` at 1000 sign + g for g < 1000, with
    their lengths: a number's separator, sign and leading digit group."""
    sep = np.frombuffer(prefix.encode(), dtype=np.uint8)
    group = np.arange(1000)
    count = 1 + (group >= 10) + (group >= 100)  # digits of each group
    table = np.zeros((2, 1000, len(sep) + 4), dtype=np.uint8)
    table[:, :, :len(sep)] = sep
    table[1, :, len(sep)] = ord("-")
    for k in range(3):  # the k-th digit from the left, of the groups that have it
        has = count > k
        digit = group[has] // 10 ** (count[has] - 1 - k) % 10 + ord("0")
        table[0, has, len(sep) + k] = table[1, has, len(sep) + 1 + k] = digit
    lengths = np.concatenate([count, count + 1]) + len(sep)
    lengths.flags.writeable = table.flags.writeable = False
    return table.reshape(2000, -1).view(f"V{table.shape[2]}")[:, 0], lengths


@functools.cache
def digit_items(count: int, point: bool = False) -> np.ndarray:
    """The item at i < 10**count: i's `count` digits with leading zeros,
    after a decimal point if `point`. At most 10**4 items of 5 bytes."""
    table = np.empty((10 ** count, point + count), dtype=np.uint8)
    table[:, :point] = ord(".")
    table[:, point:] = np.arange(10 ** count)[:, None] // 10 ** np.arange(count)[::-1] % 10 + ord("0")
    table.flags.writeable = False
    return table.view(f"V{table.shape[1]}")[:, 0]


def fixed_point(values: np.ndarray, decimals: int):
    """The parts of each `f"{v:.{decimals}f}"` of `values`, any shape: the
    sign bit, the integer part (uint64), the decimals as one integer, and
    whether those parts are the f-string's.

    With q = rint(|v| 10**decimals), where the product is computed in
    float64 within |v| 10**decimals 2**-53 of the exact one, q is the
    f-string's digits (it rounds the exact product half to even) unless the
    product lies that close to a half-integer. A value within twice that
    distance, or whose product reaches 2**52 (where q stops being exact) or
    is not finite, is not exact: its parts are zero and it takes the f-string."""
    # Clamped so that the product and x - q stay finite; a clamped value is
    # still beyond the range. The steps run in place: a chunk of traces
    # holds about three arrays of its size here at once.
    x = np.abs(values)
    np.minimum(x, 2.0 ** 60, out=x)
    x *= 10 ** decimals
    q = np.rint(x)
    margin = np.subtract(x, q)
    np.abs(margin, out=margin)
    np.subtract(0.5, margin, out=margin)
    exact = x < 2.0 ** 52
    x *= 2.0 ** -52
    exact &= margin > x
    del x, margin
    np.putmask(q, ~exact, 0.0)
    q = q.astype(np.uint64)
    whole = q // 10 ** decimals
    q -= whole * 10 ** decimals
    return np.signbit(values), whole, q.view(np.int64), exact


def _digit_groups(whole: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Of each integer: its count of full three-digit groups after the
    leading group, and the leading group."""
    groups = np.zeros(whole.shape, dtype=np.intp)
    if not whole.size or whole.max() < 1000:
        return groups, whole
    for power in _THOUSANDS[1:]:
        over = whole >= power
        if not over.any():
            break
        groups += over
    return groups, whole // _THOUSANDS[groups]


class _Field:
    """Rows [lo, hi) of one column, laid out relative to each row's field.
    `length` holds each row's bytes, its leading separator included.
    `padded` pieces (rows, items, lengths) are items written at the field's
    start, wider than their `lengths` where their table is; `fixed` pieces
    (rows, offset, items) are items of one width at an offset in the field,
    of the rows `rows` (an index array, or `_ALL`)."""

    def __init__(self, length: np.ndarray, padded: list, fixed: list):
        self.length, self.padded, self.fixed = length, padded, fixed


def _number(neg, whole, prefix: str) -> _Field:
    """`{prefix}{sign}{whole}`: the leading group from `lead_items`, then
    each full group of three digits."""
    table, table_len = lead_items(prefix)
    groups, top = _digit_groups(whole)
    lead = top.astype(np.intp)
    np.add(lead, 1000, out=lead, where=neg)
    lead_len = table_len.take(lead)
    pieces = []
    for j in range(int(groups.max(initial=0))):
        rows = np.flatnonzero(groups > j)
        value = whole[rows] // _THOUSANDS[groups[rows] - 1 - j] % 1000
        pieces.append((rows, lead_len[rows] + 3 * j, digit_items(3).take(value.astype(np.intp))))
    return _Field(lead_len + 3 * groups, [(_ALL, table.take(lead), lead_len)], pieces)


def _integer_field(values, prefix: str, lo: int, hi: int) -> _Field:
    block = values[lo:hi]
    if isinstance(block, range):
        block = np.arange(block.start, block.stop, block.step)
    if block.dtype.kind == "u":
        return _number(np.zeros(len(block), dtype=bool), block.astype(np.uint64), prefix)
    block = block.astype(np.int64)
    # abs(-2**63) wraps to itself, whose unsigned reading is its magnitude.
    return _number(block < 0, np.abs(block).view(np.uint64), prefix)


def _decimal_field(values, decimals: int, prefix: str, lo: int, hi: int) -> _Field:
    block = values[lo:hi]
    neg, whole, fraction, exact = fixed_point(block, decimals)
    field = _number(neg, whole, prefix)
    rows = _ALL
    if not exact.all():
        # The f-string, written over the parts of zero at the field's start.
        rows = np.flatnonzero(exact)
        fallback = np.flatnonzero(~exact)
        table, lengths = items((f"{v:.{decimals}f}" for v in block[fallback].tolist()), prefix)
        field.padded.append((fallback, table, lengths))
        field.length[fallback] = lengths
        fraction = fraction[rows]
    at = field.length[rows]
    if decimals > 4:  # two lookups, not a table of 10**decimals items
        field.fixed += [(rows, at, digit_items(decimals - 3, point=True).take(fraction // 1000)),
                        (rows, at + decimals - 2, digit_items(3).take(fraction % 1000))]
    else:
        field.fixed.append((rows, at, digit_items(decimals, point=True).take(fraction)))
    field.length = field.length + (decimals + 1) * exact
    return field


def _label_field(codes, table, lo: int, hi: int) -> _Field:
    block = codes[lo:hi]
    lengths = table[1].take(block)
    return _Field(lengths, [(_ALL, table[0].take(block), lengths)], [])


def _repr_field(values: np.ndarray, prefix: str, lo: int, hi: int) -> _Field:
    """Each value's repr, as `csv` writes a float, in items as wide as the
    longest float repr; a run of values with one bit pattern is formatted once."""
    block = values[lo:hi]
    bits = block.view(np.int64)
    heads = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    width = len(prefix) + _REPR_WIDTH
    text = (f"{prefix}%-{_REPR_WIDTH}r" * len(heads)) % tuple(block[heads].tolist())
    table = np.frombuffer(text.encode(), dtype=f"V{width}")
    lengths = width - (table.view(np.uint8).reshape(-1, width) == ord(" ")).sum(axis=1)
    if len(heads) < len(block):
        runs = np.diff(heads, append=len(block))
        table, lengths = table.repeat(runs), lengths.repeat(runs)
    return _Field(lengths, [(_ALL, table, lengths)], [])


def _quoted(cell: str) -> str:
    """`csv`'s minimal quoting: a cell holding a comma, a quote, CR or LF is
    quoted, and each quote doubled."""
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_text(value) -> str:
    """The text `csv` writes for a value: empty for None, else `str`."""
    return "" if value is None else value if type(value) is str else str(value)


def _text_field(values, text, prefix: str, alone: bool, lo: int, hi: int) -> _Field:
    """Cells made one at a time, as `text(v)`, or for None as `csv` makes them."""
    block = values[lo:hi]
    if isinstance(block, np.ndarray) and text is None and block.dtype.kind == "U":
        cells = block.tolist()  # already `csv`'s text
    else:
        if isinstance(block, np.ndarray):
            block = block.tolist()
        cells = list(map(_csv_text, block if text is None else map(text, block)))
    joined = "".join(cells)
    if "," in joined or '"' in joined or "\r" in joined or "\n" in joined:
        cells = list(map(_quoted, cells))
    if alone:  # a row of one empty cell is written as `""`
        cells = [cell or '""' for cell in cells]
    table, lengths = items(cells, prefix)
    return _Field(lengths, [(_ALL, table, lengths)], [])


def _column(values, text, prefix: str, alone: bool):
    """The function of (lo, hi) that lays out rows [lo, hi) of a column as a
    `_Field`. A one-column table's cells are all made one at a time."""
    if alone:
        return functools.partial(_text_field, values, text, prefix, alone)
    if isinstance(text, fixed):
        return functools.partial(_decimal_field, np.asarray(values, dtype=np.float64),
                                 text.decimals, prefix)
    if isinstance(text, labels):
        codes = np.asarray(values)
        table = items(map(_quoted, text.names), prefix)
        return functools.partial(_label_field, codes.view(np.uint8) if codes.dtype == bool
                                 else codes, table)
    kind = values.dtype.kind if isinstance(values, np.ndarray) and text is None else None
    if kind in ("i", "u") or text is None and isinstance(values, range):
        return functools.partial(_integer_field, values, prefix)
    if kind == "f":
        return functools.partial(_repr_field, values.astype(np.float64, copy=False), prefix)
    return functools.partial(_text_field, values, text, prefix, alone)


def put_items(buf: np.ndarray, offsets, table_items: np.ndarray) -> None:
    """Write each item at its byte offset, through a view of `buf` as
    overlapping items, one per byte."""
    width = table_items.itemsize
    view = np.ndarray((len(buf) - width + 1,), dtype=table_items.dtype, buffer=buf, strides=(1,))
    view[offsets] = table_items


def _put_padded(buf: np.ndarray, at, row_end, table: np.ndarray, lengths) -> None:
    """`put_items`, but an item whose padding would pass its row's end is
    written byte by byte without its padding."""
    spill = at + table.itemsize > row_end
    if spill.any():
        rows = np.flatnonzero(spill)
        mask = np.arange(table.itemsize) < lengths[rows, None]
        data = table[rows].view(np.uint8).reshape(mask.shape)[mask]
        starts = np.repeat(at[rows] - (np.cumsum(lengths[rows]) - lengths[rows]), lengths[rows])
        buf[starts + np.arange(len(data))] = data
        table, at = table[~spill], at[~spill]
    put_items(buf, at, table)


def csv_blocks(header, columns):
    """The CSV text of `header` and one row per index of `columns`, as
    UTF-8 bytes: the header line, then `BLOCK_ROWS` rows at a time, each a
    view of one buffer that the next block overwrites.

    Each column is a `(values, text)` pair: a sequence, read as Python
    scalars, and how a value's cell is made. Integers (for None), `labels`
    and `fixed` columns are made a block at a time from table items; any
    other `text` makes each cell as `text(v)`, and None as `csv` does (an
    empty cell for None, else `str`, so a float is its repr).

    A block's rows are laid out at their final byte offsets: one cumulative
    sum of the row lengths places the rows, and each field follows the one
    before it. Items of varying length are written first, field by field
    from the left; an item narrower than its table also writes padding,
    which lands in a field written after it, and an item whose padding
    would leave its row is written without it. Items of one width and each
    row's closing CRLF are written last.
    """
    yield ((",".join(_quoted(_csv_text(name)) for name in header) or '""') + "\r\n").encode()
    makers = [_column(values, text, "," if k else "", len(columns) == 1)
              for k, (values, text) in enumerate(columns)]
    n = len(columns[0][0])
    buf = np.empty(0, dtype=np.uint8)
    for lo in range(0, n, BLOCK_ROWS):
        fields = [make(lo, min(lo + BLOCK_ROWS, n)) for make in makers]
        row_len = sum(field.length for field in fields) + _CRLF.itemsize
        row_end = np.cumsum(row_len)
        end = int(row_end[-1])
        slack = max(table.itemsize for field in fields for _, table, _ in field.padded)
        if len(buf) < end + slack:
            buf = np.empty(end + slack, dtype=np.uint8)
        at, starts = row_end - row_len, []
        for field in fields:
            starts.append(at)
            for rows, table, lengths in field.padded:
                _put_padded(buf, at[rows], row_end[rows], table, lengths)
            at = at + field.length
        for at, field in zip(starts, fields):
            for rows, offset, table in field.fixed:
                put_items(buf, at[rows] + offset, table)
        put_items(buf, row_end - _CRLF.itemsize, _CRLF)
        yield buf[:end].data


def write_csv(handle, header, columns) -> None:
    """Write `csv_blocks(header, columns)` to a text handle, a block at a time."""
    for block in csv_blocks(header, columns):
        handle.write(str(block, "utf-8"))


def save_csv(path, header, columns) -> None:
    """`csv_blocks(header, columns)` into a new file at `path`."""
    with open(path, "wb") as handle:
        for block in csv_blocks(header, columns):
            handle.write(block)


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
