"""Exception types shared across the package.

Configuration and ingestion problems map to CLI exit code 2; anything
else that escapes maps to exit code 1.
"""


class ConfigurationError(Exception):
    """Invalid configuration value, weights, paths, or parameters.

    `key`, when given, is the dotted path of the offending entry below the
    object that raised it, and the text reads "config key '<key>' <message>";
    the config codec raises it again under that object's key path.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message if key is None else f"config key {key!r} {message}")
        self.key = key
        self.message = message


class IngestionError(ConfigurationError):
    """A data file could not be parsed; message names file, row, and column."""

    def __init__(self, message: str, path=None, row=None, column=None):
        parts = [message]
        if path is not None:
            parts.append(f"file={path}")
        if row is not None:
            parts.append(f"row={row}")
        if column is not None:
            parts.append(f"column={column}")
        super().__init__("; ".join(str(p) for p in parts))
        self.path = path
        self.row = row
        self.column = column
