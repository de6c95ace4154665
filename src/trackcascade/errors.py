"""Exception types shared across the package."""

from __future__ import annotations


class DataError(Exception):
    """Malformed or inconsistent input data (files, records, configs)."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        where = ""
        if path is not None:
            where = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{where} {message}".strip())
        self.path = path
        self.line = line


class ConfigError(DataError):
    """Invalid configuration value or structure."""


class MissingFrameError(DataError):
    """A detector source was asked for a frame it cannot serve."""
