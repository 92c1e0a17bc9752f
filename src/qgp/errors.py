"""Exception types shared across the engine."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class QgpError(Exception):
    """Base class for engine errors."""


class ConfigurationError(QgpError):
    """A component was wired with unusable inputs (bad paths, family mismatch)."""


@contextmanager
def loading(path: object) -> Iterator[None]:
    """Report an unreadable or malformed input file as a ConfigurationError naming it."""
    try:
        yield
    # What outside input raises: an unreadable file, a malformed or mistyped
    # value, and JSON nested deeper than the decoder recurses.
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigurationError(f"cannot load {path}: {type(exc).__name__}: {exc}") from exc


@contextmanager
def writing(path: object) -> Iterator[None]:
    """Report an output file that cannot be written as a QgpError naming it."""
    try:
        yield
    except OSError as exc:
        raise QgpError(f"cannot write {path}: {exc.strerror or exc}") from exc


class GenerationError(QgpError):
    """Task or backlog generation could not satisfy its feasibility constraints."""


class TerminatedRunError(QgpError):
    """An operation was applied to a ledger whose outcome is already set."""


class ActionParseError(QgpError):
    """A serialized action or observation could not be decoded."""


class AdapterError(QgpError):
    """The external policy subprocess failed in a way that aborts the run."""


class AnalysisError(QgpError):
    """Metric aggregation or paired analysis received unusable inputs."""
