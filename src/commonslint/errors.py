"""Exception types shared across the toolkit."""

from __future__ import annotations


class CommonsLintError(Exception):
    """Base class for all commonslint errors."""


class ParseError(CommonsLintError):
    """A file could not be parsed.

    ``stage`` distinguishes raw syntax failures ("json", "csv") from
    structural failures ("structure"), e.g. a syntactically valid JSON
    document that is not shaped like a measure_info file.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str | None = None,
        line: int | None = None,
        offset: int | None = None,
        stage: str = "json",
    ):
        super().__init__(message)
        self.path = path
        self.line = line
        self.offset = offset
        self.stage = stage

    def __str__(self) -> str:
        where = ""
        if self.line is not None:
            where = f" (line {self.line}"
            where += f", offset {self.offset})" if self.offset is not None else ")"
        prefix = f"{self.path}: " if self.path else ""
        return f"{prefix}{self.args[0]}{where}"


class DuplicateKeyError(ParseError):
    """A JSON object repeats a key (e.g. a measure id declared twice)."""

    def __init__(self, key: str, *, path: str | None = None):
        super().__init__(f"duplicate key {key!r}", path=path, stage="structure")
        self.key = key


class ExpansionError(CommonsLintError):
    """A dynamic metadata entry could not be expanded."""


class UnknownIndicatorError(CommonsLintError):
    """An assessment references an indicator id missing from the registry."""


class UnknownPrincipleError(CommonsLintError):
    """A checklist references a principle code outside the guiding set."""


class ConfigError(CommonsLintError):
    """Invalid configuration or invalid run selection."""


class DomainError(CommonsLintError, ValueError):
    """An argument is outside a function's stated domain."""
