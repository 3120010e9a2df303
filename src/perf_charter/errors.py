"""Exception hierarchy shared across the toolkit.

Each class's ``exit_code`` is the CLI exit code of the errors it covers: 2
for a ``ParseError`` (input that cannot be ingested) or an ``OutputError``
(output that cannot be written), 3 for an ``AnalysisError`` (ingested data
that violates an analysis precondition) and 4 for ``SearchSpaceTooLarge``.
The message says what went wrong; the CLI prints it as its ``error:`` line.
"""


class PerfCharterError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 3


class ParseError(PerfCharterError):
    """Input data could not be ingested."""

    exit_code = 2


class AnalysisError(PerfCharterError):
    """Ingested data violates an analysis precondition."""


class OutputError(PerfCharterError):
    """An output file could not be written."""

    exit_code = 2


class MalformedRow(ParseError):
    """A row of an input file is invalid; ``line`` is its 1-based position."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line


class NonNumericCell(ParseError):
    """A cell that must hold a number does not; ``line`` is its row's."""

    def __init__(self, line: int, column: str, value: str, expected: str = "a number"):
        super().__init__(f"line {line}, column {column!r}: not {expected}: {value!r}")
        self.line = line


class SearchSpaceTooLarge(PerfCharterError):
    """A search's job limit or work budget tripped; the message names the
    count and the limit it passed."""

    exit_code = 4
