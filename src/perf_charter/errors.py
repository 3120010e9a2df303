"""Exception hierarchy shared across the toolkit.

Each class's ``exit_code`` is the CLI exit code of the errors it covers.
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


# --- ingestion -------------------------------------------------------------

class MalformedRow(ParseError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DuplicateWorkloadName(ParseError):
    pass


class NonNumericCell(ParseError):
    def __init__(self, line: int, column: str, value: str, expected: str = "a number"):
        super().__init__(f"line {line}, column {column!r}: not {expected}: {value!r}")
        self.line = line
        self.column = column
        self.value = value


class TooFewWorkloads(ParseError):
    pass


class NonPositiveTime(ParseError):
    pass


class NonPositiveSpeedup(ParseError):
    pass


class DuplicateJobName(ParseError):
    pass


class EmptyInput(ParseError):
    pass


# --- stats -----------------------------------------------------------------

class TooFewRows(AnalysisError):
    pass


class TooFewColumns(AnalysisError):
    pass


class NotSymmetric(AnalysisError):
    pass


class NonFiniteMatrix(AnalysisError):
    pass


class MaxSweepsExceeded(AnalysisError):
    def __init__(self, off_norm: float, sweeps: int):
        super().__init__(
            f"no convergence after {sweeps} sweeps (off-diagonal norm {off_norm:.3e})"
        )
        self.off_norm = off_norm
        self.sweeps = sweeps


class IndexOutOfRange(AnalysisError):
    pass


class MissingMetric(AnalysisError):
    pass


# --- cluster ---------------------------------------------------------------

class InvalidDistanceMatrix(AnalysisError):
    pass


class KOutOfRange(AnalysisError):
    pass


class UnknownWorkload(AnalysisError):
    pass


# --- roofline --------------------------------------------------------------

class UnknownPrecision(AnalysisError):
    pass


class ZeroTotalTime(AnalysisError):
    pass


# --- sched -----------------------------------------------------------------

class UnsupportedWidth(AnalysisError):
    pass


class SearchSpaceTooLarge(PerfCharterError):
    exit_code = 4

    def __init__(self, bound: int, limit: int, message: str = ""):
        detail = message or f"search space bound {bound} exceeds limit {limit}"
        super().__init__(detail)
        self.bound = bound
        self.limit = limit


class JobSetMismatch(AnalysisError):
    pass
