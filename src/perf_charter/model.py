"""Domain types and dataset ingestion (CSV/JSON) shared by all analyses.

File schemas:
  profiles.csv  header ``name,suite,<metric names>``; JSON mirror is a list of
                flat objects with the same field names.
  jobs.csv      header ``name,t1_minutes,s2,s4,...`` (any ``s<k>`` columns).
  kernels.csv   header ``class,time_ms,calls,unique,flops,transactions``.

Both formats go through one path: ``_read_rows`` turns either into
``(line, {field: raw cell})`` rows (CSV cells are stripped strings, blank as
None; JSON must be a list of objects).  A parser reads each row's cells and
builds its record: a number is a non-bool int or float, or a string that
parses to a finite number; a count is a whole number >= 0 that fits a float;
a name is a non-empty string after stripping; None (a blank CSV cell, a JSON
null or a missing key) means absent.  Each record's constructor
(``__new__``) holds its value rules and raises ``ValueError``; the parser
adds the line.  Every rejection is a ``ParseError``.

The records are ``NamedTuple``s.  One with value rules subclasses the
functional form ``NamedTuple(name, fields)``, as the class syntax may not
define ``__new__``, and ``_checked_make`` sends its ``_make``, and so
``_replace``, through that ``__new__``.  A dict field is the record's own
copy.

Every JSON document the CLI writes goes through ``_dump_json``, which
refuses non-finite floats.

All parsers take decoded text; UTF-8 decoding and path handling live in the
CLI.  Everything here is pure over immutable inputs.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
import sys
import warnings
from collections.abc import Iterator
from typing import TYPE_CHECKING, NamedTuple

from .errors import MalformedRow, NonNumericCell, ParseError

if TYPE_CHECKING:
    import numpy as np

# The closed, ordered metric set; extras (e.g. nvlink_mbps) sort after these
# in first-appearance order.
CANONICAL_METRICS = (
    "pcie_util_pct",
    "gpu_util_pct",
    "cpu_util_pct",
    "ddr_footprint_mb",
    "hbm2_footprint_mb",
    "flop_throughput_gflops",
    "mem_throughput_gbps",
    "epochs",
)

_CANONICAL_INDEX = {name: i for i, name in enumerate(CANONICAL_METRICS)}

_MAX_COUNT = int(sys.float_info.max)


def metric_order_key(name: str, appearance: int = 0) -> tuple[int, int]:
    """Sort key: the canonical eight first (fixed order), extras after."""
    if name in _CANONICAL_INDEX:
        return (0, _CANONICAL_INDEX[name])
    return (1, appearance)


class Suite(str, enum.Enum):
    MLPERF = "MLPerf"
    DAWNBENCH = "DAWNBench"
    DEEPBENCH = "DeepBench"
    OTHER = "Other"

    @classmethod
    def from_label(cls, label: str) -> "Suite":
        for member in cls:
            if member.value.lower() == label.strip().lower():
                return member
        return cls.OTHER


def _checked_make(cls, iterable):
    """``_make`` through the constructor, so ``_replace`` checks values too."""
    return cls(*iterable)


class WorkloadProfile(NamedTuple(
    "WorkloadProfile", [("name", str), ("suite", Suite), ("metrics", dict[str, float])]
)):
    """One benchmark's named metric vector (units vary per metric name)."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, name: str, suite: Suite, metrics: dict[str, float]):
        for metric, value in metrics.items():
            if not math.isfinite(value):
                raise ValueError(f"{name}: metric {metric!r} is not finite")
            if value < 0:
                raise ValueError(f"{name}: metric {metric!r} is negative")
        return tuple.__new__(cls, (name, suite, dict(metrics)))


class MetricMatrix:
    """Row-per-workload, column-per-metric matrix with no missing cells."""

    def __init__(self, workload_names: list[str], metric_names: list[str], values: np.ndarray):
        import numpy as np

        self.workload_names = workload_names
        self.metric_names = metric_names
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.shape != (len(workload_names), len(metric_names)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{len(workload_names)} workloads x {len(metric_names)} metrics"
            )


class KernelRecord(NamedTuple("KernelRecord", [
    ("class_name", str), ("time_ms", float), ("flops", int), ("transactions", int),
])):
    """Aggregated profiler statistics for one kernel class: what the roofline
    reads.  The ``calls`` and ``unique`` columns are checked on input, not
    kept."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, class_name: str, time_ms: float, flops: int, transactions: int):
        if time_ms < 0:
            raise ValueError(f"{class_name}: negative time")
        if not math.isfinite(time_ms):
            raise ValueError(f"{class_name}: time is not finite")
        if flops < 0 or transactions < 0:
            raise ValueError(f"{class_name}: negative counters")
        return tuple.__new__(cls, (class_name, time_ms, flops, transactions))


class Job(NamedTuple("Job", [("name", str), ("t1_minutes", float), ("speedup", dict[int, float])])):
    """Moldable training job: single-device minutes plus speedup per width.

    ``speedup`` is normalised to ascending widths with width 1 at 1.0.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, name: str, t1_minutes: float, speedup: dict[int, float]):
        if not t1_minutes > 0:
            raise ValueError("t1_minutes must be > 0")
        for width, value in speedup.items():
            if not (type(width) is int and width >= 1):
                raise ValueError(f"bad width {width!r}")
            if not value > 0:
                raise ValueError(f"s{width} must be > 0")
            if width == 1 and value != 1.0:
                raise ValueError("width-1 speedup must be 1.0")
            runtime = t1_minutes / value
            if not (math.isfinite(runtime) and runtime > 0):
                raise ValueError(
                    f"runtime t1_minutes/s{width} = {runtime!r} is not finite and > 0"
                )
        speedup = dict(sorted({**speedup, 1: 1.0}.items()))
        return tuple.__new__(cls, (name, t1_minutes, speedup))


# --- ingestion: one row reader, shared checks ---------------------------------


def _read_rows(text: str, format: str) -> tuple[list[str] | None, Iterator[tuple[int, dict]]]:
    """Split either format into ``(header, rows)``.

    ``header`` is the stripped CSV header (None for JSON).  ``rows`` yields
    ``(line, {field: raw cell})``: CSV cells are stripped strings with blank as
    None, blank rows are skipped and the header is line 1; a JSON entry's line
    is its 1-based index and its cells are the decoded values.
    """
    if format == "csv":
        reader = csv.reader(io.StringIO(text))
        try:
            table = list(reader)
        except csv.Error as exc:
            raise MalformedRow(reader.line_num, str(exc)) from None
        header = [h.strip() for h in table[0]] if table else []
        if not header:
            raise MalformedRow(1, "empty input")
        if len(set(header)) != len(header):
            raise MalformedRow(1, "duplicate column")
        return header, _csv_rows(header, table)
    if format == "json":
        entries = _load_json(text)
        if type(entries) is not list:
            raise MalformedRow(1, "JSON input must be a list of objects")
        return None, _json_rows(entries)
    raise ValueError(f"unknown format {format!r}")


def _csv_rows(header: list[str], table: list[list[str]]) -> Iterator[tuple[int, dict]]:
    for line, row in enumerate(table[1:], start=2):
        cells = [c.strip() for c in row]
        if not any(cells):
            continue
        if len(cells) != len(header):
            raise MalformedRow(line, f"expected {len(header)} fields, got {len(cells)}")
        yield line, dict(zip(header, [c or None for c in cells]))


def _json_rows(entries: list) -> Iterator[tuple[int, dict]]:
    for line, entry in enumerate(entries, start=1):
        if type(entry) is not dict:
            raise MalformedRow(line, "entry must be an object")
        yield line, entry


def _load_json(text: str):
    """Decode JSON text; any decoding failure is a MalformedRow."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedRow(getattr(exc, "lineno", 1), f"invalid JSON: {exc}") from None


def _dump_json(obj) -> str:
    """The package's one JSON encoder; a non-finite float raises ValueError."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _number(value, line: int, column: str) -> float:
    """A non-bool int or float, or a string that parses to a finite number."""
    kind = type(value)
    if kind is float:
        number = value
    elif kind is int or kind is str:
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        except ValueError:
            raise NonNumericCell(line, column, value) from None
    elif value is None:
        raise MalformedRow(line, f"column {column!r}: missing value")
    else:
        raise NonNumericCell(line, column, repr(value))
    if not math.isfinite(number):
        raise MalformedRow(line, f"column {column!r}: non-finite value {value!r}")
    return number


def _count(value, line: int, column: str) -> int:
    """A whole number >= 0 that fits a float: never truncated, never a bool."""
    if type(value) is int and 0 <= value <= _MAX_COUNT:
        return value
    if type(value) is str:
        try:
            value = int(value)
        except ValueError:
            pass
    if type(value) is not int:
        number = _number(value, line, column)
        if not number.is_integer():
            shown = value if type(value) is str else repr(value)
            raise NonNumericCell(line, column, shown, "a whole number")
        value = int(number)
    if value < 0:
        raise MalformedRow(line, f"column {column!r}: negative count {value}")
    if value > _MAX_COUNT:
        raise MalformedRow(line, f"column {column!r}: count too large for a float")
    return value


def _utf8(text: str) -> bool:
    """Whether UTF-8 can encode ``text``: a lone surrogate (a JSON ``\\ud800``
    escape, or a file name's undecodable byte) cannot be written to a file."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


def _name(value, line: int, what: str) -> str:
    """A non-empty string after stripping, which UTF-8 can encode; an ASCII
    name, the common case, skips the encoding."""
    if type(value) is str and (value := value.strip()):
        if value.isascii() or _utf8(value):
            return value
        raise MalformedRow(line, f"{what} name {value!r} cannot be encoded as UTF-8")
    raise MalformedRow(line, f"{what} name must be a non-empty string, got {value!r}")


# --- profiles ---------------------------------------------------------------


def parse_workload_profiles(text: str, format: str = "csv") -> list[WorkloadProfile]:
    """Ingest per-workload metric rows; missing cells stay absent per profile."""
    header, rows = _read_rows(text, format)
    if header is not None and header[:2] != ["name", "suite"]:
        raise MalformedRow(1, "header must start with 'name,suite'")
    profiles: list[WorkloadProfile] = []
    seen: set[str] = set()
    for line, row in rows:
        name = _name(row.get("name"), line, "workload")
        if name in seen:
            raise MalformedRow(line, f"duplicate workload name {name!r}")
        seen.add(name)
        suite = row.get("suite")
        if suite is not None and type(suite) is not str:
            raise MalformedRow(line, f"suite must be a string, got {suite!r}")
        metrics = {
            key: _number(value, line, key)
            for key, value in row.items()
            if value is not None and key != "name" and key != "suite"
        }
        for key in metrics:
            if not _utf8(key):
                raise MalformedRow(line, f"metric name {key!r} cannot be encoded as UTF-8")
        try:
            profiles.append(WorkloadProfile(name, Suite.from_label(suite or ""), metrics))
        except ValueError as exc:
            raise MalformedRow(line, str(exc)) from None
    return profiles


def matrix_from_profiles(profiles: list[WorkloadProfile]) -> MetricMatrix:
    """Tabulate profiles; drops (with a warning) any metric absent somewhere."""
    if len(profiles) < 2:
        raise ParseError(f"need at least 2 workloads, got {len(profiles)}")
    appearance: dict[str, int] = {}
    for profile in profiles:
        for metric in profile.metrics:
            appearance.setdefault(metric, len(appearance))
    ordered = sorted(appearance, key=lambda m: metric_order_key(m, appearance[m]))
    kept, dropped = [], []
    for metric in ordered:
        if all(metric in p.metrics for p in profiles):
            kept.append(metric)
        else:
            dropped.append(metric)
    if dropped:
        warnings.warn(
            f"dropped metric column(s) missing for >=1 workload: {', '.join(dropped)}",
            stacklevel=2,
        )
    import numpy as np

    values = np.array(
        [[p.metrics[m] for m in kept] for p in profiles], dtype=np.float64
    ).reshape(len(profiles), len(kept))
    return MetricMatrix([p.name for p in profiles], kept, values)


# --- jobs --------------------------------------------------------------------


def parse_jobs(text: str, format: str = "csv") -> list[Job]:
    """Ingest the scalability table; width-1 speedup 1.0 is implied."""
    header, rows = _read_rows(text, format)
    if header is not None:
        if header[:2] != ["name", "t1_minutes"]:
            raise MalformedRow(1, "header must start with 'name,t1_minutes'")
        widths = [_width_from_column(col, 1) for col in header[2:]]
        if len(set(widths)) != len(widths):
            raise MalformedRow(1, "duplicate speedup column")
    jobs: list[Job] = []
    seen: set[str] = set()
    for line, row in rows:
        name = _name(row.get("name"), line, "job")
        if name in seen:
            raise MalformedRow(line, f"duplicate job name {name!r}")
        seen.add(name)
        t1 = _number(row.get("t1_minutes"), line, "t1_minutes")
        speedup: dict[int, float] = {}
        for key, value in row.items():
            if value is None or key == "name" or key == "t1_minutes":
                continue
            width = _width_from_column(key, line)
            if width in speedup:
                raise MalformedRow(line, f"duplicate speedup column {key!r}")
            speedup[width] = _number(value, line, key)
        try:
            jobs.append(Job(name, t1, speedup))
        except ValueError as exc:
            raise MalformedRow(line, str(exc)) from None
    return jobs


def _width_from_column(col: str, line: int) -> int:
    if not (col.startswith("s") and col[1:].isdecimal() and int(col[1:]) >= 1):
        raise MalformedRow(line, f"speedup column must look like 's<k>', got {col!r}")
    return int(col[1:])


# --- kernels -----------------------------------------------------------------

_KERNEL_FIELDS = ("class", "time_ms", "calls", "unique", "flops", "transactions")


def parse_kernels(text: str, format: str = "csv") -> list[KernelRecord]:
    header, rows = _read_rows(text, format)
    if header is not None and tuple(header) != _KERNEL_FIELDS:
        raise MalformedRow(1, f"header must be {','.join(_KERNEL_FIELDS)}")
    records: list[KernelRecord] = []
    for line, row in rows:
        get = row.get
        try:
            name = _name(get("class"), line, "kernel class")
            time_ms = _number(get("time_ms"), line, "time_ms")
            # checked in column order, so a bad cell's message stays the same,
            # but not stored: nothing reads them
            _count(get("calls"), line, "calls")
            _count(get("unique"), line, "unique")
            records.append(
                KernelRecord(
                    name,
                    time_ms,
                    _count(get("flops"), line, "flops"),
                    _count(get("transactions"), line, "transactions"),
                )
            )
        except ValueError as exc:
            raise MalformedRow(line, str(exc)) from None
    return records


DEFAULT_TRANSACTION_BYTES = 32


def kernel_summary(
    records: list[KernelRecord], transaction_bytes: int = DEFAULT_TRANSACTION_BYTES
) -> tuple[int, int, float]:
    """Totals over kernel classes: (flops, bytes, seconds).

    Bytes are transactions x transaction_bytes (32 B default).  The time sum
    uses fsum, so the result is invariant under row permutation.
    """
    if not records:
        raise ParseError("kernel_summary needs at least one record")
    if not transaction_bytes > 0:
        raise ValueError("transaction_bytes must be > 0")
    total_flops = sum(r.flops for r in records)
    total_bytes = sum(r.transactions for r in records) * transaction_bytes
    try:
        total_time_s = math.fsum(r.time_ms for r in records) / 1e3
        float(total_flops)  # the FLOP total must convert, as each count does
    except OverflowError:
        raise ValueError("kernel totals overflow a float") from None
    return total_flops, total_bytes, total_time_s
