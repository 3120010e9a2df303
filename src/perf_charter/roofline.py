"""Machine ceilings, arithmetic intensity, and boundedness classification.

Attainable performance is min(compute peak, memory bandwidth x intensity);
the ridge point peak/bandwidth separates memory- from compute-bound.  The
bundled machine config carries V100-class numbers as editable inputs, not
measured claims.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Sequence

from .errors import AnalysisError, MalformedRow, ParseError
from .model import (DEFAULT_TRANSACTION_BYTES, KernelRecord, _checked_make, _load_json, _name,
                    _number, _utf8, kernel_summary)

MEMORY_BOUND = "memory_bound"
COMPUTE_BOUND = "compute_bound"
AT_RIDGE = "at_ridge"


class MachineModel(NamedTuple("MachineModel", [
    ("name", str), ("peaks", dict[str, float]), ("mem_bandwidth_gbps", float),
])):
    """Machine ceilings; ``peaks`` maps precision -> GFLOP/s."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, name: str, peaks: dict[str, float], mem_bandwidth_gbps: float):
        rates = {f"peak({p})": peak for p, peak in peaks.items()}
        rates["mem_bandwidth_gbps"] = mem_bandwidth_gbps
        for what, rate in rates.items():
            if not rate > 0:
                raise ValueError(f"{what} must be > 0")
            if rate == math.inf:
                raise ValueError(f"{what} must be finite")
        ladder = [peaks.get(p) for p in ("double", "single", "half")]
        known = [p for p in ladder if p is not None]
        if known != sorted(known):
            warnings.warn(
                f"{name}: expected peak(half) >= peak(single) >= peak(double)",
                stacklevel=2,
            )
        return tuple.__new__(cls, (name, dict(peaks), mem_bandwidth_gbps))

    def ridge(self, precision: str) -> float:
        return self.peak(precision) / self.mem_bandwidth_gbps

    def peak(self, precision: str) -> float:
        if precision not in self.peaks:
            raise AnalysisError(f"{self.name} has no {precision!r} peak")
        return self.peaks[precision]


def machine_from_dict(data: dict) -> MachineModel:
    """Validate a decoded machine config; every defect is a ParseError."""
    if type(data) is not dict or type(data.get("peaks")) is not dict:
        raise MalformedRow(1, "machine config must be an object with a 'peaks' object")
    for precision in data["peaks"]:
        if not _utf8(precision):
            raise MalformedRow(1, f"peak name {precision!r} cannot be encoded as UTF-8")
    try:
        return MachineModel(
            name=_name(data.get("name"), 1, "machine"),
            peaks={k: _number(v, 1, f"peaks.{k}") for k, v in data["peaks"].items()},
            mem_bandwidth_gbps=_number(data.get("mem_bandwidth_gbps"), 1, "mem_bandwidth_gbps"),
        )
    except ValueError as exc:
        raise MalformedRow(1, str(exc)) from None


def parse_machine(text: str) -> MachineModel:
    """Machine config from JSON text, through the same decoder as the datasets."""
    return machine_from_dict(_load_json(text))


class RooflinePoint(NamedTuple):
    """One point of the plot, as ``workload_point`` returns it.  The CLI
    builds one per input file, and only with ``--aggregate``; its per-class
    points are kept as columns, not as one object each."""

    name: str
    intensity: float       # FLOPs/byte
    throughput: float      # GFLOP/s


def intensity(flops: int, transactions: int, transaction_bytes: int = DEFAULT_TRANSACTION_BYTES) -> float:
    """FLOPs per byte of memory traffic; zero traffic with work is +inf."""
    if not transaction_bytes > 0:
        raise ValueError("transaction_bytes must be > 0")
    if transactions == 0:
        if flops == 0:
            return 0.0
        warnings.warn("nonzero FLOPs over zero transactions: infinite intensity", stacklevel=2)
        return math.inf
    return flops / (transactions * transaction_bytes)


def throughput(flops: int, time_s: float) -> float:
    """GFLOP/s over the measured interval; a rate that overflows is a ValueError."""
    if not time_s > 0:
        raise ParseError(f"time_s must be > 0, got {time_s}")
    rate = flops / time_s / 1e9
    if rate == math.inf:
        # FLOPs per second can overflow where GFLOP/s fits; this order is
        # taken only then, so every finite rate keeps its last bit
        rate = flops / 1e9 / time_s
    if rate == math.inf:
        raise ValueError(f"throughput of {flops:.6g} FLOPs in {time_s:.6g} s overflows a float")
    return rate


def ceiling_at(peak: float, mem_bandwidth_gbps: float, intensity: float) -> float:
    """Roofline ceiling at the given intensity, from one precision's peak."""
    return min(peak, mem_bandwidth_gbps * intensity)


def classify_at(ridge: float, intensity: float) -> str:
    """memory_bound / compute_bound split at ``ridge`` (relative 1e-9 band)."""
    if abs(intensity - ridge) <= 1e-9 * ridge:
        return AT_RIDGE
    return MEMORY_BOUND if intensity < ridge else COMPUTE_BOUND


def workload_point(
    records: Sequence[KernelRecord],
    transaction_bytes: int = DEFAULT_TRANSACTION_BYTES,
    name: str = "workload",
) -> RooflinePoint:
    """Aggregate one workload's kernel classes into a single roofline point."""
    total_flops, total_bytes, total_time_s = kernel_summary(records, transaction_bytes)
    if total_time_s == 0:
        raise AnalysisError(f"{name}: zero total kernel time")
    return RooflinePoint(
        name=name,
        # the byte total already carries transaction_bytes
        intensity=intensity(total_flops, total_bytes, 1),
        throughput=throughput(total_flops, total_time_s),
    )
