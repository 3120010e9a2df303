import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perf_charter as pc
from perf_charter import roofline
from perf_charter.errors import AnalysisError, ParseError
from cli_helpers import KERNEL_BENCHMARKS


def _record(name, flops, transactions, time_ms=1.0):
    return pc.KernelRecord(name, time_ms, flops, transactions)


# --- intensity / throughput ---------------------------------------------------

def test_intensity_relu_row():
    assert pc.intensity(8_063_786_730_942, 198_032_803_079, 32) == pytest.approx(
        1.27, abs=0.01
    )


def test_intensity_mm_4x1_row():
    assert pc.intensity(592_209_510_400, 88_557_000, 32) == pytest.approx(
        208.98, abs=0.05
    )


def test_intensity_zero_flop_communication_kernel():
    assert pc.intensity(0, 123_456, 32) == 0.0
    assert pc.intensity(0, 0, 32) == 0.0
    with pytest.warns(UserWarning):
        assert pc.intensity(10, 0, 32) == math.inf


def test_throughput_relu_row():
    assert pc.throughput(8_063_786_730_942, 18.48242) == pytest.approx(436.29, abs=0.5)


def test_throughput_mm_4x1_row():
    assert pc.throughput(592_209_510_400, 0.09171) == pytest.approx(6457.5, abs=1.0)


def test_throughput_zero_flops_and_bad_time():
    assert pc.throughput(0, 5.0) == 0.0
    with pytest.raises(ParseError, match="time_s must be > 0, got 0.0"):
        pc.throughput(100, 0.0)


# --- ceiling / classification ------------------------------------------------
# the two rules as the roofline command applies them, at one precision


def attainable(machine, x):
    return roofline.ceiling_at(machine.peak("single"), machine.mem_bandwidth_gbps, x)


def test_attainable_basics(default_machine):
    assert attainable(default_machine, 0.0) == 0.0
    ridge = default_machine.ridge("single")
    assert ridge == pytest.approx(17.5)
    peak = default_machine.peaks["single"]
    assert attainable(default_machine, ridge) == pytest.approx(peak)
    assert attainable(default_machine, ridge * 10) == peak
    assert attainable(default_machine, 1.27) == pytest.approx(800 * 1.27)
    with pytest.raises(AnalysisError, match="has no 'quad' peak"):
        default_machine.peak("quad")


def test_classify_bands(default_machine):
    ridge = default_machine.ridge("single")
    assert roofline.classify_at(ridge, 1.27) == "memory_bound"
    assert roofline.classify_at(ridge, ridge) == "at_ridge"
    assert roofline.classify_at(ridge, 208.98) == "compute_bound"


def test_classify_band_edges(default_machine):
    # the labels at and one float beyond each edge of the relative 1e-9 band
    ridge = default_machine.ridge("single")
    lo, hi = ridge * (1 - 1e-9), ridge * (1 + 1e-9)
    expected = {
        math.nextafter(lo, -math.inf): "memory_bound",
        lo: "at_ridge",
        ridge: "at_ridge",
        hi: "at_ridge",
        math.nextafter(hi, math.inf): "compute_bound",
    }
    for x, label in expected.items():
        assert roofline.classify_at(ridge, x) == label


def test_roofline_point_contract():
    point = pc.RooflinePoint("x", 1.0, 2.0)
    assert point == pc.RooflinePoint(name="x", intensity=1.0, throughput=2.0)
    assert pc.RooflinePoint._fields == ("name", "intensity", "throughput")
    assert (point.name, point.intensity, point.throughput) == ("x", 1.0, 2.0)
    assert repr(point) == "RooflinePoint(name='x', intensity=1.0, throughput=2.0)"
    for field in pc.RooflinePoint._fields:
        with pytest.raises(AttributeError):
            setattr(point, field, 0.0)
    # a tuple: equal to a plain tuple of the same values
    assert point == ("x", 1.0, 2.0)


def test_machine_orders_peaks():
    with pytest.warns(UserWarning):
        pc.MachineModel("odd", {"double": 100.0, "single": 50.0, "half": 10.0}, 10.0)
    with pytest.raises(ValueError):
        pc.MachineModel("bad", {"single": -1.0}, 10.0)


@pytest.mark.parametrize("peaks, bandwidth, message", [
    ({"single": math.inf}, 900.0, "peak(single) must be finite"),
    ({"single": 15_700.0}, math.inf, "mem_bandwidth_gbps must be finite"),
    ({"single": 0.0}, 900.0, "peak(single) must be > 0"),
    ({"single": 15_700.0}, -1.0, "mem_bandwidth_gbps must be > 0"),
], ids=["inf-peak", "inf-bandwidth", "zero-peak", "negative-bandwidth"])
def test_machine_refuses_what_machine_from_dict_refuses(peaks, bandwidth, message):
    with pytest.raises(ValueError) as caught:
        pc.MachineModel("m", peaks, bandwidth)
    assert str(caught.value) == message


# --- workload points -------------------------------------------------------------

def test_workload_point_single_record_matches_per_record():
    rec = _record("k", 1_000_000_000, 1_000_000, time_ms=100.0)
    point = pc.workload_point([rec], 32, name="w")
    assert point.intensity == pc.intensity(rec.flops, rec.transactions, 32)
    assert point.throughput == pc.throughput(rec.flops, 0.1)


def test_workload_point_zero_flop_record_halves_intensity():
    busy = _record("busy", 1_000_000, 1_000)
    idle = _record("idle", 0, 1_000)
    alone = pc.workload_point([busy], 32)
    mixed = pc.workload_point([busy, idle], 32)
    assert mixed.intensity == pytest.approx(alone.intensity / 2)


def test_workload_point_errors():
    with pytest.raises(ParseError, match="kernel_summary needs at least one record"):
        pc.workload_point([])
    with pytest.raises(AnalysisError, match="zero total kernel time"):
        pc.workload_point([_record("k", 1, 1, time_ms=0.0)])


def test_all_seven_benchmarks_memory_bound(default_machine):
    from conftest import soft_note

    labels = {}
    for bench in KERNEL_BENCHMARKS:
        records = pc.parse_kernels(pc.sample_path("kernels", f"{bench}.csv").read_text())
        point = pc.workload_point(records, name=bench)
        labels[bench] = roofline.classify_at(default_machine.ridge("single"), point.intensity)
    bound = [b for b, label in labels.items() if label == "memory_bound"]
    soft_note(
        f"{len(bound)}/7 aggregate workload points memory-bound under the default "
        "machine config"
    )
    assert len(labels) == 7
    assert set(labels.values()) == {"memory_bound"}


# --- properties -------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1e4), st.floats(0, 1e4))
def test_attainable_monotone(default_machine, a, b):
    lo, hi = sorted((a, b))
    va = attainable(default_machine, lo)
    vb = attainable(default_machine, hi)
    assert va <= vb
    assert vb <= default_machine.peaks["single"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**15), st.integers(1, 10**12), st.integers(1, 1024))
def test_doubling_transaction_bytes_halves_intensity(flops, transactions, nbytes):
    once = pc.intensity(flops, transactions, nbytes)
    twice = pc.intensity(flops, transactions, 2 * nbytes)
    assert twice == once / 2
