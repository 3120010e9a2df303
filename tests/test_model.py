import csv
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perf_charter as pc
from cli_helpers import write_jobs, write_kernels, write_profiles, write_rows
from perf_charter.errors import MalformedRow, NonNumericCell, ParseError

def _matrix(text, format="csv"):
    return pc.matrix_from_profiles(pc.parse_workload_profiles(text, format))


CSV_TWO = "name,suite,cpu_util_pct,gpu_util_pct\na,MLPerf,1.5,2.5\nb,Other,3.5,4.5\n"


def test_parse_profiles_sample_shape(sample_matrix):
    assert len(sample_matrix.workload_names) == 13
    assert len(sample_matrix.metric_names) == 6
    # canonical metrics first, extras after in appearance order
    assert sample_matrix.metric_names == [
        "gpu_util_pct",
        "cpu_util_pct",
        "ddr_footprint_mb",
        "hbm2_footprint_mb",
        "pcie_mbps",
        "nvlink_mbps",
    ]
    assert sample_matrix.values[sample_matrix.workload_names.index("MLPf_Res50_TF"), 0] == 85.84


def test_parse_profiles_identical_rows_differ_only_in_name():
    text = "name,suite,m1,m2\nx,Other,1.0,2.0\ny,Other,1.0,2.0\n"
    matrix = _matrix(text)
    assert matrix.workload_names == ["x", "y"]
    assert np.array_equal(matrix.values[0], matrix.values[1])


def test_parse_profiles_missing_column_dropped_with_warning():
    text = "name,suite,epochs,gpu_util_pct\na,Other,5,50\nb,Other,,60\n"
    with pytest.warns(UserWarning, match="epochs"):
        matrix = _matrix(text)
    assert matrix.metric_names == ["gpu_util_pct"]
    assert matrix.workload_names == ["a", "b"]


def test_parse_profiles_errors():
    with pytest.raises(ParseError, match="need at least 2 workloads, got 1"):
        _matrix("name,suite,m\nonly,Other,1\n")
    with pytest.raises(MalformedRow, match="^line 3: duplicate workload name 'a'$"):
        _matrix("name,suite,m\na,Other,1\na,Other,2\n")
    with pytest.raises(NonNumericCell):
        _matrix("name,suite,m\na,Other,oops\nb,Other,1\n")
    with pytest.raises(MalformedRow) as exc:
        _matrix("name,suite,m\na,Other\nb,Other,1\n")
    assert exc.value.line == 2
    with pytest.raises(MalformedRow):
        _matrix("name,suite,m\na,Other,-1\nb,Other,1\n")  # negative metric


def test_parse_profiles_json_mirror():
    entries = '[{"name":"a","suite":"MLPerf","gpu_util_pct":10.5},' \
              '{"name":"b","suite":"DeepBench","gpu_util_pct":20.5}]'
    matrix = _matrix(entries, "json")
    assert matrix.metric_names == ["gpu_util_pct"]
    assert matrix.values[1, 0] == 20.5


def test_profiles_round_trip_csv_and_json():
    profiles = pc.parse_workload_profiles(pc.sample_path("profiles.csv").read_text())
    for fmt in ("csv", "json"):
        assert pc.parse_workload_profiles(write_profiles(profiles, fmt), fmt) == profiles


def test_column_drop_preserves_workload_order():
    rows = ["name,suite,m1,m2"]
    for i in range(6):
        m1 = "" if i == 3 else f"{i}.5"
        rows.append(f"w{i},Other,{m1},{i}")
    with pytest.warns(UserWarning):
        matrix = _matrix("\n".join(rows) + "\n")
    assert matrix.workload_names == [f"w{i}" for i in range(6)]
    assert matrix.metric_names == ["m2"]


def test_parse_jobs_paper_rows(sample_jobs):
    res50 = sample_jobs[0]
    assert res50.name == "Res50_TF"
    assert res50.t1_minutes == 1016.9
    assert res50.speedup == {1: 1.0, 2: 1.92, 4: 3.84, 8: 7.04}
    ncf = sample_jobs[-1]
    assert ncf.speedup[8] == 2.32
    assert [j.name for j in sample_jobs] == [
        "Res50_TF", "Res50_MX", "SSD_Py", "MRCNN_Py", "XFMR_Py", "NCF_Py",
    ]


def test_parse_jobs_blank_speedups():
    jobs = pc.parse_jobs("name,t1_minutes,s2,s4,s8\nJ,10,,,\n")
    assert jobs[0].speedup == {1: 1.0}


def test_parse_jobs_errors():
    with pytest.raises(ParseError, match="^line 2: t1_minutes must be > 0$"):
        pc.parse_jobs("name,t1_minutes,s2\nJ,0,1.5\n")
    with pytest.raises(ParseError, match="^line 2: s2 must be > 0$"):
        pc.parse_jobs("name,t1_minutes,s2\nJ,10,-2\n")
    with pytest.raises(MalformedRow, match="^line 3: duplicate job name 'J'$"):
        pc.parse_jobs("name,t1_minutes,s2\nJ,10,1.5\nJ,20,1.5\n")
    with pytest.raises(MalformedRow):
        pc.parse_jobs("name,t1_minutes,s1\nJ,10,2.0\n")  # width-1 speedup must be 1
    with pytest.raises(MalformedRow):
        pc.parse_jobs("name,t1_minutes,speedup\nJ,10,2.0\n")  # bad column name


# edge values around the runtime rule t1/s in (0, inf), plus ordinary ones
JOB_VALUES = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e-10, 1e300, 1e308, 1.0]),
    st.floats(0.25, 1024.0),
)


@settings(max_examples=300, deadline=None)
@given(JOB_VALUES, st.dictionaries(st.sampled_from([1, 2, 4, 8]), JOB_VALUES, max_size=3))
def test_parse_jobs_refuses_exactly_what_job_refuses(t1, speedup):
    header = ",".join(["name", "t1_minutes", *[f"s{w}" for w in speedup]])
    row = ",".join(["J", repr(t1), *[repr(v) for v in speedup.values()]])
    text = f"{header}\n{row}\n"
    try:
        job = pc.Job("J", t1, speedup)
    except ValueError as exc:
        with pytest.raises(MalformedRow) as caught:
            pc.parse_jobs(text)
        assert str(caught.value) == f"line 2: {exc}"
    else:
        assert pc.parse_jobs(text) == [job]


@pytest.mark.parametrize("build, message", [
    (lambda: pc.Job("a", 1e-300, {2: 1e300}),
     "runtime t1_minutes/s2 = 0.0 is not finite and > 0"),
    (lambda: pc.Job("a", 1e308, {2: 1e-10}),
     "runtime t1_minutes/s2 = inf is not finite and > 0"),
    (lambda: pc.Job("a", 0.0, {2: 1.5}), "t1_minutes must be > 0"),
    (lambda: pc.Job("a", 10.0, {2: -2.0}), "s2 must be > 0"),
    (lambda: pc.Job("a", 10.0, {1: 2.0}), "width-1 speedup must be 1.0"),
    (lambda: pc.KernelRecord("k", 1.0, -1, 1), "k: negative counters"),
    (lambda: pc.KernelRecord("k", 1.0, 1, -1), "k: negative counters"),
    (lambda: pc.KernelRecord("k", math.inf, 1, 1), "k: time is not finite"),
    (lambda: pc.KernelRecord("k", math.nan, 1, 1), "k: time is not finite"),
], ids=[
    "job-runtime-underflow", "job-runtime-overflow", "job-zero-t1", "job-negative-speedup",
    "job-width-1", "kernel-negative-flops", "kernel-negative-transactions",
    "kernel-inf-time", "kernel-nan-time",
])
def test_records_refuse_what_the_parsers_refuse(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_jobs_round_trip(sample_jobs):
    for fmt in ("csv", "json"):
        assert pc.parse_jobs(write_jobs(sample_jobs, fmt), fmt) == sample_jobs


@st.composite
def jobs_strategy(draw):
    n = draw(st.integers(1, 5))
    jobs = []
    for i in range(n):
        t1 = draw(st.floats(0.125, 1024.0, allow_nan=False))
        widths = draw(st.sets(st.sampled_from([2, 4, 8]), max_size=3))
        speedup = {
            w: draw(st.floats(0.25, 8.0, allow_nan=False)) for w in widths
        }
        jobs.append(pc.Job(f"job{i}", t1, speedup))
    return jobs


@settings(max_examples=50, deadline=None)
@given(jobs_strategy())
def test_jobs_round_trip_property(jobs):
    for fmt in ("csv", "json"):
        assert pc.parse_jobs(write_jobs(jobs, fmt), fmt) == jobs


def test_kernel_summary_relu(sample_kernels):
    relu = [r for r in sample_kernels if r.class_name == "relu"]
    flops, total_bytes, time_s = pc.kernel_summary(relu)
    assert flops == 8_063_786_730_942
    assert total_bytes == 6_337_049_698_528
    assert time_s == pytest.approx(18.48242, abs=1e-9)


def test_kernel_summary_empty_and_total():
    with pytest.raises(ParseError, match="kernel_summary needs at least one record"):
        pc.kernel_summary([])
    records = [
        pc.KernelRecord("x", 1.0, 100, 10),
        pc.KernelRecord("y", 2.0, 200, 20),
    ]
    flops, total_bytes, time_s = pc.kernel_summary(records)
    assert flops == 300
    assert total_bytes == 30 * 32
    assert time_s == pytest.approx(0.003)


def test_kernel_summary_permutation_invariant(sample_kernels):
    forward = pc.kernel_summary(sample_kernels)
    backward = pc.kernel_summary(list(reversed(sample_kernels)))
    assert forward == backward


def test_kernels_round_trip(sample_kernels):
    for fmt in ("csv", "json"):
        assert pc.parse_kernels(write_kernels(sample_kernels, fmt), fmt) == sample_kernels


# names hold the characters CSV must quote, and equal their own strip()
KERNEL_NAMES = st.text(
    st.one_of(st.sampled_from(',"\r\n \t'), st.characters()), min_size=1, max_size=8
).filter(lambda name: name == name.strip())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(
    pc.KernelRecord,
    KERNEL_NAMES,
    st.floats(0.0, 1e300),
    *[st.integers(0, int(sys.float_info.max))] * 2,
), max_size=4))
def test_kernels_round_trip_property(records):
    for fmt in ("csv", "json"):
        assert pc.parse_kernels(write_kernels(records, fmt), fmt) == records


def _csv_writer_text(header, rows):
    """The text of a plain csv.writer loop (None as a blank cell), with every
    cell quoted when any CR appears: the reference ``write_rows`` must equal."""
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n", quoting=quoting)
        writer.writerow(header)
        writer.writerows(rows)
        text = out.getvalue()
        if "\r" not in text:
            return text
    return text


CSV_CELLS = st.one_of(
    st.text(st.sampled_from(',"\n\r ab'), max_size=4),
    st.just(""),
    st.none(),
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, math.inf, -math.inf, 1e-300]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(st.text(st.sampled_from(',"\n\r ab'), min_size=1, max_size=3),
             min_size=width, max_size=width),
    st.lists(st.lists(CSV_CELLS, min_size=width, max_size=width).map(tuple), max_size=5),
)))
def test_write_rows_csv_equals_csv_writer(table):
    header, rows = table
    assert write_rows(header, rows, "csv") == _csv_writer_text(header, rows)


@pytest.mark.parametrize("header, rows, text", [
    # csv quotes a row of one empty cell, or it would read as a blank line
    (("a",), [("",), (None,), ("x",)], 'a\n""\n""\nx\n'),
    # a short row stays short, and a comma inside a cell is quoted
    (("a", "b"), [("x",), ("y,z", "w")], 'a,b\nx\n"y,z",w\n'),
])
def test_write_rows_csv_edge_cases(header, rows, text):
    assert write_rows(header, rows, "csv") == text == _csv_writer_text(header, rows)


def test_kernel_summary_configurable_bytes(sample_kernels):
    relu = [r for r in sample_kernels if r.class_name == "relu"]
    _, b32, _ = pc.kernel_summary(relu)
    _, b64, _ = pc.kernel_summary(relu, transaction_bytes=64)
    assert b64 == 2 * b32


def test_workload_profile_rejects_bad_values():
    with pytest.raises(ValueError):
        pc.WorkloadProfile("w", pc.Suite.OTHER, {"m": -1.0})
    with pytest.raises(ValueError):
        pc.WorkloadProfile("w", pc.Suite.OTHER, {"m": math.inf})
    profile = pc.WorkloadProfile("w", pc.Suite.OTHER, {"gpu_util_pct": 372.43})
    assert profile.metrics["gpu_util_pct"] > 100  # multi-GPU sums may exceed 100
