"""One ingestion path: CSV and JSON get the same verdicts, bad input exits 2.

The differential tests draw one table, write it once as CSV and once as a JSON
list of objects, and require both to parse to equal objects or to fail with
the same ParseError subclass.  The CLI cases are inputs that once slipped
through one of the two formats, crashed, or wrote files before failing.
"""

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perf_charter as pc
from cli_helpers import run_cli
from perf_charter.errors import ParseError

NAMES = st.sampled_from(["a", "b", "c", " a", "b ", " c ", "", "  ", None])
LABELS = st.sampled_from(["MLPerf", " mlperf ", "DeepBench", "Other", "unknown", None])
BAD_STRINGS = st.sampled_from(["abc", "1.2.3", "--", "nan", "inf", "-inf", "1e400", "true"])
NUMBER_STRINGS = st.sampled_from(["1.5", " 2 ", "-2", "0", "1e3", "7"])
EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 1e-300, 1e300, 0.0, -0.0])

NUMBERS = st.one_of(
    st.floats(-10.0, 1e6, allow_nan=False, allow_infinity=False),
    st.integers(-5, 10**6),
    EXTREMES,
    st.booleans(),
    BAD_STRINGS,
    NUMBER_STRINGS,
    st.none(),
)
COUNTS = st.one_of(
    st.integers(-3, 10**20),
    st.sampled_from([0.0, 3.0, 1.7, -2.5, 1e20, math.nan]),
    st.booleans(),
    st.sampled_from(["12", "1.5", "abc", "1e3", "-4", "3.0"]),
    st.none(),
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return json.dumps(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write(header: list[str], rows: list[dict], omit_nulls: bool) -> tuple[str, str]:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row[field]) for field in header])
    entries = [
        {f: row[f] for f in header if not (omit_nulls and row[f] is None)} for row in rows
    ]
    return out.getvalue(), json.dumps(entries)


def _table(header: list[str], cells: dict):
    # CSV cannot express a row whose cells are all blank (it is skipped), so
    # tables hold only rows with something in them
    row = st.fixed_dictionaries({field: cells[field] for field in header}).filter(
        lambda r: any(_csv_cell(v).strip() for v in r.values())
    )
    return st.tuples(st.lists(row, min_size=1, max_size=4), st.booleans())


def _outcome(parse, text: str, fmt: str):
    try:
        return "ok", parse(text, fmt)
    except ParseError as exc:
        return "error", type(exc)


def _assert_same_verdict(parse, header, table):
    rows, omit_nulls = table
    csv_text, json_text = _write(header, rows, omit_nulls)
    assert _outcome(parse, csv_text, "csv") == _outcome(parse, json_text, "json"), (
        csv_text,
        json_text,
    )


PROFILE_HEADER = ["name", "suite", "gpu_util_pct", "m1"]
JOB_HEADER = ["name", "t1_minutes", "s2", "s4"]
KERNEL_HEADER = ["class", "time_ms", "calls", "unique", "flops", "transactions"]


@settings(max_examples=300, deadline=None)
@given(_table(PROFILE_HEADER, {"name": NAMES, "suite": LABELS,
                               "gpu_util_pct": NUMBERS, "m1": NUMBERS}))
def test_profiles_csv_and_json_agree(table):
    _assert_same_verdict(pc.parse_workload_profiles, PROFILE_HEADER, table)


@settings(max_examples=300, deadline=None)
@given(_table(JOB_HEADER, {"name": NAMES, "t1_minutes": NUMBERS,
                           "s2": NUMBERS, "s4": NUMBERS}))
def test_jobs_csv_and_json_agree(table):
    _assert_same_verdict(pc.parse_jobs, JOB_HEADER, table)


@settings(max_examples=300, deadline=None)
@given(_table(KERNEL_HEADER, {"class": NAMES, "time_ms": NUMBERS, "calls": COUNTS,
                              "unique": COUNTS, "flops": COUNTS, "transactions": COUNTS}))
def test_kernels_csv_and_json_agree(table):
    _assert_same_verdict(pc.parse_kernels, KERNEL_HEADER, table)


# --- CLI: every rejected input exits 2 and writes nothing --------------------

KERNEL = {"class": "k", "time_ms": 1.0, "calls": 1, "unique": 1, "flops": 100,
          "transactions": 10}
KERNELS_CSV = str(pc.sample_path("kernels.csv"))


def _kernels_json(**override) -> str:
    return json.dumps([{**KERNEL, **override}])


def _schedule(path):
    return ["schedule", "--jobs", path, "--gpus", "2", "--method", "heuristic"]


def _characterize(path):
    return ["characterize", "--profiles", path, "--k", "2"]


def _roofline(path):
    return ["roofline", "--kernels", path]


def _machine(path):
    return ["roofline", "--kernels", KERNELS_CSV, "--machine", path]


# id -> (input file name, content; None makes a directory, command)
REJECTED = {
    "profiles-not-json": ("p.json", "{not json", _characterize),
    "jobs-not-json": ("j.json", "{not json", _schedule),
    "kernels-not-json": ("k.json", "{not json", _roofline),
    "jobs-t1-string": ("j.json", '[{"name": "a", "t1_minutes": "abc"}]', _schedule),
    "jobs-speedup-bool": ("j.json", '[{"name": "a", "t1_minutes": 10, "s2": true}]',
                          _schedule),
    "jobs-t1-infinity": ("j.json", '[{"name": "a", "t1_minutes": Infinity, "s2": 1.5}]',
                         _schedule),
    "kernels-time-nan": ("k.json", _kernels_json(time_ms=math.nan), _roofline),
    "kernels-calls-fraction": ("k.json", _kernels_json(calls=1.7), _roofline),
    "kernels-flops-bool": ("k.json", _kernels_json(flops=True), _roofline),
    "kernels-flops-overflow": (
        "k.csv", f"{','.join(KERNEL_HEADER)}\nk,1,1,1,1{'0' * 400},10\n", _roofline),
    "kernels-flops-overflow-json": ("k.json", _kernels_json(flops=10**400), _roofline),
    "profiles-empty-name": (
        "p.json", '[{"name": "", "m": 1}, {"name": "b", "m": 2}]', _characterize),
    "profiles-suite-number": (
        "p.json", '[{"name": "a", "suite": 1, "m": 1}, {"name": "b", "m": 2}]',
        _characterize),
    "jobs-padded-duplicate": (
        "j.json", '[{"name": "a", "t1_minutes": 10}, {"name": "a ", "t1_minutes": 20}]',
        _schedule),
    "jobs-zero-runtime": ("j.csv", "name,t1_minutes,s2\na,1e-300,1e300\n", _schedule),
    "machine-without-peaks": (
        "m.json", '{"name": "x", "mem_bandwidth_gbps": 800.0}', _machine),
    "machine-list": ("m.json", "[1, 2]", _machine),
    "non-utf8": ("j.csv", b"name,t1_minutes\n\xff\xfe,10\n", _schedule),
    "directory": ("j.csv", None, _schedule),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_exits_2_and_writes_nothing(tmp_path, case):
    name, content, command = REJECTED[case]
    path = tmp_path / name
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    out = tmp_path / "out"
    result = run_cli(*command(str(path)), "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists() or not list(out.iterdir())
