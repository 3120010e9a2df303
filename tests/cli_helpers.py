import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import perf_charter
from perf_charter.model import _KERNEL_FIELDS, _dump_json

# the child imports the package from the same src tree as this process,
# whatever the working directory
SRC = str(Path(perf_charter.__file__).resolve().parent.parent)


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "perf_charter.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
        timeout=300,
    )


def write_rows(header, rows, format):
    """The inverse of ``model._read_rows``: ``rows`` are tuples in ``header``
    order, None written as a blank CSV cell or an omitted JSON key.  Writes
    the tests' input tables, and is the reference the roofline CSV equals."""
    if format == "csv":
        rows = list(rows)
        for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n", quoting=quoting)
            writer.writerow(header)
            writer.writerows(rows)
            text = out.getvalue()
            # csv quotes "\n", the line terminator, but not a lone "\r", which
            # a reader takes for a line break; then every cell is quoted
            if "\r" not in text:
                break
        return text
    if format == "json":
        return _dump_json(
            [{k: v for k, v in zip(header, row) if v is not None} for row in rows]
        )
    raise ValueError(f"unknown format {format!r}")


# the seven per-benchmark kernel files bundled under data/kernels
KERNEL_BENCHMARKS = ("Res50_TF", "Res50_MX", "XFMR_Py", "GNMT_Py", "SSD_Py", "MRCNN_Py", "NCF_Py")


def write_profiles(profiles, format="csv"):
    """profiles.csv rows for WorkloadProfile records; a metric a profile lacks is blank."""
    metrics = list(dict.fromkeys(m for p in profiles for m in p.metrics))
    rows = ((p.name, p.suite.value, *[p.metrics.get(m) for m in metrics]) for p in profiles)
    return write_rows(("name", "suite", *metrics), rows, format)


def write_jobs(jobs, format="csv"):
    """jobs.csv rows, one s<k> column per width above 1 that any job has."""
    widths = sorted({w for job in jobs for w in job.speedup} - {1})
    rows = (
        (job.name, job.t1_minutes, *[job.speedup.get(w) for w in widths]) for job in jobs
    )
    return write_rows(("name", "t1_minutes", *[f"s{w}" for w in widths]), rows, format)


def write_kernels(records, format="csv"):
    """kernels.csv rows, one per KernelRecord.  A record does not keep the
    ``calls`` and ``unique`` columns, so both are written as 1."""
    rows = ((r.class_name, r.time_ms, 1, 1, r.flops, r.transactions) for r in records)
    return write_rows(_KERNEL_FIELDS, rows, format)


def json_mirror(name):
    """The JSON mirror of a bundled CSV table, as the writers above write it."""
    text = perf_charter.sample_path(f"{name}.csv").read_text()
    if name == "jobs":
        return write_jobs(perf_charter.parse_jobs(text), "json")
    if name == "kernels":
        return write_kernels(perf_charter.parse_kernels(text), "json")
    return write_profiles(perf_charter.parse_workload_profiles(text), "json")
