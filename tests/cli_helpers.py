import os
import subprocess
import sys
from pathlib import Path

import perf_charter

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


def json_mirror(name):
    """The JSON mirror of a bundled CSV table, as the serializers write it."""
    text = perf_charter.sample_path(f"{name}.csv").read_text()
    if name == "jobs":
        return perf_charter.serialize_jobs(perf_charter.parse_jobs(text), "json")
    if name == "kernels":
        return perf_charter.serialize_kernels(perf_charter.parse_kernels(text), "json")
    profiles = perf_charter.parse_workload_profiles(text)
    return perf_charter.serialize_profiles(
        perf_charter.matrix_from_profiles(profiles), "json", {p.name: p.suite for p in profiles}
    )
