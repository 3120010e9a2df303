"""The package surface and what each command imports at start-up.

``schedule`` and ``roofline`` must not import numpy (only ``cluster`` and
``stats`` use it), ``urllib.request`` (which ``xml.sax`` pulls in),
``dataclasses`` (with ``inspect``, ``ast``, ``dis`` and ``tokenize``) nor
``html``, so each runs in a fresh interpreter here and reports
``sys.modules``.  The records are ``NamedTuple``s that keep the repr and
immutability of the dataclasses they replaced, and whose ``_make`` and
``_replace`` check values as the constructor does.
"""

import importlib
import json
import re
import subprocess
import sys
import types
import typing

import pytest

import perf_charter as pc
from cli_helpers import cli_env

# The library API: each public name and the module that defines it.  The
# package re-exports the names of model, roofline, sched and datafiles; the
# names of cluster and stats, which import numpy, are reached through their
# submodule (``from perf_charter import cluster, stats``).
SUBMODULE_NAMES = {
    **dict.fromkeys(
        ("Dendrogram", "Merge", "SubsetReport", "agglomerate", "coverage", "cut", "cut_k",
         "pairwise_distances", "select_representatives"),
        "cluster",
    ),
    **dict.fromkeys(
        ("PcaModel", "Standardization", "dominant_metric", "fit_pca", "jacobi_eigen",
         "pca_to_dict", "standardize"),
        "stats",
    ),
}
EXPORTS = {
    "sample_path": "datafiles",
    **dict.fromkeys(
        ("CANONICAL_METRICS", "Job", "KernelRecord", "MetricMatrix", "Suite",
         "WorkloadProfile", "kernel_summary", "matrix_from_profiles", "parse_jobs",
         "parse_kernels", "parse_workload_profiles"),
        "model",
    ),
    **dict.fromkeys(
        ("MachineModel", "RooflinePoint", "intensity", "machine_from_dict", "throughput",
         "workload_point"),
        "roofline",
    ),
    **dict.fromkeys(
        ("ClusterSpec", "Placement", "Schedule", "ascii_gantt", "exact_schedule",
         "heuristic_schedule", "list_schedule", "naive_schedule", "permutation_search",
         "runtime", "savings", "validate_schedule"),
        "sched",
    ),
}
API = {**EXPORTS, **SUBMODULE_NAMES}
HEAVY = ("numpy", "urllib.request", "xml.sax", "dataclasses", "inspect", "html")


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports perf_charter from src."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=300
    )


@pytest.mark.parametrize("name", sorted(API))
def test_exported_name_resolves_to_its_module_object(name):
    module = importlib.import_module(f"perf_charter.{API[name]}")
    home = pc if name in EXPORTS else module
    assert getattr(home, name) is getattr(module, name)
    assert (name in dir(pc)) == (name in EXPORTS)


def test_package_exports_exactly_the_api():
    public = {
        name for name, value in vars(pc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(EXPORTS)


def _heavy_after(body: str) -> tuple[int, list[str]]:
    code = (
        "import contextlib, io, json, sys\n"
        + body
        + f"\nprint(json.dumps([code, [m for m in {HEAVY!r} if m in sys.modules]]))\n"
    )
    done = _fresh(code)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize("module", ["perf_charter", "perf_charter.cli", "perf_charter.model"])
def test_import_loads_no_heavy_module(module):
    assert _heavy_after(f"import {module}\ncode = 0") == (0, [])


def _main_body(argv: list[str]) -> str:
    return (
        "from perf_charter import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})"
    )


@pytest.mark.parametrize("method", ["permutation", "exact", "heuristic"])
def test_schedule_loads_no_heavy_module(method, tmp_path):
    argv = ["schedule", "--jobs", str(pc.sample_path("jobs.csv")), "--gpus", "4",
            "--method", method, "--out", str(tmp_path)]
    assert _heavy_after(_main_body(argv)) == (0, [])


def test_roofline_loads_no_heavy_module(tmp_path):
    argv = ["roofline", "--kernels", str(pc.sample_path("kernels.csv")), "--out", str(tmp_path)]
    assert _heavy_after(_main_body(argv)) == (0, [])


def test_characterize_still_runs(tmp_path):
    argv = ["characterize", "--profiles", str(pc.sample_path("profiles.csv")),
            "--out", str(tmp_path)]
    code, heavy = _heavy_after(_main_body(argv))
    assert code == 0
    assert "numpy" in heavy
    assert "dataclasses" not in heavy
    assert (tmp_path / "dendrogram.svg").is_file()


# each record, its repr as a dataclass gave it, and a field to set
RECORDS = [
    (pc.Job("a", 10.0, {2: 1.5}),
     "Job(name='a', t1_minutes=10.0, speedup={1: 1.0, 2: 1.5})", "t1_minutes"),
    (pc.KernelRecord("gemm", 1.5, 100, 7),
     "KernelRecord(class_name='gemm', time_ms=1.5, flops=100, transactions=7)", "time_ms"),
    (pc.ClusterSpec(8, (8, 2)), "ClusterSpec(gpu_count=8, allowed_widths=(1, 2, 8))",
     "gpu_count"),
    (pc.Placement("a", 2, (0, 1), 0.0, 5.0),
     "Placement(job='a', width=2, gpu_ids=(0, 1), start=0.0, end=5.0)", "start"),
    (pc.MachineModel("v100", {"single": 15700.0, "half": 125000.0}, 900.0),
     "MachineModel(name='v100', peaks={'single': 15700.0, 'half': 125000.0}, "
     "mem_bandwidth_gbps=900.0)", "mem_bandwidth_gbps"),
    (pc.WorkloadProfile("w", pc.Suite.MLPERF, {"x": 1.0}),
     "WorkloadProfile(name='w', suite=<Suite.MLPERF: 'MLPerf'>, metrics={'x': 1.0})", "metrics"),
]


@pytest.mark.parametrize("record, text, field", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_record_repr_and_immutability(record, text, field):
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, field, 1.0)
    with pytest.raises(AttributeError):
        record.extra = 1


# each checked record and its declared field types, in field order
TYPE_HINTS = [
    (pc.Job, {"name": str, "t1_minutes": float, "speedup": dict[int, float]}),
    (pc.KernelRecord, {"class_name": str, "time_ms": float, "flops": int,
                       "transactions": int}),
    (pc.WorkloadProfile, {"name": str, "suite": pc.Suite, "metrics": dict[str, float]}),
    (pc.ClusterSpec, {"gpu_count": int, "allowed_widths": tuple[int, ...]}),
    (pc.MachineModel, {"name": str, "peaks": dict[str, float], "mem_bandwidth_gbps": float}),
]


@pytest.mark.parametrize("cls, hints", TYPE_HINTS, ids=[c.__name__ for c, _ in TYPE_HINTS])
def test_checked_record_field_types(cls, hints):
    assert typing.get_type_hints(cls) == hints
    assert cls._fields == tuple(hints)


def test_records_keep_their_own_dicts():
    metrics = {"x": 1.0}
    profile = pc.WorkloadProfile("w", pc.Suite.OTHER, metrics)
    metrics["x"] = -1.0
    assert profile.metrics == {"x": 1.0}
    peaks = {"single": 2.0}
    machine = pc.MachineModel("m", peaks, 2.0)
    peaks["single"] = 0.0
    assert machine.ridge("single") == 1.0
    speedup = {2: 1.5}
    job = pc.Job("a", 10.0, speedup)
    speedup[2] = -1.0
    assert job.speedup == {1: 1.0, 2: 1.5}


def test_placement_asdict_keeps_the_schedule_json_key_order():
    placement = pc.Placement("a", 2, (0, 1), 0.0, 5.0)
    assert list(placement._asdict()) == ["job", "width", "gpu_ids", "start", "end"]


# each validating record, a bad value for one field, and the constructor's message
BAD_REPLACEMENTS = [
    (pc.Job("a", 10.0, {2: 1.5}), {"t1_minutes": -1.0}, "t1_minutes must be > 0"),
    (pc.KernelRecord("k", 1.0, 1, 1), {"time_ms": -1.0}, "k: negative time"),
    (pc.WorkloadProfile("w", pc.Suite.MLPERF, {"x": 1.0}), {"metrics": {"x": -1.0}},
     "w: metric 'x' is negative"),
    (pc.ClusterSpec(4), {"gpu_count": 0}, "gpu_count must be a positive int, got 0"),
    (pc.MachineModel("m", {"single": 1.0}, 1.0), {"mem_bandwidth_gbps": 0.0},
     "mem_bandwidth_gbps must be > 0"),
]


@pytest.mark.parametrize("record, change, message", BAD_REPLACEMENTS,
                         ids=[type(r[0]).__name__ for r in BAD_REPLACEMENTS])
def test_replace_and_make_check_values_like_the_constructor(record, change, message):
    with pytest.raises(ValueError) as constructed:
        type(record)(**{**record._asdict(), **change})
    assert str(constructed.value) == message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        record._replace(**change)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        type(record)._make({**record._asdict(), **change}.values())


def test_replace_normalises_like_the_constructor():
    assert pc.Job("a", 10.0, {4: 2.0})._replace(speedup={2: 1.5}).speedup == {1: 1.0, 2: 1.5}
    assert pc.ClusterSpec(4)._replace(allowed_widths=(4,)).allowed_widths == (1, 4)
