"""The package surface and what each command imports at start-up.

``schedule`` and ``roofline`` must not import numpy (only ``cluster`` and
``stats`` use it) nor ``urllib.request`` (which ``xml.sax`` pulls in), so
each runs in a fresh interpreter here and reports ``sys.modules``.
"""

import importlib
import json
import subprocess
import sys

import pytest

import perf_charter as pc
from cli_helpers import cli_env

# Every name ``perf_charter`` exported before ``cluster`` and ``stats`` became
# lazy, with the submodule that defines it.
EXPORTS = {
    **dict.fromkeys(
        ("Dendrogram", "Merge", "SubsetReport", "agglomerate", "coverage", "cut", "cut_k",
         "pairwise_distances", "select_representatives"),
        "cluster",
    ),
    **dict.fromkeys(("KERNEL_BENCHMARKS", "sample_path"), "datafiles"),
    **dict.fromkeys(
        ("CANONICAL_METRICS", "Job", "KernelRecord", "MetricMatrix", "Suite",
         "WorkloadProfile", "kernel_summary", "matrix_from_profiles", "parse_jobs",
         "parse_kernels", "parse_profiles", "parse_workload_profiles", "serialize_jobs",
         "serialize_kernels", "serialize_profiles"),
        "model",
    ),
    **dict.fromkeys(
        ("MachineModel", "RooflinePoint", "attainable", "classify", "intensity",
         "machine_from_dict", "throughput", "workload_point"),
        "roofline",
    ),
    **dict.fromkeys(
        ("ClusterSpec", "Placement", "Schedule", "ascii_gantt", "exact_schedule",
         "heuristic_schedule", "list_schedule", "naive_schedule", "permutation_search",
         "runtime", "savings", "scaling_efficiency", "validate_schedule"),
        "sched",
    ),
    **dict.fromkeys(
        ("PcaModel", "Standardization", "dominant_metric", "fit_pca", "jacobi_eigen",
         "pca_to_dict", "project", "standardize"),
        "stats",
    ),
}
HEAVY = ("numpy", "urllib.request", "xml.sax")


def _fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports perf_charter from src."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=300
    )


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_exported_name_resolves_to_its_module_object(name):
    module = importlib.import_module(f"perf_charter.{EXPORTS[name]}")
    assert getattr(pc, name) is getattr(module, name)
    assert name in dir(pc)


def test_lazy_submodules_and_unknown_names():
    import perf_charter.cluster
    import perf_charter.stats

    assert pc.cluster is perf_charter.cluster
    assert pc.stats is perf_charter.stats
    assert {"cluster", "stats"} <= set(dir(pc))
    with pytest.raises(AttributeError, match="nope"):
        pc.nope  # noqa: B018
    assert not hasattr(pc, "nope")


def test_fresh_package_resolves_lazy_names():
    # before anything imported cluster or stats: the collection of
    # test_cluster.py reads pc.cluster.LINKAGES at import time
    code = (
        "import sys, perf_charter as pc\n"
        "assert 'numpy' not in sys.modules\n"
        "assert pc.cluster is sys.modules['perf_charter.cluster'] and pc.cluster.LINKAGES\n"
        "assert pc.agglomerate is pc.cluster.agglomerate\n"
        "assert pc.fit_pca is sys.modules['perf_charter.stats'].fit_pca\n"
        "assert pc.stats is sys.modules['perf_charter.stats']\n"
        "assert not hasattr(pc, 'nope')\n"
    )
    done = _fresh(code)
    assert done.returncode == 0, done.stderr


def _heavy_after(body: str) -> tuple[int, list[str]]:
    code = (
        "import contextlib, io, json, sys\n"
        + body
        + f"\nprint(json.dumps([code, [m for m in {HEAVY!r} if m in sys.modules]]))\n"
    )
    done = _fresh(code)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize("module", ["perf_charter.cli", "perf_charter.model"])
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
    assert (tmp_path / "dendrogram.svg").is_file()
