"""perf-charter: workload characterization and moldable GPU-job scheduling.

Submodules mirror the pipeline stages: model (types + ingestion), stats
(PCA), cluster (dendrogram subsetting), roofline (ceilings/intensity), sched
(schedulers), svg (plot emitters), cli (front end).

``cluster`` and ``stats`` and the names they export (``agglomerate``,
``fit_pca``, ``Dendrogram``, ``PcaModel`` ...) load on first access through a
module ``__getattr__`` (PEP 562).  Both import numpy, which ``schedule`` and
``roofline`` never use; importing it eagerly would double their start-up.
Every other name is imported with the package.
"""

import importlib

from .datafiles import KERNEL_BENCHMARKS, sample_path
from .model import (
    CANONICAL_METRICS,
    Job,
    KernelRecord,
    MetricMatrix,
    Suite,
    WorkloadProfile,
    kernel_summary,
    matrix_from_profiles,
    parse_jobs,
    parse_kernels,
    parse_profiles,
    parse_workload_profiles,
    serialize_jobs,
    serialize_kernels,
    serialize_profiles,
)
from .roofline import (
    MachineModel,
    RooflinePoint,
    attainable,
    classify,
    intensity,
    machine_from_dict,
    throughput,
    workload_point,
)
from .sched import (
    ClusterSpec,
    Placement,
    Schedule,
    ascii_gantt,
    exact_schedule,
    heuristic_schedule,
    list_schedule,
    naive_schedule,
    permutation_search,
    runtime,
    savings,
    scaling_efficiency,
    validate_schedule,
)
__version__ = "0.1.0"

# Lazily resolved name -> the submodule that defines it (a submodule maps to
# itself).
_LAZY = {
    "cluster": "cluster",
    "stats": "stats",
    **dict.fromkeys(
        ("Dendrogram", "Merge", "SubsetReport", "agglomerate", "coverage", "cut", "cut_k",
         "pairwise_distances", "select_representatives"),
        "cluster",
    ),
    **dict.fromkeys(
        ("PcaModel", "Standardization", "dominant_metric", "fit_pca", "jacobi_eigen",
         "pca_to_dict", "project", "standardize"),
        "stats",
    ),
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module_name}", __name__)
    return value if name == module_name else getattr(value, name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
