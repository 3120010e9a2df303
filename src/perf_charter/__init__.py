"""perf-charter: workload characterization and moldable GPU-job scheduling.

Submodules mirror the pipeline stages: model (types + ingestion), stats
(PCA), cluster (dendrogram subsetting), roofline (ceilings/intensity), sched
(schedulers), svg (plot emitters), cli (front end).

The package re-exports the public names of ``model``, ``roofline``, ``sched``
and ``datafiles``.  ``stats`` and ``cluster`` import numpy, which
``schedule`` and ``roofline`` never use, so they are imported as submodules
(``from perf_charter import cluster, stats``) and nothing here imports them.
Errors live in ``perf_charter.errors``.
"""

from .datafiles import sample_path
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
    parse_workload_profiles,
)
from .roofline import (
    MachineModel,
    RooflinePoint,
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
    validate_schedule,
)

__version__ = "0.1.0"
