"""perf-charter: workload characterization and moldable GPU-job scheduling.

Submodules mirror the pipeline stages: model (types + ingestion), stats
(PCA), cluster (dendrogram subsetting), roofline (ceilings/intensity), sched
(schedulers), svg (plot emitters), cli (front end).
"""

from .cluster import (
    Dendrogram,
    Merge,
    SubsetReport,
    agglomerate,
    coverage,
    cut,
    cut_k,
    pairwise_distances,
    select_representatives,
)
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
from .stats import (
    PcaModel,
    Standardization,
    dominant_metric,
    fit_pca,
    jacobi_eigen,
    pca_to_dict,
    project,
    standardize,
)

__version__ = "0.1.0"
