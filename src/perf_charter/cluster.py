"""Agglomerative clustering, dendrogram cuts, medoid subsetting, coverage.

Node ids follow the usual convention: 0..n-1 are leaves, n+i is the cluster
created by the i-th merge.  Linkage heights are non-decreasing for all three
supported linkages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    InvalidDistanceMatrix,
    KOutOfRange,
    TooFewRows,
    UnknownWorkload,
)
from .model import MetricMatrix

LINKAGES = ("single", "complete", "average")


class Merge(NamedTuple):
    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    leaves: list[str]
    merges: list[Merge]


@dataclass(frozen=True)
class SubsetReport:
    selected: list[str]
    coverage: dict[str, tuple[float, float]]   # metric -> (low %, high %)
    degenerate: list[str]                      # constant metrics flagged (0, 100)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix; exactly symmetric with a zero diagonal."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected 2-D points, got shape {points.shape}")
    if points.shape[0] < 2:
        raise TooFewRows(f"need at least 2 points, got {points.shape[0]}")
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _check_distance_matrix(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise InvalidDistanceMatrix(f"expected a square matrix, got shape {dist.shape}")
    if dist.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows, got {dist.shape[0]}")
    if not np.isfinite(dist).all():
        raise InvalidDistanceMatrix("non-finite entries")
    if (dist < 0).any():
        raise InvalidDistanceMatrix("negative entries")
    scale = 1.0 + float(np.max(dist))
    if np.max(np.abs(dist - dist.T)) > 1e-8 * scale:
        raise InvalidDistanceMatrix("asymmetric entries")
    if np.max(np.abs(np.diag(dist))) > 1e-8 * scale:
        raise InvalidDistanceMatrix("nonzero diagonal")
    return dist


def agglomerate(
    dist: np.ndarray, linkage: str = "average", names: Sequence[str] | None = None
) -> Dendrogram:
    """Bottom-up clustering; ties go to the pair with smallest (min id, max id)."""
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    dist = _check_distance_matrix(dist)
    n = dist.shape[0]
    leaves = list(names) if names is not None else [str(i) for i in range(n)]
    if len(leaves) != n:
        raise ValueError(f"{len(leaves)} names for {n} rows")

    sizes = {i: 1 for i in range(n)}
    pair_dist: dict[tuple[int, int], float] = {
        (i, j): float(dist[i, j]) for i in range(n - 1) for j in range(i + 1, n)
    }
    merges: list[Merge] = []
    for step in range(n - 1):
        (a, b), height = min(pair_dist.items(), key=lambda kv: (kv[1], kv[0]))
        new_id = n + step
        new_size = sizes[a] + sizes[b]
        for x in list(sizes):
            if x in (a, b):
                continue
            da = pair_dist.pop((min(a, x), max(a, x)))
            db = pair_dist.pop((min(b, x), max(b, x)))
            if linkage == "single":
                d = min(da, db)
            elif linkage == "complete":
                d = max(da, db)
            else:
                d = (sizes[a] * da + sizes[b] * db) / new_size
            pair_dist[(x, new_id)] = d
        del pair_dist[(a, b)]
        del sizes[a], sizes[b]
        sizes[new_id] = new_size
        merges.append(Merge(a, b, height, new_size))
    return Dendrogram(leaves, merges)


def _clusters_from_merges(dendrogram: Dendrogram, n_applied: int) -> list[set[str]]:
    n = len(dendrogram.leaves)
    parent = list(range(2 * n - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n_applied):
        merge = dendrogram.merges[i]
        parent[find(merge.left)] = n + i
        parent[find(merge.right)] = n + i
    groups: dict[int, list[int]] = {}
    for leaf in range(n):
        groups.setdefault(find(leaf), []).append(leaf)
    ordered = sorted(groups.values(), key=lambda members: members[0])
    return [{dendrogram.leaves[i] for i in members} for members in ordered]


def cut(dendrogram: Dendrogram, height: float) -> list[set[str]]:
    """Clusters whose internal merges all sit strictly below ``height``.

    Clusters come back ordered by their smallest contained leaf id.
    """
    if not height >= 0:
        raise ValueError(f"height must be >= 0, got {height!r}")
    applied = sum(1 for m in dendrogram.merges if m.height < height)
    return _clusters_from_merges(dendrogram, applied)


def cut_k(dendrogram: Dendrogram, k: int) -> tuple[list[set[str]], float]:
    """Undo the last k-1 merges; threshold is the first undone merge height."""
    n = len(dendrogram.leaves)
    if not 1 <= k <= n:
        raise KOutOfRange(f"k must be in [1, {n}], got {k}")
    applied = n - k
    threshold = float("inf") if k == 1 else dendrogram.merges[applied].height
    return _clusters_from_merges(dendrogram, applied), threshold


def select_representatives(
    clusters: Sequence[set[str]], dist: np.ndarray, names: Sequence[str]
) -> list[str]:
    """Medoid of each cluster (min intra-cluster distance sum; name ties)."""
    index = {name: i for i, name in enumerate(names)}
    reps = []
    for cluster in clusters:
        members = sorted(cluster)
        for member in members:
            if member not in index:
                raise UnknownWorkload(member)
        ids = [index[m] for m in members]
        best = min(
            members,
            key=lambda m: (float(dist[index[m], ids].sum()), m),
        )
        reps.append(best)
    return reps


def coverage(full: MetricMatrix, subset: Sequence[str]) -> SubsetReport:
    """Span of the subset per metric as positions in the full min-max range."""
    if len(subset) == 0:
        raise EmptyInput("subset must contain at least one workload")
    rows = []
    for name in subset:
        if name not in full.workload_names:
            raise UnknownWorkload(name)
        rows.append(full.workload_names.index(name))
    cov: dict[str, tuple[float, float]] = {}
    degenerate: list[str] = []
    for j, metric in enumerate(full.metric_names):
        col = full.values[:, j]
        lo_all, hi_all = float(col.min()), float(col.max())
        if hi_all == lo_all:
            cov[metric] = (0.0, 100.0)
            degenerate.append(metric)
            continue
        sub = col[rows]
        span = hi_all - lo_all
        cov[metric] = (
            100.0 * (float(sub.min()) - lo_all) / span,
            100.0 * (float(sub.max()) - lo_all) / span,
        )
    return SubsetReport(list(subset), cov, degenerate)
