"""Agglomerative clustering, dendrogram cuts, medoid subsetting, coverage.

Node ids follow the usual convention: 0..n-1 are leaves, n+i is the cluster
created by the i-th merge.  Linkage heights are non-decreasing for all three
supported linkages.

``agglomerate`` keeps the linkage distances in one n x n float64 array of
slots.  Slot i starts as leaf i; each slot carries the node id and size of
the cluster it holds.  The diagonal and the slots of merged-away clusters
hold ``inf``, so the array minimum is the closest live pair, and a live mask
keeps dead slots out when every live distance is itself ``inf`` (an average
linkage can overflow to it).  Among pairs at the minimum, the one with the
smallest (min node id, max node id) merges.  The merged cluster's distances
go into the slot of its smaller node id, and the other slot dies.

Each merge finds the pairs at the minimum with one flat scan of the mask
(``np.flatnonzero``, then ``divmod`` by n).  That gives the same (row, col)
pairs in the same row-major order as a 2-D ``np.nonzero``, which costs about
13x as much on the n x n mask at n=384.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import AnalysisError, ParseError
from .model import MetricMatrix

LINKAGES = ("single", "complete", "average")


class Merge(NamedTuple):
    left: int
    right: int
    height: float
    size: int


class Dendrogram(NamedTuple):
    leaves: list[str]
    merges: list[Merge]


class SubsetReport(NamedTuple):
    selected: list[str]
    coverage: dict[str, tuple[float, float]]   # metric -> (low %, high %)
    degenerate: list[str]                      # constant metrics flagged (0, 100)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix; exactly symmetric with a zero diagonal."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"expected 2-D points, got shape {points.shape}")
    if points.shape[0] < 2:
        raise AnalysisError(f"need at least 2 points, got {points.shape[0]}")
    # one row at a time: no n x n x d temporary
    dist = np.empty((points.shape[0], points.shape[0]))
    for i, row in enumerate(points):
        diff = row - points
        dist[i] = np.sqrt((diff * diff).sum(axis=-1))
    return dist


def _check_distance_matrix(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise AnalysisError(f"expected a square matrix, got shape {dist.shape}")
    if dist.shape[0] < 2:
        raise AnalysisError(f"need at least 2 rows, got {dist.shape[0]}")
    if not np.isfinite(dist).all():
        raise AnalysisError("non-finite entries")
    if (dist < 0).any():
        raise AnalysisError("negative entries")
    scale = 1.0 + float(np.max(dist))
    if np.max(np.abs(dist - dist.T)) > 1e-8 * scale:
        raise AnalysisError("asymmetric entries")
    if np.max(np.abs(np.diag(dist))) > 1e-8 * scale:
        raise AnalysisError("nonzero diagonal")
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

    # the upper triangle is what the distances are read from; the lower one
    # mirrors it, since _check_distance_matrix tolerates a little asymmetry
    slots = dist.copy()
    lower = np.tril_indices(n, -1)
    slots[lower] = slots.T[lower]
    np.fill_diagonal(slots, np.inf)
    ids = np.arange(n)
    sizes = [1] * n
    live = np.ones(n, dtype=bool)
    merges: list[Merge] = []
    # an average of two huge distances overflows to inf, silently, as on
    # Python floats
    with np.errstate(over="ignore"):
        for step in range(n - 1):
            rows, cols = np.divmod(np.flatnonzero(slots == slots.min()), n)
            keep = live[rows] & live[cols] & (ids[rows] < ids[cols])
            rows, cols = rows[keep], cols[keep]
            # ids stay below 2n, so this key orders pairs as (min id, max id)
            k = np.argmin(ids[rows] * (2 * n) + ids[cols])
            sa, sb = rows[k], cols[k]
            da, db = slots[sa], slots[sb]
            new_size = sizes[sa] + sizes[sb]
            if linkage == "single":
                merged = np.where(db < da, db, da)
            elif linkage == "complete":
                merged = np.where(db > da, db, da)
            else:
                merged = (sizes[sa] * da + sizes[sb] * db) / new_size
            merges.append(Merge(int(ids[sa]), int(ids[sb]), float(slots[sa, sb]), new_size))
            merged[sa] = merged[sb] = np.inf
            slots[sa] = slots[:, sa] = merged
            slots[sb] = slots[:, sb] = np.inf
            live[sb] = False
            ids[sa] = n + step
            sizes[sa] = new_size
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
        raise AnalysisError(f"k must be in [1, {n}], got {k}")
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
                raise AnalysisError(f"unknown workload {member!r}")
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
        raise ParseError("subset must contain at least one workload")
    rows = []
    for name in subset:
        if name not in full.workload_names:
            raise AnalysisError(f"unknown workload {name!r}")
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
