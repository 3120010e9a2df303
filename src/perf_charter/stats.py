"""Standardization and principal component analysis.

The eigensolver is an in-house cyclic Jacobi written as plain Python loops
(``_jacobi_sweeps``).  The sweeps run on nested lists of Python floats: IEEE
double arithmetic gives the same bits on ``float`` as on numpy scalars, and
the loops run about 4x faster than when they index an array.  Covariance
uses the sample (n-1) divisor; eigenvector signs are fixed so that each
column's largest-magnitude entry is positive, which makes dominant-metric
labelling and plots deterministic.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import AnalysisError
from .model import MetricMatrix, metric_order_key

_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


class Standardization(NamedTuple):
    """Per-column z-score parameters (sample std, divisor n-1)."""

    means: np.ndarray
    stds: np.ndarray


class PcaModel(NamedTuple):
    standardization: Standardization
    metric_names: list[str]
    workload_names: list[str]
    eigenvalues: np.ndarray       # descending, clamped at 0
    eigenvectors: np.ndarray      # column k = PC-k loading vector, unit length
    standardized: np.ndarray      # z-scores of the retained columns (standardize's z)
    projections: np.ndarray       # standardized @ eigenvectors
    explained: np.ndarray         # variance fractions, sum 1
    dropped_metrics: list[str]    # zero-variance columns removed before the fit


def standardize(
    matrix: MetricMatrix,
) -> tuple[np.ndarray, Standardization, list[str]]:
    """Z-score each column; zero-variance columns are removed and reported."""
    n = len(matrix.workload_names)
    if n < 2:
        raise AnalysisError(f"standardize needs n >= 2 rows, got {n}")
    values = matrix.values
    means = values.mean(axis=0)
    stds = values.std(axis=0, ddof=1)
    keep = stds != 0.0
    dropped = [m for m, k in zip(matrix.metric_names, keep) if not k]
    if dropped:
        warnings.warn(
            f"dropped zero-variance metric column(s): {', '.join(dropped)}",
            stacklevel=2,
        )
    z = (values[:, keep] - means[keep]) / stds[keep]
    return z, Standardization(means[keep], stds[keep]), dropped


def _jacobi_sweeps(a, v, threshold, max_sweeps):
    """Cyclic Jacobi sweeps on symmetric ``a`` (overwritten toward diagonal).

    ``a`` and ``v`` are nested lists of Python floats, not arrays: the
    rotations give the same bits as on numpy scalars, about 4x faster.
    ``v`` accumulates the rotations (pass identity in).  Returns
    ``(converged, off_norm, sweeps)`` where off_norm is the Frobenius norm of
    the off-diagonal part at exit.
    """
    n = len(a)
    sweeps = 0
    while True:
        off2 = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off2 += 2.0 * a[i][j] * a[i][j]
        off = math.sqrt(off2)
        if off <= threshold:
            return 1, off, sweeps
        if sweeps >= max_sweeps:
            return 0, off, sweeps
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    # asymptotic branch: theta**2 would overflow
                    t = 1.0 / (2.0 * theta)
                elif theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                app = a[p][p]
                aqq = a[q][q]
                a[p][p] = app - t * apq
                a[q][q] = aqq + t * apq
                a[p][q] = 0.0
                a[q][p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        akp = a[k][p]
                        akq = a[k][q]
                        a[k][p] = akp - s * (akq + tau * akp)
                        a[p][k] = a[k][p]
                        a[k][q] = akq + s * (akp - tau * akq)
                        a[q][k] = a[k][q]
                for k in range(n):
                    vkp = v[k][p]
                    vkq = v[k][q]
                    v[k][p] = vkp - s * (vkq + tau * vkp)
                    v[k][q] = vkq + s * (vkp - tau * vkq)


def jacobi_eigen(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Converges when the off-diagonal Frobenius norm falls below
    ``1e-12 * ||A||_F`` within 100 sweeps.  Returns eigenvalues sorted
    descending and the matching orthonormal eigenvector columns.  An inf or
    nan entry is rejected before any sweep.
    """
    a = np.asarray(sym, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AnalysisError(f"expected a square matrix, got shape {a.shape}")
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        i, j = bad[0]
        raise AnalysisError(f"entry [{i}, {j}] is {a[i, j]}; every entry must be finite")
    m = a.shape[0]
    if m == 0:
        return np.empty(0), np.empty((0, 0))
    asym = np.max(np.abs(a - a.T))
    if asym > 1e-10:
        raise AnalysisError(f"max |A - A^T| = {asym:.3e} exceeds 1e-10")
    a = (a + a.T) * 0.5
    threshold = _JACOBI_TOL * float(np.sqrt((a * a).sum()))
    a, v = a.tolist(), np.eye(m).tolist()
    converged, off_norm, _ = _jacobi_sweeps(a, v, threshold, _JACOBI_MAX_SWEEPS)
    if not converged:
        raise AnalysisError(
            f"no convergence after {_JACOBI_MAX_SWEEPS} sweeps "
            f"(off-diagonal norm {off_norm:.3e})"
        )
    eigenvalues = np.array([a[i][i] for i in range(m)])
    v = np.array(v)
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def fit_pca(matrix: MetricMatrix) -> PcaModel:
    """PCA of the standardized metric matrix (covariance divisor n-1)."""
    z, params, dropped = standardize(matrix)
    retained = [m for m in matrix.metric_names if m not in dropped]
    if not retained:
        raise AnalysisError("no metric column with nonzero variance")
    n = z.shape[0]
    cov = z.T @ z / (n - 1)
    eigenvalues, eigenvectors = jacobi_eigen(cov)
    if eigenvalues.min() < -1e-9:
        raise AnalysisError(
            f"covariance eigenvalue {eigenvalues.min():.3e} below -1e-9"
        )
    eigenvalues = np.maximum(eigenvalues, 0.0)
    for k in range(eigenvectors.shape[1]):
        lead = int(np.argmax(np.abs(eigenvectors[:, k])))
        if eigenvectors[lead, k] < 0:
            eigenvectors[:, k] = -eigenvectors[:, k]
    projections = z @ eigenvectors
    explained = eigenvalues / eigenvalues.sum()
    return PcaModel(
        standardization=params,
        metric_names=retained,
        workload_names=list(matrix.workload_names),
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        standardized=z,
        projections=projections,
        explained=explained,
        dropped_metrics=dropped,
    )


def dominant_metric(model: PcaModel, pc: int) -> tuple[str, float]:
    """Metric with the largest |loading| on the given PC; canonical-order ties."""
    m = len(model.metric_names)
    if not 0 <= pc < m:
        raise AnalysisError(f"pc {pc} out of range for {m} components")
    loadings = model.eigenvectors[:, pc]
    top = np.max(np.abs(loadings))
    best = min(
        (i for i in range(m) if abs(loadings[i]) == top),
        key=lambda i: metric_order_key(model.metric_names[i], i),
    )
    return model.metric_names[best], float(loadings[best])


def pca_to_dict(model: PcaModel) -> dict:
    """JSON-ready export (eigenvectors serialized row-major)."""
    return {
        "workload_names": model.workload_names,
        "metric_names": model.metric_names,
        "dropped_metrics": model.dropped_metrics,
        "means": model.standardization.means.tolist(),
        "stds": model.standardization.stds.tolist(),
        "eigenvalues": model.eigenvalues.tolist(),
        "eigenvectors": model.eigenvectors.tolist(),
        "explained": model.explained.tolist(),
        "projections": model.projections.tolist(),
        "dominant_metric_per_pc": [
            {"metric": name, "loading": loading}
            for name, loading in (
                dominant_metric(model, k) for k in range(len(model.metric_names))
            )
        ],
    }
