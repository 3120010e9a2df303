import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import perf_charter as pc
from perf_charter import cluster, stats
from perf_charter.errors import AnalysisError

from oracle_helpers import jacobi_eigen_on_arrays, symmetric_3x3_eigenvalues


def _matrix(values, metrics=None, names=None):
    values = np.asarray(values, dtype=float)
    n, m = values.shape
    return pc.MetricMatrix(
        names or [f"w{i}" for i in range(n)],
        metrics or [f"m{j}" for j in range(m)],
        values,
    )


# --- standardize -------------------------------------------------------------

def test_standardize_two_point_column():
    z, params, dropped = stats.standardize(_matrix([[1.0], [-1.0]]))
    assert dropped == []
    assert z[:, 0] == pytest.approx([1 / math.sqrt(2), -1 / math.sqrt(2)])
    assert params.means[0] == 0.0
    assert params.stds[0] == pytest.approx(math.sqrt(2))


def test_standardize_drops_constant_column():
    with pytest.warns(UserWarning, match="m0"):
        z, params, dropped = stats.standardize(_matrix([[5.0, 1.0], [5.0, 2.0], [5.0, 4.0]]))
    assert dropped == ["m0"]
    assert z.shape == (3, 1)


def test_standardize_sample_retains_five_of_six(sample_matrix):
    # nvlink_mbps is uniformly zero in the single-GPU block, so it is the one
    # zero-variance column; the other five survive.
    with pytest.warns(UserWarning, match="nvlink_mbps"):
        z, params, dropped = stats.standardize(sample_matrix)
    assert dropped == ["nvlink_mbps"]
    assert z.shape == (13, 5)
    assert np.abs(z.mean(axis=0)).max() < 1e-12
    assert np.abs(z.std(axis=0, ddof=1) - 1).max() < 1e-12


def test_standardize_too_few_rows():
    with pytest.raises(AnalysisError, match="standardize needs n >= 2 rows, got 1"):
        stats.standardize(_matrix([[1.0, 2.0]]))


# --- jacobi ------------------------------------------------------------------

def test_jacobi_2x2_analytic():
    w, v = stats.jacobi_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert w == pytest.approx([3.0, 1.0])
    assert np.abs(v.T @ v - np.eye(2)).max() < 1e-12


def test_jacobi_identity():
    w, v = stats.jacobi_eigen(np.eye(3))
    assert w == pytest.approx([1.0, 1.0, 1.0])
    # columns are the standard basis up to permutation/sign
    assert np.abs(np.abs(v) - np.eye(3)).max() < 1e-12


def test_jacobi_not_symmetric():
    with pytest.raises(AnalysisError, match=r"max \|A - A\^T\| = 2\.000e\+00 exceeds 1e-10"):
        stats.jacobi_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_jacobi_rejects_non_finite_entries(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(AnalysisError, match=rf"entry \[0, 0\] is {bad}") as exc:
            stats.jacobi_eigen(np.array([[bad, 1.0], [1.0, 0.0]]))
    assert exc.value.exit_code == 3


def test_jacobi_3x3_vs_characteristic_polynomial():
    rng = np.random.RandomState(7)
    for _ in range(25):
        b = rng.randn(3, 3)
        a = (b + b.T) / 2
        w, v = stats.jacobi_eigen(a)
        expected = symmetric_3x3_eigenvalues(a)
        assert w == pytest.approx(expected, abs=1e-8)
        assert np.abs(a @ v - v @ np.diag(w)).max() < 1e-8


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(("general", "diagonal", "rank-deficient", "repeated", "wide")))
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    if kind == "diagonal":
        return np.diag(draw(arrays(np.float64, n, elements=entries)))
    if kind == "rank-deficient":
        b = draw(arrays(np.float64, (n, draw(st.integers(0, max(0, n - 1)))), elements=entries))
        return b @ b.T
    if kind == "repeated":
        # c I + d J: eigenvalue c, n - 1 times over, and c + n d
        c, d = draw(entries), draw(entries)
        return c * np.eye(n) + d * np.ones((n, n))
    b = draw(arrays(np.float64, (n, n), elements=entries))
    if kind == "wide":
        # diagonal gaps far above the coupling: the asymptotic theta branch
        b = np.diag(draw(arrays(np.float64, n, elements=st.floats(-1e149, 1e149)))) + b * 1e-10
    return b + b.T


@settings(max_examples=120, deadline=None)
@given(symmetric_matrices())
def test_jacobi_matches_array_sweeps_bit_for_bit(sym):
    w, v = stats.jacobi_eigen(sym)
    # a "wide" theta can overflow to inf: numpy scalars warn there, Python
    # floats do not, and both then take the same asymptotic branch
    with np.errstate(over="ignore"):
        w_ref, v_ref = jacobi_eigen_on_arrays(sym)
    assert w.tobytes() == w_ref.tobytes()
    assert v.tobytes() == v_ref.tobytes()


# --- fit_pca -----------------------------------------------------------------

def test_fit_pca_perfectly_correlated_columns():
    x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0], [5.0, 10.0]])
    model = stats.fit_pca(_matrix(x))
    assert model.explained == pytest.approx([1.0, 0.0], abs=1e-12)
    assert model.eigenvalues == pytest.approx([2.0, 0.0], abs=1e-12)


def test_fit_pca_orthogonal_standardized_columns():
    # columns already orthogonal with zero mean: covariance is the identity
    x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    model = stats.fit_pca(_matrix(x))
    assert model.eigenvalues == pytest.approx([1.0, 1.0])
    assert model.explained == pytest.approx([0.5, 0.5])


def test_fit_pca_keeps_the_standardized_matrix():
    # the constant middle column is dropped, so the kept columns are not a
    # prefix of the matrix's
    m = _matrix([[1.0, 7.0, 0.3], [4.0, 7.0, -2.5], [2.5, 7.0, 9.0], [-3.0, 7.0, 0.1]])
    with pytest.warns(UserWarning, match="m1"):
        model = stats.fit_pca(m)
    with pytest.warns(UserWarning, match="m1"):
        z = stats.standardize(m)[0]
    assert model.standardized.shape == z.shape == (4, 2)
    assert np.array_equal(model.standardized, z)
    assert np.array_equal(model.projections, model.standardized @ model.eigenvectors)


def test_fit_pca_sample_variance_summary(sample_pca):
    from conftest import soft_note

    assert sample_pca.dropped_metrics == ["nvlink_mbps"]
    cum4 = float(sample_pca.explained[:4].sum())
    assert 0.0 < cum4 <= 1.0 + 1e-12
    soft_note(
        f"cumulative explained variance over PC1-PC4 = {100 * cum4:.1f}% on the "
        "5-metric sample (the reference 88% figure comes from an 8-metric space)"
    )


def test_dominant_metric_basic():
    model = stats.PcaModel(
        standardization=stats.Standardization(np.zeros(3), np.ones(3)),
        metric_names=["a", "b", "c"],
        workload_names=["w0", "w1"],
        eigenvalues=np.array([1.0, 1.0, 1.0]),
        eigenvectors=np.array([[0.1, 0.0, 0.0], [-0.9, 0.0, 0.0], [0.2, 0.0, 0.0]]),
        standardized=np.zeros((2, 3)),
        projections=np.zeros((2, 3)),
        explained=np.array([1 / 3] * 3),
        dropped_metrics=[],
    )
    name, loading = stats.dominant_metric(model, 0)
    assert (name, loading) == ("b", -0.9)


def test_dominant_metric_tie_breaks_canonically():
    model = stats.PcaModel(
        standardization=stats.Standardization(np.zeros(2), np.ones(2)),
        metric_names=["epochs", "gpu_util_pct"],  # gpu_util_pct is canonical-earlier
        workload_names=["w0", "w1"],
        eigenvalues=np.array([1.0, 1.0]),
        eigenvectors=np.array([[0.5, 0.5], [-0.5, 0.5]]),
        standardized=np.zeros((2, 2)),
        projections=np.zeros((2, 2)),
        explained=np.array([0.5, 0.5]),
        dropped_metrics=[],
    )
    assert stats.dominant_metric(model, 0)[0] == "gpu_util_pct"
    with pytest.raises(AnalysisError, match="pc 2 out of range for 2 components"):
        stats.dominant_metric(model, 2)


def test_dominant_metric_sample_soft_check(sample_pca):
    from conftest import soft_note

    name, _ = stats.dominant_metric(sample_pca, 0)
    agrees = "agrees with" if name == "hbm2_footprint_mb" else "differs from"
    soft_note(
        f"PC1 dominated by {name} on the 5-metric sample; {agrees} the reference "
        "GPU-memory-footprint label (8-metric space)"
    )


# --- projection ------------------------------------------------------------
# a workload's PC coordinates are its standardized row @ eigenvectors


def _retained(model, matrix):
    """The matrix columns the fit kept, in the model's metric order."""
    return matrix.values[:, [matrix.metric_names.index(name) for name in model.metric_names]]


def _standardized(model, x):
    return (x - model.standardization.means) / model.standardization.stds


def test_project_at_column_means_is_zero(sample_pca, sample_matrix):
    means = _retained(sample_pca, sample_matrix).mean(axis=0)
    assert _standardized(sample_pca, means) @ sample_pca.eigenvectors == pytest.approx(
        np.zeros(len(sample_pca.metric_names)), abs=1e-9
    )


def test_project_training_row_matches_projections(sample_pca, sample_matrix):
    i = 3
    row = _retained(sample_pca, sample_matrix)[i]
    assert _standardized(sample_pca, row) @ sample_pca.eigenvectors == pytest.approx(
        sample_pca.projections[i], abs=1e-10
    )


def test_project_one_std_above_mean_gives_loading_row(sample_pca, sample_matrix):
    # oracle by direct matrix arithmetic: z = e_k, so the projection equals
    # metric k's loadings across all PCs
    dominant, _ = stats.dominant_metric(sample_pca, 0)
    k = sample_pca.metric_names.index(dominant)
    x = _retained(sample_pca, sample_matrix).mean(axis=0)
    x[k] += sample_pca.standardization.stds[k]
    coords = _standardized(sample_pca, x) @ sample_pca.eigenvectors
    assert coords[0] == pytest.approx(sample_pca.eigenvectors[k, 0], abs=1e-9)
    assert coords == pytest.approx(sample_pca.eigenvectors[k, :], abs=1e-9)


# --- invariants --------------------------------------------------------------

matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 12), st.integers(1, 6)),
    elements=st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_pca_reconstruction_and_spectrum(values):
    matrix = _matrix(values)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            model = stats.fit_pca(matrix)
        except AnalysisError as exc:
            if str(exc) != "no metric column with nonzero variance":
                raise
            return
        z, _, _ = stats.standardize(matrix)
    # reconstruction with all PCs kept
    assert np.abs(model.projections @ model.eigenvectors.T - z).max() < 1e-8
    # orthonormal eigenvector columns
    m = model.eigenvectors.shape[0]
    assert np.abs(model.eigenvectors.T @ model.eigenvectors - np.eye(m)).max() < 1e-8
    # spectrum ordering and explained fractions
    assert (np.diff(model.eigenvalues) <= 1e-12).all()
    assert (model.eigenvalues >= 0).all()
    assert (np.diff(model.explained) <= 1e-12).all()
    assert model.explained.sum() == pytest.approx(1.0, abs=1e-9)
    cumulative = np.cumsum(model.explained)
    assert (np.diff(cumulative) >= -1e-12).all()
    assert cumulative[-1] == pytest.approx(1.0, abs=1e-9)


def _well_separated(eigenvalues, gap=1e-3) -> bool:
    return bool((-np.diff(eigenvalues) > gap).all())


def _well_conditioned(params) -> bool:
    # z-scores are numerically meaningless when a column's variance sits at
    # float representation-noise level (catastrophic cancellation)
    return bool((params.stds > (np.abs(params.means) + 1.0) * 1e-6).all())


@settings(max_examples=40, deadline=None)
@given(matrices, st.integers(0, 5), st.floats(0.001, 1000.0))
def test_pca_scale_invariance(values, col, scale):
    import warnings

    matrix = _matrix(values)
    col %= values.shape[1]
    scaled = values.copy()
    scaled[:, col] *= scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            base = stats.fit_pca(matrix)
            other = stats.fit_pca(_matrix(scaled))
            z_base, _, _ = stats.standardize(matrix)
            z_other, _, _ = stats.standardize(_matrix(scaled))
        except AnalysisError as exc:
            if str(exc) != "no metric column with nonzero variance":
                raise
            return
    if base.metric_names != other.metric_names:
        return  # scaling flushed a column to zero variance
    assume(_well_conditioned(base.standardization))
    assert np.abs(z_base - z_other).max() < 1e-8
    assert np.abs(base.eigenvalues - other.eigenvalues).max() < 1e-8
    if _well_separated(base.eigenvalues):
        # with a degenerate spectrum the eigenbasis may rotate freely
        assert np.abs(np.abs(base.projections) - np.abs(other.projections)).max() < 1e-8


@settings(max_examples=40, deadline=None)
@given(matrices, st.randoms(use_true_random=False))
def test_pca_row_permutation(values, rnd):
    import warnings

    order = list(range(values.shape[0]))
    rnd.shuffle(order)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            base = stats.fit_pca(_matrix(values))
            permuted = stats.fit_pca(
                _matrix(values[order], names=[f"w{i}" for i in order])
            )
        except AnalysisError as exc:
            if str(exc) != "no metric column with nonzero variance":
                raise
            return
    assume(_well_conditioned(base.standardization))
    assert np.abs(base.eigenvalues - permuted.eigenvalues).max() < 1e-8
    # projections are z @ V with V orthogonal, so inter-row distances are
    # basis-independent: the permuted fit must reproduce them exactly
    d_base = cluster.pairwise_distances(base.projections[order])
    d_perm = cluster.pairwise_distances(permuted.projections)
    assert np.abs(d_base - d_perm).max() < 1e-8
    if _well_separated(base.eigenvalues):
        # the largest-|component| sign rule can flip a column when a PC's two
        # top loadings tie in magnitude; align signs before the strict check
        flip = np.sign(np.sum(base.eigenvectors * permuted.eigenvectors, axis=0))
        assert np.abs(base.projections[order] - permuted.projections * flip).max() < 1e-8
