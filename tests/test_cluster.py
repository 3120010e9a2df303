import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import perf_charter as pc
from perf_charter import cluster, stats
from oracle_helpers import agglomerate_merges
from perf_charter.errors import AnalysisError, ParseError


@pytest.fixture(scope="module")
def sample_space(sample_matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        z, _, _ = stats.standardize(sample_matrix)
    dist = cluster.pairwise_distances(z)
    return z, dist, sample_matrix.workload_names


# --- pairwise distances --------------------------------------------------------

def test_distance_3_4_5():
    d = cluster.pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert d[0, 1] == 5.0
    assert d[1, 0] == 5.0
    assert d[0, 0] == 0.0


def test_distance_duplicate_rows():
    d = cluster.pairwise_distances(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 2.0]]))
    assert d[0, 1] == 0.0
    assert d[0, 2] == 2.0


def test_distance_rows_match_broadcast_bit_for_bit():
    rng = np.random.default_rng(7)
    for d in range(1, 201):
        points = rng.normal(size=(9, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        points[5] = points[2]  # a duplicate row
        diff = points[:, None, :] - points[None, :, :]
        broadcast = np.sqrt((diff * diff).sum(axis=-1))
        assert cluster.pairwise_distances(points).tobytes() == broadcast.tobytes(), d


def test_distance_too_few_rows():
    with pytest.raises(AnalysisError, match="need at least 2 points, got 1"):
        cluster.pairwise_distances(np.array([[1.0, 2.0]]))


def test_distance_res50_pair_vs_median(sample_space):
    # Frozen from a brute-force pass over the shipped table: in the 5-metric
    # standardized space the two ResNet-50 runs sit just ABOVE the median
    # pairwise distance (they differ a lot in CPU util and DDR footprint).
    from conftest import soft_note

    z, dist, names = sample_space
    i, j = names.index("MLPf_Res50_TF"), names.index("MLPf_Res50_MX")
    brute = np.sqrt(((z[i] - z[j]) ** 2).sum())
    assert dist[i, j] == pytest.approx(brute, abs=1e-12)
    median = float(np.median(dist[np.triu_indices(len(names), 1)]))
    assert dist[i, j] == pytest.approx(2.4641, abs=1e-3)
    assert median == pytest.approx(2.4120, abs=1e-3)
    assert dist[i, j] > median
    soft_note(
        f"d(Res50_TF, Res50_MX) = {dist[i, j]:.3f} vs median {median:.3f}: the pair "
        "is NOT below the median in the shipped 5-metric space"
    )


# --- agglomerate ----------------------------------------------------------------

def test_agglomerate_identical_pair_first():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    dd = cluster.agglomerate(cluster.pairwise_distances(pts))
    first = dd.merges[0]
    assert (first.left, first.right, first.height) == (0, 1, 0.0)
    assert dd.merges[-1].size == 3


def test_agglomerate_equilateral_tie_break():
    # exactly-equal distances: lowest (min id, max id) pair merges first, and
    # average linkage keeps the recomputed distance at 1
    dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    dd = cluster.agglomerate(dist, "average")
    assert dd.merges[0] == cluster.Merge(0, 1, 1.0, 2)
    assert dd.merges[1] == cluster.Merge(2, 3, 1.0, 3)


def test_agglomerate_average_recomputes_mean():
    # collinear points 0, 1, 3.5: after merging {0,1}, d({0,1},{3.5}) = 3.0
    dist = cluster.pairwise_distances(np.array([[0.0], [1.0], [3.5]]))
    dd = cluster.agglomerate(dist, "average")
    assert dd.merges[0] == cluster.Merge(0, 1, 1.0, 2)
    assert dd.merges[1] == cluster.Merge(2, 3, 3.0, 3)
    single = cluster.agglomerate(dist, "single")
    complete = cluster.agglomerate(dist, "complete")
    assert single.merges[1].height == 2.5
    assert complete.merges[1].height == 3.5


def test_agglomerate_rejects_bad_matrices():
    with pytest.raises(AnalysisError, match="^negative entries$"):
        cluster.agglomerate(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(AnalysisError, match="^asymmetric entries$"):
        cluster.agglomerate(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(AnalysisError, match="^nonzero diagonal$"):
        cluster.agglomerate(np.array([[1.0, 1.0], [1.0, 0.0]]))


def test_agglomerate_sample_first_merge_soft_check(sample_space):
    from conftest import soft_note

    _, dist, names = sample_space
    dd = cluster.agglomerate(dist, "average", names=names)
    first = dd.merges[0]
    pair = {names[first.left], names[first.right]}
    agrees = (
        "matches" if pair == {"MLPf_Res50_TF", "MLPf_Res50_MX"} else "differs from"
    )
    soft_note(
        f"first merge joins {sorted(pair)} at {first.height:.3f}; {agrees} the "
        "reference first pair (Res50_TF, Res50_MX)"
    )


# --- cut / cut_k ------------------------------------------------------------------

def test_cut_extremes(sample_space):
    _, dist, names = sample_space
    dd = cluster.agglomerate(dist, "average", names=names)
    singletons = cluster.cut(dd, 0.0)
    assert len(singletons) == len(names)
    assert all(len(c) == 1 for c in singletons)
    everything = cluster.cut(dd, dd.merges[-1].height * 1.01)
    assert len(everything) == 1
    assert everything[0] == set(names)
    for height in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="height must be >= 0"):
            cluster.cut(dd, height)


def test_cut_between_merges(sample_space):
    _, dist, names = sample_space
    dd = cluster.agglomerate(dist, "average", names=names)
    n = len(names)
    for j in range(n - 2):
        h_lo, h_hi = dd.merges[j].height, dd.merges[j + 1].height
        if h_hi > h_lo:
            height = (h_lo + h_hi) / 2
            assert len(cluster.cut(dd, height)) == n - (j + 1)


def test_cut_k_extremes(sample_space):
    _, dist, names = sample_space
    dd = cluster.agglomerate(dist, "average", names=names)
    clusters, threshold = cluster.cut_k(dd, len(names))
    assert all(len(c) == 1 for c in clusters)
    assert threshold == dd.merges[0].height
    clusters, threshold = cluster.cut_k(dd, 1)
    assert len(clusters) == 1
    assert threshold == float("inf")
    n = len(names)
    with pytest.raises(AnalysisError, match=rf"k must be in \[1, {n}\], got 0"):
        cluster.cut_k(dd, 0)
    with pytest.raises(AnalysisError, match=rf"k must be in \[1, {n}\], got {n + 1}"):
        cluster.cut_k(dd, n + 1)


def test_cut_k4_sample_soft_check(sample_space):
    from conftest import soft_note

    _, dist, names = sample_space
    dd = cluster.agglomerate(dist, "average", names=names)
    clusters, _ = cluster.cut_k(dd, 4)
    assert len(clusters) == 4
    isolated = {next(iter(c)) for c in clusters if len(c) == 1}
    expected = {"Dawn_DrQA_Py", "MLPf_SSD_Py"}
    soft_note(
        f"k=4 singletons on the sample: {sorted(isolated)}; the reference dendrogram "
        f"isolates {sorted(expected)} (match: {expected == isolated})"
    )


# --- representatives ----------------------------------------------------------------

def test_representative_singleton():
    dist = np.zeros((2, 2))
    assert cluster.select_representatives([{"b"}], dist, ["a", "b"]) == ["b"]


def test_representative_collinear_medoid():
    dist = cluster.pairwise_distances(np.array([[0.0], [1.0], [10.0]]))
    reps = cluster.select_representatives([{"p0", "p1", "p2"}], dist, ["p0", "p1", "p2"])
    assert reps == ["p1"]  # distance sums: 11, 10, 19


def test_representative_tie_breaks_lexicographically():
    dist = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert cluster.select_representatives([{"B", "A"}], dist, ["A", "B"]) == ["A"]
    with pytest.raises(AnalysisError, match="^unknown workload 'C'$"):
        cluster.select_representatives([{"C"}], dist, ["A", "B"])


# --- coverage ------------------------------------------------------------------------

def _cov_matrix():
    return pc.MetricMatrix(
        ["lo", "mid", "hi"], ["m"], np.array([[0.0], [50.0], [100.0]])
    )


def test_coverage_full_span():
    report = cluster.coverage(_cov_matrix(), ["lo", "hi"])
    assert report.coverage["m"] == (0.0, 100.0)


def test_coverage_half_span():
    report = cluster.coverage(_cov_matrix(), ["mid", "hi"])
    assert report.coverage["m"] == (50.0, 100.0)


def test_coverage_subset_equals_full(sample_matrix):
    report = cluster.coverage(sample_matrix, list(sample_matrix.workload_names))
    for metric, (lo, hi) in report.coverage.items():
        assert (lo, hi) == (0.0, 100.0)
    assert report.degenerate == ["nvlink_mbps"]


def test_coverage_errors(sample_matrix):
    with pytest.raises(AnalysisError, match="^unknown workload 'nope'$"):
        cluster.coverage(sample_matrix, ["nope"])
    with pytest.raises(ParseError, match="subset must contain at least one workload"):
        cluster.coverage(sample_matrix, [])


# --- array agglomeration vs the dict oracle ----------------------------------------

HUGE = 1.7e308  # two of them overflow an average linkage to inf


@st.composite
def oracle_matrices(draw):
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(("points", "grid", "asymmetric", "huge")))
    upper = np.triu_indices(n, 1)
    if kind == "huge":
        dist = np.zeros((n, n))
        dist[upper] = draw(arrays(np.float64, len(upper[0]), elements=st.floats(1e308, HUGE)))
        return dist + dist.T
    d = draw(st.integers(1, 4))
    if kind == "grid":
        # integer coordinates: many exactly tied distances
        elements = st.integers(0, 2).map(float)
    else:
        elements = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    dist = cluster.pairwise_distances(draw(arrays(np.float64, (n, d), elements=elements)))
    if kind == "asymmetric":
        # only the upper triangle moves, within the checker's 1e-8 tolerance
        noise = draw(arrays(np.float64, len(upper[0]), elements=st.floats(0.0, 5e-9)))
        dist[upper] += noise * (1.0 + dist.max())
    return dist


@settings(max_examples=150, deadline=None)
@given(oracle_matrices(), st.sampled_from(cluster.LINKAGES))
@example(np.where(np.eye(6) == 1, 0.0, HUGE), "average")
# 40 points on a 3 x 3 integer grid: ties spread over many rows of the mask
@example(cluster.pairwise_distances(np.random.RandomState(5).randint(0, 3, (40, 2))), "average")
def test_agglomerate_matches_dict_oracle(dist, linkage):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        merges = cluster.agglomerate(dist, linkage).merges
    assert [tuple(m) for m in merges] == agglomerate_merges(dist, linkage)
    for m in merges:
        assert type(m.left) is int and type(m.right) is int and type(m.size) is int
        assert type(m.height) is float


# --- properties ------------------------------------------------------------------------

dist_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 10), st.integers(1, 4)),
    elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
).map(cluster.pairwise_distances)


@settings(max_examples=60, deadline=None)
@given(dist_matrices, st.sampled_from(cluster.LINKAGES))
def test_linkage_heights_monotone(dist, linkage):
    dd = cluster.agglomerate(dist, linkage)
    heights = [m.height for m in dd.merges]
    assert all(a <= b for a, b in zip(heights, heights[1:]))
    assert dd.merges[-1].size == dist.shape[0]


@settings(max_examples=40, deadline=None)
@given(dist_matrices, st.floats(0.0, 20.0), st.floats(0.0, 20.0))
def test_cut_refinement(dist, h1, h2):
    lo, hi = sorted((h1, h2))
    dd = cluster.agglomerate(dist)
    fine = cluster.cut(dd, lo)
    coarse = cluster.cut(dd, hi)
    for group in fine:
        assert any(group <= other for other in coarse)


@settings(max_examples=30, deadline=None)
@given(
    arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(3, 8), st.integers(1, 3)),
        elements=st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    ),
    st.randoms(use_true_random=False),
    st.sampled_from(cluster.LINKAGES),
)
def test_agglomerate_relabel_invariance(points, rnd, linkage):
    n = points.shape[0]
    dist = cluster.pairwise_distances(points)
    upper = dist[np.triu_indices(n, 1)]
    # exact ties make the merge order id-dependent by design; relabeling
    # invariance is only promised for tie-free inputs
    assume(np.unique(upper).size == upper.size)
    names = [f"w{i}" for i in range(n)]
    order = list(range(n))
    rnd.shuffle(order)
    base = cluster.agglomerate(dist, linkage, names=names)
    moved = cluster.agglomerate(
        cluster.pairwise_distances(points[order]), linkage, names=[names[i] for i in order]
    )
    for k in range(1, n + 1):
        parts_base, _ = cluster.cut_k(base, k)
        parts_moved, _ = cluster.cut_k(moved, k)
        assert sorted(map(sorted, parts_base)) == sorted(map(sorted, parts_moved))


@settings(max_examples=30, deadline=None)
@given(
    arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(3, 8), st.integers(1, 3)),
        elements=st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    ),
    st.integers(1, 4),
)
def test_medoid_determinism_under_permutation(points, k):
    n = points.shape[0]
    k = min(k, n)
    names = [f"w{i}" for i in range(n)]
    dist = cluster.pairwise_distances(points)
    dd = cluster.agglomerate(dist, names=names)
    clusters, _ = cluster.cut_k(dd, k)
    reps_once = cluster.select_representatives(clusters, dist, names)
    reps_again = cluster.select_representatives(list(clusters), dist, names)
    assert reps_once == reps_again
