import html
import math
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import perf_charter as pc
from perf_charter import cluster, stats, svg


def test_dendrogram_svg_structure(sample_matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        z, _, _ = stats.standardize(sample_matrix)
    dd = cluster.agglomerate(cluster.pairwise_distances(z), names=sample_matrix.workload_names)
    out = svg.dendrogram_svg(dd, cut_height=2.0)
    assert out.startswith("<svg ")
    assert out.rstrip().endswith("</svg>")
    for name in sample_matrix.workload_names:
        assert name in out
    assert "cut 2" in out
    assert out == svg.dendrogram_svg(dd, cut_height=2.0)  # deterministic


def test_dendrogram_svg_rejects_non_finite_heights():
    # average linkage over distances near the float maximum overflows to inf
    dist = np.full((4, 4), 1.7e308)
    np.fill_diagonal(dist, 0.0)
    dd = cluster.agglomerate(dist, "average")
    assert dd.merges[-1].height == float("inf")
    with pytest.raises(ValueError, match="non-finite"):
        svg.dendrogram_svg(dd)


def test_roofline_svg_ceilings_and_points(default_machine):
    points = [
        pc.RooflinePoint("relu", 1.27, 436.29),
        pc.RooflinePoint("MM_4x1", 208.98, 6457.51),
        pc.RooflinePoint("zero", 0.0, 0.0),  # skipped in the plot
    ]
    out = "".join(svg.roofline_svg_pieces(default_machine, *zip(*points)))
    assert "relu" in out and "MM_4x1" in out
    assert "zero" not in out
    for precision in ("double", "single", "half"):
        assert precision in out
    assert "polyline" in out
    assert "arithmetic intensity" in out


def test_roofline_svg_reads_points_and_rows_alike(default_machine):
    points = [
        pc.RooflinePoint("relu", 1.27, 436.29),
        pc.RooflinePoint("a<b>&c", 208.98, 6457.51),
        pc.RooflinePoint("inf", float("inf"), 10.0),  # skipped in the plot
        pc.RooflinePoint("zero", 0.0, 0.0),
    ] + [pc.RooflinePoint(f"k{i}", 0.5 * (i + 1), 40.0 * (i + 1)) for i in range(12)]
    out = "".join(svg.roofline_svg_pieces(default_machine, *zip(*points)))
    assert "a&lt;b&gt;&amp;c" in out
    assert ">inf<" not in out and ">zero<" not in out
    # the columns, as the CLI holds them, draw the same plot
    columns = ([p.name for p in points], array("d", [p.intensity for p in points]),
               array("d", [p.throughput for p in points]))
    assert "".join(svg.roofline_svg_pieces(default_machine, *columns)) == out


def _listed_range(machine, intensities, throughputs):
    # the plot range as the drawn-points list form computes it
    drawn = [(x, y) for x, y in zip(intensities, throughputs) if 0 < x < math.inf and y > 0]
    ridges = [machine.ridge(p) for p in machine.peaks]
    x_lo = min([0.05] + [x for x, _ in drawn]) / 2
    x_hi = max([max(ridges) * 8] + [x * 2 for x, _ in drawn])
    y_hi = max(list(machine.peaks.values()) + [y for _, y in drawn]) * 2
    y_lo = min([machine.mem_bandwidth_gbps * x_lo] + [y for _, y in drawn]) / 2
    if not all(0 < v < math.inf for v in (x_lo, x_hi, y_lo, y_hi)):
        raise ValueError("the roofline plot range overflows a float")
    return x_lo, x_hi, y_lo, y_hi


_RANGE_EDGES = [0.0, -0.0, -1.0, -math.inf, math.inf, math.nan, 5e-324, 1e-300, 1e308]
_RANGE_RATES = st.one_of(st.sampled_from(_RANGE_EDGES), st.floats(allow_nan=True))
_MACHINE_RATES = st.one_of(st.sampled_from([5e-324, 1e-300, 1.0, 1e308]),
                           st.floats(5e-324, 1e308))


@given(
    st.lists(st.tuples(_RANGE_RATES, _RANGE_RATES), max_size=8),
    _MACHINE_RATES, _MACHINE_RATES, _MACHINE_RATES,
)
@example([(1e308, 1.0)], 1.0, 1.0, 1.0)          # x_hi overflows
@example([(1.0, 1e308)], 1.0, 1.0, 1.0)          # y_hi overflows
@example([(5e-324, 5e-324)], 1.0, 1.0, 1.0)      # x_lo and y_lo underflow
@example([(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, 0.0),
          (1.0, -1.0), (1.0, math.nan), (2.0, 3.0)], 14000.0, 28000.0, 900.0)  # one drawn
@example([(1.0, math.inf)], 1.0, 1.0, 1.0)       # drawn, and y_hi is inf
@example([], 5e-324, 5e-324, 1e308)              # the ridges underflow
def test_roofline_range_equals_list_form(points, single, half, bandwidth):
    machine = pc.MachineModel("m", {"single": single, "half": max(single, half)}, bandwidth)
    intensities = array("d", [x for x, _ in points])
    throughputs = array("d", [y for _, y in points])
    try:
        expected = _listed_range(machine, intensities, throughputs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            svg._roofline_range(machine, intensities, throughputs)
    else:
        assert svg._roofline_range(machine, intensities, throughputs) == expected


def test_every_emitter_ends_in_one_newline(sample_matrix, sample_jobs, default_machine):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        z, _, _ = stats.standardize(sample_matrix)
    names = sample_matrix.workload_names
    outputs = [
        svg.dendrogram_svg(cluster.agglomerate(cluster.pairwise_distances(z), names=names)),
        "".join(svg.roofline_svg_pieces(default_machine, ["relu"], [1.27], [436.29])),
        svg.gantt_svg(pc.exact_schedule(sample_jobs, pc.ClusterSpec(4)), 4),
        svg.scatter_svg(names, [float(v) for v in z[:, 0]], [float(v) for v in z[:, 1]],
                        "x", "y"),
    ]
    for out in outputs:
        assert out.endswith("\n</svg>\n")


def test_gantt_svg_rows(sample_jobs):
    schedule = pc.exact_schedule(sample_jobs, pc.ClusterSpec(4))
    out = svg.gantt_svg(schedule, 4)
    for job in sample_jobs:
        assert job.name in out
    assert out.count("gpu ") == 4
    assert "<rect" in out


def test_scatter_svg_labels(sample_pca, sample_matrix):
    out = svg.scatter_svg(
        sample_matrix.workload_names,
        [float(v) for v in sample_pca.projections[:, 0]],
        [float(v) for v in sample_pca.projections[:, 1]],
        "PC1",
        "PC2",
        suites={"MLPf_Res50_TF": "MLPerf"},
    )
    assert "PC1" in out and "PC2" in out
    assert "MLPf_Res50_TF" in out


def test_svg_escapes_names():
    schedule = pc.Schedule(
        (pc.Placement("a<b>&c", 1, (0,), 0.0, 1.0),), 1.0
    )
    out = svg.gantt_svg(schedule, 1)
    assert "a&lt;b&gt;&amp;c" in out
    assert "a<b>" not in out


# Pieces that an escape can get wrong: entities already escaped, a lone
# ampersand, both quote characters and control characters.
_ESCAPE_PIECES = st.sampled_from(["&", "&amp;", "&lt;", "<", ">", '"', "'", "\x00", "\x1b", "\n", "\r"])


@given(st.lists(st.one_of(_ESCAPE_PIECES, st.text(max_size=4)), max_size=12).map("".join))
@example("&amp;")
@example("a<b>&c \"q\" 'q'")
def test_svg_escape_matches_xml_sax(text):
    # the SVG text must stay byte-identical to what xml.sax.saxutils.escape
    # gave; only this test imports xml.sax
    from xml.sax.saxutils import escape as sax_escape

    assert svg.escape(text) == sax_escape(text)


@given(st.text())
@example("<a href=\"x\">&amp; 'q' &lt;</a>")
def test_escape_matches_html_escape_without_quotes(text):
    assert svg.escape(text) == html.escape(text, quote=False)
