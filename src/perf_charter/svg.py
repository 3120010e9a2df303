"""Self-contained SVG emitters (dendrogram, roofline, Gantt, PC scatter).

Plain string building on purpose: output is deterministic, diffable, and
testable by substring inspection.  No timestamps or external resources are
embedded, so identical inputs yield byte-identical files.  The roofline
plot, which grows with its points, comes only as an iterator of text pieces
(``roofline_svg_pieces``), drawn from the points as three parallel columns
(names, intensities, throughputs) rather than one tuple per point.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from .roofline import MachineModel
from .sched import Schedule

if TYPE_CHECKING:
    from .cluster import Dendrogram


def escape(s: str) -> str:
    """``&``, ``<`` and ``>`` as entities, ``&`` first; quotes stay as they are.

    The same text as ``html.escape(s, quote=False)`` and
    ``xml.sax.saxutils.escape``, without importing either (``html`` loads
    ``html.entities``, ``xml.sax`` loads ``urllib.request``).
    """
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

_SUITE_COLORS = {
    "MLPerf": "#4e79a7",
    "DAWNBench": "#e15759",
    "DeepBench": "#59a14f",
    "Other": "#9c755f",
}


def _f(x: float) -> str:
    return f"{x:.2f}"


def _header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<title>{escape(title)}</title>',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]


def _line(x1, y1, x2, y2, color="#333", dash="") -> str:
    d = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
        f'stroke="{color}" stroke-width="1.0"{d}/>'
    )


def _text(x, y, s, color="#111", anchor="start", rotate=None) -> str:
    t = f' transform="rotate({rotate} {_f(x)} {_f(y)})"' if rotate is not None else ""
    return (
        f'<text x="{_f(x)}" y="{_f(y)}" fill="{color}" text-anchor="{anchor}"{t}>'
        f"{escape(str(s))}</text>"
    )


def _leaf_order(dendrogram: Dendrogram) -> list[int]:
    """Left-to-right leaf ids from a DFS of the merge tree (no crossings)."""
    n = len(dendrogram.leaves)
    if n == 1:
        return [0]
    children = {n + i: (m.left, m.right) for i, m in enumerate(dendrogram.merges)}
    order: list[int] = []
    stack = [2 * n - 2]
    while stack:
        node = stack.pop()
        if node < n:
            order.append(node)
        else:
            left, right = children[node]
            stack.append(right)
            stack.append(left)
    return order


def dendrogram_svg(dendrogram: Dendrogram, cut_height: float | None = None) -> str:
    """Tree plot with heights to scale; every merge height must be finite."""
    if not all(math.isfinite(m.height) for m in dendrogram.merges):
        raise ValueError("cannot plot a dendrogram with a non-finite merge height")
    n = len(dendrogram.leaves)
    order = _leaf_order(dendrogram)
    margin_l, margin_t, margin_b = 50, 20, 120
    spacing = 36
    plot_h = 300
    width = margin_l + spacing * n + 20
    height = margin_t + plot_h + margin_b
    hmax = max((m.height for m in dendrogram.merges), default=1.0) or 1.0

    def y_of(h: float) -> float:
        return margin_t + plot_h * (1.0 - h / (hmax * 1.05))

    x_pos = {leaf: margin_l + spacing * (i + 0.5) for i, leaf in enumerate(order)}
    h_pos = {leaf: 0.0 for leaf in range(n)}
    parts = _header(width, height, "dendrogram")
    parts.append(_line(margin_l, margin_t, margin_l, y_of(0.0)))
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        h = hmax * frac
        parts.append(_line(margin_l - 3, y_of(h), margin_l, y_of(h)))
        parts.append(_text(margin_l - 6, y_of(h) + 4, f"{h:.3g}", anchor="end"))
    for i, merge in enumerate(dendrogram.merges):
        xl, xr = x_pos[merge.left], x_pos[merge.right]
        y = y_of(merge.height)
        parts.append(_line(xl, y_of(h_pos[merge.left]), xl, y))
        parts.append(_line(xr, y_of(h_pos[merge.right]), xr, y))
        parts.append(_line(xl, y, xr, y))
        x_pos[n + i] = (xl + xr) / 2.0
        h_pos[n + i] = merge.height
    if cut_height is not None and math.isfinite(cut_height):
        y = y_of(cut_height)
        parts.append(_line(margin_l, y, width - 10, y, color="#c00", dash="6 4"))
        parts.append(_text(width - 12, y - 4, f"cut {cut_height:.4g}", color="#c00", anchor="end"))
    for leaf in range(n):
        parts.append(
            _text(x_pos[leaf] + 4, y_of(0.0) + 8, dendrogram.leaves[leaf], rotate=60)
        )
    parts.append("</svg>\n")
    return "\n".join(parts)


def _log_ticks(lo: float, hi: float) -> list[float]:
    # 10.0 ** 309 overflows; every tick above 1e308 lies beyond any finite hi
    top = min(math.ceil(math.log10(hi)), 308)
    return [10.0 ** k for k in range(math.floor(math.log10(lo)), top + 1)]


def _roofline_range(
    machine: MachineModel, intensities: Sequence[float], throughputs: Sequence[float]
) -> tuple[float, float, float, float]:
    """The plot's ``x_lo, x_hi, y_lo, y_hi``, from one scan of the columns.

    Only points with ``0 < intensity < inf`` and ``throughput > 0`` are
    drawn and count.  The x range runs from half the least of 0.05 and the
    drawn intensities to the greatest of 8 ridges and twice each drawn
    intensity; the y range from half the least of the slope at ``x_lo``
    and the drawn throughputs to twice the greatest peak or throughput.
    Doubling is exact and monotone, so doubling the greatest value equals
    taking the greatest doubled value.  A bound that is not finite and
    positive raises ``ValueError``.
    """
    x_min, x_max, y_min, y_max = 0.05, 0.0, math.inf, 0.0
    for x, y in zip(intensities, throughputs):
        if 0 < x < math.inf and y > 0:
            if x < x_min:
                x_min = x
            if x > x_max:
                x_max = x
            if y < y_min:
                y_min = y
            if y > y_max:
                y_max = y
    x_lo = x_min / 2
    x_hi = max(max(machine.ridge(p) for p in machine.peaks) * 8, x_max * 2)
    y_hi = max(max(machine.peaks.values()), y_max) * 2
    y_lo = min(machine.mem_bandwidth_gbps * x_lo, y_min) / 2
    if not all(0 < v < math.inf for v in (x_lo, x_hi, y_lo, y_hi)):
        raise ValueError("the roofline plot range overflows a float")
    return x_lo, x_hi, y_lo, y_hi


def roofline_svg_pieces(
    machine: MachineModel,
    names: Sequence[str],
    intensities: Sequence[float],
    throughputs: Sequence[float],
) -> Iterator[str]:
    """The roofline plot of the points held in three parallel columns:
    names, intensities (FLOPs/byte) and throughputs (GFLOP/s).  Only points
    with a finite positive intensity and a positive throughput are drawn.

    The layout is done at once, so a plot range that overflows a float
    raises here (``_roofline_range``).  The document comes back as an
    iterator of text pieces (the head, one piece per drawn point, the
    closing tag) whose concatenation is the whole SVG, so a caller that
    writes them as they come never holds it all at once.
    """
    width, height = 640, 440
    x_lo, x_hi, y_lo, y_hi = _roofline_range(machine, intensities, throughputs)
    margin_l, margin_r, margin_t, margin_b = 60, 20, 20, 48
    plot_w, plot_h = width - margin_l - margin_r, height - margin_t - margin_b
    # the plot's log bounds, taken once; each coordinate divides by its span
    # (not times a reciprocal), so it keeps its bits
    log_x_lo, log_y_lo = math.log10(x_lo), math.log10(y_lo)
    x_span = math.log10(x_hi) - log_x_lo
    y_span = math.log10(y_hi) - log_y_lo

    def x_of(v: float) -> float:
        return margin_l + plot_w * (math.log10(v) - log_x_lo) / x_span

    def y_of(v: float) -> float:
        return margin_t + plot_h * (1 - (math.log10(v) - log_y_lo) / y_span)

    parts = _header(width, height, f"roofline {machine.name}")
    for tick in _log_ticks(x_lo, x_hi):
        if x_lo <= tick <= x_hi:
            parts.append(_line(x_of(tick), margin_t, x_of(tick), margin_t + plot_h, color="#ddd"))
            parts.append(_text(x_of(tick), height - margin_b + 14, f"1e{int(math.log10(tick))}", anchor="middle"))
    for tick in _log_ticks(y_lo, y_hi):
        if y_lo <= tick <= y_hi:
            parts.append(_line(margin_l, y_of(tick), margin_l + plot_w, y_of(tick), color="#ddd"))
            parts.append(_text(margin_l - 4, y_of(tick) + 4, f"1e{int(math.log10(tick))}", anchor="end"))
    parts.append(_text(margin_l + plot_w / 2, height - 8, "arithmetic intensity (FLOPs/byte)", anchor="middle"))
    parts.append(_text(14, margin_t + plot_h / 2, "GFLOP/s", anchor="middle", rotate=-90))

    ceiling_colors = {"double": "#e15759", "single": "#4e79a7", "half": "#59a14f"}
    for precision in sorted(machine.peaks):
        peak = machine.peaks[precision]
        ridge = machine.ridge(precision)
        color = ceiling_colors.get(precision, "#444")
        slope_y0 = machine.mem_bandwidth_gbps * x_lo
        pts = []
        if slope_y0 < peak:
            pts.append((x_lo, max(slope_y0, y_lo)))
            pts.append((ridge, peak))
        pts.append((max(ridge, x_lo), peak))
        pts.append((x_hi, peak))
        path = " ".join(f"{_f(x_of(px))},{_f(y_of(py))}" for px, py in pts)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(_text(x_of(x_hi) - 4, y_of(peak) - 4, f"{precision} {peak:.6g}", color=color, anchor="end"))
    parts.append("")
    head = "\n".join(parts)

    def pieces() -> Iterator[str]:
        yield head
        # one piece per drawn point, its circle and its label; the palette
        # steps over drawn points only
        colors = itertools.cycle(PALETTE)
        f, inf = _f, math.inf
        for name, intensity, throughput in zip(names, intensities, throughputs):
            if not (0 < intensity < inf and throughput > 0):
                continue
            x, y = x_of(intensity), y_of(throughput)
            yield (
                f'<circle cx="{f(x)}" cy="{f(y)}" r="4" fill="{next(colors)}" '
                f'stroke="#222"/>\n<text x="{f(x + 6)}" y="{f(y - 5)}" fill="#111" '
                f'text-anchor="start">{escape(name)}</text>\n'
            )
        yield "</svg>\n"

    return pieces()


def gantt_svg(schedule: Schedule, gpu_count: int) -> str:
    width, margin_l, margin_t, row_h, legend_h = 700, 60, 24, 28, 18
    jobs: list[str] = []
    for p in schedule.placements:
        if p.job not in jobs:
            jobs.append(p.job)
    height = margin_t + row_h * gpu_count + 40 + legend_h * len(jobs)
    span = schedule.makespan or 1.0
    plot_w = width - margin_l - 20

    def x_of(t: float) -> float:
        return margin_l + plot_w * t / span

    parts = _header(width, height, "schedule")
    for g in range(gpu_count):
        y = margin_t + row_h * g
        parts.append(_text(margin_l - 8, y + row_h * 0.65, f"gpu {g}", anchor="end"))
        parts.append(_line(margin_l, y + row_h, margin_l + plot_w, y + row_h, color="#eee"))
    color_of = {job: PALETTE[i % len(PALETTE)] for i, job in enumerate(jobs)}
    for p in schedule.placements:
        for g in p.gpu_ids:
            y = margin_t + row_h * g + 2
            parts.append(
                f'<rect x="{_f(x_of(p.start))}" y="{_f(y)}" '
                f'width="{_f(max(x_of(p.end) - x_of(p.start), 0.5))}" height="{row_h - 6}" '
                f'fill="{color_of[p.job]}" stroke="#222" stroke-width="0.5"/>'
            )
        first = min(p.gpu_ids)
        parts.append(
            _text(x_of(p.start) + 3, margin_t + row_h * first + row_h * 0.6, p.job)
        )
    axis_y = margin_t + row_h * gpu_count + 14
    parts.append(_text(margin_l, axis_y, "0", anchor="middle"))
    parts.append(_text(margin_l + plot_w, axis_y, f"{schedule.makespan:.6g} min", anchor="middle"))
    for i, job in enumerate(jobs):
        y = margin_t + row_h * gpu_count + 34 + legend_h * i
        parts.append(
            f'<rect x="{margin_l}" y="{_f(y - 10)}" width="12" height="12" fill="{color_of[job]}"/>'
        )
        parts.append(_text(margin_l + 18, y, job))
    parts.append("</svg>\n")
    return "\n".join(parts)


def scatter_svg(
    names: list[str],
    xs: list[float],
    ys: list[float],
    x_label: str,
    y_label: str,
    suites: dict[str, str] | None = None,
) -> str:
    width, height, margin = 520, 460, 58
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_pad = (x_hi - x_lo or 1.0) * 0.08
    y_pad = (y_hi - y_lo or 1.0) * 0.08
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def x_of(v: float) -> float:
        return margin + plot_w * (v - x_lo) / (x_hi - x_lo)

    def y_of(v: float) -> float:
        return margin + plot_h * (1 - (v - y_lo) / (y_hi - y_lo))

    parts = _header(width, height, f"{x_label} vs {y_label}")
    parts.append(_line(margin, margin + plot_h, margin + plot_w, margin + plot_h))
    parts.append(_line(margin, margin, margin, margin + plot_h))
    if x_lo < 0 < x_hi:
        parts.append(_line(x_of(0), margin, x_of(0), margin + plot_h, color="#ccc", dash="3 3"))
    if y_lo < 0 < y_hi:
        parts.append(_line(margin, y_of(0), margin + plot_w, y_of(0), color="#ccc", dash="3 3"))
    parts.append(_text(margin + plot_w / 2, height - 10, x_label, anchor="middle"))
    parts.append(_text(14, margin + plot_h / 2, y_label, anchor="middle", rotate=-90))
    for name, x, y in zip(names, xs, ys):
        color = _SUITE_COLORS.get((suites or {}).get(name, "Other"), "#9c755f")
        parts.append(
            f'<circle cx="{_f(x_of(x))}" cy="{_f(y_of(y))}" r="4" fill="{color}" stroke="#222"/>'
        )
        parts.append(_text(x_of(x) + 5, y_of(y) - 5, name))
    parts.append("</svg>\n")
    return "\n".join(parts)
