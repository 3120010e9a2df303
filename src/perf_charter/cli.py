"""perf-charter command line: characterize / roofline / schedule.

stdout carries the human-readable report (6 significant digits); it and the
``error:``/``warning:``/``note:`` lines on stderr escape any non-printable
character of a name, so each prints as one terminal line; an unwritable
stderr drops those lines and keeps the exit code.  Machine outputs
go to files in --out (JSON/CSV at full precision, SVG plots).  Each
``cmd_*`` renders its files (validating every schedule) and returns them with
its report lines; only ``main`` writes the files, atomically, so a failing
run leaves none, and then writes the report to stdout, one ``write`` per
line.  ``roofline`` keeps its points as columns, with no object per point:
a list of names, ``array("d")`` intensities and throughputs, and a list of
classifications.  Its CSV (``_roofline_csv``, one f-string per row), its
SVG and its lazy report all read those columns.  Both of its files are
streamed: each is an iterator of text pieces that ``main`` hands to the
staged file's ``writelines``, so no whole document is ever held in
memory.  Inputs are UTF-8, with or without a byte-order mark.  Exit
codes, each error class's ``exit_code``: 2 ingestion errors (unreadable,
non-UTF-8 or invalid input) and output errors (an --out that cannot be
written, or a closed stdout), 3 analysis errors (and a bare
``ValueError``; also a kernel time that underflows to 0 s), 4 a search's
job limit or work budget.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys
import warnings
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from . import model, svg
from . import roofline as roof
from . import sched
from .datafiles import sample_path
from .errors import AnalysisError, OutputError, ParseError, PerfCharterError
from .model import _dump_json


def _detect_format(path: Path) -> str:
    return "json" if path.suffix.lower() == ".json" else "csv"


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write_outputs(out: str, files: dict[str, str | Iterable[str]]) -> None:
    """Write every rendered file under ``out``, or none of them.

    A file is its text or an iterator of text pieces, handed to the file's
    ``writelines``, whose own buffer gathers them into chunks.
    Each file is staged as ``<name>.tmp`` and renamed into place only after
    all are staged and no target is a directory; on any error, also one
    raised by a piece iterator, every staged file is removed, and then each
    directory this call created, deepest first (``rmdir`` only, so a
    directory that holds anything stays).  An ``OSError`` becomes an
    ``OutputError``; any other error is raised as it is.
    """
    out_dir = Path(out)
    staged: list[Path] = []
    made: list[Path] = []
    try:
        made = list(itertools.takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            tmp = out_dir / (name + ".tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                staged.append(tmp)
                fh.writelines((content,) if isinstance(content, str) else content)
        for name in files:
            target = out_dir / name
            if target.is_dir():
                raise IsADirectoryError(f"is a directory: {target}")
        for name in files:
            os.replace(out_dir / (name + ".tmp"), out_dir / name)
    except BaseException as exc:
        for tmp in staged:
            with contextlib.suppress(OSError):
                tmp.unlink()
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {out}: {exc}") from None
        raise


def _parse_space(value: str) -> tuple[str, int]:
    if value == "metric":
        return "metric", 0
    if value.startswith("pca:"):
        k = value[4:]
        if k.isdigit() and int(k) >= 1:
            return "pca", int(k)
    raise argparse.ArgumentTypeError(
        f"--space must be 'metric' or 'pca:<k>', got {value!r}"
    )


def _parse_widths(value: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"--widths must be comma-separated ints, got {value!r}")
    if not widths:
        raise argparse.ArgumentTypeError("--widths must name at least one width")
    return widths


def cmd_characterize(args) -> tuple[dict[str, str], Iterable[str]]:
    # imported here: both load numpy, which the other commands never need
    from . import cluster as clus
    from . import stats

    fmt = _detect_format(Path(args.profiles))
    profiles = model.parse_workload_profiles(_read_text(args.profiles), fmt)
    matrix = model.matrix_from_profiles(profiles)
    pca = stats.fit_pca(matrix)

    space, top_k = args.space
    if space == "pca":
        points = pca.projections[:, : min(top_k, pca.projections.shape[1])]
    else:
        points = pca.standardized
    dist = clus.pairwise_distances(points)
    dendrogram = clus.agglomerate(dist, args.linkage, names=matrix.workload_names)
    if args.cut is not None:
        clusters = clus.cut(dendrogram, args.cut)
        threshold = args.cut
    else:
        clusters, threshold = clus.cut_k(dendrogram, args.k)
    reps = clus.select_representatives(clusters, dist, matrix.workload_names)
    report = clus.coverage(matrix, reps)

    files = {
        "pca.json": _dump_json(stats.pca_to_dict(pca)),
        "dendrogram.json": _dump_json(dendrogram._asdict()),
        "dendrogram.svg": svg.dendrogram_svg(dendrogram, threshold),
        "subset_report.json": _dump_json(report._asdict()),
    }
    if pca.projections.shape[1] >= 2:
        suites = {p.name: p.suite.value for p in profiles}
        dom1 = stats.dominant_metric(pca, 0)[0]
        dom2 = stats.dominant_metric(pca, 1)[0]
        files["pca_scatter.svg"] = svg.scatter_svg(
            matrix.workload_names,
            [float(v) for v in pca.projections[:, 0]],
            [float(v) for v in pca.projections[:, 1]],
            f"PC1 ({100 * pca.explained[0]:.6g}%, {dom1})",
            f"PC2 ({100 * pca.explained[1]:.6g}%, {dom2})",
            suites=suites,
        )
    lines = [f"workloads: {len(matrix.workload_names)}  metrics: {len(pca.metric_names)}"
             + (f"  (dropped: {', '.join(pca.dropped_metrics)})" if pca.dropped_metrics else "")]
    cum = 0.0
    shares = []
    for i, frac in enumerate(pca.explained[:4]):
        cum += float(frac)
        shares.append(f"PC{i + 1} {100 * frac:.6g}%")
    lines.append(f"explained variance: {', '.join(shares)} (cumulative {100 * cum:.6g}%)")
    for i in range(len(pca.metric_names)):
        name, loading = stats.dominant_metric(pca, i)
        lines.append(f"  PC{i + 1} dominated by {name} (loading {loading:.6g})")
    lines.append(f"clusters at threshold {threshold:.6g}:")
    for i, cluster in enumerate(clusters):
        lines.append(f"  {i + 1}: {', '.join(sorted(cluster))}")
    lines.append(f"selected subset: {', '.join(report.selected)}")
    lines.append("coverage of full ranges (%):")
    for metric, (lo, hi) in report.coverage.items():
        flag = "  [constant metric]" if metric in report.degenerate else ""
        lines.append(f"  {metric}: {lo:.6g} .. {hi:.6g}{flag}")
    return files, lines


def cmd_roofline(args) -> tuple[dict[str, Iterable[str]], Iterable[str]]:
    # imported here: loading array's extension module adds ~0.2 MB of RSS,
    # which the other commands never need
    from array import array

    transaction_bytes = args.transaction_bytes
    # checked here, before any file is read, so that this error wins over
    # input errors; roof.intensity and model.kernel_summary keep their own
    # check for library callers
    if not transaction_bytes > 0:
        raise ValueError("transaction_bytes must be > 0")
    machine_path = Path(args.machine) if args.machine else sample_path("machine.json")
    machine = roof.parse_machine(_read_text(machine_path))
    multi = len(args.kernels) > 1
    # the points as columns, read by the CSV, the SVG and the report, with
    # their classifications in a fourth column once every file is parsed
    names: list[str] = []
    intensities = array("d")
    throughputs = array("d")
    add_name, add_intensity, add_throughput = names.append, intensities.append, throughputs.append
    for path_str in args.kernels:
        path = Path(path_str)
        records = model.parse_kernels(_read_text(path), _detect_format(path))
        if not records:
            raise ParseError(f"{path}: no kernel records")
        if (multi or args.aggregate) and not model._utf8(path.stem):
            # the stem labels points, and neither file can hold the lone
            # surrogate that stands for a file name's undecodable byte
            raise ParseError(f"{path}: file name cannot be encoded as UTF-8")
        if args.aggregate:
            point = roof.workload_point(records, transaction_bytes, name=path.stem)
            add_name(point.name)
            add_intensity(point.intensity)
            add_throughput(point.throughput)
        else:
            prefix = f"{path.stem}/" if multi else ""
            for r in records:
                add_intensity(roof.intensity(r.flops, r.transactions, transaction_bytes))
                seconds = r.time_ms / 1e3
                if seconds > 0:
                    add_throughput(roof.throughput(r.flops, seconds))
                elif r.time_ms > 0:
                    # a positive time_ms that is 0 s here would make
                    # roof.throughput's time_s error, which names no input
                    raise AnalysisError(f"{path}: {r.class_name}: time_ms {r.time_ms!r} "
                                        "underflows to 0 s")
                else:
                    add_throughput(0.0)
                add_name(prefix + r.class_name)

    # fixed for the run, and looked up only after every file is parsed: every
    # point is classified and capped at single precision
    ridge = machine.ridge("single")
    peak = machine.peak("single")
    bandwidth = machine.mem_bandwidth_gbps
    labels = []
    for name, intensity, throughput in zip(names, intensities, throughputs):
        labels.append(roof.classify_at(ridge, intensity))
        if math.isfinite(intensity):
            ceiling = roof.ceiling_at(peak, bandwidth, intensity)
            if throughput > ceiling:
                _print_stderr(f"note: {name} throughput {throughput:.6g} exceeds the "
                              f"configured ceiling {ceiling:.6g} GFLOP/s")

    # the SVG's layout, and its range check, run here; both files and the
    # report are lazy, so neither file nor the report is ever held whole
    files = {
        "roofline.csv": _roofline_csv(names, intensities, throughputs, labels),
        "roofline.svg": svg.roofline_svg_pieces(machine, names, intensities, throughputs),
    }
    return files, itertools.chain(
        [f"machine {machine.name}: single-precision ridge at {ridge:.6g} FLOPs/byte"],
        (f"  {n}: intensity {i:.6g} FLOPs/B, throughput {t:.6g} GFLOP/s -> {c}"
         for n, i, t, c in zip(names, intensities, throughputs, labels)),
    )


def _roofline_csv(names: Sequence[str], intensities: Sequence[float],
                  throughputs: Sequence[float], labels: Sequence[str]) -> Iterator[str]:
    """roofline.csv for the point columns and their classifications: the
    text ``csv.writer`` writes, as the header and then one f-string per row.

    Only a name can need quoting: a float's ``repr`` and the three labels
    hold no ``,``, ``"``, CR or LF.  So the form is chosen from the names
    before any row is emitted.  csv quotes LF, its line terminator, but
    not a lone CR, which a reader takes for a line break: with a CR in any
    name every cell is quoted, the header too; else a name holding ``,``,
    ``"`` or LF is, by csv's minimal rule.  A quoted name's ``"`` is doubled.
    """
    rows = zip(names, intensities, throughputs, labels)
    if any("\r" in name for name in names):
        yield '"name","intensity","throughput","classification"\n'
        for name, intensity, throughput, label in rows:
            name = name.replace('"', '""')
            yield f'"{name}","{intensity!r}","{throughput!r}","{label}"\n'
    else:
        yield "name,intensity,throughput,classification\n"
        for name, intensity, throughput, label in rows:
            if '"' in name:
                name = '"' + name.replace('"', '""') + '"'
            elif "," in name or "\n" in name:
                name = f'"{name}"'
            yield f"{name},{intensity!r},{throughput!r},{label}\n"


def cmd_schedule(args) -> tuple[dict[str, str], Iterable[str]]:
    path = Path(args.jobs)
    jobs = model.parse_jobs(_read_text(path), _detect_format(path))
    cluster_spec = sched.ClusterSpec(args.gpus, args.widths or ())
    naive = sched.naive_schedule(jobs, cluster_spec)
    explored = None
    if args.method == "permutation":
        best, explored = sched.permutation_search(jobs, cluster_spec)
    elif args.method == "exact":
        best = sched.exact_schedule(jobs, cluster_spec)
    else:
        best = sched.heuristic_schedule(jobs, cluster_spec)
    sched.validate_schedule(naive, cluster_spec, jobs)
    sched.validate_schedule(best, cluster_spec, jobs)
    saved = sched.savings(naive, best)

    files = {
        "schedule.json": _dump_json(
            {
                "gpu_count": cluster_spec.gpu_count,
                "placements": [p._asdict() for p in best.placements],
                "makespan_min": best.makespan,
                "method": args.method,
            }
        ),
        "gantt.svg": svg.gantt_svg(best, cluster_spec.gpu_count),
    }
    suffix = f" (explored {explored} candidates)" if explored is not None else ""
    report = (
        f"jobs: {len(jobs)}  gpus: {cluster_spec.gpu_count}  "
        f"widths: {','.join(map(str, cluster_spec.allowed_widths))}\n"
        f"naive makespan:    {naive.makespan:.6g} min\n"
        f"{args.method} makespan: {best.makespan:.6g} min{suffix}\n"
        f"savings: {saved:.6g} min ({saved / 60:.6g} h)\n"
        + sched.ascii_gantt(best, cluster_spec.gpu_count)
    )
    return files, report.removesuffix("\n").split("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perf-charter",
        description="Characterize ML training workloads and schedule moldable jobs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="PCA + dendrogram + subset selection")
    p.add_argument("--profiles", required=True, help="profiles CSV/JSON file")
    p.add_argument(
        "--linkage",
        choices=("avg", "average", "single", "complete"),
        default="average",
        type=lambda s: "average" if s == "avg" else s,
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cut", type=float, default=None, help="cut height")
    group.add_argument("--k", type=int, default=4, help="number of clusters (default 4)")
    p.add_argument("--space", type=_parse_space, default=("metric", 0),
                   help="clustering space: metric (default) or pca:<k>")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("roofline", help="arithmetic intensity vs machine ceilings")
    p.add_argument("--kernels", required=True, nargs="+", help="kernel-class CSV/JSON file(s)")
    p.add_argument("--machine", default=None, help="machine config JSON (default: bundled V100-class)")
    p.add_argument("--transaction-bytes", type=int, default=roof.DEFAULT_TRANSACTION_BYTES)
    p.add_argument("--aggregate", action="store_true",
                   help="one aggregate point per input file instead of per-class points")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_roofline)

    p = sub.add_parser("schedule", help="naive baseline vs searched schedule")
    p.add_argument("--jobs", required=True, help="jobs CSV/JSON file")
    p.add_argument("--gpus", required=True, type=int)
    p.add_argument("--widths", type=_parse_widths, default=None,
                   help="allowed widths, e.g. 1,2,4,8 (default: powers of two up to --gpus)")
    p.add_argument("--method", choices=("exact", "permutation", "heuristic"),
                   default="permutation")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_schedule)
    return parser


def _escape(line: str) -> str:
    """``line`` with each non-printable character (a newline or CR in a name
    read from a file) written as its ``repr`` escape, so one report or
    stderr line prints as one terminal line."""
    if line.isprintable():
        return line
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in line)


def _print_stderr(line: str) -> None:
    """Print one escaped ``error:``/``warning:``/``note:`` line on stderr.

    With fd 2 closed at start-up ``sys.stderr`` is None, and with fd 2 not
    writable each write raises ``OSError``; either way the line is dropped,
    so the exit code stays the run's own.  ``print(file=None)`` would write
    to stdout.
    """
    if sys.stderr is None:
        return
    with contextlib.suppress(OSError):
        print(_escape(line), file=sys.stderr)


def _print_warning(message, category, filename, lineno, file=None, line=None):
    _print_stderr(f"warning: {message}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # library warnings go to stderr as one stable line each, without the
    # source path and line that the default format adds
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            files, report = args.func(args)
            _write_outputs(args.out, files)
            if sys.stdout is None:
                # Python starts with no sys.stdout when fd 1 is closed
                raise OutputError("cannot write to stdout: file descriptor 1 is closed")
            try:
                # one write per line, where print makes two
                sys.stdout.writelines(_escape(line) + "\n" for line in report)
                sys.stdout.flush()
            except OSError as exc:
                # with stdout on devnull, the flush at exit cannot fail again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise OutputError(f"cannot write to stdout: {exc}") from None
            return 0
        except (PerfCharterError, ValueError) as exc:
            _print_stderr(f"error: {exc}")
            return exc.exit_code if isinstance(exc, PerfCharterError) else 3


if __name__ == "__main__":
    sys.exit(main())
