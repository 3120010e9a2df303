"""Output checks against references the benchmark computes on its own.

Each ``check_*`` function reads one command's ``--out`` directory and returns
a list of error strings (empty when the output is correct), and the result's
cost: the objective the command optimises over an independent reference
(see README.md).  ``SELF_TESTS`` corrupts a copy of a
correct output so that a check that has stopped catching errors shows up.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from perf_charter import errors as pc_errors
from perf_charter import model, sched

REL = 1e-9
LIST_SAMPLES = 50_000   # random list schedules the exact search must not lose to
ENUM_CHUNK = 50_000     # candidates simulated at once by the full enumeration


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# --- schedule ----------------------------------------------------------------


def _jobs(mix: list[dict]) -> list:
    return [model.Job(j["name"], j["t1_minutes"], dict(j["speedup"])) for j in mix]


def _widths(job: dict) -> list[int]:
    return [1, *job["speedup"]]


def _runtime(job: dict, width: int) -> float:
    return job["t1_minutes"] / (1.0 if width == 1 else job["speedup"][width])


def schedule_lower_bound(mix: list[dict], gpus: int) -> float:
    """max(least total GPU-minutes / P, longest job at its fastest width)."""
    area = sum(min(w * _runtime(j, w) for w in _widths(j)) for j in mix)
    longest = max(min(_runtime(j, w) for w in _widths(j)) for j in mix)
    return max(area / gpus, longest)


def list_makespans(runtimes: np.ndarray, widths: np.ndarray, orders: np.ndarray,
                   gpus: int) -> np.ndarray:
    """Makespans of greedy list schedules, one per row, written apart from
    ``sched.list_schedule``.

    Row r runs job j at ``widths[r, j]`` for ``runtimes[r, j]`` minutes, with
    priority order ``orders[r]``.  At t=0 and whenever GPUs free up, every
    unstarted job that fits is started, in priority order.
    """
    rows, n = runtimes.shape
    at = np.arange(rows)
    free = np.full(rows, gpus, dtype=np.int64)
    t = np.zeros(rows)
    end = np.full((rows, n), np.inf)
    started = np.zeros((rows, n), dtype=bool)
    while True:
        for k in range(n):
            j = orders[:, k]
            go = ~started[at, j] & (widths[at, j] <= free)
            started[at[go], j[go]] = True
            end[at[go], j[go]] = t[go] + runtimes[at[go], j[go]]
            free[go] -= widths[at[go], j[go]]
        waiting = ~started.all(axis=1)
        if not waiting.any():
            return end.max(axis=1)
        # next event: the earliest end after t; free the GPUs of every job ending then
        nxt = np.where(end > t[:, None], end, np.inf).min(axis=1)
        t = np.where(waiting, nxt, t)
        free += np.where(waiting[:, None] & (end == t[:, None]), widths, 0).sum(axis=1)


def _tables(mix: list[dict], width_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(runtimes, widths) per row, given each row's index into every job's widths."""
    options = [np.array(_widths(j)) for j in mix]
    minutes = [np.array([_runtime(j, w) for w in _widths(j)]) for j in mix]
    widths = np.stack([options[j][width_rows[:, j]] for j in range(len(mix))], axis=1)
    runtimes = np.stack([minutes[j][width_rows[:, j]] for j in range(len(mix))], axis=1)
    return runtimes, widths


def best_list_schedule(mix: list[dict], gpus: int) -> float:
    """Least makespan over every (width vector, priority order) list schedule:
    the space ``sched.permutation_search`` enumerates."""
    n = len(mix)
    combos = np.array(list(itertools.product(*(range(len(_widths(j))) for j in mix))))
    perms = np.array(list(itertools.permutations(range(n))))
    per_chunk = max(1, ENUM_CHUNK // len(perms))
    best = math.inf
    for lo in range(0, len(combos), per_chunk):
        chunk = np.repeat(combos[lo:lo + per_chunk], len(perms), axis=0)
        orders = np.tile(perms, (len(chunk) // len(perms), 1))
        best = min(best, float(list_makespans(*_tables(mix, chunk), orders, gpus).min()))
    return best


def sampled_list_best(mix: list[dict], gpus: int, samples: int) -> float:
    """Least makespan over random (width vector, priority order) list schedules.

    The exact search may return no worse: list schedules are among the
    semi-active schedules it covers.
    """
    rng = np.random.default_rng(0)
    n = len(mix)
    width_rows = np.stack([rng.integers(len(_widths(j)), size=samples) for j in mix], axis=1)
    orders = rng.permuted(np.tile(np.arange(n), (samples, 1)), axis=1)
    return float(list_makespans(*_tables(mix, width_rows), orders, gpus).min())


def check_schedule(out: Path, mix: list[dict], gpus: int, method: str):
    """Errors, and the makespan over the best list schedule the benchmark finds."""
    errors = []
    data = json.loads((out / "schedule.json").read_text(encoding="utf-8"))
    by_name = {j["name"]: j for j in mix}
    placements = data["placements"]
    if data["gpu_count"] != gpus or data["method"] != method:
        errors.append(f"header {data['gpu_count']}/{data['method']} != {gpus}/{method}")
    if sorted(p["job"] for p in placements) != sorted(by_name):
        errors.append("placements do not cover each job exactly once")
        return errors, math.inf
    for p in placements:
        job = by_name[p["job"]]
        want = _runtime(job, p["width"]) if p["width"] in _widths(job) else math.nan
        if not _close(p["end"] - p["start"], want, 1e-12) or p["start"] < 0:
            errors.append(f"{p['job']}: interval {p['start']}..{p['end']} != runtime {want}")
    # capacity: GPUs busy at every start instant
    for t in {p["start"] for p in placements}:
        busy = sum(p["width"] for p in placements if p["start"] <= t < p["end"])
        if busy > gpus:
            errors.append(f"{busy} GPUs busy at t={t}")
    schedule = sched.Schedule(
        tuple(sched.Placement(p["job"], p["width"], tuple(p["gpu_ids"]), p["start"], p["end"])
              for p in placements),
        data["makespan_min"],
    )
    cluster = sched.ClusterSpec(gpus)
    jobs = _jobs(mix)
    try:
        sched.validate_schedule(schedule, cluster, jobs)
    except pc_errors.PerfCharterError as exc:
        errors.append(f"validate_schedule: {exc}")
    makespan = data["makespan_min"]
    naive = sum(_runtime(j, gpus) for j in mix)
    heuristic = sched.heuristic_schedule(jobs, cluster).makespan
    lower = schedule_lower_bound(mix, gpus)
    if makespan > naive * (1 + REL) or makespan > heuristic * (1 + REL):
        errors.append(f"makespan {makespan} above naive {naive} or heuristic {heuristic}")
    if makespan < lower * (1 - REL):
        errors.append(f"makespan {makespan} below the lower bound {lower}")
    if method == "permutation":
        reference = best_list_schedule(mix, gpus)
        if not _close(makespan, reference):
            errors.append(f"makespan {makespan} != the best list schedule's {reference}")
        exact = sched.exact_schedule(jobs, cluster).makespan
        if exact > makespan * (1 + REL):
            errors.append(f"exact makespan {exact} above permutation makespan {makespan}")
    else:
        reference = sampled_list_best(mix, gpus, LIST_SAMPLES)
        if makespan > reference * (1 + REL):
            errors.append(f"makespan {makespan} above a sampled list schedule's {reference}")
    return errors, makespan / reference


def _corrupt_schedule(out: Path) -> None:
    path = out / "schedule.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    first, second = data["placements"][:2]
    second.update(gpu_ids=first["gpu_ids"], width=first["width"], start=first["start"],
                  end=first["start"] + (second["end"] - second["start"]))
    path.write_text(json.dumps(data), encoding="utf-8")


# --- characterize --------------------------------------------------------------


def _standardized(rows: list[list[float]]) -> np.ndarray:
    x = np.array(rows, dtype=np.float64)
    return (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


def check_characterize(out: Path, ref: dict):
    errors = []
    z = _standardized(ref["rows"])
    n = z.shape[0]
    want_eig = np.linalg.eigvalsh(z.T @ z / (n - 1))[::-1]
    pca = json.loads((out / "pca.json").read_text(encoding="utf-8"))
    got_eig = np.array(pca["eigenvalues"])
    if got_eig.shape != want_eig.shape or not np.allclose(
            got_eig, want_eig, rtol=REL, atol=REL * want_eig[0]):
        errors.append("PCA eigenvalues differ from numpy.linalg.eigvalsh")

    tree = json.loads((out / "dendrogram.json").read_text(encoding="utf-8"))
    link = linkage(z, method="average")
    got_h = np.array([m[2] for m in tree["merges"]])
    if len(tree["leaves"]) != n or got_h.shape != (n - 1,) or not np.allclose(
            got_h, link[:, 2], rtol=REL, atol=0.0):
        errors.append("merge heights differ from scipy average linkage")

    # medoid of each reference cluster, ties to the smaller name
    dist = np.sqrt(((z[:, None, :] - z[None, :, :]) ** 2).sum(axis=-1))
    labels = fcluster(link, ref["k"], criterion="maxclust")
    names = ref["names"]
    medoids, best_cost = [], 0.0
    for label in sorted(set(labels)):
        ids = np.flatnonzero(labels == label)
        sums = dist[np.ix_(ids, ids)].sum(axis=1)
        pick = min(range(len(ids)), key=lambda i: (sums[i], names[ids[i]]))
        medoids.append(names[ids[pick]])
        best_cost += float(sums[pick])
    report = json.loads((out / "subset_report.json").read_text(encoding="utf-8"))
    selected = report["selected"]
    if sorted(selected) != sorted(medoids):
        errors.append(f"selected {sorted(selected)} != reference medoids {sorted(medoids)}")
    # the program's subset scored on the reference clusters: each member to its
    # cluster's selected workload (inf when a cluster got none)
    index = {name: i for i, name in enumerate(names)}
    cost = 0.0
    for label in sorted(set(labels)):
        ids = np.flatnonzero(labels == label)
        reps = [index[s] for s in selected if s in index and labels[index[s]] == label]
        cost += min((float(dist[r, ids].sum()) for r in reps), default=math.inf)

    x = np.array(ref["rows"], dtype=np.float64)
    sub = x[[index[s] for s in selected if s in index]]
    lo, hi = x.min(axis=0), x.max(axis=0)
    want_cov = {m: [100 * (sub[:, j].min() - lo[j]) / (hi[j] - lo[j]),
                    100 * (sub[:, j].max() - lo[j]) / (hi[j] - lo[j])]
                for j, m in enumerate(ref["metrics"])}
    got_cov = report["coverage"]
    if set(got_cov) != set(want_cov) or not all(
            np.allclose(got_cov[m], want_cov[m], rtol=REL, atol=REL) for m in want_cov):
        errors.append("coverage ranges differ from the recomputed subset spans")
    return errors, cost / best_cost


def _corrupt_characterize(out: Path) -> None:
    path = out / "pca.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["eigenvalues"][0] *= 1 + 1e-6
    path.write_text(json.dumps(data), encoding="utf-8")


# --- roofline ------------------------------------------------------------------


def check_roofline(out: Path, ref: dict, transaction_bytes: int):
    errors = []
    machine = ref["machine"]
    ridge = machine["peaks"]["single"] / machine["mem_bandwidth_gbps"]
    with (out / "roofline.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    expected = [(f"{stem}/{r['class']}", r) for stem, recs in ref["files"].items() for r in recs]
    if rows[:1] != [["name", "intensity", "throughput", "classification"]]:
        errors.append("roofline.csv header changed")
    if len(rows) - 1 != len(expected):
        errors.append(f"roofline.csv has {len(rows) - 1} rows, expected {len(expected)}")
        return errors, math.inf
    bad = 0
    for (name, rec), row in zip(expected, rows[1:]):
        want_i = rec["flops"] / (rec["transactions"] * transaction_bytes)
        want_t = rec["flops"] / (rec["time_ms"] / 1e3) / 1e9
        want_c = "memory_bound" if want_i < ridge else "compute_bound"
        if (row[0] != name or not _close(float(row[1]), want_i, 1e-12)
                or not _close(float(row[2]), want_t, 1e-12) or row[3] != want_c):
            bad += 1
    if bad:
        errors.append(f"{bad} roofline rows differ from the recomputed points")
    if not (out / "roofline.svg").stat().st_size:
        errors.append("roofline.svg is empty")
    # a roofline computes every point; there is nothing to optimise
    return errors, 1.0


def _corrupt_roofline(out: Path) -> None:
    path = out / "roofline.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    del lines[len(lines) // 2]
    path.write_text("".join(lines), encoding="utf-8")


SELF_TESTS = {
    "schedule": _corrupt_schedule,
    "characterize": _corrupt_characterize,
    "roofline": _corrupt_roofline,
}


def self_test(kind: str, out: Path, copy: Path, check) -> bool:
    """True when ``check`` rejects a corrupted copy of the correct output ``out``."""
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(out, copy)
    SELF_TESTS[kind](copy)
    errors, _ = check(copy)
    shutil.rmtree(copy)
    return bool(errors)
