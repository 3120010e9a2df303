"""Independent test oracles.

Deliberately dumb re-implementations kept separate from the library code:
a characteristic-polynomial eigenvalue solver for 3x3 symmetric matrices, an
exhaustive enumerator over start-time-ordered (semi-active) schedules, a
greedy list scheduler that hands out GPU ids from a sorted free list, the
permutation search's kernel without pruning (every order simulated, each
event's start set recorded), an interval-overlap schedule checker,
agglomerative clustering over a dict of every live pair, and the Jacobi
sweeps indexing numpy arrays element by element.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from perf_charter import Placement, Schedule


def symmetric_3x3_eigenvalues(a) -> list[float]:
    """Roots of the characteristic cubic, trigonometric form (all real)."""
    a00, a01, a02 = float(a[0][0]), float(a[0][1]), float(a[0][2])
    a11, a12, a22 = float(a[1][1]), float(a[1][2]), float(a[2][2])
    p1 = a01 * a01 + a02 * a02 + a12 * a12
    q = (a00 + a11 + a22) / 3.0
    p2 = (a00 - q) ** 2 + (a11 - q) ** 2 + (a22 - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    if p == 0.0:
        return [q, q, q]
    b00, b11, b22 = (a00 - q) / p, (a11 - q) / p, (a22 - q) / p
    b01, b02, b12 = a01 / p, a02 / p, a12 / p
    detb = (
        b00 * (b11 * b22 - b12 * b12)
        - b01 * (b01 * b22 - b12 * b02)
        + b02 * (b01 * b12 - b11 * b02)
    )
    r = max(-1.0, min(1.0, detb / 2.0))
    phi = math.acos(r) / 3.0
    e1 = q + 2.0 * p * math.cos(phi)
    e3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    return sorted([e1, e2, e3], reverse=True)


def brute_force_makespan(jobs, gpu_count: int, allowed_widths) -> float:
    """Minimum makespan by exhaustive enumeration, no pruning.

    Enumerates every placement sequence in non-decreasing start order where
    each start is 0 or the end of an already-placed job (the same semi-active
    space exact_schedule searches, spelled out naively).
    """
    n = len(jobs)
    options = []
    for job in jobs:
        opts = sorted(w for w in allowed_widths if w in job.speedup)
        assert opts, f"{job.name} cannot run at any allowed width"
        options.append(opts)
    placed: list[tuple[int, float, float]] = []  # (width, start, end)
    best = [math.inf]

    def capacity_ok(s: float, e: float, w: int) -> bool:
        # usage only rises at a start, so its peak over [s, e) is at s or at
        # a placed start inside (s, e).  One pass over placed counts the
        # usage at s and collects those starts; each gets a pass of its own.
        used = w
        inside = []
        for pw, ps, pe in placed:
            if ps <= s < pe:
                used += pw
            elif s < ps < e:
                inside.append(ps)
        if used > gpu_count:
            return False
        for t in inside:
            if w + sum([pw for (pw, ps, pe) in placed if ps <= t < pe]) > gpu_count:
                return False
        return True

    def rec(remaining: frozenset, last_start: float, latest_end: float):
        if not remaining:
            best[0] = min(best[0], latest_end)
            return
        starts = sorted({0.0} | {e for (_, _, e) in placed})
        for j in remaining:
            for w in options[j]:
                rt = jobs[j].t1_minutes / jobs[j].speedup[w]
                for s in starts:
                    if s < last_start:
                        continue
                    e = s + rt
                    if not capacity_ok(s, e, w):
                        continue
                    placed.append((w, s, e))
                    rec(remaining - {j}, s, e if e > latest_end else latest_end)
                    placed.pop()

    rec(frozenset(range(n)), 0.0, 0.0)
    return best[0]


def free_list_schedule(jobs, widths, gpu_count: int) -> Schedule:
    """Greedy list schedule that keeps the free GPU ids in a sorted list.

    Whenever GPUs free up (and at t=0) every unstarted job whose width fits
    starts, in priority order, on the lowest free ids; the ids of every
    running job with the least end go back to the list, which is then
    re-sorted.  That includes a job whose end rounded to its start.
    """
    pending = [(job, widths[job.name]) for job in jobs]
    free = list(range(gpu_count))
    placements = []
    running = []
    started = [False] * len(pending)
    t = 0.0
    while not all(started):
        for i, (job, w) in enumerate(pending):
            if not started[i] and w <= len(free):
                ids = tuple(free[:w])
                del free[:w]
                rt = job.t1_minutes / job.speedup[w]
                placements.append(Placement(job.name, w, ids, t, t + rt))
                running.append(placements[-1])
                started[i] = True
        if all(started):
            break
        t = min(p.end for p in running)
        for p in running:
            if p.end == t:
                free.extend(p.gpu_ids)
        running = [p for p in running if p.end != t]
        free.sort()
    return Schedule(tuple(placements), max((p.end for p in placements), default=0.0))


def list_start_sets(order, ws, rts, gpu_count: int):
    """``(makespan, start sets)`` of the greedy list schedule of ``order``.

    Jobs are indices into ``ws``/``rts``.  The simulation is
    ``list_schedule``'s without GPU ids: start every fitting job in priority
    order, then advance to the earliest end and release every job ending
    there.  Each pass records the jobs it started, in ascending index, as one
    start set: a job whose end rounds to its start gives two passes at one
    time, each with its own set.
    """
    waiting = order
    running: list[tuple[float, int]] = []
    free = gpu_count
    t = 0.0
    makespan = 0.0
    sets = []
    while True:
        blocked = []
        started = []
        for j in waiting:
            w = ws[j]
            if w <= free:
                free -= w
                e = t + rts[j]
                running.append((e, w))
                started.append(j)
                if e > makespan:
                    makespan = e
            else:
                blocked.append(j)
        sets.append(tuple(sorted(started)))
        if not blocked:
            return makespan, tuple(sets)
        # every width fits an idle cluster, so something is running
        waiting = blocked
        t = min(e for e, _ in running)
        still = []
        for e, w in running:
            if e == t:
                free += w
            else:
                still.append((e, w))
        running = still


def best_list_makespan(
    runtimes: list[tuple[float, ...]],
    widths: list[tuple[int, ...]],
    gpu_count: int,
) -> tuple[float, int, tuple[int, ...]]:
    """Least greedy-list makespan over every (width vector, priority order).

    ``widths[c]``/``runtimes[c]`` give each job's width and runtime in width
    vector ``c``; every priority order of each is simulated
    (``list_start_sets``).  Returns ``(makespan, combo, order)``: the first
    width vector in enumeration order to reach the least makespan and,
    within it, the list schedule whose sequence of start sets is
    lexicographically least, named by the order that lists those sets' jobs
    set after set.  ``(inf, -1, ())`` when every makespan overflows.
    """
    best = (math.inf, -1, ())
    for c, (rts, ws) in enumerate(zip(runtimes, widths)):
        for order in itertools.permutations(range(len(ws))):
            makespan, sets = list_start_sets(order, ws, rts, gpu_count)
            best = min(best, (makespan, c, sets))
    makespan, c, sets = best
    return makespan, c, tuple(j for s in sets for j in s)


def check_schedule(schedule, gpu_count: int, jobs) -> None:
    """Assert schedule validity from first principles."""
    names = [p.job for p in schedule.placements]
    assert sorted(names) == sorted(j.name for j in jobs), "job set mismatch"
    assert len(set(names)) == len(names), "job placed twice"
    for p in schedule.placements:
        assert len(p.gpu_ids) == p.width == len(set(p.gpu_ids))
        assert all(0 <= g < gpu_count for g in p.gpu_ids)
        assert p.end > p.start
    for a_i, a in enumerate(schedule.placements):
        for b in schedule.placements[a_i + 1:]:
            if set(a.gpu_ids) & set(b.gpu_ids):
                assert a.end <= b.start or b.end <= a.start, (
                    f"{a.job} and {b.job} overlap on a GPU"
                )
    expected = max((p.end for p in schedule.placements), default=0.0)
    assert schedule.makespan == expected


def agglomerate_merges(dist, linkage: str) -> list[tuple[int, int, float, int]]:
    """Merges (left id, right id, height, size) of bottom-up clustering.

    Reads only the upper triangle of ``dist``.  Each step scans every live
    pair with ``min``; ties go to the smallest (min id, max id).  The
    Lance-Williams update is done on Python floats.
    """
    n = len(dist)
    sizes = {i: 1 for i in range(n)}
    pair_dist = {(i, j): float(dist[i][j]) for i in range(n - 1) for j in range(i + 1, n)}
    merges = []
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
        merges.append((a, b, height, new_size))
    return merges


def jacobi_sweeps_on_arrays(a, v, threshold, max_sweeps):
    """Cyclic Jacobi sweeps on numpy arrays, indexed one scalar at a time.

    The same rotations, in the same order, as ``stats._jacobi_sweeps``, which
    runs them on nested lists of Python floats.  ``a`` is overwritten toward
    diagonal and ``v`` accumulates the rotations.  Returns ``(converged,
    off_norm, sweeps)``.
    """
    n = a.shape[0]
    sweeps = 0
    while True:
        off2 = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off2 += 2.0 * a[i, j] * a[i, j]
        off = math.sqrt(off2)
        if off <= threshold:
            return 1, off, sweeps
        if sweeps >= max_sweeps:
            return 0, off, sweeps
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)
                elif theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                tau = s / (1.0 + c)
                app = a[p, p]
                aqq = a[q, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        akp = a[k, p]
                        akq = a[k, q]
                        a[k, p] = akp - s * (akq + tau * akp)
                        a[p, k] = a[k, p]
                        a[k, q] = akq + s * (akp - tau * akq)
                        a[q, k] = a[k, q]
                for k in range(n):
                    vkp = v[k, p]
                    vkq = v[k, q]
                    v[k, p] = vkp - s * (vkq + tau * vkp)
                    v[k, q] = vkq + s * (vkp - tau * vkq)


def jacobi_eigen_on_arrays(sym):
    """``stats.jacobi_eigen`` on a valid symmetric matrix, with the sweeps
    run by ``jacobi_sweeps_on_arrays``: same tolerance, sweep cap and order."""
    a = np.asarray(sym, dtype=np.float64)
    a = (a + a.T) * 0.5
    v = np.eye(a.shape[0])
    threshold = 1e-12 * float(np.sqrt((a * a).sum()))
    converged, _, _ = jacobi_sweeps_on_arrays(a, v, threshold, 100)
    assert converged
    eigenvalues = np.diag(a).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]
