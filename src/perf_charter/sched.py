"""Moldable-job scheduling on P identical GPUs.

Five schedulers over the same Job/ClusterSpec inputs:

  naive_schedule       every job one after another at the widest allowed width
  list_schedule        event-driven greedy placement for a given priority
                       order and width assignment
  heuristic_schedule   the list schedule of the longest jobs first, each at
                       its fastest width
  permutation_search   minimum-makespan list schedule over all width vectors
                       x priority permutations (the measured-scalability search);
                       skips width vectors whose lower bound cannot beat the
                       best so far and searches each other one depth first
                       over the sets of jobs that start together, meeting
                       each distinct list schedule once
  exact_schedule       branch-and-bound over semi-active schedules, each job
                       at its earliest feasible start; may insert deliberate
                       idle gaps, returns the provably minimal makespan

``list_schedule`` is the one list simulation.  The permutation search does
its float operations and emits the priority order its own search path
reaches, which ``list_schedule`` rebuilds.  Jobs are moldable (width
fixed at launch) and non-preemptive; no interpolation between measured
widths.  GPU identity never affects makespans; every scheduler decides
widths and start times only and hands them to ``_placed``, the one GPU-id
rule: each job takes the lowest-numbered GPUs that no earlier-starting job
holds over its interval.
Every scheduler is plain, single-threaded Python, so a result depends on its
inputs alone.  The two searches share one job limit, ``_JOB_LIMIT``, and one
work budget, ``_SEARCH_BUDGET``: the list search counts the width vectors it
visits plus its start-set nodes, ``exact_schedule`` its ``dfs`` calls, and
either raises ``SearchSpaceTooLarge`` once its count passes the budget.  The
count does not depend on the machine, so neither does the refusal.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, NamedTuple, Sequence

from .errors import AnalysisError, SearchSpaceTooLarge
from .model import Job, _checked_make


# exact_schedule's deadline-aware bound and _best_list_makespan's width-vector
# bound prune only what cannot beat the incumbent by more than this relative
# margin
_BOUND_MARGIN = 1.0 + 1e-9

# both searches refuse more jobs than this: the list search's per-mask
# tables hold 2^n entries whatever the pruning
_JOB_LIMIT = 10

# the work either search may do: width vectors plus start-set nodes for the
# list search, dfs calls for exact_schedule.  A count, not a clock, so a
# refusal does not depend on the machine
_SEARCH_BUDGET = 4_000_000


class ClusterSpec(NamedTuple(
    "ClusterSpec", [("gpu_count", int), ("allowed_widths", tuple[int, ...])]
)):
    """P identical GPUs and the width menu jobs may be launched at.

    ``allowed_widths`` is normalised to ascending distinct widths with 1;
    empty means the powers of two up to ``gpu_count``.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, gpu_count: int, allowed_widths: tuple[int, ...] = ()):
        if not (isinstance(gpu_count, int) and gpu_count >= 1):
            raise ValueError(f"gpu_count must be a positive int, got {gpu_count!r}")
        widths = allowed_widths or [1 << k for k in range(gpu_count.bit_length())]
        widths = sorted(set(int(w) for w in widths) | {1})
        if widths[0] < 1:
            raise ValueError("widths must be >= 1")
        if widths[-1] > gpu_count:
            raise ValueError(f"width {widths[-1]} exceeds gpu_count {gpu_count}")
        return tuple.__new__(cls, (gpu_count, tuple(widths)))

    @property
    def max_width(self) -> int:
        return self.allowed_widths[-1]


class Placement(NamedTuple):
    job: str
    width: int
    gpu_ids: tuple[int, ...]
    start: float
    end: float


class Schedule(NamedTuple):
    placements: tuple[Placement, ...]
    makespan: float


def runtime(job: Job, width: int) -> float:
    """Minutes at the given width; only measured widths are schedulable."""
    if width not in job.speedup:
        raise AnalysisError(f"{job.name} has no speedup for width {width}")
    return job.t1_minutes / job.speedup[width]


def _width_options(job: Job, cluster: ClusterSpec) -> list[int]:
    options = sorted(w for w in cluster.allowed_widths if w in job.speedup)
    if not options:
        raise AnalysisError(
            f"{job.name} supports none of the allowed widths {cluster.allowed_widths}"
        )
    return options


def _placed(rows: list[tuple[str, int, float, float]], gpu_count: int) -> Schedule:
    """The schedule of ``(job, width, start, end)`` rows given in start order.

    Each row takes the lowest-numbered GPUs that no earlier row holds over
    its interval; the makespan is the latest end.  Every caller passes finite
    ends.
    """
    placements: list[Placement] = []
    for job, w, s, e in rows:
        used = {g for p in placements if p.start < e and s < p.end for g in p.gpu_ids}
        ids = tuple(g for g in range(gpu_count) if g not in used)[:w]
        if len(ids) < w:
            raise AnalysisError("id assignment exceeded capacity")
        placements.append(Placement(job, w, ids, s, e))
    return Schedule(tuple(placements), max((p.end for p in placements), default=0.0))


def naive_schedule(jobs: list[Job], cluster: ClusterSpec) -> Schedule:
    """Baseline: each job at the widest width, in turn (the list schedule on wmax GPUs)."""
    wmax = cluster.max_width
    return list_schedule(jobs, {job.name: wmax for job in jobs}, ClusterSpec(wmax, (wmax,)))


def list_schedule(
    jobs: list[Job], widths: dict[str, int], cluster: ClusterSpec
) -> Schedule:
    """Greedy event-driven placement.

    Whenever GPUs free up (and at t=0) every waiting job that fits starts,
    in priority order; then time advances to the earliest end and releases
    every job ending there, also one whose end rounded to its start.  An
    end that overflows a float is an AnalysisError.
    """
    ws, rts = [], []
    for job in jobs:
        if job.name not in widths:
            raise AnalysisError(f"no width assigned for {job.name}")
        w = widths[job.name]
        if w not in cluster.allowed_widths:
            raise AnalysisError(f"width {w} not in allowed widths for {job.name}")
        ws.append(w)
        rts.append(runtime(job, w))
    rows = []  # (job, width, start, end) in start order
    waiting = range(len(jobs))
    running: list[tuple[float, int]] = []
    free = cluster.gpu_count
    t = 0.0
    while True:
        blocked = []
        for j in waiting:
            w = ws[j]
            if w <= free:
                e = t + rts[j]
                if e == math.inf:
                    raise AnalysisError("a job's end time overflows a float")
                free -= w
                running.append((e, w))
                rows.append((jobs[j].name, w, t, e))
            else:
                blocked.append(j)
        if not blocked:
            return _placed(rows, cluster.gpu_count)
        # every width fits an idle cluster, so something is running
        waiting = blocked
        t = min(running)[0]
        still = []
        for run in running:
            if run[0] == t:
                free += run[1]
            else:
                still.append(run)
        running = still


def heuristic_schedule(jobs: list[Job], cluster: ClusterSpec) -> Schedule:
    """Longest-processing-time list schedule at each job's fastest width."""
    widths = {
        job.name: min(_width_options(job, cluster), key=lambda w: (runtime(job, w), w))
        for job in jobs
    }
    ordered = sorted(jobs, key=lambda j: (-runtime(j, widths[j.name]), j.name))
    return list_schedule(ordered, widths, cluster)


def _over_budget(work: str) -> SearchSpaceTooLarge:
    """The refusal of a search whose ``work`` passed ``_SEARCH_BUDGET``."""
    return SearchSpaceTooLarge(f"{work} > search budget {_SEARCH_BUDGET}")


def _mask_members(n: int) -> list[tuple[int, ...]]:
    """Per mask of ``n`` jobs, its jobs in ascending index; job j is bit
    n - 1 - j.  It depends on the job count alone, so one table serves every
    width vector of a search."""
    members: list[tuple[int, ...]] = [()]
    for j in reversed(range(n)):
        members += [(j,) + js for js in members]
    return members


def _least_list_makespan(
    ws: Sequence[int],
    rts: Sequence[float],
    gpu_count: int,
    best: float,
    members: Sequence[tuple[int, ...]],
    budget: float = math.inf,
) -> tuple[float, tuple[int, ...], int]:
    """Least greedy-list makespan over every priority order, if below ``best``.

    Returns ``(makespan, order, nodes)``; the makespan is ``best`` itself
    and the order empty when no order beats it.  At each event a list
    schedule starts a set of waiting jobs that fit, after which no waiting
    job fits: a maximal start set.  Conversely, any sequence of maximal
    start sets is the list schedule of the order that lists each event's
    set before the next one's.  So a depth-first search over maximal start
    sets meets every list schedule once, where the orders meet it once per
    order that yields it (the parallel schedule-generation scheme; Kolisch,
    EJOR 1996).  Each event's sets are visited in ascending order of their
    job-index tuples, so the first schedule to reach the least makespan has
    the lexicographically least sequence of start sets among those that
    reach it.  Each stack entry carries its chain of start sets, and the
    winner's order lists each set's jobs in ascending index, set after set.
    Each event visited is one node.  The float operations are
    ``list_schedule``'s: a job starts at the event time ``t`` and ends at
    ``t + rts[j]``, and the next event is the least running end, which
    releases every job ending then, also one whose end rounded to its
    start.  An event is abandoned once an end so far reaches ``best``, or
    once a waiting job, which starts at ``t`` or later, would.  Jobs are
    the bits of a mask, and ``members`` is ``_mask_members(len(ws))``.
    Visiting more than ``budget`` nodes raises ``SearchSpaceTooLarge``.
    """
    # per mask: its jobs' width, least width (P + 1 if none) and longest
    # runtime.  Job j is bit n - 1 - j, so of two maximal sets, which never
    # contain one another, the one holding the least job in only one of them
    # has the larger mask: ascending job-index tuples are descending masks.
    wsum, minw, maxrt = [0], [gpu_count + 1], [0.0]
    for j in reversed(range(len(ws))):
        w, rt = ws[j], rts[j]
        wsum += [x + w for x in wsum]
        minw += [x if x < w else w for x in minw]
        maxrt += [x if x > rt else rt for x in maxrt]
    start_sets: dict[tuple[int, int], list[int]] = {}
    best_chain: tuple = ()
    nodes = 0
    # events to visit: (time, free GPUs, running (end, width), waiting,
    # makespan, chain); a chain is () or (start set, the chain before it)
    stack = [(0.0, gpu_count, [], len(wsum) - 1, 0.0, ())]
    while stack:
        t, free, running, waiting, makespan, chain = stack.pop()
        if makespan >= best or t + maxrt[waiting] >= best:
            continue  # the incumbent fell after this event was pushed
        nodes += 1
        if nodes > budget:
            raise _over_budget("width vectors + start-set nodes")
        sets = start_sets.get((waiting, free))
        if sets is None:
            # listed in ascending mask order and pushed in turn, so popped in
            # ascending order of their job-index tuples
            sets = start_sets[waiting, free] = _maximal_sets(waiting, free, wsum, minw)
        for sub in sets:
            # m < best: rts[j] <= maxrt[waiting], and best falls only at a leaf
            m = makespan
            new = running.copy()
            for j in members[sub]:
                e = t + rts[j]
                new.append((e, ws[j]))
                if e > m:
                    m = e
            rest = waiting ^ sub
            if not rest:
                # all waiting jobs fit, so this set is the event's only one
                best, best_chain = m, (sub, chain)
                continue
            # every width fits an idle cluster, so something is running
            t_next = min(new)[0]
            if t_next + maxrt[rest] >= best:
                continue
            f = free - wsum[sub]
            still = []
            for run in new:
                if run[0] == t_next:
                    f += run[1]
                else:
                    still.append(run)
            stack.append((t_next, f, still, rest, m, (sub, chain)))
    order: tuple[int, ...] = ()
    while best_chain:
        sub, best_chain = best_chain
        order = members[sub] + order
    return best, order, nodes


def _maximal_sets(waiting: int, free: int, wsum: list[int], minw: list[int]) -> list[int]:
    """Each subset of ``waiting`` whose jobs fit in ``free`` GPUs and leave
    too few for any other waiting job, as a mask, in ascending order."""
    sets = []
    sub = 0
    while True:
        used = wsum[sub]
        if used <= free and minw[waiting ^ sub] > free - used:
            sets.append(sub)
        if sub == waiting:
            return sets
        sub = (sub - waiting) & waiting


def _best_list_makespan(
    runtimes: Iterable[Sequence[float]],
    widths: Iterable[Sequence[int]],
    gpu_count: int,
) -> tuple[float, int, tuple[int, ...], int, int]:
    """Least greedy-list makespan over every (width vector, priority order).

    The ``c``-th items of ``widths`` and ``runtimes`` give each job's width
    and runtime in width vector ``c``; both are read once, in step.  Returns
    ``(makespan, combo, order, searched, nodes)``: the winner, the number of
    width vectors searched and the search nodes they took; ``(inf, -1, (),
    ...)`` when every makespan overflows.  A width vector is skipped when no
    list schedule of it can beat the incumbent: none ends before its longest
    job, nor before its GPU time spread over every GPU.  The margin keeps
    the rounding of that sum from skipping a vector that could still win.
    Any other vector is searched over its maximal start sets
    (``_least_list_makespan``) and becomes the incumbent only if it beats
    it.  So ties resolve to the first width vector to reach the least
    makespan, and within it to the list schedule whose sequence of start
    sets is lexicographically least, each set read as its ascending job
    indices.  The order lists those sets' jobs set after set.  Each width
    vector visited and each search node is one step of work; more than
    ``_SEARCH_BUDGET`` steps raise ``SearchSpaceTooLarge``.
    """
    best_m, best_c, best_order = math.inf, -1, ()
    searched = nodes = 0
    members = None
    for c, (rts, ws) in enumerate(zip(runtimes, widths)):
        left = _SEARCH_BUDGET - (c + 1) - nodes
        if left < 0:
            raise _over_budget("width vectors + start-set nodes")
        if members is None:
            members = _mask_members(len(ws))
        # area / P summed term by term stays at most the makespan, so it
        # cannot overflow while the makespan is finite
        bound = max(max(rts), sum(rt * (w / gpu_count) for rt, w in zip(rts, ws)))
        if bound >= best_m * _BOUND_MARGIN:
            continue
        searched += 1
        makespan, order, visited = _least_list_makespan(
            ws, rts, gpu_count, best_m, members, left
        )
        nodes += visited
        if makespan < best_m:
            best_m, best_c, best_order = makespan, c, order
    return best_m, best_c, best_order, searched, nodes


def permutation_search(jobs: list[Job], cluster: ClusterSpec) -> tuple[Schedule, int]:
    """Exhaustive search over (width vector) x (priority permutation).

    The space holds prod|options| * n! candidates; the returned count is that
    size, not the work done.  More than ``_JOB_LIMIT`` jobs, or more width
    vectors than ``_SEARCH_BUDGET``, are refused before any is built, and
    the search itself stops once its work passes that budget
    (``SearchSpaceTooLarge`` each time).  The width vectors and their
    runtimes are streamed, never listed.  ``_best_list_makespan`` skips
    each width vector whose lower bound cannot beat the best makespan so
    far and searches each other one over its maximal start sets, meeting
    each distinct list schedule once instead of once per order; neither
    changes the least makespan.  Ties resolve to
    the first width vector in ``itertools.product`` order to reach it, and
    within it to the list schedule whose sequence of start sets, each read
    as its ascending job indices, is lexicographically least.  That
    schedule is rebuilt with ``list_schedule`` from the order that lists
    each set's jobs in ascending index, set after set, and must agree on
    the makespan.  An AnalysisError when every candidate's end overflows a
    float.
    """
    n = len(jobs)
    if n > _JOB_LIMIT:
        raise SearchSpaceTooLarge(f"{n} jobs > limit {_JOB_LIMIT}")
    if n == 0:
        return Schedule((), 0.0), 1
    options = [_width_options(job, cluster) for job in jobs]
    vectors = math.prod(len(o) for o in options)
    if vectors > _SEARCH_BUDGET:
        raise _over_budget(f"{vectors} width vectors")
    runtimes = [[runtime(job, w) for w in o] for job, o in zip(jobs, options)]
    best_m, best_c, order, _, _ = _best_list_makespan(
        itertools.product(*runtimes), itertools.product(*options), cluster.gpu_count
    )
    if best_c < 0:
        raise AnalysisError("a job's end time overflows a float")
    # the winner's widths are the mixed-radix digits of its index, the last
    # job's the fastest-varying, as itertools.product runs
    digits = []
    for o in reversed(options):
        best_c, digit = divmod(best_c, len(o))
        digits.append(o[digit])
    width_map = {job.name: w for job, w in zip(jobs, reversed(digits))}
    schedule = list_schedule([jobs[j] for j in order], width_map, cluster)
    if schedule.makespan != best_m:
        raise AnalysisError("search kernel and placement engine disagree")
    return schedule, math.factorial(n) * vectors


def exact_schedule(jobs: list[Job], cluster: ClusterSpec) -> Schedule:
    """Provably minimal makespan via branch-and-bound.

    Branches over (job, width) in chronological order of start: each goes at
    its earliest feasible start at or after the last start, which is that
    start or the end of a placed job.  Jobs that start at the same instant are
    placed in index order.  These left-shifted schedules contain an optimum
    (the left-shift dominance rule of Demeulemeester & Herroelen, 1992).  A
    node's state is ``live``: (width, end) of the placed jobs that end after
    its last start.  Usage only falls after the last start, so the starts
    where a width fits form a suffix; each node finds every width's first
    fit once, and every child at that width starts there.  Placing more
    jobs only adds usage, so no job below the node starts at a width before
    that width's first fit.
    Each child must end before the incumbent and pass two area bounds: the
    work committed after its start plus the remaining jobs' least area fits
    on P GPUs before the incumbent; and, deadline-aware, each remaining job
    has a width that ends before it when started at the later of the
    child's start and that width's first fit, and their least such areas
    fit too.  That deadline data is computed per candidate start on first
    use, with the incumbent current at that moment, and reused by the
    node's later children at that start.  The all-jobs area bound and the
    longest-job bound are checked only at the root: below it, the first
    child bound is that area bound taken at the child's start, and a job
    that cannot end in time makes the second one infinite.  The search is
    seeded with the heuristic schedule; among equal optima it returns the
    first strict improvement in search order, or the seed if nothing beats
    it.  The strictness comes from the child prunes (``e >= best_m`` and the
    two area bounds), not the leaf: every leaf they let through ends below
    the incumbent.  More than ``_JOB_LIMIT`` jobs, or more than
    ``_SEARCH_BUDGET`` calls of the search, raise ``SearchSpaceTooLarge``.
    """
    n = len(jobs)
    if n > _JOB_LIMIT:
        raise SearchSpaceTooLarge(f"{n} jobs > limit {_JOB_LIMIT}")
    if n == 0:
        return Schedule((), 0.0)
    p_total = cluster.gpu_count
    rt_tab = [{w: runtime(job, w) for w in _width_options(job, cluster)} for job in jobs]
    # per job, (runtime, width, area) of every branch width, fastest first; a
    # wider-but-not-faster width is dominated for makespan: the narrower,
    # faster placement fits wherever the wide one did
    branches = [
        sorted(
            (rt, w, w * rt)
            for w, rt in tab.items()
            if not any(w2 < w and rt2 <= rt for w2, rt2 in tab.items())
        )
        for tab in rt_tab
    ]
    min_rt = [options[0][0] for options in branches]
    min_area = [min(area for _, _, area in options) for options in branches]
    widths = sorted({w for options in branches for _, w, _ in options})

    seed = heuristic_schedule(jobs, cluster)
    idx_of = {job.name: j for j, job in enumerate(jobs)}
    # identical jobs are interchangeable: place them in index order, so a job
    # waits for its nearest identical predecessor only.  Width 1 is in every
    # menu at runtime t1_minutes, so equal runtime tables mean identical jobs
    prev_twin = [
        max((j2 for j2 in range(j) if rt_tab[j2] == rt_tab[j]), default=-1)
        for j in range(n)
    ]

    best_m = seed.makespan
    best_pl = [(idx_of[p.job], p.width, p.start, p.end) for p in seed.placements]
    placed: list[tuple[int, int, float, float]] = []
    remaining = set(range(n))
    # branch longest jobs first: good schedules appear early, tight pruning
    branch_order = sorted(range(n), key=lambda j: (-min_rt[j], j))
    calls = 0

    def dfs(cur_m: float, last_s: float, last_j: int, rem_area: float, live: list):
        nonlocal best_m, best_pl, calls
        calls += 1
        if calls > _SEARCH_BUDGET:
            raise _over_budget("branch-and-bound nodes")
        if not remaining:
            # a child is entered only with cur_m < best_m: a leaf always improves
            best_m = cur_m
            best_pl = placed.copy()
            return
        # per candidate start s: GPUs busy at s and work committed beyond s.
        # Every placed job starts at or before last_s <= s, so usage only
        # falls after s: a job fits if it fits at its start instant.  The
        # slot's deadline data is filled in when a child first reaches the
        # deadline-aware bound there, then kept for the node's later children.
        slots = []
        for s in sorted({last_s, *(pe for _, pe in live)}):
            busy = 0
            overhang = 0.0
            for pw, pe in live:
                if pe > s:
                    busy += pw
                    overhang += pw * (pe - s)
            slots.append([s, busy, overhang, None])
        # each width's first-fit slot, the earliest start where w GPUs are
        # free: busy falls from slot to slot, so a wider width's is no
        # earlier, and the last slot has nothing running, so every width
        # fits.  A later start is dominated: shifting the job left keeps
        # every GPU within capacity and no end grows.
        fit = {}
        i = 0
        for w in widths:
            while slots[i][1] + w > p_total:
                i += 1
            fit[w] = slots[i]
        for j in branch_order:
            if j not in remaining or prev_twin[j] in remaining:
                continue
            rem_after = rem_area - min_area[j]
            for rt, w, j_area in branches[j]:
                slot = fit[w]
                s, _, overhang, deadline = slot
                if s == last_s and j < last_j:
                    continue  # reached with j placed before last_j instead
                e = s + rt
                if e >= best_m:
                    continue
                # child's own tail-area bound, before paying for recursion
                if s + (rem_after + overhang + j_area) / p_total >= best_m:
                    continue
                # the deadline-aware bound, with a margin far above
                # rounding: one schedule can reach makespans a last bit
                # apart by different paths, and this bound must not
                # decide which of them is found first.  least[j] is
                # finite here: this width starts at its first fit and
                # ends before best_m, which is at most the incumbent the
                # slot's data was built with.
                if deadline is None:
                    # least[k]: job k's least area among the widths that end
                    # before the current incumbent when started at
                    # max(s, that width's first fit), the earliest start it
                    # can have below the node (infinite if none does); need
                    # is their sum.  Rounding is monotone, so max(s, f) + rt
                    # is the larger of s + rt and f + rt: each is tested on
                    # its own, as the child's end is.
                    least = [0.0] * n
                    need = 0.0
                    for k in remaining:
                        least_k = math.inf
                        for k_rt, k_w, k_area in branches[k]:
                            if s + k_rt >= best_m:
                                break
                            if k_area < least_k and fit[k_w][0] + k_rt < best_m:
                                least_k = k_area
                        least[k] = least_k
                        need += least_k
                    deadline = slot[3] = need, least
                need, least = deadline
                if overhang + j_area + (need - least[j]) >= p_total * (
                    best_m * _BOUND_MARGIN - s
                ):
                    continue
                placed.append((j, w, s, e))
                remaining.remove(j)
                dfs(e if e > cur_m else cur_m, s, j, rem_after,
                    [r for r in live if r[1] > s] + [(w, e)])
                remaining.add(j)
                placed.pop()
                if cur_m >= best_m:
                    return  # no child can end before best_m any more

    area = sum(min_area)
    if area / p_total < best_m and max(min_rt) < best_m:
        dfs(0.0, 0.0, -1, area, [])
    best_pl.sort(key=lambda r: (r[2], r[0]))
    return _placed([(jobs[j].name, w, s, e) for (j, w, s, e) in best_pl], p_total)


def savings(naive: Schedule, best: Schedule) -> float:
    """Makespan saved by the better schedule, in minutes."""
    naive_jobs = sorted(p.job for p in naive.placements)
    best_jobs = sorted(p.job for p in best.placements)
    if naive_jobs != best_jobs:
        raise AnalysisError("schedules cover different job sets")
    return naive.makespan - best.makespan


def validate_schedule(
    schedule: Schedule, cluster: ClusterSpec, jobs: list[Job] | None = None
) -> bool:
    """Independent checks: each job once, no GPU double-booked, makespan = max end."""
    names = [p.job for p in schedule.placements]
    if len(set(names)) != len(names):
        raise AnalysisError("a job appears more than once")
    if jobs is not None and set(names) != {j.name for j in jobs}:
        raise AnalysisError("schedule does not cover the job set")
    per_gpu: dict[int, list[tuple[float, float, str]]] = {}
    for p in schedule.placements:
        if len(p.gpu_ids) != p.width or len(set(p.gpu_ids)) != p.width:
            raise AnalysisError(f"{p.job}: gpu_ids do not match width")
        if not all(0 <= g < cluster.gpu_count for g in p.gpu_ids):
            raise AnalysisError(f"{p.job}: gpu id out of range")
        if not p.end > p.start:
            raise AnalysisError(f"{p.job}: empty execution interval")
        for g in p.gpu_ids:
            per_gpu.setdefault(g, []).append((p.start, p.end, p.job))
    for g, intervals in per_gpu.items():
        intervals.sort()
        for (s1, e1, j1), (s2, e2, j2) in zip(intervals, intervals[1:]):
            if s2 < e1:
                raise AnalysisError(f"GPU {g}: {j1} and {j2} overlap")
    expected = max((p.end for p in schedule.placements), default=0.0)
    if schedule.makespan != expected:
        raise AnalysisError("makespan is not the latest end time")
    return True


_GANTT_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


def ascii_gantt(schedule: Schedule, gpu_count: int) -> str:
    """Fixed-width timeline per GPU, one letter per job."""
    if not schedule.placements:
        return "(empty schedule)\n"
    columns = 64
    span = schedule.makespan
    letters: dict[str, str] = {}
    for p in schedule.placements:
        if p.job not in letters:
            letters[p.job] = _GANTT_CHARS[len(letters) % len(_GANTT_CHARS)]
    rows = {g: ["."] * columns for g in range(gpu_count)}
    for p in schedule.placements:
        lo = int(p.start / span * columns)
        hi = max(lo + 1, int(math.ceil(p.end / span * columns)))
        for g in p.gpu_ids:
            for c in range(lo, min(hi, columns)):
                rows[g][c] = letters[p.job]
    lines = [f"gpu {g:>2} |{''.join(rows[g])}|" for g in range(gpu_count)]
    lines.append(f"        0{'':{columns - 10}}{span:.6g} min")
    for job, letter in letters.items():
        placement = next(p for p in schedule.placements if p.job == job)
        lines.append(
            f"  {letter} = {job} (width {placement.width}, "
            f"{placement.start:.6g}..{placement.end:.6g})"
        )
    return "\n".join(lines) + "\n"
