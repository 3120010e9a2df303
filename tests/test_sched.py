import itertools
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perf_charter as pc
from perf_charter import sched
from perf_charter.errors import AnalysisError, SearchSpaceTooLarge

from oracle_helpers import (
    best_list_makespan,
    brute_force_makespan,
    check_schedule,
    free_list_schedule,
    list_start_sets,
)


def _job(name, t1, speedup):
    return pc.Job(name, t1, speedup)


@pytest.fixture(scope="module")
def p4(sample_jobs):
    return pc.ClusterSpec(4)


# --- runtime / efficiency -------------------------------------------------------

def test_runtime_table_rows(sample_jobs):
    res50 = sample_jobs[0]
    assert pc.runtime(res50, 4) == pytest.approx(264.82, abs=0.01)
    assert pc.runtime(res50, 1) == res50.t1_minutes
    ncf = sample_jobs[-1]
    assert pc.runtime(ncf, 8) == pytest.approx(0.948, abs=0.001)
    with pytest.raises(AnalysisError, match="^Res50_TF has no speedup for width 3$"):
        pc.runtime(res50, 3)


def test_scaling_efficiency_rows(sample_jobs):
    res50, ncf = sample_jobs[0], sample_jobs[-1]
    assert res50.speedup[8] / 8 == pytest.approx(0.88)
    assert res50.speedup[1] / 1 == 1.0
    assert ncf.speedup[8] / 8 == pytest.approx(0.29)


# --- naive ------------------------------------------------------------------------

def test_naive_six_job_p4(sample_jobs, p4):
    schedule = pc.naive_schedule(sample_jobs, p4)
    assert schedule.makespan == pytest.approx(1490.7, abs=0.5)
    check_schedule(schedule, 4, sample_jobs)
    assert all(p.width == 4 for p in schedule.placements)


def test_naive_single_and_empty(sample_jobs, p4):
    one = pc.naive_schedule(sample_jobs[:1], p4)
    assert one.makespan == pc.runtime(sample_jobs[0], 4)
    empty = pc.naive_schedule([], p4)
    assert empty.makespan == 0.0
    assert empty.placements == ()


def test_naive_unsupported_width():
    job = _job("narrow", 10.0, {2: 1.5})
    with pytest.raises(AnalysisError, match="^narrow has no speedup for width 4$"):
        pc.naive_schedule([job], pc.ClusterSpec(4))


# --- list_schedule ------------------------------------------------------------------

def test_list_schedule_two_singles_in_parallel():
    jobs = [_job("A", 100.0, {}), _job("B", 100.0, {})]
    schedule = pc.list_schedule(jobs, {"A": 1, "B": 1}, pc.ClusterSpec(2))
    assert schedule.makespan == 100.0
    assert all(p.start == 0.0 for p in schedule.placements)


def test_list_schedule_two_wides_sequential():
    jobs = [_job("A", 100.0, {2: 2.0}), _job("B", 100.0, {2: 2.0})]
    schedule = pc.list_schedule(jobs, {"A": 2, "B": 2}, pc.ClusterSpec(2))
    assert schedule.makespan == 100.0  # 50 + 50
    starts = sorted(p.start for p in schedule.placements)
    assert starts == [0.0, 50.0]


def test_list_schedule_hand_simulation():
    # A(width 2, t=10), B(width 1, t=30), C(width 1, t=5), priority A,B,C, P=2
    jobs = [
        _job("A", 10.0, {2: 1.0}),
        _job("B", 30.0, {}),
        _job("C", 5.0, {}),
    ]
    schedule = pc.list_schedule(jobs, {"A": 2, "B": 1, "C": 1}, pc.ClusterSpec(2))
    spans = {p.job: (p.start, p.end) for p in schedule.placements}
    assert spans == {"A": (0.0, 10.0), "B": (10.0, 40.0), "C": (10.0, 15.0)}
    ids = {p.job: p.gpu_ids for p in schedule.placements}
    assert ids == {"A": (0, 1), "B": (0,), "C": (1,)}
    assert schedule.makespan == 40.0
    check_schedule(schedule, 2, jobs)


# 100 + 1e-15 rounds to 100
_ROUNDING_JOBS = [_job("A", 100.0, {}), _job("tiny", 1e-15, {}), _job("B", 100.0, {})]


def test_list_schedule_releases_a_job_whose_end_rounds_to_its_start():
    # the tiny job's GPU must come back at once, or B never finds a free GPU
    jobs = _ROUNDING_JOBS
    cluster = pc.ClusterSpec(1)
    schedule = pc.list_schedule(jobs, {"A": 1, "tiny": 1, "B": 1}, cluster)
    spans = {p.job: (p.start, p.end) for p in schedule.placements}
    assert spans == {"A": (0.0, 100.0), "tiny": (100.0, 100.0), "B": (100.0, 200.0)}
    assert schedule.makespan == 200.0
    best, _ = pc.permutation_search(jobs, cluster)
    assert best == schedule


def test_list_schedule_work_conservation(sample_jobs, p4):
    # no GPU idles while an unstarted job of fitting width exists
    widths = {j.name: 1 for j in sample_jobs}
    schedule = pc.list_schedule(sample_jobs, widths, p4)
    events = sorted({p.start for p in schedule.placements} | {p.end for p in schedule.placements})
    for t in events:
        if t >= schedule.makespan:
            continue
        busy = sum(p.width for p in schedule.placements if p.start <= t < p.end)
        unstarted = [p for p in schedule.placements if p.start > t and p.width <= 4 - busy]
        assert not unstarted, f"idle capacity at t={t} with startable jobs"


# --- permutation search ----------------------------------------------------------------

def test_permutation_search_two_job_oracle():
    # exhaustive oracle over 4 width assignments x 2 permutations:
    # both at width 1 in parallel -> 100; width 2 anywhere -> >= 133.33
    jobs = [_job("X", 100.0, {2: 1.5}), _job("Y", 100.0, {2: 1.5})]
    cluster = pc.ClusterSpec(2)
    candidates = []
    for wx in (1, 2):
        for wy in (1, 2):
            for order in ([0, 1], [1, 0]):
                s = pc.list_schedule(
                    [jobs[i] for i in order], {"X": wx, "Y": wy}, cluster
                )
                candidates.append(s.makespan)
    best, explored = pc.permutation_search(jobs, cluster)
    assert explored == 8
    assert best.makespan == min(candidates) == 100.0
    assert {p.job: p.width for p in best.placements} == {"X": 1, "Y": 1}


def test_permutation_search_single_job(sample_jobs):
    best, _ = pc.permutation_search(sample_jobs[:1], pc.ClusterSpec(4))
    widths = {w: pc.runtime(sample_jobs[0], w) for w in (1, 2, 4)}
    assert best.makespan == min(widths.values())


def test_permutation_search_limit_guard(p4):
    jobs = [_job(f"j{i}", 10.0, {}) for i in range(11)]
    with pytest.raises(SearchSpaceTooLarge, match="^11 jobs > limit 10$"):
        pc.permutation_search(jobs, p4)
    # the width menu collapses to {1}, so the space is 9! and one width
    # vector, searched in 128 start-set nodes
    best, explored = pc.permutation_search(jobs[:9], p4)
    assert explored == math.factorial(9)
    assert best.makespan == pytest.approx(30.0)
    assert sched._best_list_makespan(*_kernel_inputs(jobs[:9], p4))[3:] == (1, 128)


def test_permutation_search_six_jobs_structure(sample_jobs, p4):
    from conftest import soft_note

    naive = pc.naive_schedule(sample_jobs, p4)
    best, explored = pc.permutation_search(sample_jobs, p4)
    assert explored == (3 ** 6) * math.factorial(6)
    assert best.makespan < naive.makespan
    assert best.makespan == pytest.approx(1300.2031, abs=0.01)
    check_schedule(best, 4, sample_jobs)
    widths = {p.job: p.width for p in best.placements}
    # reference 7-job optimum: MRCNN on two GPUs, both Res50 runs on singles
    matches = widths["MRCNN_Py"] == 2 and widths["Res50_TF"] == 1 and widths["Res50_MX"] == 1
    verdict = (
        "matches"
        if matches
        else "deviates: the 6-job optimum runs Res50_MX at width 4 after MRCNN_Py finishes"
    )
    soft_note(
        f"P=4 optimum widths {widths}; reference structure (MRCNN_Py=2, both Res50=1) {verdict}"
    )


def test_permutation_search_reruns_identical(sample_jobs, p4):
    baseline = pc.permutation_search(sample_jobs, p4)
    rerun = pc.permutation_search(sample_jobs, p4)
    assert rerun[0] == baseline[0]
    assert rerun[1] == baseline[1]


def _first_minimum_list_schedule(jobs, cluster):
    """list_schedule on every (width vector, priority order), keeping the
    first width vector in the search's enumeration order to reach the least
    makespan and, within it, the schedule whose sequence of start sets is
    lexicographically least."""
    options = [[w for w in cluster.allowed_widths if w in job.speedup] for job in jobs]
    best, best_key, count = None, None, 0
    for c, widths in enumerate(itertools.product(*options)):
        width_map = {job.name: w for job, w in zip(jobs, widths)}
        rts = [pc.runtime(job, w) for job, w in zip(jobs, widths)]
        for order in itertools.permutations(range(len(jobs))):
            schedule = pc.list_schedule([jobs[j] for j in order], width_map, cluster)
            makespan, sets = list_start_sets(order, widths, rts, cluster.gpu_count)
            assert makespan == schedule.makespan
            count += 1
            if best is None or (makespan, c, sets) < best_key:
                best, best_key = schedule, (makespan, c, sets)
    return best, count


# per-job width options by job count, so one instance stays under ~4k candidates
_OPTIONS_CAP = {1: 4, 2: 4, 3: 4, 4: 3, 5: 2}


@st.composite
def tie_prone_instances(draw, jitter=(0.0,)):
    # any width menu, non-powers of two included; runtimes are exact small
    # integers and jobs repeat, so many candidates share the least makespan.
    # A relative ``jitter`` on each value moves some of them a last bit or a
    # rounding margin apart instead.
    gpus = draw(st.integers(1, 8))
    cluster = pc.ClusterSpec(gpus, tuple(draw(st.sets(st.integers(1, gpus), max_size=3))))
    n = draw(st.integers(1, 5))
    wider = cluster.allowed_widths[1:]
    jobs = []
    for i in range(n):
        if jobs and draw(st.booleans()):
            twin = draw(st.sampled_from(jobs))
            jobs.append(_job(f"j{i}", twin.t1_minutes, dict(twin.speedup)))
            continue
        supported = (
            draw(st.sets(st.sampled_from(wider), max_size=_OPTIONS_CAP[n] - 1))
            if wider else set()
        )
        speedup = {
            w: draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])) * (1 + draw(st.sampled_from(jitter)))
            for w in supported
        }
        t1 = float(draw(st.sampled_from([4, 8, 12, 16]))) * (1 + draw(st.sampled_from(jitter)))
        jobs.append(_job(f"j{i}", t1, speedup))
    return jobs, cluster


@settings(max_examples=150, deadline=None)
@given(tie_prone_instances())
def test_permutation_search_equals_explicit_enumeration(instance):
    jobs, cluster = instance
    assert pc.permutation_search(jobs, cluster) == _first_minimum_list_schedule(jobs, cluster)


def _kernel_inputs(jobs, cluster):
    """``_best_list_makespan``'s arguments, built as ``permutation_search`` does."""
    combos = list(itertools.product(*(sched._width_options(j, cluster) for j in jobs)))
    runtimes = [tuple(pc.runtime(j, w) for j, w in zip(jobs, c)) for c in combos]
    return runtimes, combos, cluster.gpu_count


# relative runtime perturbations: last-bit ones, and ones on both sides of
# the width-vector bound's 1e-9 margin
_JITTER = (0.0, 2.0**-52, -(2.0**-52), 4 * 2.0**-52, 1e-10, -1e-10, 1e-9, -1e-9, 1e-8)


@settings(max_examples=300, deadline=None)
@given(st.one_of(tie_prone_instances(), tie_prone_instances(_JITTER)))
def test_pruned_kernel_equals_unpruned_oracle(instance):
    # skipped width vectors and abandoned start sets never change the
    # least makespan, its first width vector or its least start sets
    inputs = _kernel_inputs(*instance)
    assert sched._best_list_makespan(*inputs)[:3] == best_list_makespan(*inputs)


@st.composite
def release_edge_instances(draw):
    # the event rules the search must keep: a runtime below the last-bit
    # spacing of a long one (100 + 1e-15 rounds to 100, so that job ends as
    # it starts and its GPUs come back at once), twin jobs, and ends that
    # overflow to inf (1e308 + 1e308)
    gpus = draw(st.integers(1, 4))
    cluster = pc.ClusterSpec(gpus)
    n = draw(st.integers(1, 5))
    jobs = []
    for i in range(n):
        if jobs and draw(st.booleans()):
            twin = draw(st.sampled_from(jobs))
            jobs.append(_job(f"j{i}", twin.t1_minutes, dict(twin.speedup)))
            continue
        supported = draw(
            st.sets(st.sampled_from(cluster.allowed_widths[1:]), max_size=_OPTIONS_CAP[n] - 1)
            if gpus > 1 else st.just(set())
        )
        speedup = {w: draw(st.sampled_from([1.0, 2.0])) for w in supported}
        jobs.append(_job(f"j{i}", draw(st.sampled_from([1e-15, 100.0, 200.0, 1e308])), speedup))
    return jobs, cluster


@settings(max_examples=200, deadline=None)
@given(release_edge_instances())
@example((_ROUNDING_JOBS, pc.ClusterSpec(1)))
@example(([_job(f"j{i}", 1e308, {}) for i in range(3)], pc.ClusterSpec(2)))
def test_kernel_equals_unpruned_oracle_at_release_edges(instance):
    runtimes, combos, gpus = inputs = _kernel_inputs(*instance)
    assert sched._best_list_makespan(*inputs)[:3] == best_list_makespan(*inputs)
    # each width vector's own least makespan and order too, which no
    # incumbent hides
    members = sched._mask_members(len(instance[0]))
    for rts, ws in zip(runtimes, combos):
        least, order, _ = sched._least_list_makespan(ws, rts, gpus, math.inf, members)
        assert (least, order) == best_list_makespan([rts], [ws], gpus)[::2]


@pytest.mark.parametrize(
    "gpus, combos, expected",
    [
        (2, 64, (2357.4375, 16, (0, 3, 2, 4, 5, 1), 20, 1406)),
        (4, 729, (1300.203094777563, 171, (0, 2, 3, 4, 5, 1), 138, 2926)),
    ],
)
def test_kernel_skips_width_vectors_that_cannot_win(sample_jobs, gpus, combos, expected):
    # the bundled jobs: (makespan, combo, order) as the unpruned search finds
    # them, from only 20 of 64 and 138 of 729 width vectors searched, in
    # 1406 and 2926 search nodes; the counts depend on the jobs alone, so
    # turning the pruning off fails here
    inputs = _kernel_inputs(sample_jobs, pc.ClusterSpec(gpus))
    assert len(inputs[1]) == combos
    assert sched._best_list_makespan(*inputs) == expected


def test_permutation_search_breaks_ties_by_least_start_sets():
    # two list schedules of the winning width vector reach 7.0.  The first
    # priority order to reach it starts j0, j1 and j4 at 0, with start sets
    # (0, 1, 4), (3,), (), (2,); the other starts j0, j1 and j3 at 0, with
    # (0, 1, 3), (4,), (2,), the lexicographically least, so it wins
    jobs = [
        _job("j0", 4.0, {}),
        _job("j1", 1e-15, {2: 2.0}),
        _job("j2", 12.0, {2: 4.0}),
        _job("j3", 1e-15, {2: 2.0}),
        _job("j4", 4.0, {}),
    ]
    best, _ = pc.permutation_search(jobs, pc.ClusterSpec(3, (1, 2)))
    assert best == pc.Schedule(
        (
            pc.Placement("j0", 1, (0,), 0.0, 4.0),
            pc.Placement("j1", 1, (1,), 0.0, 1e-15),
            pc.Placement("j3", 1, (2,), 0.0, 1e-15),
            pc.Placement("j4", 1, (1,), 1e-15, 4.0 + 1e-15),
            pc.Placement("j2", 2, (0, 2), 4.0, 7.0),
        ),
        7.0,
    )


@st.composite
def list_schedule_inputs(draw):
    # a width per job and a priority order over tie-prone or random instances
    jobs, cluster = draw(st.one_of(tie_prone_instances(), instances()))
    widths = {
        job.name: draw(st.sampled_from([w for w in cluster.allowed_widths if w in job.speedup]))
        for job in jobs
    }
    return draw(st.permutations(jobs)), widths, cluster


@settings(max_examples=200, deadline=None)
@given(list_schedule_inputs())
@example((_ROUNDING_JOBS, {"A": 1, "tiny": 1, "B": 1}, pc.ClusterSpec(1)))
def test_list_schedule_equals_free_list_reference(inputs):
    # the GPU ids too: the interval rule gives what a sorted free list gives
    jobs, widths, cluster = inputs
    assert pc.list_schedule(jobs, widths, cluster) == free_list_schedule(
        jobs, widths, cluster.gpu_count
    )


def test_list_schedule_rejects_disallowed_width():
    job = _job("wide", 10.0, {3: 2.0})
    with pytest.raises(AnalysisError, match="^width 3 not in allowed widths for wide$"):
        pc.list_schedule([job], {"wide": 3}, pc.ClusterSpec(4))  # 3 not in {1,2,4}
    with pytest.raises(AnalysisError, match="^no width assigned for wide$"):
        pc.list_schedule([job], {}, pc.ClusterSpec(4))


_SCHEDULERS = {
    "naive": pc.naive_schedule,
    "list": lambda jobs, cluster: pc.list_schedule(jobs, {j.name: 1 for j in jobs}, cluster),
    "heuristic": pc.heuristic_schedule,
    "permutation": pc.permutation_search,
    "exact": pc.exact_schedule,
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("method", sorted(_SCHEDULERS))
def test_an_end_that_overflows_a_float_is_refused(method, n):
    # 1e308 + 1e308 is inf: no schedule is returned, in part or in full
    jobs = [_job(f"j{i}", 1e308, {}) for i in range(n)]
    with pytest.raises(AnalysisError, match="^a job's end time overflows a float$"):
        _SCHEDULERS[method](jobs, pc.ClusterSpec(1))


# --- exact search -----------------------------------------------------------------------

def test_exact_dominance_chain(sample_jobs):
    for gpus in (2, 4, 8):
        cluster = pc.ClusterSpec(gpus)
        naive = pc.naive_schedule(sample_jobs, cluster)
        perm, _ = pc.permutation_search(sample_jobs, cluster)
        heur = pc.heuristic_schedule(sample_jobs, cluster)
        exact = pc.exact_schedule(sample_jobs, cluster)
        assert exact.makespan <= perm.makespan <= heur.makespan
        assert perm.makespan <= naive.makespan
        check_schedule(exact, gpus, sample_jobs)


def test_exact_single_job_matches_permutation(sample_jobs, p4):
    exact = pc.exact_schedule(sample_jobs[:1], p4)
    perm, _ = pc.permutation_search(sample_jobs[:1], p4)
    assert exact.makespan == perm.makespan


def test_exact_empty_and_guard(p4):
    assert pc.exact_schedule([], p4).makespan == 0.0
    with pytest.raises(SearchSpaceTooLarge, match="^11 jobs > limit 10$"):
        pc.exact_schedule([_job(f"j{i}", 1.0, {}) for i in range(11)], p4)


# per GPU count: the bundled jobs' makespan, the list search's width vectors
# visited plus start-set nodes, and exact_schedule's branch-and-bound nodes
_BUNDLED_WORK = [
    (4, 1300.203094777563, 729 + 2926, 2664),
    (1, 4658.599999999999, 1 + 518, 10),
    (2, 2357.4375, 64 + 1406, 803),
    (8, 735.3424336080585, 4096 + 13525, 3561),
]


@pytest.mark.parametrize("search, work, message, gpus, makespan", [
    row
    for gpus, makespan, list_work, exact_work in _BUNDLED_WORK
    for row in (
        (lambda jobs, cluster: pc.permutation_search(jobs, cluster)[0], list_work,
         "width vectors + start-set nodes", gpus, makespan),
        (pc.exact_schedule, exact_work, "branch-and-bound nodes", gpus, makespan),
    )
])
def test_searches_stop_once_their_work_passes_the_budget(
    sample_jobs, monkeypatch, search, work, message, gpus, makespan
):
    # the bundled jobs finish on a budget of exactly their work, and one step
    # less stops them mid-search
    cluster = pc.ClusterSpec(gpus)
    monkeypatch.setattr(sched, "_SEARCH_BUDGET", work)
    assert search(sample_jobs, cluster).makespan == makespan
    monkeypatch.setattr(sched, "_SEARCH_BUDGET", work - 1)
    refusal = f"^{re.escape(message)} > search budget {work - 1}$"
    with pytest.raises(SearchSpaceTooLarge, match=refusal):
        search(sample_jobs, cluster)


def test_permutation_search_refuses_more_width_vectors_than_the_budget(p4, monkeypatch):
    # 3^6 = 729 width vectors: refused before the first is built
    jobs = [_job(f"j{i}", 10.0, {2: 1.5, 4: 2.0}) for i in range(6)]
    monkeypatch.setattr(sched, "_SEARCH_BUDGET", 728)
    with pytest.raises(SearchSpaceTooLarge, match="^729 width vectors > search budget 728$"):
        pc.permutation_search(jobs, p4)


def _random_instance(rng, max_jobs=4, max_gpus=4):
    n = rng.randint(1, max_jobs)
    gpus = rng.randint(1, max_gpus)
    widths = tuple(w for w in (1, 2, 4) if w <= gpus)
    jobs = []
    for i in range(n):
        t1 = round(rng.uniform(0.5, 20.0), 3)
        speedup = {}
        for w in widths:
            if w != 1 and rng.random() < 0.75:
                speedup[w] = round(rng.uniform(0.5, w * 1.25), 3)
        jobs.append(_job(f"j{i}", t1, speedup))
    return jobs, pc.ClusterSpec(gpus, widths)


def test_exact_matches_brute_force_on_random_instances():
    import random

    rng = random.Random(20240817)
    for _ in range(60):
        jobs, cluster = _random_instance(rng)
        exact = pc.exact_schedule(jobs, cluster)
        oracle = brute_force_makespan(jobs, cluster.gpu_count, cluster.allowed_widths)
        assert exact.makespan == pytest.approx(oracle, abs=1e-9), (
            jobs, cluster.gpu_count,
        )
        check_schedule(exact, cluster.gpu_count, jobs)


def _deadline_instance(rng):
    """A random instance with one long, well-scaling job: on one GPU it takes
    two to four times the longest of the others."""
    gpus = rng.randint(2, 4)
    widths = tuple(w for w in (1, 2, 4) if w <= gpus)
    jobs = []
    for i in range(rng.randint(1, 3)):
        speedup = {w: round(rng.uniform(0.6, 1.0) * w, 2) for w in widths[1:]}
        jobs.append(_job(f"j{i}", float(rng.randint(1, 12)), speedup))
    longest = max(job.t1_minutes for job in jobs)
    jobs.append(
        _job("long", round(longest * rng.uniform(2.0, 4.0), 2),
             {w: round(rng.uniform(0.8, 0.95) * w, 2) for w in widths[1:]})
    )
    return jobs, pc.ClusterSpec(gpus, widths)


def test_exact_matches_brute_force_when_only_wide_widths_meet_the_deadline():
    # the long job on one GPU outlasts the heuristic makespan, so below any
    # incumbent only its wide widths remain, each with a different area: the
    # deadline-aware bound, not the plain area bound, decides what is pruned
    import random

    rng = random.Random(515)
    kept = 0
    while kept < 40:
        jobs, cluster = _deadline_instance(rng)
        heuristic = pc.heuristic_schedule(jobs, cluster).makespan
        if pc.runtime(jobs[-1], 1) < heuristic:
            continue
        kept += 1
        exact = pc.exact_schedule(jobs, cluster)
        oracle = brute_force_makespan(jobs, cluster.gpu_count, cluster.allowed_widths)
        assert exact.makespan == pytest.approx(oracle, abs=1e-9), (jobs, cluster)
        check_schedule(exact, cluster.gpu_count, jobs)


# rigid jobs (width, minutes) on the given GPU count, found by search, whose
# optimum beats every list schedule: each optimum holds GPUs idle while a job
# that fits waits.  Such instances are rare (a search over random rigid
# instances of 5 to 7 jobs hit about one in two thousand, each of 6 jobs),
# so the test varies these.
_IDLE_GAP_PATTERNS = [
    (3, [(1, 5), (1, 3), (2, 6), (1, 3), (1, 2), (2, 5)]),
    (4, [(3, 6), (3, 6), (1, 4), (1, 2), (1, 5), (1, 3)]),
    (4, [(1, 3), (1, 4), (3, 4), (1, 4), (1, 3), (3, 6)]),
]


def test_exact_matches_brute_force_when_every_optimum_needs_an_idle_gap():
    import random

    rng = random.Random(7001)
    for gpus, pattern in _IDLE_GAP_PATTERNS:
        cluster = pc.ClusterSpec(gpus, tuple(sorted({w for w, _ in pattern} | {1})))
        for _ in range(2):
            # shuffled and rescaled; a wide job on one GPU is `slowdown` times
            # slower, too slow to help
            scale = rng.choice((0.5, 1.0, 1.5, 2.0, 3.0))
            slowdown = float(rng.randint(10, 30))
            jobs = [
                _job(f"j{i}", minutes * scale, {})
                if w == 1
                else _job(f"j{i}", minutes * scale * slowdown, {w: slowdown})
                for i, (w, minutes) in enumerate(rng.sample(pattern, len(pattern)))
            ]
            oracle = brute_force_makespan(jobs, gpus, cluster.allowed_widths)
            # the permutation search covers every list schedule, so an optimum
            # below it must delay a job that fits
            listed, _ = pc.permutation_search(jobs, cluster)
            assert listed.makespan > oracle + 1e-9, (jobs, gpus)
            exact = pc.exact_schedule(jobs, cluster)
            assert exact.makespan == pytest.approx(oracle, abs=1e-9), (jobs, gpus)
            check_schedule(exact, gpus, jobs)


def _tie_prone_instance(rng):
    """Up to 5 jobs drawn from 1-3 prototypes, so twins appear, with whole
    minutes and speedups from a short list, so widths and schedules tie."""
    gpus = rng.randint(1, 4)
    widths = tuple(w for w in (1, 2, 3, 4) if w <= gpus)
    prototypes = []
    for _ in range(rng.randint(1, 3)):
        speedup = {
            w: rng.choice([x for x in (1.0, 1.5, 2.0, 3.0) if x <= w])
            for w in widths[1:]
            if rng.random() < 0.6
        }
        prototypes.append((float(rng.randint(1, 6)), speedup))
    jobs = []
    for i in range(rng.randint(1, 5)):
        t1, speedup = rng.choice(prototypes)
        jobs.append(_job(f"j{i}", t1, dict(speedup)))
    return jobs, pc.ClusterSpec(gpus, widths)


def test_exact_matches_brute_force_on_tie_prone_instances():
    import random

    # with the first twin on one GPU over [0, 3), the second's fastest width
    # (3 GPUs) starts at 3.0 and cannot end before the seed's 4.0, but its
    # width 1 at 0.0 can: the search must go on to the next width, not stop
    # at the first that ends too late
    twins = [_job(name, 3.0, {2: 1.0, 3: 1.5}) for name in ("a", "b")]
    schedule = pc.exact_schedule(twins, pc.ClusterSpec(3, (1, 2, 3)))
    assert schedule.makespan == 3.0
    check_schedule(schedule, 3, twins)
    rng = random.Random(1621)
    for _ in range(60):
        jobs, cluster = _tie_prone_instance(rng)
        exact = pc.exact_schedule(jobs, cluster)
        oracle = brute_force_makespan(jobs, cluster.gpu_count, cluster.allowed_widths)
        assert exact.makespan == pytest.approx(oracle, abs=1e-9), (jobs, cluster)
        check_schedule(exact, cluster.gpu_count, jobs)


# jobs (t1_minutes, speedup) on the given GPU count, found by search: one-GPU
# jobs next to rigid or near-rigid jobs wider than half the GPUs, so a wide
# job cannot start beside the jobs running at a child's start.  The
# deadline-aware bound starts each width at its first fit; in some orders of
# these jobs, a bound that took a later start (the next slot, or the first
# with one more GPU free) prunes every optimum
_LATE_FIT_PATTERNS = [
    (5, [(130.0, {4: 26.0, 5: 29.28}), (6.0, {}), (100.0, {4: 25.0}), (7.0, {}), (3.0, {})]),
    (4, [(8.0, {}), (9.0, {}), (60.0, {3: 20.0}), (3.0, {}), (22.0, {3: 22.0})]),
    (4, [(120.0, {3: 20.0}), (11.0, {}), (11.0, {}), (160.0, {3: 20.0}), (5.0, {})]),
    (5, [(11.0, {}), (40.0, {4: 20.0}), (10.0, {}), (6.0, {}), (75.0, {4: 15.0, 5: 19.02})]),
]


def _late_fit_instance(rng):
    """Three to five jobs on 3-5 GPUs, each either on one GPU or rigid at a
    width above half the GPUs (on one GPU 10-30x slower), sometimes with one
    wider width that is barely faster."""
    gpus = rng.randint(3, 5)
    jobs = []
    for i in range(rng.randint(3, 5)):
        if rng.random() < 0.5:
            jobs.append(_job(f"j{i}", float(rng.randint(1, 12)), {}))
            continue
        w = rng.randint(gpus // 2 + 1, gpus)
        minutes = float(rng.randint(1, 8))
        slowdown = float(rng.randint(10, 30))
        speedup = {w: slowdown}
        if w < gpus and rng.random() < 0.5:
            speedup[w + 1] = round(slowdown * rng.uniform(1.0, 1.3), 2)
        jobs.append(_job(f"j{i}", minutes * slowdown, speedup))
    return jobs, gpus


def test_exact_matches_brute_force_when_wide_jobs_fit_late():
    import random

    rng = random.Random(2626)
    # each pattern in three seeded orders
    cases = [
        ([_job(f"j{i}", t1, speedup) for i, (t1, speedup) in enumerate(order)], gpus)
        for gpus, pattern in _LATE_FIT_PATTERNS
        for order in (rng.sample(pattern, len(pattern)) for _ in range(3))
    ]
    cases += [_late_fit_instance(rng) for _ in range(40)]
    for jobs, gpus in cases:
        cluster = pc.ClusterSpec(gpus, tuple(range(1, gpus + 1)))
        exact = pc.exact_schedule(jobs, cluster)
        oracle = brute_force_makespan(jobs, gpus, cluster.allowed_widths)
        assert exact.makespan == pytest.approx(oracle, abs=1e-9), (jobs, gpus)
        check_schedule(exact, gpus, jobs)


def test_exact_monotone_in_gpu_count():
    import random

    rng = random.Random(90125)
    for _ in range(25):
        jobs, cluster = _random_instance(rng, max_jobs=4, max_gpus=2)
        small = pc.exact_schedule(jobs, cluster)
        grown = pc.ClusterSpec(
            cluster.gpu_count * 2,
            tuple(set(cluster.allowed_widths) | {cluster.gpu_count * 2}),
        )
        # widen only jobs that support the new width already
        big = pc.exact_schedule(jobs, grown)
        assert big.makespan <= small.makespan + 1e-9


# two 6-job mixes built like the benchmark's: the six measured jobs in a
# seeded order with jittered minutes and speedups
_MIX_A = [
    pc.Job("job0", 2.1, {2: 1.9, 4: 2.1, 8: 2.41}),
    pc.Job("job1", 214.7, {2: 1.98, 4: 3.78, 8: 7.24}),
    pc.Job("job2", 788.9, {2: 1.95, 4: 3.74, 8: 6.15}),
    pc.Job("job3", 2133.7, {2: 1.77, 4: 2.55, 8: 5.59}),
    pc.Job("job4", 1057.5, {2: 2.01, 4: 3.76, 8: 7.16}),
    pc.Job("job5", 581.4, {2: 1.46, 4: 2.92, 8: 5.32}),
]
# several schedules here reach makespans one last bit apart; the search keeps
# the first strict improvement it meets
_MIX_B = [
    pc.Job("job0", 2.1, {2: 1.88, 4: 2.14, 8: 2.38}),
    pc.Job("job1", 898.7, {2: 1.96, 4: 3.94, 8: 5.72}),
    pc.Job("job2", 698.2, {2: 1.37, 4: 2.9, 8: 5.43}),
    pc.Job("job3", 987.9, {2: 1.83, 4: 3.97, 8: 7.29}),
    pc.Job("job4", 252.8, {2: 1.87, 4: 3.72, 8: 7.47}),
    pc.Job("job5", 1771.6, {2: 1.69, 4: 2.56, 8: 5.68}),
]
# three jobs with several optima of makespan 3.0 at 2 GPUs; the search
# returns the first it finds below the heuristic seed's 3.33
_TIES = [
    pc.Job("j0", 2.0, {2: 1.5}),
    pc.Job("j1", 3.0, {2: 2.0}),
    pc.Job("j2", 1.0, {2: 2.0}),
]
_ALL8 = (0, 1, 2, 3, 4, 5, 6, 7)

# case -> (jobs, gpus, widths, makespan, placements as (job, width, gpu_ids,
# start, end)), pinned so that a faster search must return the same schedule
_EXACT_GOLDEN = {
    "bundled-p2": ("bundled", 2, (), 2357.4375, [
        ("MRCNN_Py", 1, (0,), 0.0, 1840.4),
        ("XFMR_Py", 1, (1,), 0.0, 636.0),
        ("Res50_TF", 1, (1,), 636.0, 1652.9),
        ("SSD_Py", 1, (1,), 1652.9, 1859.0),
        ("NCF_Py", 1, (0,), 1840.4, 1842.6000000000001),
        ("Res50_MX", 2, (0, 1), 1859.0, 2357.4375),
    ]),
    "bundled-p4": ("bundled", 4, (), 1300.203094777563, [
        ("MRCNN_Py", 2, (0, 1), 0.0, 1045.6818181818182),
        ("XFMR_Py", 1, (2,), 0.0, 636.0),
        ("NCF_Py", 1, (3,), 0.0, 2.2),
        ("Res50_TF", 1, (3,), 2.2, 1019.1),
        ("SSD_Py", 1, (2,), 636.0, 842.1),
        ("Res50_MX", 4, (0, 1, 2, 3), 1045.6818181818182, 1300.203094777563),
    ]),
    "bundled-p8": ("bundled", 8, (), 735.3424336080585, [
        ("MRCNN_Py", 8, _ALL8, 0.0, 328.64285714285717),
        ("SSD_Py", 8, _ALL8, 328.64285714285717, 356.9532967032967),
        ("Res50_TF", 4, (0, 1, 2, 3), 356.9532967032967, 621.77100503663),
        ("Res50_MX", 4, (4, 5, 6, 7), 356.9532967032967, 611.4745732990414),
        ("NCF_Py", 4, (4, 5, 6, 7), 611.4745732990414, 612.4930918175598),
        ("XFMR_Py", 8, _ALL8, 621.77100503663, 735.3424336080585),
    ]),
    "bundled-widths-1-2-p8": ("bundled", 8, (1, 2), 1045.6818181818182, [
        ("Res50_TF", 2, (0, 1), 0.0, 529.6354166666666),
        ("Res50_MX", 2, (2, 3), 0.0, 498.4375),
        ("MRCNN_Py", 2, (4, 5), 0.0, 1045.6818181818182),
        ("XFMR_Py", 2, (6, 7), 0.0, 447.887323943662),
        ("SSD_Py", 2, (6, 7), 447.887323943662, 554.1244373457239),
        ("NCF_Py", 2, (2, 3), 498.4375, 499.60771276595744),
    ]),
    "mix-a-p8": ("mix-a", 8, (), 769.9855190632292, [
        ("job3", 8, _ALL8, 0.0, 381.69946332737027),
        ("job4", 8, _ALL8, 381.69946332737027, 529.3949940536272),
        ("job2", 4, (0, 1, 2, 3), 529.3949940536272, 740.3308229306325),
        ("job5", 4, (4, 5, 6, 7), 529.3949940536272, 728.5045830947231),
        ("job0", 4, (4, 5, 6, 7), 728.5045830947231, 729.5045830947231),
        ("job1", 8, _ALL8, 740.3308229306325, 769.9855190632292),
    ]),
    "mix-b-p8": ("mix-b", 8, (), 722.0164672384307, [
        ("job3", 8, _ALL8, 0.0, 135.51440329218107),
        ("job1", 4, (0, 1, 2, 3), 135.51440329218107, 363.6108499926887),
        ("job2", 4, (4, 5, 6, 7), 135.51440329218107, 376.2730239818363),
        ("job0", 4, (0, 1, 2, 3), 363.6108499926887, 364.5921584039037),
        ("job5", 8, _ALL8, 376.2730239818363, 688.1744324325405),
        ("job4", 8, _ALL8, 688.1744324325405, 722.0164672384307),
    ]),
    "ties-p2": ("ties", 2, (), 3.0, [
        ("j1", 1, (0,), 0.0, 3.0),
        ("j2", 1, (1,), 0.0, 1.0),
        ("j0", 1, (1,), 1.0, 3.0),
    ]),
}


@pytest.mark.parametrize("case", sorted(_EXACT_GOLDEN))
def test_exact_schedule_matches_golden_placements(case, sample_jobs):
    jobs_name, gpus, widths, makespan, placements = _EXACT_GOLDEN[case]
    jobs = {"bundled": sample_jobs, "mix-a": _MIX_A, "mix-b": _MIX_B, "ties": _TIES}[jobs_name]
    schedule = pc.exact_schedule(jobs, pc.ClusterSpec(gpus, widths))
    assert schedule.makespan == makespan
    assert [(p.job, p.width, p.gpu_ids, p.start, p.end) for p in schedule.placements] == placements


def test_exact_deterministic_rerun(sample_jobs, p4):
    a = pc.exact_schedule(sample_jobs, p4)
    b = pc.exact_schedule(sample_jobs, p4)
    assert a == b


def test_exact_returns_seed_when_root_bounds_prove_it_optimal():
    # on one GPU every order is optimal, and the area bound (the job sum)
    # proves the LPT seed so before any search.  Searching anyway finds an
    # order whose float sum is a last bit lower: 48.70399999999999.
    minutes = {"j0": 6.391, "j1": 4.0, "j2": 13.3, "j3": 7.9, "j4": 17.113}
    jobs = [pc.Job(name, t1, {}) for name, t1 in minutes.items()]
    schedule = pc.exact_schedule(jobs, pc.ClusterSpec(1))
    assert schedule.makespan == 48.704
    assert [p.job for p in schedule.placements] == ["j4", "j2", "j3", "j0", "j1"]


# --- savings ------------------------------------------------------------------------------

def test_savings_identical_is_zero(sample_jobs, p4):
    naive = pc.naive_schedule(sample_jobs, p4)
    assert pc.savings(naive, naive) == 0.0


def test_savings_p4_vs_p8_ordering(sample_jobs):
    from conftest import soft_note

    by_gpus = {}
    for gpus in (4, 8):
        cluster = pc.ClusterSpec(gpus)
        naive = pc.naive_schedule(sample_jobs, cluster)
        exact = pc.exact_schedule(sample_jobs, cluster)
        by_gpus[gpus] = pc.savings(naive, exact)
        assert by_gpus[gpus] > 0
    assert by_gpus[4] > by_gpus[8]
    soft_note(
        f"savings: {by_gpus[4] / 60:.2f} h at P=4 vs {by_gpus[8] / 60:.2f} h at P=8 "
        "(reference ordering 2.8 h > 0.4 h; magnitudes differ, GNMT row absent)"
    )


def test_savings_job_set_mismatch(sample_jobs, p4):
    naive = pc.naive_schedule(sample_jobs, p4)
    other = pc.naive_schedule(sample_jobs[:3], p4)
    with pytest.raises(AnalysisError, match="schedules cover different job sets"):
        pc.savings(naive, other)


# --- validator / gantt ---------------------------------------------------------------------

def test_validate_schedule_catches_overlap(p4):
    bad = pc.Schedule(
        (
            pc.Placement("a", 1, (0,), 0.0, 10.0),
            pc.Placement("b", 1, (0,), 5.0, 15.0),
        ),
        15.0,
    )
    with pytest.raises(pc.errors.AnalysisError):
        pc.validate_schedule(bad, p4)


def test_validate_schedule_accepts_valid(sample_jobs, p4):
    assert pc.validate_schedule(pc.naive_schedule(sample_jobs, p4), p4, sample_jobs)


def test_ascii_gantt_mentions_every_job(sample_jobs, p4):
    exact = pc.exact_schedule(sample_jobs, p4)
    art = pc.ascii_gantt(exact, 4)
    for job in sample_jobs:
        assert job.name in art
    assert "gpu  0" in art
    assert pc.ascii_gantt(pc.Schedule((), 0.0), 4) == "(empty schedule)\n"


# --- random-instance properties --------------------------------------------------------------

@st.composite
def instances(draw):
    gpus = draw(st.integers(1, 4))
    widths = tuple(w for w in (1, 2, 4) if w <= gpus)
    n = draw(st.integers(1, 4))
    jobs = []
    for i in range(n):
        t1 = draw(st.floats(0.5, 50.0, allow_nan=False))
        speedup = {}
        for w in widths:
            if w != 1 and draw(st.booleans()):
                speedup[w] = draw(st.floats(0.5, 5.0, allow_nan=False))
        jobs.append(_job(f"j{i}", t1, speedup))
    return jobs, pc.ClusterSpec(gpus, widths)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_dominance_and_validity_property(instance):
    jobs, cluster = instance
    perm, _ = pc.permutation_search(jobs, cluster)
    heur = pc.heuristic_schedule(jobs, cluster)
    exact = pc.exact_schedule(jobs, cluster)
    assert exact.makespan <= perm.makespan + 1e-12
    assert perm.makespan <= heur.makespan + 1e-12
    schedules = [perm, heur, exact]
    try:
        naive = pc.naive_schedule(jobs, cluster)
    except AnalysisError as exc:
        if not str(exc).endswith(f" has no speedup for width {cluster.max_width}"):
            raise
        naive = None  # some job lacks the max width; naive's precondition fails
    if naive is not None:
        assert perm.makespan <= naive.makespan + 1e-12
        schedules.append(naive)
    for schedule in schedules:
        check_schedule(schedule, cluster.gpu_count, jobs)
    again, _ = pc.permutation_search(jobs, cluster)
    assert again == perm


# --- search-equivalence corpus --------------------------------------------------------------

_CORPUS_GPUS = (1, 2, 3, 4, 8)


def _corpus_random(rng, bundled):
    """Up to 6 jobs with two-decimal times and speedups, at the default widths
    or a custom menu of up to 4 widths; a quarter of the jobs after the first
    are twins."""
    gpus = rng.choice(_CORPUS_GPUS)
    if rng.random() < 0.5:
        widths, menu = (), tuple(w for w in (1, 2, 4, 8) if w <= gpus)
    else:
        extra = rng.sample(range(2, gpus + 1), rng.randint(0, min(gpus - 1, 3)))
        widths = menu = (1, *sorted(extra))
    jobs = []
    for i in range(rng.randint(1, 6)):
        if jobs and rng.random() < 0.25:
            twin = rng.choice(jobs)
            jobs.append(_job(f"j{i}", twin.t1_minutes, twin.speedup))
        else:
            speedup = {w: round(rng.uniform(0.5, 1.2 * w), 2) for w in menu[1:]
                       if rng.random() < 0.7}
            jobs.append(_job(f"j{i}", round(rng.uniform(0.5, 100.0), 2), speedup))
    return jobs, pc.ClusterSpec(gpus, widths)


def _corpus_ties(rng, bundled):
    """Up to 6 jobs from 1-3 prototypes with whole minutes and speedups from a
    short list, so widths and schedules tie."""
    gpus = rng.choice(_CORPUS_GPUS)
    widths = tuple(w for w in (1, 2, 3, 4, 8) if w <= gpus)
    prototypes = []
    for _ in range(rng.randint(1, 3)):
        speedup = {w: rng.choice([x for x in (1.0, 1.5, 2.0, 3.0, 4.0) if x <= w])
                   for w in widths[1:] if rng.random() < 0.6}
        prototypes.append((float(rng.randint(1, 6)), speedup))
    jobs = [_job(f"j{i}", *rng.choice(prototypes)) for i in range(rng.randint(1, 6))]
    return jobs, pc.ClusterSpec(gpus, widths)


def _corpus_edges(rng, bundled):
    """Up to 6 jobs of 1e-15 minutes (an end that rounds to its start after a
    long job), of 1e308 (ends that overflow) or of whole minutes."""
    gpus = rng.choice(_CORPUS_GPUS)
    jobs = []
    for i in range(rng.randint(1, 6)):
        t1 = rng.choice((1e-15, 1e308, 100.0, float(rng.randint(1, 9))))
        speedup = {w: rng.choice((1.0, 2.0, 1.5 * w)) for w in (2, 4, 8)
                   if w <= gpus and rng.random() < 0.5}
        jobs.append(_job(f"j{i}", t1, speedup))
    return jobs, pc.ClusterSpec(gpus)


def _corpus_mix(rng, bundled):
    """The six bundled jobs shuffled, as the benchmark's schedule inputs are:
    one-GPU minutes jittered by up to 15% and rounded to 0.1, each speedup up
    to the GPU count by up to 5% and rounded to 0.01."""
    gpus = rng.choice(_CORPUS_GPUS)
    rows = list(bundled)
    rng.shuffle(rows)
    jobs = []
    for i, job in enumerate(rows):
        speedup = {w: round(s * rng.uniform(0.95, 1.05), 2)
                   for w, s in job.speedup.items() if 1 < w <= gpus}
        jobs.append(_job(f"job{i}", round(job.t1_minutes * rng.uniform(0.85, 1.15), 1), speedup))
    return jobs, pc.ClusterSpec(gpus)


_CORPUS = ((_corpus_random, 300), (_corpus_ties, 300), (_corpus_edges, 150), (_corpus_mix, 20))

# sha256 over each instance's repr(result), or its error class and message,
# one line per instance, per method.  Every step is pure-Python float
# arithmetic, so the digests do not depend on the host.  A change that means
# to move placements re-pins them and says how many instances changed.
_CORPUS_GOLDEN = {
    "permutation": "9311948342d2d9ec90589a07a6b2011bf9e58719a01b42c45cac991006755ce3",
    "exact": "1b7c63d37c594c7a360ee7fb12c66c417c9c0edcd640f0b9a893c563dc4f5c21",
}


@pytest.mark.parametrize("method", sorted(_CORPUS_GOLDEN))
def test_search_corpus_matches_pinned_digests(method, sample_jobs):
    import hashlib
    import random

    rng = random.Random(20261021)
    corpus = [kind(rng, sample_jobs) for kind, count in _CORPUS for _ in range(count)]
    assert len(corpus) == 770
    search = {"permutation": pc.permutation_search, "exact": pc.exact_schedule}[method]
    digest = hashlib.sha256()
    for jobs, cluster in corpus:
        try:
            text = repr(search(jobs, cluster))
        except Exception as exc:
            text = f"{type(exc).__name__}: {exc}"
        digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == _CORPUS_GOLDEN[method]
