import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perf_charter as pc
from perf_charter.errors import (
    JobSetMismatch,
    SearchSpaceTooLarge,
    UnsupportedWidth,
)

from oracle_helpers import brute_force_makespan, check_schedule


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
    with pytest.raises(UnsupportedWidth):
        pc.runtime(res50, 3)


def test_scaling_efficiency_rows(sample_jobs):
    res50, ncf = sample_jobs[0], sample_jobs[-1]
    assert pc.scaling_efficiency(res50, 8) == pytest.approx(0.88)
    assert pc.scaling_efficiency(res50, 1) == 1.0
    assert pc.scaling_efficiency(ncf, 8) == pytest.approx(0.29)
    with pytest.raises(UnsupportedWidth):
        pc.scaling_efficiency(ncf, 16)


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
    with pytest.raises(UnsupportedWidth):
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
    assert schedule.makespan == 40.0
    check_schedule(schedule, 2, jobs)


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
    jobs = [_job(f"j{i}", 10.0, {}) for i in range(9)]
    with pytest.raises(SearchSpaceTooLarge) as exc:
        pc.permutation_search(jobs, p4)
    assert exc.value.bound == math.factorial(9)  # width menu collapses to {1}
    best, _ = pc.permutation_search(jobs[:3], p4, limit=3)
    assert best.makespan == pytest.approx(10.0)


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


def test_permutation_search_thread_count_invariance(monkeypatch, sample_jobs, p4):
    results = {}
    for threads in ("1", "3", "8"):
        monkeypatch.setenv("PERF_CHARTER_THREADS", threads)
        best, explored = pc.permutation_search(sample_jobs, p4)
        results[threads] = (best, explored)
    baseline = results["1"]
    for other in ("3", "8"):
        assert results[other][0] == baseline[0]
        assert results[other][1] == baseline[1]


def _first_minimum_list_schedule(jobs, cluster):
    """list_schedule on every (width vector, priority order), in the search's
    enumeration order, keeping the first strict minimum."""
    options = [[w for w in cluster.allowed_widths if w in job.speedup] for job in jobs]
    best, count = None, 0
    for widths in itertools.product(*options):
        width_map = {job.name: w for job, w in zip(jobs, widths)}
        for order in itertools.permutations(jobs):
            schedule = pc.list_schedule(list(order), width_map, cluster)
            count += 1
            if best is None or schedule.makespan < best.makespan:
                best = schedule
    return best, count


# per-job width options by job count, so one instance stays under ~4k candidates
_OPTIONS_CAP = {1: 4, 2: 4, 3: 4, 4: 3, 5: 2}


@st.composite
def tie_prone_instances(draw):
    # any width menu, non-powers of two included; runtimes are exact small
    # integers and jobs repeat, so many candidates share the least makespan
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
        speedup = {w: draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])) for w in supported}
        jobs.append(_job(f"j{i}", float(draw(st.sampled_from([4, 8, 12, 16]))), speedup))
    return jobs, cluster


@settings(max_examples=150, deadline=None)
@given(tie_prone_instances())
def test_permutation_search_equals_explicit_enumeration(instance):
    jobs, cluster = instance
    assert pc.permutation_search(jobs, cluster) == _first_minimum_list_schedule(jobs, cluster)


def test_list_schedule_rejects_disallowed_width():
    job = _job("wide", 10.0, {3: 2.0})
    with pytest.raises(UnsupportedWidth):
        pc.list_schedule([job], {"wide": 3}, pc.ClusterSpec(4))  # 3 not in {1,2,4}
    with pytest.raises(UnsupportedWidth):
        pc.list_schedule([job], {}, pc.ClusterSpec(4))


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
    with pytest.raises(SearchSpaceTooLarge):
        pc.exact_schedule([_job(f"j{i}", 1.0, {}) for i in range(11)], p4)


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


def test_exact_deterministic_rerun(sample_jobs, p4):
    a = pc.exact_schedule(sample_jobs, p4)
    b = pc.exact_schedule(sample_jobs, p4)
    assert a == b


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
    with pytest.raises(JobSetMismatch):
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
    except UnsupportedWidth:
        naive = None  # some job lacks the max width; naive's precondition fails
    if naive is not None:
        assert perm.makespan <= naive.makespan + 1e-12
        schedules.append(naive)
    for schedule in schedules:
        check_schedule(schedule, cluster.gpu_count, jobs)
    again, _ = pc.permutation_search(jobs, cluster)
    assert again == perm
