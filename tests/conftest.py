import warnings

import pytest

import perf_charter as pc
from perf_charter import stats

ACCEPTANCE_RESULTS: dict[str, tuple[int, str, str]] = {}
SOFT_NOTES: list[str] = []


def soft_note(message: str) -> None:
    """Record a soft-check observation for the terminal summary."""
    SOFT_NOTES.append(message)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, label): acceptance-criterion test"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    mark = item.get_closest_marker("acceptance")
    if mark is not None:
        num = mark.args[0]
        label = mark.kwargs.get("label", item.name)
        ACCEPTANCE_RESULTS[item.nodeid] = (num, label, report.outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, outcome in sorted(ACCEPTANCE_RESULTS.values()):
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {status} - {label}")
    for note in SOFT_NOTES:
        terminalreporter.write_line(f"soft check: {note}")


@pytest.fixture(scope="session")
def sample_matrix() -> pc.MetricMatrix:
    text = pc.sample_path("profiles.csv").read_text()
    return pc.matrix_from_profiles(pc.parse_workload_profiles(text))


@pytest.fixture(scope="session")
def sample_pca(sample_matrix) -> stats.PcaModel:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return stats.fit_pca(sample_matrix)


@pytest.fixture(scope="session")
def sample_jobs() -> list[pc.Job]:
    return pc.parse_jobs(pc.sample_path("jobs.csv").read_text())


@pytest.fixture(scope="session")
def sample_kernels() -> list[pc.KernelRecord]:
    return pc.parse_kernels(pc.sample_path("kernels.csv").read_text())


@pytest.fixture(scope="session")
def default_machine() -> pc.MachineModel:
    import json

    return pc.machine_from_dict(
        json.loads(pc.sample_path("machine.json").read_text())
    )
