import json
import shutil
import subprocess

import pytest

import perf_charter as pc
from cli_helpers import json_mirror, run_cli


def test_json_inputs_end_to_end(tmp_path):
    # JSON mirrors of the bundled CSVs drive the same pipeline
    profiles_json = tmp_path / "profiles.json"
    profiles_json.write_text(json_mirror("profiles"))
    jobs_json = tmp_path / "jobs.json"
    jobs_json.write_text(json_mirror("jobs"))
    kernels_json = tmp_path / "kernels.json"
    kernels_json.write_text(json_mirror("kernels"))

    r1 = run_cli("characterize", "--profiles", str(profiles_json),
                 "--out", str(tmp_path / "chr"))
    r2 = run_cli("roofline", "--kernels", str(kernels_json),
                 "--out", str(tmp_path / "roof"))
    r3 = run_cli("schedule", "--jobs", str(jobs_json), "--gpus", "4",
                 "--method", "heuristic", "--out", str(tmp_path / "sch"))
    for r in (r1, r2, r3):
        assert r.returncode == 0, r.stderr

    csv_out = tmp_path / "csvref"
    r4 = run_cli("roofline", "--kernels", str(pc.sample_path("kernels.csv")),
                 "--out", str(csv_out))
    assert r4.returncode == 0
    assert (tmp_path / "roof" / "roofline.csv").read_bytes() == (
        csv_out / "roofline.csv"
    ).read_bytes()


def test_roofline_multi_file_prefixes_names(tmp_path):
    files = [str(pc.sample_path("kernels", f"{b}.csv")) for b in ("NCF_Py", "XFMR_Py")]
    result = run_cli("roofline", "--kernels", *files, "--out", str(tmp_path / "o"))
    assert result.returncode == 0, result.stderr
    rows = (tmp_path / "o" / "roofline.csv").read_text().splitlines()[1:]
    assert any(r.startswith("NCF_Py/") for r in rows)
    assert any(r.startswith("XFMR_Py/") for r in rows)


def test_schedule_heuristic_json_schema(tmp_path):
    result = run_cli(
        "schedule", "--jobs", str(pc.sample_path("jobs.csv")), "--gpus", "4",
        "--method", "heuristic", "--out", str(tmp_path / "o"),
    )
    assert result.returncode == 0, result.stderr
    data = json.loads((tmp_path / "o" / "schedule.json").read_text())
    assert set(data) == {"gpu_count", "placements", "makespan_min", "method"}
    assert data["method"] == "heuristic"
    for p in data["placements"]:
        assert set(p) == {"job", "width", "gpu_ids", "start", "end"}
        assert len(p["gpu_ids"]) == p["width"]
        assert p["end"] > p["start"]
    # reconstruct and validate independently
    schedule = pc.Schedule(
        tuple(
            pc.Placement(p["job"], p["width"], tuple(p["gpu_ids"]), p["start"], p["end"])
            for p in data["placements"]
        ),
        data["makespan_min"],
    )
    assert pc.validate_schedule(schedule, pc.ClusterSpec(4))


def test_schedule_invalid_widths_flag_rejected(tmp_path):
    result = run_cli(
        "schedule", "--jobs", str(pc.sample_path("jobs.csv")), "--gpus", "4",
        "--widths", "1,2,8", "--out", str(tmp_path / "o"),
    )
    assert result.returncode == 3  # width 8 exceeds gpu_count 4
    assert "width" in result.stderr


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("perf-charter")
    if exe is None:
        pytest.skip("console script not on PATH")
    result = subprocess.run(
        [exe, "schedule", "--jobs", str(pc.sample_path("jobs.csv")),
         "--gpus", "2", "--method", "exact", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "savings:" in result.stdout


# the 8-job instance's exact schedule at 4 GPUs, as (job, width, gpu_ids,
# start, end), pinned so that a faster search must break its ties the same way
_EIGHT_JOBS_P4 = [
    ("MRCNN_Py", 2, (0, 1), 0.0, 1045.6818181818182),
    ("XFMR_Py", 1, (2,), 0.0, 636.0),
    ("NCF_Py", 1, (3,), 0.0, 2.2),
    ("Res50_TF", 1, (3,), 2.2, 1019.1),
    ("SSD_Py", 1, (2,), 636.0, 842.1),
    ("extra_a", 1, (2,), 842.1, 962.1),
    ("extra_b", 1, (2,), 962.1, 1007.1),
    ("Res50_MX", 4, (0, 1, 2, 3), 1045.6818181818182, 1300.203094777563),
]
# the same at 8 GPUs, where the deadline-aware bound prunes the most
_EIGHT_JOBS_P8 = [
    ("MRCNN_Py", 8, (0, 1, 2, 3, 4, 5, 6, 7), 0.0, 328.64285714285717),
    ("Res50_MX", 4, (0, 1, 2, 3), 328.64285714285717, 583.1641337386019),
    ("SSD_Py", 4, (4, 5, 6, 7), 328.64285714285717, 384.04608294930875),
    ("Res50_TF", 4, (4, 5, 6, 7), 384.04608294930875, 648.8637912826421),
    ("extra_a", 4, (0, 1, 2, 3), 583.1641337386019, 621.8738111579568),
    ("extra_b", 4, (0, 1, 2, 3), 621.8738111579568, 640.6238111579568),
    ("NCF_Py", 4, (0, 1, 2, 3), 640.6238111579568, 641.6423296764752),
    ("XFMR_Py", 8, (0, 1, 2, 3, 4, 5, 6, 7), 648.8637912826421, 762.4352198540706),
]


def test_exact_schedule_handles_eight_jobs_quickly(sample_jobs):
    import time

    jobs = sample_jobs + [
        pc.Job("extra_a", 120.0, {2: 1.8, 4: 3.1}),
        pc.Job("extra_b", 45.0, {2: 1.6, 4: 2.4, 8: 3.0}),
    ]
    for gpus, makespan, placements in (
        (4, 1300.203094777563, _EIGHT_JOBS_P4),
        (8, 762.4352198540706, _EIGHT_JOBS_P8),
    ):
        t0 = time.perf_counter()
        exact = pc.exact_schedule(jobs, pc.ClusterSpec(gpus))
        elapsed = time.perf_counter() - t0
        heur = pc.heuristic_schedule(jobs, pc.ClusterSpec(gpus))
        assert exact.makespan <= heur.makespan
        assert elapsed < 60.0
        assert exact.makespan == makespan
        assert [(p.job, p.width, p.gpu_ids, p.start, p.end) for p in exact.placements] == placements
