import csv
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perf_charter as pc
from perf_charter import cli, sched, svg
from perf_charter import roofline as roof
from cli_helpers import KERNEL_BENCHMARKS, cli_env, json_mirror, run_cli, write_rows

PROFILES = str(pc.sample_path("profiles.csv"))
JOBS = str(pc.sample_path("jobs.csv"))
KERNELS = str(pc.sample_path("kernels.csv"))
MACHINE = str(pc.sample_path("machine.json"))


def test_characterize_k4(tmp_path):
    out = tmp_path / "out"
    result = run_cli(
        "characterize", "--profiles", PROFILES, "--k", "4", "--out", str(out)
    )
    assert result.returncode == 0, result.stderr
    assert "selected subset:" in result.stdout
    assert "coverage of full ranges" in result.stdout
    for name in ("pca.json", "dendrogram.json", "dendrogram.svg",
                 "subset_report.json", "pca_scatter.svg"):
        assert (out / name).exists(), name
    report = json.loads((out / "subset_report.json").read_text())
    assert len(report["selected"]) == 4
    assert set(report["coverage"]) == {
        "gpu_util_pct", "cpu_util_pct", "ddr_footprint_mb",
        "hbm2_footprint_mb", "pcie_mbps", "nvlink_mbps",
    }
    pca = json.loads((out / "pca.json").read_text())
    assert pca["dropped_metrics"] == ["nvlink_mbps"]
    assert len(pca["eigenvalues"]) == 5
    dend = json.loads((out / "dendrogram.json").read_text())
    assert len(dend["leaves"]) == 13
    assert len(dend["merges"]) == 12


def test_characterize_cut_zero_gives_singletons(tmp_path):
    out = tmp_path / "out"
    result = run_cli(
        "characterize", "--profiles", PROFILES, "--cut", "0.0", "--out", str(out)
    )
    assert result.returncode == 0, result.stderr
    report = json.loads((out / "subset_report.json").read_text())
    assert len(report["selected"]) == 13  # one representative per singleton


# sha256 of what characterize writes for the bundled profiles.  Reruns of
# one build are compared elsewhere; these pin the bits themselves, so a change
# in the rounding order of the Jacobi sweeps or of the agglomeration fails
# here.  The covariance product goes through the BLAS numpy links, and a
# different BLAS build may move the last bits of pca.json.
_CHARACTERIZE_GOLDEN = {
    ("--k", "4"): {
        "pca.json": "b893d9b027ee7c08cecc2a304f4b04a41d71de969c5590143b8f8a7a133a7578",
        "dendrogram.json": "691faa3047004d0ca46737f927dfa0083a98b17a5c041be0701ed8daa564bbe5",
        "subset_report.json": "b4a32f981612f1470e05a93fb603b856d4c800d81e5e3e7e217757a4842db61a",
        "stdout": "d5ccc45f7a9479032207a273f8134c1ab3c4c90c8b4ef62236900ca44fd006cf",
    },
    ("--cut", "0.8", "--space", "pca:4"): {
        "pca.json": "b893d9b027ee7c08cecc2a304f4b04a41d71de969c5590143b8f8a7a133a7578",
        "dendrogram.json": "2433999507147255689286755b9b126be20d3336c55b6f3d6ee6a3807f86a588",
        "subset_report.json": "163a142fe07658f1e359ca7bf7022c28c775c3467a459152479dd2be861eba3b",
        "stdout": "9190837046b75423e4cd616ec877fd8e1de01d6bddf8860715c3e75e87c03331",
    },
}


@pytest.mark.parametrize("args", list(_CHARACTERIZE_GOLDEN), ids=["k4", "cut-pca4"])
def test_characterize_matches_golden_digests(tmp_path, args):
    out = tmp_path / "out"
    result = run_cli("characterize", "--profiles", PROFILES, *args, "--out", str(out))
    assert result.returncode == 0, result.stderr
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("pca.json", "dendrogram.json", "subset_report.json")
    }
    digests["stdout"] = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digests == _CHARACTERIZE_GOLDEN[args]


KERNEL_FILES = tuple(str(pc.sample_path("kernels", f"{b}.csv")) for b in KERNEL_BENCHMARKS)

# sha256 of what roofline writes and prints, per case: the bundled kernel
# classes, the seven per-benchmark files (names get the "<stem>/" prefix),
# those files aggregated, and a JSON mirror of kernels.csv at 64-byte
# transactions.  roofline.svg prints two decimals, which hide a change in the
# last bit of a coordinate, so "roofline.svg bits" is the same plot rendered
# in-process with every coordinate written by ``float.hex``: a change in the
# rounding order of the plot scale fails there.
_ROOFLINE_GOLDEN = {
    "per-class": ((KERNELS,), {
        "roofline.csv": "433e8a9506e970e73956ff8b403c575c80e502f9cca74aebd7cb1471b2a88b17",
        "roofline.svg": "521b1c96b8a069baffb208ce30d955212a3d8f610c8f1f6fafae3bee28fe10ef",
        "stdout": "7803ca18309441a9ee353c03ac30dd018ff10a39afad1e91a9a3c1b43cafdf04",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "roofline.svg bits": "f270335a6d766c915276a259ae83ff78277aecf9654c6eb18ea40560a5f2aa79",
    }),
    "per-class-7": (KERNEL_FILES, {
        "roofline.csv": "f8ac0d51f74e3802707131e90f7d596e6e68be2deadef10a2d32f70c0ef357d0",
        "roofline.svg": "6f5a3e5e959930202e8925ddd4d84743f65ca6f4bf37e191a8183f8a118539ae",
        "stdout": "bcac8754d8806c6375f3a00e994d45f0ad3bb9914a03ecf06531855c02774819",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "roofline.svg bits": "226754b2dbb038e414e61015fce745f692c7a486afc05079fb14f18d81754952",
    }),
    "aggregate-7": ((*KERNEL_FILES, "--aggregate"), {
        "roofline.csv": "2b830c17068f3aa975a764662f62c748c92fcea399fe52017b94206095668e8e",
        "roofline.svg": "5d4523e7b57398568aa80138f00168d7139e534ef61157ce8621eed2bfcf8bfb",
        "stdout": "c010e1b58f902460c5de447b71bf6e25cb7de667dbc44922b1f50a525a7bf128",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "roofline.svg bits": "b5ffcc2a9a52f3d9b3f57cd42e7a930b0d4e5855d998c573ad0c0f84790aa965",
    }),
    "json-tb64": (("kernels.json", "--transaction-bytes", "64"), {
        "roofline.csv": "e3adcd4c7f2ce0fd94f157807d93d0bc1b7e9c76e2b7eb7fd680dc97f1c61b7e",
        "roofline.svg": "e7ab10cbbf45a11111c90e687a667b51b3ae7ba474bf268bf5a84d0699491e25",
        "stdout": "d4fc2cd550244ccba7f30c6eac2eb0493a65c3efbff7988492bdff9efe949192",
        "stderr": "e4210a069d844fb0dd10b3e230688b9076812556739590803ea6e87606823e18",
        "roofline.svg bits": "e80efff38b4fcd0f78dbb5f133b128de33abb32156f5e866c1b2d45480dc25c6",
    }),
}


@pytest.mark.parametrize("case", list(_ROOFLINE_GOLDEN))
def test_roofline_matches_golden_digests(tmp_path, monkeypatch, capsys, case):
    args, expected = _ROOFLINE_GOLDEN[case]
    if args[0] == "kernels.json":
        mirror = tmp_path / "kernels.json"
        mirror.write_text(json_mirror("kernels"))
        args = (str(mirror), *args[1:])
    out = tmp_path / "out"
    result = run_cli("roofline", "--kernels", *args, "--out", str(out))
    assert result.returncode == 0, result.stderr
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("roofline.csv", "roofline.svg")
    }
    digests["stdout"] = hashlib.sha256(result.stdout.encode()).hexdigest()
    digests["stderr"] = hashlib.sha256(result.stderr.encode()).hexdigest()
    monkeypatch.setattr(svg, "_f", lambda x: float(x).hex())
    assert cli.main(["roofline", "--kernels", *args, "--out", str(tmp_path / "bits")]) == 0
    capsys.readouterr()
    svg_bits = (tmp_path / "bits" / "roofline.svg").read_bytes()
    digests["roofline.svg bits"] = hashlib.sha256(svg_bits).hexdigest()
    assert digests == expected


def test_characterize_missing_input_exits_2(tmp_path):
    out = tmp_path / "out"
    result = run_cli(
        "characterize", "--profiles", str(tmp_path / "nope.csv"), "--out", str(out)
    )
    assert result.returncode == 2
    assert result.stderr
    assert not out.exists() or not list(out.iterdir())  # no partial outputs


def test_characterize_pca_space(tmp_path):
    out = tmp_path / "out"
    result = run_cli(
        "characterize", "--profiles", PROFILES, "--space", "pca:2",
        "--linkage", "complete", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr


def test_roofline_per_class(tmp_path):
    out = tmp_path / "out"
    result = run_cli(
        "roofline", "--kernels", KERNELS, "--machine", MACHINE, "--out", str(out)
    )
    assert result.returncode == 0, result.stderr
    rows = (out / "roofline.csv").read_text().splitlines()
    assert rows[0] == "name,intensity,throughput,classification"
    relu = next(r for r in rows if r.startswith("relu,"))
    _, intensity, throughput, label = relu.split(",")
    assert float(intensity) == pytest.approx(1.27, abs=0.01)
    assert float(throughput) == pytest.approx(436.29, abs=0.5)
    assert label == "memory_bound"
    mm = next(r for r in rows if r.startswith("MM_4x1,"))
    assert float(mm.split(",")[1]) == pytest.approx(208.98, abs=0.05)
    assert mm.split(",")[3] == "compute_bound"
    assert (out / "roofline.svg").read_text().startswith("<svg ")


def test_roofline_aggregate_seven_benchmarks(tmp_path):
    out = tmp_path / "out"
    kernel_files = [
        str(pc.sample_path("kernels", f"{b}.csv")) for b in KERNEL_BENCHMARKS
    ]
    result = run_cli(
        "roofline", "--kernels", *kernel_files, "--aggregate", "--out", str(out)
    )
    assert result.returncode == 0, result.stderr
    rows = (out / "roofline.csv").read_text().splitlines()[1:]
    assert len(rows) == 7
    assert all(r.endswith(",memory_bound") for r in rows)


def test_roofline_empty_kernels_exits_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("class,time_ms,calls,unique,flops,transactions\n")
    result = run_cli("roofline", "--kernels", str(empty), "--out", str(tmp_path / "o"))
    assert result.returncode == 2


def test_roofline_transaction_bytes_halves(tmp_path):
    outs = {}
    for nbytes in (32, 64):
        out = tmp_path / f"out{nbytes}"
        result = run_cli(
            "roofline", "--kernels", KERNELS, "--transaction-bytes", str(nbytes),
            "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        outs[nbytes] = {
            row.split(",")[0]: float(row.split(",")[1])
            for row in (out / "roofline.csv").read_text().splitlines()[1:]
        }
    for name, value in outs[32].items():
        assert outs[64][name] == value / 2


def test_roofline_memory_stays_near_its_outputs(tmp_path, capsys):
    # 10 kernel exports x 400 classes, shaped like the benchmark's JSON inputs.
    # The traced peak was 4.4x the two output files while rendering kept a
    # second row list and copied the whole SVG document, and 3.4x with one
    # row list of 4-tuples and each file rendered as one string.  Streaming
    # both files, with the classifications in a list of their own, brought it
    # to 2.4x.  The points kept as columns (no tuple or boxed float per
    # point) and the plot range taken in one scan bring it to about 1.4x,
    # with each piece handed to the file's ``writelines``, whose own buffer
    # gathers them into chunks.
    rng = random.Random(1)
    paths = []
    for f in range(10):
        records = []
        for c in range(400):
            transactions = rng.randrange(10**8, 10**11)
            intensity = rng.lognormvariate(2.0, 1.5)
            flops = int(transactions * 32 * intensity)
            seconds = flops / (min(14000.0, 800.0 * intensity) * 1e9 * rng.uniform(0.05, 0.9))
            records.append({"class": f"k{c:03d}", "time_ms": round(seconds * 1e3, 6),
                            "calls": rng.randrange(1, 100000), "unique": rng.randrange(1, 50),
                            "flops": flops, "transactions": transactions})
        path = tmp_path / f"bench{f:02d}.json"
        path.write_text(json.dumps(records, indent=1))
        paths.append(str(path))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert cli.main(["roofline", "--kernels", *paths, "--machine", MACHINE,
                         "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    outputs = sum(f.stat().st_size for f in out.iterdir())
    assert peak < 1.8 * outputs, (peak, outputs)


def test_write_outputs_removes_staged_files_when_a_piece_fails(tmp_path):
    # an error raised by a piece iterator mid-file is raised as it is, and
    # no staged or final file is left behind, also of a file already staged
    def pieces():
        yield "name,intensity\n"
        yield "a,1.0\n"
        raise ValueError("bad piece")

    out = tmp_path / "out"
    files = {"first.json": "{}\n", "second.csv": pieces(), "third.svg": iter(["<svg/>\n"])}
    with pytest.raises(ValueError, match="bad piece"):
        cli._write_outputs(str(out), files)
    assert not out.exists()


def test_write_outputs_writes_pieces_byte_exactly(tmp_path):
    # multi-byte UTF-8 names, an empty piece, and pieces of 3 to 9 000
    # characters, so that many straddle the file buffer's 8 KB chunks
    rng = random.Random(3)
    names = ["relu", "Größe", "核函数", "emoji\U0001f600", "", "a" * 8191, "é" * 4097]
    pieces = [rng.choice(names) * rng.randrange(1, 3) + ",\n" for _ in range(400)]
    pieces[200:200] = ["", "x" * 9000, ""]
    text = "plain ünïcode text\n" * 700
    out = tmp_path / "out"
    cli._write_outputs(str(out), {"points.csv": iter(pieces), "plain.txt": text})
    assert (out / "points.csv").read_bytes() == "".join(pieces).encode("utf-8")
    assert (out / "plain.txt").read_bytes() == text.encode("utf-8")
    assert sorted(p.name for p in out.iterdir()) == ["plain.txt", "points.csv"]


def test_write_outputs_removes_only_the_directories_it_made(tmp_path):
    # a failed write takes back each directory it created, deepest first,
    # and leaves one that already existed
    def pieces():
        raise ValueError("bad piece")
        yield

    kept = tmp_path / "kept"
    kept.mkdir()
    for out in (tmp_path / "a" / "b" / "c", kept / "d", kept):
        with pytest.raises(ValueError, match="bad piece"):
            cli._write_outputs(str(out), {"x.csv": pieces()})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
    assert list(kept.iterdir()) == []


def test_schedule_exact_p4(tmp_path):
    out = tmp_path / "out"
    result = run_cli(
        "schedule", "--jobs", JOBS, "--gpus", "4", "--method", "exact",
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert "savings:" in result.stdout
    saved = float(result.stdout.split("savings:")[1].split("min")[0])
    assert saved > 0
    data = json.loads((out / "schedule.json").read_text())
    assert data["gpu_count"] == 4
    assert data["method"] == "exact"
    assert len(data["placements"]) == 6
    assert data["makespan_min"] == pytest.approx(1300.2031, abs=0.01)
    assert (out / "gantt.svg").exists()


def test_schedule_single_gpu_no_savings(tmp_path):
    out = tmp_path / "out"
    result = run_cli(
        "schedule", "--jobs", JOBS, "--gpus", "1", "--method", "permutation",
        "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert "savings: 0 min" in result.stdout


@pytest.mark.parametrize("method", ["permutation", "exact", "heuristic"])
def test_schedule_end_rounding_to_start_exits_3(tmp_path, method):
    # 100 + 1e-15 rounds to 100: every method places "tiny" on an empty
    # interval, which validate_schedule rejects (not a lost GPU)
    jobs = tmp_path / "jobs.csv"
    jobs.write_text("name,t1_minutes\nA,100\ntiny,1e-15\nB,100\n")
    result = run_cli(
        "schedule", "--jobs", str(jobs), "--gpus", "1", "--method", method,
        "--out", str(tmp_path / "o"),
    )
    assert result.returncode == 3
    assert result.stderr == "error: tiny: empty execution interval\n"


# each table has a schedule that ends a job at inf
SCHEDULE_OVERFLOWS = {
    "two-gpus": ("name,t1_minutes,s2\nA,1e308,1.0\nB,1e308,1.0\n", "2"),
    "two-jobs": ("name,t1_minutes\nA,1e308\nB,1e308\n", "1"),
    "three-jobs": ("name,t1_minutes\nA,1e308\nB,1e308\nC,1e308\n", "1"),
}


@pytest.mark.parametrize("case", sorted(SCHEDULE_OVERFLOWS))
@pytest.mark.parametrize("method", ["permutation", "exact", "heuristic"])
def test_schedule_end_overflow_exits_3_and_writes_nothing(tmp_path, method, case):
    table, gpus = SCHEDULE_OVERFLOWS[case]
    jobs = tmp_path / "jobs.csv"
    jobs.write_text(table)
    out = tmp_path / "out"
    result = run_cli(
        "schedule", "--jobs", str(jobs), "--gpus", gpus, "--method", method,
        "--out", str(out),
    )
    assert result.returncode == 3
    assert result.stderr == "error: a job's end time overflows a float\n"
    assert not out.exists()


def test_schedule_nine_jobs_exits_4(tmp_path):
    # nine jobs are under the job limit and searched; eleven exit 4
    for n, code in ((9, 0), (11, 4)):
        jobs = tmp_path / f"jobs{n}.csv"
        lines = ["name,t1_minutes,s2"] + [f"j{i},10,1.5" for i in range(n)]
        jobs.write_text("\n".join(lines) + "\n")
        result = run_cli(
            "schedule", "--jobs", str(jobs), "--gpus", "2", "--method", "permutation",
            "--out", str(tmp_path / f"o{n}"),
        )
        assert result.returncode == code, result.stderr
    assert result.stderr == "error: 11 jobs > limit 10\n"
    assert not (tmp_path / "o11").exists()


# the bundled jobs plus two more, as in test_cli_extra
_EIGHT_JOBS = (
    pc.sample_path("jobs.csv").read_text()
    + "extra_a,120,1.8,3.1,\nextra_b,45,1.6,2.4,3.0\n"
)


def test_schedule_eight_jobs_p4_permutation_matches_exact(tmp_path):
    jobs = tmp_path / "jobs8.csv"
    jobs.write_text(_EIGHT_JOBS)
    stdout, makespans = {}, {}
    for method in ("permutation", "exact"):
        out = tmp_path / method
        result = run_cli(
            "schedule", "--jobs", str(jobs), "--gpus", "4", "--method", method,
            "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        stdout[method] = result.stdout
        makespans[method] = json.loads((out / "schedule.json").read_text())["makespan_min"]
    # the space is 3^6 * 2^2 * 8! candidates, far more than the budget, but
    # the search visits 6 561 width vectors and about 219 000 nodes of it
    assert "(explored 264539520 candidates)" in stdout["permutation"]
    assert makespans == {"permutation": 1300.203094777563, "exact": 1300.203094777563}


@pytest.mark.parametrize("method, message", [
    # 729 width vectors plus 2 926 start-set nodes, and 2 664 dfs calls
    ("permutation", "width vectors + start-set nodes"),
    ("exact", "branch-and-bound nodes"),
])
def test_schedule_over_budget_exits_4_and_writes_nothing(
    tmp_path, monkeypatch, capsys, method, message
):
    monkeypatch.setattr(sched, "_SEARCH_BUDGET", 1000)
    out = tmp_path / "a" / "out"
    argv = ["schedule", "--jobs", JOBS, "--gpus", "4", "--method", method, "--out", str(out)]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == f"error: {message} > search budget 1000\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_schedule_refuses_too_many_width_vectors_at_once(tmp_path, capsys):
    # 10 jobs x 8 widths is 8^10 width vectors, refused before one is built
    jobs = tmp_path / "jobs.csv"
    jobs.write_text(
        "name,t1_minutes," + ",".join(f"s{w}" for w in range(2, 9)) + "\n"
        + "".join(f"j{i},10," + ",".join(str(0.9 * w) for w in range(2, 9)) + "\n"
                  for i in range(10))
    )
    argv = ["schedule", "--jobs", str(jobs), "--gpus", "8", "--widths", "1,2,3,4,5,6,7,8",
            "--out", str(tmp_path / "out")]
    t0 = time.perf_counter()
    assert cli.main(argv) == 4
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        "error: 1073741824 width vectors > search budget 4000000\n"
    )
    assert not (tmp_path / "out").exists()


def test_schedule_widths_flag(tmp_path):
    out = tmp_path / "out"
    result = run_cli(
        "schedule", "--jobs", JOBS, "--gpus", "8", "--widths", "1,2",
        "--method", "exact", "--out", str(out),
    )
    assert result.returncode == 0, result.stderr
    data = json.loads((out / "schedule.json").read_text())
    assert all(p["width"] in (1, 2) for p in data["placements"])


def _hash_outputs(root):
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[path.relative_to(root).as_posix()] = path.read_bytes()
    return digests


@pytest.mark.parametrize("gpus", ["1", "8"])
def test_full_pipeline_reruns_byte_identical(tmp_path, gpus):
    runs = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        r1 = run_cli("characterize", "--profiles", PROFILES, "--k", "4",
                     "--out", str(base / "chr"))
        r2 = run_cli("roofline", "--kernels", KERNELS, "--out", str(base / "roof"))
        r3 = run_cli("schedule", "--jobs", JOBS, "--gpus", "4",
                     "--method", "permutation", "--out", str(base / "sch"))
        r4 = run_cli("schedule", "--jobs", JOBS, "--gpus", gpus,
                     "--method", "exact", "--out", str(base / "exact"))
        assert (r1.returncode, r2.returncode, r3.returncode, r4.returncode) == (0, 0, 0, 0)
        runs.append(_hash_outputs(base))
    assert runs[0].keys() == runs[1].keys()
    for key in runs[0]:
        assert runs[0][key] == runs[1][key], f"{key} differs between reruns"


def test_out_naming_a_file_exits_2(tmp_path):
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    result = run_cli(
        "schedule", "--jobs", JOBS, "--gpus", "2", "--method", "heuristic",
        "--out", str(out),
    )
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in result.stderr
    assert out.read_text() == "keep me\n"


def test_failing_write_leaves_nothing_behind(tmp_path):
    out = tmp_path / "out"
    (out / "gantt.svg").mkdir(parents=True)
    result = run_cli(
        "schedule", "--jobs", JOBS, "--gpus", "2", "--method", "heuristic",
        "--out", str(out),
    )
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in result.stderr
    assert [p.name for p in out.iterdir()] == ["gantt.svg"]
    assert not any((out / "gantt.svg").iterdir())


def test_warnings_print_one_stable_line(tmp_path):
    result = run_cli(
        "characterize", "--profiles", PROFILES, "--k", "4", "--out", str(tmp_path / "out")
    )
    assert result.returncode == 0
    assert result.stderr == "warning: dropped zero-variance metric column(s): nvlink_mbps\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "name, command",
    [
        ("profiles", ["characterize", "--k", "4"]),
        ("jobs", ["schedule", "--gpus", "4", "--method", "heuristic"]),
        ("kernels", ["roofline"]),
    ],
)
def test_byte_order_mark_is_ignored(tmp_path, fmt, name, command):
    text = (
        pc.sample_path(f"{name}.csv").read_text() if fmt == "csv" else json_mirror(name)
    )
    trees = {}
    for tag, prefix in (("plain", ""), ("bom", "\ufeff")):
        path = tmp_path / tag / f"{name}.{fmt}"
        path.parent.mkdir()
        path.write_text(prefix + text, encoding="utf-8")
        out = tmp_path / tag / "out"
        result = run_cli(command[0], f"--{name}", str(path), *command[1:], "--out", str(out))
        assert result.returncode == 0, result.stderr
        trees[tag] = (_hash_outputs(out), result.stdout)
    assert trees["bom"] == trees["plain"]
    assert trees["plain"][0]


def test_characterize_cut_nan_exits_3(tmp_path):
    out = tmp_path / "out"
    result = run_cli("characterize", "--profiles", PROFILES, "--cut", "nan", "--out", str(out))
    assert result.returncode == 3
    assert "height must be >= 0" in result.stderr
    assert not out.exists()


ROOFLINE_HEADER = ("name", "intensity", "throughput", "classification")


def _roofline_csv_of(tmp_path, names):
    """roofline.csv of a run over one kernel class per name, each at 1000
    FLOPs over 10 transactions in 1 ms, and the reference writer's text of
    the rows that run should write."""
    tmp_path.mkdir()
    kernels = tmp_path / "k.json"
    kernels.write_text(json.dumps([
        {"class": n, "time_ms": 1.0, "calls": 1, "unique": 1, "flops": 1000, "transactions": 10}
        for n in names
    ]))
    out = tmp_path / "out"
    result = run_cli("roofline", "--kernels", str(kernels), "--out", str(out))
    assert result.returncode == 0, result.stderr
    intensity, throughput = pc.intensity(1000, 10), pc.throughput(1000, 1e-3)
    ridge = roof.parse_machine(pc.sample_path("machine.json").read_text()).ridge("single")
    classification = roof.classify_at(ridge, intensity)
    rows = [(n, intensity, throughput, classification) for n in names]
    return (out / "roofline.csv").read_bytes(), write_rows(ROOFLINE_HEADER, rows, "csv")


def test_roofline_csv_quotes_class_names(tmp_path):
    names = ["conv,1x1", 'say "hi"', 'a,"b",c', "carriage\rreturn", "new\nline"]
    written, reference = _roofline_csv_of(tmp_path / "mixed", names)
    with open(tmp_path / "mixed" / "out" / "roofline.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "intensity", "throughput", "classification"]
    assert all(len(row) == 4 for row in rows)
    assert [row[0] for row in rows[1:]] == names
    assert written == reference.encode()
    # a lone CR, in the only name that needs quoting, quotes every cell
    written, reference = _roofline_csv_of(tmp_path / "cr", ["conv", "lone\rcr", "relu"])
    assert written == reference.encode()
    lines = written.decode().split("\n")
    assert lines.pop() == "" and len(lines) == 4
    assert all(
        cell.startswith('"') and cell.endswith('"') for line in lines for cell in line.split(",")
    )


# the cells a roofline row can hold: any name (the CLI's are stripped and
# non-empty), intensities and throughputs from 0.0 to inf, the three labels
ROOFLINE_RATES = st.one_of(
    st.floats(0.0, allow_nan=False), st.sampled_from([0.0, 1e-300, math.inf])
)
ROOFLINE_ROWS = st.tuples(
    st.text(st.sampled_from(',"\n\r ab'), min_size=1, max_size=4),
    ROOFLINE_RATES,
    ROOFLINE_RATES,
    st.sampled_from([roof.MEMORY_BOUND, roof.COMPUTE_BOUND, roof.AT_RIDGE]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ROOFLINE_ROWS, max_size=5))
@example([("a,b", 0.0, 1e-300, roof.MEMORY_BOUND), ('"a"', math.inf, 2.5, roof.AT_RIDGE)])
@example([("a\nb", 1e-300, 0.0, roof.COMPUTE_BOUND), ("\r", 1.5, math.inf, roof.AT_RIDGE)])
def test_roofline_csv_equals_reference_writer(rows):
    # both quoting forms: minimal, and every cell when any name holds a CR;
    # the rates as the CLI holds them, in array("d") columns
    names, intensities, throughputs, labels = ([row[i] for row in rows] for i in range(4))
    pieces = cli._roofline_csv(names, array("d", intensities), array("d", throughputs), labels)
    assert "".join(pieces) == write_rows(ROOFLINE_HEADER, rows, "csv")


def _kernel_row(flops, transactions=10, time_ms=1.0):
    return f"k,{time_ms!r},1,1,{flops},{transactions}\n"


# each input overflows a float in the analysis, not in ingestion
OVERFLOWS = {
    "throughput": (_kernel_row(10**30, time_ms=1e-300), []),
    "plot-range": (_kernel_row(10**308, transactions=1, time_ms=1000.0),
                   ["--transaction-bytes", "1"]),
    "aggregate-flops": (_kernel_row(10**308) * 2, ["--aggregate"]),
    "aggregate-time": (_kernel_row(10**9, time_ms=1e308) * 2, ["--aggregate"]),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWS))
def test_roofline_overflow_exits_3_and_writes_nothing(tmp_path, case):
    rows, flags = OVERFLOWS[case]
    kernels = tmp_path / "k.csv"
    kernels.write_text("class,time_ms,calls,unique,flops,transactions\n" + rows)
    out = tmp_path / "out"
    result = run_cli("roofline", "--kernels", str(kernels), *flags, "--out", str(out))
    assert result.returncode == 3, result.stderr
    assert "overflow" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


# 5e-324 ms is a valid positive time, but 5e-324 / 1e3 is 0.0 s
UNDERFLOWS = {
    "per-class": ("ok" + _kernel_row(100) + _kernel_row(100, time_ms=5e-324), [],
                  "{path}: k: time_ms 5e-324 underflows to 0 s"),
    # the aggregate point is named by the file's stem
    "aggregate": (_kernel_row(100, time_ms=5e-324), ["--aggregate"],
                  "k: zero total kernel time"),
}


@pytest.mark.parametrize("case", sorted(UNDERFLOWS))
def test_roofline_time_that_underflows_to_zero_seconds_exits_3(tmp_path, case):
    rows, flags, reason = UNDERFLOWS[case]
    kernels = tmp_path / "k.csv"
    kernels.write_text("class,time_ms,calls,unique,flops,transactions\n" + rows)
    out = tmp_path / "out"
    result = run_cli("roofline", "--kernels", str(kernels), *flags, "--out", str(out))
    assert result.returncode == 3, result.stderr
    assert result.stderr == f"error: {reason.format(path=kernels)}\n"
    assert result.stdout == ""
    assert not out.exists()


def test_roofline_throughput_fits_although_flops_per_second_overflow(tmp_path):
    # 1e308 FLOPs in 1 ms is 1e311 FLOP/s, past a float, but 1e302 GFLOP/s
    kernels = tmp_path / "k.csv"
    kernels.write_text("class,time_ms,calls,unique,flops,transactions\n" + _kernel_row(10**308))
    out = tmp_path / "out"
    result = run_cli("roofline", "--kernels", str(kernels), "--out", str(out))
    assert result.returncode == 0, result.stderr
    with open(out / "roofline.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][2]) == 10**308 / 1e9 / 1e-3


# a plot bound just past 1e308, one case per axis: no tick may be 10.0 ** 309
NEAR_MAX_BOUNDS = {
    "y": ("big,2e-6,1,1,1.2e308,1\n", []),
    "x": ("wide,1000,1,1,1.2e308,1\n", ["--transaction-bytes", "2"]),
}


@pytest.mark.parametrize("axis", sorted(NEAR_MAX_BOUNDS))
def test_roofline_plot_bound_near_the_float_limit_writes_both_files(tmp_path, axis):
    row, flags = NEAR_MAX_BOUNDS[axis]
    kernels = tmp_path / "k.csv"
    kernels.write_text("class,time_ms,calls,unique,flops,transactions\n" + row)
    out = tmp_path / "out"
    result = run_cli("roofline", "--kernels", str(kernels), *flags, "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in out.iterdir()) == ["roofline.csv", "roofline.svg"]
    assert "1e308<" in (out / "roofline.svg").read_text()


def test_stderr_note_escapes_control_characters(tmp_path):
    # 1e12 FLOPs in 1e-6 ms is far past any configured ceiling
    kernels = tmp_path / "k.json"
    kernels.write_text(json.dumps([{"class": "hot\nclass", "time_ms": 1e-6, "calls": 1,
                                    "unique": 1, "flops": 1e12, "transactions": 10}]))
    result = run_cli("roofline", "--kernels", str(kernels), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("note: hot\\nclass throughput ")


def test_stderr_error_escapes_control_characters(tmp_path):
    result = run_cli("schedule", "--jobs", "nope\nfile.csv", "--gpus", "2",
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: cannot read nope\\nfile.csv: ")


def test_report_escapes_control_characters(tmp_path):
    kernels = tmp_path / "k.json"
    kernels.write_text(json.dumps([
        {"class": n, "time_ms": 1.0, "calls": 1, "unique": 1, "flops": 1000, "transactions": 10}
        for n in ("new\nline", "cr\rret")
    ]))
    result = subprocess.run(
        [sys.executable, "-m", "perf_charter.cli", "roofline", "--kernels", str(kernels),
         "--out", str(tmp_path / "out")],
        capture_output=True, env=cli_env(), timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.decode("utf-8").split("\n")
    assert lines.pop() == ""
    assert len(lines) == 3
    assert all(line.isprintable() for line in lines)
    assert lines[1].startswith("  new\\nline: ")
    assert lines[2].startswith("  cr\\rret: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["characterize", "--profiles", PROFILES, "--k", "4"],
        ["roofline", "--kernels", KERNELS],
        ["schedule", "--jobs", JOBS, "--gpus", "4", "--method", "heuristic"],
    ],
    ids=["characterize", "roofline", "schedule"],
)
def test_bundled_reports_print_unescaped(tmp_path, capsys, argv):
    args = cli.build_parser().parse_args([*argv, "--out", str(tmp_path / "a")])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, report = args.func(args)
    expected = "".join(f"{line}\n" for line in report)
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == expected


def test_closed_stdout_exits_2(tmp_path):
    # 20 000 report lines overflow any pipe buffer, so printing must hit the
    # closed pipe after the reader stops
    kernels = tmp_path / "k.json"
    kernels.write_text(json.dumps([
        {"class": f"k{i}", "time_ms": 1.0, "calls": 1, "unique": 1, "flops": 10**9 + i,
         "transactions": 10**7}
        for i in range(20_000)
    ]))
    with open(tmp_path / "stderr", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "perf_charter.cli", "roofline", "--kernels", str(kernels),
             "--out", str(tmp_path / "out")],
            stdout=subprocess.PIPE, stderr=err, env=cli_env(),
        )
        assert proc.stdout.readline().startswith(b"machine ")
        proc.stdout.close()
        assert proc.wait(timeout=300) == 2
        err.seek(0)
        stderr = err.read()
    assert stderr.startswith("error: cannot write to stdout: ")
    assert stderr.count("\n") == 1


def test_stdout_closed_at_start_exits_2(tmp_path):
    # with fd 1 closed before the interpreter starts, Python sets sys.stdout
    # to None; the files are still written, as when stdout closes later
    argv = ["schedule", "--jobs", JOBS, "--gpus", "2"]
    proc = subprocess.run(
        [sys.executable, "-m", "perf_charter.cli", *argv, "--out", str(tmp_path / "closed")],
        stderr=subprocess.PIPE, text=True, env=cli_env(), preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write to stdout: file descriptor 1 is closed\n"
    assert run_cli(*argv, "--out", str(tmp_path / "open")).returncode == 0
    for name in ("schedule.json", "gantt.svg"):
        assert (tmp_path / "closed" / name).read_bytes() == (tmp_path / "open" / name).read_bytes()


def _close_stderr():
    os.close(2)


def _read_only_stderr():
    fd = os.open(os.devnull, os.O_RDONLY)
    os.dup2(fd, 2)
    os.close(fd)


@pytest.mark.parametrize("setup", [_close_stderr, _read_only_stderr], ids=["closed", "read-only"])
def test_stderr_unwritable_at_start_keeps_the_exit_code(tmp_path, setup):
    # with fd 2 closed before start-up, Python sets sys.stderr to None; left
    # open read-only (as a launcher may leave it), each write raises OSError.
    # Either way the error line is dropped, and the exit code is the run's own
    def run_without_stderr(*argv):
        return subprocess.run(
            [sys.executable, "-m", "perf_charter.cli", *argv], stdout=subprocess.PIPE,
            env=cli_env(), preexec_fn=setup, timeout=300,
        )

    bad = tmp_path / "bad.csv"
    bad.write_text("name,t1_minutes,s2\na,0,1.5\n")
    proc = run_without_stderr("schedule", "--jobs", str(bad), "--gpus", "2",
                              "--out", str(tmp_path / "bad"))
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert not (tmp_path / "bad").exists()
    argv = ["schedule", "--jobs", JOBS, "--gpus", "2"]
    proc = run_without_stderr(*argv, "--out", str(tmp_path / "closed"))
    opened = run_cli(*argv, "--out", str(tmp_path / "open"))
    assert proc.returncode == opened.returncode == 0
    assert proc.stdout.decode() == opened.stdout
    for name in ("schedule.json", "gantt.svg"):
        assert (tmp_path / "closed" / name).read_bytes() == (tmp_path / "open" / name).read_bytes()


_ELEVEN_JOBS = "name,t1_minutes,s2\n" + "".join(f"j{i},10,1.5\n" for i in range(11))


# The CLI error contract: each rejected input's exit code and exact stderr.
# Inputs are written to the working directory, so the messages name them
# by their relative paths.
@pytest.mark.parametrize(
    "files, argv, code, stderr",
    [
        pytest.param(
            {"jobs.csv": "name,t1_minutes,s2\na,10,1.5\na,20,1.5\n"},
            ["schedule", "--jobs", "jobs.csv", "--gpus", "2"],
            2, "error: line 3: duplicate job name 'a'\n",
            id="duplicate-job-csv",
        ),
        pytest.param(
            {"jobs.json": '[{"name": "a", "t1_minutes": 10}, {"name": "a", "t1_minutes": 20}]'},
            ["schedule", "--jobs", "jobs.json", "--gpus", "2"],
            2, "error: line 2: duplicate job name 'a'\n",
            id="duplicate-job-json",
        ),
        pytest.param(
            {"p.csv": "name,suite,m\nw,Other,1\nw,Other,2\nv,Other,3\n"},
            ["characterize", "--profiles", "p.csv"],
            2, "error: line 3: duplicate workload name 'w'\n",
            id="duplicate-workload",
        ),
        pytest.param(
            {"p.csv": "name,suite,m\nonly,Other,1\n"},
            ["characterize", "--profiles", "p.csv"],
            2, "error: need at least 2 workloads, got 1\n",
            id="one-workload",
        ),
        pytest.param(
            {"p.csv": "name,suite,m\na,Other,1\nb,Other,1\n"},
            ["characterize", "--profiles", "p.csv"],
            3, "warning: dropped zero-variance metric column(s): m\n"
               "error: no metric column with nonzero variance\n",
            id="constant-metric",
        ),
        pytest.param(
            {"jobs.csv": "name,t1_minutes,s2\nj,0,1.5\n"},
            ["schedule", "--jobs", "jobs.csv", "--gpus", "2"],
            2, "error: line 2: t1_minutes must be > 0\n",
            id="zero-t1",
        ),
        pytest.param(
            {"jobs.csv": "name,t1_minutes,s2\nj,10,-2\n"},
            ["schedule", "--jobs", "jobs.csv", "--gpus", "2"],
            2, "error: line 2: s2 must be > 0\n",
            id="negative-speedup",
        ),
        pytest.param(
            {"jobs.csv": "name,t1_minutes,s4\nj,10,3\n"},
            ["schedule", "--jobs", "jobs.csv", "--gpus", "2", "--widths", "2"],
            3, "error: j has no speedup for width 2\n",
            id="missing-width",
        ),
        pytest.param(
            {"jobs.csv": _ELEVEN_JOBS},
            ["schedule", "--jobs", "jobs.csv", "--gpus", "2", "--method", "exact"],
            4, "error: 11 jobs > limit 10\n",
            id="exact-guard",
        ),
        pytest.param(
            {"jobs.csv": _ELEVEN_JOBS},
            ["schedule", "--jobs", "jobs.csv", "--gpus", "2", "--method", "permutation"],
            4, "error: 11 jobs > limit 10\n",
            id="permutation-guard",
        ),
        pytest.param(
            {"k.csv": "class,time_ms,calls,unique,flops,transactions\n"},
            ["roofline", "--kernels", "k.csv"],
            2, "error: k.csv: no kernel records\n",
            id="empty-kernels",
        ),
        pytest.param(
            {"m.json": '{"name": "m", "peaks": {"double": 7000}, "mem_bandwidth_gbps": 800}'},
            ["roofline", "--kernels", KERNELS, "--machine", "m.json"],
            3, "error: m has no 'single' peak\n",
            id="no-single-peak",
        ),
        pytest.param(
            # every kernel file is parsed before the machine's peaks are read
            {"k.csv": "class,time_ms\nx,1\n",
             "m.json": '{"name": "m", "peaks": {"double": 7000}, "mem_bandwidth_gbps": 800}'},
            ["roofline", "--kernels", "k.csv", "--machine", "m.json"],
            2, "error: line 1: header must be class,time_ms,calls,unique,flops,transactions\n",
            id="kernel-error-before-machine-peak",
        ),
        pytest.param(
            # checked before any file is read
            {},
            ["roofline", "--kernels", "missing.csv", "--machine", "missing.json",
             "--transaction-bytes", "0"],
            3, "error: transaction_bytes must be > 0\n",
            id="transaction-bytes",
        ),
        pytest.param(
            {},
            ["characterize", "--profiles", PROFILES, "--k", "99"],
            3, "warning: dropped zero-variance metric column(s): nvlink_mbps\n"
               "error: k must be in [1, 13], got 99\n",
            id="k-out-of-range",
        ),
    ],
)
def test_error_contract(tmp_path, monkeypatch, capsys, files, argv, code, stderr):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.main([*argv, "--out", "out"]) == code
    assert capsys.readouterr().err == stderr
    assert not (tmp_path / "out").exists()


def _kernels_json(name):
    return json.dumps([{"class": name, "time_ms": 1.0, "calls": 1, "unique": 1,
                        "flops": 100, "transactions": 10}])


def _machine_json(name, precision):
    return json.dumps({"name": name, "peaks": {"single": 14000, precision: 28000},
                       "mem_bandwidth_gbps": 900})


def _profiles_json(name, metric):
    return json.dumps([{"name": n, "suite": "MLPerf", metric: x, "y": y}
                       for n, x, y in ((name, 1, 2), ("b", 3, 1), ("c", 2, 5))])


# A name that UTF-8 cannot encode: a lone surrogate from a JSON "\ud800"
# escape, or the stem of a file name with an undecodable byte (argv gives it
# as "\udcff") once the stem labels points.  Each is an ingestion error that
# names its input, before any file is written.
_UNENCODABLE = "a\ud800b"
_UNDECODABLE_FILE = "x\udcff.json"


@pytest.mark.parametrize(
    "files, argv, stderr",
    [
        pytest.param(
            {"k.json": _kernels_json(_UNENCODABLE)},
            ["roofline", "--kernels", "k.json"],
            "error: line 1: kernel class name 'a\\ud800b' cannot be encoded as UTF-8\n",
            id="kernel-class",
        ),
        pytest.param(
            {"jobs.json": json.dumps([{"name": _UNENCODABLE, "t1_minutes": 10, "s2": 1.5},
                                      {"name": "b", "t1_minutes": 5, "s2": 1.5}])},
            ["schedule", "--jobs", "jobs.json", "--gpus", "2"],
            "error: line 1: job name 'a\\ud800b' cannot be encoded as UTF-8\n",
            id="job",
        ),
        pytest.param(
            {"p.json": _profiles_json(_UNENCODABLE, "x")},
            ["characterize", "--profiles", "p.json", "--k", "2"],
            "error: line 1: workload name 'a\\ud800b' cannot be encoded as UTF-8\n",
            id="workload",
        ),
        pytest.param(
            {"p.json": _profiles_json("a", _UNENCODABLE)},
            ["characterize", "--profiles", "p.json", "--k", "2"],
            "error: line 1: metric name 'a\\ud800b' cannot be encoded as UTF-8\n",
            id="metric",
        ),
        pytest.param(
            {"k.json": _kernels_json("k"), "m.json": _machine_json(_UNENCODABLE, "half")},
            ["roofline", "--kernels", "k.json", "--machine", "m.json"],
            "error: line 1: machine name 'a\\ud800b' cannot be encoded as UTF-8\n",
            id="machine",
        ),
        pytest.param(
            {"k.json": _kernels_json("k"), "m.json": _machine_json("m", _UNENCODABLE)},
            ["roofline", "--kernels", "k.json", "--machine", "m.json"],
            "error: line 1: peak name 'a\\ud800b' cannot be encoded as UTF-8\n",
            id="peak",
        ),
        pytest.param(
            {"k.json": _kernels_json("k"), _UNDECODABLE_FILE: _kernels_json("k")},
            ["roofline", "--kernels", "k.json", _UNDECODABLE_FILE],
            "error: x\\udcff.json: file name cannot be encoded as UTF-8\n",
            id="file-stem-prefix",
        ),
        pytest.param(
            {_UNDECODABLE_FILE: _kernels_json("k")},
            ["roofline", "--kernels", _UNDECODABLE_FILE, "--aggregate"],
            "error: x\\udcff.json: file name cannot be encoded as UTF-8\n",
            id="file-stem-aggregate",
        ),
    ],
)
def test_name_that_utf8_cannot_encode_exits_2(tmp_path, monkeypatch, capsys, files, argv,
                                              stderr):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.main([*argv, "--out", "out"]) == 2
    assert capsys.readouterr() == ("", stderr)
    assert not (tmp_path / "out").exists()


def test_undecodable_file_name_that_labels_nothing_is_read(tmp_path):
    # one file without --aggregate: its stem labels no point
    kernels = tmp_path / _UNDECODABLE_FILE
    kernels.write_text(_kernels_json("k"))
    out = tmp_path / "out"
    result = run_cli("roofline", "--kernels", str(kernels), "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in out.iterdir()) == ["roofline.csv", "roofline.svg"]
