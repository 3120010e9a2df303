"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` built from the workload name
and the run's seed, so the same seed writes byte-identical inputs.  Each
returns the CLI argument lists to run (without ``--out``, which the runner
appends) plus the generated data the output checks compare against.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CANONICAL = (
    "pcie_util_pct", "gpu_util_pct", "cpu_util_pct", "ddr_footprint_mb",
    "hbm2_footprint_mb", "flop_throughput_gflops", "mem_throughput_gbps", "epochs",
)
EXTRAS = tuple(f"extra_{i:02d}" for i in range(8))
SUITES = ("MLPerf", "DAWNBench", "DeepBench", "Other")
MACHINE = {
    "name": "bench-V100",
    "peaks": {"double": 7000.0, "single": 14000.0, "half": 28000.0},
    "mem_bandwidth_gbps": 800.0,
}
TRANSACTION_BYTES = 32

# The six jobs measured for the paper, as bundled in perf_charter's
# data/jobs.csv: (name, minutes on one GPU, speedup on 2, 4 and 8 GPUs).
# Copied here so that an edit to the program's data leaves the inputs alone.
MEASURED_JOBS = (
    ("Res50_TF", 1016.9, 1.92, 3.84, 7.04),
    ("Res50_MX", 957.0, 1.92, 3.76, 5.92),
    ("SSD_Py", 206.1, 1.94, 3.72, 7.28),
    ("MRCNN_Py", 1840.4, 1.76, 2.64, 5.60),
    ("XFMR_Py", 636.0, 1.42, 2.92, 5.60),
    ("NCF_Py", 2.2, 1.88, 2.16, 2.32),
)
# widths 1 and 2: 2^6 * 6! = 46 080 candidates, ~2.4 s a command.  At 4 GPUs
# (524 880 candidates, 22-37 s) a run held one command, and one sample could
# not average out the host's drift.
PERMUTATION_GPUS = 2
EXACT_GPUS = 8         # widths 1, 2, 4, 8
EXACT_MIXES = 14       # one mix's search time varies ~2x with the seed; a batch averages it
PROFILE_ROWS = 384
CHARACTERIZE_K = 8
KERNEL_FILES = 96
KERNEL_CLASSES = 400


def job_mix(rng: random.Random, gpus: int) -> list[dict]:
    """The measured jobs in a seeded order, each with seeded jitter.

    One-GPU minutes vary by a log-normal factor (sigma 0.15) and each speedup
    by up to 5%.  Every mix holds each measured job once: the short, poorly
    scaling NCF_Py next to the long MRCNN_Py, as in the paper.  Resampling
    the rows instead makes the search time of one mix vary more than 30x,
    too much for a batch to average out.  Speedups are kept for widths up
    to ``gpus``.
    """
    rows = list(MEASURED_JOBS)
    rng.shuffle(rows)
    jobs = []
    for i, (_, t1, *speedups) in enumerate(rows):
        jobs.append({
            "name": f"job{i}",
            "t1_minutes": round(t1 * rng.lognormvariate(0.0, 0.15), 1),
            "speedup": {w: round(s * rng.uniform(0.95, 1.05), 2)
                        for w, s in zip((2, 4, 8), speedups) if w <= gpus},
        })
    return jobs


def _write_jobs_csv(path: Path, jobs: list[dict]) -> None:
    widths = list(jobs[0]["speedup"])
    lines = ["name,t1_minutes," + ",".join(f"s{w}" for w in widths)]
    lines += [f"{j['name']},{j['t1_minutes']!r}," + ",".join(repr(j["speedup"][w]) for w in widths)
              for j in jobs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _schedule_workload(rng, inputs: Path, n_mixes: int, gpus: int, method: str):
    commands, mixes = [], []
    for m in range(n_mixes):
        jobs = job_mix(rng, gpus)
        path = inputs / f"jobs{m:02d}.csv"
        _write_jobs_csv(path, jobs)
        mixes.append(jobs)
        commands.append(["schedule", "--jobs", str(path), "--gpus", str(gpus),
                         "--method", method])
    return commands, {"mixes": mixes, "gpus": gpus, "method": method}


def _characterize_workload(rng, inputs: Path):
    """Workloads drawn around a dozen latent centres, so the clusters are real."""
    metrics = CANONICAL + EXTRAS
    centres = [[rng.uniform(10.0, 1000.0) for _ in metrics] for _ in range(12)]
    names, rows = [], []
    for i in range(PROFILE_ROWS):
        centre = centres[rng.randrange(len(centres))]
        names.append(f"w{i:03d}")
        rows.append([round(c * rng.lognormvariate(0.0, 0.25), 4) for c in centre])
    lines = ["name,suite," + ",".join(metrics)]
    for i, (name, row) in enumerate(zip(names, rows)):
        lines.append(f"{name},{SUITES[i % len(SUITES)]}," + ",".join(repr(v) for v in row))
    path = inputs / "profiles.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    command = ["characterize", "--profiles", str(path), "--k", str(CHARACTERIZE_K)]
    return [command], {"names": names, "metrics": list(metrics), "rows": rows,
                       "k": CHARACTERIZE_K}


def _roofline_workload(rng, inputs: Path):
    machine = inputs / "machine.json"
    machine.write_text(json.dumps(MACHINE, indent=2) + "\n", encoding="utf-8")
    files, paths = {}, []
    for f in range(KERNEL_FILES):
        records = []
        for c in range(KERNEL_CLASSES):
            transactions = rng.randrange(10**8, 10**11)
            intensity = rng.lognormvariate(2.0, 1.5)
            flops = int(transactions * TRANSACTION_BYTES * intensity)
            # run each class at a share of its roofline ceiling, so no point sits above it
            ceiling = min(MACHINE["peaks"]["single"], MACHINE["mem_bandwidth_gbps"] * intensity)
            seconds = flops / (ceiling * 1e9 * rng.uniform(0.05, 0.9))
            records.append({
                "class": f"k{c:03d}",
                "time_ms": round(seconds * 1e3, 6),
                "calls": rng.randrange(1, 100000),
                "unique": rng.randrange(1, 50),
                "flops": flops,
                "transactions": transactions,
            })
        path = inputs / f"bench{f:02d}.json"
        path.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
        files[path.stem] = records
        paths.append(str(path))
    command = ["roofline", "--kernels", *paths, "--machine", str(machine)]
    return [command], {"files": files, "machine": MACHINE}


def generate(workload: str, seed: int, inputs: Path):
    """Write the workload's inputs under ``inputs``; return (commands, reference data)."""
    rng = random.Random(f"{workload}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "sched-permutation":
        return _schedule_workload(rng, inputs, 1, PERMUTATION_GPUS, "permutation")
    if workload == "sched-exact":
        return _schedule_workload(rng, inputs, EXACT_MIXES, EXACT_GPUS, "exact")
    if workload == "characterize-wide":
        return _characterize_workload(rng, inputs)
    if workload == "roofline-json":
        return _roofline_workload(rng, inputs)
    raise ValueError(f"unknown workload {workload!r}")


# workload -> the CLI subcommand it runs
WORKLOADS = {
    "sched-permutation": "schedule",
    "sched-exact": "schedule",
    "characterize-wide": "characterize",
    "roofline-json": "roofline",
}
