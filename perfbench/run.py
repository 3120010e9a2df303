"""Benchmark of the perf-charter CLI on seeded inputs.

Run from the root of a perf-charter checkout:

    python3 perfbench/run.py --workload sched-exact --seed 1 --seconds 30 --trace 0

One client runs the workload's CLI commands in a closed loop, each command in
a fresh interpreter started by spawner.py and one at a time, until
``--seconds`` is spent (at least one batch).  calibrate.py runs between the
commands, and the reported times are scaled by its time to a reference host
speed.  Every output is checked against references the benchmark computes
itself.  ``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` instead calls ``cli.main`` in-process, once
plain and once with the public functions of each module wrapped in spans,
and reports the per-layer metrics.  The last line of stdout is the JSON
result; the environment, the per-batch figures and the spans go to
``.perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 10
CALIBRATE = Path(__file__).with_name("calibrate.py")
# calibrate.py's median time, spawn to exit, on a 2-vCPU Xeon VM in a quiet
# spell: the host speed that the reported seconds are scaled to
CALIBRATE_REF_S = 0.35
# calibration time after a command, as a share of the command's: one
# calibrate.py time spreads as widely within a run as one command's, so the
# two get about the same time
CALIBRATE_SHARE = 0.5


def tree_digest(out: Path) -> str:
    """sha256 over every file under ``out``: relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def tree_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def source_digest() -> str:
    return tree_digest(SRC / "perf_charter")[:16]


class Spawner:
    """The process that starts and times every measured command (spawner.py)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, argv: list[str], stderr: Path) -> tuple[float, int, float]:
        """(seconds from spawn to exit, exit code, max RSS in MB) of one command."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr)}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["elapsed"], reply["code"], reply["rss_mb"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def environment(args) -> dict:
    import numpy
    import scipy

    import perf_charter

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(), "cpu_model": cpu,
        "perf_charter_env": {k: v for k, v in os.environ.items() if k.startswith("PERF_CHARTER_")},
        "backend": getattr(perf_charter, "BACKEND", None),
        "source": source_digest(),
    }


class Run:
    """One benchmark run: generated inputs, the closed loop, checks, metrics."""

    def __init__(self, args):
        import checks
        import gen

        self.args = args
        self.dir = WORK / "runs" / args.workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.commands, self.ref = gen.generate(args.workload, args.seed, self.dir / "inputs")
        self.attempted = 0
        self.failed: set = set()      # (batch, command) pairs
        self.notes: list[str] = []
        self.costs: list[float] = []
        self.self_tested = None
        self.bad_digests: set[str] = set()   # outputs that failed their check
        self.first: tuple[str, list] | None = None   # first batch and its output digests
        self.kind = kind = gen.WORKLOADS[args.workload]
        if kind == "schedule":
            self.check = lambda i, out: checks.check_schedule(
                out, self.ref["mixes"][i], self.ref["gpus"], self.ref["method"])
        elif kind == "characterize":
            self.check = lambda i, out: checks.check_characterize(out, self.ref)
        else:
            self.check = lambda i, out: checks.check_roofline(out, self.ref, gen.TRANSACTION_BYTES)

    def out(self, batch: str, i: int) -> Path:
        return self.dir / batch / f"{i:02d}"

    def fail(self, key, message: str) -> None:
        self.failed.add(key)
        self.notes.append(message)

    def check_outputs(self, batch: str) -> list[str]:
        """Check every output of one batch; return their digests."""
        import checks

        digests = []
        for i in range(len(self.commands)):
            out = self.out(batch, i)
            if (batch, i) in self.failed:
                digests.append(None)
                continue
            try:
                errors, cost = self.check(i, out)
            except Exception as exc:  # a malformed output must count, not crash the run
                errors, cost = [f"check raised {type(exc).__name__}: {exc}"], None
            if errors:
                self.fail((batch, i), f"{batch}/{i:02d}: " + "; ".join(errors[:3]))
                self.bad_digests.add(tree_digest(out))
            else:
                self.costs.append(cost)
                if self.self_tested is None:
                    self.self_tested = checks.self_test(
                        self.kind, out, self.dir / "selftest", lambda o, i=i: self.check(i, o))
                    if not self.self_tested:
                        self.notes.append(f"self-test: the {self.kind} check missed a corruption")
            digests.append(tree_digest(out))
        return digests

    def verify(self, batch: str) -> None:
        """Check the first batch's outputs; later batches must repeat them byte for byte."""
        if self.first is None:
            self.first = batch, self.check_outputs(batch)
            return
        digests = [None if (batch, i) in self.failed else tree_digest(self.out(batch, i))
                   for i in range(len(self.commands))]
        self.compare(batch, digests, self.first[1])
        shutil.rmtree(self.dir / batch)

    def compare(self, batch: str, digests: list, reference: list) -> None:
        for i, (got, want) in enumerate(zip(digests, reference)):
            if (batch, i) in self.failed:
                continue
            if got in self.bad_digests:
                self.fail((batch, i), f"{batch}/{i:02d}: repeats an output that failed its check")
            elif got is not None and want is not None and got != want:
                self.fail((batch, i), f"{batch}/{i:02d}: output differs from the first run")

    def record(self, counters: dict | None) -> None:
        """Outputs and counters must repeat across runs on the same inputs and source."""
        batch, digests = self.first
        inputs = tree_digest(self.dir / "inputs")[:16]
        path = WORK / "records" / f"{self.args.workload}-{inputs}-{source_digest()}.json"
        old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        if "digests" in old:
            self.compare(batch, digests, old["digests"])
        if counters is not None and old.get("counters") not in (None, counters):
            self.fail((batch, "counters"), f"counters {counters} != earlier run {old['counters']}")
        if None not in digests:
            old.setdefault("digests", digests)
        if counters is not None:
            old.setdefault("counters", counters)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(old, indent=1) + "\n", encoding="utf-8")

    # --- end to end: each command in a fresh process ------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        log = self.dir / "stderr.log"
        setup = []

        def probe_setup():
            elapsed, code, _ = spawner.run([sys.executable, "-c", "import perf_charter.cli"], log)
            self.attempted += 1
            if code != 0:
                self.fail(("setup", len(setup)), f"import perf_charter.cli exited {code}")
            setup.append(elapsed)

        with Spawner(env) as spawner:
            spawner.run([sys.executable, "-c", "import perf_charter.cli"], log)  # bytecode caches
            calibrations = []

            def calibrate(after: float) -> None:
                """Run calibrate.py once, and on for CALIBRATE_SHARE of ``after`` s."""
                spent = 0.0
                while spent == 0.0 or spent < CALIBRATE_SHARE * after:
                    elapsed, code, _ = spawner.run([sys.executable, str(CALIBRATE)], log)
                    if code != 0:
                        raise RuntimeError(f"calibrate.py exited {code}; see {log}")
                    calibrations.append(elapsed)
                    spent += elapsed

            # half the probes before the loop and half after, so a slow spell
            # of the machine weighs on setup_s no more than on wall_s; the
            # probes count in --seconds
            start = time.perf_counter()
            for _ in range(SETUP_PROBES // 2):
                probe_setup()
            probes = time.perf_counter() - start

            walls, rss = [], []
            while True:
                batch = f"batch{len(walls)}"
                wall = 0.0
                for i, command in enumerate(self.commands):
                    argv = [sys.executable, "-m", "perf_charter.cli", *command,
                            "--out", str(self.out(batch, i))]
                    elapsed, code, peak = spawner.run(argv, log)
                    self.attempted += 1
                    wall += elapsed
                    rss.append(peak)
                    if code != 0:
                        self.fail((batch, i), f"{batch}/{i:02d}: exit code {code}")
                    calibrate(elapsed)
                walls.append(wall)
                self.verify(batch)
                spent = time.perf_counter() - start
                if spent + (spent - probes) / len(walls) + probes > self.args.seconds:
                    break
            for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
                probe_setup()
        self.record(None)
        # the host's speed drifts by a third over minutes; both times are
        # scaled to the speed at which calibrate.py takes CALIBRATE_REF_S.
        # Means, not medians: calibrate.py's times fall in two clusters, and
        # a median of a few of them jumps from one to the other.
        scale = CALIBRATE_REF_S / statistics.fmean(calibrations)
        metrics = {
            "wall_s": statistics.fmean(walls) * scale,
            "setup_s": statistics.median(setup) * scale,
            "peak_rss_mb": max(rss),
            # no output passed its check: there is no cost to report, and correct is false
            "result_cost": statistics.fmean(self.costs) if self.costs else None,
        }
        return metrics, {"batch_wall_s": walls, "setup_s": setup, "calibrate_s": calibrations,
                         "scale": scale, "rss_mb": rss}

    # --- traced: cli.main in-process, plain and wrapped ---------------------

    def in_process(self, batch: str, tracer) -> tuple[float, int]:
        from perf_charter import cli

        total, out_bytes = 0.0, 0
        for i, command in enumerate(self.commands):
            argv = [*command, "--out", str(self.out(batch, i))]
            sink = io.StringIO()
            self.attempted += 1
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = tracer.call("cli.main", cli.main, argv) if tracer else cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed command
                code = f"{type(exc).__name__}: {exc}"
            total += time.perf_counter() - start
            if code != 0:
                self.fail((batch, i), f"{batch}/{i:02d}: cli.main returned {code}")
            else:
                out_bytes += tree_bytes(self.out(batch, i))
        return total, out_bytes

    def traced(self) -> tuple[dict, dict]:
        import spans

        modules = {}
        for name in (*spans.SPANS, "cli"):
            try:
                modules[name] = importlib.import_module(f"perf_charter.{name}")
            except ModuleNotFoundError:
                pass   # its functions are reported as absent
        plain_s, traced_s, layer_times, counters, dumps = [], [], [], [], []
        start = time.perf_counter()
        while True:
            rep = len(plain_s)
            plain, _ = self.in_process(f"plain{rep}", None)
            tracer = spans.Tracer(modules)
            tracer.install()
            try:
                wrapped, out_bytes = self.in_process(f"traced{rep}", tracer)
            finally:
                tracer.uninstall()
            plain_s.append(plain)
            traced_s.append(wrapped)
            times, counts = tracer.layer_metrics()
            counts["cli.out_bytes"] = out_bytes
            layer_times.append(times)
            counters.append(counts)
            dumps.append(tracer.dump())
            self.verify(f"plain{rep}")
            self.verify(f"traced{rep}")
            if counts != counters[0]:
                self.fail((f"traced{rep}", "counters"), f"counters {counts} != first {counters[0]}")
            if time.perf_counter() - start + plain + wrapped > self.args.seconds:
                break
        self.record(counters[0])
        if dumps[0]["absent"]:
            self.notes.append(f"absent, reported as 0: {', '.join(dumps[0]['absent'])}")
        metrics = {name: statistics.median(t[name] for t in layer_times) for name in layer_times[0]}
        metrics.update(counters[0])
        metrics["trace.overhead_pct"] = 100.0 * (sum(traced_s) / sum(plain_s) - 1.0)
        return metrics, {"plain_s": plain_s, "traced_s": traced_s, "trace": dumps[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "perf_charter" / "cli.py").is_file():
        print(f"error: no perf_charter sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {list(gen.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args)
    metrics, detail = run.traced() if args.trace else run.end_to_end()
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": not run.failed and bool(run.self_tested),
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    env = environment(args)
    results = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({"env": env, "result": result, "notes": run.notes,
                                   "detail": detail}, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(run.dir, ignore_errors=True)
    for note in run.notes:
        print(f"note: {note}")
    print(f"env: {json.dumps(env)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
