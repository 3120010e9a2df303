"""Spans around the public functions of each perf_charter module.

``Tracer.install`` swaps module attributes for timing wrappers.  The CLI
calls them as ``sched.exact_schedule``, ``clus.agglomerate`` and so on, and
calls inside a module go through its globals, so every call on the CLI path
is seen without changing the program.  Spans (name, start, end, parent) stay
in memory; self time is a span minus the time its children cover.  Calls on
worker threads are not traced: every wrapped function runs on the caller's
thread today.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Public functions traced as spans, per module.  A name the program no longer
# has is reported as absent rather than wrapped.
SPANS = {
    "model": ("parse_workload_profiles", "matrix_from_profiles", "parse_kernels",
              "parse_jobs"),
    "stats": ("fit_pca", "jacobi_eigen"),
    "cluster": ("pairwise_distances", "agglomerate", "cut", "cut_k",
                "select_representatives", "coverage"),
    "roofline": ("machine_from_dict", "workload_point"),
    "sched": ("naive_schedule", "heuristic_schedule", "list_schedule",
              "permutation_search", "exact_schedule"),
    "svg": ("dendrogram_svg", "roofline_svg", "gantt_svg", "scatter_svg"),
}
# Called about 10^5 times per roofline run: aggregated as a count and a total.
LEAVES = {"roofline": ("intensity", "throughput", "classify", "attainable")}

# Work counters taken from a traced function's return value.
COUNTERS = {
    "sched.permutation_search": ("sched.candidates", lambda r: r[1]),
    "model.parse_workload_profiles": ("model.records", len),
    "model.parse_kernels": ("model.records", len),
    "model.parse_jobs": ("model.records", len),
    "cluster.agglomerate": ("cluster.leaves", lambda r: len(r.leaves)),
    "stats.fit_pca": ("stats.metrics", lambda r: len(r.metric_names)),
    **{f"svg.{name}": ("svg.bytes", lambda r: len(r.encode("utf-8"))) for name in SPANS["svg"]},
}

# Per-layer times: the summed self time of these functions.
LAYER_TIMES = {
    "sched.permutation_s": ("sched.permutation_search",),
    "sched.exact_s": ("sched.exact_schedule",),
    "sched.heuristic_s": ("sched.heuristic_schedule",),
    "sched.naive_s": ("sched.naive_schedule",),
    "sched.list_schedule_s": ("sched.list_schedule",),
    "cluster.distances_s": ("cluster.pairwise_distances",),
    "cluster.agglomerate_s": ("cluster.agglomerate",),
    "cluster.select_s": ("cluster.cut", "cluster.cut_k", "cluster.select_representatives",
                         "cluster.coverage"),
    "stats.fit_pca_s": ("stats.fit_pca",),
    "stats.jacobi_eigen_s": ("stats.jacobi_eigen",),
    "model.parse_s": tuple(f"model.{name}" for name in SPANS["model"]),
    "roofline.points_s": tuple(f"roofline.{name}" for name in
                               SPANS["roofline"] + LEAVES["roofline"]),
    "svg.render_s": tuple(f"svg.{name}" for name in SPANS["svg"]),
    "cli.self_s": ("cli.main",),
}
CALL_COUNTS = {
    "sched.list_schedule.calls": ("sched.list_schedule",),
    "roofline.calls": tuple(f"roofline.{name}" for name in SPANS["roofline"] + LEAVES["roofline"]),
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []          # [name, start, end, parent index, child time]
        self.stack: list[int] = []
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for table, wrap in ((SPANS, self._span), (LEAVES, self._leaf)):
            for module_name, names in table.items():
                module = self.modules.get(module_name)
                for name in names:
                    fn = getattr(module, name, None)
                    if not callable(fn):
                        self.absent.append(f"{module_name}.{name}")
                        continue
                    self._saved.append((module, name, fn))
                    setattr(module, name, wrap(f"{module_name}.{name}", fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a span of its own (the root of a CLI call)."""
        return self._span(name, fn)(*args)

    def _span(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name, time.perf_counter(), 0.0, parent, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent][4] += span[2] - span[1]
            if counter is not None:
                self.counters[counter[0]] += counter[1](result)
            return result

        return traced

    def _leaf(self, name: str, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.leaf_calls[name] += 1
                self.leaf_time[name] += elapsed
                if self.stack:
                    self.spans[self.stack[-1]][4] += elapsed

        return traced

    def self_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float, self.leaf_time)
        for name, start, end, _, child in self.spans:
            totals[name] += end - start - child
        return totals

    def call_counts(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int, self.leaf_calls)
        for span in self.spans:
            counts[span[0]] += 1
        return counts

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """(per-layer self times in s, deterministic work counters)."""
        own = self.self_times()
        calls = self.call_counts()
        times = {metric: sum(own.get(n, 0.0) for n in names)
                 for metric, names in LAYER_TIMES.items()}
        counts = {metric: sum(calls.get(n, 0) for n in names)
                  for metric, names in CALL_COUNTS.items()}
        for metric, _ in COUNTERS.values():
            counts[metric] = self.counters.get(metric, 0)
        return times, counts

    def dump(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p, _ in self.spans],
            "leaves": {n: {"calls": self.leaf_calls[n], "total_s": self.leaf_time[n]}
                       for n in self.leaf_calls},
            "absent": self.absent,
        }
