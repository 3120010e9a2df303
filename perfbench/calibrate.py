"""Fixed work that gauges how fast the host runs at the moment.

run.py runs this file in a fresh interpreter between the measured commands,
started and timed the same way, and scales the command times by how long
it took (see README.md, "Host speed").  It is the benchmark's own code and
imports nothing from perf_charter, so a change to the program leaves its
time alone.  The work mixes what the commands do: interpreter start-up and
the numpy import, numpy arithmetic and sorting, pure-Python loops over
dicts and strings, and a pure-Python loop on ``os.cpu_count()`` threads
that pass the GIL between them, as the program's threaded permutation
search does.  Without the threaded part the
scaling followed the threaded search poorly: on a busy host the search
slowed by up to 1.7x while the single-threaded work slowed by 1.3x.
"""

from __future__ import annotations

import os
import threading

import numpy as np


def loop(n: int) -> dict[int, float]:
    totals: dict[int, float] = {}
    for i in range(n):
        key = i % 2048
        totals[key] = totals.get(key, 0.0) + (i * 0.5) ** 0.5
    return totals


def main() -> None:
    # no matrix product: the program's are tiny, and BLAS threads that
    # spin-wait made this script's time jump on a busy host
    v = np.random.default_rng(0).random(200_000)
    for _ in range(8):
        v = np.sort(np.sqrt(v + 0.5) * 0.75)
        np.abs(np.subtract.outer(v[:300], v[:300])).min(axis=1)
    loop(80_000)
    text = ",".join(repr(i * 0.25) for i in range(25_000))
    sum(float(x) for x in text.split(","))
    threads = [threading.Thread(target=loop, args=(100_000,)) for _ in range(os.cpu_count() or 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


if __name__ == "__main__":
    main()
