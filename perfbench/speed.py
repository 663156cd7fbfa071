"""Machine-speed probe: a second process that times a fixed kernel while runs are measured.

On a shared host the same work can take twice as long from one minute to
the next (see README.md, "Timing on a shared host"). While measured runs go
on, the probe process times a small fixed kernel (interpreter loops, dict
and string work, small numpy calls; nothing from lingalloc) on the CPUs the
runs use, one CPU after another, and pauses INTERVAL_S seconds times the
slowdown it measured, so that it takes the same share of a CPU it shares
with a run at any speed. A run's slowdown is the mean kernel CPU time of the
samples taken during it over NOMINAL_S; its time divided by the slowdown is
its time at nominal speed.

    python3 perfbench/speed.py <samples file> <cpu>...

runs the probe until its standard input is closed; `SpeedProbe` starts and
stops it.
"""

import itertools
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Warm kernel CPU seconds at full speed on a 2-vCPU Intel Xeon virtual
# machine at 2.0 GHz (Python 3.11, numpy 2.4). Only a scale: normalized
# times are in seconds at that speed.
NOMINAL_S = 0.0062
INTERVAL_S = 0.3

_MATRIX = np.random.default_rng(0).normal(size=(24, 24))


def kernel() -> float:
    """A fixed mix of the operations lingalloc spends its time in."""
    acc = 0
    counts = {}
    for i in range(24000):
        key = i * 2654435761 % 997
        counts[key] = counts.get(key, 0) + 1
        acc += key
    words = [f"tok{i}_{i % 13}" for i in range(4000)]
    acc += len({w: len(w) for w in words})
    rows = _MATRIX.tolist()
    for row in rows:
        acc += max(range(len(row)), key=row.__getitem__)
    for j in range(400):
        col = _MATRIX[:, j % 24].copy()
        col[j % 24] = -np.inf
        acc += int(np.argmax(col))
    acc += float((_MATRIX @ _MATRIX).sum())
    return acc


def probe(path: Path, cpus: list[int]) -> None:
    """Append "<monotonic time> <kernel CPU seconds>" lines to `path` until stdin closes."""
    with path.open("a") as out:
        for cpu in itertools.cycle(cpus):
            os.sched_setaffinity(0, {cpu})
            kernel()  # the first pass after a move or a pause runs on cold caches
            cpu0 = time.process_time()
            kernel()
            took = time.process_time() - cpu0
            out.write(f"{time.monotonic()} {took}\n")
            out.flush()
            if select.select([sys.stdin], [], [], INTERVAL_S * took / NOMINAL_S)[0]:
                return


class SpeedProbe:
    """The probe process, sampling `cpus` from `__enter__` to `__exit__`."""

    def __init__(self, path: Path, cpus):
        self.path = path
        self.cpus = sorted(cpus)
        self.samples = []
        self._process = None

    def __enter__(self):
        self.path.write_text("")
        self._process = subprocess.Popen(
            [sys.executable, __file__, str(self.path), *map(str, self.cpus)],
            stdin=subprocess.PIPE)
        deadline = time.monotonic() + 60
        while not self.path.read_text():  # first sample taken
            if self._process.poll() is not None or time.monotonic() > deadline:
                self.__exit__(None, None, None)
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc):
        self._process.stdin.close()
        try:
            self._process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self.samples = [tuple(map(float, line.split()))
                        for line in self.path.read_text().splitlines()]
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over NOMINAL_S, for samples taken between two
        `time.monotonic()` readings (the nearest sample if none was)."""
        inside = [took for at, took in self.samples if start <= at <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - middle))[1]]
        return statistics.fmean(inside) / NOMINAL_S


if __name__ == "__main__":
    probe(Path(sys.argv[1]), [int(cpu) for cpu in sys.argv[2:]])
