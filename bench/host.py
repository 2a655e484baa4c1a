"""Host fingerprint and /proc readings shared by the benchmark's files."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sysconfig
import time
from pathlib import Path

import numpy as np


def usable_cpus() -> int:
    """CPUs this process may run on (affinity mask, not the machine's count)."""
    return len(os.sched_getaffinity(0))


def seconds_since_process_start() -> float:
    """Wall time since the kernel created this process.

    ``/proc/self/stat`` field 22 is the start time in clock ticks after
    boot, so the reading includes interpreter start-up, which no clock
    started from inside Python can see.  Resolution is one tick (10 ms).
    """
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pids) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of *pids*, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


class Calibration:
    """A fixed piece of interpreter and small-array work, timed between units
    of work, that says how fast the host was running during a window.

    On the shared hosts this benchmark runs on, CPU-bound work speeds up and
    slows down by 10-30% for seconds to minutes at a time: whole runs are
    fast or slow, so no statistic taken inside one run filters it.  The loop
    below depends on nothing in the repository, so its time moves with the
    host alone; dividing a window's timings by :attr:`slowdown` cancels the
    part of the drift the loop shares with the workload.  Its three parts
    (in-place array arithmetic, bare interpreter, small temporaries with
    object churn) take about a third of the time each, because the
    workloads differ in which of them they resemble.  ``bench/NOISE.md`` has
    the paired measurements (same runs, raw against calibrated) that this
    rests on.
    """

    #: seconds one call takes on this class of host when it is quiet; only
    #: fixes the scale of the calibrated numbers, not their comparisons
    NOMINAL_S = 3.8e-3

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((4, 64, 64))
        self._b = np.empty_like(self._a)
        self._patch = rng.random((5, 12, 12))
        #: seconds per repetition of each call, in call order
        self.samples: list[float] = []

    def __call__(self, reps: int = 1) -> None:
        a, b, patch = self._a, self._b, self._patch
        t0 = time.perf_counter()
        for _ in range(reps):
            for _ in range(40):
                np.multiply(a, 1.0001, out=b)
                np.add(b, a, out=b)
                np.sqrt(b, out=b)
            acc = 0
            for i in range(20000):
                acc += i * i
            kept = []
            for _ in range(150):
                c = patch[:, 2:-2, 2:-2] * 1.0001
                d = c + patch[:, 1:-3, 2:-2]
                kept.append({"sum": d.sum(), "shape": (c.shape, d.dtype)})
        self.samples.append((time.perf_counter() - t0) / reps)

    @property
    def last(self) -> float:
        """Host speed at the latest call: > 1 means slower than nominal."""
        return self.samples[-1] / self.NOMINAL_S

    @property
    def slowdown(self) -> float:
        """Host speed over every call so far."""
        return statistics.fmean(self.samples) / self.NOMINAL_S


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def fingerprint(seed: int, smoke: bool) -> dict:
    """Where and with what a result was measured."""
    import cffi

    from repro.codegen.cext import toolchain_fingerprint

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "loadavg_1min": os.getloadavg()[0],
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cffi": cffi.__version__,
        # compiler identity as cext keys its artifacts, and the interpreter's
        # build flags, which every cffi build inherits; the arguments cext
        # appends are private to its build function and not repeated here
        "toolchain": toolchain_fingerprint(),
        "cflags": sysconfig.get_config_var("CFLAGS"),
        "git_commit": _git_commit(),
        "seed": seed,
        "smoke": smoke,
    }
