"""Machine-speed calibration for timings taken on a shared host.

On a small shared VM the host slows this process's CPU by up to about
2x, switching within seconds, and the same code then reads 15-40% apart
between runs.  CPU time does not help: it slows down by the same factor.
So a run is cut into windows of about ``WINDOW_S`` of work, a fixed
pure-Python probe runs between windows, and the work in each window is
scaled by the probes on either side of it:

    calibrated = wall * PROBE_NOMINAL_S / mean(probe before, probe after)

``PROBE_NOMINAL_S`` is what the probe takes when the machine runs at full
speed, so a calibrated time is the wall time the same work takes at full
speed.  The probe does not touch the program; a faster program is still
faster by the same share.  The raw wall times are printed as well.

Process start-up and imports slow down less than interpreter work does,
so a workload whose items are child processes uses a child process as its
probe (``child_probe``): interpreter start plus a fixed share of
``probe_work``, the same mix as one of its items.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Each probe's 5th percentile over 100 calls while the machine ran at full
# speed, on an Intel Xeon at 2.1 GHz (KVM, 2 vCPUs) with Python 3.11.
PROBE_NOMINAL_S = 1.9e-3
CHILD_PROBE_NOMINAL_S = 65e-3
WINDOW_S = 0.1  # between items, a probe opens a new window once this has passed

_ROWS = tuple((k * 2654435761) & 0xFFFF for k in range(64))


def probe_work(rounds: int = 100) -> int:
    """Fixed interpreter work of the kind the program does: int bit
    operations, tuple indexing, small dict stores and builtin calls."""
    acc = 0
    seen = {}
    rows = _ROWS
    for r in range(rounds):
        for k in range(64):
            x = rows[k] ^ (r << 3)
            acc += bin(x).count("1")
            seen[x & 63] = acc
        acc &= 0xFFFFFFF
    return acc


def in_process_probe() -> float:
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


def child_probe(root: Path):
    """A probe that starts ``python`` in ``root`` and runs ``probe_work``
    ten times there."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import speed\n"
            "for _ in range(10): speed.probe_work()")
    env = {k: v for k, v in os.environ.items() if k != "TWOOMEGA_WORKERS"}

    def run() -> float:
        t0 = time.perf_counter()
        # Pipes, because with none, run() polls for the exit with sleeps of
        # up to 50 ms and the time comes out in steps.
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                       capture_output=True, check=True, timeout=60)
        return time.perf_counter() - t0

    return run


class SpeedClock:
    """Splits the run into windows, each opened by a probe: ``window()``
    between items returns the current window's index and opens a new one
    once ``WINDOW_S`` has passed.  After ``close()``, ``factor(k)`` scales
    the wall time of work done in window k by the mean of the probes on
    either side of it, so a change of speed is caught from both ends."""

    def __init__(self, probe=in_process_probe, nominal: float = PROBE_NOMINAL_S):
        self._probe = probe
        self.nominal = nominal
        self.probes: list[float] = []  # wall time of each probe
        self.probe_s = 0.0  # their sum
        for _ in range(5):  # let the interpreter specialise the probe's code
            probe_work()
        self.probe()

    def probe(self) -> None:
        dt = self._probe()
        self.probes.append(dt)
        self.probe_s += dt
        self._last = time.perf_counter()

    def window(self) -> int:
        if time.perf_counter() - self._last >= WINDOW_S:
            self.probe()
        return len(self.probes) - 1

    def close(self) -> None:
        """End the current window with a probe."""
        self.probe()

    def factor(self, k: int) -> float:
        return 2 * self.nominal / (self.probes[k] + self.probes[k + 1])

    def measure(self, steps) -> tuple:
        """Run ``steps``, a generator that yields between steps of work and
        returns a value; return that value and the calibrated time of all
        the steps."""
        self.probe()
        stretches = []
        while True:
            k = self.window()
            t0 = time.perf_counter()
            try:
                next(steps)
            except StopIteration as stop:
                stretches.append((k, time.perf_counter() - t0))
                value = stop.value
                break
            stretches.append((k, time.perf_counter() - t0))
        self.close()
        return value, sum(dt * self.factor(k) for k, dt in stretches)

    def call(self, fn, *args) -> tuple:
        """Run ``fn(*args)`` between three probes on either side; return its
        value and its calibrated time.  A one-off stretch gets more probes
        than a window, because no other window averages out their noise."""
        before = self._median_probe()
        t0 = time.perf_counter()
        value = fn(*args)
        dt = time.perf_counter() - t0
        after = self._median_probe()
        return value, dt * 2 * self.nominal / (before + after)

    def _median_probe(self) -> float:
        for _ in range(3):
            self.probe()
        return statistics.median(self.probes[-3:])

    def summary(self) -> str:
        f = sorted(self.nominal / dt for dt in self.probes)
        q = statistics.quantiles(f, n=4)
        return (f"speed factor over {len(f)} probes: min {f[0]:.3f} q1 {q[0]:.3f} "
                f"median {q[1]:.3f} q3 {q[2]:.3f} max {f[-1]:.3f} "
                f"(1.0 = full speed; probing took {self.probe_s:.2f} s)")
