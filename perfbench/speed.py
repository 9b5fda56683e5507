"""Host-speed monitor: how fast the measured CPU runs, moment by moment.

    python3 perfbench/speed.py CPU SAMPLES.json

runs pinned to CPU until it gets SIGTERM, then writes its samples to
SAMPLES.json; it exits by itself if the process that started it ends. Every TICK_S it times one probe: PROBE_LOOKUPS lookups of
random string keys in a dict of 100k entries, about 0.25 ms, so it takes
about 1% of the CPU. The benchmark pins the operations it measures to the
same CPU.

Why: on a shared host the speed of a vCPU switches, in phases of seconds,
between a fast level and one about 1.6x slower (a tight Python loop takes
21-22 ms in one phase and 33-36 ms in the next), and the share of slow
phases changes from minute to minute. A fresh report's wall time moves by
+-30% with it. The probe's time follows the same switches: it is
cache-bound like intercom's dict- and object-heavy code, and every probe
finds its data evicted by the operation that ran since the last one.

``scaled`` turns an operation's measured time into the time it would have
taken at the speed at which a probe takes NOMINAL_PROBE_S: the measured time
times the mean of NOMINAL_PROBE_S / probe time over the probes taken while
it ran. No change to intercom moves the probe's own work, so a change that
makes the report 10% slower makes the scaled time 10% slower too, while a
change of host speed moves the probe and the operation alike and cancels.
On a 2-vCPU VM this cut the coefficient of variation of one fresh report's
time on ``links-440`` from 0.17 to 0.03 and on ``learn-220`` from 0.12 to
0.02.
"""
from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

TICK_S = 0.02
PROBE_LOOKUPS = 400
# A probe's time in a fast phase on a 2-vCPU Intel Xeon VM at 2.0 GHz: the
# speed at which scaled times are reported.
NOMINAL_PROBE_S = 0.25e-3
# An operation shorter than a few ticks borrows probes from just around it.
MIN_PROBES = 5


def monitor(cpu: int, out: str) -> None:
    stop = False

    def on_term(_signum, _frame):
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    rng = random.Random(0)
    keys = [f"u{rng.randrange(10**9)}" for _ in range(100_000)]
    table = {key: i for i, key in enumerate(keys)}
    order = [keys[rng.randrange(len(keys))] for _ in range(100_000)]
    samples: list[tuple[float, float]] = []  # (end on time.monotonic(), probe time)
    at = 0
    while not stop and os.getppid() == parent:
        start = time.monotonic()
        total = 0
        for key in order[at:at + PROBE_LOOKUPS]:
            total += table[key]
        end = time.monotonic()
        samples.append((end, end - start))
        at = (at + PROBE_LOOKUPS) % (len(order) - PROBE_LOOKUPS)
        time.sleep(TICK_S)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)


class Monitor:
    """The monitor as a child process, from ``with`` until ``stop``, which
    returns its samples."""

    def __init__(self, cpu: int, path: Path):
        self.cpu = cpu
        self.path = path
        self.proc: subprocess.Popen | None = None
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "Monitor":
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.cpu), str(self.path)])
        return self

    def stop(self) -> list[tuple[float, float]]:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            if self.path.is_file():
                self.samples = [tuple(s) for s in json.loads(self.path.read_text())]
        return self.samples

    def __exit__(self, *exc) -> None:
        self.stop()


def speed(samples: list[tuple[float, float]], start: float, end: float) -> float | None:
    """Mean host speed over [start, end] (time.monotonic() values), as a
    multiple of the nominal speed; None if the monitor saw none of it."""
    inside = [d for t, d in samples if start <= t <= end]
    margin = TICK_S
    while len(inside) < MIN_PROBES and margin < 1.0:
        inside = [d for t, d in samples if start - margin <= t <= end + margin]
        margin *= 2
    if not inside:
        return None
    return statistics.fmean(NOMINAL_PROBE_S / d for d in inside)


if __name__ == "__main__":
    monitor(int(sys.argv[1]), sys.argv[2])
