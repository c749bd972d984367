"""Machine-speed sampling, so that timings from a shared host can be compared.

On a shared VM the speed of a vCPU changes with what other tenants run: the
same Python work can take from 1x to about 2x as long, in spells of a few
seconds, independently on each vCPU. A run's median then depends on how many
slow spells its samples happened to hit, and its spread over a few minutes of
runs is as wide as the change a benchmark should resolve.

``SpeedSampler`` measures that speed while the program runs. The measuring
process is pinned to one CPU (``pin_to_one_cpu``); a daemon thread wakes every
``INTERVAL_S`` and times a fixed piece of pure-Python work (a *burst*). The
thread and the program share the CPU and the GIL, so each burst sees the
speed the program sees at that moment. A burst takes ``REFERENCE_BURST_S`` on
the reference machine, so ``REFERENCE_BURST_S / burst`` is the speed relative
to it, and the mean of that over the bursts of an interval is the interval's
mean speed (bursts are spread evenly in time). ``normalize`` turns a wall
time measured inside the interval, less the bursts' share of it, into seconds
on the reference machine: the wall time the same work would take there.
"""

from __future__ import annotations

import json
import os
import threading
import time

INTERVAL_S = 0.02
# The reference machine is one on which a burst takes exactly this long; on
# the 2-vCPU cloud VM the benchmark was tuned on, the fastest bursts took
# 1.0-1.1 ms.
REFERENCE_BURST_S = 0.001
# share of the fastest and of the slowest bursts dropped (e.g. a burst that
# the program pre-empted at a GIL switch)
TRIM = 0.05

_RECORD = {
    "epoch": 3,
    "exposed": ["gitlab", "decoy_1"],
    "alerts": [{"severity": "low", "service": "gitlab", "t": 1.5}] * 3,
    "note": "probe " * 20,
}


class _Step:
    __slots__ = ("epoch", "stage")

    def __init__(self, epoch: int, stage: int) -> None:
        self.epoch = epoch
        self.stage = stage


def _burst() -> int:
    """A fixed mix of the work honeysim does: objects, dicts, JSON and strings."""
    total = 0
    counts: dict[int, int] = {}
    for i in range(1000):
        step = _Step(i, i & 7)
        counts[step.stage] = counts.get(step.stage, 0) + step.epoch
        total += step.epoch * 3 + (step.stage or 1)
    for i in range(16):
        text = json.dumps(_RECORD, sort_keys=True)
        total += len(json.loads(text)["alerts"]) + len(f"{i}:{text[:40]}")
    return total + len(counts)


def pin_to_one_cpu() -> int:
    """Pin this process to the lowest CPU it may run on; returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedSampler:
    """Times bursts on a daemon thread while the ``with`` block runs.

    A disabled sampler takes no samples: its speed is 1.0 and ``normalize``
    returns the wall time unchanged."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.bursts: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)
        self.elapsed_s = 0.0

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.perf_counter()
            _burst()
            self.bursts.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self._start = time.perf_counter()
        if self.enabled:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_s = time.perf_counter() - self._start
        self._stop.set()
        if self.enabled:
            self._thread.join()

    def speed(self) -> float:
        """Mean speed over the interval relative to the reference machine; 1.0 without samples."""
        if not self.bursts:
            return 1.0
        ordered = sorted(self.bursts)
        cut = int(len(ordered) * TRIM)
        kept = ordered[cut : len(ordered) - cut] or ordered
        return sum(REFERENCE_BURST_S / b for b in kept) / len(kept)

    def normalize(self, wall_s: float) -> float:
        """``wall_s``, timed inside the block, without the bursts' share and at the reference speed."""
        busy = sum(self.bursts) / self.elapsed_s if self.elapsed_s > 0 else 0.0
        return wall_s * (1.0 - busy) * self.speed()
