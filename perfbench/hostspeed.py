"""The host CPU's speed, sampled while a workload runs, and wall times
scaled to a fixed reference speed.

The benchmark runs on shared hosts whose cores other tenants load too.
On the 2-vCPU VM it was written on, one and the same `explain()` call
took 8.5 ms or 15 to 18 ms depending on the moment, in spells from one
second to minutes long, and the process's CPU time grew with it: the
core runs slower, the process is not descheduled. A run's wall time
then follows the host's load during the run, which drifts by more than
the benchmark's bounds from one minute to the next.

A `SpeedProbe` runs `probe` every INTERVAL_S of wall time, from a
SIGALRM timer in the measuring thread, and records the thread CPU time
it took. `scaled` turns a wall-time interval into the time it would
have taken had every probe in it taken REF_S: the interval less the
probes' own time, times the mean of REF_S / probe over the probes in
it. The probe is the kind of code fvlrp spends its time in, bytecode
and small numpy calls. On that VM, over stretches in which explain()
slowed by up to 1.86x, the scaled explain() time varied by 4 %
(coefficient of variation) against 18.5 % unscaled.

REF_S fixes the scale only. It is about the probe's time when that VM
was least loaded, so that scaled times there come close to the wall
times of its least loaded spells. Another machine gives other absolute
values for the same code.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.04
REF_S = 3.0e-4

_VEC = np.arange(64.0)
_MAT = np.ones((16, 16))
_VEC16 = np.ones(16)


def probe() -> float:
    """Thread CPU time of a fixed mix of bytecode and small numpy calls."""
    start = time.thread_time()
    acc = 0
    for i in range(50):
        acc += i * i
        _VEC.sum()
        (_VEC * 2.0).max()
        _MAT @ _VEC16
    return time.thread_time() - start


class SpeedProbe:
    """Samples the host's speed on a timer while started."""

    def __init__(self):
        # (time.monotonic() when it started, its wall time, its CPU time)
        self.samples: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame) -> None:
        at = time.monotonic()
        cpu = probe()
        self.samples.append((at, time.monotonic() - at, cpu))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from `start` to `end` (time.monotonic()) at REF_S speed.

        An interval too short to hold a probe is returned as it is.
        """
        inside = [s for s in self.samples if start <= s[0] < end]
        if not inside:
            return end - start
        own = sum(wall for _, wall, _ in inside)
        factor = statistics.fmean(REF_S / cpu for _, _, cpu in inside)
        return (end - start - own) * factor

    def median_probe_s(self) -> float | None:
        return (statistics.median(cpu for _, _, cpu in self.samples)
                if self.samples else None)
