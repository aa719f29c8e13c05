"""Host-speed normalisation of the benchmark's times.

On a small shared VM the speed at which interpreter-bound code runs is not
constant: load from outside the VM, most likely on the same physical cores,
slows such code by 1.7-2.4x, in phases that last from microseconds to
minutes and that no per-process counter shows (``/proc/stat`` steal stays
flat, and ``time.process_time`` slows by the same factor). A 30-second run
can fall wholly into a slow or a fast phase, so raw wall times of the same
code spread over runs by far more than any useful regression bound.

``SpeedProbe`` measures the host's speed while the program runs. A
``SIGALRM`` timer interrupts the process every ``PERIOD_S`` seconds; the
handler times a fixed probe, a Python loop of small numpy operations like the
per-client steps that dominate the run workloads, after one untimed warm-up
pass of the same loop so that the caches the program just used do not count.
``normalised`` then divides each stretch of program time between two probes
by the slowdown the program felt in it, and drops the handler's own time. The
probe's slowdown ``s`` is the mean duration of the two probes around the
stretch over ``REF_PROBE_S``, the probe's uncontended time on a 2-vCPU Intel
Xeon VM. Contention slows interpreter-bound code more than BLAS or bulk
random-number calls, so the program's slowdown is ``1 + sensitivity * (s - 1)``,
where ``sensitivity`` is the share of the probe's extra time that the
workload's own mix of calls feels (``workloads.Workload.sensitivity``). The
result reads as seconds on an uncontended host of that kind. The raw wall
times are kept beside the normalised ones.

Python runs the handler between bytecodes, so a long call into numpy or BLAS
delays it; the stretch around such a call takes the speed of the probes on
either side.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.004
PROBE_ROUNDS = 20
# the probe's time at the reference speed; see the module docstring
REF_PROBE_S = 2.0e-5


class SpeedProbe:
    """Time a fixed probe every ``PERIOD_S`` seconds while running.

    The timer runs inside ``with SpeedProbe() as probe``; ``window`` brackets
    a timed region with a probe on each side, so every region has at least two.
    Each probe is kept as (start, end of the handler, probe duration).
    """

    def __init__(self, sensitivity: float) -> None:
        self.sensitivity = sensitivity
        self._x = np.ones(6)
        self.probes: list = []
        self._busy = False
        self._previous = None

    def _probe_once(self) -> float:
        x = self._x
        begin = time.perf_counter()
        total = 0.0
        for _ in range(PROBE_ROUNDS):
            total += float(x @ x)
        return time.perf_counter() - begin

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            entered = time.perf_counter()
            self._probe_once()  # warm-up, untimed
            duration = self._probe_once()
            self.probes.append((entered, time.perf_counter(), duration))
        finally:
            self._busy = False

    def _handler(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self):
        """A region to time: ``with probe.window() as w: ...``, then ``w.normalised_s``."""
        return _Window(self)

    def normalised(self, start: float, end: float) -> float:
        """Program time in ``[start, end]`` at the reference speed.

        ``start`` is the end of a probe and ``end`` the start of one, as
        ``window`` sets them; the probes in between split the region into
        stretches, each slowed by the mean of the two probes around it.
        """
        inside = [p for p in self.probes if start - 1e-9 <= p[1] and p[0] <= end + 1e-9]
        total = 0.0
        for left, right in zip(inside, inside[1:]):
            slowdown = (left[2] + right[2]) / 2 / REF_PROBE_S
            total += (right[0] - left[1]) / (1 + self.sensitivity * (slowdown - 1))
        return total

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time in ``[start, end]`` over ``REF_PROBE_S``."""
        inside = [p[2] for p in self.probes if start <= p[0] <= end]
        return statistics.median(inside) / REF_PROBE_S if inside else float("nan")


class _Window:
    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.start = self.end = 0.0

    def __enter__(self) -> "_Window":
        self.probe.sample()
        self.start = self.probe.probes[-1][1]
        return self

    def __exit__(self, *exc) -> None:
        self.probe.sample()
        self.end = self.probe.probes[-1][0]

    @property
    def raw_s(self) -> float:
        return self.end - self.start

    @property
    def normalised_s(self) -> float:
        return self.probe.normalised(self.start, self.end)
