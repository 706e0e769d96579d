"""Host-speed sampling for the timed regions of a run.

On a shared host the same work runs at different speeds: slices of a few
hundred milliseconds switch between a fast and a slow state, and the share of
slow time changes from minute to minute (up to 1.8x on the reference machine,
see NOTES.md).  A run's median pass time then records mostly how slow the host
was during that run.

`Sampler` times a region (a set-up or a pass) and, every INTERVAL_S, interrupts
it with SIGALRM to time fixed probes that call nothing in hpseries: an integer
loop, exact rational sums through a small Python class, and (once the region
may use numpy) complex array arithmetic -- the three kinds of work the
workloads do.  The probes' time is taken out of the region's time, and each
stretch of the region between two alarms is scaled by the host speed the
probes measured at its end, the mean over the probes of nominal_s / probe_s:

    reference_s = sum(stretch_s * speed)

that is, the region's time on a host on which every probe takes its nominal
time.  A change to the library moves the stretches and not the probes.  Python
runs the handler between bytecodes, so during a long C call the probes wait
for the call to return and the stretch is longer.  On the reference machine
this cut the quartile spread of single passes from 0.10-0.23 to 0.03-0.07 of
the median (NOTES.md).
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

INTERVAL_S = 0.05
LOOP_STEPS = 10_000
RATIONAL_TERMS = 120
ARRAY_LEN = 4096
ARRAY_REPS = 4
# median probe times on the reference machine (NOTES.md); they only scale
# the reported numbers into seconds
LOOP_NOMINAL_S = 1.0e-3
RATIONAL_NOMINAL_S = 0.62e-3
ARRAY_NOMINAL_S = 0.83e-3


class _Rational:
    """n/d in lowest terms, added in Python code, as exact arithmetic in the
    library is."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int):
        g = math.gcd(n, d)
        self.n, self.d = n // g, d // g

    def __add__(self, other: _Rational) -> _Rational:
        return _Rational(self.n * other.d + other.n * self.d,
                         self.d * other.d)


def _time_loop() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(LOOP_STEPS):
        acc += i * i % 7
    return perf_counter() - t0


def _time_rational() -> float:
    t0 = perf_counter()
    total = _Rational(0, 1)
    for i in range(1, RATIONAL_TERMS):
        total = total + _Rational(1, i * i + 1)
    return perf_counter() - t0


class _ArrayProbe:
    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(0.0, 1.0, ARRAY_LEN)

    def __call__(self) -> float:
        np, x = self.np, self.x
        t0 = perf_counter()
        for _ in range(ARRAY_REPS):
            np.exp(3.1j * x) * np.cos(x)
        return perf_counter() - t0


def speed(arrays: _ArrayProbe | None) -> float:
    """Host speed now, relative to the reference machine (1.0 there)."""
    ratios = [LOOP_NOMINAL_S / _time_loop(),
              RATIONAL_NOMINAL_S / _time_rational()]
    if arrays is not None:
        ratios.append(ARRAY_NOMINAL_S / arrays())
    return sum(ratios) / len(ratios)


class Sampler:
    """Context manager timing one region with host-speed probes inside it.
    With arrays=False (set-ups, before numpy is imported) the array probe is
    left out, so the probes import nothing."""

    def __init__(self, arrays: bool):
        self._arrays = _ArrayProbe() if arrays else None
        self.stretches: list[tuple[float, float]] = []  # (stretch_s, speed)
        self.probe_total_s = 0.0
        self.wall_s = 0.0
        self._start = self._last = self._tail_s = 0.0
        self._previous = None

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = self._last = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        # read the end only once the old handler is back, so that no probe
        # can run after it
        signal.signal(signal.SIGALRM, self._previous)
        end = perf_counter()
        self.wall_s = end - self._start
        self._tail_s = end - self._last

    def _on_alarm(self, _signum, _frame) -> None:
        t0 = perf_counter()
        now = speed(self._arrays)
        t1 = perf_counter()
        self.stretches.append((t0 - self._last, now))
        self.probe_total_s += t1 - t0
        self._last = t1

    @property
    def own_s(self) -> float:
        """Measured time of the region without the probes."""
        return self.wall_s - self.probe_total_s

    @property
    def reference_s(self) -> float:
        """The region's time at the probes' nominal speed.  The stretch after
        the last alarm is scaled by that alarm's speed; a region too short to
        be sampled is left as measured."""
        if not self.stretches:
            return self.own_s
        ref = sum(s * v for s, v in self.stretches)
        return ref + self._tail_s * self.stretches[-1][1]

    @property
    def median_speed(self) -> float:
        speeds = sorted(v for _s, v in self.stretches)
        return speeds[len(speeds) // 2] if speeds else 1.0
