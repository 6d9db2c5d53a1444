"""Times in seconds at a fixed reference speed, for the untraced run.

On a 2-vCPU guest of a shared host, a process runs at one speed for a
while, then at another, up to 2x apart over seconds to minutes, with no
steal time to show for it.  A raw job time there says as much about the
neighbours as about graphkms.  So the untraced run times a fixed reference
computation every ``EVERY_S`` of wall time, from a SIGALRM handler that runs
between Python bytecodes, also in the middle of a job, and scales the time
until the next reference by ``NOMINAL_S`` over the last one.  A time so
scaled is what the work would have taken at the speed at which the
reference takes ``NOMINAL_S``, about the usual speed of the machine of the
reference figures in README.md.  The reference's own time is left out of
every interval.

The reference mixes what graphkms spends its time on, so that it slows down
with the program: a Python loop over a dict (parsing, closures, the CLI),
small dense solves (the per-``beta`` work on tiny blocks) and matrix-vector
products and a solve at n = 250 (the power iteration and solves on large
blocks).  It never calls graphkms, so a change to the program leaves it as
it is.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

NOMINAL_S = 0.015
EVERY_S = 0.2

_SMALL = np.arange(36.0).reshape(6, 6) + 7.0 * np.eye(6)
_LARGE = np.random.default_rng(0).random((250, 250))
_LARGE_SHIFTED = _LARGE + 10.0 * np.eye(250)
_ONES = np.ones(250)


def reference_s() -> float:
    """Seconds the reference computation takes now."""
    t0 = perf_counter()
    s, d = 0, {}
    for i in range(30000):
        s += i * i % 7
        d[i % 97] = s
    for _ in range(400):
        np.linalg.solve(_SMALL, _SMALL[0])
        _SMALL.sum(axis=1)
    for _ in range(300):
        _LARGE @ _ONES
    np.linalg.solve(_LARGE_SHIFTED, _ONES)
    return perf_counter() - t0


class Clock:
    """Seconds since ``start()``; at reference speed when ``calibrate``.

    Without ``calibrate`` (the traced run) no reference runs and ``now()``
    reads raw seconds.
    """

    def __init__(self, calibrate: bool = True):
        self.calibrate = calibrate
        self._gen = 0

    def start(self) -> None:
        self._scaled = 0.0
        self._factor = NOMINAL_S / reference_s() if self.calibrate else 1.0
        self._since = perf_counter()
        self._running = self.calibrate
        if self.calibrate:
            self._handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    def stop(self) -> None:
        if self.calibrate:
            self._running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)

    def _sample(self, signum, frame) -> None:
        if not self._running:  # delivered just before stop() took the timer off
            return
        self._scaled += (perf_counter() - self._since) * self._factor
        self._factor = NOMINAL_S / reference_s()
        self._since = perf_counter()
        self._gen += 1
        # Re-armed only now, so a sample never interrupts another.
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    def now(self) -> float:
        while True:
            gen = self._gen
            value = self._scaled + (perf_counter() - self._since) * self._factor
            if gen == self._gen:  # no sample ran while the fields were read
                return value
