"""Host speed sampled during a pass, to take the host's speed out of its time.

The host this benchmark runs on is shared: its speed for the same pure-Python
loop changes by up to 2x, in phases from seconds to minutes.  A pass's wall
time then says as much about the neighbours as about charp.

``HostSpeed`` runs a fixed reference loop (a sparse polynomial product mod a
prime, the kind of work charp's rings do) every ``INTERVAL`` seconds of a
pass, from a SIGALRM handler, and cuts the pass into segments at the samples.
A segment of ``dt`` seconds between samples that took ``c1`` and ``c2``
seconds is worth ``dt * REF_S / ((c1 + c2) / 2)`` reference seconds: the time
it would have taken on a host where the loop takes ``REF_S``.  The loop's own
time is left out of the pass's wall time.  The loop is part of the benchmark,
not of charp, so a change to charp moves the calibrated time as it moves the
wall time.
"""

import signal
from time import perf_counter

INTERVAL = 0.05  # seconds of pass between samples
REF_S = 0.001    # the loop's time on the reference host

_P = 32003
_A = [((i, 7 - i % 8), (37 * i + 11) % _P) for i in range(24)]
_B = [((5 - i % 6, i), (53 * i + 29) % _P) for i in range(24)]


def reference_loop():
    """Multiply two fixed 24-term polynomials mod 32003, five times."""
    for _ in range(5):
        acc = {}
        for (a1, a2), ca in _A:
            for (b1, b2), cb in _B:
                m = (a1 + b1, a2 + b2)
                acc[m] = (acc.get(m, 0) + ca * cb) % _P
    return acc


def sample():
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


class HostSpeed:
    """Use as a context manager around the timed region of a pass."""

    def __init__(self):
        self.samples = []   # seconds the reference loop took, in order
        self.segments = []  # seconds of pass between consecutive samples
        self._resume = None
        self._previous = None
        self._active = False

    def _take(self):
        end = perf_counter()
        self.samples.append(sample())
        if self._resume is not None:
            self.segments.append(end - self._resume)
        self._resume = perf_counter()

    def _on_alarm(self, signum, frame):
        # an alarm that fired just before __exit__ disarmed the timer may run
        # its handler afterwards; re-arming then would leave a live timer
        if self._active:
            self._take()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._take()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()
        return False

    def wall_s(self):
        """Seconds of pass, without the samples."""
        return sum(self.segments)

    def reference_s(self):
        """Seconds the pass would have taken on the reference host."""
        c = self.samples
        return sum(dt * REF_S * 2 / (c[i] + c[i + 1])
                   for i, dt in enumerate(self.segments))
