"""Host-speed normalization: time in reference seconds.

On a shared 2-vCPU host the speed of pure-Python code drifts by tens of
percent within a minute (wall time equals CPU time, so the cause is the
host, not scheduling). A fixed probe loop that uses nothing from gf2synth
is therefore timed every ``INTERVAL_S`` during the measured work (on
SIGALRM, inside the measured process), and each stretch of work between
two probes is scaled by ``REFERENCE_PROBE_S / probe duration``. The sum is
the work's time in reference seconds: what it would have taken on a host
where the probe takes ``REFERENCE_PROBE_S``. Probe time itself is excluded.

Code under test never calls the probe, so a faster gf2synth lowers
reference seconds exactly as it lowers wall seconds on a steady host.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.25
REFERENCE_PROBE_S = 0.004  # the probe's duration on the reference host
PROBE_ITERATIONS = 14000


def probe() -> float:
    """Seconds one fixed pure-Python loop takes now.

    The loop mixes what gf2synth spends its time on: small-int arithmetic,
    list and dict stores, tuple creation and shifts and xors of 400-bit ints.
    """
    t0 = time.perf_counter()
    acc = 0
    wide = (1 << 409) - 12345
    table = {}
    slots = [0] * 64
    for i in range(PROBE_ITERATIONS):
        acc = (acc + i * 7) & 0xFFFF
        slots[i & 63] = acc
        table[i & 127] = (acc, i)
        wide ^= wide >> (i & 31) | 1
    return time.perf_counter() - t0


class Sampler:
    """Probes every INTERVAL_S while running; converts intervals to reference seconds.

    With a tracer, each probe is a ``host.probe`` span, so that probe time is
    charged to no layer.
    """

    def __init__(self, tracer=None):
        self.marks: list[tuple[float, float]] = []  # (time the probe began, its duration)
        self.tracer = tracer

    def __enter__(self):
        self.marks.append((time.perf_counter(), probe()))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.marks.append((time.perf_counter(), probe()))

    def _tick(self, signum, frame):
        idx = self.tracer.open("host.probe") if self.tracer else None
        self.marks.append((time.perf_counter(), probe()))
        if idx is not None:
            self.tracer.close(idx)

    def reference_seconds(self, start: float, end: float) -> tuple[float, float]:
        """(work seconds, reference seconds) spent in [start, end], probes excluded.

        Work between two probes is scaled by the mean speed the two probes
        measured.
        """
        work = ref = 0.0
        for (t0, d0), (t1, d1) in zip(self.marks, self.marks[1:]):
            lo, hi = max(t0 + d0, start), min(t1, end)
            if hi > lo:
                work += hi - lo
                ref += (hi - lo) * REFERENCE_PROBE_S * 2 / (d0 + d1)
        return work, ref
