"""Reported times are scaled to one reference speed of the machine.

On the shared machine the bounds were measured on, the speed of the
processor the benchmark gets changes by up to 2x for seconds to minutes at
a time, with CPU time equal to wall time and no steal time reported: the
same call of the same case takes 0.42 s or 0.78 s.  A whole 20-second run
can fall in a slow or a fast stretch, so no statistic taken inside one run
removes it.

A short fixed loop of the same kind of work the program does (small
complex numpy arrays, Python lists and objects) is timed just before and
just after every timed call and set-up, and every CALL_SAMPLE_S or
SETUP_SAMPLE_S during it (a set-up samples in its own process and reports
the loop times).  The loop slows with the program: over 50 calls of one
case the raw times spread by 0.52 of their median and the times scaled
from the loops before and after alone by 0.10.  A call's reported time is its wall time, less the loops
run inside it, times REFERENCE_S over the mean of its loop times: the
seconds it would take at the speed at which the loop takes REFERENCE_S.
The loop never runs program code, so a change to the program does not
move it.
"""

from __future__ import annotations

import contextlib
import signal
import time
import types

import numpy as np

# The loop's time on a 2-vCPU Xeon at its fast level; reported times are
# seconds at that speed.
REFERENCE_S = 0.011
# How often the loop runs inside timed work: calls last 0.03-15 s and run
# many times; a set-up lasts under a second and spends most of it in
# imports, so it is sampled more densely to get more than one loop.
CALL_SAMPLE_S = 0.5
SETUP_SAMPLE_S = 0.1
_ROUNDS = 2000
_C = np.array([1.0 + 0.5j, 0.25, -0.125j, 0.0625])
_R = np.arange(1.0, 4.0)


def calibrate() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    acc = 0j
    for i in range(_ROUNDS):
        d = np.convolve(_C, _C)[:4]
        e = d[1:] * _R
        acc += sum(complex(p[0]) for p in (d, e, _C + i))
    return time.perf_counter() - start


@contextlib.contextmanager
def sampling(every: float):
    """While the body runs, run the loop every ``every`` seconds from a
    timer signal; yields the list of (start, end) times of those loops."""
    pauses: list = []

    def sample(signum, frame):
        start = time.perf_counter()
        pauses.append((start, start + calibrate()))

    old = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, every, every)
    try:
        yield pauses
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class SpeedScale:
    """Scales wall times to the reference speed.  Calibrations run back to
    back with the timed work, never during other timed work, so one
    calibration ends the span before and starts the next."""

    def __init__(self):
        calibrate()  # the first run pays for caches and lazy set-up
        self.last = calibrate()
        self.loops = [self.last]

    def __call__(self, seconds: float, inside=()) -> float:
        """The wall ``seconds`` of work that has just ended at the reference
        speed, judged from the loop before it, the loop times ``inside`` it
        (which ``seconds`` must not include) and the loop after it."""
        before, self.last = self.last, calibrate()
        loops = [before, *inside, self.last]
        self.loops += [*inside, self.last]
        return seconds * REFERENCE_S / (sum(loops) / len(loops))

    @contextlib.contextmanager
    def timed(self):
        """Time the body; afterwards ``seconds`` holds its wall time less the
        loops sampled inside it, ``pauses`` those loops' (start, end) and
        ``scaled`` the time at the reference speed.  Sampling gives a long
        call the speed of its own stretch, not of its two ends."""
        result = types.SimpleNamespace(seconds=0.0, scaled=0.0, pauses=[])
        with sampling(CALL_SAMPLE_S) as pauses:
            start = time.perf_counter()
            try:
                yield result
            finally:
                took = time.perf_counter() - start
        inside = [end - begin for begin, end in pauses]
        result.pauses = pauses
        result.seconds = took - sum(inside)
        result.scaled = self(result.seconds, inside)
