"""A fixed reference loop that the benchmark runs in step with every part.

On a shared host the CPU time of the same code moves by up to 2x, over
seconds and over minutes, with the load other tenants put on the core, its
caches and its clock.  While a part runs, ``Interleaved`` stops it every
``INTERVAL_S`` of process CPU time (``SIGPROF``) and runs a short chunk of the
reference loop, so the loop samples the same load as the part all through it.
The loop is the benchmark's own code and never calls the program, so a change
to the program leaves its timings alone.

Each iteration does what a solver step of the workloads does: the two
products of a 500 x 200 dense matrix (the shape of the smoothed-L1 data) with
a tanh, then a few operations on a 10 x 10 matrix (the size of the
certificate problems), which cost mostly Python and numpy call overhead.
"""

from __future__ import annotations

import signal
import time

import numpy as np

CHUNK_ITERS = 300     # about 20 ms on the host this was written on
INTERVAL_S = 0.25     # process CPU seconds between chunks

_rng = np.random.default_rng(20180205)
_A = _rng.standard_normal((500, 200)) / np.sqrt(500)
_B = _rng.standard_normal((10, 10)) / np.sqrt(10)


def loop(iters: int) -> float:
    A = _A.copy()
    B = _B.copy()
    x = np.zeros(200)
    y = np.zeros(500)
    v = np.ones(10)
    acc = 0.0
    for _ in range(iters):
        x = x - 0.05 * (A.T @ y + 0.1 * x)
        y = y + 0.05 * (A @ x + 1.0 - np.tanh(y))
        for _ in range(4):
            v = 0.5 * (B @ v) + 0.1
            acc += float(v[0])
    return acc + float(x[0])


class Interleaved:
    """Context in which, when ``active``, a reference chunk runs every
    ``INTERVAL_S`` of process CPU time.  ``chunks_s`` holds the CPU time of
    each chunk; ``rec.ref_cpu_s`` adds them up, so that the CPU time the
    program itself used is CPU time less ``rec.ref_cpu_s``.  CPU time is read
    from the thread clock: while a process-wide CPU timer is armed, Linux
    reads the process clock in whole scheduler ticks."""

    def __init__(self, rec, active: bool = True):
        self.rec = rec
        self.active = active
        self.chunks_s: list[float] = []
        self._busy = False
        self._old = None

    def _chunk(self, *_):
        if self._busy:
            return
        self._busy = True
        try:
            c0 = time.thread_time()
            loop(CHUNK_ITERS)
            dt = time.thread_time() - c0
            self.chunks_s.append(dt)
            self.rec.ref_cpu_s += dt
        finally:
            self._busy = False

    def __enter__(self):
        if self.active:
            self._old = signal.signal(signal.SIGPROF, self._chunk)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._old)
        return False
