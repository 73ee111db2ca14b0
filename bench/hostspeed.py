"""Host-speed probe: a fixed reference computation timed between operations.

The speed of a small shared host moves by up to half between states that
last from milliseconds to minutes (another guest on the same physical
cores).  Within one run the fast changes average out, but the share of
time in the slow state drifts over minutes, so two runs of the same code
a few minutes apart can differ by 40 % in wall-clock throughput.

``HostProbe`` measures that drift where it happens.  After every timed
operation it runs whole chunks of a fixed computation (a chain of small
matrix products, an elementwise pass and a Python loop, the kinds of work
arcd does) for a tenth of that operation's time, outside the operation's
timing.  The probe then samples the host at the same moments and in the
same proportions as the program, and ``slowdown()``, its mean chunk time
over ``REF_CHUNK_MS``, is how much slower than the reference speed the
host ran while the program did.  The benchmark reports each timing
multiplied back to the reference speed and keeps the raw figure in
``run.json``.  A change to the program moves the reported figure as much
as the raw one; the host's drift moves it far less.
"""

from __future__ import annotations

import time

import numpy as np

# The chunk's time on the reference host (a 2-vCPU KVM guest, Intel Xeon
# family 6 model 207, OpenBLAS at one thread) in its fast state.  It only
# scales the reported figures; comparisons between commits do not depend
# on it.
REF_CHUNK_MS = 0.1
# Probe time per unit of operation time.
SHARE = 0.1


class HostProbe:
    """Accumulates chunk count and time over one phase of a run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((96, 96), dtype=np.float32)
        self._v = rng.random(1 << 14, dtype=np.float32)
        self.chunks = 0
        self.ns = 0

    def _chunk(self) -> float:
        x = self._a
        for _ in range(4):
            x = np.tanh(x @ self._a * 0.01)
        s = 0.0
        for i in range(300):
            s += i * 0.5
        return s + float(np.maximum(self._v * 1.5 - 0.3, 0.0).sum())

    def run_for(self, seconds: float) -> int:
        """Run whole chunks, at least one, until ``seconds`` have passed;
        returns the nanoseconds spent."""
        start = time.perf_counter_ns()
        end = start + int(seconds * 1e9)
        n = 0
        while True:
            self._chunk()
            n += 1
            now = time.perf_counter_ns()
            if now >= end:
                break
        self.chunks += n
        self.ns += now - start
        return now - start

    def after(self, op_seconds: float) -> int:
        """Probe after an operation that took ``op_seconds``."""
        return self.run_for(SHARE * op_seconds)

    def slowdown(self) -> float:
        """Mean chunk time over the reference chunk time."""
        if not self.chunks:
            raise RuntimeError("the probe has not run")
        return self.ns * 1e-6 / self.chunks / REF_CHUNK_MS
