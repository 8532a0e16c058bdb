"""Machine-speed reference for the timed passes.

The benchmark shares a few cores of a host whose speed drifts: over tens
of seconds the same pass can take 1.3-1.5 times as long, alike on every
core and with little steal time, so the fastest of a run's passes still
carries the host's state at the time of the run.  A fixed kernel that
shares no code with shychase (a naive transitive closure by the oracle's
join, the same kind of dict-and-tuple work as `shychase.hom`) runs between
tasks, and each task time is scaled by how fast the kernel ran around it:

    scaled = raw * REFERENCE_S / (kernel time around the task)

REFERENCE_S is a constant, the kernel's time on an idle host, so scaled
times read as seconds at that speed.  A change to shychase moves the raw
time and leaves the kernel alone, so it moves the scaled time by the same
share.
"""

from __future__ import annotations

import bisect
import time

from . import oracle

# Nodes of the path whose closure the kernel computes: about 12 ms.
KERNEL_NODES = 14
# The kernel's time on an idle host (Intel Xeon, 2 vCPUs).
REFERENCE_S = 0.0115
# Seconds of task time between two kernel runs.
INTERVAL_S = 0.2

_X, _Y, _Z = ("v", "X"), ("v", "Y"), ("v", "Z")
_RULES = (
    ((("e", None, (_X, _Y)),), ("t", None, (_X, _Y))),
    ((("t", None, (_X, _Y)), ("e", None, (_Y, _Z))), ("t", None, (_X, _Z))),
)


def kernel(nodes: int = KERNEL_NODES) -> int:
    """Closure of an n-edge path by naive rounds; returns its size."""
    instance = {("e", None, (("c", i), ("c", i + 1))) for i in range(nodes)}
    while True:
        idx = oracle._index(instance)
        new = {oracle.substitute(head, b)
               for body, head in _RULES for b in oracle.matches(body, idx, {})}
        if new <= instance:
            return len(instance)
        instance |= new


class Calibrator:
    """Runs the kernel at most every INTERVAL_S and scales task times by it."""

    def __init__(self):
        self.stamps: list = []  # perf_counter at the end of each kernel run
        self.seconds: list = []  # its duration

    def tick(self, force: bool = False) -> None:
        """Run the kernel if INTERVAL_S has passed since the last run."""
        now = time.perf_counter()
        if force or not self.stamps or now - self.stamps[-1] >= INTERVAL_S:
            kernel()
            self.stamps.append(time.perf_counter())
            self.seconds.append(self.stamps[-1] - now)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the last run before
        `start` and the first run after `end`."""
        before = bisect.bisect_right(self.stamps, start) - 1
        after = bisect.bisect_left(self.stamps, end)
        near = [self.seconds[k] for k in (before, after) if 0 <= k < len(self.seconds)]
        return REFERENCE_S / (sum(near) / len(near))
