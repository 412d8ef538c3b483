"""How fast the host runs while a timed interval runs.

The 2-vCPU VM this benchmark was built on slows every process down by
20-50% for seconds to minutes at a time (other tenants' load on shared
cores; it shows in user time as much as in wall time, and no steal time is
reported), so plain wall-clock throughput of the same call spread 10-34%
(quartile distance over median) across ten runs.  A reference loop timed
before and after each call did not help: the speed changes within a call.

`HostSpeed` therefore samples the host *during* the interval: every 20 ms
of wall time, SIGALRM runs a fixed snippet of mixed work (interpreted loop
and dict updates, `math.fsum`, big-integer binomial terms) in the main
thread and times it.  The mean snippet time says how slow the host was, and
`normalised_s` rescales the interval's wall time to the snippet time of a
quiet host, `QUIET_SNIPPET_S`, raised to the workload's elasticity: the
slope of log call time on log snippet time, measured over 30-70 calls while
the host's speed varied threefold (correlation 0.92-0.97).  A workload that
streams over long lists (`horizon`, 0.73) slows less than the snippet; one
that waits on threads (`live_llm`, 1.12) slows more.  Rescaling only the CPU
time and keeping the waiting time as it is did worse on `live_llm`: waiting
for the stub's threads stretches with the host's load as well.

The snippet shares no code with the program, costs ~0.5% of the interval,
and runs between bytecodes, so it cannot change what the program computes
(the artifacts stay byte-identical).  This module imports nothing beyond
`math`, `signal`, `sys` and `time`, so that it can run around the cold
import of the program without warming it.
"""

from __future__ import annotations

import math
import signal
import sys
import time

INTERVAL_S = 0.02
QUIET_SNIPPET_S = 60e-6  # the snippet's time on a quiet host of the reference machine
_PRICES = [((i * 7919) % 1000) / 1000 for i in range(200)]


def snippet() -> float:
    """A fixed slice of mixed work; returns a number so none of it is skipped."""
    table: dict[int, float] = {}
    for i in range(150):
        x = (i * 2654435761 % 1000003) / 1000003.0
        table[i & 31] = table.get(i & 31, 0.0) * 0.5 + x
    total = math.fsum(_PRICES)
    for j in range(8):
        total += math.comb(265, j) * 0.3**j * 0.7 ** (265 - j)
    return total + math.fsum(table.values())


class HostSpeed:
    """Context manager that samples the snippet's time while its body runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # keep the GIL for the snippet, so a stub thread does not run inside it
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            start = time.perf_counter()
            snippet()
            self.samples.append(time.perf_counter() - start)
        finally:
            sys.setswitchinterval(switch)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def snippet_s(self) -> float:
        """Mean snippet time over the body; a cold snippet if no sample was taken."""
        if not self.samples:
            self._sample(None, None)
        return math.fsum(self.samples) / len(self.samples)

    def normalised_s(self, wall_s: float, elasticity: float = 1.0) -> float:
        """`wall_s` rescaled to the speed of a quiet host."""
        return wall_s * (QUIET_SNIPPET_S / self.snippet_s()) ** elasticity
