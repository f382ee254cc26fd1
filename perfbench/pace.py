"""Host-speed normalisation: an in-thread pace sampler.

On a shared host the speed of one core drifts by 30% and more within a
minute, as other tenants load the physical cores it shares; the drift is
not the same on two cores at once.  A wall clock measured over one run
moves with it, so the benchmark reports its times in *reference
seconds*: the measured time rescaled to the speed at which one round of
a fixed calibration kernel takes :data:`REF_S`.

:class:`PaceSampler` runs that kernel from a ``SIGALRM`` handler every
:data:`PERIOD_S` seconds of wall time, on the main thread of the process
doing the work, and records when each round started and how long it
took.  :func:`normalise` turns an interval of that process into
reference seconds: the interval minus the kernel's own rounds, divided
by the mean round time over :data:`REF_S`.  The kernel mixes dict, list,
attribute and integer work like the simulator's own Python: of the
kernels tried it tracked the program's slowdown best: seven cold Table 2
passes whose wall clocks ranged over 26% of their median ranged over 3%
once normalised.

The rounds take about 2% of the work's time; :func:`normalise` takes
them out again.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Sequence, Tuple

#: Seconds one kernel round takes at reference speed.
REF_S = 1.0e-3
#: Wall seconds between kernel rounds.
PERIOD_S = 0.05
#: Loop iterations in one round.
ROUND = 4000


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 0
        self.b = 1


def kernel(rounds: int = ROUND) -> int:
    """The calibration work: dict, list, attribute and integer steps."""
    table: dict = {}
    queue: list = []
    cell = _Cell()
    for i in range(rounds):
        key = i & 255
        table[key] = table.get(key, 0) + 1
        queue.append(i)
        cell.a += cell.b
        if len(queue) > 64:
            queue.pop()
    return cell.a


class PaceSampler:
    """Times one kernel round every ``period`` seconds of wall time.

    ``samples`` holds ``(started, seconds)`` pairs on the system-wide
    ``time.monotonic`` clock, so another process can place them against
    its own timestamps.  Python runs signal handlers on the main thread,
    between bytecodes, so a round never interleaves with other work on
    that thread; in a threaded process it holds the GIL while it runs.
    """

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.samples: List[Tuple[float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.monotonic()
        kernel()
        self.samples.append((start, time.monotonic() - start))

    def start(self) -> "PaceSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self) -> List[Tuple[float, float]]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return list(self.samples)


def window(samples: Sequence[Sequence[float]], start: float, end: float) -> List[float]:
    """Round times of the rounds that started in ``[start, end)``."""
    return [seconds for started, seconds in samples if start <= started < end]


def factor(samples: Sequence[Sequence[float]], start: float, end: float) -> float:
    """Host slowness over ``[start, end)``: mean round time / :data:`REF_S`.

    An interval too short to hold a round uses every round of the
    process; a process without rounds counts as reference speed.
    """
    inside = window(samples, start, end) or [seconds for _, seconds in samples]
    return statistics.fmean(inside) / REF_S if inside else 1.0


def normalise(samples: Sequence[Sequence[float]], start: float, end: float) -> float:
    """Reference seconds of the wall interval ``[start, end)``."""
    busy = (end - start) - sum(window(samples, start, end))
    return busy / factor(samples, start, end)
