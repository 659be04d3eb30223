"""Virtual time for the simulated machine.

All timing in the reproduction is *simulated*: the discrete-event simulator
advances a global clock measured in cycles, and the kernel converts cycles
to seconds using a fixed frequency.  This keeps every run deterministic,
which matters for two reasons:

* the performance evaluation (Table 1 / Figure 5) must be reproducible, and
* the ``gettimeofday``/``rdtsc`` covert channel of Section 5.4 relies on
  data-dependent *time deltas* being replicated from the master variant to
  the slaves — the deltas must be an honest function of simulated execution
  so that the proof-of-concept genuinely decodes the transmitted bits.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Simulated CPU frequency.  The paper's Xeon E5-2660 runs at 2.2 GHz; we use
#: a round 1 GHz so that 1 cycle == 1 ns, which makes traces easy to read.
CYCLES_PER_SECOND = 1_000_000_000


def cycles_to_seconds(cycles: float) -> float:
    """Convert a simulated cycle count to simulated seconds."""
    return cycles / CYCLES_PER_SECOND


def seconds_to_cycles(seconds: float) -> float:
    """Convert simulated seconds to simulated cycles."""
    return seconds * CYCLES_PER_SECOND


@dataclass
class VirtualClock:
    """A view of simulated time as seen through kernel time syscalls.

    The clock itself does not advance; it reads the machine's global
    simulated time through a callback installed by the simulator.  A fixed
    ``epoch`` offset makes ``gettimeofday`` return plausible wall-clock
    values instead of values near zero.
    """

    #: Seconds added to the simulated time for wall-clock realism.
    epoch: float = 1_490_000_000.0  # late March 2017, the paper's conference

    def __post_init__(self):
        self._now_cycles = lambda: 0.0

    def bind(self, now_cycles_fn) -> None:
        """Install the simulator callback returning current cycles."""
        self._now_cycles = now_cycles_fn

    def gettimeofday(self) -> tuple[int, int]:
        """Return ``(seconds, microseconds)`` like the real syscall."""
        total = self.epoch + cycles_to_seconds(self._now_cycles())
        seconds = int(total)
        microseconds = int(round((total - seconds) * 1_000_000))
        return seconds, microseconds

    def clock_gettime(self) -> tuple[int, int]:
        """Return ``(seconds, nanoseconds)`` of the monotonic clock."""
        total = cycles_to_seconds(self._now_cycles())
        seconds = int(total)
        nanoseconds = int(round((total - seconds) * 1_000_000_000))
        return seconds, nanoseconds

    def rdtsc(self) -> int:
        """Return the simulated time-stamp counter (integer cycles)."""
        return int(self._now_cycles())
