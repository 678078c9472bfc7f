"""Monotonic time sources for the cycle scheduler.

Wall-clock adjustments must never affect samples, so everything here is
based on the monotonic clock. The simulated clock lets the cycle state
machine run deterministically under scripted reply delays.
"""

import time

#: the last stretch of every wait is spun rather than slept
SPIN_NS = 1_500_000


class MonotonicClock:
    """Real clock with spin-assisted absolute wakeups.

    Plain sleep() overshoots by up to a few milliseconds under timer
    slack; sleeping short and spinning the last SPIN_NS keeps wakeup
    error in the low microseconds, which matters at a 10 ms period.
    """

    def now_ns(self) -> int:
        return time.monotonic_ns()

    def sleep_until(self, t_ns: int) -> int:
        """Block until the monotonic clock reaches t_ns; returns the actual time."""
        while True:
            now = time.monotonic_ns()
            if now >= t_ns:
                return now
            remaining = t_ns - now
            if remaining > SPIN_NS:
                time.sleep((remaining - SPIN_NS) / 1e9)
            # else: spin


class SimClock:
    """Virtual clock; time moves only via sleep_until/advance_to."""

    def __init__(self, start_ns: int = 0):
        self._now = start_ns

    def now_ns(self) -> int:
        return self._now

    def advance_to(self, t_ns: int) -> int:
        if t_ns > self._now:
            self._now = t_ns
        return self._now

    def sleep_until(self, t_ns: int) -> int:
        return self.advance_to(t_ns)
