"""Monotonic time sources for the cycle scheduler.

Wall-clock adjustments must never affect samples, so everything here is
based on the monotonic clock. `CycleClient` takes any object with
`now_ns()` and `sleep_until(t_ns)`, so a virtual clock can stand in for
this one.
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
