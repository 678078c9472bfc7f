"""Monotonic time sources for the cycle scheduler.

Wall-clock adjustments must never affect samples, so everything here is
based on the monotonic clock. `CycleClient` takes any object with
`now_ns()` and `sleep_until(t_ns)`, so a virtual clock can stand in for
this one.

The real clock spins through the last stretch of every wait, and each
pass of that spin is a `time.sleep(0)`, which gives up the interpreter
lock. A spin that only read the clock would keep the lock until the
interpreter's switch interval (5 ms) forced a hand-over; at a 1 ms period
the cycle thread spins between all its cycles, so the receive and CBR
threads would wait up to that long to run a line of Python. Wake-up
lateness is not part of a round trip, since t1 is read after the wake-up,
but a receive thread kept from the lock is.
"""

import time

#: the last stretch of every wait is spun rather than slept
SPIN_NS = 1_500_000


class MonotonicClock:
    """Real clock with spin-assisted absolute wakeups.

    Plain sleep() overshoots by up to a few milliseconds under timer
    slack; sleeping short and spinning the last SPIN_NS ends each wait
    close to its target. Each pass of the spin is `time.sleep(0)`, so other
    threads get the interpreter lock at once rather than after the 5 ms
    switch interval. That call is a zero-length `clock_nanosleep`, which
    ends within the thread's timer slack: about 5 us under SCHED_FIFO,
    where wake-ups stay within a few microseconds of the target, and about
    55 us under the default 50 us slack, where a wake-up can be that late
    and the wait takes a tenth of a CPU instead of all of it.
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
            else:
                time.sleep(0)  # spin, but hand over the interpreter lock
