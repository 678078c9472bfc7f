"""Test doubles for the cycle client: a virtual clock and two transports.

`CycleClient` takes any clock with `now_ns()`/`sleep_until(t_ns)` and any
transport with `publish`/`await_reply`/`close` and the three counters, so
these stand in for `MonotonicClock` and `UdpPingTransport`.
"""

from rttbench import wire


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


class LoopbackTransport:
    """In-process lossless echo: the reply is available the moment we send."""

    def __init__(self, clock):
        self._clock = clock
        self._replies: dict[int, int] = {}
        self.stale_replies = 0
        self.payload_mismatches = 0
        self.send_errors = 0

    def publish(self, msg: wire.Message) -> None:
        self._replies[msg.seq] = self._clock.now_ns()

    def await_reply(self, seq: int, deadline_ns: int) -> int | None:
        return self._replies.pop(seq, None)

    def close(self):
        pass


class ScriptedTransport:
    """Simulated transport: reply delays come from a script, time from SimClock.

    `delays` maps seq -> delay in ns (None = no reply ever). A scheduled
    reply at or before the wait deadline is delivered at its exact virtual
    time; one landing after the deadline is counted stale once virtual time
    passes its arrival.
    """

    def __init__(self, sim_clock, delays):
        self._clock = sim_clock
        self._delays = delays
        self._late: list[int] = []
        self.stale_replies = 0
        self.payload_mismatches = 0
        self.send_errors = 0
        self._pending: dict[int, int | None] = {}

    def _delay_for(self, seq: int):
        if callable(self._delays):
            return self._delays(seq)
        return self._delays[seq] if seq < len(self._delays) else None

    def _reap(self):
        now = self._clock.now_ns()
        still_late = []
        for t in self._late:
            if t <= now:
                self.stale_replies += 1
            else:
                still_late.append(t)
        self._late = still_late

    def publish(self, msg: wire.Message) -> None:
        delay = self._delay_for(msg.seq)
        self._pending[msg.seq] = None if delay is None \
            else self._clock.now_ns() + delay
        self._reap()

    def await_reply(self, seq: int, deadline_ns: int) -> int | None:
        arrival = self._pending.pop(seq, None)
        if arrival is not None and arrival <= deadline_ns:
            self._clock.advance_to(arrival)
            return arrival
        self._clock.advance_to(deadline_ns)
        if arrival is not None:
            self._late.append(arrival)
        self._reap()
        return None

    def close(self):
        pass
