"""Round-trip (ping-pong) client and server state machines.

The client publishes one message per cycle on the ping topic and waits for
its echo on the pong topic. Round-trip time is t2 - t1, where t1 is taken
immediately before the publish call and t2 at reply-callback entry, both
from the monotonic clock.

Cycle schedule. Wakeups target the absolute grid t0 + k*period, so timing
error never accumulates. At most one ping is ever in flight:

  * a reply within the current cycle -> next wakeup is the next grid point;
  * a reply (or the loss timeout) landing at or past the cycle's end -> the
    next message goes out at the first grid point >= the finalization time
    ("the next available cycle");
  * a wakeup late by more than one period skips the missed cycles rather
    than bursting to catch up.

A sample with no reply within loss_timeout is LOST and its seq retired;
a reply arriving after retirement is counted stale, never reclassified.
A reply with rtt above the deadline is a MISSED_DEADLINE; at or below it,
OK. The run covers every wakeup with t0 <= wake <= t0 + duration, which
yields duration/period + 1 samples on a lossless transport.

Samples are appended as they are taken, so storage grows with the
samples a run actually makes, not with duration/period. The cyclic
garbage collector is paused for the run, which keeps collection out of
the measurement window.
"""

import gc
import threading
import time
from dataclasses import dataclass
from enum import Enum

from . import pubsub, wire
from .clock import MonotonicClock

PING_TOPIC = 1
PONG_TOPIC = 2

DEFAULT_PERIOD_NS = 10_000_000
DEFAULT_DEADLINE_NS = 10_000_000
DEFAULT_LOSS_TIMEOUT_NS = 500_000_000


class SampleClass(Enum):
    OK = "OK"
    MISSED_DEADLINE = "MISSED_DEADLINE"
    LOST = "LOST"


@dataclass(slots=True)
class RttSample:
    """One round-trip record: t2/rtt are None when the reply never came."""

    seq: int
    t1_ns: int
    t2_ns: int | None
    rtt_us: int | None
    cls: SampleClass


@dataclass(frozen=True)
class CycleConfig:
    duration_ns: int
    payload_size: int = 500
    period_ns: int = DEFAULT_PERIOD_NS
    deadline_ns: int = DEFAULT_DEADLINE_NS
    loss_timeout_ns: int = DEFAULT_LOSS_TIMEOUT_NS

    def __post_init__(self):
        if not 0 < self.deadline_ns <= self.period_ns <= self.loss_timeout_ns \
                <= self.duration_ns:
            raise ValueError(
                "cycle config must satisfy 0 < deadline <= period <= "
                f"loss_timeout <= duration, got deadline={self.deadline_ns} "
                f"period={self.period_ns} loss_timeout={self.loss_timeout_ns} "
                f"duration={self.duration_ns}")
        if not 0 <= self.payload_size <= wire.MAX_PAYLOAD:
            raise ValueError(f"payload_size {self.payload_size} outside "
                             f"0..{wire.MAX_PAYLOAD}")

    @property
    def deadline_us(self) -> int:
        return self.deadline_ns // 1000


def classify(rtt_us: int | None, deadline_us: int) -> SampleClass:
    """Total classification function: LOST if absent, else compare to deadline."""
    if rtt_us is None:
        return SampleClass.LOST
    if rtt_us > deadline_us:
        return SampleClass.MISSED_DEADLINE
    return SampleClass.OK


@dataclass
class ClientCounters:
    stale_replies: int = 0
    payload_mismatches: int = 0
    send_errors: int = 0
    skipped_cycles: int = 0
    warmup_samples: int = 0
    wakeup_jitter_max_us: int = 0
    wakeup_jitter_avg_us: int = 0


@dataclass
class ClientResult:
    """Ordered samples plus anomaly counters from one client run."""

    samples: list[RttSample]
    counters: ClientCounters
    t0_ns: int = 0
    measure_start_ns: int = 0
    measure_end_ns: int = 0


class UdpPingTransport:
    """Ping publisher + pong subscriber glued by a one-slot reply mailbox.

    The mailbox is the only state shared between the cycle thread and the
    subscriber callback thread. No lock is ever held across a socket
    operation: publish arms the mailbox, releases the lock, then sends.
    """

    def __init__(self, ping_remote: pubsub.Endpoint, pong_local: pubsub.Endpoint,
                 qos: pubsub.QosProfile, *,
                 max_datagram: int = wire.DEFAULT_MAX_DATAGRAM,
                 thread_init=None):
        self._cond = threading.Condition()
        self._armed_seq: int | None = None
        self._t2_ns: int | None = None
        self.stale_replies = 0
        self.payload_mismatches = 0
        self._publisher = pubsub.Publisher(PING_TOPIC, ping_remote,
                                           max_datagram=max_datagram)
        self._subscriber = pubsub.Subscriber(PONG_TOPIC, pong_local, qos,
                                             self._on_pong,
                                             thread_init=thread_init,
                                             name="pong")

    def publish(self, msg: wire.Message) -> None:
        with self._cond:
            self._armed_seq = msg.seq
            self._t2_ns = None
        self._publisher.publish(msg)

    def _on_pong(self, msg: wire.Message) -> None:
        t2 = time.monotonic_ns()  # callback entry: timestamp before anything else
        with self._cond:
            if msg.seq == self._armed_seq and self._t2_ns is None:
                self._t2_ns = t2
                self._cond.notify()
            else:
                self.stale_replies += 1
                return
        if msg.payload != wire.pattern_payload(msg.seq, len(msg.payload)):
            self.payload_mismatches += 1

    def await_reply(self, seq: int, deadline_ns: int) -> int | None:
        with self._cond:
            while self._t2_ns is None:
                remaining = deadline_ns - time.monotonic_ns()
                if remaining <= 0:
                    break
                self._cond.wait(remaining / 1e9)
            t2 = self._t2_ns
            self._armed_seq = None  # retire: later replies count as stale
            self._t2_ns = None
        return t2

    @property
    def send_errors(self) -> int:
        return self._publisher.send_errors

    def close(self):
        self._subscriber.close()
        self._publisher.close()


class CycleClient:
    """Fixed-period ping-pong client; the engine behind run_client.

    Owns the publish side and sample finalization; the transport's reply
    path only records t2 and signals. Samples go into a list that grows
    by one per sample taken; the GC pause in run() keeps collection out
    of the measurement window.
    """

    def __init__(self, cfg: CycleConfig, transport, clock=None, *,
                 warmup_ns: int = 0):
        self.cfg = cfg
        self.transport = transport
        self.clock = clock or MonotonicClock()
        self.warmup_ns = warmup_ns

    def run(self) -> ClientResult:
        # The cyclic collector is the one in-process pause source the hot
        # path can't avoid (sample/datagram objects are acyclic, so
        # refcounting still reclaims them); suspend it for the run.
        resume_gc = gc.isenabled()
        if resume_gc:
            gc.collect()
            gc.disable()
        try:
            return self._run()
        finally:
            if resume_gc:
                gc.enable()

    def _run(self) -> ClientResult:
        cfg = self.cfg
        clock = self.clock
        counters = ClientCounters()
        samples: list[RttSample] = []
        deadline_us = cfg.deadline_us
        period = cfg.period_ns

        t0 = clock.now_ns()
        measure_start = t0 + self.warmup_ns
        end = measure_start + cfg.duration_ns

        wire_seq = 0
        jitter_sum = 0
        k = 0

        while True:
            if clock.now_ns() >= end:
                break
            wake = t0 + k * period
            if wake > end:
                break
            actual = clock.sleep_until(wake)
            t1 = clock.now_ns()
            msg = wire.Message(PING_TOPIC, wire_seq,
                               wire.pattern_payload(wire_seq, cfg.payload_size))
            self.transport.publish(msg)
            t2 = self.transport.await_reply(wire_seq, t1 + cfg.loss_timeout_ns)
            rtt_us = None if t2 is None else (t2 - t1) // 1000
            cls = classify(rtt_us, deadline_us)
            finalized = clock.now_ns()

            if t1 >= measure_start:
                samples.append(RttSample(len(samples), t1, t2, rtt_us, cls))
                jitter_us = (actual - wake) // 1000
                jitter_sum += jitter_us
                if jitter_us > counters.wakeup_jitter_max_us:
                    counters.wakeup_jitter_max_us = jitter_us
            else:
                counters.warmup_samples += 1

            wire_seq += 1
            # next available cycle; skip starved cycles, never burst
            k_done = -(-(finalized - t0) // period)
            next_k = max(k + 1, k_done)
            counters.skipped_cycles += next_k - (k + 1)
            k = next_k

        counters.stale_replies = self.transport.stale_replies
        counters.payload_mismatches = self.transport.payload_mismatches
        counters.send_errors = self.transport.send_errors
        if samples:
            counters.wakeup_jitter_avg_us = jitter_sum // len(samples)
        return ClientResult(samples=samples, counters=counters,
                            t0_ns=t0, measure_start_ns=measure_start,
                            measure_end_ns=clock.now_ns())


def run_client(cfg: CycleConfig, ping_remote: pubsub.Endpoint,
               pong_local: pubsub.Endpoint, qos: pubsub.QosProfile, *,
               warmup_ns: int = 0, max_datagram: int = wire.DEFAULT_MAX_DATAGRAM,
               cycle_thread_init=None,
               transport_thread_init=None) -> ClientResult:
    """Run the ping-pong client over UDP and return samples plus counters.

    The cycle loop runs on a dedicated thread (the caller's thread stays
    out of the hot path); `cycle_thread_init` / `transport_thread_init`
    run first on the respective threads to apply scheduling settings.
    """
    transport = UdpPingTransport(ping_remote, pong_local, qos,
                                 max_datagram=max_datagram,
                                 thread_init=transport_thread_init)
    client = CycleClient(cfg, transport, warmup_ns=warmup_ns)
    result_box: list = []

    def _cycle():
        try:
            if cycle_thread_init:
                cycle_thread_init("cycle")
            result_box.append(client.run())
        except BaseException as exc:  # surfaced to the caller below
            result_box.append(exc)

    thread = threading.Thread(target=_cycle, name="cycle")
    try:
        thread.start()
        thread.join()
    finally:
        transport.close()
    result = result_box[0]
    if isinstance(result, BaseException):
        raise result
    # the pong callback thread may still have been counting when the cycle
    # thread finished; close() joined it, so these totals are final
    result.counters.stale_replies = transport.stale_replies
    result.counters.payload_mismatches = transport.payload_mismatches
    return result


@dataclass
class ServerStats:
    echoed: int = 0
    malformed: int = 0
    send_errors: int = 0


class EchoServer:
    """Replies every completed ping with an identical-seq, identical-payload pong."""

    def __init__(self, ping_local: pubsub.Endpoint, pong_remote: pubsub.Endpoint,
                 qos: pubsub.QosProfile, *,
                 max_datagram: int = wire.DEFAULT_MAX_DATAGRAM,
                 thread_init=None):
        self._publisher = pubsub.Publisher(PONG_TOPIC, pong_remote,
                                           max_datagram=max_datagram)
        self._echoed = 0
        self._subscriber = pubsub.Subscriber(PING_TOPIC, ping_local, qos,
                                             self._on_ping,
                                             thread_init=thread_init,
                                             name="ping")

    def _on_ping(self, msg: wire.Message) -> None:
        self._publisher.publish(wire.Message(PONG_TOPIC, msg.seq, msg.payload))
        self._echoed += 1

    def stats(self) -> ServerStats:
        sub = self._subscriber.counters()
        return ServerStats(echoed=self._echoed,
                           malformed=sub.malformed_frames,
                           send_errors=self._publisher.send_errors)

    def close(self) -> ServerStats:
        stats = self.stats()
        self._subscriber.close()
        self._publisher.close()
        return stats

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

