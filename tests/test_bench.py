"""Cycle client state machine, classification, echo server."""

import random
import statistics
import threading
import time
import tracemalloc
from collections import Counter

import pytest

from rttbench.bench import (
    CycleClient,
    CycleConfig,
    EchoServer,
    PING_TOPIC,
    PONG_TOPIC,
    SampleClass,
    classify,
    run_client,
)
from rttbench.clock import MonotonicClock
from rttbench.pubsub import Endpoint, Publisher, QosProfile, Subscriber
from rttbench.wire import Message, pattern_payload

from conftest import classify_oracle, loopback_endpoint, replay_oracle
from doubles import LoopbackTransport, ScriptedTransport, SimClock

MS = 1_000_000
S = 1_000_000_000


def sim_run(delays, duration_ns, *, warmup_ns=0, payload=16, **cfg_kwargs):
    cfg = CycleConfig(duration_ns=duration_ns, payload_size=payload, **cfg_kwargs)
    clock = SimClock()
    transport = ScriptedTransport(clock, delays)
    client = CycleClient(cfg, transport, clock, warmup_ns=warmup_ns)
    return client.run()


class OneInFlightTransport(ScriptedTransport):
    """Fails on a publish while a ping is outstanding, or on a wait for
    any seq other than the last one published."""

    def __init__(self, sim_clock, delays):
        super().__init__(sim_clock, delays)
        self.outstanding = None
        self.published = 0

    def publish(self, msg):
        assert self.outstanding is None, "second ping while one in flight"
        self.outstanding = msg.seq
        self.published += 1
        super().publish(msg)

    def await_reply(self, seq, deadline_ns):
        assert seq == self.outstanding, "wait for a seq not just published"
        self.outstanding = None
        return super().await_reply(seq, deadline_ns)


class TestClassify:
    def test_boundary_at_deadline_is_ok(self):
        assert classify(9999, 10000) is SampleClass.OK
        assert classify(10000, 10000) is SampleClass.OK

    def test_above_deadline_is_missed(self):
        assert classify(10001, 10000) is SampleClass.MISSED_DEADLINE

    def test_absent_is_lost(self):
        assert classify(None, 10000) is SampleClass.LOST

    def test_matches_oracle_on_mixed_pairs(self):
        rng = random.Random(7)
        pairs = [(rng.choice([None, rng.randrange(0, 30000)]),
                  rng.randrange(1, 20000)) for _ in range(2000)]
        pairs += [(d, d) for d in (1, 10000)] + [(d + 1, d) for d in (1, 10000)]
        for rtt, deadline in pairs:
            assert classify(rtt, deadline) is classify_oracle(rtt, deadline)


class TestCycleConfig:
    def test_ordering_invariant(self):
        with pytest.raises(ValueError):
            CycleConfig(duration_ns=1 * S, deadline_ns=11 * MS)  # deadline > period
        with pytest.raises(ValueError):
            CycleConfig(duration_ns=100 * MS)  # loss_timeout > duration
        with pytest.raises(ValueError):
            CycleConfig(duration_ns=1 * S, deadline_ns=0)

    def test_defaults(self):
        cfg = CycleConfig(duration_ns=1 * S)
        assert cfg.period_ns == 10 * MS
        assert cfg.deadline_ns == 10 * MS
        assert cfg.loss_timeout_ns == 500 * MS


class TestSimulatedClient:
    def test_lossless_sample_count_is_duration_over_period_plus_one(self):
        result = sim_run(lambda seq: 100_000, 60 * S)
        assert len(result.samples) == 6001
        assert all(s.cls is SampleClass.OK for s in result.samples)

    def test_seq_gap_free_from_zero(self):
        result = sim_run(lambda seq: 100_000, 2 * S)
        assert [s.seq for s in result.samples] == list(range(len(result.samples)))

    def test_counter_partition(self):
        rng = random.Random(3)
        result = sim_run(lambda seq: rng.choice([None, 100_000, 12 * MS]), 10 * S)
        n = len(result.samples)
        classes = Counter(s.cls for s in result.samples)
        assert classes[SampleClass.OK] + classes[SampleClass.MISSED_DEADLINE] \
            + classes[SampleClass.LOST] == n

    def test_no_reply_yields_one_lost_per_loss_timeout(self):
        result = sim_run(lambda seq: None, 5 * S)
        assert len(result.samples) == 10
        assert all(s.cls is SampleClass.LOST for s in result.samples)
        assert [s.t1_ns for s in result.samples] == \
            [i * 500 * MS for i in range(10)]

    def test_late_reply_missed_deadline(self):
        result = sim_run(lambda seq: 12 * MS, 1 * S)
        assert result.samples[0].cls is SampleClass.MISSED_DEADLINE
        assert result.samples[0].rtt_us == 12000

    def test_reply_at_loss_timeout_boundary_counts_as_missed_not_lost(self):
        result = sim_run(lambda seq: 500 * MS, 1 * S)
        assert result.samples[0].cls is SampleClass.MISSED_DEADLINE
        assert result.samples[0].rtt_us == 500_000

    def test_reply_just_past_loss_timeout_is_lost_and_stale(self):
        result = sim_run(lambda seq: 500 * MS + 1, 1 * S)
        assert result.samples[0].cls is SampleClass.LOST
        assert result.counters.stale_replies >= 1

    def test_one_in_flight_at_the_transport(self):
        rng = random.Random(11)
        clock = SimClock()
        transport = OneInFlightTransport(
            clock, lambda seq: rng.choice([50_000, 12 * MS, None]))
        result = CycleClient(CycleConfig(duration_ns=5 * S, payload_size=16),
                             transport, clock).run()
        assert transport.outstanding is None
        assert transport.published == len(result.samples) > 0

    def test_warmup_excluded_and_renumbered(self):
        result = sim_run(lambda seq: 100_000, 5 * S, warmup_ns=1 * S)
        assert result.counters.warmup_samples == 100
        assert len(result.samples) == 501
        assert result.samples[0].seq == 0
        assert result.samples[0].t1_ns == 1 * S

    def test_construction_does_not_scale_with_duration(self):
        # 10 s at a 1 us period: storage sized by duration/period would
        # take 80 MB before the first ping
        cfg = CycleConfig(duration_ns=10 * S, period_ns=1000, deadline_ns=1000)
        clock = SimClock()
        transport = ScriptedTransport(clock, lambda s: 1000)
        tracemalloc.start()
        try:
            CycleClient(cfg, transport, clock)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_replay_oracle_exactly(self, seed):
        rng = random.Random(seed)
        script = [rng.choice([None, 80_000, 500_000, 5 * MS, 12 * MS,
                              50 * MS, 499 * MS, 500 * MS, 500 * MS + 1,
                              501 * MS]) for _ in range(4000)]
        delays = lambda seq: script[seq] if seq < len(script) else 100_000
        result = sim_run(delays, 20 * S, warmup_ns=1 * S)
        expected = replay_oracle(delays, duration_ns=20 * S, warmup_ns=1 * S)
        got = [(s.t1_ns, s.t2_ns, s.rtt_us, s.cls) for s in result.samples]
        assert got == expected


class TestMonotonicClock:
    def test_wait_frees_the_interpreter_lock(self):
        # a thread that sleeps 200 us at a time needs the lock back on each
        # wake-up; a spin that kept it would hold it for the 5 ms switch
        # interval
        lateness_ns = []
        done = threading.Event()

        def sleeper():
            while not done.is_set():
                due = time.monotonic_ns() + 200_000
                time.sleep(0.0002)
                lateness_ns.append(time.monotonic_ns() - due)

        thread = threading.Thread(target=sleeper, name="sleeper")
        thread.start()
        try:
            clock = MonotonicClock()
            start = clock.now_ns()
            for k in range(1, 201):
                clock.sleep_until(start + k * MS)
        finally:
            done.set()
            thread.join(5.0)
        assert not thread.is_alive()
        assert statistics.median(lateness_ns) < 1 * MS


class TestLoopbackTransport:
    def test_lossless_and_real_time(self):
        cfg = CycleConfig(duration_ns=1 * S)
        client = CycleClient(cfg, LoopbackTransport(MonotonicClock()))
        result = client.run()
        assert len(result.samples) == 101
        assert all(s.cls is SampleClass.OK for s in result.samples)


class TestLiveRoundTrip:
    def test_client_server_over_udp(self, endpoint_pair):
        ping, pong = endpoint_pair
        qos = QosProfile()
        with EchoServer(ping, pong, qos) as server:
            cfg = CycleConfig(duration_ns=2 * S)
            result = run_client(cfg, ping, pong, qos)
            n = len(result.samples)
            # a scheduler stall > period legitimately skips cycles; the
            # exact-count contract is pinned by the simulated-clock tests
            assert 199 <= n <= 201
            assert all(s.cls is not SampleClass.LOST for s in result.samples)
            assert [s.seq for s in result.samples] == list(range(n))
            assert server.stats().echoed >= n

    def test_server_echo_preserves_seq_and_payload(self, endpoint_pair):
        ping, pong = endpoint_pair
        qos = QosProfile()
        seen = []
        with EchoServer(ping, pong, qos), \
                Subscriber(2, pong, qos, seen.append) as sub, \
                Publisher(PING_TOPIC, ping) as pub:
            payload = pattern_payload(9, 500)
            pub.publish(Message(PING_TOPIC, 9, payload))
            deadline = time.monotonic() + 3
            while not seen and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(seen) == 1
            assert seen[0].seq == 9
            assert seen[0].payload == payload

    def test_malformed_ping_counted_no_pong(self, endpoint_pair):
        import socket
        ping, pong = endpoint_pair
        qos = QosProfile()
        pongs = []
        with EchoServer(ping, pong, qos) as server, \
                Subscriber(2, pong, qos, pongs.append):
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            s.sendto(b"garbage-frame", (ping.address, ping.port))
            s.close()
            deadline = time.monotonic() + 3
            while server.stats().malformed < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            stats = server.stats()
            assert stats.malformed == 1
            assert stats.echoed == 0
            time.sleep(0.1)
            assert pongs == []

    def test_every_wrong_payload_counted(self, endpoint_pair):
        ping, pong = endpoint_pair
        qos = QosProfile()
        with Publisher(PONG_TOPIC, pong) as pub:
            def echo_zeros(msg):
                pub.publish(Message(PONG_TOPIC, msg.seq, bytes(len(msg.payload))))

            with Subscriber(PING_TOPIC, ping, qos, echo_zeros):
                result = run_client(CycleConfig(duration_ns=1 * S), ping, pong, qos)
        replied = sum(1 for s in result.samples if s.t2_ns is not None)
        assert replied > 0
        assert result.counters.payload_mismatches == replied

    def test_absent_server_every_sample_lost(self, endpoint_pair):
        ping, pong = endpoint_pair
        qos = QosProfile()
        cfg = CycleConfig(duration_ns=1 * S, loss_timeout_ns=200 * MS,
                          deadline_ns=10 * MS, period_ns=10 * MS)
        result = run_client(cfg, ping, pong, qos)
        assert len(result.samples) > 0
        assert all(s.cls is SampleClass.LOST for s in result.samples)
        assert all(s.rtt_us is None for s in result.samples)
