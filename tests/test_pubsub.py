"""Pub/sub semantics: QoS validation, delivery, KEEP_LAST history."""

import threading
import time

import pytest

from rttbench.errors import InvalidEndpointError, TransportError, UnsupportedQosError
from rttbench.pubsub import (
    Endpoint,
    Publisher,
    QosProfile,
    Subscriber,
    _HistoryQueue,
)
from rttbench.wire import Message, pattern_payload

from conftest import loopback_endpoint


def wait_until(predicate, timeout=3.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestQosProfile:
    def test_default_profile_is_best_effort_keep_last_depth_1(self):
        # best-effort KEEP_LAST is the only mode; depth is all there is to set
        assert QosProfile().depth == 1

    def test_depth_zero_rejected(self):
        with pytest.raises(UnsupportedQosError):
            QosProfile(depth=0)


class TestEndpoint:
    def test_parse(self):
        ep = Endpoint.parse("127.0.0.1:17001")
        assert (ep.address, ep.port) == ("127.0.0.1", 17001)

    def test_port_zero_invalid(self):
        with pytest.raises(InvalidEndpointError):
            Endpoint("127.0.0.1", 0)

    def test_bad_address(self):
        with pytest.raises(InvalidEndpointError):
            Endpoint.parse("not-an-ip:1000")

    def test_missing_port(self):
        with pytest.raises(InvalidEndpointError):
            Endpoint.parse("127.0.0.1")


class TestHistoryQueue:
    def test_depth_1_keeps_newest(self):
        q = _HistoryQueue(1)
        assert q.push(1) is False
        assert q.push(2) is True
        assert q.pop(0.01) == 2
        assert q.overwritten == 1

    def test_depth_3_keeps_three_newest_in_order(self):
        # queue simulation oracle: with depth d and n >= d pushes, the
        # d newest survive in order
        q = _HistoryQueue(3)
        for seq in (1, 2, 3, 4):
            q.push(seq)
        assert [q.pop(0.01) for _ in range(3)] == [2, 3, 4]
        assert q.overwritten == 1


class TestPublisher:
    def test_publish_reports_datagram_count(self, endpoint_pair):
        remote, _ = endpoint_pair
        with Publisher(1, remote) as pub:
            assert pub.publish(Message(1, 0, pattern_payload(0, 500))).datagrams == 1
            assert pub.publish(Message(1, 1, pattern_payload(1, 32768))).datagrams == 24
            assert pub.publish(Message(1, 2, b"")).datagrams == 1

    def test_topic_mismatch_rejected(self, endpoint_pair):
        remote, _ = endpoint_pair
        with Publisher(1, remote) as pub:
            with pytest.raises(ValueError):
                pub.publish(Message(2, 0, b""))

    def test_publisher_opens_and_closes(self, endpoint_pair):
        remote, _ = endpoint_pair
        pub = Publisher(1, remote)
        pub.close()


class TestSubscriber:
    def test_single_message_delivered_exactly_once(self):
        local = loopback_endpoint()
        seen = []
        with Subscriber(7, local, QosProfile(), seen.append) as sub, \
                Publisher(7, local) as pub:
            pub.publish(Message(7, 0, pattern_payload(0, 500)))
            assert wait_until(lambda: len(seen) == 1)
            time.sleep(0.1)
            assert len(seen) == 1
            assert seen[0] == Message(7, 0, pattern_payload(0, 500))
            assert sub.counters().delivered == 1

    def test_fragmented_message_delivered_intact(self):
        local = loopback_endpoint()
        seen = []
        with Subscriber(7, local, QosProfile(), seen.append) as sub, \
                Publisher(7, local) as pub:
            payload = pattern_payload(3, 32768)
            pub.publish(Message(7, 3, payload))
            assert wait_until(lambda: len(seen) == 1)
            assert seen[0].payload == payload

    def test_keep_last_depth_1_blocked_callback_sees_newest(self):
        # spec example: seq 1 and 2 arrive while the callback is busy;
        # the callback next observes only seq 2, seq 1 is overwritten
        local = loopback_endpoint()
        gate = threading.Event()
        seen = []

        def callback(m):
            seen.append(m.seq)
            if m.seq == 0:
                gate.wait(5.0)

        with Subscriber(9, local, QosProfile(depth=1), callback) as sub, \
                Publisher(9, local) as pub:
            pub.publish(Message(9, 0, b"gate"))
            assert wait_until(lambda: seen == [0])
            for seq in (1, 2):
                pub.publish(Message(9, seq, pattern_payload(seq, 16)))
            assert wait_until(lambda: sub.counters().arrived == 3)
            gate.set()
            assert wait_until(lambda: len(seen) == 2)
            time.sleep(0.1)
            assert seen == [0, 2]
            assert sub.counters().overwritten == 1

    def test_keep_last_depth_3_blocked_callback_sees_three_newest(self):
        local = loopback_endpoint()
        gate = threading.Event()
        seen = []

        def callback(m):
            seen.append(m.seq)
            if m.seq == 0:
                gate.wait(5.0)

        with Subscriber(9, local, QosProfile(depth=3), callback) as sub, \
                Publisher(9, local) as pub:
            pub.publish(Message(9, 0, b"gate"))
            assert wait_until(lambda: seen == [0])
            for seq in (1, 2, 3, 4):
                pub.publish(Message(9, seq, pattern_payload(seq, 16)))
            assert wait_until(lambda: sub.counters().arrived == 5)
            gate.set()
            assert wait_until(lambda: len(seen) == 4)
            assert seen == [0, 2, 3, 4]
            assert sub.counters().overwritten == 1  # seq 1 was the oldest

    def test_malformed_datagrams_counted_and_dropped(self):
        import socket as socketlib
        local = loopback_endpoint()
        seen = []
        with Subscriber(7, local, QosProfile(), seen.append) as sub:
            s = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_DGRAM)
            s.sendto(b"junk", (local.address, local.port))
            s.sendto(b"\x00" * 31, (local.address, local.port))
            s.close()
            assert wait_until(lambda: sub.counters().malformed_frames == 2)
            assert seen == []

    def test_foreign_topic_ignored(self):
        local = loopback_endpoint()
        seen = []
        with Subscriber(7, local, QosProfile(), seen.append) as sub, \
                Publisher(8, local) as pub:
            pub.publish(Message(8, 0, b"x"))
            assert wait_until(lambda: sub.counters().foreign_frames == 1)
            assert seen == []

    def test_bind_conflict_is_transport_error(self):
        local = loopback_endpoint()
        with Subscriber(1, local, QosProfile(), lambda m: None):
            with pytest.raises(TransportError):
                Subscriber(1, local, QosProfile(), lambda m: None)

    def test_counters_monotonic_under_simulated_loss(self):
        # drop every other datagram of fragmented messages before they
        # reach the subscriber: incomplete count must grow exactly with
        # the dropped messages and never decrease
        import socket as socketlib
        from rttbench import wire as w
        local = loopback_endpoint()
        seen = []
        with Subscriber(5, local, QosProfile(depth=10), seen.append) as sub:
            s = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_DGRAM)
            lost = 0
            previous = 0
            for seq in range(6):
                datagrams = w.encode(Message(5, seq, pattern_payload(seq, 3000)), 1400)
                drop_one = seq % 2 == 1
                if drop_one:
                    datagrams = datagrams[1:]
                    lost += 1
                for d in datagrams:
                    s.sendto(d, (local.address, local.port))
                time.sleep(0.02)
                current = sub.counters().incomplete_messages
                assert current >= previous
                previous = current
            s.close()
            assert wait_until(lambda: sub.counters().incomplete_messages == lost)
            assert wait_until(lambda: len(seen) == 6 - lost)
            assert [m.seq for m in seen] == [0, 2, 4]
