"""Best-effort topic pub/sub over UDP with KEEP_LAST history.

There is no discovery and no handshake: a publisher sends datagrams to a
statically configured peer endpoint, a subscriber binds one. Reliability
is best-effort only — sends never wait for delivery, and a send error is
counted, not raised. History is KEEP_LAST only: the subscriber keeps the
newest `depth` undelivered messages; when the history queue is full the
oldest entry is overwritten (drops happen at the reader side).
"""

import ipaddress
import socket
import threading
from collections import deque
from dataclasses import dataclass

from . import wire
from .errors import InvalidEndpointError, TransportError, UnsupportedQosError

DEFAULT_RECV_BUFFER = 1 << 20  # 80 Mbps bursts overflow small kernel defaults
_POLL_S = 0.05


@dataclass(frozen=True)
class QosProfile:
    """Subscriber queue behavior: best-effort delivery, KEEP_LAST `depth`."""

    depth: int = 1

    def __post_init__(self):
        if self.depth < 1:
            raise UnsupportedQosError(f"history depth must be >= 1, got {self.depth}")


@dataclass(frozen=True)
class Endpoint:
    address: str
    port: int

    def __post_init__(self):
        if not 1 <= self.port <= 65535:
            raise InvalidEndpointError(f"port {self.port} outside 1..65535")

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        """Parse a dotted-quad:port string, e.g. '127.0.0.1:17001'."""
        host, sep, port_s = text.rpartition(":")
        if not sep:
            raise InvalidEndpointError(f"missing port in {text!r}")
        try:
            ipaddress.IPv4Address(host)
            port = int(port_s)
        except (ipaddress.AddressValueError, ValueError) as exc:
            raise InvalidEndpointError(f"bad endpoint {text!r}: {exc}") from exc
        return cls(host, port)

    def __str__(self) -> str:
        return f"{self.address}:{self.port}"


@dataclass(frozen=True)
class SendReport:
    datagrams: int
    bytes: int
    errors: int


class Publisher:
    """Sends messages on one topic to one remote endpoint.

    Confined to the thread that publishes. Send failures are counted and
    the sample proceeds; a socket timeout bounds the worst-case block.
    """

    def __init__(self, topic_id: int, remote: Endpoint, *,
                 max_datagram: int = wire.DEFAULT_MAX_DATAGRAM):
        self.topic_id = topic_id
        self.remote = remote
        self.max_datagram = max_datagram
        self.datagrams_sent = 0
        self.bytes_sent = 0
        self.send_errors = 0
        self._dest = (remote.address, remote.port)
        try:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._sock.settimeout(0.5)
        except OSError as exc:
            raise TransportError(f"publisher socket: {exc}") from exc
        self._closed = False

    def publish(self, msg: wire.Message) -> SendReport:
        if msg.topic_id != self.topic_id:
            raise ValueError(f"message topic {msg.topic_id} != publisher topic {self.topic_id}")
        sent = errors = nbytes = 0
        for datagram in wire.encode(msg, self.max_datagram):
            try:
                self._sock.sendto(datagram, self._dest)
                sent += 1
                nbytes += len(datagram)
            except OSError:
                errors += 1
        self.datagrams_sent += sent
        self.bytes_sent += nbytes
        self.send_errors += errors
        return SendReport(sent, nbytes, errors)

    def close(self):
        if not self._closed:
            self._closed = True
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _HistoryQueue:
    """Bounded KEEP_LAST buffer, safe for one producer and one consumer."""

    def __init__(self, depth: int):
        self._depth = depth
        self._items: deque = deque()
        self._cond = threading.Condition()
        self.overwritten = 0

    def push(self, item) -> bool:
        """Append; overwrite the oldest entry when full. Returns True if it did."""
        with self._cond:
            overwrote = False
            if len(self._items) >= self._depth:
                self._items.popleft()
                self.overwritten += 1
                overwrote = True
            self._items.append(item)
            self._cond.notify()
            return overwrote

    def pop(self, timeout: float):
        with self._cond:
            if not self._items:
                self._cond.wait(timeout)
            if self._items:
                return self._items.popleft()
            return None

    def close(self):
        with self._cond:
            self._cond.notify_all()


@dataclass(frozen=True)
class SubscriberCounters:
    arrived: int
    delivered: int
    overwritten: int
    malformed_frames: int
    incomplete_messages: int
    stale_frames: int
    duplicate_frames: int
    foreign_frames: int
    callback_errors: int


class Subscriber:
    """Receives datagrams on a bound port, reassembles, delivers via callback.

    One receive thread decodes and reassembles; completed messages go into
    the history queue. A separate callback thread drains the queue, so a
    slow callback causes KEEP_LAST overwrites instead of blocking the
    socket. `thread_init(role)` is invoked first on each thread ("receive"
    or "callback"), which is where real-time priority gets applied.
    """

    def __init__(self, topic_id: int, local: Endpoint, qos: QosProfile, callback, *,
                 thread_init=None, name: str = "sub"):
        self.topic_id = topic_id
        self._callback = callback
        self._thread_init = thread_init
        self._queue = _HistoryQueue(qos.depth)
        self._reassembler = wire.Reassembler()
        self._stop = threading.Event()
        self.malformed_frames = 0
        self.foreign_frames = 0
        self.arrived = 0
        self.delivered = 0
        self.callback_errors = 0

        try:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                                  DEFAULT_RECV_BUFFER)
            self._sock.bind((local.address, local.port))
            self._sock.settimeout(_POLL_S)
        except OSError as exc:
            raise TransportError(f"subscriber bind {local}: {exc}") from exc
        self.local = Endpoint(local.address, self._sock.getsockname()[1])

        self._rx_thread = threading.Thread(target=self._rx_loop,
                                           name=f"{name}-rx", daemon=True)
        self._cb_thread = threading.Thread(target=self._cb_loop,
                                           name=f"{name}-cb", daemon=True)
        self._rx_thread.start()
        self._cb_thread.start()

    def counters(self) -> SubscriberCounters:
        r = self._reassembler
        return SubscriberCounters(
            arrived=self.arrived,
            delivered=self.delivered,
            overwritten=self._queue.overwritten,
            malformed_frames=self.malformed_frames,
            incomplete_messages=r.incomplete,
            stale_frames=r.stale_frames,
            duplicate_frames=r.duplicate_frames,
            foreign_frames=self.foreign_frames,
            callback_errors=self.callback_errors,
        )

    def _rx_loop(self):
        if self._thread_init:
            self._thread_init("receive")
        while not self._stop.is_set():
            try:
                datagram, _ = self._sock.recvfrom(65535)
            except socket.timeout:
                self._reassembler.reap()  # expiry must not wait for traffic
                continue
            except OSError:
                break
            try:
                frame = wire.decode(datagram)
            except Exception:
                self.malformed_frames += 1
                continue
            if frame.topic_id != self.topic_id:
                self.foreign_frames += 1
                continue
            msg = self._reassembler.offer(frame)
            if msg is not None:
                self.arrived += 1
                self._queue.push(msg)

    def _cb_loop(self):
        if self._thread_init:
            self._thread_init("callback")
        while True:
            msg = self._queue.pop(_POLL_S)
            if msg is not None:
                try:
                    self._callback(msg)
                    self.delivered += 1
                except Exception:
                    self.callback_errors += 1
            elif self._stop.is_set():
                break

    def close(self):
        if self._stop.is_set():
            return
        self._stop.set()
        self._queue.close()
        self._rx_thread.join(timeout=2.0)
        self._cb_thread.join(timeout=2.0)
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

