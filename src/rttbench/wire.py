"""Datagram framing for benchmark messages.

Every datagram starts with a fixed 32-byte header, all integers big-endian:

    magic       4 bytes   b"RTTB"
    version     u8        currently 1
    kind        u8        1 = DATA (whole message), 2 = FRAGMENT
    topic_id    u16
    seq         u64       message sequence number
    frag_index  u16       0 for DATA
    frag_count  u16       1 for DATA, >= 2 for FRAGMENT
    payload_len u32       total message payload length
    reserved    8 bytes   zero on encode, ignored on decode

A message whose payload fits in one datagram travels as a single DATA
frame. Larger payloads are split into frag_count FRAGMENT frames whose
chunks, concatenated in frag_index order, reproduce the payload.
"""

import struct
import time
from dataclasses import dataclass, field
from enum import IntEnum

from .errors import MalformedFrameError, PayloadSizeError

MAGIC = b"RTTB"
VERSION = 1

_HEADER = struct.Struct("!4sBBHQHHI8x")
HEADER_SIZE = _HEADER.size
assert HEADER_SIZE == 32

#: Smallest usable datagram: header plus at least 32 payload bytes.
MIN_DATAGRAM = 64
DEFAULT_MAX_DATAGRAM = 1400
MAX_PAYLOAD = 131072

#: Default time an incomplete message may wait for missing fragments.
REASSEMBLY_TIMEOUT_NS = 100_000_000
#: In-progress message cap; the oldest seq is evicted beyond this.
MAX_PENDING = 4


class FrameKind(IntEnum):
    DATA = 1
    FRAGMENT = 2


@dataclass(frozen=True)
class Message:
    """One benchmark sample in flight: sequence number plus opaque payload."""

    topic_id: int
    seq: int
    payload: bytes


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    topic_id: int
    seq: int
    frag_index: int
    frag_count: int
    payload_len: int
    chunk: bytes


# Payload content is a deterministic rotation of 0..255 so receivers can
# verify integrity: byte i of message seq is (seq + i) mod 256.
_PATTERN_RING = bytes(i % 256 for i in range(256 + MAX_PAYLOAD))


def pattern_payload(seq: int, size: int) -> bytes:
    """Deterministic payload for message `seq`: byte i = (seq + i) mod 256."""
    if not 0 <= size <= MAX_PAYLOAD:
        raise PayloadSizeError(f"payload size {size} outside 0..{MAX_PAYLOAD}")
    off = seq % 256
    return _PATTERN_RING[off : off + size]


def encode(msg: Message, max_datagram: int = DEFAULT_MAX_DATAGRAM) -> list[bytes]:
    """Split a message into one or more wire datagrams.

    Returns a single DATA datagram when the payload fits, otherwise
    FRAGMENT datagrams in frag_index order. Each datagram is at most
    `max_datagram` bytes.
    """
    if max_datagram < MIN_DATAGRAM:
        raise ValueError(f"max_datagram must be >= {MIN_DATAGRAM}, got {max_datagram}")
    total = len(msg.payload)
    if total > MAX_PAYLOAD:
        raise PayloadSizeError(f"payload of {total} bytes exceeds {MAX_PAYLOAD}")

    cap = max_datagram - HEADER_SIZE
    if total <= cap:
        header = _HEADER.pack(MAGIC, VERSION, FrameKind.DATA, msg.topic_id,
                              msg.seq, 0, 1, total)
        return [header + msg.payload]

    count = -(-total // cap)  # ceil
    datagrams = []
    for index in range(count):
        chunk = msg.payload[index * cap : (index + 1) * cap]
        header = _HEADER.pack(MAGIC, VERSION, FrameKind.FRAGMENT, msg.topic_id,
                              msg.seq, index, count, total)
        datagrams.append(header + chunk)
    return datagrams


def decode(datagram: bytes) -> Frame:
    """Parse one datagram; raises MalformedFrameError on any inconsistency."""
    if len(datagram) < HEADER_SIZE:
        raise MalformedFrameError(f"truncated header: {len(datagram)} bytes")
    magic, version, kind, topic_id, seq, frag_index, frag_count, payload_len = \
        _HEADER.unpack_from(datagram)
    if magic != MAGIC:
        raise MalformedFrameError(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedFrameError(f"unknown version {version}")
    if kind not in (FrameKind.DATA, FrameKind.FRAGMENT):
        raise MalformedFrameError(f"unknown frame kind {kind}")
    if payload_len > MAX_PAYLOAD:
        raise MalformedFrameError(f"declared payload {payload_len} exceeds {MAX_PAYLOAD}")

    chunk = datagram[HEADER_SIZE:]
    if kind == FrameKind.DATA:
        if frag_index != 0 or frag_count != 1:
            raise MalformedFrameError(
                f"DATA frame with frag_index={frag_index} frag_count={frag_count}")
        if len(chunk) != payload_len:
            raise MalformedFrameError(
                f"chunk length {len(chunk)} != payload_len {payload_len}")
    else:
        if frag_count < 2:
            raise MalformedFrameError(f"FRAGMENT with frag_count={frag_count}")
        if frag_index >= frag_count:
            raise MalformedFrameError(
                f"frag_index {frag_index} >= frag_count {frag_count}")
        if not chunk or len(chunk) > payload_len:
            raise MalformedFrameError(
                f"fragment chunk of {len(chunk)} bytes inconsistent with "
                f"payload_len {payload_len}")
    return Frame(FrameKind(kind), topic_id, seq, frag_index, frag_count,
                 payload_len, chunk)


@dataclass
class _Pending:
    frag_count: int
    payload_len: int
    first_seen_ns: int
    chunks: dict = field(default_factory=dict)


class Reassembler:
    """Rebuilds one topic's messages from frames arriving out of order or with gaps.

    Confined to one receive thread, which drops other topics' frames
    before `offer`. A message is emitted exactly once, when all of its
    fragments are held. Incomplete messages are discarded when a newer
    seq completes, when the per-message timeout expires, or when the
    pending cap evicts the oldest seq. Frames at or below the last
    emitted seq are stale and ignored, so duplicated datagrams can never
    produce a duplicate message.
    """

    def __init__(self, timeout_ns: int = REASSEMBLY_TIMEOUT_NS,
                 max_pending: int = MAX_PENDING,
                 clock=time.monotonic_ns):
        self._timeout_ns = timeout_ns
        self._max_pending = max_pending
        self._clock = clock
        self._pending: dict[int, _Pending] = {}  # seq -> fragments so far
        self._floor = -1  # last emitted seq
        self.incomplete = 0
        self.stale_frames = 0
        self.duplicate_frames = 0
        self.inconsistent_frames = 0

    def offer(self, frame: Frame) -> Message | None:
        now = self._clock()
        self._expire(now)

        seq = frame.seq
        if seq <= self._floor:
            self.stale_frames += 1
            return None

        if frame.kind == FrameKind.DATA:
            return self._complete(frame.topic_id, seq, frame.chunk)

        entry = self._pending.get(seq)
        if entry is None:
            if len(self._pending) >= self._max_pending:
                del self._pending[min(self._pending)]
                self.incomplete += 1
            entry = _Pending(frame.frag_count, frame.payload_len, now)
            self._pending[seq] = entry
        elif (entry.frag_count != frame.frag_count
              or entry.payload_len != frame.payload_len):
            self.inconsistent_frames += 1
            return None

        if frame.frag_index in entry.chunks:
            self.duplicate_frames += 1
            return None
        entry.chunks[frame.frag_index] = frame.chunk

        if len(entry.chunks) < entry.frag_count:
            return None
        payload = b"".join(entry.chunks[i] for i in range(entry.frag_count))
        del self._pending[seq]
        if len(payload) != entry.payload_len:
            self.inconsistent_frames += 1
            return None
        return self._complete(frame.topic_id, seq, payload)

    def reap(self) -> None:
        """Expire timed-out pending messages; called on idle receive ticks."""
        self._expire(self._clock())

    def _complete(self, topic_id: int, seq: int, payload: bytes) -> Message:
        # A completed seq retires every older in-progress message.
        dropped = [k for k in self._pending if k < seq]
        for k in dropped:
            del self._pending[k]
        self.incomplete += len(dropped)
        self._floor = seq
        return Message(topic_id, seq, payload)

    def _expire(self, now: int) -> None:
        expired = [k for k, e in self._pending.items()
                   if now - e.first_seen_ns > self._timeout_ns]
        for k in expired:
            del self._pending[k]
        self.incomplete += len(expired)
