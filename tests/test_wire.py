"""Wire format: framing, fragmentation, reassembly."""

import itertools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rttbench import wire
from rttbench.errors import MalformedFrameError, PayloadSizeError
from rttbench.wire import (
    FrameKind,
    HEADER_SIZE,
    Message,
    Reassembler,
    decode,
    encode,
    pattern_payload,
)

from conftest import split_oracle


def msg(seq=0, size=0, topic=1):
    return Message(topic, seq, pattern_payload(seq, size))


class TestHeaderLayout:
    def test_header_is_32_bytes(self):
        assert HEADER_SIZE == 32
        assert len(encode(msg(size=0))[0]) == 32

    def test_big_endian_fields_at_fixed_offsets(self):
        d = encode(Message(0x0102, 0x1122334455667788, b"ab"))[0]
        assert d[0:4] == b"RTTB"
        assert d[4] == wire.VERSION
        assert d[5] == FrameKind.DATA
        assert d[6:8] == b"\x01\x02"
        assert d[8:16] == bytes.fromhex("1122334455667788")
        assert struct.unpack("!I", d[20:24])[0] == 2
        assert d[32:] == b"ab"


class TestEncode:
    def test_500_byte_payload_single_532_byte_datagram(self):
        datagrams = encode(msg(seq=7, size=500), 1400)
        assert len(datagrams) == 1
        assert len(datagrams[0]) == 532

    def test_empty_payload_is_one_32_byte_data_datagram(self):
        datagrams = encode(msg(size=0), 1400)
        assert [len(d) for d in datagrams] == [32]
        assert decode(datagrams[0]).kind is FrameKind.DATA

    def test_32k_payload_fragments_as_oracle_predicts(self):
        payload = pattern_payload(3, 32768)
        datagrams = encode(Message(1, 3, payload), 1400)
        expected_chunks = split_oracle(payload, 1400 - HEADER_SIZE)
        assert len(datagrams) == len(expected_chunks) == 24
        assert [len(d) - HEADER_SIZE for d in datagrams] == \
            [len(c) for c in expected_chunks]
        assert [len(c) for c in expected_chunks] == [1368] * 23 + [1304]

    def test_oversized_payload_rejected(self):
        huge = Message(1, 0, b"\x00" * (wire.MAX_PAYLOAD + 1))
        with pytest.raises(PayloadSizeError):
            encode(huge)

    def test_max_datagram_floor(self):
        with pytest.raises(ValueError):
            encode(msg(size=10), 63)
        encode(msg(size=10), 64)

    @pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 500, 1368, 1369, 131072])
    @pytest.mark.parametrize("max_datagram", [64, 512, 1400, 9000])
    def test_fragment_count_formula(self, size, max_datagram):
        cap = max_datagram - HEADER_SIZE
        datagrams = encode(msg(size=size), max_datagram)
        expected = 1 if size <= cap else -(-size // cap)
        assert len(datagrams) == expected
        assert all(len(d) <= max_datagram for d in datagrams)


class TestDecode:
    def test_round_trip_identity(self):
        m = msg(seq=7, size=500)
        frame = decode(encode(m, 1400)[0])
        assert frame.kind is FrameKind.DATA
        assert frame.seq == 7
        assert frame.payload_len == 500
        assert frame.chunk == m.payload

    def test_every_fragment_decodes_to_itself(self):
        m = msg(seq=9, size=5000)
        for i, d in enumerate(encode(m, 512)):
            frame = decode(d)
            assert frame.kind is FrameKind.FRAGMENT
            assert frame.frag_index == i

    def test_truncated_header(self):
        with pytest.raises(MalformedFrameError):
            decode(b"\x00" * 31)

    def test_bad_magic(self):
        d = bytearray(encode(msg(size=4))[0])
        d[0] = ord("X")
        with pytest.raises(MalformedFrameError):
            decode(bytes(d))

    def test_unknown_version(self):
        d = bytearray(encode(msg(size=4))[0])
        d[4] = 99
        with pytest.raises(MalformedFrameError):
            decode(bytes(d))

    def test_chunk_length_mismatch(self):
        d = encode(msg(size=10))[0]
        with pytest.raises(MalformedFrameError):
            decode(d + b"extra")

    def test_invalid_fragment_index_count_pairs(self):
        # enumerate every (index, count) pair for count <= 4; valid FRAGMENT
        # pairs are exactly count >= 2 and index < count
        header = struct.Struct("!4sBBHQHHI8x")
        for count in range(5):
            for index in range(6):
                datagram = header.pack(wire.MAGIC, wire.VERSION,
                                       FrameKind.FRAGMENT, 1, 0,
                                       index, count, 8) + b"\xAA" * 4
                valid = count >= 2 and index < count
                if valid:
                    decode(datagram)
                else:
                    with pytest.raises(MalformedFrameError):
                        decode(datagram)


class TestReassembler:
    def offer_all(self, r, datagrams):
        return [m for m in (r.offer(decode(d)) for d in datagrams) if m]

    def test_in_order_emits_once(self):
        m = msg(seq=5, size=5000)
        out = self.offer_all(Reassembler(clock=lambda: 0), encode(m, 1400))
        assert len(out) == 1
        assert out[0] == m

    def test_all_arrival_permutations_of_three_fragments(self):
        payload = pattern_payload(5, 3000)
        m = Message(1, 5, payload)
        datagrams = encode(m, 1400 - 40)  # forces exactly 3 fragments
        assert len(datagrams) == 3
        for perm in itertools.permutations(datagrams):
            out = self.offer_all(Reassembler(clock=lambda: 0), perm)
            assert len(out) == 1
            assert out[0].payload == payload

    def test_incomplete_discarded_when_newer_seq_completes(self):
        r = Reassembler(clock=lambda: 0)
        frag0_of_5 = encode(msg(seq=5, size=5000), 1400)[0]
        assert r.offer(decode(frag0_of_5)) is None
        out = self.offer_all(r, encode(msg(seq=6, size=5000), 1400))
        assert [m.seq for m in out] == [6]
        assert r.incomplete == 1
        # seq 5 left nothing pending: its late fragment is stale, not held
        assert r.offer(decode(encode(msg(seq=5, size=5000), 1400)[1])) is None
        assert (r.incomplete, r.stale_frames) == (1, 1)

    def test_timeout_expires_incomplete_message(self):
        now = [0]
        r = Reassembler(clock=lambda: now[0], timeout_ns=100_000_000)
        first, *rest = encode(msg(seq=1, size=5000), 1400)
        r.offer(decode(first))
        now[0] = 150_000_000
        # the next offer triggers expiry; the late fragments start over
        for d in rest:
            r.offer(decode(d))
        assert r.incomplete == 1

    def test_duplicate_datagram_never_duplicates_message(self):
        r = Reassembler(clock=lambda: 0)
        d = encode(msg(seq=5, size=100), 1400)[0]
        assert r.offer(decode(d)) is not None
        assert r.offer(decode(d)) is None
        assert r.stale_frames == 1

    def test_duplicate_fragment_counted_not_fatal(self):
        r = Reassembler(clock=lambda: 0)
        datagrams = encode(msg(seq=2, size=5000), 1400)
        r.offer(decode(datagrams[0]))
        r.offer(decode(datagrams[0]))
        assert r.duplicate_frames == 1
        out = self.offer_all(r, datagrams[1:])
        assert len(out) == 1

    def test_pending_cap_evicts_oldest_seq(self):
        r = Reassembler(clock=lambda: 0, max_pending=4)
        for seq in range(5):
            first = encode(msg(seq=seq, size=5000), 1400)[0]
            r.offer(decode(first))
        assert r.incomplete == 1  # seq 0 evicted
        # seqs 1..4 are still held: completing seq 4 discards the other three
        assert self.offer_all(r, encode(msg(seq=4, size=5000), 1400)[1:])[0].seq == 4
        assert r.incomplete == 4


@pytest.mark.parametrize("max_datagram", [64, 512, 1400, 9000])
@pytest.mark.parametrize("size", [0, 1, 500, 32768, 131072])
def test_round_trip_identity_across_sizes(size, max_datagram):
    m = msg(seq=size % 97, size=size)
    r = Reassembler(clock=lambda: 0)
    out = [x for x in (r.offer(decode(d)) for d in encode(m, max_datagram)) if x]
    assert out == [m]


@settings(max_examples=60, deadline=None)
@given(seq=st.integers(min_value=0, max_value=2**64 - 1),
       size=st.integers(min_value=0, max_value=8192),
       max_datagram=st.sampled_from([64, 512, 1400, 9000]))
def test_round_trip_property(seq, size, max_datagram):
    m = Message(3, seq, pattern_payload(seq, size))
    r = Reassembler(clock=lambda: 0)
    out = [x for x in (r.offer(decode(d)) for d in encode(m, max_datagram)) if x]
    assert out == [m]
