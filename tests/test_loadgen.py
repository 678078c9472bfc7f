"""Stress workers and CBR traffic generation."""

import multiprocessing
import os
import threading
import time

import pytest

from rttbench.errors import StressSpecError
from rttbench.loadgen import (
    CbrSink,
    CbrSpec,
    StressSpec,
    start_cbr,
    start_stress,
)

from conftest import loopback_endpoint


class TestStressSpec:
    def test_negative_workers_rejected(self):
        with pytest.raises(StressSpecError):
            StressSpec(cpu_workers=-1)

    def test_all_zero_spec_rejected_on_start(self):
        with pytest.raises(StressSpecError):
            start_stress(StressSpec())

    def test_total(self):
        assert StressSpec(2, 2, 2, 2).total() == 8


class TestStressWorkers:
    def test_two_per_type_gives_eight_observable_workers(self):
        handle = start_stress(StressSpec(2, 2, 2, 2, vm_bytes=8 << 20))
        try:
            deadline = time.monotonic() + 2
            while len(multiprocessing.active_children()) < 8 \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            assert len(multiprocessing.active_children()) == 8
        finally:
            t0 = time.monotonic()
            handle.stop()
            assert time.monotonic() - t0 < 1.0
        assert multiprocessing.active_children() == []

    def test_start_then_immediate_stop_leaves_nothing(self):
        handle = start_stress(StressSpec(cpu_workers=2))
        handle.stop()
        assert multiprocessing.active_children() == []

    def test_stop_is_idempotent(self):
        handle = start_stress(StressSpec(cpu_workers=1))
        handle.stop()
        handle.stop()
        assert multiprocessing.active_children() == []

    def test_workers_run_without_rt_priority(self):
        handle = start_stress(StressSpec(cpu_workers=2))
        try:
            time.sleep(0.1)
            workers = multiprocessing.active_children()
            assert len(workers) == 2
            for worker in workers:
                assert os.sched_getscheduler(worker.pid) == os.SCHED_OTHER
        finally:
            handle.stop()


class TestCbrSpec:
    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            CbrSpec(0, loopback_endpoint())


class TestCbrTraffic:
    def run_cbr(self, rate_bps, seconds):
        with CbrSink(loopback_endpoint()) as sink:
            handle = start_cbr(CbrSpec(rate_bps, sink.local))
            time.sleep(seconds)
            report = handle.stop()
            time.sleep(0.1)  # let the last datagrams drain into the sink
            return report, sink.packets, sink.bytes

    def test_loopback_rate_within_five_percent(self):
        rate = 10_000_000
        report, packets, nbytes = self.run_cbr(rate, 2.0)
        achieved_send = report.achieved_bps
        achieved_sink = nbytes * 8 / (report.elapsed_ns / 1e9)
        assert abs(achieved_send - rate) / rate < 0.05
        assert abs(achieved_sink - rate) / rate < 0.05

    def test_sink_counts_every_packet(self):
        report, packets, nbytes = self.run_cbr(5_000_000, 1.0)
        assert packets == report.packets_sent
        assert nbytes == report.bytes_sent

    def test_stop_is_idempotent(self):
        handle = start_cbr(CbrSpec(1_000_000, loopback_endpoint()))
        first = handle.stop()
        second = handle.stop()
        assert first is second
        assert "cbr-send" not in {t.name for t in threading.enumerate()}

    def test_sequence_header_is_big_endian_u64(self):
        import socket
        import struct
        sink_ep = loopback_endpoint()
        s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        s.bind((sink_ep.address, sink_ep.port))
        s.settimeout(2.0)
        handle = start_cbr(CbrSpec(1_000_000, sink_ep))
        try:
            seqs = [struct.unpack("!Q", s.recvfrom(2048)[0][:8])[0]
                    for _ in range(3)]
            assert seqs == [0, 1, 2]
        finally:
            handle.stop()
            s.close()
