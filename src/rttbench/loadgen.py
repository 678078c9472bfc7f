"""Disturbance sources: host stress workers and constant-bit-rate traffic.

Stress workers mirror the classic `stress` tool: CPU workers spin on
arithmetic, vm workers allocate/touch/free memory, io workers issue sync
calls, hdd workers write and remove temp files. All workers run as child
processes at default (non-real-time) scheduling so RT threads preempt
them.

CBR traffic is plain UDP paced on an absolute token schedule; datagrams
carry an 8-byte big-endian sequence number so a sink can account for loss.
It shares the benchmark's network path unprioritized, on its own port.
"""

import multiprocessing
import os
import socket
import struct
import tempfile
import threading
import time
from dataclasses import dataclass

from .errors import PartialStartError, StressSpecError, TransportError
from .pubsub import Endpoint

DEFAULT_VM_BYTES = 64 << 20
DEFAULT_CBR_PACKET = 1250  # gives round packet rates; never fragments
_HDD_BLOCK = 1 << 20
_HDD_BLOCKS = 8
_SEQ = struct.Struct("!Q")

_ctx = multiprocessing.get_context("fork")


@dataclass(frozen=True)
class StressSpec:
    cpu_workers: int = 0
    vm_workers: int = 0
    io_workers: int = 0
    hdd_workers: int = 0
    vm_bytes: int = DEFAULT_VM_BYTES

    def __post_init__(self):
        for name in ("cpu_workers", "vm_workers", "io_workers", "hdd_workers"):
            if getattr(self, name) < 0:
                raise StressSpecError(f"{name} must be >= 0")
        if self.vm_bytes <= 0:
            raise StressSpecError("vm_bytes must be positive")

    def total(self) -> int:
        return (self.cpu_workers + self.vm_workers + self.io_workers
                + self.hdd_workers)


def _cpu_worker(stop):
    x = 0x9E3779B9
    while not stop.is_set():
        for _ in range(20000):
            x = (x * x + 1) & 0xFFFFFFFF


def _vm_worker(stop, nbytes):
    page = 4096
    while not stop.is_set():
        block = bytearray(nbytes)
        for i in range(0, nbytes, page):
            block[i] = 0xA5
        del block


def _io_worker(stop):
    while not stop.is_set():
        os.sync()


def _hdd_worker(stop):
    block = b"\xA5" * _HDD_BLOCK
    while not stop.is_set():
        fd, path = tempfile.mkstemp(prefix="rttbench-hdd-")
        try:
            for _ in range(_HDD_BLOCKS):
                if stop.is_set():
                    break
                os.write(fd, block)
            os.fsync(fd)
        finally:
            os.close(fd)
            os.unlink(path)


class StressHandle:
    """Owns the worker processes; stop() terminates and joins them all."""

    def __init__(self, processes, stop_event):
        self._procs = processes
        self._stop = stop_event

    def stop(self) -> None:
        """Idempotent; all workers are gone when this returns."""
        self._stop.set()
        deadline = time.monotonic() + 0.8
        for p in self._procs:
            p.join(max(0.0, deadline - time.monotonic()))
        for p in self._procs:
            if p.is_alive():
                p.terminate()
        for p in self._procs:
            p.join(1.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def start_stress(spec: StressSpec) -> StressHandle:
    """Spawn the specified workers; rolls back on partial failure."""
    if spec.total() == 0:
        raise StressSpecError("stress enabled with zero workers")
    stop = _ctx.Event()
    targets = (
        [( _cpu_worker, (stop,)) ] * spec.cpu_workers
        + [(_vm_worker, (stop, spec.vm_bytes))] * spec.vm_workers
        + [(_io_worker, (stop,))] * spec.io_workers
        + [(_hdd_worker, (stop,))] * spec.hdd_workers
    )
    procs = []
    try:
        for fn, args in targets:
            p = _ctx.Process(target=fn, args=args, daemon=True)
            p.start()
            procs.append(p)
    except OSError as exc:
        StressHandle(procs, stop).stop()
        raise PartialStartError(f"worker spawn failed after {len(procs)}: {exc}") from exc
    return StressHandle(procs, stop)


@dataclass(frozen=True)
class CbrSpec:
    """CBR traffic at `rate_bps` toward `dest`, in DEFAULT_CBR_PACKET-byte datagrams."""

    rate_bps: int
    dest: Endpoint

    def __post_init__(self):
        if self.rate_bps <= 0:
            raise ValueError("rate must be positive")


@dataclass
class TrafficReport:
    packets_sent: int
    bytes_sent: int
    elapsed_ns: int
    send_errors: int

    @property
    def achieved_bps(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.bytes_sent * 8 / (self.elapsed_ns / 1e9)


class TrafficHandle:
    def __init__(self, thread, stop_event, report_box):
        self._thread = thread
        self._stop = stop_event
        self._box = report_box

    def stop(self) -> TrafficReport:
        """Idempotent; returns the final send-side report."""
        self._stop.set()
        self._thread.join(5.0)
        return self._box[0]

    def report(self) -> TrafficReport:
        return self._box[0]


def start_cbr(spec: CbrSpec) -> TrafficHandle:
    """Start a paced UDP sender toward spec.dest; it runs until stop().

    Packet k leaves at t0 + k/pps on the absolute schedule, so short stalls
    are caught up in bursts and the average rate stays on target.
    """
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 21)
    except OSError as exc:
        raise TransportError(f"cbr socket: {exc}") from exc

    stop = threading.Event()
    report = TrafficReport(0, 0, 0, 0)
    box = [report]
    dest = (spec.dest.address, spec.dest.port)
    pad = b"\x00" * (DEFAULT_CBR_PACKET - _SEQ.size)
    interval_ns = DEFAULT_CBR_PACKET * 8 * 1_000_000_000 / spec.rate_bps

    def _send_loop():
        seq = 0
        sent = errors = 0
        t0 = time.monotonic_ns()
        try:
            while not stop.is_set():
                now = time.monotonic_ns()
                due = int((now - t0) / interval_ns) + 1
                while seq < due:
                    try:
                        sock.sendto(_SEQ.pack(seq) + pad, dest)
                        sent += 1
                    except OSError:
                        errors += 1
                    seq += 1
                next_ns = t0 + int(seq * interval_ns)
                delay = (next_ns - time.monotonic_ns()) / 1e9
                if delay > 0:
                    stop.wait(min(delay, 0.05))
        finally:
            report.packets_sent = sent
            report.bytes_sent = sent * DEFAULT_CBR_PACKET
            report.elapsed_ns = time.monotonic_ns() - t0
            report.send_errors = errors
            sock.close()

    thread = threading.Thread(target=_send_loop, name="cbr-send", daemon=True)
    thread.start()
    return TrafficHandle(thread, stop, box)


class CbrSink:
    """Counts CBR datagrams on a bound port; loss is inferred from seq gaps."""

    def __init__(self, local: Endpoint):
        try:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 22)
            self._sock.bind((local.address, local.port))
            self._sock.settimeout(0.05)
        except OSError as exc:
            raise TransportError(f"cbr sink bind {local}: {exc}") from exc
        self.local = Endpoint(local.address, self._sock.getsockname()[1])
        self.packets = 0
        self.bytes = 0
        self.max_seq = -1
        self.first_rx_ns = 0
        self.last_rx_ns = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="cbr-sink",
                                        daemon=True)
        self._thread.start()

    def _loop(self):
        while not self._stop.is_set():
            try:
                data, _ = self._sock.recvfrom(2048)
            except socket.timeout:
                continue
            except OSError:
                break
            now = time.monotonic_ns()
            if not self.packets:
                self.first_rx_ns = now
            self.last_rx_ns = now
            self.packets += 1
            self.bytes += len(data)
            if len(data) >= _SEQ.size:
                seq = _SEQ.unpack_from(data)[0]
                if seq > self.max_seq:
                    self.max_seq = seq

    def lost(self) -> int:
        expected = self.max_seq + 1
        return max(0, expected - self.packets)

    def achieved_bps(self) -> float:
        span = self.last_rx_ns - self.first_rx_ns
        if span <= 0:
            return 0.0
        return self.bytes * 8 / (span / 1e9)

    def close(self):
        if self._stop.is_set():
            return
        self._stop.set()
        self._thread.join(2.0)
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
