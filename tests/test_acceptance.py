"""Acceptance suite: one test per acceptance criterion.

Each criterion prints one PASS/FAIL/SKIP line; run with

    pytest tests/test_acceptance.py -v -s

Absolute latency values are hardware-specific and are not asserted;
criteria check exact properties (oracles, counts, formats) and the
qualitative RT-vs-no-RT ordering.
"""

import functools
import multiprocessing
import os
import random
import socket
import threading
import time
from collections import Counter

import pytest

from rttbench import runner
from rttbench.bench import CycleClient, CycleConfig, SampleClass
from rttbench.clock import MonotonicClock
from rttbench.errors import RtApplyError
from rttbench.loadgen import CbrSink, CbrSpec, StressSpec, start_cbr
from rttbench.metrics import (
    LatencyStats,
    compute_stats,
    export_timeseries,
    import_timeseries,
)
from rttbench.pubsub import Endpoint, Publisher, QosProfile, Subscriber
from rttbench.rtconfig import RtProfile, SchedPolicy, probe
from rttbench.runner import ExperimentConfig, render_report
from rttbench.wire import Message, Reassembler, decode, encode, pattern_payload

from conftest import classify_oracle, loopback_endpoint, split_oracle
from doubles import LoopbackTransport, ScriptedTransport, SimClock

MS = 1_000_000
S = 1_000_000_000
NO_MATCH = r"^no-such-kernel-thread-\d+$"


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                print(f"\nACCEPTANCE SKIP: {name} ({exc})", flush=True)
                raise
            except BaseException:
                print(f"\nACCEPTANCE FAIL: {name}", flush=True)
                raise
            print(f"\nACCEPTANCE PASS: {name}", flush=True)
            return result
        return wrapper
    return decorate


@criterion("wire round-trip identity across payload/datagram matrix")
def test_wire_round_trip():
    for size in (0, 1, 500, 32768, 131072):
        for max_datagram in (64, 512, 1400):
            message = Message(1, size % 251, pattern_payload(size % 251, size))
            datagrams = encode(message, max_datagram)
            chunks = split_oracle(message.payload, max_datagram - 32)
            if size > max_datagram - 32:
                assert len(datagrams) == len(chunks)
            else:
                assert len(datagrams) == 1
            reassembler = Reassembler(clock=lambda: 0)
            out = [m for m in (reassembler.offer(decode(d)) for d in datagrams) if m]
            assert out == [message], (size, max_datagram)
    assert len(encode(Message(1, 0, pattern_payload(0, 32768)), 1400)) == 24


@criterion("classification matches brute-force oracle on 10k scripted pairs")
def test_classification_oracle():
    rng = random.Random(20260810)
    checked = 0
    disagreements = 0
    for deadline_us in (1000, 2000, 5000, 10_000, 10_000, 20_000, 50_000,
                        100_000, 250_000, 400_000):
        deadline_ns = deadline_us * 1000
        loss_timeout_ns = 500 * MS
        boundary = [deadline_ns, deadline_ns + 1000, deadline_ns + 999,
                    deadline_ns - 1000, loss_timeout_ns, loss_timeout_ns + 1,
                    None]

        def delays(seq):
            if seq < len(boundary):
                return boundary[seq]
            return rng.choice([None,
                               rng.randrange(0, deadline_ns * 2),
                               rng.randrange(0, loss_timeout_ns + 2 * MS)])

        clock = SimClock()  # virtual time: a long run costs nothing
        cfg = CycleConfig(duration_ns=400 * S, deadline_ns=deadline_ns,
                          period_ns=max(10 * MS, deadline_ns),
                          loss_timeout_ns=loss_timeout_ns, payload_size=8)
        result = CycleClient(cfg, ScriptedTransport(clock, delays), clock).run()
        for sample in result.samples:
            if sample.cls is not classify_oracle(sample.rtt_us, deadline_us):
                disagreements += 1
            checked += 1
    assert checked >= 10_000
    assert disagreements == 0


@criterion("sample-count contract: 60 s lossless stub run yields 6001 samples")
def test_sample_count_contract():
    # elevate the cycle thread when the host allows it; wakeups then hold
    # the 10 ms grid exactly as they would on the paper's PREEMPT-RT rig
    elevated = False
    if probe().fifo:
        try:
            os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(50))
            elevated = True
        except OSError:
            pass
    try:
        cfg = CycleConfig(duration_ns=60 * S)
        client = CycleClient(cfg, LoopbackTransport(MonotonicClock()))
        result = client.run()
    finally:
        if elevated:
            os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
    n = len(result.samples)
    classes = Counter(s.cls for s in result.samples)
    assert classes[SampleClass.OK] + classes[SampleClass.MISSED_DEADLINE] \
        + classes[SampleClass.LOST] == n
    assert [s.seq for s in result.samples] == list(range(n))
    assert n == 6001, (
        f"{n} samples (skipped {result.counters.skipped_cycles} cycles, "
        f"max wakeup jitter {result.counters.wakeup_jitter_max_us} us"
        f"{', FIFO' if elevated else ''}): the host stalled the clock past "
        "the 10 ms grid; on hardware that can hold the grid this run "
        "yields exactly 6001")


@criterion("KEEP_LAST depth-1 delivers exactly the newest for k in 2..10")
def test_keep_last_depth_one():
    qos = QosProfile(depth=1)
    for k in range(2, 11):
        local = loopback_endpoint()
        gate = threading.Event()
        seen = []

        def callback(message):
            seen.append(message.seq)
            if message.seq == 0:
                gate.wait(5.0)

        with Subscriber(4, local, qos, callback) as sub, \
                Publisher(4, local) as pub:
            pub.publish(Message(4, 0, b"gate"))
            deadline = time.monotonic() + 3
            while seen != [0] and time.monotonic() < deadline:
                time.sleep(0.002)
            for seq in range(1, k + 1):
                pub.publish(Message(4, seq, pattern_payload(seq, 32)))
            while sub.counters().arrived < k + 1 and time.monotonic() < deadline:
                time.sleep(0.002)
            gate.set()
            while len(seen) < 2 and time.monotonic() < deadline:
                time.sleep(0.002)
            time.sleep(0.05)
            assert seen == [0, k], f"k={k}: observed {seen}"
            assert sub.counters().overwritten == k - 1


@criterion("stats/report fidelity: byte-exact rows for the published tuples")
def test_stats_report_fidelity():
    under_load = LatencyStats(min_us=810, avg_us=2524, max_us=29481,
                              missed=233, lost=0, total=56297)
    with_rt = LatencyStats(min_us=769, avg_us=1197, max_us=1823,
                           missed=0, lost=0, total=60001)
    report = render_report([("under-load", under_load), ("with-rt", with_rt)])
    lines = report.splitlines()
    assert "810 | 2524 | 29481 | 233/56297 | 0/56297" in lines
    assert "769 | 1197 | 1823 | 0/60001 | 0/60001" in lines
    assert lines.count("Min(us) | Avg(us) | Max(us) | Missed deadlines | Message loss") == 2


@criterion("CBR accuracy: 1/40/80 Mbps within +/-5% at the sink over 10 s")
def test_cbr_accuracy():
    for rate in (1_000_000, 40_000_000, 80_000_000):
        with CbrSink(loopback_endpoint()) as sink:
            handle = start_cbr(CbrSpec(rate, sink.local))
            time.sleep(10.0)
            report = handle.stop()
            time.sleep(0.2)
            sink_bps = sink.bytes * 8 / (report.elapsed_ns / 1e9)
        assert abs(sink_bps - rate) / rate < 0.05, \
            f"{rate} bps target, sink measured {sink_bps:.0f}"


def _trend_config(experiment_id, rt_profile, ping, pong):
    return ExperimentConfig(
        id=experiment_id,
        role="both-loopback",
        cycle=CycleConfig(duration_ns=120 * S),
        ping=ping,
        pong=pong,
        qos=QosProfile(),
        warmup_ns=5 * S,
        rt=rt_profile,
        stress=StressSpec(2, 2, 2, 2, vm_bytes=32 << 20),
    )


@criterion("qualitative trend: stressed no-RT run >= stressed RT run")
def test_rt_trend_under_stress(tmp_path):
    if not probe().fifo:
        pytest.skip("SCHED_FIFO unavailable on this host; criterion skipped")
    rt = RtProfile(app_policy=SchedPolicy.FIFO, cycle_thread_prio=80,
                   transport_thread_prio=80, lock_memory=True)
    no_rt = runner.run(_trend_config("trend.no-rt", None, loopback_endpoint(),
                                     loopback_endpoint()),
                       output_dir=tmp_path)
    with_rt = runner.run(_trend_config("trend.rt", rt, loopback_endpoint(),
                                       loopback_endpoint()),
                         output_dir=tmp_path)
    print(f"\n  no-RT: {runner.format_stats_row(no_rt.stats)}")
    print(f"  RT:    {runner.format_stats_row(with_rt.stats)}")
    assert no_rt.stats.total > 0 and with_rt.stats.total > 0
    assert no_rt.stats.max_us >= with_rt.stats.max_us
    assert no_rt.stats.missed >= with_rt.stats.missed


@criterion("teardown hygiene: no workers, threads, or sockets survive a run")
def test_teardown_hygiene(tmp_path):
    def assert_clean(*endpoints):
        assert multiprocessing.active_children() == []
        leftovers = [t.name for t in threading.enumerate()
                     if t.name.startswith(("cbr", "pong-", "ping-", "cycle"))]
        assert leftovers == []
        for ep in endpoints:
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            s.bind((ep.address, ep.port))
            s.close()

    # a completed run with every subsystem engaged
    ping, pong, dest = (loopback_endpoint() for _ in range(3))
    cfg = ExperimentConfig(
        id="teardown.full", role="both-loopback",
        cycle=CycleConfig(duration_ns=1 * S),
        ping=ping, pong=pong, qos=QosProfile(), warmup_ns=0,
        stress=StressSpec(cpu_workers=1, io_workers=1),
        traffic=CbrSpec(2_000_000, dest),
    )
    runner.run(cfg, output_dir=tmp_path)
    assert_clean(ping, pong, dest)

    # an aborted strict-RT run must tear down just as cleanly
    ping2, pong2 = loopback_endpoint(), loopback_endpoint()
    aborted = ExperimentConfig(
        id="teardown.abort", role="both-loopback",
        cycle=CycleConfig(duration_ns=1 * S),
        ping=ping2, pong=pong2, qos=QosProfile(), warmup_ns=0,
        rt=RtProfile(app_policy=SchedPolicy.OTHER, eth_irq_prio=90),
        rt_strict=True,
        eth_irq_pattern=NO_MATCH,
        stress=StressSpec(cpu_workers=2),
        traffic=CbrSpec(2_000_000, loopback_endpoint()),
    )
    with pytest.raises(RtApplyError):
        runner.run(aborted, output_dir=tmp_path)
    assert_clean(ping2, pong2)


@criterion("export/import identity over 100 randomized simulated runs")
def test_export_import_identity(tmp_path):
    rng = random.Random(42)
    for i in range(100):
        deadline_ns = rng.choice([5, 10, 20]) * MS
        loss_ns = 500 * MS

        def delays(seq):
            return rng.choice([None, rng.randrange(0, 2 * deadline_ns),
                               rng.randrange(0, loss_ns + MS)])

        clock = SimClock()
        cfg = CycleConfig(duration_ns=rng.randrange(2, 8) * S,
                          deadline_ns=deadline_ns,
                          period_ns=max(10 * MS, deadline_ns),
                          loss_timeout_ns=loss_ns, payload_size=8)
        samples = CycleClient(cfg, ScriptedTransport(clock, delays), clock).run().samples
        stats = compute_stats(samples)
        path = tmp_path / f"run{i}.csv"
        rows = export_timeseries(samples, path)
        back = import_timeseries(path)
        assert rows == len(back) == len(samples)
        assert compute_stats(back) == stats
