"""Run one workload of the rttbench benchmark in this (fresh) process.

run.py starts this file once per measurement:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

The last line of standard output is one JSON object: the check errors,
the attempted and failed operation counts, the end-to-end figures and, in
a traced run, the per-layer ones.

The program is called only through its public API: runner.run with an
ExperimentConfig (as `rtt-bench run` does) for the live workloads, and the
metrics/runner functions for the results workload.
"""

import time

import argparse
import gc
import json
import os
import resource
import shutil
import socket
import sys
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# The program's cold import, the set-up time of results-1h: the first
# thing this process does with it, before the benchmark's own modules load.
_import_start_ns = time.monotonic_ns()
from rttbench import bench, clock, loadgen, metrics, pubsub, runner, wire  # noqa: E402
IMPORT_NS = time.monotonic_ns() - _import_start_ns

import checks  # noqa: E402
from rttbench.bench import CycleConfig, RttSample, SampleClass  # noqa: E402
from spans import CpuWindow, Tracer  # noqa: E402

MS = 1_000_000
S = 1_000_000_000
WARMUP_NS = 1 * S
WINDOW_NS = 1 * S
LOSS_TIMEOUT_NS = 500 * MS
MAX_DATAGRAM = wire.DEFAULT_MAX_DATAGRAM

# Live workloads. A 1 us period is the smallest the cycle config allows
# (deadline <= period), which makes the closed loops back-to-back; their
# samples all miss that deadline, which is counted, not failed.
# one_cpu: run on one CPU without wake-up preemption (see main).
LIVE = {
    "pingpong-small": dict(payload=64, period_ns=1000, cbr_bps=None,
                           one_cpu=True),
    "pingpong-fragmented": dict(payload=65536, period_ns=1000, cbr_bps=None,
                                one_cpu=True),
    "cycle-1ms-cbr": dict(payload=500, period_ns=1 * MS, cbr_bps=40_000_000,
                          one_cpu=False),
}

# The results workload: a stored one-hour run of the paper's long-term
# scenario (10 ms grid and deadline). The paper's 12-hour run (4.32M
# samples) takes one 20-35 s pass per run here, and single passes spread
# too widely between runs; see README.md. Grid offsets and round-trip times,
# late ones included, are resampled from REFERENCE, a measured run of that
# scenario on loopback (record_reference.py). Loopback lost no sample
# there, so lost samples are added at a fixed share to exercise that path.
RESULTS = "results-1h"
RESULTS_SAMPLES = 3600 * 100
RESULTS_PERIOD_NS = 10 * MS
RESULTS_T0_NS = 1_000 * S
REFERENCE = HERE / "reference" / "long-term-40mbps.txt"
LOST_SHARE = 0.0001
SYNTH_CHUNK = 100_000

WORKLOADS = (*LIVE, RESULTS)

THREADS = ("cycle", "ping-rx", "ping-cb", "pong-rx", "pong-cb",
           "cbr-send", "cbr-sink")


class Capture:
    """Keeps the objects the checks read, and the time of the first ping.

    Only constructors are wrapped, plus Publisher.publish until the first
    ping has gone out, so an untraced run pays nothing per message.
    """

    def __init__(self):
        self.publishers: list = []
        self.sinks: list = []
        self.traffic: list = []
        self.subscribers: list = []
        self.first_ping_ns: int | None = None

        def keep(cls, registry):
            init = cls.__init__

            def __init__(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                registry.append(obj)
            cls.__init__ = __init__

        keep(pubsub.Publisher, self.publishers)
        keep(pubsub.Subscriber, self.subscribers)
        keep(loadgen.CbrSink, self.sinks)

        start_cbr = runner.start_cbr

        def start_cbr_kept(*args, **kwargs):
            handle = start_cbr(*args, **kwargs)
            self.traffic.append(handle)
            return handle
        runner.start_cbr = start_cbr_kept

        publish = pubsub.Publisher.publish

        def publish_first(pub, msg):
            report = publish(pub, msg)
            if msg.topic_id == bench.PING_TOPIC and self.first_ping_ns is None:
                self.first_ping_ns = time.monotonic_ns()
                pubsub.Publisher.publish = publish
            return report
        pubsub.Publisher.publish = publish_first

    def publisher(self, topic_id: int):
        return next(p for p in self.publishers if p.topic_id == topic_id)


class Probes:
    """Traced-run state: spans plus the per-layer observations they feed."""

    def __init__(self):
        self.tracer = Tracer()
        self.cpu = CpuWindow(THREADS)
        self.rx_done: dict = {}
        self.rx_to_callback: list[int] = []
        self.echo_turnaround: list[int] = []
        self.wakeup_late: list[int] = []
        self.sleep_cpu_ns = 0
        self.messages_encoded = 0
        self.frames_encoded = 0
        self._install()

    def _install(self):
        t = self.tracer

        def on_encode(args, frames, t0, t1):
            self.messages_encoded += 1
            self.frames_encoded += len(frames)

        def on_offer(args, msg, t0, t1):
            if msg is not None:
                self.rx_done[(msg.topic_id, msg.seq)] = t1

        def on_reply(args, t2, t0, t1):
            done = self.rx_done.pop((bench.PONG_TOPIC, args[1]), None)
            if t2 is not None and done is not None:
                self.rx_to_callback.append(t1 - done)

        def on_publish(args, report, t0, t1):
            msg = args[1]
            if msg.topic_id == bench.PONG_TOPIC:
                done = self.rx_done.pop((bench.PING_TOPIC, msg.seq), None)
                if done is not None:
                    self.rx_to_callback.append(t0 - done)
                    self.echo_turnaround.append(t1 - done)

        t.wrap(wire, "encode", "wire.encode", req=lambda a, r: a[0].seq,
               after=on_encode)
        t.wrap(wire, "decode", "wire.decode", req=lambda a, r: r.seq)
        t.wrap(wire.Reassembler, "offer", "wire.offer",
               req=lambda a, r: a[1].seq, after=on_offer)
        t.wrap(pubsub.Publisher, "publish", "pubsub.publish",
               req=lambda a, r: a[1].seq, after=on_publish)
        t.wrap(bench.UdpPingTransport, "await_reply", "bench.await_reply",
               req=lambda a, r: a[1], after=on_reply)
        t.wrap(bench.CycleClient, "__init__", "bench.client_init")

        sleep_until = clock.MonotonicClock.sleep_until

        def sleep_until_cpu(clk, t_ns):
            c0 = time.thread_time_ns()
            actual = sleep_until(clk, t_ns)
            self.sleep_cpu_ns += time.thread_time_ns() - c0
            self.wakeup_late.append(actual - t_ns)
            return actual
        clock.MonotonicClock.sleep_until = sleep_until_cpu
        t.wrap(clock.MonotonicClock, "sleep_until", "clock.sleep_until")

        client_run = bench.CycleClient.run

        def client_run_window(client):
            self.cpu.begin()
            try:
                return client_run(client)
            finally:
                self.cpu.finish()
        bench.CycleClient.run = client_run_window
        t.wrap(bench.CycleClient, "run", "bench.client_run")

        # runner binds these names at import time: wrap them where runner
        # calls them as well as in their home modules.
        t.wrap(runner, "run", "runner.run")
        t.wrap(runner, "run_client", "bench.run_client")
        for owner in (runner, metrics):
            t.wrap(owner, "compute_stats", "metrics.compute_stats")
            t.wrap(owner, "export_timeseries", "metrics.export_timeseries")
        t.wrap(metrics, "import_timeseries", "metrics.import_timeseries")
        t.wrap(runner, "write_result", "runner.write_result")
        t.wrap(runner, "load_results_dir", "runner.load_results_dir")
        t.wrap(runner, "render_report", "runner.render_report")


def free_endpoints(count: int) -> list[pubsub.Endpoint]:
    socks = []
    try:
        for _ in range(count):
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            socks.append(s)
            s.bind(("127.0.0.1", 0))
        return [pubsub.Endpoint("127.0.0.1", s.getsockname()[1]) for s in socks]
    finally:
        for s in socks:
            s.close()


def nearest_rank(sorted_values, num: int, den: int):
    return sorted_values[max(1, -(-len(sorted_values) * num // den)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def host_cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the machine so far, from /proc/stat.

    Steal is time the hypervisor ran something else on our CPUs; runs
    that overlap it measure the neighbours, not the program.
    """
    with open("/proc/stat") as fh:
        ticks = [int(v) for v in fh.readline().split()[1:9]]
    return ticks[7], sum(ticks)


# --------------------------------------------------------------------------
# Live workloads


def run_live(args, capture: Capture) -> dict:
    spec = LIVE[args.workload]
    period = spec["period_ns"]
    ping, pong, cbr_dest = free_endpoints(3)
    traffic = None
    if spec["cbr_bps"]:
        traffic = loadgen.CbrSpec(rate_bps=spec["cbr_bps"], dest=cbr_dest)
    cfg = runner.ExperimentConfig(
        id=args.workload, role="both-loopback",
        cycle=CycleConfig(duration_ns=args.seconds * S,
                          payload_size=spec["payload"], period_ns=period,
                          deadline_ns=period, loss_timeout_ns=LOSS_TIMEOUT_NS),
        ping=ping, pong=pong, warmup_ns=WARMUP_NS, traffic=traffic,
        max_datagram=MAX_DATAGRAM)

    run_start_ns = time.monotonic_ns()
    result = runner.run(cfg, output_dir=args.out / "results")
    rss = peak_rss_mb()

    samples = result.samples
    replied = [s for s in samples if s.t2_ns is not None]
    counters = result.counters
    lost = len(samples) - len(replied)
    failed = lost + counters["payload_mismatches"] + counters["stale_replies"]

    deadline_us = period // 1000
    missed = sum(1 for s in replied if s.rtt_us > deadline_us)
    errors = checks.check_samples(samples, period, deadline_us, LOSS_TIMEOUT_NS)
    errors += checks.check_one_in_flight(samples, LOSS_TIMEOUT_NS)
    errors += checks.check_stats(result.stats, Counter(s.rtt_us for s in replied),
                                 missed=missed, lost=lost, total=len(samples))
    pings = counters["warmup_samples"] + len(samples)
    server = result.server_stats
    errors += checks.check_datagrams(
        capture.publisher(bench.PING_TOPIC).datagrams_sent, pings,
        spec["payload"], MAX_DATAGRAM, "client")
    errors += checks.check_datagrams(
        capture.publisher(bench.PONG_TOPIC).datagrams_sent, server.echoed,
        spec["payload"], MAX_DATAGRAM, "echo server")
    errors += checks.check_echoed(server.echoed, len(replied))
    if traffic is not None:
        errors += checks.check_cbr(capture.traffic[0].report().packets_sent,
                                   capture.sinks[0].packets)

    rates, p50s = window_figures(replied, samples[0].t1_ns, args.seconds)
    rtts = sorted((s.t2_ns - s.t1_ns) / 1000 for s in replied)
    e2e = {
        # From the call into the program to the first ping. The program's
        # import is left out: a single 0.1 s shot, it took either about
        # 80 or about 125 ms with the host CPU's speed (README.md).
        "setup_s": (capture.first_ping_ns - run_start_ns) / S,
        # The best quarter of the windows: see window_figures.
        "ops_per_s": nearest_rank(rates, 3, 4),
        "latency_p50_us": nearest_rank(p50s, 1, 4),
        # Over the whole run: a window holds too few samples for a tail.
        "latency_p99_us": nearest_rank(rtts, 99, 100) if rtts else 0.0,
        "peak_rss_MB": rss,
    }
    return dict(errors=errors, attempted=len(samples), failed=failed,
                e2e=e2e, result=result, samples_handled=len(samples),
                missed=missed, lost=lost)


def window_figures(replied, start_ns: int, seconds: int):
    """Sorted per-window figures of a live run: round trips per second,
    and the median round-trip time in us.

    The measurement is cut into one-second windows by t1. The host's
    neighbours slow it for seconds at a time and only ever add time, so
    the run's figures are those its least-disturbed quarter of windows
    reach: the caller takes the upper quartile of the rates and the lower
    quartile of the medians (README.md).
    """
    windows = [[] for _ in range(seconds * S // WINDOW_NS)]
    for s in replied:
        k = (s.t1_ns - start_ns) // WINDOW_NS
        if k < len(windows):
            windows[k].append(s)
    rates, p50s = [], []
    for window in windows:
        if not window:
            continue
        rtts = sorted((s.t2_ns - s.t1_ns) / 1000 for s in window)
        rates.append(len(window) * S / (window[-1].t2_ns - window[0].t1_ns))
        p50s.append(nearest_rank(rtts, 50, 100))
    if not rates:  # no reply at all: the checks report it
        return [0.0], [0.0]
    return sorted(rates), sorted(p50s)


# --------------------------------------------------------------------------
# Results workload


def load_reference():
    """The measured (t1 offset, rtt) pairs; rtt -1 for a lost sample."""
    pairs = [line.split() for line in REFERENCE.read_text().splitlines()
             if line and not line.startswith("#")]
    return ([int(off) for off, _ in pairs],
            [-1 if rtt == "lost" else int(rtt) for _, rtt in pairs])


def synthesize(seed: int, n: int):
    """The seeded stand-in for a stored one-hour run.

    Returns the samples; a compact copy of them for the checks (t1s, rtts
    with -1 for a lost sample, class codes indexing checks.CLASS_CODES);
    the rtt multiset of the replied samples; and the lost and missed counts.
    """
    import numpy as np  # only this workload needs it; keep it out of live set-up

    ref_offset, ref_rtt = (np.array(v, dtype=np.int64) for v in load_reference())
    rng = np.random.default_rng(seed)
    t1 = (RESULTS_T0_NS + np.arange(n, dtype=np.int64) * RESULTS_PERIOD_NS
          + rng.choice(ref_offset, n))
    rtt_ns = rng.choice(ref_rtt, n)
    lost = (rng.random(n) < LOST_SHARE) | (rtt_ns < 0)
    rtt_us = np.where(lost, -1, rtt_ns // 1000)
    codes = np.where(lost, 2, np.where(rtt_us > RESULTS_PERIOD_NS // 1000, 1, 0))

    classes = (SampleClass.OK, SampleClass.MISSED_DEADLINE, SampleClass.LOST)
    t2 = t1 + rtt_ns
    samples = []
    for lo in range(0, n, SYNTH_CHUNK):  # chunks keep the temporaries small
        hi = min(n, lo + SYNTH_CHUNK)
        samples += [RttSample(i, a, b, r, classes[c]) if c != 2
                    else RttSample(i, a, None, None, SampleClass.LOST)
                    for i, a, b, r, c in zip(range(lo, hi), t1[lo:hi].tolist(),
                                             t2[lo:hi].tolist(),
                                             rtt_us[lo:hi].tolist(),
                                             codes[lo:hi].tolist())]
    values, freq = np.unique(rtt_us[~lost], return_counts=True)
    counts = Counter(dict(zip(values.tolist(), freq.tolist())))
    compact = (array("q", t1.tobytes()), array("q", rtt_us.astype(np.int64).tobytes()),
               bytes(codes.astype(np.uint8)))
    return samples, compact, counts, int(lost.sum()), int((codes == 1).sum())


def run_results(args) -> dict:
    n = RESULTS_SAMPLES
    # The generator's own garbage would otherwise trigger repeated full
    # collections; one collection afterwards leaves the program a settled
    # heap, as after loading a stored run.
    gc.disable()
    samples, compact, counts, lost, missed = synthesize(args.seed, n)
    gc.collect()
    gc.enable()
    first_call_ns = time.monotonic_ns()
    cfg = runner.ExperimentConfig(
        id=RESULTS, role="both-loopback",
        cycle=CycleConfig(duration_ns=n * RESULTS_PERIOD_NS,
                          period_ns=RESULTS_PERIOD_NS,
                          deadline_ns=RESULTS_PERIOD_NS),
        ping=pubsub.Endpoint("127.0.0.1", 17231),
        pong=pubsub.Endpoint("127.0.0.1", 17232), warmup_ns=0)
    out = args.out / "results"
    errors = []
    pass_ns = []
    while True:
        t0 = time.monotonic_ns()
        stats = metrics.compute_stats(samples)
        result = runner.RunResult(config=cfg, stats=stats, samples=samples)
        runner.write_result(result, out)
        t1 = time.monotonic_ns()
        # Free the exported samples before reading them back, so the
        # process never holds two copies of the run.
        samples = result.samples = None
        t2 = time.monotonic_ns()
        samples = metrics.import_timeseries(result.timeseries_path)
        loaded = runner.load_results_dir(out)
        report = runner.render_report(loaded)
        t3 = time.monotonic_ns()
        pass_ns.append((t1 - t0) + (t3 - t2))
        rss = peak_rss_mb()

        errors += checks.check_stats(stats, counts, missed=missed, lost=lost,
                                     total=n)
        errors += checks.check_round_trip(*compact, samples)
        if loaded != [(RESULTS, stats)]:
            errors.append(f"load_results_dir gave {loaded!r}, expected the "
                          f"computed stats {stats!r}")
        errors += checks.check_report_row(report, stats)
        if time.monotonic_ns() - first_call_ns >= args.seconds * S:
            break

    # The least-disturbed quarter of the passes, as with the live
    # workloads' windows. A pass is one timing, and a run makes 10-14 of
    # them, too few for a tail, so its lower quartile stands for the
    # median and the p99 alike.
    best_ns = nearest_rank(sorted(pass_ns), 1, 4)
    e2e = {
        # The program's only set-up here is its import: the samples stand
        # for a stored run, and every pass does the same work.
        "setup_s": IMPORT_NS / S,
        "ops_per_s": n * S / best_ns,
        "latency_p50_us": best_ns / 1000,
        "latency_p99_us": best_ns / 1000,
        "peak_rss_MB": rss,
    }
    csv_bytes = result.timeseries_path.stat().st_size
    return dict(errors=errors, attempted=n * len(pass_ns), failed=0, e2e=e2e,
                result=None, samples_handled=n * len(pass_ns),
                csv_bytes_per_sample=csv_bytes / n)


# --------------------------------------------------------------------------
# Per-layer figures of a traced run


def median(values):
    return nearest_rank(sorted(values), 50, 100) if values else 0


def layer_metrics(probes: Probes, capture: Capture, run: dict) -> dict:
    totals = probes.tracer.totals()

    def per_call_us(name, own=True):
        calls, dur, self_ns = totals.get(name, (0, 0, 0))
        return (self_ns if own else dur) / calls / 1000 if calls else 0.0

    def total_s(name, own=True):
        calls, dur, self_ns = totals.get(name, (0, 0, 0))
        return (self_ns if own else dur) / S

    per_msample = run["samples_handled"] / 1e6
    subs = [s.counters() for s in capture.subscribers]
    result = run["result"]
    counters = result.counters if result else {}
    sleep_wall_s = total_s("clock.sleep_until", own=False)
    late = probes.wakeup_late
    sink = capture.sinks[0] if capture.sinks else None
    traffic = capture.traffic[0].report() if capture.traffic else None
    m = {
        "wire.encode_us": per_call_us("wire.encode"),
        "wire.decode_us": per_call_us("wire.decode"),
        "wire.offer_us": per_call_us("wire.offer"),
        "wire.frames_per_msg": (probes.frames_encoded / probes.messages_encoded
                                if probes.messages_encoded else 0.0),
        "wire.incomplete": sum(c.incomplete_messages for c in subs),
        "wire.duplicate_frames": sum(c.duplicate_frames for c in subs),
        "wire.stale_frames": sum(c.stale_frames for c in subs),
        "pubsub.publish_us": per_call_us("pubsub.publish"),
        "pubsub.rx_to_callback_us": median(probes.rx_to_callback) / 1000,
        "pubsub.overwritten": sum(c.overwritten for c in subs),
        "pubsub.malformed_frames": sum(c.malformed_frames for c in subs),
        "pubsub.send_errors": sum(p.send_errors for p in capture.publishers),
        "bench.await_reply_us": per_call_us("bench.await_reply"),
        "bench.echo_turnaround_us": median(probes.echo_turnaround) / 1000,
        "bench.client_init_s": total_s("bench.client_init"),
        "bench.missed_deadlines": run.get("missed", 0),
        "bench.skipped_cycles": counters.get("skipped_cycles", 0),
        "bench.lost": run.get("lost", 0),
        "bench.stale_replies": counters.get("stale_replies", 0),
        "bench.payload_mismatches": counters.get("payload_mismatches", 0),
        "clock.wakeup_late_p50_us": median(late) / 1000,
        "clock.wakeup_late_max_us": max(late, default=0) / 1000,
        "clock.sleep_cpu_share": (probes.sleep_cpu_ns / S / sleep_wall_s
                                  if sleep_wall_s else 0.0),
        "loadgen.cbr_send_mbps": traffic.achieved_bps / 1e6 if traffic else 0.0,
        "loadgen.cbr_sink_mbps": sink.achieved_bps() / 1e6 if sink else 0.0,
        "loadgen.cbr_lost": sink.lost() if sink else 0,
        "loadgen.cbr_send_errors": traffic.send_errors if traffic else 0,
    }
    for name in THREADS:
        m[f"cpu.{name}"] = probes.cpu.share.get(name, 0.0)
    m.update({
        "metrics.compute_stats_s": total_s("metrics.compute_stats") / per_msample,
        "metrics.export_s": total_s("metrics.export_timeseries") / per_msample,
        "metrics.import_s": total_s("metrics.import_timeseries") / per_msample,
        "runner.write_result_s": total_s("runner.write_result") / per_msample,
        "runner.load_results_s": total_s("runner.load_results_dir") / per_msample,
        "runner.render_report_s": total_s("runner.render_report") / per_msample,
        "runner.timeseries_bytes_per_sample": run.get("csv_bytes_per_sample", 0.0),
        "runner.orchestration_s": (total_s("runner.run", own=False)
                                   - total_s("bench.run_client", own=False)),
        "process.cpu_s_per_s": probes.cpu.process,
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    live = LIVE.get(args.workload)
    if live and live["one_cpu"]:
        # One CPU, and no wake-up preemption, for this process alone: a
        # closed loop is a chain of hand-offs between the program's
        # threads, and on two virtual CPUs each one woke an idle CPU
        # through the hypervisor, while on one CPU a woken thread
        # preempted the lock holder only to block on the interpreter lock;
        # both set the figures more than the program did (README.md).
        # Before any thread exists, so that the program's threads inherit
        # both.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    if args.out.exists():
        shutil.rmtree(args.out)
    args.out.mkdir(parents=True)
    probes = Probes() if args.trace else None
    # After the probes, so the one-shot first-ping wrapper sits outside the
    # traced Publisher.publish and puts that back once the ping is out.
    capture = Capture()

    stolen0, total0 = host_cpu_ticks()
    if args.workload == RESULTS:
        if probes:
            probes.cpu.begin()
        run = run_results(args)
        if probes:
            probes.cpu.finish()
    else:
        run = run_live(args, capture)

    stolen1, total1 = host_cpu_ticks()
    steal_share = (stolen1 - stolen0) / max(1, total1 - total0)

    line = dict(errors=run["errors"], attempted=run["attempted"],
                failed=run["failed"], e2e=run["e2e"], steal_share=steal_share)
    if probes:
        line["layers"] = layer_metrics(probes, capture, run)
        line["layers"]["host.steal_share"] = steal_share
        probes.tracer.write(args.out / "spans.csv")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
