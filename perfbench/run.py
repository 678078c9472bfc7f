"""The rttbench benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each measurement runs in a fresh worker
process (worker.py) that imports the program from src/. With --trace 0
the last line of output carries the end-to-end metrics; with --trace 1 a
traced worker gives the per-layer metrics, and an untraced worker run
just before it gives the tracing overhead (traced minus untraced, per
end-to-end metric). The last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Outputs and spans go to perfbench/out/<workload>/.
"""

import time

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

BUDGET_S = 170  # a run must end within 180 s, traced ones included

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "peak_rss_MB": "MB",
}

LAYER_UNITS = {
    "wire.encode_us": "us", "wire.decode_us": "us", "wire.offer_us": "us",
    "wire.frames_per_msg": "frames", "wire.incomplete": "count",
    "wire.duplicate_frames": "count", "wire.stale_frames": "count",
    "pubsub.publish_us": "us", "pubsub.rx_to_callback_us": "us",
    "pubsub.overwritten": "count", "pubsub.malformed_frames": "count",
    "pubsub.send_errors": "count",
    "bench.await_reply_us": "us", "bench.echo_turnaround_us": "us",
    "bench.client_init_s": "s", "bench.missed_deadlines": "count",
    "bench.skipped_cycles": "count", "bench.lost": "count",
    "bench.stale_replies": "count", "bench.payload_mismatches": "count",
    "clock.wakeup_late_p50_us": "us", "clock.wakeup_late_max_us": "us",
    "clock.sleep_cpu_share": "share",
    "loadgen.cbr_send_mbps": "Mbit/s", "loadgen.cbr_sink_mbps": "Mbit/s",
    "loadgen.cbr_lost": "count", "loadgen.cbr_send_errors": "count",
    "cpu.cycle": "s/s", "cpu.ping-rx": "s/s", "cpu.ping-cb": "s/s",
    "cpu.pong-rx": "s/s", "cpu.pong-cb": "s/s", "cpu.cbr-send": "s/s",
    "cpu.cbr-sink": "s/s",
    "metrics.compute_stats_s": "s/Msample", "metrics.export_s": "s/Msample",
    "metrics.import_s": "s/Msample", "runner.write_result_s": "s/Msample",
    "runner.load_results_s": "s/Msample", "runner.render_report_s": "s/Msample",
    "runner.timeseries_bytes_per_sample": "B", "runner.orchestration_s": "s",
    "process.cpu_s_per_s": "s/s", "host.steal_share": "share",
    **{f"trace.overhead.{name}": unit for name, unit in E2E_UNITS.items()},
}


def run_worker(args, trace: int, deadline: float) -> dict:
    out = OUT / args.workload / ("traced" if trace else "untraced")
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rttbench benchmark")
    parser.add_argument("--workload", required=True,
                        help="pingpong-small, pingpong-fragmented, "
                             "cycle-1ms-cbr or results-1h")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed at least 0")
    if not (ROOT / "src" / "rttbench" / "__init__.py").is_file():
        print(f"run.py: no program sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        base = run_worker(args, 0, deadline)
        traced = run_worker(args, 1, deadline) if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if traced:
        metrics = dict(traced["layers"])
        for name in E2E_UNITS:
            metrics[f"trace.overhead.{name}"] = traced["e2e"][name] - base["e2e"][name]
        units = LAYER_UNITS
        errors = base["errors"] + traced["errors"]
        run = traced
    else:
        metrics = base["e2e"]
        units = E2E_UNITS
        errors = base["errors"]
        run = base

    print(f"run.py: {run['steal_share']:.1%} of the machine's CPU time was "
          "stolen by the hypervisor during the measurement", file=sys.stderr)
    for error in errors[:50]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
