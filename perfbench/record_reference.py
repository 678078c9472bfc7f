"""Record the measured round trips that results-1h resamples.

    python3 perfbench/record_reference.py [--seconds 60]

Run from the repository root. It runs the long-term scenario of
matrices/paper-analogues.conf (test5.B: a 500-byte ping on a 10 ms grid
with a 10 ms deadline, beside 40 Mbit/s of CBR traffic) through runner.run
on loopback, without that scenario's stress workers and RT profile (see
README.md), and writes one line per measured sample to REFERENCE: the
offset of t1 from the 10 ms grid, counted from the earliest sample's, and
the round-trip time t2 - t1, both in ns, or "lost".
"""

import argparse
import sys
from pathlib import Path

import worker
from worker import MS, S, runner

REFERENCE = Path(__file__).resolve().parent / "reference" / "long-term-40mbps.txt"
PERIOD_NS = 10 * MS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=60)
    args = parser.parse_args(argv)

    ping, pong, cbr_dest = worker.free_endpoints(3)
    cfg = runner.ExperimentConfig(
        id="reference", role="both-loopback",
        cycle=worker.CycleConfig(duration_ns=args.seconds * S, payload_size=500,
                                 period_ns=PERIOD_NS, deadline_ns=PERIOD_NS,
                                 loss_timeout_ns=worker.LOSS_TIMEOUT_NS),
        ping=ping, pong=pong, warmup_ns=worker.WARMUP_NS,
        traffic=worker.loadgen.CbrSpec(rate_bps=40_000_000, dest=cbr_dest))
    samples = runner.run(cfg, output_dir=worker.HERE / "out" / "reference").samples

    # Most wake-ups are a few us late and none is early, so the grid lies
    # just before the median phase of t1; a phase more than 100 us below
    # that median belongs to a wake-up late by most of a period.
    half = PERIOD_NS // 2
    phases = [(s.t1_ns - samples[0].t1_ns + half) % PERIOD_NS - half
              for s in samples]
    grid = sorted(phases)[len(phases) // 2] - 100_000
    offsets = [(phase - grid) % PERIOD_NS for phase in phases]
    lowest = min(offsets)
    lines = [f"# {len(samples)} samples of matrices/paper-analogues.conf test5.B "
             f"without stress or RT profile, {args.seconds} s on loopback",
             "# t1_offset_ns rtt_ns"]
    for s, offset in zip(samples, offsets):
        rtt = "lost" if s.t2_ns is None else s.t2_ns - s.t1_ns
        lines.append(f"{offset - lowest} {rtt}")
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(samples)} samples to {REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
