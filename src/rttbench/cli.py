"""rtt-bench command line interface.

    rtt-bench run <matrix> [--only ID] [--output DIR] [--strict-rt] [--paper-durations]
    rtt-bench server <matrix> [--id ID]
    rtt-bench report <dir>
    rtt-bench probe
    rtt-bench agent <matrix> --listen HOST:PORT
"""

import argparse
import dataclasses
import signal
import sys
import threading
from pathlib import Path

from . import runner
from .errors import RttBenchError
from .metrics import stats_to_text
from .pubsub import Endpoint
from .rtconfig import probe


def _cmd_run(args) -> int:
    matrix = runner.load_matrix(args.matrix)
    if args.only:
        matrix = [cfg for cfg in matrix if cfg.id == args.only]
        if not matrix:
            print(f"no experiment named {args.only!r}", file=sys.stderr)
            return 2
    output = Path(args.output)
    failures = 0
    results = []
    for cfg in matrix:
        if args.paper_durations:
            cfg = cfg.with_paper_duration()
        print(f"[{cfg.id}] role={cfg.role} "
              f"duration={cfg.cycle.duration_ns / 1e9:g}s ...", flush=True)
        try:
            result = runner.run(cfg, output_dir=output, strict_rt=args.strict_rt)
        except RttBenchError as exc:
            print(f"[{cfg.id}] aborted: {exc}", file=sys.stderr)
            failures += 1
            continue
        results.append(result)
        print(f"[{cfg.id}] {stats_to_text(result.stats)}")
    if results:
        report = runner.render_report(results)
        (output / runner.REPORT_MD).write_text(report, encoding="utf-8")
        print(report)
    return 1 if failures else 0


def _cmd_server(args) -> int:
    matrix = runner.load_matrix(args.matrix)
    if args.id:
        matrix = [cfg for cfg in matrix if cfg.id == args.id]
    if len(matrix) != 1:
        print("server needs exactly one experiment; use --id", file=sys.stderr)
        return 2
    cfg = matrix[0]
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    session = runner.Session(dataclasses.replace(cfg, role="server"))
    print(f"[{cfg.id}] echo server on {cfg.ping}, replying to {cfg.pong} "
          "(Ctrl-C to stop)", flush=True)
    stop.wait()
    stats = session.close()
    print(f"echoed {stats.echoed}, malformed {stats.malformed}")
    return 0


def _cmd_report(args) -> int:
    stored = runner.load_results_dir(Path(args.dir))
    if not stored:
        print(f"no results under {args.dir}", file=sys.stderr)
        return 2
    print(runner.render_report(stored), end="")
    return 0


def _cmd_probe(_args) -> int:
    caps = probe()
    print(f"fifo_scheduling = {'yes' if caps.fifo else 'no'}")
    print(f"max_fifo_priority = {caps.max_fifo_prio}")
    print(f"memory_locking = {'yes' if caps.memlock else 'no'}")
    limit = "unlimited" if caps.memlock_limit == -1 else str(caps.memlock_limit)
    print(f"memlock_limit_bytes = {limit}")
    print(f"kernel_thread_tuning = {'yes' if caps.kernel_thread_tuning else 'no'}")
    return 0


def _cmd_agent(args) -> int:
    matrix = runner.load_matrix(args.matrix)
    listen = Endpoint.parse(args.listen)
    agent = runner.make_agent(listen, matrix)
    stop = threading.Event()
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    print(f"control agent listening on {agent.listen}", flush=True)
    stop.wait()
    agent.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rtt-bench",
        description="Round-trip latency benchmark for best-effort pub/sub over UDP")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a matrix file")
    p_run.add_argument("matrix")
    p_run.add_argument("--only", metavar="ID", help="run a single experiment")
    p_run.add_argument("--output", default="results", help="output directory")
    p_run.add_argument("--strict-rt", action="store_true",
                       help="abort a run when any RT setting is not applied")
    p_run.add_argument("--paper-durations", action="store_true",
                       help="use each experiment's paper duration (default 600 s)")
    p_run.set_defaults(fn=_cmd_run)

    p_server = sub.add_parser("server", help="run the echo server side")
    p_server.add_argument("matrix")
    p_server.add_argument("--id", help="experiment id within the matrix")
    p_server.set_defaults(fn=_cmd_server)

    p_report = sub.add_parser("report", help="render tables from stored results")
    p_report.add_argument("dir")
    p_report.set_defaults(fn=_cmd_report)

    p_probe = sub.add_parser("probe", help="show real-time capabilities")
    p_probe.set_defaults(fn=_cmd_probe)

    p_agent = sub.add_parser("agent", help="host the remote control agent")
    p_agent.add_argument("matrix")
    p_agent.add_argument("--listen", required=True, metavar="HOST:PORT")
    p_agent.set_defaults(fn=_cmd_agent)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except RttBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
