"""Command line interface behavior."""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from rttbench.bench import PING_TOPIC, PONG_TOPIC, CycleConfig
from rttbench.cli import main
from rttbench.metrics import LatencyStats
from rttbench.pubsub import Endpoint, Publisher, QosProfile, Subscriber
from rttbench.runner import ExperimentConfig, RunResult, write_result
from rttbench.wire import Message, pattern_payload

from conftest import loopback_endpoint

REPO = Path(__file__).resolve().parent.parent
REPO_MATRIX = REPO / "matrices" / "paper-analogues.conf"


def stored_result(tmp_path, experiment_id, stats):
    cfg = ExperimentConfig(id=experiment_id, role="both-loopback",
                           cycle=CycleConfig(duration_ns=60_000_000_000),
                           ping=Endpoint("127.0.0.1", 1000),
                           pong=Endpoint("127.0.0.1", 1001),
                           qos=QosProfile())
    write_result(RunResult(config=cfg, stats=stats), tmp_path)


def test_probe_exits_zero(capsys):
    assert main(["probe"]) == 0
    out = capsys.readouterr().out
    assert "fifo_scheduling" in out
    assert "memory_locking" in out


def test_report_renders_stored_results(tmp_path, capsys):
    stored_result(tmp_path, "a", LatencyStats(769, 1197, 1823, 0, 0, 60001))
    stored_result(tmp_path, "b", LatencyStats(None, None, None, 0, 5, 5))
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "769 | 1197 | 1823 | 0/60001 | 0/60001" in out
    assert "- | - | - | 0/5 | 5/5" in out


def test_report_empty_dir_fails(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 2


def test_run_unknown_only_id(tmp_path, capsys):
    assert main(["run", str(REPO_MATRIX), "--only", "nope",
                 "--output", str(tmp_path)]) == 2


def test_run_bad_matrix_reports_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("[x]\nrole = wizard\n")
    assert main(["run", str(bad), "--output", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_shipped_matrix_parses(tmp_path):
    from rttbench.runner import load_matrix
    configs = load_matrix(REPO_MATRIX)
    ids = [c.id for c in configs]
    assert len(ids) == len(set(ids)) == 16
    assert "test1.A" in ids and "test5.B" in ids
    # endpoints must not collide across experiments
    endpoints = [(c.ping, c.pong) for c in configs]
    flat = [e for pair in endpoints for e in pair]
    assert len(flat) == len(set(flat))


def test_server_requires_single_experiment(capsys):
    assert main(["server", str(REPO_MATRIX)]) == 2


def test_server_echoes_until_sigterm(tmp_path):
    ping, pong = loopback_endpoint(), loopback_endpoint()
    matrix = tmp_path / "server.conf"
    matrix.write_text(f"[X]\nrole = server\nendpoints.ping = {ping}\n"
                      f"endpoints.pong = {pong}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    # a child process, so this process's signal handlers stay untouched
    proc = subprocess.Popen(
        [sys.executable, "-m", "rttbench.cli", "server", str(matrix), "--id", "X"],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        assert select.select([proc.stdout], [], [], 10)[0], "no start-up line"
        assert "echo server on" in proc.stdout.readline()
        pongs = []
        with Subscriber(PONG_TOPIC, pong, QosProfile(), pongs.append), \
                Publisher(PING_TOPIC, ping, QosProfile()) as pub:
            pub.publish(Message(PING_TOPIC, 0, pattern_payload(0, 100)))
            deadline = time.monotonic() + 3
            while not pongs and time.monotonic() < deadline:
                time.sleep(0.01)
        assert len(pongs) == 1
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0
    assert "echoed 1," in out
