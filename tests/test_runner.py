"""Matrix loading, orchestration sequence, reports, control protocol."""

import multiprocessing
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from rttbench import control, runner
from rttbench.bench import CycleConfig
from rttbench.control import ControlClient, ControlProtocolError
from rttbench.errors import ConfigError, PeerUnreachableError, RtApplyError
from rttbench.loadgen import CbrSpec, StressSpec
from rttbench.metrics import LatencyStats, compute_stats, import_timeseries
from rttbench.pubsub import Endpoint, QosProfile
from rttbench.rtconfig import Outcome, RtProfile, SchedPolicy, probe
from rttbench.runner import (
    ExperimentConfig,
    format_stats_row,
    load_matrix,
    load_stored_stats,
    render_report,
)

from conftest import free_udp_port, loopback_endpoint

S = 1_000_000_000
README = Path(__file__).resolve().parent.parent / "README.md"
NO_MATCH = r"^no-such-kernel-thread-\d+$"

GOOD_MATRIX = """\
# desk-scale analogue of the idle test
[test1.A]
role = both-loopback
cycle.duration_s = 60
cycle.payload = 500
endpoints.ping = 127.0.0.1:17101
endpoints.pong = 127.0.0.1:17102
"""


#: the result.meta keys of every run, and of every run with a cycle client
META_KEYS = {
    "schema", "id", "role", "cycle.period_ms", "cycle.deadline_ms",
    "cycle.loss_timeout_ms", "cycle.duration_s", "cycle.payload", "warmup_s",
    "qos.depth", "stats.min_us", "stats.avg_us", "stats.max_us", "stats.p99_us",
    "stats.p999_us", "stats.missed", "stats.lost", "stats.total",
    "stats.histogram", "timeseries", "event.run_start", "event.measure_started",
    "event.measure_ended"}
CLIENT_KEYS = META_KEYS | {
    "counters.stale_replies", "counters.payload_mismatches",
    "counters.send_errors", "counters.skipped_cycles", "counters.warmup_samples",
    "counters.wakeup_jitter_max_us", "counters.wakeup_jitter_avg_us",
    "event.warmup_started"}
SEND_KEYS = {"traffic.achieved_send_bps", "traffic.send_errors",
             "event.traffic_started", "event.traffic_stopped"}
SINK_KEYS = {"traffic.achieved_sink_bps", "sink.packets", "sink.bytes", "sink.lost"}
ECHO_KEYS = {"server.echoed", "server.malformed", "server.send_errors"}


def meta_values(run_dir):
    text = (run_dir / "result.meta").read_text()
    return dict(line.split(" = ", 1) for line in text.splitlines())


def fake_agent(reset_on_start: bool) -> Endpoint:
    """A one-shot control agent that answers HELLO, then on START either
    resets the connection or answers STARTED and closes it before STOP."""
    server = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = server.accept()
        server.close()
        with conn, conn.makefile("rb") as reader:
            reader.readline()
            conn.sendall(b"HELLO\n")
            reader.readline()
            if reset_on_start:
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
            else:
                conn.sendall(b"STARTED\n")

    threading.Thread(target=serve, daemon=True).start()
    return Endpoint("127.0.0.1", server.getsockname()[1])


def write_matrix(tmp_path, text):
    path = tmp_path / "matrix.conf"
    path.write_text(text, encoding="utf-8")
    return path


def quick_config(role="both-loopback", **overrides):
    defaults = dict(
        id="t",
        role=role,
        cycle=CycleConfig(duration_ns=1 * S),
        ping=loopback_endpoint(),
        pong=loopback_endpoint(),
        qos=QosProfile(),
        warmup_ns=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestLoadMatrix:
    def test_well_formed_single_experiment(self, tmp_path):
        configs = load_matrix(write_matrix(tmp_path, GOOD_MATRIX))
        assert len(configs) == 1
        cfg = configs[0]
        assert cfg.id == "test1.A"
        assert cfg.role == "both-loopback"
        assert cfg.cycle.duration_ns == 60 * S
        assert cfg.cycle.period_ns == 10_000_000
        assert cfg.ping == Endpoint("127.0.0.1", 17101)

    def test_duplicate_id_names_the_id(self, tmp_path):
        text = GOOD_MATRIX + "\n" + GOOD_MATRIX
        with pytest.raises(ConfigError, match="test1.A"):
            load_matrix(write_matrix(tmp_path, text))

    def test_deadline_over_loss_timeout_cites_key(self, tmp_path):
        text = GOOD_MATRIX + "cycle.deadline_ms = 600\ncycle.loss_timeout_ms = 500\n"
        with pytest.raises(ConfigError, match="cycle.loss_timeout"):
            load_matrix(write_matrix(tmp_path, text))

    def test_unknown_key_has_line_number(self, tmp_path):
        text = GOOD_MATRIX + "cycle.perod_ms = 10\n"
        with pytest.raises(ConfigError, match="line 8") as err:
            load_matrix(write_matrix(tmp_path, text))
        assert "cycle.perod_ms" in str(err.value)

    def test_duration_floor_is_60s(self, tmp_path):
        text = GOOD_MATRIX.replace("cycle.duration_s = 60", "cycle.duration_s = 5")
        with pytest.raises(ConfigError, match="cycle.duration_s"):
            load_matrix(write_matrix(tmp_path, text))

    def test_missing_endpoints(self, tmp_path):
        text = "[x]\nrole = both-loopback\ncycle.duration_s = 60\n"
        with pytest.raises(ConfigError, match="endpoints.ping"):
            load_matrix(write_matrix(tmp_path, text))

    def test_bad_endpoint_value(self, tmp_path):
        text = GOOD_MATRIX.replace("127.0.0.1:17101", "127.0.0.1:0")
        with pytest.raises(ConfigError, match="endpoints.ping"):
            load_matrix(write_matrix(tmp_path, text))

    def test_bad_role(self, tmp_path):
        text = GOOD_MATRIX.replace("both-loopback", "spectator")
        with pytest.raises(ConfigError, match="role"):
            load_matrix(write_matrix(tmp_path, text))

    def test_stress_with_zero_workers_rejected(self, tmp_path):
        text = GOOD_MATRIX + "stress.cpu = 0\n"
        with pytest.raises(ConfigError, match="zero workers"):
            load_matrix(write_matrix(tmp_path, text))

    def test_full_section_parses(self, tmp_path):
        text = GOOD_MATRIX + """\
warmup_s = 2
qos.depth = 1
rt.policy = FIFO
rt.cycle_prio = 80
rt.transport_prio = 80
rt.lock_memory = true
rt.eth_irq_prio = 90
rt.softirq_prio = 60
rt.strict = false
stress.cpu = 2
stress.vm = 2
stress.io = 2
stress.hdd = 2
traffic.rate_mbps = 40
traffic.dest = 127.0.0.1:17900
cycle.paper_duration_s = 600
"""
        cfg = load_matrix(write_matrix(tmp_path, text))[0]
        assert cfg.rt == RtProfile(app_policy=SchedPolicy.FIFO,
                                   cycle_thread_prio=80, transport_thread_prio=80,
                                   lock_memory=True, eth_irq_prio=90,
                                   softirq_worker_prio=60)
        assert cfg.stress == StressSpec(2, 2, 2, 2)
        assert cfg.traffic.rate_bps == 40_000_000
        assert cfg.warmup_ns == 2 * S
        paper = cfg.with_paper_duration()
        assert paper.cycle.duration_ns == 600 * S

    def test_readme_matrix_block_lists_every_key(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        block = text[text.index("## Matrix format"):].split("```\n")[1]
        assert len(load_matrix(write_matrix(tmp_path, block))) == 1
        keys = {line.partition("=")[0].strip() for line in block.splitlines()
                if "=" in line and not line.startswith("#")}
        assert keys == set(runner._KEY_PARSERS)

    def test_ladder_violation_rejected(self, tmp_path):
        text = GOOD_MATRIX + """\
rt.policy = FIFO
rt.cycle_prio = 95
rt.transport_prio = 80
rt.eth_irq_prio = 90
rt.softirq_prio = 60
"""
        with pytest.raises(ConfigError, match="ladder"):
            load_matrix(write_matrix(tmp_path, text))


class TestRenderReport:
    def test_row_formats_match_paper_tables(self):
        stressed = LatencyStats(810, 2524, 29481, 233, 0, 56297)
        assert format_stats_row(stressed) == \
            "810 | 2524 | 29481 | 233/56297 | 0/56297"
        rt_settings = LatencyStats(769, 1197, 1823, 0, 0, 60001)
        assert format_stats_row(rt_settings) == \
            "769 | 1197 | 1823 | 0/60001 | 0/60001"

    def test_all_lost_row(self):
        stats = LatencyStats(None, None, None, 0, 10, 10)
        assert format_stats_row(stats) == "- | - | - | 0/10 | 10/10"

    def test_report_is_deterministic(self):
        results = [("a", LatencyStats(1, 2, 3, 0, 0, 10)),
                   ("b", LatencyStats(None, None, None, 0, 5, 5))]
        first = render_report(results)
        assert first == render_report(list(results))
        assert "Min(us) | Avg(us) | Max(us) | Missed deadlines | Message loss" in first
        assert "## a" in first and "## b" in first

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            render_report([])


class TestRunOrchestration:
    def test_loopback_run_sequence_and_persistence(self, tmp_path):
        cfg = quick_config(
            warmup_ns=200_000_000,
            stress=StressSpec(cpu_workers=1),
            traffic=CbrSpec(2_000_000, loopback_endpoint()),
        )
        result = runner.run(cfg, output_dir=tmp_path)

        order = [name for name, _ in result.events]
        assert order == ["run_start", "stress_started", "traffic_started",
                         "warmup_started", "measure_started", "measure_ended",
                         "traffic_stopped", "stress_stopped"]
        times = dict(result.events)
        for s in result.samples:
            assert times["traffic_started"] <= s.t1_ns <= times["traffic_stopped"]
            assert times["stress_started"] <= s.t1_ns <= times["stress_stopped"]
            assert s.t1_ns >= times["measure_started"]

        # teardown hygiene
        assert multiprocessing.active_children() == []
        assert not [t for t in threading.enumerate()
                    if t.name.startswith(("cbr", "pong", "ping", "cycle"))]

        run_dir = tmp_path / cfg.id
        stored_id, stored = load_stored_stats(run_dir)
        assert stored_id == cfg.id
        assert stored == result.stats
        rows = import_timeseries(run_dir / "timeseries.csv")
        assert len(rows) == result.stats.total
        assert compute_stats(rows) == result.stats

    def test_warmup_samples_never_in_stats_or_timeseries(self, tmp_path):
        cfg = quick_config(warmup_ns=500_000_000)
        result = runner.run(cfg, output_dir=tmp_path)
        assert result.counters["warmup_samples"] > 0
        rows = import_timeseries(tmp_path / cfg.id / "timeseries.csv")
        measure_start = dict(result.events)["measure_started"]
        assert all(r.t1_ns >= measure_start for r in rows)
        assert len(rows) == result.stats.total

    def test_strict_rt_denial_aborts_before_measurement(self, tmp_path):
        cfg = quick_config(
            rt=RtProfile(app_policy=SchedPolicy.OTHER, eth_irq_prio=90),
            rt_strict=True,
            eth_irq_pattern=NO_MATCH,
            stress=StressSpec(cpu_workers=1),
        )
        with pytest.raises(RtApplyError):
            runner.run(cfg, output_dir=tmp_path)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / cfg.id).exists()

    def test_rerun_overwrites_previous_result(self, tmp_path):
        cfg = quick_config()
        runner.run(cfg, output_dir=tmp_path)
        first = (tmp_path / cfg.id / "result.meta").read_text()
        runner.run(cfg, output_dir=tmp_path)
        assert (tmp_path / cfg.id / "result.meta").read_text() != ""
        assert (tmp_path / cfg.id).exists()
        assert first  # sanity

    def test_server_role_sinks_traffic_and_stops_on_request(self, tmp_path):
        cfg = quick_config(role="server",
                           traffic=CbrSpec(2_000_000, loopback_endpoint()))
        stop = threading.Event()
        seen = {}

        def look_then_stop():
            seen["threads"] = {t.name for t in threading.enumerate()}
            probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                probe.bind((cfg.traffic.dest.address, cfg.traffic.dest.port))
                seen["sink_bound"] = False
            except OSError:
                seen["sink_bound"] = True
            finally:
                probe.close()
            stop.set()

        threading.Timer(0.3, look_then_stop).start()
        started = time.monotonic()
        runner.run(cfg, output_dir=tmp_path, stop=stop)
        # without the stop the run would last its 11 s grace period
        assert time.monotonic() - started < 3.0
        assert seen["sink_bound"]
        assert "cbr-sink" in seen["threads"]
        assert "cbr-send" not in seen["threads"]
        meta = (tmp_path / cfg.id / "result.meta").read_text()
        assert "traffic.achieved_sink_bps = " in meta
        assert "traffic.achieved_send_bps" not in meta

    def test_result_meta_key_sets(self, tmp_path):
        loop = quick_config(id="loop", rt=RtProfile(),
                            stress=StressSpec(cpu_workers=1),
                            traffic=CbrSpec(2_000_000, loopback_endpoint()))
        runner.run(loop, output_dir=tmp_path)
        assert set(meta_values(tmp_path / "loop")) == (
            CLIENT_KEYS | SEND_KEYS | SINK_KEYS | ECHO_KEYS
            | {"rt.policy:cycle", "rt.policy:transport", "event.rt_applied",
               "event.stress_started", "event.stress_stopped"})

        server = quick_config(role="server", id="server",
                              traffic=CbrSpec(2_000_000, loopback_endpoint()))
        stop = threading.Event()
        threading.Timer(0.3, stop.set).start()
        runner.run(server, output_dir=tmp_path, stop=stop)
        assert set(meta_values(tmp_path / "server")) == \
            META_KEYS | SINK_KEYS | ECHO_KEYS

        ping, pong = loopback_endpoint(), loopback_endpoint()
        traffic = CbrSpec(2_000_000, loopback_endpoint())
        served = quick_config(role="server", id="agent", ping=ping, pong=pong,
                              traffic=traffic)
        with runner.make_agent(Endpoint("127.0.0.1", free_udp_port()),
                               [served]) as agent:
            runner.run(quick_config(role="client", id="agent", ping=ping,
                                    pong=pong, traffic=traffic,
                                    control_agent=agent.listen),
                       output_dir=tmp_path)
        assert set(meta_values(tmp_path / "agent")) == (
            CLIENT_KEYS | SEND_KEYS
            | {f"agent.{key}" for key in SINK_KEYS | ECHO_KEYS})

        dropped = quick_config(role="client", id="dropped",
                               traffic=CbrSpec(2_000_000, loopback_endpoint()),
                               control_agent=fake_agent(reset_on_start=False))
        runner.run(dropped, output_dir=tmp_path)
        assert set(meta_values(tmp_path / "dropped")) == \
            CLIENT_KEYS | SEND_KEYS | {"agent.error"}

    def test_report_rendering_from_stored_results(self, tmp_path):
        cfg = quick_config()
        result = runner.run(cfg, output_dir=tmp_path)
        stored = runner.load_results_dir(tmp_path)
        assert render_report(stored) == render_report([result])


class TestControlProtocol:
    def agent_config(self):
        return quick_config(role="server")

    def test_hello_start_stop_result_cycle(self):
        cfg = self.agent_config()
        listen = Endpoint("127.0.0.1", free_udp_port())
        with runner.make_agent(listen, [cfg]) as agent:
            client = ControlClient(agent.listen)
            client.hello()
            client.start(cfg.id)
            payload = client.stop()
            client.close()
        text = payload.decode()
        assert "server.echoed = 0" in text
        assert "server.malformed = 0" in text

    def test_unknown_experiment_yields_error_reply(self):
        cfg = self.agent_config()
        listen = Endpoint("127.0.0.1", free_udp_port())
        with runner.make_agent(listen, [cfg]) as agent:
            client = ControlClient(agent.listen)
            client.hello()
            with pytest.raises(Exception, match="unknown experiment"):
                client.start("nope")
            client.close()

    def test_second_start_refused_and_first_session_kept(self):
        # only the first experiment has a traffic sink, so its result differs
        first = quick_config(role="server", id="first",
                             traffic=CbrSpec(2_000_000, loopback_endpoint()))
        second = quick_config(role="server", id="second")
        listen = Endpoint("127.0.0.1", free_udp_port())
        with runner.make_agent(listen, [first, second]) as agent:
            client = ControlClient(agent.listen)
            client.hello()
            client.start(first.id)
            with pytest.raises(ControlProtocolError,
                               match="session already started"):
                client.start(second.id)
            payload = client.stop()
            client.close()
        assert "sink.packets = 0" in payload.decode()
        for ep in (first.ping, first.traffic.dest):
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            s.bind((ep.address, ep.port))  # raises if the session leaked it
            s.close()

    def test_refused_start_leaks_nothing(self):
        cfg = quick_config(role="server", stress=StressSpec(cpu_workers=1),
                           traffic=CbrSpec(2_000_000, loopback_endpoint()))
        listen = Endpoint("127.0.0.1", free_udp_port())
        held = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        held.bind((cfg.ping.address, cfg.ping.port))  # the echo server can't bind
        try:
            with runner.make_agent(listen, [cfg]) as agent:
                client = ControlClient(agent.listen)
                client.hello()
                with pytest.raises(ControlProtocolError, match="ERROR"):
                    client.start(cfg.id)
                client.close()
        finally:
            held.close()
        assert multiprocessing.active_children() == []
        assert not [t for t in threading.enumerate() if t.name == "cbr-sink"]
        s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        s.bind((cfg.traffic.dest.address, cfg.traffic.dest.port))
        s.close()

    def test_agent_result_carries_rt_outcomes(self):
        cfg = quick_config(role="server", rt=RtProfile())
        listen = Endpoint("127.0.0.1", free_udp_port())
        with runner.make_agent(listen, [cfg]) as agent:
            client = ControlClient(agent.listen)
            client.hello()
            client.start(cfg.id)
            payload = client.stop()
            client.close()
        assert "rt.policy:transport = APPLIED" in payload.decode()

    def test_silent_session_outlives_the_io_timeout(self, monkeypatch):
        # the controller sends nothing between START and STOP for a whole run
        monkeypatch.setattr(control, "_IO_TIMEOUT", 0.5)
        cfg = self.agent_config()
        listen = Endpoint("127.0.0.1", free_udp_port())
        with runner.make_agent(listen, [cfg]) as agent:
            client = ControlClient(agent.listen)
            client.hello()
            client.start(cfg.id)
            time.sleep(1.5)
            probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            with pytest.raises(OSError):
                probe.bind((cfg.ping.address, cfg.ping.port))  # still echoing
            probe.close()
            payload = client.stop()
            client.close()
        assert "server.echoed = 0" in payload.decode()

    def test_agent_outlives_a_failing_stop(self, monkeypatch):
        # a HELLO to a dead serve thread would wait out the I/O timeout
        monkeypatch.setattr(control, "_IO_TIMEOUT", 0.5)
        stops = []

        def start_session(experiment_id):
            def stop():
                stops.append(experiment_id)
                raise RuntimeError("teardown\nfailed")  # ERROR stays one line
            return stop

        listen = Endpoint("127.0.0.1", free_udp_port())
        with control.ControlAgent(listen, start_session) as agent:
            with ControlClient(agent.listen) as client:
                client.hello()
                client.start("stopped")
                with pytest.raises(ControlProtocolError, match="teardown failed"):
                    client.stop()
                client.start("abandoned")  # the failed session counts as ended
            # this controller leaves without STOP; the agent stops the session
            with ControlClient(agent.listen) as client:
                client.hello()
        assert stops == ["stopped", "abandoned"]

    def test_close_stops_a_held_session(self):
        cfg = self.agent_config()
        listen = Endpoint("127.0.0.1", free_udp_port())
        agent = runner.make_agent(listen, [cfg])
        client = ControlClient(agent.listen)
        try:
            client.hello()
            client.start(cfg.id)
            agent.close()
            assert not [t.name for t in threading.enumerate()
                        if t.name.startswith("ping-")]
            s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            s.bind((cfg.ping.address, cfg.ping.port))  # raises if still held
            s.close()
        finally:
            client.close()
            agent.close()

    def test_unreachable_agent_is_distinct_diagnostic(self):
        dead = Endpoint("127.0.0.1", free_udp_port())
        with pytest.raises(PeerUnreachableError):
            ControlClient(dead, timeout=0.5)

    def test_client_run_with_agent_coordination(self, tmp_path):
        # the agent hosts the echo server and the CBR sink; the client runs
        # the measurement and sends the traffic
        ping, pong = loopback_endpoint(), loopback_endpoint()
        traffic = CbrSpec(2_000_000, loopback_endpoint())
        server_cfg = quick_config(role="server", ping=ping, pong=pong, traffic=traffic)
        listen = Endpoint("127.0.0.1", free_udp_port())
        with runner.make_agent(listen, [server_cfg]) as agent:
            client_cfg = quick_config(role="client", id="t", ping=ping, pong=pong,
                                      traffic=traffic, control_agent=agent.listen)
            result = runner.run(client_cfg, output_dir=tmp_path)
        assert result.stats.total > 0
        assert result.stats.lost == 0
        values = meta_values(tmp_path / client_cfg.id)
        echoed = int(values["agent.server.echoed"])
        assert echoed >= result.stats.total - result.stats.lost
        # the agent's sink is bound before the first CBR packet leaves
        assert int(values["agent.sink.packets"]) > 0
        assert values["agent.sink.lost"] == "0"

    def test_failed_stop_keeps_the_measured_run(self, tmp_path):
        cfg = quick_config(role="client",
                           control_agent=fake_agent(reset_on_start=False))
        result = runner.run(cfg, output_dir=tmp_path)
        run_dir = tmp_path / cfg.id
        assert len(import_timeseries(run_dir / "timeseries.csv")) == \
            result.stats.total > 0
        values = meta_values(run_dir)
        assert "closed the connection" in values["agent.error"]
        assert [k for k in values if k.startswith("agent.")] == ["agent.error"]

    def test_agent_reset_is_a_protocol_error(self, tmp_path):
        cfg = quick_config(role="client", stress=StressSpec(cpu_workers=1),
                           control_agent=fake_agent(reset_on_start=True))
        with pytest.raises(ControlProtocolError):
            runner.run(cfg, output_dir=tmp_path)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / cfg.id).exists()

    def test_unreachable_agent_aborts_client_run(self, tmp_path):
        cfg = quick_config(role="client",
                           control_agent=Endpoint("127.0.0.1", free_udp_port()))
        with pytest.raises(PeerUnreachableError):
            runner.run(cfg, output_dir=tmp_path)


def test_socket_ports_released_after_run(tmp_path):
    cfg = quick_config()
    runner.run(cfg, output_dir=tmp_path)
    for ep in (cfg.ping, cfg.pong):
        s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        s.bind((ep.address, ep.port))  # raises if the run leaked the socket
        s.close()


#: a child renames itself and waits, so it can stand in for a kernel thread
_RENAMED_CHILD = ("import ctypes, sys, time; "
                  "ctypes.CDLL(None).prctl(15, sys.argv[1].encode()); "
                  "print('ready', flush=True); time.sleep(60)")


@pytest.fixture
def renamed_child():
    """(pid, pattern) of a child process whose name only its pattern matches."""
    if not probe().fifo:
        pytest.skip("SCHED_FIFO unavailable")
    name = f"rttbundo{os.getpid() % 1_000_000}"
    child = subprocess.Popen([sys.executable, "-c", _RENAMED_CHILD, name],
                             stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "ready"
        yield child.pid, f"^{name}$"
    finally:
        child.kill()
        child.wait()
        child.stdout.close()


def sched_of(pid):
    return os.sched_getscheduler(pid), os.sched_getparam(pid).sched_priority


def vm_locked_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmLck:"))


class TestSessionUndoesRt:
    def test_kernel_thread_priority_restored_on_close(self, renamed_child):
        pid, pattern = renamed_child
        before = sched_of(pid)
        session = runner.Session(quick_config(
            role="client", eth_irq_pattern=pattern,
            rt=RtProfile(app_policy=SchedPolicy.OTHER, eth_irq_prio=90)))
        try:
            if session.rt_report.settings["eth_irq"].outcome is not Outcome.APPLIED:
                pytest.skip("SCHED_FIFO denied for another process")
            assert sched_of(pid) == (os.SCHED_FIFO, 90)
        finally:
            session.close()
        assert sched_of(pid) == before

    def test_strict_failure_undoes_what_it_applied(self, renamed_child):
        pid, pattern = renamed_child
        before = sched_of(pid)
        cfg = quick_config(role="client", rt_strict=True,
                           eth_irq_pattern=pattern, softirq_pattern=NO_MATCH,
                           rt=RtProfile(app_policy=SchedPolicy.OTHER,
                                        eth_irq_prio=90, softirq_worker_prio=60))
        with pytest.raises(RtApplyError) as err:
            runner.Session(cfg)
        if err.value.setting == "eth_irq":
            pytest.skip("SCHED_FIFO denied for another process")
        assert err.value.setting == "softirq"
        assert sched_of(pid) == before

    def test_memory_unlocked_on_close(self):
        session = runner.Session(quick_config(
            role="client", rt=RtProfile(lock_memory=True)))
        try:
            if session.rt_report.settings["lock_memory"].outcome is not Outcome.APPLIED:
                pytest.skip("mlockall denied")
            assert vm_locked_kb() > 0
        finally:
            session.close()
        assert vm_locked_kb() == 0
