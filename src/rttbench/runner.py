"""Experiment orchestration: matrix loading, run sequencing, reports.

A matrix file is a list of experiments in a line-oriented key-value
format:

    # comment
    [test1.A]
    role = both-loopback
    cycle.duration_s = 60
    cycle.payload = 500
    endpoints.ping = 127.0.0.1:17101
    endpoints.pong = 127.0.0.1:17102
    rt.policy = FIFO
    rt.cycle_prio = 80
    rt.transport_prio = 80
    rt.lock_memory = true
    stress.cpu = 2
    traffic.rate_mbps = 40
    traffic.dest = 127.0.0.1:17900

Unknown keys are errors. Every run follows the same sequence: apply the
RT profile, start stress, start the echo side and traffic, warm up,
measure, then tear down in reverse order; results land atomically in the
output directory (`result.meta`, `timeseries.csv`, `report.md` per run).
A `Session` starts and undoes this host's share of that sequence, for
`run`, the control agent and `rtt-bench server` alike, and writes the
host's lines of `result.meta`, which are also the control agent's RESULT.
"""

import contextlib
import dataclasses
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import rtconfig
from .bench import CycleConfig, EchoServer, ServerStats, run_client
from .control import ControlAgent, ControlClient, ControlProtocolError
from .errors import ConfigError, RtApplyError, RttBenchError
from .loadgen import (CbrSink, CbrSpec, StressSpec, TrafficHandle, start_cbr,
                      start_stress)
from .metrics import LatencyStats, compute_stats, export_timeseries
from .pubsub import Endpoint, QosProfile
from .rtconfig import AppliedReport, RtProfile, SchedPolicy

ROLES = ("client", "server", "both-loopback")
DEFAULT_WARMUP_NS = 5_000_000_000
MIN_DURATION_NS = 60_000_000_000
DEFAULT_PAPER_DURATION_NS = 600_000_000_000
RESULT_META = "result.meta"
TIMESERIES_CSV = "timeseries.csv"
REPORT_MD = "report.md"

REPORT_HEADER = "Min(us) | Avg(us) | Max(us) | Missed deadlines | Message loss"
_REPORT_RULE = "------- | ------- | ------- | ---------------- | ------------"


@dataclass
class ExperimentConfig:
    """One cell of the experiment matrix."""

    id: str
    role: str
    cycle: CycleConfig
    ping: Endpoint
    pong: Endpoint
    qos: QosProfile = field(default_factory=QosProfile)
    warmup_ns: int = DEFAULT_WARMUP_NS
    rt: RtProfile | None = None
    rt_strict: bool = False
    eth_irq_pattern: str = rtconfig.DEFAULT_ETH_IRQ_PATTERN
    softirq_pattern: str = rtconfig.DEFAULT_SOFTIRQ_PATTERN
    stress: StressSpec | None = None
    traffic: CbrSpec | None = None
    control_agent: Endpoint | None = None
    max_datagram: int = 1400
    paper_duration_ns: int = DEFAULT_PAPER_DURATION_NS
    output_dir: Path | None = None

    def with_paper_duration(self) -> "ExperimentConfig":
        cycle = dataclasses.replace(self.cycle, duration_ns=self.paper_duration_ns)
        return dataclasses.replace(self, cycle=cycle)


@dataclass
class RunResult:
    config: ExperimentConfig
    stats: LatencyStats
    counters: dict = field(default_factory=dict)
    events: list = field(default_factory=list)
    timeseries_path: Path | None = None
    server_stats: ServerStats | None = None
    host_lines: list = field(default_factory=list)  # Session.lines()
    samples: list = field(default_factory=list)  # not persisted in the meta file


# --------------------------------------------------------------------------
# Matrix file parsing

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"not a boolean: {text!r}")


#: key -> converter; every key a matrix section may contain.
_KEY_PARSERS = {
    "role": str,
    "cycle.period_ms": float,
    "cycle.deadline_ms": float,
    "cycle.loss_timeout_ms": float,
    "cycle.duration_s": float,
    "cycle.payload": int,
    "cycle.paper_duration_s": float,
    "warmup_s": float,
    "qos.depth": int,
    "endpoints.ping": Endpoint.parse,
    "endpoints.pong": Endpoint.parse,
    "rt.policy": str,
    "rt.cycle_prio": int,
    "rt.transport_prio": int,
    "rt.lock_memory": _parse_bool,
    "rt.eth_irq_prio": int,
    "rt.softirq_prio": int,
    "rt.strict": _parse_bool,
    "rt.eth_irq_pattern": str,
    "rt.softirq_pattern": str,
    "stress.cpu": int,
    "stress.vm": int,
    "stress.io": int,
    "stress.hdd": int,
    "traffic.rate_mbps": float,
    "traffic.dest": Endpoint.parse,
    "control.agent": Endpoint.parse,
    "max_datagram": int,
    "output_dir": str,
}

_REQUIRED_KEYS = ("role", "endpoints.ping", "endpoints.pong")


def load_matrix(path) -> list[ExperimentConfig]:
    """Parse a matrix file into validated experiment configs, in file order."""
    sections = _read_sections(path)
    configs = []
    seen = set()
    for experiment_id, line, values in sections:
        if experiment_id in seen:
            raise ConfigError(f"duplicate experiment id {experiment_id!r}",
                              line=line, key="id")
        seen.add(experiment_id)
        configs.append(_build_config(experiment_id, line, values))
    return configs


def _read_sections(path):
    sections = []
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            if text.startswith("[") and text.endswith("]"):
                experiment_id = text[1:-1].strip()
                if not experiment_id:
                    raise ConfigError("empty experiment id", line=lineno)
                current = (experiment_id, lineno, {})
                sections.append(current)
                continue
            if "=" not in text:
                raise ConfigError(f"expected key = value, got {text!r}", line=lineno)
            if current is None:
                raise ConfigError("key before any [experiment] section", line=lineno)
            key, _, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            parser = _KEY_PARSERS.get(key)
            if parser is None:
                raise ConfigError(f"unknown key {key!r}", line=lineno, key=key)
            if key in current[2]:
                raise ConfigError(f"duplicate key {key!r}", line=lineno, key=key)
            try:
                current[2][key] = (parser(value), lineno)
            except (ValueError, RttBenchError) as exc:
                raise ConfigError(f"bad value for {key}: {exc}",
                                  line=lineno, key=key) from exc
    return sections


def _build_config(experiment_id, section_line, values):
    def get(key, default=None):
        entry = values.get(key)
        return default if entry is None else entry[0]

    def line_of(key):
        entry = values.get(key)
        return entry[1] if entry else section_line

    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"experiment {experiment_id!r} missing {key}",
                              line=section_line, key=key)

    role = get("role")
    if role not in ROLES:
        raise ConfigError(f"role must be one of {ROLES}, got {role!r}",
                          line=line_of("role"), key="role")

    period_ns = int(get("cycle.period_ms", 10.0) * 1e6)
    deadline_ns = int(get("cycle.deadline_ms", 10.0) * 1e6)
    loss_timeout_ns = int(get("cycle.loss_timeout_ms", 500.0) * 1e6)
    duration_ns = int(get("cycle.duration_s", 60.0) * 1e9)
    payload = get("cycle.payload", 500)

    if deadline_ns > loss_timeout_ns:
        raise ConfigError("cycle.deadline_ms exceeds cycle.loss_timeout_ms",
                          line=line_of("cycle.loss_timeout_ms"),
                          key="cycle.loss_timeout_ms")
    if deadline_ns > period_ns:
        raise ConfigError("cycle.deadline_ms exceeds cycle.period_ms",
                          line=line_of("cycle.period_ms"), key="cycle.period_ms")
    if period_ns > loss_timeout_ns:
        raise ConfigError("cycle.period_ms exceeds cycle.loss_timeout_ms",
                          line=line_of("cycle.loss_timeout_ms"),
                          key="cycle.loss_timeout_ms")
    if loss_timeout_ns > duration_ns:
        raise ConfigError("cycle.loss_timeout_ms exceeds cycle.duration_s",
                          line=line_of("cycle.duration_s"), key="cycle.duration_s")
    if duration_ns < MIN_DURATION_NS:
        raise ConfigError("cycle.duration_s must be at least 60",
                          line=line_of("cycle.duration_s"), key="cycle.duration_s")

    try:
        cycle = CycleConfig(duration_ns=duration_ns, payload_size=payload,
                            period_ns=period_ns, deadline_ns=deadline_ns,
                            loss_timeout_ns=loss_timeout_ns)
    except ValueError as exc:
        raise ConfigError(str(exc), line=section_line, key="cycle") from exc

    try:
        qos = QosProfile(depth=get("qos.depth", 1))
    except RttBenchError as exc:
        raise ConfigError(str(exc), line=line_of("qos.depth"), key="qos.depth") from exc

    rt = None
    if "rt.policy" in values:
        policy_name = get("rt.policy").upper()
        try:
            policy = SchedPolicy(policy_name)
        except ValueError:
            raise ConfigError(f"rt.policy must be FIFO or OTHER, got {policy_name!r}",
                              line=line_of("rt.policy"), key="rt.policy") from None
        try:
            rt = RtProfile(app_policy=policy,
                           cycle_thread_prio=get("rt.cycle_prio", 0),
                           transport_thread_prio=get("rt.transport_prio", 0),
                           lock_memory=get("rt.lock_memory", False),
                           eth_irq_prio=get("rt.eth_irq_prio"),
                           softirq_worker_prio=get("rt.softirq_prio"))
        except ValueError as exc:
            raise ConfigError(str(exc), line=line_of("rt.policy"), key="rt.policy") from exc

    stress = None
    if any(k.startswith("stress.") for k in values):
        try:
            stress = StressSpec(cpu_workers=get("stress.cpu", 0),
                                vm_workers=get("stress.vm", 0),
                                io_workers=get("stress.io", 0),
                                hdd_workers=get("stress.hdd", 0))
        except RttBenchError as exc:
            raise ConfigError(str(exc), line=section_line, key="stress") from exc
        if stress.total() == 0:
            raise ConfigError("stress configured with zero workers",
                              line=section_line, key="stress")

    traffic = None
    if "traffic.rate_mbps" in values:
        if "traffic.dest" not in values:
            raise ConfigError("traffic.rate_mbps requires traffic.dest",
                              line=line_of("traffic.rate_mbps"), key="traffic.dest")
        try:
            traffic = CbrSpec(rate_bps=int(get("traffic.rate_mbps") * 1e6),
                              dest=get("traffic.dest"))
        except ValueError as exc:
            raise ConfigError(str(exc), line=line_of("traffic.rate_mbps"),
                              key="traffic.rate_mbps") from exc
    elif any(k.startswith("traffic.") for k in values):
        raise ConfigError("traffic.* keys present without traffic.rate_mbps",
                          line=section_line, key="traffic.rate_mbps")

    out = get("output_dir")
    return ExperimentConfig(
        id=experiment_id,
        role=role,
        cycle=cycle,
        ping=get("endpoints.ping"),
        pong=get("endpoints.pong"),
        qos=qos,
        warmup_ns=int(get("warmup_s", 5.0) * 1e9),
        rt=rt,
        rt_strict=get("rt.strict", False),
        eth_irq_pattern=get("rt.eth_irq_pattern", rtconfig.DEFAULT_ETH_IRQ_PATTERN),
        softirq_pattern=get("rt.softirq_pattern", rtconfig.DEFAULT_SOFTIRQ_PATTERN),
        stress=stress,
        traffic=traffic,
        control_agent=get("control.agent"),
        max_datagram=get("max_datagram", 1400),
        paper_duration_ns=int(get("cycle.paper_duration_s", 600.0) * 1e9),
        output_dir=Path(out) if out else None,
    )


# --------------------------------------------------------------------------
# Orchestration


class Session:
    """Everything one experiment starts on this host besides the client.

    In order: the strict-RT check and the process-wide RT profile, stress;
    for a role with an echo half (server, both-loopback) the CBR sink when
    traffic is configured, then the echo server; for a client with a
    control agent the agent's session; for a sending role (client,
    both-loopback) the CBR traffic. Each step puts its teardown on one
    ExitStack as it starts; a failed step and `close()` unwind it in
    reverse, the RT profile last. `thread_init` applies the profile to each
    benchmark thread and records its outcome in `rt_report`. A failed STOP
    becomes the line `agent.error`.
    """

    def __init__(self, cfg: ExperimentConfig, *, strict: bool = False, event=None):
        self.cfg = cfg
        self._event = event or (lambda name: None)
        self._lock = threading.Lock()
        self._stack = contextlib.ExitStack()
        self.rt_report: AppliedReport | None = None
        self._sink: CbrSink | None = None
        self._traffic: TrafficHandle | None = None
        self._agent_lines: list[str] = []  # set when the agent's session stops
        self.server_stats: ServerStats | None = None  # set when the echo server stops
        self.thread_init = None if cfg.rt is None else self._thread_init
        try:
            self._start(strict or cfg.rt_strict)
        except BaseException:
            self.close()
            raise

    def _start(self, strict: bool):
        cfg, stack = self.cfg, self._stack
        if cfg.rt is not None:
            if strict and cfg.rt.app_policy is SchedPolicy.FIFO \
                    and not rtconfig.probe().fifo:
                raise RtApplyError("policy", "DENIED", "SCHED_FIFO unavailable")
            self.rt_report = rtconfig.apply(cfg.rt, strict=strict,
                                            eth_irq_pattern=cfg.eth_irq_pattern,
                                            softirq_pattern=cfg.softirq_pattern)
            stack.callback(self.rt_report.undo)
            self._event("rt_applied")
        if cfg.stress is not None:
            stack.callback(self._event, "stress_stopped")
            stack.enter_context(start_stress(cfg.stress))
            self._event("stress_started")
        if cfg.role != "client":
            if cfg.traffic is not None:
                self._sink = stack.enter_context(CbrSink(cfg.traffic.dest))
            server = EchoServer(cfg.ping, cfg.pong, cfg.qos,
                                max_datagram=cfg.max_datagram,
                                thread_init=self.thread_init)
            stack.callback(self._stop_server, server)
        if cfg.role == "client" and cfg.control_agent is not None:
            controller = stack.enter_context(ControlClient(cfg.control_agent))
            controller.hello()
            controller.start(cfg.id)
            stack.callback(self._stop_agent, controller)
        if cfg.role != "server" and cfg.traffic is not None:
            self._traffic = start_cbr(cfg.traffic)
            stack.callback(self._event, "traffic_stopped")
            stack.callback(self._traffic.stop)
            self._event("traffic_started")

    def _thread_init(self, role: str):
        kind = "cycle" if role == "cycle" else "transport"
        result = rtconfig.apply_current_thread(self.cfg.rt, kind)
        with self._lock:
            self.rt_report.settings.setdefault(f"policy:{kind}", result)

    def _stop_server(self, server: EchoServer):
        self.server_stats = server.close()

    def _stop_agent(self, controller: ControlClient):
        try:
            payload = controller.stop().decode("utf-8", "replace")
        except ControlProtocolError as exc:
            self._agent_lines = [f"agent.error = {exc}"]
            return
        self._agent_lines = [f"agent.{line.strip()}" for line in payload.splitlines()
                            if "=" in line]

    def close(self) -> None:
        """Idempotent; everything the session started is gone when this returns."""
        self._stack.close()

    def lines(self) -> list[str]:
        """This host's `rt.*`, `traffic.*`, `sink.*`, `server.*` and `agent.*`
        lines of result.meta; complete once `close()` has returned."""
        lines = []
        if self.rt_report is not None:
            lines += [f"rt.{name} = {res.outcome.value} {res.effective}".rstrip()
                      for name, res in sorted(self.rt_report.settings.items())]
        if self._traffic is not None:
            sent = self._traffic.report()
            lines += [f"traffic.achieved_send_bps = {sent.achieved_bps:.0f}",
                      f"traffic.send_errors = {sent.send_errors}"]
        if self._sink is not None:
            lines += [f"traffic.achieved_sink_bps = {self._sink.achieved_bps():.0f}",
                      f"sink.packets = {self._sink.packets}",
                      f"sink.bytes = {self._sink.bytes}",
                      f"sink.lost = {self._sink.lost()}"]
        if self.server_stats is not None:
            lines += [f"server.echoed = {self.server_stats.echoed}",
                      f"server.malformed = {self.server_stats.malformed}",
                      f"server.send_errors = {self.server_stats.send_errors}"]
        return lines + self._agent_lines


def run(cfg: ExperimentConfig, *, output_dir=None, strict_rt: bool = False,
        stop: threading.Event | None = None) -> RunResult:
    """Run one experiment end to end and persist its result.

    The Session starts this host's share (RT profile, stress, the echo
    side or the control agent's session, traffic), then comes the warm-up
    and measurement, then `session.close()` tears it all down in reverse
    order. A strict-RT failure aborts before anything else starts. The
    server role echoes until `stop` is set or the client's run plus a
    grace period has passed.
    """
    events: list = []

    def ev(name):
        events.append((name, time.monotonic_ns()))

    ev("run_start")
    session = Session(cfg, strict=strict_rt, event=ev)
    client_result = None
    try:
        if cfg.role == "server":
            grace_ns = cfg.warmup_ns + cfg.cycle.duration_ns + 10_000_000_000
            ev("measure_started")
            (stop or threading.Event()).wait(grace_ns / 1e9)
            ev("measure_ended")
        else:
            ev("warmup_started")
            client_result = run_client(
                cfg.cycle, cfg.ping, cfg.pong, cfg.qos,
                warmup_ns=cfg.warmup_ns, max_datagram=cfg.max_datagram,
                thread_init=session.thread_init)
            events.append(("measure_started", client_result.measure_start_ns))
            events.append(("measure_ended", client_result.measure_end_ns))
    finally:
        session.close()

    samples = client_result.samples if client_result else []
    result = RunResult(
        config=cfg,
        stats=compute_stats(samples),
        counters=dataclasses.asdict(client_result.counters) if client_result else {},
        events=events,
        server_stats=session.server_stats,
        host_lines=session.lines(),
        samples=samples,
    )
    out = output_dir or cfg.output_dir
    if out is not None:
        write_result(result, Path(out))
    return result


# --------------------------------------------------------------------------
# Result persistence


def _parse_key_values(text: str) -> dict:
    values = {}
    for raw in text.splitlines():
        if "=" in raw:
            key, _, value = raw.partition("=")
            values[key.strip()] = value.strip()
    return values


def _meta_lines(result: RunResult) -> list[str]:
    cfg = result.config
    stats = result.stats
    fmt = lambda v: "-" if v is None else str(v)
    lines = [
        "schema = rttbench-result-1",
        f"id = {cfg.id}",
        f"role = {cfg.role}",
        f"cycle.period_ms = {cfg.cycle.period_ns / 1e6:g}",
        f"cycle.deadline_ms = {cfg.cycle.deadline_ns / 1e6:g}",
        f"cycle.loss_timeout_ms = {cfg.cycle.loss_timeout_ns / 1e6:g}",
        f"cycle.duration_s = {cfg.cycle.duration_ns / 1e9:g}",
        f"cycle.payload = {cfg.cycle.payload_size}",
        f"warmup_s = {cfg.warmup_ns / 1e9:g}",
        f"qos.depth = {cfg.qos.depth}",
        f"stats.min_us = {fmt(stats.min_us)}",
        f"stats.avg_us = {fmt(stats.avg_us)}",
        f"stats.max_us = {fmt(stats.max_us)}",
        f"stats.p99_us = {fmt(stats.p99_us)}",
        f"stats.p999_us = {fmt(stats.p999_us)}",
        f"stats.missed = {stats.missed}",
        f"stats.lost = {stats.lost}",
        f"stats.total = {stats.total}",
        "stats.histogram = " + ",".join(str(n) for n in stats.histogram),
    ]
    lines += [f"counters.{key} = {value}"
              for key, value in sorted(result.counters.items())]
    lines += result.host_lines
    lines += [f"event.{name} = {t_ns}" for name, t_ns in result.events]
    lines.append(f"timeseries = {TIMESERIES_CSV}")
    return lines


def write_result(result: RunResult, output_dir: Path) -> Path:
    """Persist one run atomically under output_dir/<id>/."""
    output_dir.mkdir(parents=True, exist_ok=True)
    final = output_dir / result.config.id
    tmp = output_dir / f".{result.config.id}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        export_timeseries(result.samples, tmp / TIMESERIES_CSV)
        (tmp / RESULT_META).write_text("\n".join(_meta_lines(result)) + "\n",
                                       encoding="utf-8")
        (tmp / REPORT_MD).write_text(render_report([result]), encoding="utf-8")
        if final.exists():
            shutil.rmtree(final)
        os.replace(tmp, final)
    finally:
        if tmp.exists():
            shutil.rmtree(tmp)
    result.timeseries_path = final / TIMESERIES_CSV
    return final


def load_stored_stats(run_dir: Path) -> tuple[str, LatencyStats]:
    """Reconstruct (id, LatencyStats) from a stored result.meta."""
    values = _parse_key_values((run_dir / RESULT_META).read_text(encoding="utf-8"))
    opt = lambda k: None if values[k] == "-" else int(values[k])
    stats = LatencyStats(
        min_us=opt("stats.min_us"),
        avg_us=opt("stats.avg_us"),
        max_us=opt("stats.max_us"),
        missed=int(values["stats.missed"]),
        lost=int(values["stats.lost"]),
        total=int(values["stats.total"]),
        p99_us=opt("stats.p99_us"),
        p999_us=opt("stats.p999_us"),
        histogram=tuple(int(n) for n in values["stats.histogram"].split(",")),
    )
    return values["id"], stats


def load_results_dir(output_dir: Path) -> list[tuple[str, LatencyStats]]:
    found = []
    for meta in sorted(output_dir.glob(f"*/{RESULT_META}")):
        found.append(load_stored_stats(meta.parent))
    return found


# --------------------------------------------------------------------------
# Report rendering


def format_stats_row(stats: LatencyStats) -> str:
    fmt = lambda v: "-" if v is None else str(v)
    return (f"{fmt(stats.min_us)} | {fmt(stats.avg_us)} | {fmt(stats.max_us)} | "
            f"{stats.missed}/{stats.total} | {stats.lost}/{stats.total}")


def render_report(results) -> str:
    """Render one table per experiment; byte-identical for identical input.

    Accepts RunResult objects or (id, LatencyStats) pairs.
    """
    if not results:
        raise ValueError("render_report needs at least one result")
    parts = ["# Round-trip latency report", ""]
    for item in results:
        if isinstance(item, RunResult):
            experiment_id, stats = item.config.id, item.stats
        else:
            experiment_id, stats = item
        parts += [f"## {experiment_id}", "", REPORT_HEADER, _REPORT_RULE,
                  format_stats_row(stats), ""]
    return "\n".join(parts)


# --------------------------------------------------------------------------
# Control agent (server half of a two-host experiment)


def make_agent(listen: Endpoint, matrix: list[ExperimentConfig]) -> ControlAgent:
    """Serve each experiment's echo side as a role-server Session."""
    by_id = {cfg.id: cfg for cfg in matrix}

    def start_session(experiment_id: str):
        session = Session(dataclasses.replace(by_id[experiment_id], role="server"))

        def stop() -> bytes:
            session.close()
            return ("\n".join(session.lines()) + "\n").encode()
        return stop

    return ControlAgent(listen, start_session)
