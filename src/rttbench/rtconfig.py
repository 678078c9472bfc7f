"""Real-time execution profile: scheduling, priorities, memory locking.

The profile mirrors the priority ladder that keeps network processing
ahead of deferred kernel work: Ethernet IRQ threads above the application
cycle thread, transport threads at or below the cycle thread, softirq
workers below everything that matters. Kernel threads are located by
name pattern on /proc because thread naming differs across kernels.

Every applied setting is read back from the system; a run is only labeled
real-time from read-back values, never from intent.
"""

import ctypes
import ctypes.util
import os
import re
import resource
import threading
from dataclasses import dataclass, field
from enum import Enum

from .errors import RtApplyError

_MCL_CURRENT = 1
_MCL_FUTURE = 2

#: eth IRQ thread names look like "irq/123-eth0" / "irq/45-enp3s0".
DEFAULT_ETH_IRQ_PATTERN = r"^irq/\d+-(eth|en[ops])"
DEFAULT_SOFTIRQ_PATTERN = r"^ksoftirqd/\d+$"


class SchedPolicy(Enum):
    FIFO = "FIFO"
    OTHER = "OTHER"


class Outcome(Enum):
    APPLIED = "APPLIED"
    DENIED = "DENIED"
    UNSUPPORTED = "UNSUPPORTED"


@dataclass(frozen=True)
class RtProfile:
    app_policy: SchedPolicy = SchedPolicy.OTHER
    cycle_thread_prio: int = 0
    transport_thread_prio: int = 0
    lock_memory: bool = False
    eth_irq_prio: int | None = None
    softirq_worker_prio: int | None = None

    def __post_init__(self):
        if self.app_policy is SchedPolicy.FIFO:
            for name in ("cycle_thread_prio", "transport_thread_prio"):
                prio = getattr(self, name)
                if not 1 <= prio <= 99:
                    raise ValueError(f"FIFO {name} must be in 1..99, got {prio}")
        for name in ("eth_irq_prio", "softirq_worker_prio"):
            prio = getattr(self, name)
            if prio is not None and not 1 <= prio <= 99:
                raise ValueError(f"{name} must be in 1..99, got {prio}")
        if None not in (self.eth_irq_prio, self.softirq_worker_prio) \
                and self.app_policy is SchedPolicy.FIFO:
            # the full ladder: eth irq above the app, softirq workers below
            if not (self.eth_irq_prio > self.cycle_thread_prio
                    >= self.transport_thread_prio > self.softirq_worker_prio):
                raise ValueError(
                    "priority ladder must satisfy eth_irq > cycle >= "
                    f"transport > softirq, got {self.eth_irq_prio}/"
                    f"{self.cycle_thread_prio}/{self.transport_thread_prio}/"
                    f"{self.softirq_worker_prio}")


@dataclass(frozen=True)
class SettingResult:
    outcome: Outcome
    effective: str = ""


@dataclass
class AppliedReport:
    """One outcome per requested setting, with read-back effective values."""

    settings: dict = field(default_factory=dict)

    def record(self, name: str, outcome: Outcome, effective: str = "") -> SettingResult:
        result = SettingResult(outcome, effective)
        self.settings[name] = result
        return result

    def first_failure(self):
        for name, r in self.settings.items():
            if r.outcome is not Outcome.APPLIED:
                return name, r
        return None

    def items(self):
        return self.settings.items()


@dataclass(frozen=True)
class Capabilities:
    fifo: bool
    max_fifo_prio: int
    memlock: bool
    memlock_limit: int  # -1 means unlimited
    kernel_thread_tuning: bool


def _libc():
    name = ctypes.util.find_library("c") or "libc.so.6"
    return ctypes.CDLL(name, use_errno=True)


def _try_fifo_on_throwaway_thread() -> bool:
    """True if this process can switch a thread to SCHED_FIFO right now.

    Runs on a short-lived thread so nothing outlives the check; rlimits
    alone are misleading in containers (root bypasses RLIMIT_RTPRIO, and
    seccomp may deny the syscall regardless of limits).
    """
    outcome = []

    def attempt():
        try:
            os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
            outcome.append(True)
        except OSError:
            outcome.append(False)

    t = threading.Thread(target=attempt, daemon=True)
    t.start()
    t.join(2.0)
    return bool(outcome and outcome[0])


def _kernel_threads(pattern: str) -> list[int]:
    rx = re.compile(pattern)
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/comm") as fh:
                name = fh.read().strip()
        except OSError:
            continue
        if rx.search(name):
            pids.append(int(entry))
    return pids


def probe() -> Capabilities:
    """Read-only capability check; calling it twice gives the same answer."""
    if not hasattr(os, "sched_setscheduler"):
        return Capabilities(False, 0, False, 0, False)
    fifo = _try_fifo_on_throwaway_thread()
    max_prio = os.sched_get_priority_max(os.SCHED_FIFO)
    soft, _ = resource.getrlimit(resource.RLIMIT_MEMLOCK)
    unlimited = soft == resource.RLIM_INFINITY
    memlock = os.geteuid() == 0 or unlimited
    tuning = os.geteuid() == 0 and bool(_kernel_threads(DEFAULT_SOFTIRQ_PATTERN))
    return Capabilities(fifo=fifo, max_fifo_prio=max_prio, memlock=memlock,
                        memlock_limit=-1 if unlimited else soft,
                        kernel_thread_tuning=tuning)


def _vm_locked_kb() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmLck:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return -1


def _apply_memory_lock(report: AppliedReport) -> None:
    try:
        libc = _libc()
    except OSError:
        report.record("lock_memory", Outcome.UNSUPPORTED, "no libc")
        return
    if libc.mlockall(_MCL_CURRENT | _MCL_FUTURE) != 0:
        err = ctypes.get_errno()
        report.record("lock_memory", Outcome.DENIED, os.strerror(err))
        return
    report.record("lock_memory", Outcome.APPLIED, f"VmLck={_vm_locked_kb()}kB")


def _apply_kernel_thread_prio(report: AppliedReport, name: str, pattern: str,
                              prio: int) -> None:
    """Set SCHED_FIFO/prio on every matching kernel thread, transactionally.

    On any failure the threads already changed are restored, so a DENIED
    setting leaves the system as it was.
    """
    pids = _kernel_threads(pattern)
    if not pids:
        report.record(name, Outcome.UNSUPPORTED, f"no threads match {pattern!r}")
        return
    saved = []
    try:
        for pid in pids:
            old_policy = os.sched_getscheduler(pid)
            old_prio = os.sched_getparam(pid).sched_priority
            os.sched_setscheduler(pid, os.SCHED_FIFO, os.sched_param(prio))
            saved.append((pid, old_policy, old_prio))
    except PermissionError as exc:
        _restore(saved)
        report.record(name, Outcome.DENIED, str(exc))
        return
    except OSError as exc:
        _restore(saved)
        report.record(name, Outcome.UNSUPPORTED, str(exc))
        return
    effective = ",".join(
        f"{pid}:{os.sched_getparam(pid).sched_priority}" for pid, _, _ in saved)
    report.record(name, Outcome.APPLIED, effective)


def _restore(saved) -> None:
    for pid, policy, prio in saved:
        try:
            os.sched_setscheduler(pid, policy, os.sched_param(prio))
        except OSError:
            pass


def apply(profile: RtProfile, *, strict: bool = False,
          eth_irq_pattern: str = DEFAULT_ETH_IRQ_PATTERN,
          softirq_pattern: str = DEFAULT_SOFTIRQ_PATTERN) -> AppliedReport:
    """Apply the process-wide parts of the profile and report outcomes.

    Thread priorities are applied by each thread on startup via
    apply_current_thread; memory locking runs here, before the benchmark
    allocates its sample storage. In strict mode the first setting that
    is not APPLIED raises RtApplyError (prior settings stay as applied:
    transactionality is per setting, not per profile).
    """
    report = AppliedReport()
    if profile.lock_memory:
        _apply_memory_lock(report)
        _check_strict(report, strict)
    if profile.eth_irq_prio is not None:
        _apply_kernel_thread_prio(report, "eth_irq", eth_irq_pattern,
                                  profile.eth_irq_prio)
        _check_strict(report, strict)
    if profile.softirq_worker_prio is not None:
        _apply_kernel_thread_prio(report, "softirq", softirq_pattern,
                                  profile.softirq_worker_prio)
        _check_strict(report, strict)
    return report


def _check_strict(report: AppliedReport, strict: bool) -> None:
    if not strict:
        return
    failure = report.first_failure()
    if failure is not None:
        name, result = failure
        raise RtApplyError(name, result.outcome.value, result.effective)


def apply_current_thread(profile: RtProfile, role: str) -> SettingResult:
    """Apply the profile's policy/priority to the calling thread.

    `role` is "cycle" or "transport"; the effective policy and priority
    are read back after the call. With app_policy OTHER nothing changes
    and the read-back documents it.
    """
    if profile.app_policy is SchedPolicy.OTHER:
        return SettingResult(Outcome.APPLIED, _read_back_current())
    prio = profile.cycle_thread_prio if role == "cycle" \
        else profile.transport_thread_prio
    if not hasattr(os, "sched_setscheduler"):
        return SettingResult(Outcome.UNSUPPORTED, "no sched_setscheduler")
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(prio))
    except PermissionError as exc:
        return SettingResult(Outcome.DENIED, str(exc))
    except OSError as exc:
        return SettingResult(Outcome.UNSUPPORTED, str(exc))
    return SettingResult(Outcome.APPLIED, _read_back_current())


def _read_back_current() -> str:
    policy = os.sched_getscheduler(0)
    prio = os.sched_getparam(0).sched_priority
    name = {os.SCHED_FIFO: "FIFO", os.SCHED_OTHER: "OTHER",
            os.SCHED_RR: "RR"}.get(policy, str(policy))
    return f"{name}:{prio}"
