"""Real-time profile validation, probing, and application."""

import itertools
import os
import threading

import pytest

from rttbench.errors import RtApplyError
from rttbench.rtconfig import (
    AppliedReport,
    Capabilities,
    Outcome,
    RtProfile,
    SchedPolicy,
    apply,
    apply_current_thread,
    probe,
)

NO_MATCH = r"^no-such-kernel-thread-\d+$"


class TestRtProfile:
    def test_paper_ladder_accepted(self):
        RtProfile(app_policy=SchedPolicy.FIFO, cycle_thread_prio=80,
                  transport_thread_prio=80, lock_memory=True,
                  eth_irq_prio=90, softirq_worker_prio=60)

    def test_fifo_priority_bounds(self):
        with pytest.raises(ValueError):
            RtProfile(app_policy=SchedPolicy.FIFO, cycle_thread_prio=0,
                      transport_thread_prio=10)
        with pytest.raises(ValueError):
            RtProfile(app_policy=SchedPolicy.FIFO, cycle_thread_prio=100,
                      transport_thread_prio=10)

    def test_other_policy_ignores_priorities(self):
        RtProfile(app_policy=SchedPolicy.OTHER)

    def test_ladder_orderings_enumerated(self):
        # exactly the orderings satisfying eth > cycle >= transport > softirq
        # are accepted; every other assignment of these four values fails
        values = (90, 80, 80, 60)
        accepted = 0
        for perm in set(itertools.permutations(values)):
            eth, cycle, transport, softirq = perm
            valid = eth > cycle >= transport > softirq
            try:
                RtProfile(app_policy=SchedPolicy.FIFO,
                          cycle_thread_prio=cycle,
                          transport_thread_prio=transport,
                          eth_irq_prio=eth,
                          softirq_worker_prio=softirq)
                assert valid, perm
                accepted += 1
            except ValueError:
                assert not valid, perm
        assert accepted == 1  # only 90/80/80/60 in ladder order

    def test_partial_ladder_not_checked(self):
        # with softirq unset there is no full ladder to verify
        RtProfile(app_policy=SchedPolicy.FIFO, cycle_thread_prio=10,
                  transport_thread_prio=10, eth_irq_prio=5)


class TestProbe:
    def test_probe_is_idempotent(self):
        assert probe() == probe()

    def test_probe_shape(self):
        caps = probe()
        assert isinstance(caps, Capabilities)
        assert caps.max_fifo_prio >= 1


class TestApply:
    def test_unmatched_kernel_thread_pattern_is_unsupported(self):
        profile = RtProfile(app_policy=SchedPolicy.OTHER, eth_irq_prio=90)
        report = apply(profile, eth_irq_pattern=NO_MATCH)
        assert report.settings["eth_irq"].outcome is Outcome.UNSUPPORTED

    def test_strict_aborts_on_unmet_setting(self):
        profile = RtProfile(app_policy=SchedPolicy.OTHER, eth_irq_prio=90)
        with pytest.raises(RtApplyError):
            apply(profile, strict=True, eth_irq_pattern=NO_MATCH)

    def test_best_effort_proceeds_past_failures(self):
        profile = RtProfile(app_policy=SchedPolicy.OTHER, lock_memory=True,
                            eth_irq_prio=90)
        report = apply(profile, eth_irq_pattern=NO_MATCH)
        assert set(report.settings) == {"lock_memory", "eth_irq"}
        assert report.first_failure() is not None

    def test_every_requested_setting_has_exactly_one_outcome(self):
        profile = RtProfile(app_policy=SchedPolicy.OTHER, lock_memory=True,
                            eth_irq_prio=90, softirq_worker_prio=60)
        report = apply(profile, eth_irq_pattern=NO_MATCH, softirq_pattern=NO_MATCH)
        assert sorted(report.settings) == ["eth_irq", "lock_memory", "softirq"]

    @pytest.mark.skipif(os.geteuid() != 0, reason="memory locking needs privilege")
    def test_memory_lock_applied_with_readback(self):
        report = apply(RtProfile(lock_memory=True))
        report.undo()  # the lock would outlive the test
        result = report.settings["lock_memory"]
        assert result.outcome is Outcome.APPLIED
        assert "VmLck=" in result.effective


class TestApplyCurrentThread:
    def test_other_policy_is_trivially_applied(self):
        result = apply_current_thread(RtProfile(), "cycle")
        assert result.outcome is Outcome.APPLIED

    def test_fifo_on_throwaway_thread(self):
        caps = probe()
        if not caps.fifo:
            pytest.skip("SCHED_FIFO unavailable")
        profile = RtProfile(app_policy=SchedPolicy.FIFO, cycle_thread_prio=5,
                            transport_thread_prio=3)
        results = {}

        def worker(role):
            results[role] = apply_current_thread(profile, role)

        for role in ("cycle", "transport"):
            t = threading.Thread(target=worker, args=(role,))
            t.start()
            t.join()
        assert results["cycle"].outcome is Outcome.APPLIED
        assert results["cycle"].effective == "FIFO:5"
        assert results["transport"].effective == "FIFO:3"
        # the main thread keeps its policy
        assert os.sched_getscheduler(0) == os.SCHED_OTHER


class TestAppliedReport:
    def test_first_failure_and_all_applied(self):
        report = AppliedReport()
        report.record("a", Outcome.APPLIED, "x")
        assert report.first_failure() is None
        report.record("b", Outcome.DENIED, "nope")
        assert report.first_failure()[0] == "b"
