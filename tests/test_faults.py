"""Tests for the fault-tolerance layer: deterministic fault injection
(:mod:`repro.fuzz.faults`), cooperative deadlines
(:mod:`repro.parallel.deadline`), the supervised dispatch/recovery paths
in :class:`repro.parallel.ProverPool`, the shm janitor, and the
per-job failure contract of :func:`repro.snark.prove_many`.

The invariant under test throughout: an injected fault either leaves the
proof bytes **identical** to the no-fault run (recovered) or surfaces as
a typed :class:`repro.errors.ReproError` — and never leaks a /dev/shm
segment either way.
"""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ProverTimeoutError, ReproError, WorkerCrashError
from repro.fuzz import faults
from repro.parallel import (
    FaultPolicy,
    ProverPool,
    check_deadline,
    deadline_scope,
    shm,
)
from repro.parallel.deadline import active_deadline, remaining
from repro.snark import TEST, JobResult, prove, prove_many, setup, verify
from repro.workloads import synthetic_r1cs

#: Fast supervision for tests: short backoff, short stall watchdog.
QUICK_POLICY = FaultPolicy(max_retries=2, backoff_base_s=0.01,
                           backoff_cap_s=0.1, dispatch_timeout_s=2.0)


@pytest.fixture(scope="module")
def instance():
    return synthetic_r1cs(log_size=10, seed=9)


@pytest.fixture(scope="module")
def keys(instance):
    r1cs, _, _ = instance
    return setup(r1cs, TEST)


def _repro_segments():
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith("repro"))
    except FileNotFoundError:
        return []


class TestFaultPlan:
    def test_env_round_trip(self):
        plan = faults.FaultPlan(kind="stall", site="hash_columns", hits=3,
                                stall_s=1.5, token="t42")
        clone = faults.FaultPlan.from_env(plan.to_env())
        assert clone == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.FaultPlan(kind="meteor_strike", site="hash_columns")

    def test_hits_must_be_positive(self):
        with pytest.raises(ValueError, match="hits"):
            faults.FaultPlan(kind="error", site="hash_columns", hits=0)

    def test_injected_scope_arms_and_disarms(self):
        plan = faults.FaultPlan(kind="error", site="nowhere", token="scope")
        assert faults.FAULTS_ENV not in os.environ
        with faults.injected(plan):
            assert os.environ[faults.FAULTS_ENV] == plan.to_env()
        assert faults.FAULTS_ENV not in os.environ
        assert not os.path.exists(plan.claim_path)

    def test_error_fires_exactly_once(self):
        plan = faults.FaultPlan(kind="error", site="unit", token="once")
        with faults.injected(plan):
            with pytest.raises(RuntimeError, match="injected fault"):
                faults.maybe_fault("unit")
            # claim file arbitrates: the plan never fires twice
            for _ in range(5):
                faults.maybe_fault("unit")

    def test_hits_counts_arrivals(self):
        plan = faults.FaultPlan(kind="error", site="unit", hits=3,
                                token="third")
        with faults.injected(plan):
            faults.maybe_fault("unit")
            faults.maybe_fault("unit")
            with pytest.raises(RuntimeError):
                faults.maybe_fault("unit")

    def test_other_sites_untouched(self):
        plan = faults.FaultPlan(kind="error", site="unit", token="site")
        with faults.injected(plan):
            for _ in range(3):
                faults.maybe_fault("some_other_site")
            assert not os.path.exists(plan.claim_path)

    def test_no_plan_is_a_noop(self):
        faults.maybe_fault("anything")  # must not raise

    def test_segment_kinds_need_a_descriptor(self):
        plan = faults.FaultPlan(kind="shm_unlink", site="unit",
                                token="nodesc")
        with faults.injected(plan):
            faults.maybe_fault("unit", desc=None)  # no victim: no-op
            assert not os.path.exists(plan.claim_path)


class TestDeadline:
    def test_no_scope_is_unbounded(self):
        assert active_deadline() is None
        assert remaining() is None
        check_deadline("anywhere")  # no-op

    def test_expired_scope_raises_typed(self):
        with deadline_scope(0.0, label="unit test"):
            with pytest.raises(ProverTimeoutError) as ei:
                check_deadline("phase.x")
        err = ei.value
        assert isinstance(err, ReproError)
        assert isinstance(err, TimeoutError)
        assert err.budget_s == 0.0
        assert err.phase == "phase.x"
        assert "unit test" in str(err)

    def test_generous_scope_passes(self):
        with deadline_scope(60.0) as d:
            check_deadline("phase.y")
            assert 0 < remaining() <= 60.0
            assert not d.expired

    def test_none_budget_is_noop_scope(self):
        with deadline_scope(None):
            assert active_deadline() is None

    def test_nested_scope_clamps_to_outer(self):
        with deadline_scope(0.0):
            with deadline_scope(1000.0) as inner:
                # the inner "budget" cannot extend the spent outer one
                assert inner.expired
                with pytest.raises(ProverTimeoutError):
                    check_deadline()

    def test_scope_restores_previous_on_error(self):
        with deadline_scope(60.0) as outer:
            try:
                with deadline_scope(30.0):
                    raise RuntimeError("boom")
            except RuntimeError:
                pass
            assert active_deadline() is outer
        assert active_deadline() is None


def _run_threads(*targets, timeout_s: float = 10.0) -> None:
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout_s)
        assert not t.is_alive(), "deadline thread did not finish"


class TestConcurrentDeadlines:
    """Deadlines of jobs running on different threads (``repro serve
    --job-slots N``) must neither cancel nor clamp one another."""

    def test_scope_exit_keeps_other_jobs_deadline(self):
        # Job A opens a long scope; job B opens a 0.05 s scope; A leaves
        # its scope while B is still running.  B must still time out.
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def job_a():
            with deadline_scope(60.0):
                a_in.set()
                b_in.wait(5)
            a_out.set()

        def job_b():
            a_in.wait(5)
            with deadline_scope(0.05):
                b_in.set()
                a_out.wait(5)
                time.sleep(0.1)
                try:
                    check_deadline("job b")
                except ProverTimeoutError as exc:
                    seen["b"] = exc

        _run_threads(job_a, job_b)
        assert isinstance(seen.get("b"), ProverTimeoutError)

    def test_new_job_not_clamped_to_other_jobs_expiry(self):
        # Job A's scope is already spent when job B starts; B's own
        # 60 s budget must stand.
        a_in, b_done = threading.Event(), threading.Event()
        seen = {}

        def job_a():
            with deadline_scope(0.0):
                a_in.set()
                b_done.wait(5)

        def job_b():
            a_in.wait(5)
            with deadline_scope(60.0) as d:
                seen["remaining"] = remaining()
                seen["expired"] = d.expired
                check_deadline("job b")
                seen["passed"] = True
            b_done.set()

        _run_threads(job_a, job_b)
        assert seen == {"remaining": pytest.approx(60.0, abs=5.0),
                        "expired": False, "passed": True}


class TestProveTimeout:
    def test_prove_timeout_raises_typed(self, instance, keys):
        _, public, witness = instance
        pk, _ = keys
        with pytest.raises(ProverTimeoutError) as ei:
            prove(pk, public, witness, seed=1, timeout_s=1e-6)
        assert ei.value.budget_s == 1e-6
        assert ei.value.phase  # names the phase boundary that tripped
        assert active_deadline() is None  # scope unwound

    def test_prove_many_timeout_on_error_return(self, instance, keys):
        _, public, witness = instance
        pk, _ = keys
        results = prove_many(pk, [(public, witness)] * 2, workers=1,
                             base_seed=5, timeout_s=1e-6,
                             on_error="return")
        assert all(isinstance(r, JobResult) and not r.ok for r in results)
        assert all(isinstance(r.error, ProverTimeoutError) for r in results)

    def test_prove_many_timeout_on_error_raise(self, instance, keys):
        _, public, witness = instance
        pk, _ = keys
        with pytest.raises(ProverTimeoutError):
            prove_many(pk, [(public, witness)], workers=1,
                       base_seed=5, timeout_s=1e-6)

    def test_on_error_validated(self, instance, keys):
        _, public, witness = instance
        pk, _ = keys
        with pytest.raises(ValueError, match="on_error"):
            prove_many(pk, [(public, witness)], workers=1,
                       on_error="explode")


class TestSupervisedRecovery:
    """Injected faults against a live pool: bytes must stay identical."""

    def test_injected_error_is_retried(self, instance, keys):
        r1cs, public, witness = instance
        pk, vk = keys
        reference = prove(pk, public, witness, seed=44).to_bytes()
        before = _repro_segments()
        plan = faults.FaultPlan(kind="error", site="hash_columns",
                                token="t_retry")
        with faults.injected(plan):
            with ProverPool(workers=2, auto_chunk=False,
                            fault_policy=QUICK_POLICY) as p:
                bundle = prove(pk, public, witness, seed=44, pool=p)
            assert os.path.exists(plan.claim_path), "fault never fired"
        assert bundle.to_bytes() == reference
        assert verify(vk, bundle)
        assert _repro_segments() == before

    def test_shm_unlink_degrades_to_serial(self, instance, keys):
        r1cs, public, witness = instance
        pk, vk = keys
        reference = prove(pk, public, witness, seed=45).to_bytes()
        before = _repro_segments()
        plan = faults.FaultPlan(kind="shm_unlink", site="hash_columns",
                                token="t_unlink")
        with faults.injected(plan):
            with ProverPool(workers=2, auto_chunk=False,
                            fault_policy=QUICK_POLICY) as p:
                bundle = prove(pk, public, witness, seed=45, pool=p)
            fired = os.path.exists(plan.claim_path)
        if fired:  # non-Linux: segment kinds cannot fire
            assert bundle.to_bytes() == reference
        assert verify(vk, bundle)
        assert _repro_segments() == before

    def test_unrecoverable_corruption_raises_workercrash(self):
        """At the pool layer (no serial fallback above it), shm damage
        surfaces as a typed WorkerCrashError after zero retries."""
        import pickle

        with ProverPool(workers=2, auto_chunk=False,
                        fault_policy=QUICK_POLICY) as p:

            with pytest.raises(WorkerCrashError) as ei:
                p.run(_boom_shm, [(0, 4), (4, 8)])
            assert isinstance(ei.value.__cause__, (shm.ShmError,
                                                   pickle.PickleError))
            assert ei.value.retries == 0  # fail-fast: no pointless retry


def _boom_shm(lo, hi):
    """Module-level so it pickles into workers; always tears."""
    raise shm.ShmError(f"synthetic torn segment [{lo}:{hi})")


class TestJanitor:
    def _dead_pid(self):
        """A pid guaranteed dead: a subprocess we already reaped."""
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        return proc.pid

    def test_segment_owner_pid_parses_our_names(self):
        assert shm.segment_owner_pid("repro_12345_0") == 12345
        assert shm.segment_owner_pid("repro_sigterm_99_7") == 99
        assert shm.segment_owner_pid("psm_abcdef") is None
        assert shm.segment_owner_pid("some_other_tool_1_2") is None

    def test_scan_and_reclaim_orphan(self, tmp_path):
        dead = self._dead_pid()
        fake_dir = tmp_path / "shm"
        fake_dir.mkdir()
        orphan = f"repro_{dead}_0"
        live = f"repro_{os.getpid()}_0"
        foreign = "definitely_not_ours"
        for name in (orphan, live, foreign):
            (fake_dir / name).write_bytes(b"\x00" * 16)
        assert shm.scan_orphans(str(fake_dir)) == [orphan]
        assert shm.reclaim_orphans(str(fake_dir)) == [orphan]
        assert sorted(os.listdir(fake_dir)) == sorted([live, foreign])
        # second pass: nothing left to reclaim
        assert shm.reclaim_orphans(str(fake_dir)) == []

    def test_missing_dir_is_empty(self):
        assert shm.scan_orphans("/no/such/dir") == []
        assert shm.reclaim_orphans("/no/such/dir") == []

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="needs a real /dev/shm")
    def test_pool_startup_sweeps_orphans(self, keys, instance):
        dead = self._dead_pid()
        orphan = os.path.join("/dev/shm", f"repro_{dead}_0")
        with open(orphan, "wb") as fh:
            fh.write(b"\x00" * 16)
        try:
            with ProverPool(workers=2, auto_chunk=False) as p:
                p.warm()
                assert not os.path.exists(orphan), \
                    "pool startup left the orphan behind"
        finally:
            if os.path.exists(orphan):
                os.unlink(orphan)

    def test_doctor_cli_reclaims(self, tmp_path):
        from repro.cli import main

        rc = main(["doctor"])
        assert rc == 0


class TestProveManyPartialFailure:
    def test_success_returns_ok_jobresults(self, instance, keys):
        _, public, witness = instance
        pk, vk = keys
        reference = [b.to_bytes() for b in
                     prove_many(pk, [(public, witness)] * 2, workers=1,
                                base_seed=17)]
        results = prove_many(pk, [(public, witness)] * 2, workers=1,
                             base_seed=17, on_error="return")
        assert all(isinstance(r, JobResult) and r.ok and r.error is None
                   for r in results)
        assert [r.bundle.to_bytes() for r in results] == reference
        assert all(verify(vk, r.bundle) for r in results)

    def test_workers_zero_short_circuits_global_pool(self, instance, keys):
        """workers=0 must run inline without probing dispatch cost or
        warming the process-wide pool (regression: the old path built a
        pool just to discover it would not use it)."""
        from repro.parallel import pool as pool_mod
        from repro.parallel import shutdown

        shutdown()
        _, public, witness = instance
        pk, _ = keys
        for w in (0, 1):
            bundles = prove_many(pk, [(public, witness)], workers=w,
                                 base_seed=3)
            assert len(bundles) == 1
            assert pool_mod._GLOBAL_POOL is None, \
                f"workers={w} spun up the global pool"

    def test_parallel_poisoned_broadcast_recovers(self, instance, keys):
        """Poisoning the broadcast pk blob mid-batch must not change a
        single proof byte: the parent retries serially with its pristine
        key and evicts the damaged blob."""
        _, public, witness = instance
        pk, vk = keys
        jobs = [(public, witness)] * 3
        reference = [b.to_bytes() for b in
                     prove_many(pk, jobs, workers=1, base_seed=29)]
        before = _repro_segments()
        plan = faults.FaultPlan(kind="poison_pickle", site="broadcast",
                                token="t_poison")
        with faults.injected(plan):
            with ProverPool(workers=2, auto_chunk=False,
                            fault_policy=QUICK_POLICY) as p:
                bundles = prove_many(pk, jobs, pool=p, base_seed=29)
            assert os.path.exists(plan.claim_path), "fault never fired"
        assert [b.to_bytes() for b in bundles] == reference
        assert all(verify(vk, b) for b in bundles)
        assert _repro_segments() == before
