"""Tests for the parallel proving engine (:mod:`repro.parallel`).

The load-bearing property is the determinism contract: every pooled
kernel and the batch prover must produce bytes **identical** to the
serial path at any worker count.  Worker counts are kept small (2) so the
suite stays fast on small CI machines; the contract is count-independent
by construction (pure chunks, submission-order assembly).
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.hashing import fieldhash
from repro.hashing.merkle import MerkleTree
from repro.parallel import ProverPool, shm
from repro.snark import TEST, prove, prove_many, setup, verify
from repro.workloads import synthetic_r1cs


@pytest.fixture(scope="module")
def instance():
    return synthetic_r1cs(log_size=10, seed=9)


@pytest.fixture(scope="module")
def pool():
    # auto_chunk off: these tests exercise the fan-out machinery itself,
    # so the break-even model must not inline the (deliberately tiny)
    # workloads.
    with ProverPool(workers=2, auto_chunk=False) as p:
        yield p


def _repro_segments():
    """Names of live repro-owned segments in /dev/shm (Linux)."""
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith("repro"))
    except FileNotFoundError:  # non-Linux: rely on arena bookkeeping
        return []


class TestChunking:
    def test_ranges_cover_exactly(self):
        pool = ProverPool(workers=4)
        for n in (1, 3, 7, 64, 1000):
            ranges = pool.chunk_ranges(n)
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo

    def test_min_per_chunk_limits_fanout(self):
        pool = ProverPool(workers=8)
        assert len(pool.chunk_ranges(10, min_per_chunk=5)) == 2
        assert len(pool.chunk_ranges(4, min_per_chunk=8)) == 1

    def test_empty(self):
        assert ProverPool(workers=4).chunk_ranges(0) == []


class TestSerialFallback:
    def test_serial_pool_never_spawns(self):
        pool = ProverPool(workers=1)
        assert pool.is_serial
        assert pool.run(lambda a, b: a + b, [(1, 2), (3, 4)]) == [3, 7]
        assert pool._executor is None

    def test_workers_default_is_cpu_count(self):
        import os

        assert ProverPool().workers == (os.cpu_count() or 1)


class TestKernelEquivalence:
    def test_hash_columns_matches_serial(self, pool):
        rng = np.random.default_rng(6)
        matrix = rng.integers(0, 1 << 32, size=(4, 400), dtype=np.uint64)
        assert pool.hash_columns(matrix) == fieldhash.hash_columns(matrix)

    def test_merkle_tree_matches_serial(self, pool):
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 1 << 32, size=(4, 256), dtype=np.uint64)
        assert (MerkleTree.from_columns(matrix, pool=pool).root
                == MerkleTree.from_columns(matrix).root)


class TestProofDeterminism:
    def test_pooled_prove_bytes_identical(self, instance, pool):
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        serial = prove(pk, public, witness, seed=21)
        pooled = prove(pk, public, witness, seed=21, pool=pool)
        assert pooled.to_bytes() == serial.to_bytes()
        assert verify(vk, pooled)

    def test_prove_many_worker_count_invariant(self, instance, pool):
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        jobs = [(public, witness)] * 3
        ser = prove_many(pk, jobs, workers=1, base_seed=33, circuit_id="syn")
        par = prove_many(pk, jobs, pool=pool, base_seed=33, circuit_id="syn")
        assert [b.to_bytes() for b in ser] == [b.to_bytes() for b in par]
        assert all(verify(vk, b) for b in par)
        assert all(b.circuit_id == "syn" for b in par)

    def test_prove_many_jobs_get_distinct_masks(self, instance):
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        a, b = prove_many(pk, [(public, witness)] * 2, workers=1, base_seed=1)
        assert a.proof.witness_commitment.root != b.proof.witness_commitment.root

    def test_prove_many_empty(self, instance):
        r1cs, _, _ = instance
        pk, _ = setup(r1cs, TEST)
        assert prove_many(pk, [], workers=2) == []


class TestWorkerTraceMerge:
    def test_worker_spans_and_counters_merge(self, instance, pool):
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        with obs.tracing() as tracer:
            prove(pk, public, witness, seed=2, pool=pool)
        workers = tracer.worker_records()
        assert workers, "pooled prove produced no worker records"
        for records in workers.values():
            assert all(rec.name.startswith("worker.") for rec in records)
            assert all(rec.wall_s >= 0 for rec in records)
        # NTT butterflies run inside the workers; their counter deltas
        # must land in the parent registry.
        counters = tracer.metrics_snapshot.get("counters", {})
        assert counters.get("ntt.butterflies", 0) > 0

    def test_workers_render_as_extra_pids(self, instance, pool):
        from repro.obs.export import WORKER_PID_BASE, chrome_trace

        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        with obs.tracing() as tracer:
            prove(pk, public, witness, seed=2, pool=pool)
        doc = chrome_trace(tracer.records(),
                           worker_records=tracer.worker_records())
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert any(p >= WORKER_PID_BASE for p in pids)

    def test_untraced_pooled_run_merges_nothing(self, instance, pool):
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        bundle = prove(pk, public, witness, seed=2, pool=pool)
        assert verify(vk, bundle)  # no tracer active: plain results only


class TestShmRoundTrip:
    """Property tests for the shared-memory substrate itself."""

    def test_share_array_round_trip(self):
        rng = np.random.default_rng(11)
        with shm.ShmArena() as arena:
            for shape, dtype in [((7,), "uint64"), ((3, 5), "uint64"),
                                 ((2, 3, 4), "uint8"), ((1,), "int64")]:
                arr = rng.integers(0, 100, size=shape).astype(dtype)
                desc = arena.share_array(arr)
                assert desc.shape == tuple(shape)
                assert desc.dtype == str(np.dtype(dtype))
                assert desc.nbytes == arr.nbytes
                with shm.attached(desc) as view:
                    assert view.shape == arr.shape
                    assert view.dtype == arr.dtype
                    assert np.array_equal(view, arr)
                assert np.array_equal(arena.view(desc), arr)

    def test_worker_writes_are_visible_to_parent(self):
        with shm.ShmArena() as arena:
            desc = arena.alloc_array((4, 4), "uint64")
            with shm.attached(desc) as view:
                view[...] = np.arange(16, dtype=np.uint64).reshape(4, 4)
            assert np.array_equal(
                arena.view(desc),
                np.arange(16, dtype=np.uint64).reshape(4, 4))

    def test_blob_and_pickle_round_trip(self):
        payload = {"key": np.arange(5, dtype=np.uint64), "n": 42}
        with shm.ShmArena() as arena:
            bdesc = arena.share_blob(b"hello shm")
            assert shm.read_blob(bdesc) == b"hello shm"
            pdesc = arena.share_pickle(payload)
            loaded = shm.read_pickle(pdesc)
            assert loaded["n"] == 42
            assert np.array_equal(loaded["key"], payload["key"])

    def test_torn_down_segment_raises_shmerror(self):
        arena = shm.ShmArena()
        desc = arena.share_array(np.ones(8, dtype=np.uint64))
        arena.free(desc)
        with pytest.raises(shm.ShmError):
            with shm.attached(desc):
                pass
        arena.close()
        with pytest.raises(shm.ShmError):
            shm.read_blob(shm.BlobDesc(desc.name, 8))

    def test_close_unlinks_everything_and_is_idempotent(self):
        before = _repro_segments()
        arena = shm.ShmArena()
        descs = [arena.share_array(np.zeros(16, dtype=np.uint64))
                 for _ in range(3)]
        assert arena.bytes_in_use == 3 * 16 * 8
        arena.close()
        arena.close()
        assert arena.closed and arena.bytes_in_use == 0
        assert _repro_segments() == before
        for d in descs:
            with pytest.raises(shm.ShmError):
                with shm.attached(d):
                    pass

    def test_free_twice_is_noop(self):
        arena = shm.ShmArena()
        desc = arena.share_array(np.ones(8, dtype=np.uint64))
        arena.free(desc)
        arena.free(desc)  # second free must be a silent no-op
        assert arena.bytes_in_use == 0
        arena.close()

    def test_reentrant_close_releases_each_segment_once(self, monkeypatch):
        """Regression: a SIGTERM cleanup chain firing while close() is
        mid-loop must not skip segments or release one twice.  We model
        the reentry by having the first release call close() again."""
        before = _repro_segments()
        arena = shm.ShmArena()
        for _ in range(4):
            arena.share_array(np.zeros(8, dtype=np.uint64))
        released = []
        original = shm.ShmArena._release

        def reentrant(seg):
            released.append(seg.name)
            if len(released) == 1:  # the interrupting cleanup chain
                arena.close()
            original(seg)

        monkeypatch.setattr(shm.ShmArena, "_release",
                            staticmethod(reentrant))
        arena.close()
        assert arena.closed
        assert len(released) == 4
        assert len(set(released)) == 4, "a segment was released twice"
        assert _repro_segments() == before

    def test_pool_close_twice_and_shutdown_twice(self):
        from repro.parallel import get_pool, shutdown

        with ProverPool(workers=2, auto_chunk=False) as p:
            p.warm()
            p.close()  # __exit__ will close again: must be idempotent
        p.close()
        assert get_pool(2) is not None
        shutdown()
        shutdown()  # second process-wide teardown is a no-op

    def test_exception_inside_context_still_cleans_up(self):
        before = _repro_segments()
        with pytest.raises(RuntimeError, match="boom"):
            with shm.ShmArena() as arena:
                arena.share_array(np.zeros(64, dtype=np.uint64))
                raise RuntimeError("boom")
        assert _repro_segments() == before

    def test_sigterm_unlinks_segments(self, tmp_path):
        """A SIGTERM'd prover process must leave /dev/shm clean."""
        import signal
        import subprocess
        import sys
        import time

        script = tmp_path / "victim.py"
        script.write_text(
            "import sys, time, numpy as np\n"
            "from repro.parallel import shm\n"
            "arena = shm.ShmArena(prefix='repro_sigterm')\n"
            "desc = arena.share_array(np.zeros(1024, dtype=np.uint64))\n"
            "print(desc.name, flush=True)\n"
            "time.sleep(30)\n")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [os.path.join(os.getcwd(), "src"),
                                     os.environ.get("PYTHONPATH", "")])))
        proc = subprocess.Popen([sys.executable, str(script)],
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            name = proc.stdout.readline().strip()
            assert name, "victim never created its segment"
            assert os.path.exists(f"/dev/shm/{name}")
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5
            while os.path.exists(f"/dev/shm/{name}"):
                assert time.monotonic() < deadline, \
                    f"segment {name} leaked after SIGTERM"
                time.sleep(0.05)
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_no_leaks_after_pooled_prove(self, instance):
        before = _repro_segments()
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        with ProverPool(workers=2, auto_chunk=False) as p:
            bundle = prove(pk, public, witness, seed=4, pool=p)
        assert verify(vk, bundle)
        assert _repro_segments() == before


class TestAutoChunk:
    def _calibrated(self, workers=4, dispatch_cost=1e-3):
        pool = ProverPool(workers=workers)
        pool._dispatch_cost_s = dispatch_cost  # skip the live probe
        return pool

    def test_below_break_even_stays_serial(self):
        pool = self._calibrated()
        # 10 items at 10 us each cannot fund two 4 ms chunks.
        assert pool.auto_chunk_ranges(10, 1e-5) is None

    def test_chunk_count_monotone_in_n(self):
        pool = self._calibrated()
        counts = []
        for n in (10, 100, 1_000, 10_000, 100_000, 1_000_000):
            ranges = pool.auto_chunk_ranges(n, 1e-5)
            counts.append(len(ranges) if ranges is not None else 1)
        assert counts == sorted(counts), counts
        assert counts[0] == 1 and counts[-1] == pool.workers

    def test_chunk_count_monotone_in_item_cost(self):
        pool = self._calibrated()
        counts = []
        for cost in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
            ranges = pool.auto_chunk_ranges(10_000, cost)
            counts.append(len(ranges) if ranges is not None else 1)
        assert counts == sorted(counts), counts

    def test_auto_chunk_off_always_fans_out(self):
        pool = ProverPool(workers=4, auto_chunk=False)
        ranges = pool.auto_chunk_ranges(8, 1e-9)
        assert ranges is not None and len(ranges) > 1

    def test_job_fanout_policy(self):
        # Serial pools never fan out jobs; auto_chunk=False always does;
        # with the cost model on, job fan-out needs real cores (the
        # CPU-bound jobs would only time-slice a single one).
        assert not ProverPool(workers=1).job_fanout_pays
        assert ProverPool(workers=2, auto_chunk=False).job_fanout_pays
        expected = (os.cpu_count() or 1) >= 2
        assert ProverPool(workers=2).job_fanout_pays is expected

    def test_ranges_still_cover_exactly(self):
        pool = self._calibrated()
        ranges = pool.auto_chunk_ranges(100_000, 1e-5, min_per_chunk=7)
        assert ranges[0][0] == 0 and ranges[-1][1] == 100_000
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo


class TestWorkerCountInvariance:
    """Proof bytes must be identical at workers in {0, 1, 2, 4}."""

    def test_prove_bytes_identical_across_worker_counts(self, instance):
        r1cs, public, witness = instance
        pk, vk = setup(r1cs, TEST)
        reference = prove(pk, public, witness, seed=77).to_bytes()
        for w in (0, 1):
            assert prove(pk, public, witness, seed=77,
                         workers=w).to_bytes() == reference
        for w in (2, 4):
            with ProverPool(workers=w, auto_chunk=False) as p:
                assert prove(pk, public, witness, seed=77,
                             pool=p).to_bytes() == reference
        assert verify(vk, prove(pk, public, witness, seed=77))

    def test_prove_many_bytes_identical_across_worker_counts(self, instance):
        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        jobs = [(public, witness)] * 2
        reference = [b.to_bytes()
                     for b in prove_many(pk, jobs, workers=0, base_seed=13)]
        for w in (1,):
            assert [b.to_bytes() for b in
                    prove_many(pk, jobs, workers=w, base_seed=13)] == reference
        for w in (2, 4):
            with ProverPool(workers=w, auto_chunk=False) as p:
                assert [b.to_bytes() for b in
                        prove_many(pk, jobs, pool=p,
                                   base_seed=13)] == reference


class TestPersistentPool:
    def test_get_pool_reuses_and_shutdown_clears(self):
        from repro.parallel import get_pool, shutdown

        assert get_pool(1) is None
        a = get_pool(2)
        try:
            assert a is not None and a.workers == 2
            assert get_pool(2) is a  # same warm pool
            b = get_pool(3)
            assert b is not a and b.workers == 3
        finally:
            shutdown()
        from repro.parallel import pool as pool_mod

        assert pool_mod._GLOBAL_POOL is None

    def test_broadcast_is_cached_per_object(self):
        payload = {"weights": np.arange(64, dtype=np.uint64)}
        with ProverPool(workers=2) as p:
            t1, d1 = p.broadcast(payload)
            t2, d2 = p.broadcast(payload)
            assert t1 == t2 and d1 == d2
            other = {"weights": np.arange(64, dtype=np.uint64)}
            t3, _ = p.broadcast(other)
            assert t3 != t1

    def test_dispatch_probe_sets_cost(self):
        with ProverPool(workers=2) as p:
            p.warm()
            assert p._dispatch_cost_s is not None
            assert 0 < p.dispatch_cost_s < 1.0
            assert p.warm_s is not None and p.warm_s > 0

    def test_proving_key_pickle_drops_caches(self, instance):
        import pickle

        r1cs, public, witness = instance
        pk, _ = setup(r1cs, TEST)
        r1cs.products(r1cs.assemble_z(public, witness))  # populate caches
        assert r1cs._stacked_cache is not None
        clone = pickle.loads(pickle.dumps(pk))
        assert clone.r1cs._stacked_cache is None
        assert clone.r1cs.a._groups is None
        # the clone still proves correctly
        z = clone.r1cs.assemble_z(public, witness)
        assert clone.r1cs.is_satisfied(z)
