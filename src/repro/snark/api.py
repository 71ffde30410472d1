"""High-level zk-SNARK API: explicit keygen / prove / verify lifecycle.

    from repro.r1cs import Circuit
    from repro.snark import setup, prove, verify, TEST

    circuit = Circuit()
    ...build constraints, allocating public inputs and witnesses...
    r1cs, public, witness = circuit.compile()
    pk, vk = setup(r1cs, preset=TEST)
    bundle = prove(pk, public, witness)
    if not verify(vk, bundle):
        ...  # reject

The three stages are separate objects so a verifier never constructs a
prover: :class:`ProvingKey` is what a proving service holds,
:class:`VerifyingKey` is what a relying party holds, and
:class:`ProofBundle` is the self-contained artifact that travels between
them — it serializes to a versioned envelope
(:meth:`ProofBundle.to_bytes` / :meth:`ProofBundle.from_bytes`, format in
:mod:`repro.snark.envelope`) carrying the preset id, the public inputs,
and the proof payload over the paper's 10 MB/s link.

Throughput comes from :mod:`repro.parallel`: pass ``workers=N`` (or a
long-lived :class:`~repro.parallel.ProverPool`) to :func:`prove` to hash
the commitment's Merkle leaves across processes, or :func:`prove_many` to
run independent proof jobs in parallel.  Proof bytes are bit-identical
at any worker count.

A long-running process serves this API over a socket via
:mod:`repro.service` (``repro serve``), which keeps keys and a warm
worker pool resident across requests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..errors import ProverTimeoutError, ReproError
from ..hashing.transcript import Transcript
from ..obs import JobReport
from ..obs import span as _span
from ..obs.events import FLIGHT as _FLIGHT
from ..obs.metrics import METRICS as _METRICS
from ..parallel.deadline import deadline_scope
from ..r1cs.system import R1CS
from ..spartan.protocol import SpartanProof, SpartanProver, SpartanVerifier
from .params import TEST, SecurityPreset


@dataclass
class ProofBundle:
    """A proof plus the statement metadata it attests to.

    ``preset_name``/``circuit_id`` make the bundle self-describing on the
    wire (see :mod:`repro.snark.envelope`); bundles built by hand for the
    legacy API may leave them empty, in which case :meth:`to_bytes` is
    unavailable and preset binding is skipped at verification.

    ``report`` is local-only telemetry (the flight-recorder
    :class:`~repro.obs.events.JobReport` for the job that produced this
    bundle), populated when :func:`prove` / :func:`prove_many` is called
    with ``attach_report=True``.  It never serializes into the envelope:
    proof bytes stay bit-identical with or without it.
    """

    proof: SpartanProof
    public: np.ndarray
    preset_name: str = ""
    circuit_id: str = ""
    report: Optional[JobReport] = None

    def size_bytes(self) -> int:
        return self.proof.size_bytes() + len(self.public) * 8

    def to_bytes(self) -> bytes:
        """Serialize to the versioned self-describing envelope format."""
        from .envelope import bundle_to_bytes

        return bundle_to_bytes(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProofBundle":
        """Strictly parse an envelope; raises
        :class:`~repro.errors.DeserializationError` on malformed input."""
        from .envelope import bundle_from_bytes

        return bundle_from_bytes(data)


@dataclass(frozen=True)
class ProvingKey:
    """Everything a prover needs for one R1CS instance: the constraint
    system plus the protocol parameters.  Hold one per circuit; it is
    picklable, so :func:`prove_many` can ship it to worker processes."""

    r1cs: R1CS
    preset: SecurityPreset

    def prover(self, rng: Optional[np.random.Generator] = None,
               pool=None) -> SpartanProver:
        """Instantiate the underlying protocol prover (``rng`` feeds the
        zk-mask; ``pool`` fans out Merkle leaf hashing)."""
        return SpartanProver(self.r1cs, self.preset.make_pcs(rng=rng),
                             self.preset.make_spartan_params(), pool=pool)


@dataclass(frozen=True)
class VerifyingKey:
    """Everything a relying party needs: the public constraint system and
    the protocol parameters.  Constructing one never builds a prover."""

    r1cs: R1CS
    preset: SecurityPreset

    def verifier(self) -> SpartanVerifier:
        return SpartanVerifier(self.r1cs, self.preset.make_pcs(),
                               self.preset.make_spartan_params())


def setup(r1cs: R1CS, preset: SecurityPreset = TEST
          ) -> Tuple[ProvingKey, VerifyingKey]:
    """Key generation: bind an R1CS instance to a security preset.

    This scheme is transparent (hash-based, no trusted setup), so "keys"
    carry no secrets — the split exists so the prover and verifier roles
    hold exactly the state they need and nothing more.
    """
    if not isinstance(r1cs, R1CS):
        raise TypeError(f"setup expects an R1CS, got {type(r1cs).__name__} "
                        "(compile circuits first: r1cs, pub, wit = "
                        "circuit.compile())")
    return ProvingKey(r1cs, preset), VerifyingKey(r1cs, preset)


def _dispatch_fields(pool) -> dict:
    """The worker count and dispatch path a pool implies (JobReport
    fields)."""
    if pool is None or pool.is_serial:
        return {"workers": getattr(pool, "workers", 1), "dispatch": "serial"}
    return {"workers": pool.workers, "dispatch": "shm"}


def _observe_phases(tracer, rec0: int, root: str) -> None:
    """Record per-family phase seconds for the spans opened since
    ``rec0`` into the ``phase_seconds`` histogram (one labeled series
    per family).  Slicing by record index keeps multi-prove traces from
    double counting earlier jobs."""
    if tracer is None:
        return
    for fam, secs in tracer.family_seconds(root, start_index=rec0).items():
        _METRICS.observe("phase_seconds", secs, family=fam)


def prove(pk: ProvingKey, public: np.ndarray, witness: np.ndarray, *,
          rng: Optional[np.random.Generator] = None,
          seed: Optional[int] = None,
          pool=None, workers: Optional[int] = None,
          circuit_id: str = "",
          timeout_s: Optional[float] = None,
          attach_report: bool = False) -> ProofBundle:
    """Generate a proof that ``witness`` satisfies ``pk.r1cs`` on ``public``.

    Randomness: the zk-mask draws from ``rng`` (or a generator seeded
    with ``seed``; fresh OS entropy when both are omitted).  Fixing the
    seed makes proof bytes fully deterministic.

    Parallelism: pass a live :class:`~repro.parallel.ProverPool` as
    ``pool``, or ``workers=N`` to use the persistent process-wide pool
    (:func:`repro.parallel.get_pool` — created once, kept warm across
    calls, torn down by :func:`repro.parallel.shutdown` or atexit).
    ``workers<=1`` — the default — is the exact serial path; proof bytes
    are identical either way.

    ``timeout_s`` bounds the call with a cooperative deadline
    (:mod:`repro.parallel.deadline`): once the budget is spent, the next
    phase boundary or dispatch wait raises
    :class:`~repro.errors.ProverTimeoutError`.  Deadlines nest — inside
    an enclosing scope the effective budget is the tighter of the two.

    Telemetry: every call runs as one flight-recorder job
    (:meth:`~repro.obs.events.FlightRecorder.job_scope`) and records one
    :class:`~repro.obs.events.JobReport` (``repro report`` dumps the
    tail) and, when the metrics registry is enabled, one observation each
    into the ``prove_seconds`` and per-family ``phase_seconds``
    histograms.  ``attach_report=True`` additionally hangs the report off
    the returned bundle (:attr:`ProofBundle.report`; local-only, never
    serialized); a failed call's exception carries it as ``exc.report``.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if pool is None and workers is not None and workers > 1:
        from ..parallel import get_pool

        pool = get_pool(workers)
    tracer = obs.get_tracer()
    rec0 = tracer.record_index() if tracer is not None else 0
    with _FLIGHT.job_scope("prove", preset=pk.preset.name,
                           circuit_id=circuit_id,
                           **_dispatch_fields(pool)) as job:
        with deadline_scope(timeout_s, label="prove"):
            prover = pk.prover(rng=rng, pool=pool)
            with _span("snark.prove", "other",
                       constraints=pk.r1cs.shape.num_constraints,
                       repetitions=pk.preset.sumcheck_repetitions,
                       workers=getattr(pool, "workers", 1)):
                proof = prover.prove(public, witness, Transcript())
        _METRICS.observe("prove_seconds", time.perf_counter() - job.t0)
        _observe_phases(tracer, rec0, "snark.prove")
        bundle = ProofBundle(proof=proof,
                             public=np.asarray(public, dtype=np.uint64),
                             preset_name=pk.preset.name,
                             circuit_id=circuit_id)
        job.fields["proof_size_bytes"] = bundle.size_bytes()
    if attach_report:
        bundle.report = job.report
    return bundle


@dataclass
class JobResult:
    """Outcome of one :func:`prove_many` job under ``on_error="return"``.

    Exactly one of ``bundle`` (``ok=True``) and ``error`` (``ok=False``)
    is set; ``error`` is the typed exception the job ended with after
    every recovery path (retry, serial degradation) was exhausted.

    ``report`` is the per-job :class:`~repro.obs.events.JobReport`:
    a failed job carries the one report its ``prove`` recorded, naming
    the error and its incidents; successful jobs carry the batch report
    when the call passed ``attach_report=True``.
    """

    ok: bool
    bundle: Optional[ProofBundle] = None
    error: Optional[BaseException] = None
    report: Optional[JobReport] = None


def prove_many(pk: ProvingKey, jobs: Sequence[Tuple[np.ndarray, np.ndarray]],
               *, workers: Optional[int] = None, pool=None,
               base_seed: Optional[int] = None,
               circuit_id: str = "",
               timeout_s: Optional[float] = None,
               on_error: str = "raise",
               attach_report: bool = False):
    """Prove a batch of independent ``(public, witness)`` jobs.

    Jobs share nothing, so each runs end to end on one worker process
    (serial kernels inside — no nested pools); results return in job
    order.  Each job's zk-mask generator is seeded from a
    ``SeedSequence(base_seed).spawn`` child derived on the calling
    process, so the bundle bytes for a fixed ``base_seed`` are identical
    at any worker count (``workers<=1`` runs the same code inline).
    Workers ship each bundle back in envelope form, which the caller
    re-parses — so every batched proof also round-trips the wire format.

    Keygen is amortized: with workers the batch broadcasts ``pk`` into
    shared memory ONCE (cached across batches on the persistent pool
    from :func:`repro.parallel.get_pool`) and stacks the jobs' public
    inputs and witnesses into two shared arrays, so per-job dispatch
    ships only a few descriptors instead of re-pickling the key.

    Fan-out is skipped when it cannot pay — no pool, one job, or a
    single-core host where CPU-bound jobs would only time-slice
    (``ProverPool.job_fanout_pays``); the batch then runs the identical
    serial path inline.  An *explicit* ``workers`` of 0 or 1 (with no
    ``pool``) short-circuits straight to that serial path without
    touching the process-wide pool at all — no worker spawn, no
    dispatch-cost probe.

    Fault handling: jobs that fail on workers (crash, torn shared
    memory, a poisoned broadcast blob) are retried *serially in this
    process* — the parent holds the pristine ``pk``, so even broadcast
    corruption recovers, and the retried bytes are bit-identical because
    the job's seed is unchanged.  ``timeout_s`` is a per-job cooperative
    budget (:class:`~repro.errors.ProverTimeoutError`; never retried).
    ``on_error`` selects the failure contract: ``"raise"`` (default)
    re-raises the first unrecovered error, all-or-nothing;
    ``"return"`` yields a :class:`JobResult` per job so one poisoned
    statement cannot sink a batch.

    Telemetry: the batch runs as one flight-recorder job
    (``op="prove_many"``) enclosing a ``prove`` job per statement; each
    records one :class:`~repro.obs.events.JobReport`, and the batch
    report counts every incident of its inner jobs, never another
    batch's.  ``attach_report=True`` hangs the batch report off every
    returned bundle.  Under ``on_error="return"`` every *failed* job
    carries its own report via :attr:`JobResult.report`, so partial
    results stay structured.
    """
    if on_error not in ("raise", "return"):
        raise ValueError(f"on_error must be 'raise' or 'return', "
                         f"got {on_error!r}")
    jobs = list(jobs)
    if not jobs:
        return []
    seeds = np.random.SeedSequence(base_seed).spawn(len(jobs))
    pubs = [np.asarray(pub, dtype=np.uint64) for pub, _ in jobs]
    wits = [np.asarray(wit, dtype=np.uint64) for _, wit in jobs]

    def _failed(exc: BaseException) -> JobResult:
        if on_error == "raise":
            raise exc
        return JobResult(ok=False, error=exc,
                         report=getattr(exc, "report", None))

    def _serial_job(j):
        try:
            bundle = prove(pk, pubs[j], wits[j],
                           rng=np.random.default_rng(seeds[j]),
                           circuit_id=circuit_id, timeout_s=timeout_s)
        except Exception as exc:  # noqa: BLE001 - per-job contract
            return _failed(exc)
        # The envelope round trip mirrors the worker path byte for byte.
        return ProofBundle.from_bytes(bundle.to_bytes())

    explicit_serial = (pool is None and workers is not None and workers <= 1)
    if pool is None and not explicit_serial:
        from ..parallel import get_pool

        pool = get_pool(workers)
    if (pool is None or pool.is_serial or len(jobs) == 1
            or not pool.job_fanout_pays):
        pool = None
    with _FLIGHT.job_scope("prove_many", preset=pk.preset.name,
                           circuit_id=circuit_id, jobs=len(jobs),
                           **_dispatch_fields(pool)) as batch:
        with _span("snark.prove_many", "other", jobs=len(jobs),
                   workers=getattr(pool, "workers", 1)):
            if pool is None:
                outcomes = [_serial_job(j) for j in range(len(jobs))]
            else:
                outcomes = _prove_many_pooled(pk, pool, seeds, pubs, wits,
                                              circuit_id, timeout_s,
                                              _serial_job, _failed)
        failures = [out for out in outcomes if isinstance(out, JobResult)]
        if failures:
            batch.fields["error"] = type(failures[0].error).__name__
        batch.fields["proof_size_bytes"] = sum(
            out.size_bytes() for out in outcomes
            if isinstance(out, ProofBundle))
    if on_error == "return":
        outcomes = [out if isinstance(out, JobResult)
                    else JobResult(ok=True, bundle=out) for out in outcomes]
    if attach_report:
        for out in outcomes:
            if isinstance(out, ProofBundle):
                out.report = batch.report
            elif out.ok:
                out.bundle.report = out.report = batch.report
    return outcomes


def _prove_many_pooled(pk, pool, seeds, pubs, wits, circuit_id, timeout_s,
                       _serial_job, _failed):
    """The fan-out body of :func:`prove_many` (split for readability)."""
    from ..parallel import kernels

    arena = pool.arena()
    token, blob_desc = pool.broadcast(pk)
    pub_desc = arena.share_array(np.stack(pubs))
    wit_desc = arena.share_array(np.stack(wits))
    try:
        tasks = [(token, blob_desc, pub_desc, wit_desc, j, seed,
                  circuit_id, timeout_s)
                 for j, seed in enumerate(seeds)]
        blobs = pool.run(kernels.prove_job_shm, tasks,
                         return_exceptions=True)
    finally:
        arena.free(pub_desc)
        arena.free(wit_desc)
    outcomes = []
    for j, blob in enumerate(blobs):
        if not isinstance(blob, BaseException):
            outcomes.append(ProofBundle.from_bytes(blob))
        elif isinstance(blob, ProverTimeoutError):
            # A spent budget is final: no retry can honor it.  The
            # worker's prove recorded the job's report; it travels on
            # the exception.
            outcomes.append(_failed(blob))
        else:
            # Worker-side failure: recover serially in the parent, which
            # holds the pristine pk (immune to broadcast corruption).
            # Drop the cached broadcast first so the *next* batch
            # re-broadcasts a clean blob instead of replaying the damage.
            pool.drop_broadcast(pk)
            pool._degraded("prove_job", blob)
            outcomes.append(_serial_job(j))
    return outcomes


def verify(vk: VerifyingKey, bundle: ProofBundle) -> bool:
    """Check a proof bundle against its public inputs.

    Total over untrusted input: any malformed bundle — wrong types,
    broken structure, a preset id that does not match the key, a typed
    :class:`~repro.errors.ReproError` from a lower layer — is a
    rejection (``False``), never a crash.
    """
    if not isinstance(vk, VerifyingKey) or not isinstance(bundle, ProofBundle):
        return False
    if bundle.preset_name and bundle.preset_name != vk.preset.name:
        return False  # proved under different parameters than this key
    return _verify_parts(vk, bundle.public, bundle.proof)


def _verify_parts(vk: VerifyingKey, public, proof) -> bool:
    """Boolean verification of raw (public, proof) parts."""
    try:
        public = np.asarray(public, dtype=np.uint64)
    except (TypeError, ValueError, OverflowError):
        return False
    t0 = time.perf_counter()
    try:
        with _span("snark.verify", "other"):
            return vk.verifier().verify(public, proof, Transcript())
    except ReproError:
        # Typed rejection from a lower layer: the proof is invalid.
        return False
    finally:
        _METRICS.observe("verify_seconds", time.perf_counter() - t0)


