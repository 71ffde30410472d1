"""Worker-side entry points for :class:`~repro.parallel.pool.ProverPool`.

Every function here is a module-level callable (so it pickles by
reference) whose operands arrive as shared-memory descriptors
(:mod:`repro.parallel.shm`) rather than pickled data:

* :func:`hash_columns_chunk_shm` — Merkle leaf hashing for a column
  slice, written into a shared digest buffer,
* :func:`prove_job_shm` — one complete independent proof (the
  :func:`repro.snark.api.prove_many` batch path),
* :func:`probe_noop` — the dispatch-cost probe body.

Chunks are pure functions of their arguments, so assembling their results
in submission order is bit-identical to the serial computation at any
worker count.  Each kernel opens an observability span; when the parent
process is tracing, the pool runs the chunk under a worker-local tracer
and merges the resulting spans and counters back into the main
:class:`~repro.obs.tracer.Tracer` (the worker appears as an extra pid in
the exported Chrome trace).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

import os as _os

from .. import obs
from ..hashing.fieldhash import DIGEST_BYTES, hash_columns
from . import shm


def _maybe_fault(site: str, desc=None) -> None:
    """Chaos-harness injection point (see :mod:`repro.fuzz.faults`).

    Deliberately one env-dict lookup on the no-fault path: the faults
    module is only imported once a plan is actually armed, so production
    kernels pay nothing.
    """
    if "REPRO_FAULTS" not in _os.environ:
        return
    from ..fuzz import faults

    faults.maybe_fault(site, desc=desc)


def probe_noop() -> int:
    """Dispatch-cost probe body: measures pure round-trip overhead."""
    return 0


def hash_columns_chunk_shm(in_desc, out_desc, lo: int, hi: int) -> None:
    """Merkle leaf digests for columns ``lo:hi``, written into the shared
    ``(cols, 32)`` uint8 digest buffer."""
    _maybe_fault("hash_columns", desc=in_desc)
    with obs.span("worker.merkle_leaves", "merkle", cols=hi - lo):
        with shm.attached(in_desc) as matrix, shm.attached(out_desc) as out:
            digests = hash_columns(np.ascontiguousarray(matrix[:, lo:hi]))
            out[lo:hi] = np.frombuffer(b"".join(digests),
                                       dtype=np.uint8).reshape(hi - lo,
                                                               DIGEST_BYTES)


#: Worker-resident proving keys, keyed by broadcast token.  A key is
#: unpickled from its shared blob ONCE per worker and reused for every
#: job of every batch that broadcasts the same key (amortized keygen).
_PK_CACHE: "OrderedDict[str, object]" = OrderedDict()
_PK_CACHE_MAX = 4


def _cached_pk(token: str, blob_desc):
    pk = _PK_CACHE.get(token)
    if pk is None:
        pk = shm.read_pickle(blob_desc)
        _PK_CACHE[token] = pk
        while len(_PK_CACHE) > _PK_CACHE_MAX:
            _PK_CACHE.popitem(last=False)
    else:
        _PK_CACHE.move_to_end(token)
    return pk


def prove_job_shm(token: str, blob_desc, pub_desc, wit_desc, job: int,
                  seed_seq, circuit_id: str, timeout_s=None) -> bytes:
    """Generate one complete proof and return its envelope wire bytes.

    The job-level parallel path of :func:`repro.snark.api.prove_many`:
    each worker proves one statement end to end with *serial* kernels
    (no nested pools) and ships the self-describing envelope back, so
    the parent only pays one deserialization per job and the bytes are
    exactly what :meth:`ProofBundle.to_bytes` would produce in-process.

    ``seed_seq`` is a :class:`numpy.random.SeedSequence` derived
    deterministically in the parent, making the zk-mask — the proof's
    only randomness — independent of the worker count.  ``timeout_s``
    installs a per-job cooperative deadline inside the worker
    (:mod:`repro.parallel.deadline`), so one runaway statement cannot
    stall a whole batch from the inside.

    The proving key arrives as a shared pickled blob broadcast once per
    batch (and cached per worker across batches); the job's public inputs
    and witness are rows of two stacked shared matrices.  Only the
    envelope bytes travel back through the pipe.
    """
    from ..snark.api import prove

    _maybe_fault("prove_job", desc=blob_desc)
    pk = _cached_pk(token, blob_desc)
    with shm.attached(pub_desc) as pubs, shm.attached(wit_desc) as wits:
        public = np.array(pubs[job])
        witness = np.array(wits[job])
    bundle = prove(pk, public, witness,
                   rng=np.random.default_rng(seed_seq),
                   circuit_id=circuit_id, timeout_s=timeout_s)
    return bundle.to_bytes()
