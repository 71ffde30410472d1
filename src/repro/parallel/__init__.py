"""Process-pool parallelism for the functional prover.

Merkle leaf hashing and whole independent proof jobs are embarrassingly
parallel (the very structure NoCap's vector FUs exploit), and they are
the two pieces that measurably pay for process fan-out.
:class:`ProverPool` fans them out over worker processes with zero-copy
shared-memory dispatch (:mod:`repro.parallel.shm`) and a serial fallback
that is bit-identical at any worker count; :func:`get_pool` returns the
persistent process-wide pool that stays warm across ``prove`` /
``prove_many`` calls.  See ``docs/API.md`` for usage and
``docs/PERFORMANCE.md`` for the dispatch model.
"""

from . import deadline, kernels, shm
from .deadline import check_deadline, deadline_scope
from .pool import FaultPolicy, ProverPool, get_pool, shutdown
from .shm import (ArrayDesc, BlobDesc, ShmArena, ShmError, reclaim_orphans,
                  scan_orphans)

__all__ = [
    "ProverPool",
    "FaultPolicy",
    "get_pool",
    "shutdown",
    "ShmArena",
    "ShmError",
    "ArrayDesc",
    "BlobDesc",
    "scan_orphans",
    "reclaim_orphans",
    "check_deadline",
    "deadline_scope",
    "deadline",
    "kernels",
    "shm",
]
