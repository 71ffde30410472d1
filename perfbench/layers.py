"""Which entry points of each layer the traced run wraps, and the
per-layer metrics it derives from their spans.

Every wrapper patches the attribute its caller looks up: a function
imported by name into another module is patched in that module
(``repro.spartan.protocol.prove_sumcheck``, not only
``repro.multilinear.sumcheck.prove_sumcheck``), and methods are patched
on their class.  Counts are computed from call arguments or results,
not read from the program's own counters.

Per-layer metrics are normalised per workload operation (see
``OP_UNIT`` in :mod:`workloads`), so runs of different lengths compare.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from spans import Patcher, call_counts, self_times, wall_times

#: Span name -> Fig. 6a task family its self time is charged to.
SPAN_FAMILIES = {
    "snark.prove": "other",
    "snark.verify": "other",
    "snark.envelope.encode": "other",
    "snark.envelope.decode": "other",
    "spartan.sumcheck1": "sumcheck",
    "spartan.matrix_eval": "spmv",
    "r1cs.products": "spmv",
    "r1cs.transpose_matvec": "spmv",
    "multilinear.prove_sumcheck": "sumcheck",
    "multilinear.verify_rounds": "sumcheck",
    "multilinear.mle_eval": "polyarith",
    "multilinear.eq_table": "polyarith",
    "multilinear.combine_rows": "polyarith",
    "pcs.commit": "other",
    "pcs.open": "other",
    "pcs.verify": "other",
    "code.encode_rows": "rs_encode",
    "hashing.hash_columns": "merkle",
    "hashing.merkle_tree": "merkle",
    "hashing.open_many": "merkle",
    "hashing.verify_many": "merkle",
    "parallel.encode_rows": "rs_encode",
    "parallel.hash_layer": "merkle",
    "parallel.stream_encode_hash": "rs_encode",
    "parallel.run": "other",
    "service.job": "other",
    "service.frame.pack": "other",
}

FAMILIES = ("sumcheck", "polyarith", "rs_encode", "merkle", "spmv", "other")

#: Counts computed at the wrapped boundaries: name -> unit.
COUNTS = {
    "snark.envelope.bytes": "B",
    "spartan.matrix_eval.nnz": "count",
    "r1cs.products.nnz": "count",
    "r1cs.transpose_matvec.nnz": "count",
    "multilinear.prove_sumcheck.rounds": "count",
    "pcs.commit.mem_mb": "MB",
    "code.encode_rows.cells": "count",
    "hashing.hash_columns.bytes": "B",
    "hashing.merkle_tree.hashes": "count",
    "hashing.transcript.calls": "count",
    "parallel.dispatches": "count",
    "parallel.bytes_shared": "B",
    "parallel.worker_restarts": "count",
    "parallel.degradations": "count",
    "service.frame.bytes": "B",
    "service.rejected": "count",
}

#: Metrics derived from spans, service job status and the load
#: generator: name -> (unit, better).
DERIVED = {
    "snark.prove.uncovered_frac": ("ratio", "lower"),
    "spartan.matrix_eval.verify_share": ("ratio", "lower"),
    "service.queue_wait_s": ("s", "lower"),
    "service.run_s": ("s", "lower"),
    "service.overhead_s": ("s", "lower"),
    "service.key_cache.hit_ratio": ("ratio", "higher"),
    "service.proof_cache.hit_ratio": ("ratio", "higher"),
    "gen_lag_ms": ("ms", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}

#: Which end-to-end metric a layer should move, and on which workload.
#: Printed with every traced run; later changes cite these pairings.
SHOULD_MOVE = {
    "snark": ("prove_s", "service-mixed"),
    "spartan": ("prove_s; verify_s", "single-2e20"),
    "r1cs": ("prove_s", "single-2e20; service-mixed (aes)"),
    "multilinear": ("prove_s", "single-2e20"),
    "pcs": ("prove_s; mem_peak_mb", "single-2e20"),
    "code": ("prove_s", "single-2e20"),
    "hashing": ("prove_s; verify_s", "single-2e20"),
    "parallel": ("prove_s (kernel fan-out)", "single-2e20"),
    "service": ("prove_s; verify_s; proofs_per_s", "service-mixed"),
    "family": ("prove_s; verify_s (Fig. 6a phase view)", "all"),
    "harness": ("none: health only, never a gain", "all"),
}


def per_layer_specs() -> List[dict]:
    """The ``per_layer`` list of BENCHMARK.json, in a stable order."""
    out = []
    for name in SPAN_FAMILIES:
        out.append({"name": f"{name}.calls", "unit": "count",
                    "better": "lower"})
        out.append({"name": f"{name}.self_s", "unit": "s",
                    "better": "lower"})
    for name, unit in COUNTS.items():
        out.append({"name": name, "unit": unit, "better": "lower"})
    for fam in FAMILIES:
        out.append({"name": f"family.{fam}.self_s", "unit": "s",
                    "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def _log2(n: int) -> int:
    return int(math.log2(n)) if n > 0 else 0


def install(patcher: Patcher) -> None:
    """Wrap the entry points of every proving layer and the service."""
    import repro.snark as snark
    import repro.snark.api as snark_api
    import repro.snark.envelope as envelope
    import repro.spartan.protocol as spartan
    import repro.spartan.matrixeval as matrixeval
    import repro.pcs.orion as orion
    import repro.hashing.merkle as merkle
    import repro.hashing.fieldhash as fieldhash
    from repro.hashing.transcript import Transcript
    from repro.code.reed_solomon import ReedSolomonCode
    from repro.r1cs.system import R1CS
    from repro.parallel.pool import ProverPool
    from repro.parallel.shm import ShmArena
    import repro.service.protocol as protocol
    from repro.service.server import ProvingService

    for owner in (snark, snark_api):
        patcher.span(owner, "prove", "snark.prove")
        patcher.span(owner, "verify", "snark.verify")
    patcher.span(envelope, "bundle_to_bytes", "snark.envelope.encode",
                 counts=lambda out, *a, **k: {
                     "snark.envelope.bytes": len(out)})
    patcher.span(envelope, "bundle_from_bytes", "snark.envelope.decode")

    patcher.span(spartan, "prove_constraint_sumcheck", "spartan.sumcheck1")
    patcher.span(spartan, "combined_matrix_eval", "spartan.matrix_eval",
                 counts=lambda out, a, b, c, *rest, **k: {
                     "spartan.matrix_eval.nnz": a.nnz + b.nnz + c.nnz})

    patcher.span(R1CS, "products", "r1cs.products",
                 counts=lambda out, self, *a, **k: {
                     "r1cs.products.nnz": self.nnz})
    patcher.span(R1CS, "combined_transpose_matvec", "r1cs.transpose_matvec",
                 counts=lambda out, self, *a, **k: {
                     "r1cs.transpose_matvec.nnz": self.nnz})

    patcher.span(spartan, "prove_sumcheck", "multilinear.prove_sumcheck",
                 counts=lambda out, tables, *a, **k: {
                     "multilinear.prove_sumcheck.rounds":
                         _log2(len(tables[0]))})
    patcher.span(spartan, "verify_sumcheck_rounds",
                 "multilinear.verify_rounds")
    patcher.span(spartan, "mle_eval", "multilinear.mle_eval")
    for owner in (spartan, matrixeval, orion):
        patcher.span(owner, "eq_table", "multilinear.eq_table")
    patcher.span(orion, "combine_rows", "multilinear.combine_rows")

    def commit_mem(out, self, table, *a, **k):
        n = len(table)
        rows = self.params.rows_for(n)
        cells = (rows + 1) * self.code.codeword_length(n // rows)
        return {"pcs.commit.mem_mb": cells * 8 / 2 ** 20}

    patcher.span(orion.OrionPCS, "commit", "pcs.commit", counts=commit_mem)
    patcher.span(orion.OrionPCS, "open", "pcs.open")
    patcher.span(orion.OrionPCS, "verify", "pcs.verify")

    patcher.span(ReedSolomonCode, "encode_rows", "code.encode_rows",
                 counts=lambda out, self, matrix, *a, **k: {
                     "code.encode_rows.cells": int(out.size)})

    def hashed_bytes(out, matrix, *a, **k):
        return {"hashing.hash_columns.bytes": int(matrix.nbytes)}

    for owner in (merkle, orion, fieldhash):
        patcher.span(owner, "hash_columns", "hashing.hash_columns",
                     counts=hashed_bytes)
    patcher.span(merkle.MerkleTree, "__init__", "hashing.merkle_tree",
                 counts=lambda out, self, *a, **k: {
                     "hashing.merkle_tree.hashes": self.total_hashes()})
    patcher.span(orion, "open_many", "hashing.open_many")
    patcher.span(orion, "verify_many", "hashing.verify_many")
    for method in ("absorb_bytes", "_squeeze"):
        patcher.counter(Transcript, method, lambda *a, **k: {
            "hashing.transcript.calls": 1})

    for method in ("encode_rows", "hash_layer", "stream_encode_hash",
                   "run"):
        patcher.span(ProverPool, method, f"parallel.{method}")
    patcher.counter(ProverPool, "_supervised_map",
                    lambda self, payloads, *a, **k: {
                        "parallel.dispatches": len(payloads)})
    patcher.counter(ProverPool, "_restart_workers", lambda *a, **k: {
        "parallel.worker_restarts": 1})
    patcher.counter(ProverPool, "_degraded", lambda *a, **k: {
        "parallel.degradations": 1})
    patcher.counter(ShmArena, "_new_segment", lambda self, nbytes: {
        "parallel.bytes_shared": nbytes})

    patcher.span(protocol, "pack_frame", "service.frame.pack",
                 counts=lambda out, *a, **k: {"service.frame.bytes": len(out)})

    def job_span_counts(out, self, job, loop):
        wait = (job.started_at or job.submitted_at) - job.submitted_at
        return {"service.queue_wait_s": wait, "service.jobs": 1}

    patcher.span(ProvingService, "_run_job", "service.job",
                 counts=job_span_counts,
                 job=lambda self, job, loop: job.job_id)


def layer_metrics(span_lists: Sequence[Sequence[dict]],
                  counts: Dict[str, float], ops: int) -> Dict[str, float]:
    """Per-operation calls, self seconds and computed counts, plus the
    family roll-up and the span-derived shares.  ``span_lists`` holds one
    span list per process (parent indices are local to each list)."""
    ops = max(1, ops)
    calls: Dict[str, float] = {}
    selfs: Dict[str, float] = {}
    walls: Dict[str, float] = {}
    for spans in span_lists:
        for table, part in ((calls, call_counts(spans)),
                            (selfs, self_times(spans)),
                            (walls, wall_times(spans))):
            for key, value in part.items():
                table[key] = table.get(key, 0.0) + value
    out: Dict[str, float] = {}
    families = {fam: 0.0 for fam in FAMILIES}
    for name, fam in SPAN_FAMILIES.items():
        out[f"{name}.calls"] = calls.get(name, 0) / ops
        out[f"{name}.self_s"] = selfs.get(name, 0.0) / ops
        families[fam] += selfs.get(name, 0.0) / ops
    for name in COUNTS:
        out[name] = counts.get(name, 0.0) / ops
    for fam, secs in families.items():
        out[f"family.{fam}.self_s"] = secs
    prove_wall = walls.get("snark.prove", 0.0)
    out["snark.prove.uncovered_frac"] = (
        selfs.get("snark.prove", 0.0) / prove_wall if prove_wall else 0.0)
    verify_wall = walls.get("snark.verify", 0.0)
    out["spartan.matrix_eval.verify_share"] = (
        walls.get("spartan.matrix_eval", 0.0) / verify_wall
        if verify_wall else 0.0)
    jobs = counts.get("service.jobs", 0.0)
    out["service.queue_wait_s"] = (
        counts.get("service.queue_wait_s", 0.0) / jobs if jobs else 0.0)
    return out
