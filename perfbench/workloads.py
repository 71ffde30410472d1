"""The benchmark's two workloads, driven through the public API.

* ``single-2e20`` — one caller in a closed loop: ``prove(workers=2)``
  then ``verify`` on a ``synthetic_r1cs(20, band=16)`` instance.
* ``service-mixed`` — an open loop against a spawned ``repro serve``
  daemon (default configuration) over two connections: cold proves,
  repeat proves that hit the proof cache, and verifies.

All use the ``paper-128bit`` preset.  Inputs come from the seed alone
(:func:`single_inputs`, :func:`service_schedule`).
Every workload returns its end-to-end metrics, the extra figures it
prints, and — on a traced run — its per-layer metrics.  Every check
made along the way is counted in a :class:`Tally`; a miss fails the run.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import layers
import loadgen
import procs
from spans import Patcher, SpanRecorder
from stats import median, timing_summary

now = time.perf_counter

PRESET = "paper-128bit"
WORKERS = 2
#: Proof seed of the fixed-seed digest proof each workload prints.
DIGEST_SEED = 0

SINGLE_LOG_SIZE = 20
SINGLE_BAND = 16
SINGLE_SETUP_REPS = 2
#: Verifies of each proof (relying parties) in the closed loop.
SINGLE_VERIFIERS = 2
#: Cycles timed even when they overrun ``--seconds`` (a median needs 3).
SINGLE_MIN_CYCLES = 3

SERVICE_CIRCUITS = ("sha", "aes", "rsa")
#: Offered request rate of the open loop (requests per second).
SERVICE_RATE = 2.0
#: One block of the request mix, shuffled per block: a third cold
#: proves, half verifies, a sixth repeat proves (proof-cache hits).
SERVICE_PATTERN = (loadgen.COLD, loadgen.COLD, loadgen.VERIFY,
                   loadgen.VERIFY, loadgen.VERIFY, loadgen.HIT)
SERVICE_SETUP_REPS = 5
SERVICE_SOCKET = "svc.sock"
#: How long one request may wait for its job's result.
SERVICE_TIMEOUT_S = 60.0

#: End-to-end metrics every workload reports (see README.md).
E2E_METRICS = ("setup_s", "prove_s", "verify_s", "proofs_per_s",
               "proof_bytes", "mem_peak_mb")

#: What one operation is when per-layer figures are normalised.
OP_UNIT = {"single-2e20": "prove+verify cycle",
           "service-mixed": "request"}


class Tally:
    """Counts every check made in a run and every one that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def sub_seed(seed: int, *tags: int) -> int:
    """A 31-bit seed derived from the run seed and ``tags``."""
    state = np.random.SeedSequence([seed, *tags]).generate_state(1)
    return int(state[0]) & 0x7FFFFFFF


def single_inputs(seed: int) -> dict:
    """The instance parameters (proof seeds are ``sub_seed(seed, 2, i)``)."""
    return {"log_size": SINGLE_LOG_SIZE, "band": SINGLE_BAND,
            "instance_seed": sub_seed(seed, 1)}


def service_schedule(seed: int, seconds: float) -> List[loadgen.Request]:
    return loadgen.make_schedule(sub_seed(seed, 5), seconds, SERVICE_RATE,
                                 SERVICE_CIRCUITS, SERVICE_PATTERN)


def digest_of(envelopes) -> str:
    h = hashlib.sha256()
    for env in envelopes:
        h.update(env)
    return h.hexdigest()


# -- shared checks -----------------------------------------------------------

def _tamper_proof(bundle, kind: str) -> None:
    """Corrupt one field of a parsed proof in place."""
    from repro.field.goldilocks import MODULUS

    rp = bundle.proof.repetitions[-1]
    pcs = rp.pcs_proof
    if kind == "merkle" and not pcs.merkle.nodes:
        kind = "column"
    if kind == "sc1":
        rp.sc1_round_evals[0][0] = (int(rp.sc1_round_evals[0][0]) + 1) \
            % MODULUS
    elif kind == "w_eval":
        rp.w_eval = (int(rp.w_eval) + 1) % MODULUS
    elif kind == "column":
        col = pcs.columns[0].copy()
        col[0] = (int(col[0]) + 1) % MODULUS
        pcs.columns[0] = col
    elif kind == "merkle":
        node = bytearray(pcs.merkle.nodes[0])
        node[0] ^= 1
        pcs.merkle.nodes[0] = bytes(node)
    elif kind == "eval_row":
        row = pcs.eval_row.copy()
        row[0] = (int(row[0]) + 1) % MODULUS
        pcs.eval_row = row
    else:
        raise ValueError(kind)


TAMPER_KINDS = ("sc1", "w_eval", "column", "merkle", "eval_row")


def check_tampering(snark, vk, envelope: bytes, seed: int,
                    tally: Tally) -> None:
    """A flipped envelope byte and a corrupted proof field must both be
    rejected.  Which byte and which field rotate with the seed."""
    from repro.errors import DeserializationError

    rng = random.Random(sub_seed(seed, 6))
    bad = bytearray(envelope)
    pos = rng.randrange(64, len(bad))
    bad[pos] ^= 1 << rng.randrange(8)
    try:
        accepted = snark.verify(vk, snark.ProofBundle.from_bytes(bytes(bad)))
    except DeserializationError:
        accepted = False
    tally.check(not accepted, f"envelope with byte {pos} flipped accepted")
    kind = TAMPER_KINDS[rng.randrange(len(TAMPER_KINDS))]
    bundle = snark.ProofBundle.from_bytes(envelope)
    _tamper_proof(bundle, kind)
    tally.check(not snark.verify(vk, bundle),
                f"proof with tampered {kind} accepted")


def _shutdown_pool() -> None:
    from repro.parallel import shutdown

    shutdown()


def _traced(fn, budget: float, min_ops: int, recorder: SpanRecorder):
    """Run ``fn(budget, min_ops)`` with every layer wrapped.  A traced
    run spends a quarter of its time untraced, for the overhead
    comparison, and half traced, so that it lasts about as long as an
    untraced run."""
    patcher = Patcher(recorder)
    layers.install(patcher)
    try:
        return fn(budget, min_ops)
    finally:
        patcher.restore()


def _overhead(traced: List[float], untraced: List[float]) -> float:
    return median(traced) / median(untraced) - 1.0


# -- single-2e20 -------------------------------------------------------------

def run_single(seed: int, seconds: float, trace: bool, tally: Tally,
               recorder: Optional[SpanRecorder]) -> dict:
    from repro import snark
    from repro.parallel import get_pool
    from repro.workloads import synthetic_r1cs

    inp = single_inputs(seed)
    setups = []
    for _ in range(SINGLE_SETUP_REPS):
        # Drop the previous instance first: two would double the peak.
        r1cs = pub = wit = pk = vk = None
        _shutdown_pool()
        gc.collect()
        t0 = now()
        r1cs, pub, wit = synthetic_r1cs(inp["log_size"], band=inp["band"],
                                        seed=inp["instance_seed"])
        pk, vk = snark.setup(r1cs, snark.PAPER)
        get_pool(WORKERS).warm()
        setups.append(now() - t0)

    t0 = now()
    bundle = snark.prove(pk, pub, wit, seed=DIGEST_SEED, workers=WORKERS)
    digest_env = bundle.to_bytes()
    tally.check(snark.verify(vk, snark.ProofBundle.from_bytes(digest_env)),
                "fixed-seed proof rejected")
    warmup_s = now() - t0
    counter = iter(range(1 << 30))

    def cycles(budget: float, min_ops: int) -> Dict[str, list]:
        out: Dict[str, list] = {"prove": [], "verify": [], "bytes": [],
                                "cycle": []}
        t_end = now() + budget
        while len(out["prove"]) < min_ops or now() < t_end:
            proof_seed = sub_seed(seed, 2, next(counter))
            t0 = now()
            b = snark.prove(pk, pub, wit, seed=proof_seed, workers=WORKERS)
            out["prove"].append(now() - t0)
            env = b.to_bytes()
            out["bytes"].append(len(env))
            # Each relying party checks the envelope it received.
            for _ in range(SINGLE_VERIFIERS):
                parsed = snark.ProofBundle.from_bytes(env)
                tally.check(parsed.to_bytes() == env, "envelope round trip")
                t1 = now()
                ok = snark.verify(vk, parsed)
                out["verify"].append(now() - t1)
                tally.check(ok, f"proof at seed {proof_seed} rejected")
            out["cycle"].append(now() - t0)
        return out

    result = {"digest": digest_of([digest_env]),
              "extra": {"warmup_s": warmup_s,
                        "setup_reps_s": setups}}
    if trace:
        untraced = cycles(seconds / 4, 1)
        traced = _traced(cycles, seconds / 2, 1, recorder)
        result["ops"] = len(traced["cycle"])
        result["trace_overhead_frac"] = _overhead(traced["cycle"],
                                                  untraced["cycle"])
    else:
        mem = procs.PeakMemory([os.getpid()] + procs.child_pids()).start()
        samples = cycles(seconds, SINGLE_MIN_CYCLES)
        mem_mb = mem.stop_mb()
        proves, verifies = samples["prove"], samples["verify"]
        result["e2e"] = {
            "setup_s": median(setups) + warmup_s,
            "prove_s": median(proves),
            "verify_s": median(verifies),
            "proofs_per_s": 1.0 / median(proves),
            "proof_bytes": median(samples["bytes"]),
            "mem_peak_mb": mem_mb,
        }
        result["extra"]["prove"] = timing_summary(proves)
        result["extra"]["verify"] = timing_summary(verifies)
        result["extra"]["prove_samples_s"] = proves
        result["extra"]["verify_samples_s"] = verifies
    check_tampering(snark, vk, digest_env, seed, tally)
    _shutdown_pool()
    return result


# -- service-mixed -----------------------------------------------------------

class Daemon:
    """A ``repro serve`` process on a unix socket inside the checkout.

    Untraced, it is the plain ``python -m repro serve`` command in its
    default configuration.  Traced, it starts through
    ``perfbench/daemon.py``, which installs the layer wrappers before
    running the same command in-process and writes its spans on exit.
    """

    def __init__(self, workdir: Path, src: Path,
                 spans_out: Optional[Path] = None):
        self.socket = str(workdir / SERVICE_SOCKET)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve",
                   "--unix-socket", self.socket]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("daemon.py")),
                   "--unix-socket", self.socket,
                   "--spans-out", str(spans_out)]
        # The daemon's stderr goes to a file of its own: whether it is a
        # pipe or a file changed the daemon's peak RSS by ~17 MB, which
        # would make mem_peak_mb depend on how the benchmark was started.
        self.log = workdir / "daemon.log"
        with open(self.log, "w") as err:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                         stderr=err, env=env, text=True)
        line = self.proc.stdout.readline()
        if "listening" not in line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon did not start: {line!r} "
                               f"{self.log.read_text()[-2000:]}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self, tally: Tally) -> None:
        from repro.service import ServiceClient

        try:
            with ServiceClient(self.socket) as client:
                client.shutdown_server()
            rc = self.proc.wait(timeout=60)
            tail = self.proc.stdout.read()
        except Exception as exc:  # noqa: BLE001 - counted, then killed
            self.proc.kill()
            self.proc.wait()
            tally.check(False, f"daemon did not stop cleanly: {exc}")
            return
        finally:
            self.proc.stdout.close()
            sys.stderr.write(self.log.read_text())
        tally.check(rc == 0 and "drained and stopped" in tail,
                    f"daemon exited {rc}: {tail.strip()!r}")


def _service_warmup(client, tally: Tally) -> Dict[str, bytes]:
    """Fill the key cache: one fixed-seed prove and verify per circuit."""
    envs = {}
    for circuit in SERVICE_CIRCUITS:
        envs[circuit] = client.prove(circuit, preset=PRESET, seed=DIGEST_SEED)
        tally.check(client.verify(envs[circuit]),
                    f"service rejected its own {circuit} proof")
    return envs


def _service_request(clients):
    from repro.service import protocol

    def handler(conn: int, req: loadgen.Request, ref_result):
        client = clients[conn]
        if req.kind == loadgen.VERIFY:
            job = client.submit("verify", envelope=ref_result["envelope"])
        else:
            job = client.submit("prove", circuit_id=req.circuit,
                                preset=PRESET, seed=req.seed)
        resp = client.result(job, wait_s=SERVICE_TIMEOUT_S)
        if resp.get("state") != "done":
            raise RuntimeError(f"job {job} {resp.get('state')}")
        out = {"job": job, "run_s": resp.get("run_s"),
               "cached": bool(resp.get("cached"))}
        if req.kind == loadgen.VERIFY:
            out["valid"] = bool(resp.get("valid"))
        else:
            out["envelope"] = protocol.decode_blob(str(resp["envelope"]))
        return out

    return handler


def _stats_delta(before: dict, after: dict, cache: str) -> float:
    hits = after[cache]["hits"] - before[cache]["hits"]
    misses = after[cache]["misses"] - before[cache]["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def _open_loop(daemon: Daemon, schedule, tally: Tally,
               recorder: Optional[SpanRecorder]) -> dict:
    """Run ``schedule`` against ``daemon``; check and summarise it."""
    from repro.service import ServiceClient

    clients = [ServiceClient(daemon.socket, client_id=f"bench-{c}")
               for c in range(loadgen.CONNECTIONS)]
    try:
        before = clients[0].stats()
        mem = procs.PeakMemory([daemon.pid]).start()
        handler = _service_request(clients)
        if recorder is not None:
            inner = handler

            def handler(conn, req, ref_result):
                index = recorder.begin("service.request",
                                       job=f"req-{req.index}")
                try:
                    return inner(conn, req, ref_result)
                finally:
                    recorder.end(index)

        outcomes = loadgen.run_open_loop(schedule, handler)
        # The daemon's whole peak, not its growth: how much freed memory
        # its allocator still held at the start moves the growth by
        # ~25 MB between runs of the same schedule, not the peak.
        mem_mb = mem.stop_mb(above_start=False)
        after = clients[0].stats()
    finally:
        for client in clients:
            client.close()
    for o in outcomes:
        refused = "QueueFullError" in o.error
        if refused and recorder is not None:
            recorder.count("service.rejected")
        tally.check(o.ok, f"request {o.request.index} ({o.request.kind}) "
                          f"failed: {o.error}")
        if not o.ok:
            continue
        req, res = o.request, o.result
        if req.kind == loadgen.VERIFY:
            tally.check(res["valid"], f"service rejected proof of request "
                                      f"{req.ref}")
        elif req.kind == loadgen.HIT:
            ref = outcomes[req.ref].result
            tally.check(res["cached"], f"repeat request {req.index} missed "
                                       "the proof cache")
            tally.check(ref is not None
                        and res["envelope"] == ref["envelope"],
                        f"cache hit {req.index} differs from its cold proof")
        else:
            tally.check(not res["cached"], f"cold request {req.index} was "
                                           "answered from the cache")
    return {"outcomes": outcomes, "mem_mb": mem_mb,
            "key_hit": _stats_delta(before, after, "pk_cache"),
            "proof_hit": _stats_delta(before, after, "proof_cache")}


def _verify_locally(snark, keys, outcomes, tally: Tally) -> None:
    """Every cold envelope must verify under the library's own keys."""
    for o in outcomes:
        if o.ok and o.request.kind == loadgen.COLD:
            env = o.result["envelope"]
            bundle = snark.ProofBundle.from_bytes(env)
            tally.check(bundle.to_bytes() == env, "envelope round trip")
            tally.check(snark.verify(keys[o.request.circuit][1], bundle),
                        f"cold proof {o.request.index} rejected locally")


def _circuit_mean(outcomes, value) -> float:
    """Mean over circuits of the per-circuit median of ``value(o)``.

    The circuits differ several-fold in cost, so a median over all of
    them lands between their clusters and jumps from run to run."""
    by_circuit: Dict[str, list] = {}
    for o in outcomes:
        by_circuit.setdefault(o.request.circuit, []).append(value(o))
    return sum(median(v) for v in by_circuit.values()) / len(by_circuit)


def _summarise(outcomes) -> dict:
    by_kind: Dict[str, list] = {loadgen.COLD: [], loadgen.HIT: [],
                                loadgen.VERIFY: []}
    for o in outcomes:
        if o.ok:
            by_kind[o.request.kind].append(o)
    cold = by_kind[loadgen.COLD]
    run_s = [o.result["run_s"] for o in cold if o.result["run_s"]]
    return {
        "cold_s": _circuit_mean(cold, lambda o: o.latency_s),
        "verify_s": _circuit_mean(by_kind[loadgen.VERIFY],
                                  lambda o: o.latency_s),
        "cold": timing_summary([o.latency_s for o in cold]),
        "hit": timing_summary([o.latency_s for o in by_kind[loadgen.HIT]]),
        "verify": timing_summary(
            [o.latency_s for o in by_kind[loadgen.VERIFY]]),
        "gen_lag_ms": 1e3 * median([o.lag_s for o in outcomes]),
        "gen_lag_max_ms": 1e3 * max(o.lag_s for o in outcomes),
        "run_s": run_s,
        "overhead_s": [(o.done - o.sent) - o.result["run_s"]
                       for o in cold if o.result["run_s"]],
        "proof_bytes": _circuit_mean(cold,
                                     lambda o: len(o.result["envelope"])),
    }


def run_service(seed: int, seconds: float, trace: bool, tally: Tally,
                recorder: Optional[SpanRecorder], workdir: Path,
                src: Path) -> dict:
    from repro import snark
    from repro.service import ServiceClient
    from repro.workloads.registry import build_workload

    schedule = service_schedule(seed, seconds / 2 if trace else seconds)
    setups = []
    daemon = None
    for _ in range(1 if trace else SERVICE_SETUP_REPS):
        if daemon is not None:
            daemon.stop(tally)
        t0 = now()
        daemon = Daemon(workdir, src)
        with ServiceClient(daemon.socket) as client:
            warm_envs = _service_warmup(client, tally)
        setups.append(now() - t0)
    digest = digest_of(warm_envs[c] for c in SERVICE_CIRCUITS)

    keys = {}
    for circuit in SERVICE_CIRCUITS:
        _, built = build_workload(circuit)
        r1cs, _, _ = built.compile()
        keys[circuit] = snark.setup(r1cs, snark.PAPER)
        tally.check(snark.verify(keys[circuit][1], snark.ProofBundle
                                 .from_bytes(warm_envs[circuit])),
                    f"fixed-seed {circuit} proof rejected locally")

    try:
        run = _open_loop(daemon, schedule, tally, None)
        summary = _summarise(run["outcomes"])
        check_service_tampering(daemon, warm_envs["sha"], tally)
    finally:
        daemon.stop(tally)
    _verify_locally(snark, keys, run["outcomes"], tally)
    check_tampering(snark, keys["sha"][1], warm_envs["sha"], seed, tally)

    result = {"digest": digest,
              "extra": {"setup_reps_s": setups,
                        "offered_rate_rps": SERVICE_RATE,
                        "requests": len(schedule),
                        "cold_prove_ms": _ms(summary["cold"]),
                        "hit_ms": _ms(summary["hit"]),
                        "verify_ms": _ms(summary["verify"]),
                        "gen_lag_ms": summary["gen_lag_ms"],
                        "gen_lag_max_ms": summary["gen_lag_max_ms"],
                        "key_cache_hit_ratio": run["key_hit"],
                        "proof_cache_hit_ratio": run["proof_hit"]}}
    if trace:
        spans_out = workdir / "daemon_spans.json"
        traced_daemon = Daemon(workdir, src, spans_out=spans_out)
        try:
            with ServiceClient(traced_daemon.socket) as client:
                _service_warmup(client, tally)
            patcher = Patcher(recorder)
            layers.install(patcher)
            try:
                traced = _open_loop(traced_daemon, schedule, tally, recorder)
            finally:
                patcher.restore()
        finally:
            traced_daemon.stop(tally)
        tsum = _summarise(traced["outcomes"])
        result["ops"] = len(schedule)
        result["trace_overhead_frac"] = (tsum["cold_s"] / summary["cold_s"]
                                         - 1.0)
        result["daemon_spans"] = spans_out
        result["service_layer"] = {
            "service.run_s": median(tsum["run_s"]),
            "service.overhead_s": median(tsum["overhead_s"]),
            "service.key_cache.hit_ratio": traced["key_hit"],
            "service.proof_cache.hit_ratio": traced["proof_hit"],
            "gen_lag_ms": tsum["gen_lag_ms"],
        }
    else:
        result["e2e"] = {
            "setup_s": median(setups),
            "prove_s": summary["cold_s"],
            "verify_s": summary["verify_s"],
            "proofs_per_s": len(summary["run_s"]) / sum(summary["run_s"]),
            "proof_bytes": summary["proof_bytes"],
            "mem_peak_mb": run["mem_mb"],
        }
    return result


def _ms(summary: dict) -> dict:
    """A :func:`timing_summary` with its times in milliseconds."""
    out = dict(summary)
    for key in ("p50", "tail"):
        if out[key] is not None:
            out[key] *= 1e3
    return out


def check_service_tampering(daemon: Daemon, envelope: bytes,
                            tally: Tally) -> None:
    """The service must reject a tampered envelope it is asked to verify."""
    from repro.errors import DeserializationError
    from repro.service import ServiceClient

    bad = bytearray(envelope)
    bad[len(bad) // 2] ^= 0x10
    with ServiceClient(daemon.socket) as client:
        try:
            accepted = client.verify(bytes(bad))
        except DeserializationError:
            accepted = False
    tally.check(not accepted, "service accepted a tampered envelope")
