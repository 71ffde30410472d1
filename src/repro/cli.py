"""Command-line interface: ``python -m repro <command>``.

Commands
--------
tables       Print Tables I, IV and V (end-to-end, proving, speedups).
simulate     Simulate one NoCap proof (size, breakdowns, power).
area         Print the Table II area breakdown.
sensitivity  Print the Fig. 7 sensitivity sweep.
prove        Build, prove and verify a demo workload circuit; ``--out``
             writes the proof as a self-describing envelope, ``--workers``
             hashes the Merkle leaves across processes.
verify       Verify a proof envelope written by ``prove --out`` (exit
             codes per docs/ROBUSTNESS.md).
trace        Prove a workload under the tracer, simulate it on NoCap, and
             export a Chrome trace plus a per-phase breakdown
             (see docs/OBSERVABILITY.md).
doctor       Inspect /dev/shm for repro-owned shared-memory segments and
             reclaim orphans left by killed provers.
metrics      Render the process metrics registry as OpenMetrics text
             (counters, gauges, latency histograms).
report       Dump the flight recorder's recent job reports and
             supervision events (reads the in-memory ring, or a JSONL
             spool written via ``prove --flight-log`` / REPRO_FLIGHT_LOG).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional


def _cmd_tables(args: argparse.Namespace) -> int:
    from .analysis import gmean, table1_rows, table5_rows
    from .analysis.tables import format_table
    from .baselines import DEFAULT_CPU, PipeZkModel
    from .nocap.simulator import prover_seconds
    from .workloads.spec import PAPER_WORKLOADS

    rows = table1_rows()
    print(format_table(
        ["zkSNARK / prover", "Prover (s)", "Send (s)", "Verifier (s)", "Total (s)"],
        [(r.label, r.prover_s, r.send_s, r.verifier_s, r.total_s) for r in rows],
        "Table I: end-to-end, 16M constraints, 10 MB/s link"))

    pipezk = PipeZkModel()
    t4 = []
    for w in PAPER_WORKLOADS:
        t = prover_seconds(w.raw_constraints)
        t4.append((w.name, t, DEFAULT_CPU.prover_seconds(w.raw_constraints) / t,
                   pipezk.prover_seconds(w.raw_constraints) / t))
    print()
    print(format_table(["Workload", "NoCap (s)", "vs CPU", "vs PipeZK"], t4,
                       "Table IV: proving time and speedups"))
    print(f"gmean: {gmean([r[2] for r in t4]):.0f}x vs CPU, "
          f"{gmean([r[3] for r in t4]):.0f}x vs PipeZK")

    t5 = table5_rows()
    print()
    print(format_table(
        ["Workload", "Total (s)", "vs PipeZK"],
        [(r.workload, r.total_s, r.speedup_vs_pipezk) for r in t5],
        "Table V: end-to-end vs PipeZK"))
    print(f"gmean: {gmean([r.speedup_vs_pipezk for r in t5]):.1f}x")
    return 0


def _simulate_payload(report, power, log_n: int) -> dict:
    """Machine-readable summary of one simulation (``simulate --json``)."""
    from .obs import FAMILIES

    time_fracs = report.time_fractions()
    traffic_fracs = report.traffic_fractions()
    return {
        "schema": "repro/simulate",
        "schema_version": 1,
        "log_n": log_n,
        "padded_constraints": report.padded_constraints,
        "total_seconds": report.total_seconds,
        "total_traffic_bytes": report.total_traffic_bytes,
        "compute_utilization": report.compute_utilization(),
        "memory_utilization": report.memory_utilization(),
        "power_watts": {
            "total": power.total_watts,
            "fu": power.fu_watts,
            "rf": power.rf_watts,
            "hbm": power.hbm_watts,
        },
        # Stable column ordering: the canonical FAMILIES taxonomy.
        "time_fractions": {f: time_fracs.get(f, 0.0) for f in FAMILIES},
        "traffic_fractions": {f: traffic_fracs.get(f, 0.0)
                              for f in FAMILIES},
        "tasks": [
            {"name": t.name, "family": t.family, "seconds": t.seconds,
             "mem_bytes": t.mem_bytes, "bound": t.bound}
            for t in report.task_times
        ],
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .nocap import DEFAULT_CONFIG, NoCapSimulator, power_model
    from .obs import FAMILIES

    cfg = DEFAULT_CONFIG
    scales = {}
    for resource in ("arith", "hash", "ntt", "hbm", "rf"):
        factor = getattr(args, resource)
        if factor != 1.0:
            scales[resource] = factor
    if scales:
        cfg = cfg.scale(**scales)
    sim = NoCapSimulator(cfg)
    report = sim.simulate(1 << args.log_n, recompute=not args.no_recompute)
    power = power_model(report)
    if args.trace_out:
        from .obs.export import write_chrome_trace

        write_chrome_trace(args.trace_out, report=report,
                           metadata={"command": "simulate",
                                     "log_n": args.log_n})
    if args.json:
        print(json.dumps(_simulate_payload(report, power, args.log_n),
                         indent=2))
        return 0
    print(f"NoCap proof of 2^{args.log_n} constraints: "
          f"{report.total_seconds * 1e3:.2f} ms")
    print(f"  HBM traffic: {report.total_traffic_bytes / 1e9:.2f} GB "
          f"({report.memory_utilization():.0%} of bandwidth-time)")
    print(f"  compute utilization: {report.compute_utilization():.0%}")
    print(f"  power: {power.total_watts:.1f} W "
          f"(FUs {power.fu_watts:.1f}, RF {power.rf_watts:.1f}, "
          f"HBM {power.hbm_watts:.1f})")
    # Stable FAMILIES ordering so successive runs diff cleanly.
    time_fracs = report.time_fractions()
    traffic_fracs = report.traffic_fractions()
    print(f"  {'family':<10} {'time':>7} {'traffic':>8}")
    for fam in FAMILIES:
        print(f"    {fam:<10} {time_fracs.get(fam, 0.0):6.1%} "
              f"{traffic_fracs.get(fam, 0.0):7.1%}")
    if args.trace_out:
        print(f"  task timeline written to {args.trace_out}")
    return 0


def _cmd_area(args: argparse.Namespace) -> int:
    from .nocap import area_model

    for name, mm2 in area_model().as_table().items():
        print(f"  {name:<35} {mm2:6.2f} mm^2")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .nocap import sensitivity_sweep

    factors = (0.25, 0.5, 1.0, 2.0, 4.0)
    points = sensitivity_sweep(factors=factors)
    perf = {}
    for p in points:
        perf.setdefault(p.resource, {})[p.factor] = p.relative_performance
    print(format_table(
        ["Resource"] + [f"x{f}" for f in factors],
        [(res,) + tuple(perf[res][f] for f in factors) for res in perf],
        "Fig. 7: relative gmean performance"))
    return 0


def _workload_choices() -> List[str]:
    from .workloads.registry import workload_choices

    return workload_choices()


def _build_workload(name: str):
    from .workloads.registry import build_workload

    return build_workload(name)


def _print_metrics(snapshot: dict) -> None:
    print("metrics:")
    for name, value in sorted(snapshot.get("counters", {}).items()):
        print(f"  {name:<28} {value:>14,}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        print(f"  {name:<28} {value:>14,}")


def _make_pool(args: argparse.Namespace):
    """The persistent ProverPool when ``--workers N>1`` was given, else
    None.  The pool is process-wide (repro.parallel.get_pool) and is torn
    down by its atexit hook — commands must not close it mid-process."""
    workers = getattr(args, "workers", None)
    if workers is None or workers <= 1:
        return None
    from .parallel import get_pool

    return get_pool(workers)


def _cmd_prove(args: argparse.Namespace) -> int:
    from .snark import preset_by_name, prove, setup, verify

    preset = preset_by_name(args.preset)
    name, circuit = _build_workload(args.workload)
    print(f"{name}: {circuit.num_constraints} constraints")
    r1cs, public, witness = circuit.compile()
    pk, vk = setup(r1cs, preset)
    pool = _make_pool(args)
    if args.flight_log:
        from .obs import FLIGHT

        FLIGHT.spool_to(args.flight_log)

    def run():
        t0 = time.perf_counter()
        bundle = prove(pk, public, witness, pool=pool, circuit_id=name,
                       timeout_s=args.timeout, attach_report=True)
        t1 = time.perf_counter()
        ok = verify(vk, bundle)
        t2 = time.perf_counter()
        return bundle, ok, t0, t1, t2

    tracer = None
    if args.trace or args.trace_out or args.metrics or args.metrics_out:
        from . import obs

        with obs.tracing() as tracer:
            bundle, ok, t0, t1, t2 = run()
    else:
        bundle, ok, t0, t1, t2 = run()
    print(f"prove: {t1 - t0:.2f} s | verify: {t2 - t1:.2f} s | "
          f"proof: {bundle.size_bytes()} bytes | valid: {ok}")
    if bundle.report is not None:
        ev = bundle.report.events
        print(f"job {bundle.report.job_id}: dispatch="
              f"{bundle.report.dispatch}"
              + (f" incidents={ev}" if ev else ""))
    if args.metrics_out:
        from .obs.openmetrics import write_openmetrics

        write_openmetrics(args.metrics_out)
        print(f"OpenMetrics exposition written to {args.metrics_out}")
    if tracer is not None and (args.trace or args.trace_out):
        print("\nphase tree:")
        print(tracer.format_tree())
    if tracer is not None and args.metrics:
        print()
        _print_metrics(tracer.metrics_snapshot)
    if tracer is not None and args.trace_out:
        from .obs.export import write_chrome_trace

        write_chrome_trace(args.trace_out, records=tracer.records(),
                           metadata={"command": "prove", "workload": name},
                           worker_records=tracer.worker_records())
        print(f"\ntrace written to {args.trace_out}")
    if args.out:
        raw = bundle.to_bytes()
        with open(args.out, "wb") as fh:
            fh.write(raw)
        print(f"proof bundle ({len(raw)} bytes, preset {preset.name}) "
              f"written to {args.out}")
    from .analysis import estimate

    print("\nprojection at paper parameters:")
    print(estimate(circuit).summary())
    return 0 if ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    """Verify a serialized proof bundle against its embedded statement.

    Exit codes follow docs/ROBUSTNESS.md: 0 valid, 4 malformed envelope
    (DeserializationError), 5 proof invalid, 3 configuration problems
    (unknown preset / unresolvable circuit id).
    """
    from .errors import ConfigError
    from .snark import ProofBundle, preset_by_name, setup, verify

    with open(args.bundle, "rb") as fh:
        raw = fh.read()
    # Strict parse: DeserializationError propagates to main() -> exit 4.
    bundle = ProofBundle.from_bytes(raw)
    workload = args.workload or bundle.circuit_id
    if not workload:
        raise ConfigError(
            "bundle carries no circuit id; pass --workload to name the "
            "statement it proves")
    # Unknown ids raise ConfigError -> exit 3 via main().
    name, circuit = _build_workload(workload)
    r1cs, _, _ = circuit.compile()
    _, vk = setup(r1cs, preset_by_name(bundle.preset_name))
    print(f"{args.bundle}: preset {bundle.preset_name}, circuit {name}, "
          f"{len(bundle.public)} public inputs, {len(raw)} bytes")
    if verify(vk, bundle):
        print("proof valid")
        return 0
    print("proof INVALID", file=sys.stderr)
    return EXIT_VERIFICATION_ERROR


def _cmd_trace(args: argparse.Namespace) -> int:
    """Prove under the tracer, simulate the same statement on NoCap, and
    emit Chrome trace + BENCH_phases.json with a drift table."""
    from . import obs
    from .nocap import NoCapSimulator
    from .obs.export import write_chrome_trace, write_phases
    from .snark import preset_by_name, prove, setup, verify

    preset = preset_by_name(args.preset)
    name, circuit = _build_workload(args.workload)
    print(f"{name}: {circuit.num_constraints} constraints")
    r1cs, public, witness = circuit.compile()
    pk, vk = setup(r1cs, preset)
    pool = _make_pool(args)
    if args.flight_log:
        from .obs import FLIGHT

        FLIGHT.spool_to(args.flight_log)
    with obs.tracing() as tracer:
        bundle = prove(pk, public, witness, pool=pool, circuit_id=name,
                       timeout_s=args.timeout)
        ok = verify(vk, bundle)
    if args.metrics_out:
        from .obs.openmetrics import write_openmetrics

        write_openmetrics(args.metrics_out)
        print(f"OpenMetrics exposition written to {args.metrics_out}")
    if not ok:
        print("proof failed to verify", file=sys.stderr)
        return 1

    padded = 1 << r1cs.shape.log_size
    report = NoCapSimulator().simulate(padded)

    write_chrome_trace(args.trace_out, records=tracer.records(),
                       report=report,
                       metadata={"command": "trace", "workload": name,
                                 "padded_constraints": padded},
                       worker_records=tracer.worker_records())
    payload = write_phases(args.phases_out, tracer=tracer, report=report,
                           workload=name)

    func = payload["functional"]
    sim = payload["simulated"]
    print(f"functional prove: {func['total_s'] * 1e3:.1f} ms (measured) | "
          f"NoCap: {sim['total_s'] * 1e3:.3f} ms (simulated, 2^"
          f"{r1cs.shape.log_size})")
    print(f"\n  {'family':<10} {'measured':>10} {'meas %':>7} "
          f"{'sim %':>7} {'drift':>7}")
    for fam in obs.FAMILIES:
        meas_s = func["seconds_by_family"][fam]
        meas_f = func["fractions_by_family"][fam]
        sim_f = sim["fractions_by_family"][fam]
        print(f"  {fam:<10} {meas_s * 1e3:8.1f}ms {meas_f:6.1%} "
              f"{sim_f:6.1%} {meas_f - sim_f:+6.1%}")
    print("\n(drift = measured share - simulated share; large positive "
          "values mark phases where\n the software prover is slower than "
          "the hardware model expects)")
    if args.metrics:
        print()
        _print_metrics(tracer.metrics_snapshot)
    print(f"\ntrace written to {args.trace_out} "
          f"(open in https://ui.perfetto.dev)")
    print(f"phase breakdown written to {args.phases_out}")
    return 0


#: Distinct exit codes per error class, so scripted callers can tell a
#: malformed proof from a bad configuration without parsing stderr.
EXIT_CONFIG_ERROR = 3
EXIT_DESERIALIZATION_ERROR = 4
EXIT_VERIFICATION_ERROR = 5
EXIT_TIMEOUT = 6


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Render the process metrics registry as OpenMetrics text.

    The registry is process-local, so in a fresh CLI process the
    exposition is empty until something records into it; long-running
    embedders (or tests) call :func:`repro.obs.openmetrics.render`
    directly after proving.  ``prove --metrics-out`` is the one-shot
    equivalent: prove, then snapshot.
    """
    from .obs.openmetrics import render, write_openmetrics

    if args.out:
        write_openmetrics(args.out)
        print(f"OpenMetrics exposition written to {args.out}")
        return 0
    sys.stdout.write(render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Dump recent flight-recorder records (jobs + supervision events).

    Reads the JSONL spool when one is named (``--log``, or the
    ``REPRO_FLIGHT_LOG`` environment variable — the recorder in any
    prover process with that variable set appends every record there);
    otherwise falls back to this process's in-memory ring.
    """
    import os

    from .obs import FLIGHT
    from .obs.events import FLIGHT_LOG_ENV, format_events, read_spool

    path = args.log or os.environ.get(FLIGHT_LOG_ENV)
    if path:
        try:
            events = read_spool(path, last=args.last)
        except OSError as exc:
            print(f"cannot read flight log {path}: {exc}", file=sys.stderr)
            return 1
        source = path
    else:
        events = [e.to_dict() for e in FLIGHT.last(args.last)]
        source = "in-memory ring (set REPRO_FLIGHT_LOG or pass --log for "\
                 "cross-process history)"
    if args.json:
        print(json.dumps(events, indent=2))
        return 0
    print(f"flight recorder: {len(events)} record(s) from {source}")
    if events:
        print(format_events(events))
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Scan /dev/shm for repro-owned segments; reclaim orphans.

    A prover that dies by SIGKILL (OOM killer, ``kill -9``) cannot run
    its cleanup hooks, leaving named segments behind to eat host memory.
    Segment names embed the owning pid, so orphans are identifiable and
    safe to unlink.  ``--dry-run`` reports without unlinking.
    """
    import os

    from .parallel import shm

    try:
        names = sorted(os.listdir(shm.SHM_DIR))
    except OSError:
        print(f"{shm.SHM_DIR} is not available on this platform; "
              "nothing to inspect")
        return 0
    owned = [n for n in names if shm.segment_owner_pid(n) is not None]
    orphans = set(shm.scan_orphans())
    live = [n for n in owned if n not in orphans]
    print(f"{shm.SHM_DIR}: {len(owned)} repro segment(s) "
          f"({len(live)} owned by live processes, {len(orphans)} orphaned)")
    for name in live:
        path = os.path.join(shm.SHM_DIR, name)
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        print(f"  live    {name}  pid={shm.segment_owner_pid(name)} "
              f"{size:,} bytes")
    for name in sorted(orphans):
        print(f"  orphan  {name}  pid={shm.segment_owner_pid(name)} (dead)")
    if not orphans:
        return 0
    if args.dry_run:
        print(f"dry run: {len(orphans)} orphan(s) left in place")
        return 0
    reclaimed = shm.reclaim_orphans()
    print(f"reclaimed {len(reclaimed)} orphaned segment(s)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the proving service daemon (see docs/SERVICE.md)."""
    from .service import ServiceConfig, serve_forever

    kwargs = dict(
        host=args.host, port=args.port, unix_socket=args.unix_socket,
        queue_depth=args.queue_depth, max_per_client=args.max_per_client,
        job_slots=args.job_slots, workers=args.workers,
        preset=args.preset,
        key_cache_bytes=args.key_cache_mb * 1024 * 1024,
        proof_cache_bytes=args.proof_cache_mb * 1024 * 1024)
    if args.timeout is not None:
        kwargs["timeout_s"] = args.timeout  # else keep the config default
    config = ServiceConfig(**kwargs)
    if args.flight_log:
        from .obs import FLIGHT

        FLIGHT.spool_to(args.flight_log)
    return serve_forever(config)


def _client_from(args: argparse.Namespace):
    from .service import ServiceClient

    address = args.unix_socket if args.unix_socket else args.connect
    return ServiceClient(address)


def _cmd_client(args: argparse.Namespace) -> int:
    """Talk to a running ``repro serve`` daemon.

    Server-side failures surface as the same typed errors local commands
    raise, so the exit-code table (docs/API.md) applies unchanged.
    """
    with _client_from(args) as svc:
        if args.action == "prove":
            envelope = svc.prove(args.workload, preset=args.preset,
                                 seed=args.seed, priority=args.priority,
                                 timeout_s=args.timeout)
            print(f"proof: {len(envelope)} bytes")
            if args.out:
                with open(args.out, "wb") as fh:
                    fh.write(envelope)
                print(f"proof bundle written to {args.out}")
            return 0
        if args.action == "verify":
            with open(args.bundle, "rb") as fh:
                envelope = fh.read()
            ok = svc.verify(envelope, circuit_id=args.workload or "",
                            timeout_s=args.timeout)
            if ok:
                print("proof valid")
                return 0
            print("proof INVALID", file=sys.stderr)
            return EXIT_VERIFICATION_ERROR
        if args.action == "status":
            print(json.dumps(svc.status(args.job_id), indent=2))
            return 0
        if args.action == "stats":
            print(json.dumps(svc.stats(), indent=2))
            return 0
        if args.action == "shutdown":
            svc.shutdown_server()
            print("server draining")
            return 0
    raise AssertionError(f"unhandled client action {args.action!r}")


#: One exit-code contract for every command, local or via the service.
EXIT_CODE_TABLE = """\
exit codes: 0 success | 1 generic failure | 2 usage error |
3 configuration (ConfigError) | 4 malformed input (DeserializationError) |
5 proof invalid (VerificationError) | 6 deadline expired
(ProverTimeoutError).  `repro client` maps server-side errors onto the
same codes."""


def build_parser() -> argparse.ArgumentParser:
    from .snark.params import PRESETS

    # Shared option vocabulary (one spelling everywhere): commands opt in
    # to exactly the parents they support.
    preset_p = argparse.ArgumentParser(add_help=False)
    preset_p.add_argument("--preset", choices=sorted(PRESETS),
                          default="test-fast",
                          help="security preset (default %(default)s)")
    workers_p = argparse.ArgumentParser(add_help=False)
    workers_p.add_argument("--workers", type=int, default=None, metavar="N",
                           help="hash Merkle leaves across N worker "
                                "processes (proof bytes are identical at "
                                "any N)")
    timeout_p = argparse.ArgumentParser(add_help=False)
    timeout_p.add_argument("--timeout", type=float, default=None,
                           metavar="SECS",
                           help="cooperative proving deadline; on expiry "
                                f"exit {EXIT_TIMEOUT} (ProverTimeoutError)")
    telemetry_p = argparse.ArgumentParser(add_help=False)
    telemetry_p.add_argument("--metrics-out", metavar="PATH", default=None,
                             help="write counters/gauges/latency histograms "
                                  "as OpenMetrics text")
    telemetry_p.add_argument("--flight-log", metavar="PATH", default=None,
                             help="append flight-recorder records to PATH "
                                  "as JSON lines (read back with `repro "
                                  "report --log PATH`)")
    connect_p = argparse.ArgumentParser(add_help=False)
    connect_p.add_argument("--connect", metavar="HOST:PORT",
                           default="127.0.0.1:7464",
                           help="service TCP address "
                                "(default %(default)s)")
    connect_p.add_argument("--unix-socket", metavar="PATH", default=None,
                           help="connect over a unix socket instead of TCP")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="NoCap (MICRO 2024) reproduction: hash-based ZKPs with "
                    "a co-designed accelerator model",
        epilog=EXIT_CODE_TABLE + "  Pass --strict to re-raise typed input "
               "errors with a full traceback instead of the one-line "
               "message.")
    parser.add_argument("--strict", action="store_true",
                        help="re-raise typed input errors with a traceback "
                             "instead of the one-line message")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", help="print Tables I/IV/V").set_defaults(
        func=_cmd_tables)

    sim = sub.add_parser("simulate", help="simulate one NoCap proof")
    sim.add_argument("--log-n", type=int, default=24,
                     help="log2 of the padded constraint count (default 24)")
    sim.add_argument("--no-recompute", action="store_true",
                     help="disable the sumcheck recomputation optimization")
    for resource in ("arith", "hash", "ntt", "hbm", "rf"):
        sim.add_argument(f"--{resource}", type=float, default=1.0,
                         help=f"scale factor for {resource} (default 1.0)")
    sim.add_argument("--json", action="store_true",
                     help="print a machine-readable summary instead of text")
    sim.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write the simulated task timeline as Chrome "
                          "trace-event JSON")
    sim.set_defaults(func=_cmd_simulate)

    sub.add_parser("area", help="print the Table II area breakdown"
                   ).set_defaults(func=_cmd_area)
    sub.add_parser("sensitivity", help="print the Fig. 7 sweep"
                   ).set_defaults(func=_cmd_sensitivity)

    prove = sub.add_parser(
        "prove", help="prove+verify a demo workload",
        parents=[preset_p, workers_p, timeout_p, telemetry_p])
    prove.add_argument("workload", choices=_workload_choices())
    prove.add_argument("--out", metavar="PATH", default=None,
                       help="write the proof as a self-describing envelope "
                            "(verify it with `repro verify PATH`)")
    prove.add_argument("--trace", action="store_true",
                       help="record prover phase spans and print the tree")
    prove.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write the span tree as Chrome trace-event JSON "
                            "(implies --trace)")
    prove.add_argument("--metrics", action="store_true",
                       help="print kernel counters (hashes, butterflies, ...)")
    prove.set_defaults(func=_cmd_prove)

    ver = sub.add_parser(
        "verify",
        help="verify a proof bundle written by `repro prove --out`")
    ver.add_argument("bundle", metavar="BUNDLE",
                     help="path to a serialized proof envelope")
    ver.add_argument("--workload", choices=_workload_choices(), default=None,
                     help="statement the proof claims (default: the circuit "
                          "id embedded in the envelope)")
    ver.set_defaults(func=_cmd_verify)

    trace = sub.add_parser(
        "trace",
        help="prove under the tracer + simulate on NoCap, export Chrome "
             "trace and per-phase breakdown",
        parents=[preset_p, workers_p, timeout_p, telemetry_p])
    trace.add_argument("workload", choices=_workload_choices())
    trace.add_argument("--trace-out", metavar="PATH", default="trace.json",
                       help="Chrome trace-event JSON output path "
                            "(default trace.json)")
    trace.add_argument("--phases-out", metavar="PATH",
                       default="BENCH_phases.json",
                       help="per-phase breakdown output path "
                            "(default BENCH_phases.json)")
    trace.add_argument("--metrics", action="store_true",
                       help="also print kernel counters")
    trace.set_defaults(func=_cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="run the proving service daemon (docs/SERVICE.md)",
        parents=[preset_p, workers_p, timeout_p, telemetry_p])
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP bind address (default %(default)s)")
    serve.add_argument("--port", type=int, default=7464,
                       help="TCP port; 0 picks a free one "
                            "(default %(default)s)")
    serve.add_argument("--unix-socket", metavar="PATH", default=None,
                       help="listen on a unix socket instead of TCP")
    serve.add_argument("--queue-depth", type=int, default=64, metavar="N",
                       help="bounded job-queue depth; submissions past it "
                            "are rejected with the 429-style queue-full "
                            "error (default %(default)s)")
    serve.add_argument("--max-per-client", type=int, default=16, metavar="N",
                       help="per-client fairness cap on queued jobs "
                            "(default %(default)s)")
    serve.add_argument("--job-slots", type=int, default=1, metavar="N",
                       help="concurrent proving jobs; must stay 1 when "
                            "--workers > 1 (default %(default)s)")
    serve.add_argument("--key-cache-mb", type=int, default=256,
                       metavar="MB",
                       help="proving/verifying-key cache budget "
                            "(default %(default)s)")
    serve.add_argument("--proof-cache-mb", type=int, default=64,
                       metavar="MB",
                       help="content-addressed proof cache budget "
                            "(default %(default)s)")
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser(
        "client",
        help="submit work to a running `repro serve` daemon")
    csub = client.add_subparsers(dest="action", required=True)
    cprove = csub.add_parser(
        "prove", help="prove a workload on the service",
        parents=[connect_p, preset_p, timeout_p])
    cprove.add_argument("workload", choices=_workload_choices())
    cprove.add_argument("--seed", type=int, default=None,
                        help="zk-mask seed (fixed seed => deterministic, "
                             "cacheable proof bytes)")
    cprove.add_argument("--priority", type=int, default=0,
                        help="queue priority, lower runs sooner "
                             "(default %(default)s)")
    cprove.add_argument("--out", metavar="PATH", default=None,
                        help="write the returned proof envelope "
                             "(verify with `repro verify PATH`)")
    cprove.set_defaults(func=_cmd_client)
    cverify = csub.add_parser(
        "verify", help="verify a proof envelope on the service",
        parents=[connect_p, timeout_p])
    cverify.add_argument("bundle", metavar="BUNDLE",
                         help="path to a serialized proof envelope")
    cverify.add_argument("--workload", choices=_workload_choices(),
                         default=None,
                         help="statement the proof claims (default: the "
                              "circuit id embedded in the envelope)")
    cverify.set_defaults(func=_cmd_client)
    cstatus = csub.add_parser(
        "status", help="query one job's state", parents=[connect_p])
    cstatus.add_argument("job_id", metavar="JOB_ID")
    cstatus.set_defaults(func=_cmd_client)
    cstats = csub.add_parser(
        "stats", help="dump service queue/cache/job statistics",
        parents=[connect_p])
    cstats.set_defaults(func=_cmd_client)
    cshutdown = csub.add_parser(
        "shutdown", help="ask the daemon to drain and exit",
        parents=[connect_p])
    cshutdown.set_defaults(func=_cmd_client)

    doctor = sub.add_parser(
        "doctor",
        help="list repro shared-memory segments and reclaim orphans "
             "left by killed provers")
    doctor.add_argument("--dry-run", action="store_true",
                        help="report orphans without unlinking them")
    doctor.set_defaults(func=_cmd_doctor)

    metrics = sub.add_parser(
        "metrics",
        help="render the process metrics registry as OpenMetrics text")
    metrics.add_argument("--out", metavar="PATH", default=None,
                         help="write to PATH instead of stdout")
    metrics.set_defaults(func=_cmd_metrics)

    report = sub.add_parser(
        "report",
        help="dump recent flight-recorder job reports and supervision "
             "events")
    report.add_argument("--last", type=int, default=20, metavar="N",
                        help="show the most recent N records "
                             "(default: %(default)s)")
    report.add_argument("--json", action="store_true",
                        help="emit raw JSON records instead of the "
                             "one-line-per-event rendering")
    report.add_argument("--log", metavar="PATH", default=None,
                        help="read records from a JSONL flight log "
                             "(default: $REPRO_FLIGHT_LOG, else the "
                             "in-memory ring)")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .errors import (
        ConfigError,
        DeserializationError,
        ProverTimeoutError,
        ReproError,
        TranscriptError,
        VerificationError,
    )

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): not an error.
        return 0
    except ReproError as exc:
        # User-input errors get a one-line message and a distinct exit
        # code, not a traceback (unless --strict asks for one).  The
        # mapping is the same whether the error was raised locally or
        # relayed from a `repro serve` daemon by `repro client`.
        if args.strict:
            raise
        if isinstance(exc, ConfigError):
            code = EXIT_CONFIG_ERROR
        elif isinstance(exc, DeserializationError):
            code = EXIT_DESERIALIZATION_ERROR
        elif isinstance(exc, ProverTimeoutError):
            code = EXIT_TIMEOUT
        elif isinstance(exc, (VerificationError, TranscriptError)):
            code = EXIT_VERIFICATION_ERROR
        else:
            # Service/transport errors (queue full, server unreachable):
            # transient operational failures, not input errors.
            code = 1
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
