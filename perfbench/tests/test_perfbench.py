"""Tests of the benchmark's own code (run: python3 -m pytest perfbench/tests)."""

import json
import threading
import time
import types
from pathlib import Path

import pytest

import layers
import loadgen
import workloads
from spans import Patcher, SpanRecorder, self_times
from stats import tail_percentile, timing_summary

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(40, 75.0), (100, 90.0), (1000, 99.0),
                                    (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    assert tail_percentile(n) == pytest.approx(pct)
    values = [float(i) for i in range(n)]
    summary = timing_summary(values)
    beyond = [v for v in values if v > summary["tail"]]
    assert len(beyond) == 10
    assert summary["n"] == n


def test_no_tail_without_ten_samples_beyond_the_median():
    assert tail_percentile(20) is None
    assert tail_percentile(3) is None
    assert tail_percentile(21) == pytest.approx(100 * 11 / 21)
    summary = timing_summary([1.0, 2.0, 3.0])
    assert summary["p50"] == 2.0 and summary["tail"] is None


# -- self time ---------------------------------------------------------------

def _span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "job": None}


def test_self_time_subtracts_children_once():
    spans = [_span("a", 0.0, 10.0),
             _span("b", 1.0, 4.0, parent=0),
             _span("c", 3.0, 6.0, parent=0),      # overlaps b
             _span("d", 2.0, 3.0, parent=1),
             _span("e", 9.0, 12.0, parent=0)]     # runs past its parent
    got = self_times(spans)
    assert got["a"] == pytest.approx(10 - 5 - 1)
    assert got["b"] == pytest.approx(2.0)
    assert got["c"] == pytest.approx(3.0)
    assert got["d"] == pytest.approx(1.0)
    assert got["e"] == pytest.approx(3.0)


def test_wrappers_nest_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda: time.sleep(0.01)
    mod.outer = lambda: (mod.inner(), time.sleep(0.01))
    originals = (mod.inner, mod.outer)
    rec = SpanRecorder()
    patcher = Patcher(rec)
    patcher.span(mod, "inner", "inner",
                 counts=lambda out: {"inner.calls": 1})
    patcher.span(mod, "outer", "outer", job=lambda: "job-1")
    mod.outer()
    patcher.restore()
    assert (mod.inner, mod.outer) == originals
    outer, inner = rec.spans
    assert inner["parent"] == 0 and inner["job"] == "job-1"
    assert rec.counts["inner.calls"] == 1
    selfs = self_times(rec.spans)
    assert selfs["outer"] < outer["end"] - outer["start"]
    from repro.obs.export import validate_chrome_trace
    assert validate_chrome_trace(rec.chrome_trace([])) == []


def test_threads_keep_their_own_parents():
    rec = SpanRecorder()
    root = rec.begin("root")

    def work():
        i = rec.begin("thread")
        rec.end(i)

    th = threading.Thread(target=work)
    th.start()
    th.join(5)
    assert not th.is_alive()
    rec.end(root)
    assert rec.spans[1]["parent"] is None


# -- open loop under a stalled server ---------------------------------------

def test_due_time_accounting_charges_a_stall_to_later_requests():
    assert loadgen.CONNECTIONS == 2
    schedule = [loadgen.Request(i, 0.05 * i, loadgen.COLD, "sha", i)
                for i in range(6)]
    server = threading.Lock()          # one job slot

    def handler(conn, req, ref):
        with server:
            time.sleep(0.6 if req.index == 0 else 0.01)
        return req.index

    outcomes = loadgen.run_open_loop(schedule, handler)
    assert [o.result for o in outcomes] == list(range(6))
    assert all(o.ok for o in outcomes)
    for o in outcomes:
        assert o.latency_s == pytest.approx(o.done - o.due)
        assert o.done >= o.sent >= o.due - 1e-3
    # Requests due while both connections were stuck were sent late,
    # and their latency includes the wait for the stalled request.
    for o in outcomes[2:]:
        assert o.lag_s > 0.2
        assert o.latency_s > 0.6 - o.request.due - 0.05


def test_failed_and_dependent_requests_are_counted():
    schedule = [loadgen.Request(0, 0.0, loadgen.COLD, "sha", 1),
                loadgen.Request(1, 0.01, loadgen.VERIFY, "sha", 1, ref=0)]

    def handler(conn, req, ref):
        raise RuntimeError("refused")

    outcomes = loadgen.run_open_loop(schedule, handler)
    assert [o.ok for o in outcomes] == [False, False]
    assert "refused" in outcomes[0].error
    assert "did not succeed" in outcomes[1].error


# -- seeded inputs -----------------------------------------------------------

def test_same_seed_gives_identical_inputs():
    assert workloads.single_inputs(5) == workloads.single_inputs(5)
    assert (workloads.service_schedule(5, 20.0)
            == workloads.service_schedule(5, 20.0))
    assert workloads.single_inputs(5) != workloads.single_inputs(6)
    assert (workloads.service_schedule(5, 20.0)
            != workloads.service_schedule(6, 20.0))


def test_schedule_mix_and_references():
    counts = set()
    for seed in range(5):
        schedule = workloads.service_schedule(seed, 30.0)
        assert abs(len(schedule) - 30.0 * workloads.SERVICE_RATE) <= 3
        assert schedule[-1].due < 30.0 * 1.2
        counts.add(tuple(sorted(
            (k, sum(r.kind == k for r in schedule))
            for k in (loadgen.COLD, loadgen.HIT, loadgen.VERIFY))))
        colds = [r for r in schedule if r.kind == loadgen.COLD]
        assert len({r.seed for r in colds}) == len(colds)
        for r in schedule:
            if r.kind != loadgen.COLD:
                ref = schedule[r.ref]
                assert ref.kind == loadgen.COLD and ref.circuit == r.circuit
                assert ref.due <= r.due - 1.0
    assert len(counts) == 1    # every seed offers the same mix


def test_circuit_mean_averages_per_circuit_medians():
    def outcome(circuit, latency):
        req = loadgen.Request(0, 0.0, loadgen.VERIFY, circuit, 0)
        return loadgen.Outcome(req, 0.0, 0.0, latency, True)

    outcomes = [outcome("sha", t) for t in (0.10, 0.11, 0.50)] + \
        [outcome("aes", t) for t in (0.30, 0.31)]
    got = workloads._circuit_mean(outcomes, lambda o: o.latency_s)
    assert got == pytest.approx((0.11 + 0.305) / 2)


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.per_layer_specs()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.OP_UNIT)
    assert {m["name"] for m in spec["end_to_end"]} == set(
        workloads.E2E_METRICS)
