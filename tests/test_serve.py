"""Warm-session serving layer: EngineSession, MicroBatcher, one-tenant Router."""

import json

import numpy as np
import pytest

from repro.errors import ConfigError, ServeOverflowError, ShapeError
from repro.harness.experiments.common import sdgc_config
from repro.radixnet import benchmark_input, build_benchmark
from repro.serve import (
    EngineSession,
    MicroBatcher,
    ModelRegistry,
    Router,
    bench_serve,
    load_bench_records,
)


@pytest.fixture(scope="module")
def bench():
    net = build_benchmark("144-24", seed=0)
    cfg = sdgc_config(net.num_layers)
    y0 = benchmark_input(net, 64, seed=1)
    return net, cfg, y0


class FakeClock:
    """Deterministic clock for max-wait tests."""

    def __init__(self):
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


def make_session(bench) -> EngineSession:
    net, cfg, _ = bench
    return EngineSession(net, cfg)


def solo_router(session, **kwargs) -> Router:
    """A router whose only tenant, ``'m'``, is ``session``."""
    registry = ModelRegistry()
    registry.register("m", session=session)
    return Router(registry, **kwargs)


def serve_solo(router, requests):
    """Serve a bare request stream to tenant ``'m'``; its ServeReport."""
    return router.serve(("m", y0) for y0 in requests).per_model["m"]


# -------------------------------------------------------------- EngineSession
def test_session_runs_and_counts(bench):
    net, cfg, y0 = bench
    session = make_session(bench)
    assert session.warmup_seconds > 0  # views were pre-built
    r1 = session.run(y0)
    r2 = session.run(y0)
    assert np.array_equal(r1.y, r2.y)  # warm reruns are deterministic
    stats = session.stats()
    assert stats["calls"] == 2
    assert stats["columns"] == 2 * y0.shape[1]
    assert stats["columns_per_second"] > 0
    assert set(r1.stage_seconds) <= set(stats["stage_seconds"])
    assert stats["scratch"]["hits"] > 0  # pooled buffers actually recycled


def test_session_matches_cold_engine(bench):
    from repro.harness.runner import run_engine

    net, cfg, y0 = bench
    warm = make_session(bench).run(y0)
    cold = run_engine("snicit", net, y0, snicit_config=cfg)
    assert np.array_equal(warm.y, cold.result.y)


def test_session_plan_preempts_per_block_redecision(bench):
    """Regression: warm blocks used to re-derive each layer's strategy via
    memo lookups per call (and before that, bypassed the memo entirely).
    Warmup now bakes a per-layer plan; every warm spMM must dispatch through
    it, leaving the memo untouched."""
    net, cfg, y0 = bench
    session = make_session(bench)
    assert session.plan is not None
    assert session.plan.stats()["layers"] == net.num_layers
    session.run(y0)
    first = session.plan.stats()["calls"]
    assert first > 0
    session.run(y0)
    assert session.plan.stats()["calls"] > first
    # the plan preempts the memo: no per-block strategy re-decision at all
    stats = session.memo.stats()
    assert (stats["entries"], stats["hits"], stats["misses"]) == (0, 0, 0)
    # strategy counters keep flowing through the pre-resolved plan handles
    snap = session.metrics.snapshot()
    assert any(k.startswith("spmm_strategy_total") and v > 0 for k, v in snap.items())


def test_session_demote_drops_plan_and_rewarm_restores(bench):
    net, cfg, y0 = bench
    session = make_session(bench)
    reference = session.run(y0)
    session.demote()
    assert session.plan is None and session.engine.plan is None
    # a demoted session keeps serving (champion path) bitwise identically
    assert np.array_equal(session.run(y0).y, reference.y)
    session.warmup()
    assert session.plan is not None
    assert np.array_equal(session.run(y0).y, reference.y)


def test_session_centroid_reuse_lifecycle(bench):
    net, cfg, y0 = bench
    session = EngineSession(net, cfg, centroid_reuse=True, reuse_tolerance=0.0)
    off = make_session(bench)
    r1, r2 = session.run(y0), session.run(y0)
    reference = off.run(y0)
    assert np.array_equal(r1.y, reference.y)
    assert np.array_equal(r2.y, reference.y)  # assign-only hit, bitwise equal
    stats = session.stats()
    assert stats["centroid_cache"]["hits"] == 1
    assert stats["centroid_cache"]["fills"] == 1
    snap = session.metrics.snapshot()
    assert snap["centroid_cache_hits_total"] == 1
    assert snap["centroid_cache_entries"] == 1
    # reuse-off sessions advertise no cache at all
    assert "centroid_cache" not in off.stats()


def test_session_reuse_ignored_for_baseline_engines(bench):
    net, _, _ = bench
    session = EngineSession(net, kind="xy2021", centroid_reuse=True)
    assert session.reuse is None


def test_batcher_counts_reuse_outcomes(bench):
    net, cfg, y0 = bench
    session = EngineSession(net, cfg, centroid_reuse=True, reuse_tolerance=0.0)
    batcher = MicroBatcher(session, max_batch=32, max_wait_s=60.0)
    for _ in range(2):
        batcher.submit(y0[:, :32])
    stats = batcher.stats()
    assert stats["reuse_blocks"] == {"cold": 1, "hit": 1}
    assert session.metrics.snapshot()['serve_reuse_blocks_total{outcome="hit"}'] == 1


def test_session_requires_config_for_snicit(bench):
    net, _, _ = bench
    with pytest.raises(ConfigError):
        EngineSession(net, None)


def test_session_baseline_engine(bench):
    net, _, y0 = bench
    session = EngineSession(net, kind="xy2021")
    res = session.run(y0)
    assert res.y.shape == (net.output_dim, y0.shape[1])
    assert session.stats()["engine"] == "xy2021"


# --------------------------------------------------------------- MicroBatcher
def test_batcher_uneven_requests_match_single_block(bench):
    """Requests of uneven widths packed into one block must slice back to
    exactly the block run's columns, request by request."""
    net, cfg, y0 = bench
    widths = [1, 3, 5, 2, 4]
    requests, lo = [], 0
    for k in widths:
        requests.append(y0[:, lo : lo + k])
        lo += k

    batcher = MicroBatcher(make_session(bench), max_batch=64, max_wait_s=60.0)
    tickets = [batcher.submit(r) for r in requests]
    assert not tickets[0].ready  # 15 columns < max_batch: still queued
    assert batcher.drain() == 1  # everything fit one block

    reference = make_session(bench).run(y0[:, :lo])
    col = 0
    for ticket, k in zip(tickets, widths):
        assert ticket.ready
        assert ticket.y.shape == (net.output_dim, k)
        assert np.array_equal(ticket.y, reference.y[:, col : col + k])
        assert ticket.batch_columns == lo
        col += k


def test_batcher_flushes_at_max_batch(bench):
    batcher = MicroBatcher(make_session(bench), max_batch=8, max_wait_s=60.0)
    tickets = [batcher.submit(np.ones((144, 4), dtype=np.float32)) for _ in range(3)]
    # third submit crossed 8 columns -> first two rode out together
    assert tickets[0].ready and tickets[1].ready
    assert not tickets[2].ready
    assert tickets[0].batch_columns == 8
    stats = batcher.stats()
    assert stats["batches"] == 1 and stats["pending_requests"] == 1


def test_batcher_oversized_request_runs_alone(bench):
    net, cfg, y0 = bench
    batcher = MicroBatcher(make_session(bench), max_batch=4, max_wait_s=60.0)
    ticket = batcher.submit(y0[:, :10])  # wider than max_batch
    assert ticket.ready and ticket.batch_columns == 10


def test_batcher_max_wait_flush(bench):
    clock = FakeClock()
    batcher = MicroBatcher(
        make_session(bench), max_batch=64, max_wait_s=0.5, clock=clock
    )
    ticket = batcher.submit(np.ones((144, 2), dtype=np.float32))
    assert batcher.poll() == 0  # just arrived: not due yet
    clock.advance(0.4)
    assert batcher.poll() == 0  # still under max_wait
    clock.advance(0.2)
    assert batcher.poll() == 1  # oldest aged past max_wait -> flushed
    assert ticket.ready
    assert ticket.latency_seconds == pytest.approx(0.6)
    assert batcher.stats()["wait_flushes"] == 1


def test_batcher_queue_overflow_rejects(bench):
    batcher = MicroBatcher(
        make_session(bench), max_batch=64, max_wait_s=60.0, max_pending=2
    )
    req = np.ones((144, 1), dtype=np.float32)
    batcher.submit(req)
    batcher.submit(req)
    with pytest.raises(ServeOverflowError):
        batcher.submit(req)
    assert batcher.stats()["rejected"] == 1
    assert batcher.stats()["pending_requests"] == 2  # nothing dropped
    assert batcher.drain() == 1


def test_batcher_rejects_bad_requests(bench):
    batcher = MicroBatcher(make_session(bench), max_batch=8)
    with pytest.raises(ShapeError):
        batcher.submit(np.ones((7, 2), dtype=np.float32))  # wrong input dim
    with pytest.raises(ShapeError):
        batcher.submit(np.ones((144, 0), dtype=np.float32))  # empty request
    with pytest.raises(ShapeError):
        MicroBatcher(make_session(bench), max_batch=0)


def test_ticket_access_before_resolution_raises(bench):
    batcher = MicroBatcher(make_session(bench), max_batch=64, max_wait_s=60.0)
    ticket = batcher.submit(np.ones((144, 1), dtype=np.float32))
    with pytest.raises(ServeOverflowError):
        _ = ticket.y
    with pytest.raises(ServeOverflowError):
        _ = ticket.latency_seconds


# ------------------------------------------------------- one-tenant Router
def test_server_serves_stream_and_reports(bench):
    net, cfg, y0 = bench
    requests = [y0[:, lo : lo + 2] for lo in range(0, 32, 2)]
    router = solo_router(make_session(bench), max_batch=8, max_wait_s=60.0)
    report = serve_solo(router, requests)
    assert report.requests == len(requests)
    assert len(report.served) == len(requests) and not report.rejected
    assert report.columns == 32
    assert report.requests_per_second > 0
    quantiles = report.latency_quantiles()
    assert quantiles["p50"] <= quantiles["p95"] <= quantiles["p100"]
    summary = report.summary()
    assert summary["served"] == len(requests)
    assert router.stats()["lanes"]["m"]["batches"] >= 4


def test_server_overflow_is_recorded_not_silent(bench):
    net, cfg, y0 = bench
    requests = [y0[:, lo : lo + 1] for lo in range(12)]
    # queue of 2 and a batch the stream can never fill synchronously
    router = solo_router(
        make_session(bench), max_batch=64, max_wait_s=60.0, queue_limit=2
    )
    report = serve_solo(router, requests)
    assert len(report.rejected) == 10
    assert all(msg for _, msg in report.rejected)
    assert len(report.served) == 2
    assert all(t.ready for t in report.served)  # drained at end of stream


def test_serve_report_status_distinguishes_idle_from_shed(bench):
    from repro.serve import ServeReport

    # no traffic: nothing arrived, so there is no latency distribution at all
    idle = ServeReport(wall_seconds=1.0)
    assert idle.status == "no_traffic"
    assert idle.requests_per_second == 0.0
    assert idle.latency_quantiles() is None
    assert idle.summary()["status"] == "no_traffic"
    assert idle.summary()["latency_seconds"] is None

    # all rejected: traffic arrived but backpressure shed every request —
    # same 0.0 rps, but the status must say why
    shed = ServeReport(rejected=[(0, "full"), (1, "full")], wall_seconds=1.0)
    assert shed.status == "all_rejected"
    assert shed.requests == 2
    assert shed.requests_per_second == 0.0
    assert shed.latency_quantiles() is None
    assert shed.summary()["status"] == "all_rejected"


def test_serve_report_status_ok_when_anything_served(bench):
    net, cfg, y0 = bench
    router = solo_router(make_session(bench), max_batch=8, max_wait_s=60.0)
    report = serve_solo(router, [y0[:, :2]])
    assert report.status == "ok"
    assert report.summary()["status"] == "ok"
    assert report.latency_quantiles() is not None


def test_server_all_rejected_stream_reports_status(bench):
    net, cfg, y0 = bench
    router = solo_router(
        make_session(bench), max_batch=64, max_wait_s=60.0, queue_limit=1
    )
    # saturate the queue before the stream: every arrival then overflows
    parked = router.submit("m", y0[:, :1])
    report = serve_solo(router, (y0[:, :1] for _ in range(3)))
    assert parked.ready  # end-of-stream drain still resolves the old ticket
    assert report.status == "all_rejected"
    assert len(report.rejected) == 3 and not report.served
    assert report.requests_per_second == 0.0
    assert report.latency_quantiles() is None


# ------------------------------------------------------------------ bench JSON
def test_bench_serve_writes_machine_readable_json(tmp_path):
    out = tmp_path / "BENCH_serve.json"
    result = bench_serve(
        benchmark="144-24", requests=6, request_cols=2, max_batch=6, out=out
    )
    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == 6
    records = load_bench_records(on_disk)
    assert len(records) == 1
    rec = records[0]
    assert rec["tier"] == rec["benchmark"] == "144-24"
    assert rec["requests"] == 6
    assert rec["cold"]["requests_per_second"] > 0
    assert rec["warm"]["requests_per_second"] > 0
    assert rec["speedup"] == pytest.approx(result["tiers"][0]["speedup"])
    assert rec["categories_match"] is True
    assert rec["warm"]["batcher"]["rejected"] == 0
    # warm blocks dispatch through the warmup-baked strategy plan (no
    # per-block re-decision), and the record reports it
    plan = rec["warm"]["session"]["plan"]
    assert plan["layers"] > 0
    assert plan["calls"] > 0
    memo = rec["warm"]["session"]["memo"]
    assert (memo["entries"], memo["hits"], memo["misses"]) == (0, 0, 0)
    # warm-vs-cold bitwise agreement is recorded per tier (SDGC tiers may
    # legitimately differ — conversion grouping depends on the batch shape)
    assert isinstance(rec["outputs_identical"], bool)
    assert rec["warm_over_cold"] > 0
    # steady-state view: warmup and the first (plan-priming) block are
    # reported separately from the hot-path throughput
    steady = rec["warm"]["steady_state"]
    assert steady["blocks"] == rec["warm"]["batcher"]["batches"] - 1
    assert rec["warm"]["first_block"]["busy_seconds"] > 0
    assert rec["warm"]["session"]["warmup_seconds"] > 0


def test_bench_serve_reuse_ab_pass_on_repeat_stream(tmp_path):
    result = bench_serve(
        benchmark="144-24", requests=8, request_cols=2, max_batch=8,
        out=None, stream="repeat", centroid_reuse=True, reuse_tolerance=0.0,
    )
    rec = load_bench_records(result)[0]
    reuse = rec["reuse"]
    # identical repeated blocks must hit assign-only and stay bitwise equal
    assert reuse["cache"]["hits"] > 0
    assert reuse["cache"]["fills"] == 1
    assert reuse["outputs_identical"] is True
    assert reuse["categories_match"] is True
    assert reuse["reuse_blocks"]["hit"] > 0
    assert result["stream"] == "repeat"


def test_bench_serve_drift_stream_invalidates(tmp_path):
    result = bench_serve(
        benchmark="144-24", requests=8, request_cols=4, max_batch=16,
        out=None, stream="drift", centroid_reuse=True, reuse_tolerance=0.5,
    )
    reuse = load_bench_records(result)[0]["reuse"]
    assert sum(reuse["cache"]["invalidations"].values()) > 0
    assert reuse["reuse_blocks"].get("stale", 0) > 0
    # stale blocks fall back to full conversion: categories stay correct
    assert reuse["categories_match"] is True
    assert load_bench_records(result)[0]["categories_match"] is True


# ------------------------------------------------------- latency attribution
def test_ticket_breakdown_attributes_latency(bench):
    net, cfg, y0 = bench
    batcher = MicroBatcher(make_session(bench), max_batch=8, max_wait_s=60.0)
    t1 = batcher.submit(y0[:, :2])
    t2 = batcher.submit(y0[:, 2:4])
    batcher.drain()
    for ticket in (t1, t2):
        b = ticket.breakdown()
        assert b["queue_wait_seconds"] == 0.0  # no intake queue in sync mode
        assert b["batch_wait_seconds"] >= 0.0
        assert b["execute_seconds"] > 0.0
        assert b["block_id"] == 1
        assert b["batch_columns"] == 4
        assert b["stage_seconds"]  # the block's per-stage split rides along
    # both tickets rode one block: they share its execute/stage accounting
    assert t1.execute_seconds == t2.execute_seconds
    assert t1.stage_seconds == t2.stage_seconds


def test_ticket_breakdown_before_packing_has_no_block_fields(bench):
    net, cfg, y0 = bench
    batcher = MicroBatcher(make_session(bench), max_batch=64, max_wait_s=60.0)
    ticket = batcher.submit(y0[:, :1])  # pending, nothing flushed yet
    b = ticket.breakdown()
    assert b["batch_wait_seconds"] is None
    assert b["execute_seconds"] is None and b["block_id"] is None
    batcher.drain()


def test_block_ids_are_sequential_across_flushes(bench):
    net, cfg, y0 = bench
    batcher = MicroBatcher(make_session(bench), max_batch=2, max_wait_s=60.0)
    t1 = batcher.submit(y0[:, :2])   # fills block 1
    t2 = batcher.submit(y0[:, 2:4])  # fills block 2
    assert (t1.block_id, t2.block_id) == (1, 2)


# ------------------------------------------------------------ resolve hook
def test_on_resolve_sees_every_resolved_ticket(bench):
    net, cfg, y0 = bench
    batcher = MicroBatcher(make_session(bench), max_batch=4, max_wait_s=60.0)
    seen = []
    batcher.on_resolve = seen.append
    tickets = [batcher.submit(y0[:, i : i + 1]) for i in range(3)]
    batcher.drain()
    assert seen == tickets
    assert all(t.ready for t in seen)


def test_on_resolve_failure_cannot_break_serving(bench):
    net, cfg, y0 = bench
    batcher = MicroBatcher(make_session(bench), max_batch=4, max_wait_s=60.0)

    def explode(ticket):
        raise RuntimeError("subscriber wedged")

    batcher.on_resolve = explode
    ticket = batcher.submit(y0[:, :2])
    batcher.drain()
    assert ticket.ready  # the guarded hook swallowed the subscriber's crash


class _DoomedSession:
    """Session stand-in whose every block dies mid-execution."""

    def __init__(self):
        from types import SimpleNamespace

        from repro.obs import MetricsRegistry, as_tracer

        self.tracer = as_tracer(None)
        self.metrics = MetricsRegistry()
        self.network = SimpleNamespace(
            validate_input=lambda y0: np.asarray(y0, dtype=np.float64)
        )

    def run(self, block):
        raise RuntimeError("engine died")


def test_on_resolve_sees_failed_tickets_too():
    batcher = MicroBatcher(_DoomedSession(), max_batch=4, max_wait_s=60.0)
    seen = []
    batcher.on_resolve = seen.append
    ticket = batcher.enqueue(np.ones((4, 2)))
    with pytest.raises(RuntimeError):
        batcher.drain()
    # the failure was routed to the ticket AND to the subscriber, with the
    # execute time stamped so a failed request is still attributable
    assert seen == [ticket]
    assert ticket.failed and ticket.execute_seconds is not None
    assert ticket.breakdown()["execute_seconds"] is not None


# -------------------------------------------------------------- JSON export
def test_serve_report_to_json_is_json_dumpable(bench):
    net, cfg, y0 = bench
    router = solo_router(make_session(bench), max_batch=8, max_wait_s=60.0)
    report = serve_solo(router, [y0[:, :2], y0[:, 2:4]])
    assert report.status == "ok"
    # consumers go through to_json: everything (numpy scalars included)
    # must be plain JSON by the time json.dumps sees it
    parsed = json.loads(json.dumps(report.to_json()))
    assert parsed["status"] == "ok"
    assert parsed["served"] == 2
    assert isinstance(parsed["latency_seconds"]["p99"], float)
