"""Multi-network routing suite: registry, memory budget, isolation, reports.

Three layers of coverage:

* unit — :class:`~repro.gpu.memory.MemoryBudget` ledger arithmetic,
  :meth:`~repro.gpu.memory.BufferPool.clear`, LRU enforcement order and
  ``protect`` semantics against fake sessions on a fake clock;
* concurrency — per-lane backpressure on the :class:`~repro.serve.router.
  AsyncRouter` (one tenant's burst must not reject another's), using the
  gated fake-session pattern from ``test_async_serve.py``;
* differential — mixed-traffic streams through the real engine must be
  bitwise identical to single-tenant serves of the same per-tenant streams,
  with and without budget-driven warm-to-cold demotions mid-stream, and one
  scrape of the shared registry must keep tenants separable by label.
"""

import gc
import json
import threading
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    DeviceError,
    ServeClosedError,
    ServeOverflowError,
    ShapeError,
)
from repro.gpu.memory import BufferPool, MemoryBudget
from repro.harness.experiments.common import sdgc_config
from repro.obs import MetricsRegistry
from repro.radixnet import benchmark_input, build_benchmark
from repro.serve import (
    AsyncRouter,
    EngineSession,
    MicroBatcher,
    ModelRegistry,
    Router,
    ServeReport,
)

WAIT = 20.0


# ------------------------------------------------------------------ fixtures
class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class FakeNetwork:
    input_dim = 4

    def validate_input(self, y0):
        y0 = np.asarray(y0, dtype=np.float64)
        if y0.ndim != 2 or y0.shape[0] != self.input_dim:
            raise ShapeError(f"input must be ({self.input_dim}, B), got {y0.shape}")
        return y0


class FakeRouterSession:
    """Session stand-in with a controllable retained footprint.

    ``run`` re-warms (retained returns to ``warm_bytes``), ``demote`` goes
    cold (retained drops to zero) — the same warm/cold cycle the registry
    drives on a real :class:`~repro.serve.session.EngineSession`, minus the
    engine.  ``gate`` parks executions for the concurrency tests.
    """

    def __init__(
        self,
        warm_bytes: int = 100,
        warm: bool = True,
        gate: threading.Event | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        from repro.obs import as_tracer

        self.network = FakeNetwork()
        self.tracer = as_tracer(None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.warm_bytes = warm_bytes
        self._retained = warm_bytes if warm else 0
        self.gate = gate
        self.calls = 0
        self.demote_calls = 0

    def run(self, y0):
        self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(WAIT), "test gate never opened"
        self._retained = self.warm_bytes  # serving re-warms a cold session
        return SimpleNamespace(y=y0 * 2.0, stats={}, stage_seconds={})

    def retained_nbytes(self) -> int:
        return self._retained

    def demote(self) -> int:
        freed, self._retained = self._retained, 0
        self.demote_calls += 1
        return freed

    def stats(self) -> dict:
        return {"calls": self.calls, "retained_nbytes": self._retained}


def req(k: int = 1, fill: float = 1.0) -> np.ndarray:
    return np.full((FakeNetwork.input_dim, k), fill)


@pytest.fixture(scope="module")
def two_benchmarks():
    net_a = build_benchmark("144-24", seed=0)
    net_b = build_benchmark("144-48", seed=0)
    return (
        (net_a, sdgc_config(net_a.num_layers)),
        (net_b, sdgc_config(net_b.num_layers)),
    )


# ------------------------------------------------------- MemoryBudget (unit)
def test_memory_budget_ledger_arithmetic():
    budget = MemoryBudget(limit_bytes=250)
    assert budget.retained_bytes == 0 and not budget.over_budget
    budget.update("a", 100)
    budget.update("b", 100)
    assert budget.retained_bytes == 200 and not budget.over_budget
    budget.update("b", 200)  # absolute, not a delta
    assert budget.retained_bytes == 300 and budget.over_budget
    assert budget.account_bytes() == {"a": 100, "b": 200}
    budget.drop("b")
    assert budget.retained_bytes == 100
    budget.drop("missing")  # forgetting an unknown account is a no-op


def test_memory_budget_unlimited_never_over():
    budget = MemoryBudget(limit_bytes=None)
    budget.update("a", 10**12)
    assert not budget.over_budget
    assert budget.stats()["limit_bytes"] is None


def test_memory_budget_rejects_negative_limit():
    with pytest.raises(DeviceError):
        MemoryBudget(limit_bytes=-1)


def test_memory_budget_publish_advances_highwater_monotonically():
    registry = MetricsRegistry()
    budget = MemoryBudget(limit_bytes=500, metrics=registry)
    budget.update("a", 300)
    assert budget.publish() == 300
    budget.update("a", 120)
    budget.publish()
    assert budget.highwater_bytes == 300  # peak survives the shrink
    budget.record_eviction(2)
    snap = registry.snapshot()
    assert snap["memory_budget_limit_bytes"] == 500
    assert snap["memory_budget_retained_bytes"] == 120
    assert snap["memory_budget_highwater_bytes"] == 300
    assert snap["memory_budget_evictions_total"] == 2
    stats = budget.stats()
    assert stats["highwater_bytes"] == 300 and stats["evictions"] == 2


def test_buffer_pool_clear_reports_freed_bytes():
    pool = BufferPool()
    a = pool.take((8, 4), np.float32)
    b = pool.take((8, 4), np.float32, avoid=a)
    expected = a.nbytes + b.nbytes
    assert pool.nbytes == expected
    assert pool.clear() == expected
    assert pool.nbytes == 0 and pool.stats()["buffers"] == 0
    assert pool.clear() == 0  # idempotent on an empty pool


# --------------------------------------------------------- registry lifecycle
def test_registry_register_evict_and_unknown_names():
    registry = ModelRegistry()
    session_a = FakeRouterSession()
    registry.register("a", session=session_a)
    assert "a" in registry and len(registry) == 1
    assert registry.get("a") is session_a
    with pytest.raises(ConfigError, match="already registered"):
        registry.register("a", session=FakeRouterSession())
    with pytest.raises(ConfigError, match="needs a network or a session"):
        registry.register("c")
    registry.register("b", session=FakeRouterSession())
    assert sorted(registry.names()) == ["a", "b"]
    evicted = registry.evict("a")
    assert evicted is session_a
    assert "a" not in registry
    assert "a" not in registry.budget.account_bytes()  # account left the ledger
    with pytest.raises(ConfigError, match="unknown model 'a'"):
        registry.get("a")
    with pytest.raises(ConfigError, match="registered: \\['b'\\]"):
        registry.evict("a")


def test_registry_enforce_demotes_lru_first_and_respects_protect():
    clock = FakeClock()
    registry = ModelRegistry(memory_budget_bytes=250, clock=clock)
    sessions = {}
    for name in ("a", "b", "c"):
        clock.advance(1.0)
        sessions[name] = FakeRouterSession(warm_bytes=100)
        registry.register(name, session=sessions[name])
    # registering c pushed the ledger to 300 > 250; enforcement (protecting
    # the newcomer) demoted the least recently served — a, the oldest
    assert registry.demotions == ["a"]
    assert sessions["a"].demote_calls == 1 and sessions["b"].demote_calls == 0
    assert registry.budget.account_bytes() == {"a": 0, "b": 100, "c": 100}
    assert registry.budget.highwater_bytes <= 250  # published post-enforcement

    # a re-warms by serving and becomes the most recent; b is now LRU
    clock.advance(1.0)
    sessions["a"].run(req())
    registry.touch("a")
    demoted = registry.enforce()
    assert demoted == ["b"]
    assert registry.demotions == ["a", "b"]
    assert not registry.budget.over_budget

    # protect exempts the LRU tenant: the next-oldest goes instead
    clock.advance(1.0)
    sessions["b"].run(req())
    registry.touch("b")
    demoted = registry.enforce(protect={"c"})
    assert demoted == ["a"]  # c was LRU but protected; a is next-oldest
    assert sessions["c"].demote_calls == 0


def test_registry_enforce_skips_already_cold_sessions():
    clock = FakeClock()
    registry = ModelRegistry(memory_budget_bytes=50, clock=clock)
    cold = FakeRouterSession(warm_bytes=100, warm=False)
    warm = FakeRouterSession(warm_bytes=100)
    registry.register("cold", session=cold)
    clock.advance(1.0)
    registry.register("warm", session=warm)
    # the newcomer is protected at register time and the cold session holds
    # no bytes, so nothing was demotable yet — over budget, but stable
    assert cold.demote_calls == 0 and warm.demote_calls == 0
    # an unprotected enforce demotes the only tenant holding bytes; the
    # cold one is never a candidate
    assert registry.enforce() == ["warm"]
    assert cold.demote_calls == 0 and warm.demote_calls == 1
    # with every tenant cold the ledger fits and enforce is a no-op
    assert registry.enforce() == []


# --------------------------------------------------------- sync router (fake)
def test_sync_router_routes_by_name_and_rejects_per_lane():
    registry = ModelRegistry()
    registry.register("a", session=FakeRouterSession())
    registry.register("b", session=FakeRouterSession())
    router = Router(registry, max_batch=1024, max_wait_s=60.0, queue_limit=2)
    with pytest.raises(ConfigError, match="unknown model"):
        router.submit("nope", req())
    stream = [("a", req(fill=1.0)), ("a", req(fill=2.0)), ("a", req(fill=3.0)),
              ("b", req(fill=4.0))]
    report = router.serve(iter(stream))
    # lane a overflowed its own queue_limit; lane b was untouched
    assert len(report.per_model["a"].served) == 2
    assert len(report.per_model["a"].rejected) == 1
    assert report.per_model["b"].status == "ok"
    assert report.status == "ok"
    assert len(report.served) == 3 and len(report.rejected) == 1
    for per in report.per_model.values():
        for ticket in per.served:
            assert np.array_equal(ticket.y, ticket.y0 * 2.0)


@pytest.mark.parametrize("transport", [Router, AsyncRouter], ids=["sync", "async"])
def test_queue_gauges_sum_a_tenants_stream_lanes(transport):
    """A tenant's stream lanes share ``serve_queue_depth{model=}`` and
    ``serve_queue_columns{model=}``, so the gauges read the tenant's total
    pending work, not the last lane that moved."""
    metrics = MetricsRegistry()
    registry = ModelRegistry(metrics=metrics)
    registry.register(
        "m", session=FakeRouterSession(metrics=metrics.labeled(model="m"))
    )
    router = transport(registry, max_batch=1024, max_wait_s=60.0)
    for stream, widths in (("a", (1, 2, 3)), ("b", (4,))):
        for k in widths:
            router.submit("m", req(k), stream=stream)
    assert router.pending_requests() == 4
    snap = metrics.snapshot()
    assert snap['serve_queue_depth{model="m"}'] == 4
    assert snap['serve_queue_columns{model="m"}'] == 10
    if transport is Router:
        router.drain()
    else:
        assert router.close(drain=True, timeout=WAIT)
    snap = metrics.snapshot()
    assert snap['serve_queue_depth{model="m"}'] == 0
    assert snap['serve_queue_columns{model="m"}'] == 0


# ------------------------------------------------- async router (concurrency)
def test_async_router_backpressure_is_per_lane():
    gate = threading.Event()
    session_a = FakeRouterSession(gate=gate)
    session_b = FakeRouterSession()
    registry = ModelRegistry()
    registry.register("a", session=session_a)
    registry.register("b", session=session_b)
    router = AsyncRouter(
        registry, max_batch=1, max_wait_s=60.0, queue_limit=2, on_full="reject"
    )
    first = router.submit("a", req())
    deadline = time.monotonic() + WAIT
    while session_a.calls == 0 and time.monotonic() < deadline:
        time.sleep(0.001)  # worker parked inside lane a's block
    assert session_a.calls == 1
    accepted_a = [router.submit("a", req()) for _ in range(2)]  # fills lane a
    with pytest.raises(ServeOverflowError, match="lane 'a' full"):
        router.submit("a", req())
    # lane b still accepts: a's burst backpressures only a's producers
    accepted_b = [router.submit("b", req()) for _ in range(2)]
    with pytest.raises(ServeOverflowError, match="lane 'b' full"):
        router.submit("b", req())
    gate.set()
    assert router.close(drain=True, timeout=WAIT)
    for ticket in [first, *accepted_a, *accepted_b]:
        assert ticket.ready
    with pytest.raises(ServeClosedError):
        router.submit("a", req())


def test_async_router_unknown_model_fails_synchronously():
    registry = ModelRegistry()
    registry.register("a", session=FakeRouterSession())
    with AsyncRouter(registry) as router:
        with pytest.raises(ConfigError, match="unknown model"):
            router.submit("nope", req())
        with pytest.raises(ShapeError):
            router.submit("a", np.ones((7, 2)))
        ticket = router.submit("a", req(2))
        assert ticket.wait(WAIT) and ticket.ready
        assert np.array_equal(ticket.y, req(2) * 2.0)


# ----------------------------------------------------- differential isolation
def _chunked_mixed(streams: dict, chunk: int):
    mixed = []
    offset = 0
    while any(offset < len(s) for s in streams.values()):
        for name, stream in streams.items():
            for y0 in stream[offset : offset + chunk]:
                mixed.append((name, y0))
        offset += chunk
    return mixed


def _reference_outputs(net, cfg, stream, max_batch):
    net.drop_views()
    registry = ModelRegistry()
    registry.register("solo", session=EngineSession(net, cfg))
    router = Router(
        registry, max_batch=max_batch, max_wait_s=60.0, queue_limit=len(stream)
    )
    report = router.serve(("solo", y0) for y0 in stream).per_model["solo"]
    assert report.status == "ok"
    net.drop_views()
    return [t.y for t in report.served]


def _constraining_budget(net_a, cfg_a, net_b, cfg_b) -> int:
    """A limit between the largest single footprint and the combined one.

    Below max-single the best-effort floor (never demote the tenant that
    just served) makes highwater <= limit unsatisfiable; above combined
    nothing demotes.  In between, every serve of one tenant must demote
    the other — the thrash regime the isolation test wants.
    """
    probe = ModelRegistry()
    probe.register("a", net_a, config=cfg_a, warm=True)
    probe.register("b", net_b, config=cfg_b, warm=True)
    accounts = probe.budget.account_bytes()
    net_a.drop_views(), net_b.drop_views()
    combined, single_max = sum(accounts.values()), max(accounts.values())
    assert combined > single_max > 0
    return single_max + (combined - single_max) // 4


@pytest.mark.parametrize("limited", [False, True])
def test_mixed_traffic_outputs_bitwise_match_single_tenant(
    two_benchmarks, limited
):
    """The acceptance property: mixing tenants changes nothing, with or
    without budget-driven demotions mid-stream."""
    (net_a, cfg_a), (net_b, cfg_b) = two_benchmarks
    streams = {
        "a": [benchmark_input(net_a, 2, seed=s) for s in range(1, 9)],
        "b": [benchmark_input(net_b, 2, seed=s) for s in range(1, 9)],
    }
    refs = {
        "a": _reference_outputs(net_a, cfg_a, streams["a"], max_batch=8),
        "b": _reference_outputs(net_b, cfg_b, streams["b"], max_batch=8),
    }

    budget = (
        _constraining_budget(net_a, cfg_a, net_b, cfg_b) if limited else None
    )
    registry = ModelRegistry(memory_budget_bytes=budget)
    registry.register("a", net_a, config=cfg_a, warm=True)
    registry.register("b", net_b, config=cfg_b, warm=True)
    router = Router(registry, max_batch=8, max_wait_s=60.0, queue_limit=64)
    report = router.serve(iter(_chunked_mixed(streams, chunk=4)))

    assert report.status == "ok" and not report.rejected
    for name in ("a", "b"):
        served = report.per_model[name].served
        assert len(served) == len(refs[name])
        for ticket, ref_y in zip(served, refs[name]):
            assert np.array_equal(ticket.y, ref_y)
    if budget is not None:
        # the limit sits under the combined warm footprint: demotions must
        # have happened, the run must certify staying under budget, and the
        # bitwise assertions above prove they cost nothing
        assert report.demoted
        assert registry.budget.highwater_bytes <= budget
    else:
        assert not report.demoted


def test_one_scrape_separates_tenants_by_model_label(two_benchmarks):
    """Satellite regression: two sessions bound to one registry must scrape
    independently — per-tenant counters, no unlabeled conflated series."""
    (net_a, cfg_a), (net_b, cfg_b) = two_benchmarks
    net_a.drop_views(), net_b.drop_views()
    registry = ModelRegistry()
    registry.register("a", net_a, config=cfg_a)
    registry.register("b", net_b, config=cfg_b)
    router = Router(registry, max_batch=4, max_wait_s=60.0, queue_limit=64)
    for seed in (1, 2):
        router.submit("a", benchmark_input(net_a, 2, seed=seed))
    router.submit("b", benchmark_input(net_b, 2, seed=1))
    router.drain()

    snap = registry.metrics.snapshot()
    assert snap['session_columns_total{model="a"}'] == 4
    assert snap['session_columns_total{model="b"}'] == 2
    assert snap['session_calls_total{model="a"}'] >= 1
    assert snap['session_calls_total{model="b"}'] == 1
    # nothing leaked into an unlabeled series that would conflate tenants
    assert "session_columns_total" not in snap
    assert "session_calls_total" not in snap
    prom = registry.metrics.to_prometheus()
    assert 'session_columns_total{model="a"}' in prom
    assert 'session_columns_total{model="b"}' in prom


def test_demotions_are_counted_per_tenant_in_the_shared_scrape():
    clock = FakeClock()
    metrics = MetricsRegistry()
    registry = ModelRegistry(
        metrics=metrics, memory_budget_bytes=150, clock=clock
    )
    registry.register("a", session=FakeRouterSession(metrics=metrics))
    clock.advance(1.0)
    registry.register("b", session=FakeRouterSession(metrics=metrics))
    snap = metrics.snapshot()
    assert snap['memory_budget_demotions_total{model="a"}'] == 1
    assert 'memory_budget_demotions_total{model="b"}' not in snap
    assert snap["memory_budget_evictions_total"] == 1


# --------------------------------------------------- head-of-line accounting
def test_fifo_head_of_line_underfill_is_counted():
    session = FakeRouterSession()
    batcher = MicroBatcher(session, max_batch=4, max_wait_s=60.0)
    batcher.submit(req(3))          # pending 3 < 4: no flush yet
    batcher.submit(req(2))          # pending 5 >= 4: flush takes only the 3
    assert batcher.counters["hol_stalls"] == 1
    assert batcher.counters["hol_underfill_columns"] == 1
    snap = session.metrics.snapshot()
    assert snap["serve_hol_stalls_total"] == 1
    assert snap["serve_hol_underfill_columns_total"] == 1
    stats = batcher.stats()
    assert stats["hol_stalls"] == 1 and stats["hol_underfill_columns"] == 1
    batcher.drain()                 # final partial block: a drain, not a stall
    assert batcher.counters["hol_stalls"] == 1


# ------------------------------------------------------ report aggregation
def _served_ticket(latency: float, columns: int = 1):
    return SimpleNamespace(latency_seconds=latency, columns=columns)


def _ok_report(latencies=(0.1,)):
    return ServeReport(served=[_served_ticket(lat) for lat in latencies])


def test_router_report_status_excludes_idle_tenants():
    report = ServeReport.of_tenants({"a": _ok_report(), "idle": ServeReport()})
    assert report.per_model["idle"].status == "no_traffic"
    assert report.status == "ok"  # an idle tenant does not drag a healthy run


def test_router_report_status_merges_without_masking():
    assert ServeReport.of_tenants({}).status == "no_traffic"
    assert ServeReport.of_tenants({"a": ServeReport()}).status == "no_traffic"

    shed = ServeReport(rejected=[(0, "full")])
    assert shed.status == "all_rejected"
    failed = ServeReport(failed=[(0, "boom")])
    assert failed.status == "all_failed"
    # all active tenants turned away: the tenant rule applies to the pooled
    # tickets, so any failure among them reads all_failed
    assert ServeReport.of_tenants({"a": shed, "b": failed}).status == "all_failed"
    assert ServeReport.of_tenants({"a": shed, "b": shed}).status == "all_rejected"
    # one healthy + one shed tenant is degraded, not ok: a fully-shed
    # tenant must not hide behind a neighbor's successes
    mixed = ServeReport.of_tenants({"a": _ok_report(), "b": shed})
    assert mixed.status == "degraded"


def test_router_report_latency_pools_only_served_tenants():
    report = ServeReport.of_tenants({
        "a": _ok_report(latencies=(0.1, 0.3)),
        "b": ServeReport(rejected=[(0, "full")]),  # latency None, not zero
    })
    assert report.per_model["b"].latency_quantiles() is None
    pooled = report.latency_quantiles()
    assert pooled["p50"] == pytest.approx(0.2)
    assert pooled["p100"] == pytest.approx(0.3)
    # nothing served anywhere: merged latency is None too
    empty = ServeReport.of_tenants({"b": ServeReport(rejected=[(0, "full")])})
    assert empty.latency_quantiles() is None


def test_router_report_aggregates_and_summary():
    report = ServeReport.of_tenants(
        {
            "a": ServeReport(
                served=[_served_ticket(0.1, columns=2)], rejected=[(1, "full")]
            ),
            "b": _ok_report(latencies=(0.2,)),
        },
        wall_seconds=2.0,
        demoted=["a"],
    )
    assert report.requests == 3
    assert len(report.served) == 2
    assert len(report.rejected) == 1
    assert report.columns == 3
    assert report.columns_per_second == pytest.approx(1.5)
    summary = report.summary()
    assert summary["status"] == "ok"
    assert summary["demoted"] == ["a"]
    assert set(summary["models"]) == {"a", "b"}
    assert summary["models"]["a"]["rejected"] == 1
    assert summary["latency_seconds"]["p100"] == pytest.approx(0.2)


def test_router_report_per_model_quantiles_unmask_pooled_tail():
    """Satellite regression: the pooled view averages a quiet slow tenant
    into a busy fast one; the per-model view must keep each tail visible."""
    report = ServeReport.of_tenants({
        "fast": _ok_report(latencies=(0.01,) * 99),
        "slow": _ok_report(latencies=(1.0,)),
        "shed": ServeReport(rejected=[(0, "full")]),
    })
    per = report.per_model_quantiles()
    assert per["slow"]["p99"] == pytest.approx(1.0)
    assert per["fast"]["p99"] == pytest.approx(0.01)
    assert per["shed"] is None  # nothing served -> no latencies, not zeros
    # the pooled p50 sits on the fast tenant and hides the slow one's tail
    pooled = report.latency_quantiles()
    assert pooled["p50"] == pytest.approx(0.01)
    summary = report.summary()
    assert summary["latency_seconds_per_model"]["slow"]["p99"] == pytest.approx(1.0)


def test_router_report_to_json_is_json_dumpable_with_numpy_and_slo():
    """Satellite regression: np.quantile emits numpy scalars; to_json must
    coerce them (and an embedded SLO block) before json.dumps."""
    report = ServeReport.of_tenants(
        {"a": _ok_report(latencies=(0.1, 0.3))}, wall_seconds=1.0
    )
    report.slo = {"a": {"burn_rate": np.float64(0.25), "count": np.int64(2)}}
    summary = report.summary()
    with pytest.raises(TypeError):
        json.dumps(summary)  # the raw summary still carries numpy scalars
    blob = json.dumps(report.to_json())  # the JSON path must not raise
    parsed = json.loads(blob)
    assert parsed["latency_seconds"]["p100"] == pytest.approx(0.3)
    assert parsed["latency_seconds_per_model"]["a"]["p50"] == pytest.approx(0.2)
    assert parsed["slo"]["a"]["burn_rate"] == pytest.approx(0.25)


# ----------------------------------------------------------------- SLO feed
def test_registry_set_slo_validates_parses_and_evicts():
    registry = ModelRegistry()
    with pytest.raises(ConfigError):
        registry.set_slo("nope", "p99<50ms")  # unknown tenants fail loudly
    registry.register("a", session=FakeRouterSession())
    with pytest.raises(ConfigError):
        registry.set_slo("a", "not-a-spec")
    tracker = registry.set_slo("a", "p99<50ms@10s/99%")
    assert registry.slo_tracker("a") is tracker
    assert tracker.policy.latency_target_s == pytest.approx(0.05)
    assert tracker.policy.window_s == 10.0
    assert "slo" in registry.stats()
    tracker_ref = weakref.ref(tracker)
    del tracker
    registry.evict("a")
    assert registry.slo_tracker("a") is None
    assert registry.slo_report_json() == {}
    # the registry's scrape hook holds the evicted tracker only weakly
    gc.collect()
    assert tracker_ref() is None
    registry.metrics.snapshot()  # a scrape after eviction still works


def test_sync_router_feeds_slo_trackers_per_tenant():
    registry = ModelRegistry()
    registry.register("a", session=FakeRouterSession(), slo="p99<10s")
    registry.register("b", session=FakeRouterSession())
    router = Router(registry, max_batch=4, max_wait_s=60.0)
    report = router.serve(iter([("a", req(2)), ("b", req(1)), ("a", req(1))]))
    assert report.status == "ok"

    tracker = registry.slo_tracker("a")
    assert tracker.requests_total == 2
    assert tracker.columns_total == pytest.approx(3.0)
    # only policied tenants get an slo block; "b" has no policy
    assert set(report.slo) == {"a"}
    block = report.slo["a"]
    assert block["requests_total"] == 2
    assert block["compliant"] is True
    exemplar = block["exemplar"]
    assert exemplar["model"] == "a"
    assert exemplar["request_aid"] >= 1
    assert exemplar["breakdown"]["block_id"] >= 1
    # the shared scrape carries the per-tenant summary series
    prom = registry.metrics.to_prometheus()
    assert 'slo_latency_seconds{model="a",quantile="0.99"}' in prom
    assert 'slo_requests_total{model="a"} 2' in prom
    # ...and the report's JSON path carries the block verbatim
    assert report.to_json()["slo"]["a"]["requests_total"] == 2


def test_sync_router_applies_slo_attached_after_first_traffic():
    """The lane hook resolves the tracker lazily, so a policy attached to a
    live tenant starts measuring without rebuilding the lane."""
    registry = ModelRegistry()
    registry.register("a", session=FakeRouterSession())
    router = Router(registry, max_batch=2, max_wait_s=60.0)
    router.submit("a", req(2))
    router.drain()
    registry.set_slo("a", "p99<10s")
    router.submit("a", req(2))
    router.drain()
    assert registry.slo_tracker("a").requests_total == 1


def test_async_router_times_requests_from_submit():
    """A request that arrives while the worker is inside another tenant's
    block is timed from submit: its partial block flushes as soon as the
    worker is free once ``max_wait_s`` has passed since submit, and the
    latency window's exemplar and the SLO tracker both see the whole
    submit-to-resolve latency.  A fake clock makes every figure exact."""
    clock = FakeClock()
    gate = threading.Event()
    bulk = FakeRouterSession(gate=gate)
    session = FakeRouterSession()
    registry = ModelRegistry()
    registry.register("bulk", session=bulk)
    registry.register("m", session=session, slo="p99<10s")
    router = AsyncRouter(registry, max_batch=2, max_wait_s=1.0, clock=clock)
    router.submit("bulk", req(2))  # a full block: the worker runs it and parks
    deadline = time.monotonic() + WAIT
    while bulk.calls == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert bulk.calls == 1
    ticket = router.submit("m", req(1))  # a partial block, queued behind bulk
    clock.advance(1.0)  # max_wait_s has passed since submit
    gate.set()
    assert ticket.wait(WAIT), "the due partial block never flushed"
    assert router.close(drain=True, timeout=WAIT)
    assert router.lane("m").counters["wait_flushes"] == 1
    assert ticket.latency_seconds == 1.0
    assert ticket.breakdown()["batch_wait_seconds"] == 1.0

    (_, window), = session.metrics.series("serve_latency_seconds")
    exemplar = window.snapshot()["exemplar"]
    assert exemplar["latency_seconds"] == ticket.latency_seconds
    assert exemplar["request_aid"] == ticket.aid
    assert exemplar["breakdown"]["batch_wait_seconds"] == 1.0

    tracker = registry.slo_tracker("m")
    assert tracker.requests_total == 1
    assert tracker.columns_total == pytest.approx(1.0)
    slo = tracker.report()
    assert slo.window["sum"] == pytest.approx(ticket.latency_seconds)
    assert slo.exemplar["latency_seconds"] == ticket.latency_seconds
    assert slo.exemplar["request_aid"] == ticket.aid


@pytest.mark.parametrize("transport", [Router, AsyncRouter], ids=["sync", "async"])
def test_dropped_router_is_freed_without_a_gc_pass(transport):
    """The lanes' SLO hook must not close a reference cycle through the
    router: a dropped router (and with it its lanes and queued blocks) is
    freed by reference counting alone, even with the cycle collector off."""
    registry = ModelRegistry()
    registry.register("m", session=FakeRouterSession(), slo="p99<10s")
    router = transport(registry, max_batch=2, max_wait_s=60.0)
    ticket = router.submit("m", req(2))
    if transport is Router:
        router.drain()
    else:
        assert router.close(drain=True, timeout=WAIT)
    assert ticket.ready
    ref = weakref.ref(router)
    gc.disable()
    try:
        del router
        assert ref() is None
    finally:
        gc.enable()


def test_slo_feed_failure_cannot_break_serving():
    registry = ModelRegistry()
    registry.register("a", session=FakeRouterSession(), slo="p99<10s")
    tracker = registry.slo_tracker("a")

    def explode(*a, **k):
        raise RuntimeError("tracker wedged")

    tracker.record_ticket = explode
    router = Router(registry, max_batch=2, max_wait_s=60.0)
    ticket = router.submit("a", req(2))
    router.drain()
    assert ticket.ready  # the request resolved despite the broken tracker
