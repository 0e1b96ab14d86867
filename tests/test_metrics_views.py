"""Every serving and engine count is stored once, in the MetricsRegistry.

The owners (``MicroBatcher``, ``BufferPool``, ``CentroidCache``,
``StrategyPlan``, ``MemoryBudget``, ``AdmissionController``,
``SloTracker``) increment only their registry series; ``stats()`` and the
count attributes read those series back.  One mixed serve exercises every
count on both router transports, then checks each view against the series
it reads, and pins the set of series a default-lane serve exposes.
"""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ServeShedError, ShapeError
from repro.gpu.memory import MAX_POOL_KEYS, BufferPool
from repro.harness.experiments.common import sdgc_config
from repro.obs import MetricsRegistry, as_tracer
from repro.obs.slo import SloPolicy, SloTracker
from repro.radixnet import benchmark_input, build_benchmark
from repro.serve import AsyncRouter, EngineSession, ModelRegistry, Router

WAIT = 20.0
#: the fake tenant's retained bytes, and the whole budget: with both
#: tenants warm the ledger is over, so serving one demotes the other
FAKE_BYTES = 1000


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class FlakySession:
    """Session stand-in whose ``fail_on``-th block raises."""

    def __init__(self, metrics, fail_on: int):
        self.network = SimpleNamespace(validate_input=self._validate)
        self.tracer = as_tracer(None)
        self.metrics = metrics
        self.fail_on = fail_on
        self.calls = 0
        self._retained = FAKE_BYTES

    @staticmethod
    def _validate(y0):
        y0 = np.asarray(y0, dtype=np.float64)
        if y0.ndim != 2 or y0.shape[0] != 4:
            raise ShapeError(f"input must be (4, B), got {y0.shape}")
        return y0

    def run(self, y0):
        self.calls += 1
        self._retained = FAKE_BYTES
        if self.calls == self.fail_on:
            raise RuntimeError("injected block failure")
        return SimpleNamespace(y=y0, stats={}, stage_seconds={})

    def retained_nbytes(self) -> int:
        return self._retained

    def demote(self) -> int:
        freed, self._retained = self._retained, 0
        return freed

    def stats(self) -> dict:
        return {"calls": self.calls}


def _serve_mix(transport):
    """Serve a mix that moves every count once or more; returns the router
    and the shared registry.

    Tenant ``r`` is a real 144-24 session with centroid reuse and an SLO;
    tenant ``f`` is a fake with a hard 5-column quota whose second block
    fails.  ``max_batch`` is 4, and the fake clock only moves when a step
    says so, so both transports pack and flush the same blocks.
    """
    clock = FakeClock()
    metrics = MetricsRegistry()
    registry = ModelRegistry(metrics=metrics, memory_budget_bytes=FAKE_BYTES)
    net = build_benchmark("144-24", seed=0)
    registry.register(
        "r", net, config=sdgc_config(net.num_layers), warm=True,
        centroid_reuse=True, reuse_tolerance=1e9, slo="p99<10s",
    )
    # registering f warm puts the ledger over budget: r is demoted
    registry.register(
        "f", session=FlakySession(metrics.labeled(model="f"), fail_on=2),
        qos="interactive:rate=0,burst=5",
    )
    router = transport(registry, max_batch=4, max_wait_s=0.05, clock=clock)
    sync = transport is Router
    y = benchmark_input(net, 4, seed=1)

    def run(model, y0):
        """Submit; wait until the block it completes has resolved."""
        try:
            ticket = router.submit(model, y0)
        except RuntimeError:
            return None  # sync: the failed block raises through submit
        if ticket.columns == 4 or not sync:
            assert ticket.wait(WAIT)
        return ticket

    run("r", y)                        # cold: a centroid-cache miss and fill
    run("r", y)                        # the same mix again: a hit
    ticket = router.submit("f", np.ones((4, 1)))
    clock.advance(1.0)
    if sync:
        router.step()
    assert ticket.wait(WAIT)           # a timer flush, 3 columns short
    failed = run("f", np.ones((4, 4)))  # f's second block raises
    assert failed is None if sync else failed.failed
    with pytest.raises(ServeShedError):
        router.submit("f", np.ones((4, 1)))  # past the 5-column quota
    head = router.submit("r", y[:, :3])
    router.submit("r", y[:, :2])       # does not fit behind the 3: HOL stall
    assert head.wait(WAIT)
    if sync:
        router.drain()
    else:
        assert router.close(drain=True, timeout=WAIT)
    return router, metrics


def _value(metrics, name, **labels):
    (metric,) = [m for lab, m in metrics.series(name) if lab == labels]
    return metric.value


#: MicroBatcher count -> the registry series it reads
LANE_SERIES = {
    "requests": "serve_requests_total",
    "rejected": "serve_rejected_total",
    "failed": "serve_failed_total",
    "batches": "serve_batches_total",
    "batched_columns": "serve_batched_columns_total",
    "wait_flushes": "serve_wait_flushes_total",
    "hol_stalls": "serve_hol_stalls_total",
    "hol_underfill_columns": "serve_hol_underfill_columns_total",
    "timer_underfills": "serve_timer_underfills_total",
    "timer_underfill_columns": "serve_timer_underfill_columns_total",
}

#: (name, sorted labels) of every series the sync router's serve of this mix
#: exposed while the counts were also kept in fields; the views may add only
#: ``_NEW_SERIES``, and the async router adds ``async_overlap_fraction``
_PARENT_SERIES = {
    ("centroid_cache_entries", (("model", "r"),)),
    ("centroid_cache_fills_total", (("model", "r"),)),
    ("centroid_cache_hits_total", (("model", "r"),)),
    ("centroid_cache_invalidations_total", (("model", "r"), ("reason", "evicted"))),
    ("centroid_cache_misses_total", (("model", "r"),)),
    ("centroid_reuse_assignment_distance", (("model", "r"),)),
    ("centroid_reuse_residue_density", (("model", "r"),)),
    ("memory_budget_demotions_total", (("model", "f"),)),
    ("memory_budget_demotions_total", (("model", "r"),)),
    ("memory_budget_evictions_total", ()),
    ("memory_budget_highwater_bytes", ()),
    ("memory_budget_limit_bytes", ()),
    ("memory_budget_retained_bytes", ()),
    ("pool_alloc_total", (("model", "r"),)),
    ("pool_bytes_highwater", (("model", "r"),)),
    ("pool_hit_total", (("model", "r"),)),
    ("pool_take_total", (("model", "r"),)),
    ("qos_priority_rank", (("model", "f"),)),
    ("qos_priority_rank", (("model", "r"),)),
    ("qos_shed_total", (("model", "f"), ("reason", "rate_limit"))),
    ("qos_weight", (("model", "f"),)),
    ("qos_weight", (("model", "r"),)),
    ("serve_batch_fill", (("model", "f"), ("reason", "wait"))),
    ("serve_batch_fill", (("model", "r"), ("reason", "drain"))),
    ("serve_batch_fill", (("model", "r"), ("reason", "full"))),
    ("serve_batched_columns_total", (("model", "f"),)),
    ("serve_batched_columns_total", (("model", "r"),)),
    ("serve_batches_total", (("model", "f"),)),
    ("serve_batches_total", (("model", "r"),)),
    ("serve_failed_total", (("model", "f"),)),
    ("serve_failed_total", (("model", "r"),)),
    ("serve_hol_stalls_total", (("model", "f"),)),
    ("serve_hol_stalls_total", (("model", "r"),)),
    ("serve_hol_underfill_columns_total", (("model", "f"),)),
    ("serve_hol_underfill_columns_total", (("model", "r"),)),
    ("serve_latency_seconds", (("model", "f"),)),
    ("serve_latency_seconds", (("model", "r"),)),
    ("serve_queue_columns", (("model", "f"),)),
    ("serve_queue_columns", (("model", "r"),)),
    ("serve_queue_depth", (("model", "f"),)),
    ("serve_queue_depth", (("model", "r"),)),
    ("serve_rejected_total", (("model", "f"),)),
    ("serve_rejected_total", (("model", "r"),)),
    ("serve_requests_total", (("model", "f"),)),
    ("serve_requests_total", (("model", "r"),)),
    ("serve_reuse_blocks_total", (("model", "r"), ("outcome", "cold"))),
    ("serve_reuse_blocks_total", (("model", "r"), ("outcome", "hit"))),
    ("serve_timer_underfill_columns_total", (("model", "f"),)),
    ("serve_timer_underfill_columns_total", (("model", "r"),)),
    ("session_block_seconds", (("model", "r"),)),
    ("session_busy_seconds_total", (("model", "r"),)),
    ("session_calls_total", (("model", "r"),)),
    ("session_columns_total", (("model", "r"),)),
    ("session_stage_seconds_total", (("model", "r"), ("stage", "conversion"))),
    ("session_stage_seconds_total", (("model", "r"), ("stage", "post_convergence"))),
    ("session_stage_seconds_total", (("model", "r"), ("stage", "pre_convergence"))),
    ("session_stage_seconds_total", (("model", "r"), ("stage", "recovery"))),
    ("session_warmup_seconds_total", (("model", "r"),)),
    ("slo_breaches_total", (("model", "r"),)),
    ("slo_budget_remaining", (("model", "r"),)),
    ("slo_burn_rate", (("model", "r"),)),
    ("slo_columns_total", (("model", "r"),)),
    ("slo_compliant", (("model", "r"),)),
    ("slo_latency_seconds", (("model", "r"),)),
    ("slo_requests_total", (("model", "r"),)),
    ("spmm_strategy_total", (("model", "r"), ("strategy", "colwise"))),
    ("spmm_strategy_total", (("model", "r"), ("strategy", "csr"))),
    ("spmm_strategy_total", (("model", "r"), ("strategy", "ell"))),
    ("spmm_strategy_total", (("model", "r"), ("strategy", "masked"))),
}
#: counts that lived only in the batcher's dict before, now series too
_NEW_SERIES = {
    (name, (("model", model),))
    for name in ("serve_wait_flushes_total", "serve_timer_underfills_total")
    for model in ("f", "r")
}


def _snapshot_key(name: str, labels: tuple) -> str:
    """The ``metrics.snapshot()`` key of series ``(name, labels)``."""
    return name + ("{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}" if labels else "")


@pytest.mark.parametrize("transport", [Router, AsyncRouter], ids=["sync", "async"])
def test_stats_counts_equal_the_registry_series_they_view(transport):
    router, metrics = _serve_mix(transport)
    stats = router.stats()
    snap = metrics.snapshot()  # runs the scrape-time publishers

    lanes = stats["lanes"]
    assert set(lanes) == {"r", "f"}
    for label, lane in lanes.items():
        for key, series in LANE_SERIES.items():
            assert type(lane[key]) is int
            assert lane[key] == _value(metrics, series, model=label), (label, key)
        for outcome, n in lane.get("reuse_blocks", {}).items():
            assert n == _value(
                metrics, "serve_reuse_blocks_total", model=label, outcome=outcome
            )
    r, f = lanes["r"], lanes["f"]
    assert r["reuse_blocks"]["hit"] >= 1 and r["reuse_blocks"]["cold"] >= 1
    assert r["hol_stalls"] == 1 and r["hol_underfill_columns"] == 1
    assert (f["wait_flushes"], f["timer_underfills"], f["timer_underfill_columns"]) == (1, 1, 3)
    assert (f["failed"], f["batches"]) == (1, 1)

    model = stats["registry"]["models"]["r"]
    scratch = model["scratch"]
    assert scratch["hits"] == _value(metrics, "pool_hit_total", model="r") > 0
    assert scratch["misses"] == _value(metrics, "pool_alloc_total", model="r") > 0
    cache = model["centroid_cache"]
    for key in ("hits", "misses", "fills"):
        assert cache[key] == _value(metrics, f"centroid_cache_{key}_total", model="r") > 0
    assert cache["invalidations"] == {
        "evicted": _value(
            metrics, "centroid_cache_invalidations_total", model="r", reason="evicted"
        )
    }
    assert cache["last_distance"] == snap['centroid_reuse_assignment_distance{model="r"}']
    assert cache["entries"] == snap['centroid_cache_entries{model="r"}']
    assert model["plan"]["calls"] == sum(
        m.value for lab, m in metrics.series("spmm_strategy_total")
        if lab["model"] == "r"
    ) > 0
    assert model["calls"] == _value(metrics, "session_calls_total", model="r")
    slo = stats["registry"]["slo"]["r"]
    for key in ("requests_total", "breaches_total", "columns_total"):
        assert slo[key] == _value(metrics, f"slo_{key}", model="r")
    assert slo["requests_total"] == 4

    budget = stats["registry"]["budget"]
    assert budget["evictions"] == _value(metrics, "memory_budget_evictions_total") >= 2
    assert budget["highwater_bytes"] == _value(metrics, "memory_budget_highwater_bytes")
    assert budget["retained_bytes"] == snap["memory_budget_retained_bytes"]

    admission = stats["qos"]["admission"]
    assert admission["shed"] == {
        "f": {"rate_limit": _value(metrics, "qos_shed_total", model="f", reason="rate_limit")}
    }
    assert admission["shed_total"] == 1

    # a default-lane serve exposes what it did before, plus the two counts
    # that only the batcher's dict held
    expected = _PARENT_SERIES | _NEW_SERIES
    if transport is AsyncRouter:
        expected |= {("async_overlap_fraction", ())}
    assert set(snap) == {_snapshot_key(*series) for series in expected}


def test_stream_lanes_count_under_their_own_stream_label():
    """A tenant's lanes each own their counters: the default lane keeps the
    tenant's series, a named stream adds ``stream=<id>``, and each lane's
    ``counters`` reads only its own."""
    metrics = MetricsRegistry()
    registry = ModelRegistry(metrics=metrics)
    registry.register(
        "f", session=FlakySession(metrics.labeled(model="f"), fail_on=0)
    )
    router = Router(registry, max_batch=2, max_wait_s=60.0)
    router.submit("f", np.ones((4, 2)))
    for _ in range(3):
        router.submit("f", np.ones((4, 2)), stream="s")
    assert router.lane("f").counters["batches"] == 1
    assert router.lane("f", "s").counters["batches"] == 3
    assert _value(metrics, "serve_batches_total", model="f") == 1
    assert _value(metrics, "serve_batches_total", model="f", stream="s") == 3


def test_views_hold_under_concurrent_producers_and_readers():
    """Eight producers submit while a reader keeps taking ``stats()`` and
    scrapes; every count the views read afterwards is exact (a lost update
    or a torn read would break the totals)."""
    metrics = MetricsRegistry()
    registry = ModelRegistry(metrics=metrics)
    registry.register("f", session=FlakySession(metrics.labeled(model="f"), fail_on=0))
    router = AsyncRouter(registry, max_batch=4, max_wait_s=0.001, queue_limit=10_000)
    producers, per_producer = 8, 50
    tickets: list = []
    stop = threading.Event()
    errors: list = []

    def produce():
        mine = [router.submit("f", np.ones((4, 1))) for _ in range(per_producer)]
        tickets.extend(mine)

    def read():
        while not stop.is_set():
            try:
                router.stats()
                metrics.snapshot()
            except Exception as exc:  # a torn read would surface here
                errors.append(exc)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader = threading.Thread(target=read)
        reader.start()
        threads = [threading.Thread(target=produce) for _ in range(producers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
            assert not t.is_alive()
        assert router.close(drain=True, timeout=WAIT)
        stop.set()
        reader.join(WAIT)
        assert not reader.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    total = producers * per_producer
    assert len(tickets) == total and all(t.ready for t in tickets)
    counters = router.lane("f").counters
    assert counters["requests"] == counters["batched_columns"] == total
    assert counters["requests"] == _value(metrics, "serve_requests_total", model="f")
    assert counters["failed"] == 0


# --------------------------------------------------------------- SloTracker
def test_slo_tracker_without_a_registry_counts_and_refreshes():
    tracker = SloTracker(SloPolicy.parse("p99<10ms@10s/99%"), clock=FakeClock(5.0))
    for latency in (0.001, 0.002, 0.003, 0.004, 0.5):
        tracker.record(latency, columns=2)
    assert tracker.requests_total == 5
    assert tracker.breaches_total == 1
    assert tracker.columns_total == 10
    assert tracker.report().window["count"] == 5
    assert tracker.last_burn == pytest.approx((1 / 5) / 0.01)


def test_slo_tracker_on_a_registry_rotates_its_window_by_its_clock():
    clock = FakeClock(100.0)
    metrics = MetricsRegistry()
    tracker = SloTracker(
        SloPolicy.parse("p99<10ms@10s/99%"), metrics=metrics.labeled(model="m"),
        clock=clock,
    )
    tracker.record(0.5, columns=1)
    assert tracker.report().window["count"] == 1
    assert metrics.snapshot()['slo_burn_rate{model="m"}'] == pytest.approx(100.0)
    clock.advance(30.0)  # the breach ages out of the 10 s window
    report = tracker.report()
    assert report.window["count"] == 0 and report.burn_rate == 0.0
    assert tracker.requests_total == 1  # lifetime counts do not rotate


# --------------------------------------------------------------- BufferPool
def test_buffer_pool_caps_retained_shapes():
    pool = BufferPool()
    for width in range(1, 3 * MAX_POOL_KEYS):
        pool.take((8, width))
        assert pool.stats()["shapes"] <= MAX_POOL_KEYS
    assert pool.stats()["shapes"] == MAX_POOL_KEYS
    # the oldest shapes went first: the newest are still served warm
    hits = pool.hits
    pool.take((8, 3 * MAX_POOL_KEYS - 1))
    assert pool.hits == hits + 1


def test_fixed_width_stream_always_hits_the_pool_after_warmup():
    net = build_benchmark("144-24", seed=0)
    session = EngineSession(net, sdgc_config(net.num_layers))
    y = benchmark_input(net, 16, seed=1)
    session.run(y)  # warm-up block: allocates its buffers
    warm = session.scratch.stats()
    for _ in range(5):
        session.run(y)
    after = session.scratch.stats()
    assert after["misses"] == warm["misses"]  # 100% hits after warm-up
    assert after["hits"] > warm["hits"]
    assert after["shapes"] == warm["shapes"] <= MAX_POOL_KEYS
