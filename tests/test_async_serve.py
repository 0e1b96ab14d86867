"""Concurrency suite for the async serving transport (one-tenant AsyncRouter).

Deterministic control comes from a fake session whose ``run`` can be gated
on an event (to hold the worker mid-block) or told to fail on a given call;
the differential tests run the real SNICIT engine.  Every test is written
to pass under repetition (CI runs this module 20 times in a loop): nothing
asserts on wall-clock ordering between threads, only on resolution
outcomes, and every wait has a generous timeout.
"""

import random
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigError, ServeClosedError, ServeOverflowError, ShapeError
from repro.harness.experiments.common import sdgc_config
from repro.obs import MetricsRegistry, as_tracer
from repro.radixnet import benchmark_input, build_benchmark
from repro.serve import AsyncRouter, EngineSession, ModelRegistry, Router

WAIT = 20.0  # generous resolution timeout; tests fail long before CI's guard


# ------------------------------------------------------------------ fixtures
@pytest.fixture(scope="module")
def bench():
    net = build_benchmark("144-24", seed=0)
    cfg = sdgc_config(net.num_layers)
    y0 = benchmark_input(net, 64, seed=1)
    return net, cfg, y0


class FakeNetwork:
    input_dim = 4

    def validate_input(self, y0):
        y0 = np.asarray(y0, dtype=np.float64)
        if y0.ndim != 2 or y0.shape[0] != self.input_dim:
            raise ShapeError(f"input must be ({self.input_dim}, B), got {y0.shape}")
        return y0


class FakeSession:
    """Engine-session stand-in with controllable blocking and failure.

    ``gate``: block executions park on it until it is set — requests then
    pile up in the intake queue deterministically.  ``fail_on_call``: the
    N-th ``run`` call raises, exercising mid-block exception routing.
    """

    def __init__(self, gate: threading.Event | None = None, fail_on_call: int | None = None):
        self.network = FakeNetwork()
        self.tracer = as_tracer(None)
        self.metrics = MetricsRegistry()
        self.gate = gate
        self.fail_on_call = fail_on_call
        self.calls = 0

    def run(self, y0):
        self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(WAIT), "test gate never opened"
        if self.fail_on_call == self.calls:
            raise RuntimeError(f"injected failure on block {self.calls}")
        return SimpleNamespace(y=y0 * 2.0, stats={}, stage_seconds={})

    def retained_nbytes(self) -> int:
        return 0

    def stats(self):
        return {"calls": self.calls}


def req(k: int = 1, fill: float = 1.0) -> np.ndarray:
    return np.full((FakeNetwork.input_dim, k), fill)


def solo(session, transport=AsyncRouter, **kwargs):
    """A router whose only tenant, ``'m'``, is ``session``."""
    registry = ModelRegistry()
    registry.register("m", session=session)
    return transport(registry, **kwargs)


def serve_solo(router, stream, **kwargs):
    """Serve a bare request stream to tenant ``'m'``; its ServeReport."""
    return router.serve((("m", y0) for y0 in stream), **kwargs).per_model["m"]


# ------------------------------------------------------- differential (real)
def test_multithreaded_submit_matches_sync_server(bench):
    """N producers submitting concurrently must yield exactly the full set of
    outputs, with per-request categories identical to the synchronous server
    on the same stream (packing may differ; predictions may not)."""
    net, cfg, y0 = bench
    stream = [y0[:, lo : lo + 2] for lo in range(0, 64, 2)]

    sync = solo(
        EngineSession(net, cfg), Router, max_batch=16, max_wait_s=60.0,
        queue_limit=len(stream),
    )
    sync_report = serve_solo(sync, stream)
    assert len(sync_report.served) == len(stream)
    sync_cats = [t.categories for t in sync_report.served]

    server = solo(
        EngineSession(net, cfg), max_batch=16, max_wait_s=0.005,
        queue_limit=len(stream),
    )
    results: dict[int, object] = {}
    lock = threading.Lock()

    def producer(worker: int):
        for index in range(worker, len(stream), 3):
            ticket = server.submit("m", stream[index])
            with lock:
                results[index] = ticket

    threads = [threading.Thread(target=producer, args=(w,)) for w in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(WAIT)
        assert not t.is_alive()
    assert server.close(drain=True, timeout=WAIT)

    assert sorted(results) == list(range(len(stream)))  # exactly the stream
    # producers inc and the worker decs the intake gauge: no lost update
    assert server.registry.get("m").metrics.snapshot()["async_intake_depth"] == 0
    for index, ticket in results.items():
        assert ticket.ready, f"request {index} unresolved"
        assert ticket.y.shape == (net.output_dim, 2)
        assert np.array_equal(ticket.categories, sync_cats[index])


def test_single_producer_order_preserving_packing_is_bitwise_identical(bench):
    """With one producer and no max-wait pressure, async packing equals the
    synchronous server's, so outputs match bitwise, not just by category."""
    net, cfg, y0 = bench
    stream = [y0[:, lo : lo + 2] for lo in range(0, 32, 2)]
    sync = solo(
        EngineSession(net, cfg), Router, max_batch=8, max_wait_s=60.0,
        queue_limit=len(stream),
    )
    sync_y = np.hstack([t.y for t in serve_solo(sync, stream).served])

    server = solo(
        EngineSession(net, cfg), max_batch=8, max_wait_s=60.0, queue_limit=len(stream)
    )
    report = serve_solo(server, stream)
    assert report.status == "ok" and not report.rejected and not report.failed
    async_y = np.hstack(
        [t.y for t in sorted(report.served, key=lambda t: t.index)]
    )
    assert np.array_equal(async_y, sync_y)


# ------------------------------------------------------------ max-wait flush
def test_stalled_arrival_flushes_partial_block_via_max_wait():
    """A partial block with no further arrivals must flush once its oldest
    request ages past max_wait_s — not wait forever for a full block."""
    session = FakeSession()
    server = solo(session, max_batch=1024, max_wait_s=0.02)
    ticket = server.submit("m", req(2))
    assert ticket.wait(WAIT), "stalled arrival never flushed"
    assert ticket.ready
    assert np.array_equal(ticket.y, req(2) * 2.0)
    assert server.lane("m").counters["wait_flushes"] >= 1
    assert ticket.latency_seconds >= ticket.queue_wait_seconds
    server.close()


# -------------------------------------------------------------- backpressure
def test_full_queue_rejects_under_reject_policy():
    gate = threading.Event()
    session = FakeSession(gate=gate)
    # max_batch=1: the first request flushes immediately and parks the worker
    # on the gate; everything after fills the bounded intake queue
    server = solo(
        session, max_batch=1, max_wait_s=60.0, queue_limit=3, on_full="reject"
    )
    first = server.submit("m", req())
    deadline = time.monotonic() + WAIT
    while session.calls == 0 and time.monotonic() < deadline:
        time.sleep(0.001)  # worker has picked up the first request
    assert session.calls == 1
    accepted = [server.submit("m", req()) for _ in range(3)]
    with pytest.raises(ServeOverflowError):
        server.submit("m", req())
    assert session.metrics.snapshot()["serve_rejected_total"] == 1
    gate.set()
    assert server.close(drain=True, timeout=WAIT)
    for ticket in [first, *accepted]:
        assert ticket.ready  # accepted requests all served, rejection lost none


def test_full_queue_blocks_producer_under_block_policy():
    gate = threading.Event()
    session = FakeSession(gate=gate)
    server = solo(
        session, max_batch=1, max_wait_s=60.0, queue_limit=2, on_full="block"
    )
    first = server.submit("m", req())
    deadline = time.monotonic() + WAIT
    while session.calls == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    tickets = [server.submit("m", req()) for _ in range(2)]  # fills the queue

    blocked_ticket = []
    entered = threading.Event()

    def blocked_producer():
        entered.set()
        blocked_ticket.append(server.submit("m", req()))  # must park, not raise

    producer = threading.Thread(target=blocked_producer)
    producer.start()
    assert entered.wait(WAIT)
    time.sleep(0.05)
    assert producer.is_alive(), "block policy should have parked the producer"
    gate.set()  # worker drains -> space frees -> producer completes
    producer.join(WAIT)
    assert not producer.is_alive()
    assert server.close(drain=True, timeout=WAIT)
    for ticket in [first, *tickets, *blocked_ticket]:
        assert ticket.ready


# ------------------------------------------------------------------ shutdown
def test_shutdown_mid_stream_drains_accepted_tickets():
    gate = threading.Event()
    session = FakeSession(gate=gate)
    server = solo(session, max_batch=4, max_wait_s=60.0, queue_limit=64)
    tickets = [server.submit("m", req()) for _ in range(11)]
    # open the gate from a timer so close() observes a mid-stream shutdown
    threading.Timer(0.02, gate.set).start()
    assert server.close(drain=True, timeout=WAIT)
    assert all(t.ready for t in tickets)  # every accepted ticket served
    with pytest.raises(ServeClosedError):
        server.submit("m", req())


def test_abort_fails_unexecuted_tickets_with_closed_error():
    gate = threading.Event()
    session = FakeSession(gate=gate)
    server = solo(session, max_batch=1, max_wait_s=60.0, queue_limit=64)
    tickets = [server.submit("m", req())]
    deadline = time.monotonic() + WAIT
    while session.calls == 0 and time.monotonic() < deadline:
        time.sleep(0.001)  # worker parked inside block 1; intake empty
    tickets += [server.submit("m", req()) for _ in range(7)]  # queue behind it
    closer = threading.Thread(target=server.close, kwargs={"drain": False})
    closer.start()
    while not server._closed and time.monotonic() < deadline:
        time.sleep(0.001)  # abort flag definitely set before the gate opens
    gate.set()
    closer.join(WAIT)
    assert not closer.is_alive()
    assert all(t.done for t in tickets)  # nothing hangs
    served = [t for t in tickets if t.ready]
    aborted = [t for t in tickets if t.failed]
    assert aborted, "abort should have cancelled the un-run remainder"
    for ticket in aborted:
        assert isinstance(ticket.exception, ServeClosedError)
        with pytest.raises(ServeClosedError):
            ticket.result(timeout=1)
    for ticket in served:  # whatever did execute still resolved normally
        assert np.array_equal(ticket.y, req() * 2.0)
    # every ticket that never ran counts as a failed request of the tenant
    assert session.metrics.snapshot()["serve_failed_total"] == len(aborted)


def test_blocked_producer_woken_by_close_raises():
    gate = threading.Event()
    session = FakeSession(gate=gate)
    server = solo(
        session, max_batch=1, max_wait_s=60.0, queue_limit=1, on_full="block"
    )
    server.submit("m", req())
    deadline = time.monotonic() + WAIT
    while session.calls == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    server.submit("m", req())  # fills the intake queue
    outcome = []

    def blocked_producer():
        try:
            outcome.append(server.submit("m", req()))
        except ServeClosedError as exc:
            outcome.append(exc)

    producer = threading.Thread(target=blocked_producer)
    producer.start()
    time.sleep(0.05)
    gate.set()
    server.close(drain=True, timeout=WAIT)
    producer.join(WAIT)
    assert not producer.is_alive()
    # the producer either squeezed in before close (a served ticket) or was
    # woken by shutdown with the closed error — never a hang, never silence
    assert len(outcome) == 1
    if isinstance(outcome[0], ServeClosedError):
        assert "closed" in str(outcome[0])
    else:
        assert outcome[0].ready


# ---------------------------------------------------------------- exceptions
def test_midblock_exception_reaches_exactly_that_block():
    session = FakeSession(fail_on_call=2)
    server = solo(session, max_batch=4, max_wait_s=0.005, queue_limit=64)
    # 4-column requests: each is its own block under max_batch=4
    t1 = server.submit("m", req(4, fill=1.0))
    assert t1.wait(WAIT) and t1.ready
    t2 = server.submit("m", req(4, fill=2.0))
    assert t2.wait(WAIT) and t2.failed  # rode the failing block
    assert isinstance(t2.exception, RuntimeError)
    with pytest.raises(RuntimeError, match="injected failure"):
        t2.result(timeout=1)
    # the server remains serviceable after the failure
    t3 = server.submit("m", req(4, fill=3.0))
    assert t3.wait(WAIT) and t3.ready
    assert np.array_equal(t3.y, req(4, fill=3.0) * 2.0)
    report_counters = server.lane("m").counters
    assert report_counters["failed"] == 1
    assert session.metrics.snapshot()["serve_failed_total"] == 1
    server.close()


def test_midblock_exception_shared_block_fails_all_riders():
    session = FakeSession(fail_on_call=1)
    server = solo(session, max_batch=4, max_wait_s=60.0, queue_limit=64)
    riders = [server.submit("m", req(2)) for _ in range(2)]  # pack into one block
    for ticket in riders:
        assert ticket.wait(WAIT)
    assert all(t.failed for t in riders)  # both rode the failing block
    assert {type(t.exception) for t in riders} == {RuntimeError}
    # only call 1 fails; the next block must ride through untouched
    survivors = [server.submit("m", req(2)) for _ in range(2)]
    assert server.close(drain=True, timeout=WAIT)
    assert all(t.ready for t in survivors)


# ------------------------------------------------------------- observability
def test_overlap_and_queue_metrics_are_recorded(bench):
    net, cfg, y0 = bench
    stream = [y0[:, lo : lo + 2] for lo in range(0, 32, 2)]
    registry = ModelRegistry()
    registry.register("m", net, config=cfg)
    server = AsyncRouter(registry, max_batch=8, max_wait_s=0.002, queue_limit=64)
    report = serve_solo(server, stream, interarrivals=[0.001] * len(stream))
    assert report.status == "ok"
    assert report.exec_seconds > 0
    assert 0.0 < report.overlap_fraction <= 1.0
    assert report.arrival_seconds > 0
    summary = report.summary()
    assert summary["overlap_fraction"] == pytest.approx(report.overlap_fraction)
    snap = registry.metrics.snapshot()
    assert snap['serve_requests_total{model="m"}'] == len(stream)
    assert snap['serve_failed_total{model="m"}'] == 0
    assert snap["async_overlap_fraction"] > 0
    assert 'async_intake_depth{model="m"}' in snap


def test_slo_tracker_records_the_outer_ticket(bench):
    """A one-tenant async serve feeds its SLO tracker the outer ticket, so
    the recorded latency includes the intake-queue wait and the exemplar's
    breakdown names it (the batcher's inner ticket knows neither)."""
    net, cfg, y0 = bench
    registry = ModelRegistry()
    registry.register("m", net, config=cfg, slo="p99<10s@60s/99%")
    server = AsyncRouter(registry, max_batch=8, max_wait_s=60.0)
    ticket = server.submit("m", y0[:, :2])
    assert server.close(drain=True, timeout=WAIT) and ticket.ready
    slo = registry.slo_tracker("m").report()
    assert slo.requests_total == 1
    assert slo.window["sum"] == pytest.approx(ticket.latency_seconds)
    exemplar = slo.exemplar
    assert exemplar["latency_seconds"] == ticket.latency_seconds
    assert exemplar["breakdown"]["queue_wait_seconds"] == ticket.queue_wait_seconds


def test_async_router_rejects_unknown_policy_and_bad_requests():
    session = FakeSession()
    with pytest.raises(ConfigError):
        solo(session, on_full="drop")
    server = solo(session)
    with pytest.raises(ShapeError):
        server.submit("m", np.ones((7, 2)))  # wrong input dim, rejected in-producer
    with pytest.raises(ShapeError):
        server.submit("m", np.ones((4, 0)))  # empty request
    server.close()


# ----------------------------------------------------------- property-based
def _run_property_stream(seed: int) -> None:
    """Random interleavings of submit/pause/shutdown against a queue model.

    The model is simple: every submission either raises (rejected — by
    overflow or closed transport) or returns a ticket (accepted).  After a
    drain close the invariants must hold: served ∪ rejected partitions the
    stream, no ticket resolves twice, every latency covers its queue wait,
    and every served output is the block function of its input.
    """
    rng = random.Random(seed)
    fail_call = rng.choice([None, 2, 3])
    session = FakeSession(fail_on_call=fail_call)
    server = solo(
        session,
        max_batch=rng.choice([1, 2, 4]),
        max_wait_s=rng.choice([0.0, 0.001, 0.005]),
        queue_limit=rng.choice([2, 4, 8]),
        on_full="reject",
    )
    total = rng.randrange(12, 28)
    close_at = rng.randrange(total + 1) if rng.random() < 0.3 else None
    accepted: dict[int, object] = {}
    overflowed: set[int] = set()
    shed_closed: set[int] = set()
    for index in range(total):
        if close_at == index:
            server.close(drain=True, timeout=WAIT)
        if rng.random() < 0.25:
            time.sleep(rng.choice([0.0, 0.0005, 0.002]))
        width = rng.choice([1, 2, 3])
        try:
            accepted[index] = (
                width, server.submit("m", req(width, fill=float(index + 1)))
            )
        except ServeOverflowError:
            overflowed.add(index)
        except ServeClosedError:
            shed_closed.add(index)
    assert server.close(drain=True, timeout=WAIT)

    # partition: every stream index is exactly one of accepted / rejected
    rejected = overflowed | shed_closed
    assert set(accepted) | rejected == set(range(total))
    assert set(accepted) & rejected == set()
    if close_at is not None:
        assert shed_closed == {i for i in range(close_at, total)} - set(accepted)
    for index, (width, ticket) in accepted.items():
        assert ticket.done, f"accepted request {index} never resolved (seed {seed})"
        assert ticket._resolutions == 1, f"double resolution (seed {seed})"
        assert ticket.latency_seconds >= ticket.queue_wait_seconds - 1e-9
        if ticket.ready:
            assert np.array_equal(ticket.y, req(width, fill=float(index + 1)) * 2.0)
        else:
            assert isinstance(ticket.exception, (RuntimeError, ServeClosedError))
    snap = session.metrics.snapshot()
    assert snap["serve_requests_total"] == len(accepted)
    assert snap["serve_rejected_total"] == len(overflowed)


@pytest.mark.parametrize("seed", range(8))
def test_property_random_interleavings_hold_invariants(seed):
    _run_property_stream(seed)
