"""Serving throughput benchmark: cold per-request engines vs a warm session.

The cold path is today's ``run_engine`` usage — a fresh SNICIT engine per
request, each request its own tiny batch.  The warm path is the serving
stack this package adds: one :class:`~repro.serve.session.EngineSession`
behind a one-tenant :class:`~repro.serve.router.Router`, requests packed
into SNICIT-sized blocks.  Results land in ``BENCH_serve.json`` (layout
:data:`BENCH_SCHEMA`) so successive PRs accumulate a machine-readable perf
trajectory.  The record has one section per question:

``tiers``
    Two SDGC depths plus a trained medium-scale DNN, each measured
    independently so a perf change that only helps shallow nets cannot hide
    a regression on deep ones.  Each tier also replays its stream open-loop
    through the sync and the async router (``async``), and with
    ``centroid_reuse=True`` through a second warm session with the
    :class:`~repro.core.reuse.CentroidCache` enabled (``reuse``: cache
    counters, per-block outcomes, bitwise comparison with reuse off).
``multi``
    Mixed traffic through one multi-tenant router: per-tenant throughput,
    bitwise isolation against single-tenant serves, memory budget, SLO.
``scale_out``
    The same stream population served through
    :class:`~repro.serve.fleet.FleetDispatcher` at increasing worker counts,
    with per-count wall *and* capacity throughput (see
    :mod:`repro.serve.fleet` on why both are reported), bitwise
    ``outputs_identical`` checks against a single-process reference, and a
    crash-injection run proving supervised recovery mid-stream from workers
    booted off a saved warm-state artifact.
``warm_boot``
    One tier booted cold — plan baked, then a priming pass that fills the
    centroid cache and cost baselines from traffic — then snapshotted and
    re-booted from the artifact with a single ``load_warm_state`` call (see
    :mod:`repro.core.warmstore`): time-to-warm for both boot modes and the
    identity triangle (loaded == freshly warmed == cold, bitwise).
``qos``
    An interactive tenant and a saturating bulk tenant served through the
    same router twice — under the QoS policy (see :mod:`repro.serve.qos`)
    and under plain registration-order FIFO — with solo-run latency
    baselines, the interactive p99 inflation ratio the CI gate bounds,
    bitwise ``outputs_identical`` checks against the solo runs, and the shed
    accounting identity (submitted == served + shed + failed).
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.errors import ConfigError
from repro.harness.experiments.common import sdgc_config
from repro.harness.runner import run_engine
from repro.harness.workloads import get_benchmark, get_input
from repro.obs import Tracer
from repro.serve.router import AsyncRouter, ModelRegistry, Router, ServeReport
from repro.serve.session import EngineSession

__all__ = [
    "bench_serve",
    "load_bench_records",
    "poisson_interarrivals",
    "BENCH_SCHEMA",
    "DEFAULT_BENCH_PATH",
    "DEFAULT_SCALE_OUT",
    "DEFAULT_TIERS",
    "MULTI_TIERS",
    "MULTI_SLO_SPEC",
    "STREAM_MODES",
]

DEFAULT_BENCH_PATH = "BENCH_serve.json"

#: on-disk layout of ``BENCH_serve.json``
BENCH_SCHEMA = 6

#: worker counts of the default scale-out curve
DEFAULT_SCALE_OUT = (1, 2, 4)

#: SLO every multi-tenant bench tenant is registered under — loose enough
#: that a healthy CI run is compliant, tight enough that the windowed
#: estimator and budget arithmetic are exercised with real traffic
MULTI_SLO_SPEC = "p99<250ms@30s/95%"

#: tier name -> SDGC benchmark, or the sentinel ``"medium:<id>"``
DEFAULT_TIERS = ("sdgc-shallow", "sdgc-deep", "medium-A")

#: tenants of the mixed-traffic multi-model record (two SDGC depths: fast
#: enough for CI, different enough that conflated state would be caught)
MULTI_TIERS = ("sdgc-shallow", "sdgc-deep")

_TIER_SOURCES = {
    "sdgc-shallow": "144-24",
    "sdgc-deep": "144-48",
    "medium-A": "medium:A",
}

#: request-stream shapes the bench can synthesize
STREAM_MODES = ("mix", "repeat", "drift")


def poisson_interarrivals(n: int, rate_rps: float, seed: int = 0) -> np.ndarray:
    """``n`` exponential interarrival gaps for a Poisson stream of ``rate_rps``.

    The open-loop arrival model: clients submit on their own clock, at
    ``rate_rps`` requests/second on average, independent of how fast the
    server drains.  A non-positive rate degenerates to a closed-loop stream
    (all gaps zero).  Seeded, so sync and async A/B passes replay the exact
    same schedule.
    """
    if n < 0:
        raise ConfigError(f"need a non-negative request count, got {n}")
    if rate_rps <= 0:
        return np.zeros(n)
    return np.random.default_rng(seed).exponential(1.0 / rate_rps, size=n)


def _split_requests(y0: np.ndarray, request_cols: int) -> list[np.ndarray]:
    """Cut a block into per-request column slices (last one may be short)."""
    return [
        y0[:, lo : lo + request_cols] for lo in range(0, y0.shape[1], request_cols)
    ]


def _shape_stream(y0: np.ndarray, stream: str, max_batch: int) -> np.ndarray:
    """Reshape the base column pool into one of the named traffic patterns.

    ``mix``
        The pool as-is: every column distinct, one stable traffic mix.
    ``repeat``
        The first ``max_batch`` columns tiled across the whole stream, so
        every packed block is identical — the best case for centroid reuse
        and the configuration under which reuse must be *bitwise* lossless.
    ``drift``
        First half the base mix, second half the same columns with their
        amplitude doubled — a deliberate input-distribution shift that must
        trip the staleness policy and force a full re-conversion.
    """
    if stream == "mix":
        return y0
    if stream == "repeat":
        block = y0[:, :max_batch]
        reps = -(-y0.shape[1] // block.shape[1])  # ceil
        return np.tile(block, reps)[:, : y0.shape[1]]
    if stream == "drift":
        half = y0.shape[1] // 2
        drifted = y0.copy()
        drifted[:, half:] = y0[:, half:] * 2.0
        return drifted
    raise ConfigError(f"unknown stream mode {stream!r}; known: {STREAM_MODES}")


def _tier_workload(tier: str, total_cols: int, seed: int):
    """Resolve one tier to ``(net, cfg, base column pool)``."""
    source = _TIER_SOURCES.get(tier, tier)
    if source.startswith("medium:"):
        from repro.harness.experiments.table4 import medium_config
        from repro.harness.medium import get_trained

        tm = get_trained(source.split(":", 1)[1])
        images = tm.test.images
        reps = -(-total_cols // images.shape[0])
        if reps > 1:
            images = np.concatenate([images] * reps)
        y0 = tm.stack.head(images[:total_cols])
        return tm.stack.network, medium_config(tm.spec.sparse_layers), y0
    net = get_benchmark(source)
    return net, sdgc_config(net.num_layers), np.asarray(get_input(source, total_cols, seed))


#: tenant name of the bench's one-tenant routers
SOLO = "solo"


def _serve_solo(
    session, stream, max_batch, transport=Router, interarrivals=None
) -> tuple[Router | AsyncRouter, ServeReport]:
    """Serve ``stream`` through a one-tenant router over ``session``.

    ``max_wait_s`` stays high, so blocks pack identically on either
    transport.  Returns the router (its lane stays readable) and the
    tenant's report.
    """
    registry = ModelRegistry()
    registry.register(SOLO, session=session)
    router = transport(
        registry, max_batch=max_batch, max_wait_s=60.0, queue_limit=len(stream)
    )
    report = router.serve(((SOLO, y0) for y0 in stream), interarrivals=interarrivals)
    return router, report.per_model[SOLO]


def _warm_pass(
    net, cfg, stream, max_batch, tracer=None, centroid_reuse=False, reuse_tolerance=0.5
):
    """One full serve of ``stream`` through a fresh warm session."""
    session = EngineSession(
        net, cfg, tracer=tracer,
        centroid_reuse=centroid_reuse, reuse_tolerance=reuse_tolerance,
    )
    router, report = _serve_solo(session, stream, max_batch)
    return session, router, report


def _async_ab(
    net, cfg, stream, max_batch, seed: int, arrival_rate: float | None,
    warm_wall: float, reference_served,
) -> dict:
    """Open-loop sync-vs-async A/B on one tier's stream.

    Both routers replay the *same* seeded Poisson arrival schedule; the
    sync router serializes arrival gaps with block execution while the
    async worker hides them behind it.  ``max_wait_s`` stays high so both
    sides pack identical blocks — outputs must then match bitwise, and the
    throughput delta is purely the overlap.
    """
    rate = arrival_rate
    if rate is None:
        # auto-pace: mean interarrival ~= the tier's warm per-request service
        # time, so the arrival span is comparable to execution and the
        # overlap is what separates the two transports
        per_request = warm_wall / max(len(stream), 1)
        rate = 1.0 / per_request if per_request > 0 else 1000.0
    gaps = poisson_interarrivals(len(stream), rate, seed)

    _, s_report = _serve_solo(
        EngineSession(net, cfg), stream, max_batch, interarrivals=gaps
    )
    _, a_report = _serve_solo(
        EngineSession(net, cfg), stream, max_batch,
        transport=AsyncRouter, interarrivals=gaps,
    )

    sync_y = np.hstack([t.y for t in s_report.served])
    async_y = np.hstack([t.y for t in a_report.served])
    sync_cats = np.concatenate([t.categories for t in s_report.served])
    async_cats = np.concatenate([t.categories for t in a_report.served])
    ref_cats = np.concatenate([t.categories for t in reference_served])
    return {
        "arrival_rate_rps": rate,
        "arrival_seconds": float(gaps.sum()),
        "sync": {
            "seconds": s_report.wall_seconds,
            "requests_per_second": s_report.requests_per_second,
            "latency_seconds": s_report.latency_quantiles(),
            "status": s_report.status,
        },
        "async": {
            "seconds": a_report.wall_seconds,
            "requests_per_second": a_report.requests_per_second,
            "latency_seconds": a_report.latency_quantiles(),
            "status": a_report.status,
            "overlap_fraction": a_report.overlap_fraction,
            "exec_seconds": a_report.exec_seconds,
            "failed": len(a_report.failed),
        },
        "outputs_identical": bool(np.array_equal(async_y, sync_y)),
        "categories_match": bool(
            (async_cats == sync_cats).all() and (async_cats == ref_cats).all()
        ),
        "async_ge_sync": bool(
            a_report.requests_per_second >= s_report.requests_per_second
        ),
        "speedup_vs_sync": (
            s_report.wall_seconds / a_report.wall_seconds
            if a_report.wall_seconds > 0
            else float("inf")
        ),
    }


def _run_tier(
    tier: str,
    benchmark_source: str,
    requests: int,
    request_cols: int,
    max_batch: int,
    threshold: int | None,
    seed: int,
    stream_mode: str,
    centroid_reuse: bool,
    reuse_tolerance: float,
    tracer: Tracer | None,
    async_ab: bool = True,
    arrival_rate: float | None = None,
) -> dict:
    """Measure one tier: cold pass, warm pass, and the optional reuse A/B."""
    total_cols = requests * request_cols
    net, cfg, pool = _tier_workload(benchmark_source, total_cols, seed)
    if threshold is not None:
        cfg = dataclasses.replace(cfg, threshold_layer=threshold)
    pool = _shape_stream(pool, stream_mode, max_batch)
    stream = _split_requests(pool, request_cols)

    # the warm session's warmup also pre-builds the shared weight views the
    # cold path will then hit through the network cache, so the comparison
    # isolates steady-state serving cost (engine construction + packing)
    session, router, report = _warm_pass(net, cfg, stream, max_batch, tracer=tracer)

    t0 = time.perf_counter()
    cold_runs = [run_engine("snicit", net, y0, snicit_config=cfg) for y0 in stream]
    cold_seconds = time.perf_counter() - t0

    cold_cats = np.concatenate([run.result.categories for run in cold_runs])
    warm_cats = np.concatenate([t.categories for t in report.served])
    cold_y = np.hstack([run.result.y for run in cold_runs])
    warm_y = np.hstack([t.y for t in report.served])
    cold_busy = sum(sum(r.result.stage_seconds.values()) for r in cold_runs)

    # per-block engine seconds, in serve order (tickets of one block share
    # its InferenceResult); the steady-state view drops the first block so
    # one-time effects — plan priming, first pool/view touches — report
    # separately from the hot-path rate the perf gate regresses on
    seen: set[int] = set()
    blocks: list[tuple[float, int]] = []
    for ticket in report.served:
        if id(ticket.result) not in seen:
            seen.add(id(ticket.result))
            blocks.append(
                (sum(ticket.result.stage_seconds.values()), int(ticket.batch_columns))
            )
    steady_busy = sum(b for b, _ in blocks[1:])
    steady_cols = sum(c for _, c in blocks[1:])
    steady_state = {
        "blocks": max(len(blocks) - 1, 0),
        "columns": steady_cols,
        "busy_seconds": steady_busy,
        "columns_per_second": steady_cols / steady_busy if steady_busy > 0 else 0.0,
    }
    first_block = (
        {"busy_seconds": blocks[0][0], "columns": blocks[0][1]} if blocks else None
    )

    record = {
        "tier": tier,
        "benchmark": net.name,
        "paper_name": net.meta.get("paper_name"),
        "requests": len(stream),
        "request_cols": request_cols,
        "total_columns": sum(y0.shape[1] for y0 in stream),
        "max_batch": max_batch,
        "threshold_layer": cfg.for_network(net.num_layers).threshold_layer,
        "stream": stream_mode,
        "cold": {
            "seconds": cold_seconds,
            "busy_seconds": cold_busy,
            "requests_per_second": len(stream) / cold_seconds if cold_seconds else 0.0,
            "columns_per_second": (
                sum(y0.shape[1] for y0 in stream) / cold_seconds if cold_seconds else 0.0
            ),
        },
        "warm": {
            "seconds": report.wall_seconds,
            "requests_per_second": report.requests_per_second,
            "columns_per_second": report.columns_per_second,
            "latency_seconds": report.latency_quantiles(),
            "rejected": len(report.rejected),
            "batcher": router.lane(SOLO).stats(),
            # one-time costs, reported apart from steady-state throughput
            "first_block": first_block,
            "steady_state": steady_state,
            # session lifetime stats: warmup_seconds, busy_seconds, the
            # baked plan, memo/scratch/cache counters
            "session": session.stats(),
            # telemetry of the last warm block (JSON-safe engine report)
            "last_block": report.served[-1].result.to_json() if report.served else None,
        },
        "metrics": session.metrics.snapshot(),
        "speedup": (
            cold_seconds / report.wall_seconds if report.wall_seconds > 0 else float("inf")
        ),
        # the fair hot-path regression metric: warm steady-state engine
        # throughput (warmup and the first block excluded) against the cold
        # per-request engine throughput on the same stream
        "warm_over_cold": (
            steady_state["columns_per_second"]
            / (sum(y0.shape[1] for y0 in stream) / cold_seconds)
            if cold_seconds > 0 and steady_state["columns_per_second"] > 0
            else 0.0
        ),
        "categories_match": bool((cold_cats == warm_cats).all()),
        "outputs_identical": bool(np.array_equal(warm_y, cold_y)),
    }

    if async_ab:
        record["async"] = _async_ab(
            net, cfg, stream, max_batch, seed, arrival_rate,
            warm_wall=report.wall_seconds, reference_served=report.served,
        )

    if centroid_reuse:
        r_session, r_router, r_report = _warm_pass(
            net, cfg, stream, max_batch,
            centroid_reuse=True, reuse_tolerance=reuse_tolerance,
        )
        off_y = np.hstack([t.y for t in report.served])
        on_y = np.hstack([t.y for t in r_report.served])
        on_cats = np.concatenate([t.categories for t in r_report.served])
        record["reuse"] = {
            "tolerance": reuse_tolerance,
            "warm": {
                "seconds": r_report.wall_seconds,
                "requests_per_second": r_report.requests_per_second,
                "columns_per_second": r_report.columns_per_second,
                "latency_seconds": r_report.latency_quantiles(),
            },
            "cache": r_session.reuse.stats(),
            "reuse_blocks": dict(r_router.lane(SOLO).reuse_outcomes),
            "outputs_identical": bool(np.array_equal(on_y, off_y)),
            "categories_match": bool((on_cats == warm_cats).all()),
            "speedup_vs_warm": (
                report.wall_seconds / r_report.wall_seconds
                if r_report.wall_seconds > 0
                else float("inf")
            ),
            "metrics": r_session.metrics.snapshot(),
        }
    return record


def _run_multi(
    tiers: tuple[str, ...],
    requests: int,
    request_cols: int,
    max_batch: int,
    seed: int,
    memory_budget_mb: float | None,
    slo: str | None = MULTI_SLO_SPEC,
) -> dict:
    """Mixed-traffic multi-tenant record: throughput, isolation, budget, SLO.

    Each tier becomes one named tenant in a :class:`~repro.serve.router.
    ModelRegistry`; the mixed stream round-robins the tenants in
    block-sized chunks through the synchronous :class:`~repro.serve.router.
    Router`.  Two properties are asserted into the record:

    * **isolation** — every tenant's outputs are compared bitwise against a
      single-tenant serve of the same stream (same batcher geometry).
      Mixing tenants must change nothing, with or without budget-driven
      warm-to-cold demotions mid-stream;
    * **budget** — with ``memory_budget_mb`` set, the post-run high-water
      mark must sit at or under the limit and the LRU demotions it took to
      get there are recorded.

    Every tenant is additionally registered under the ``slo`` policy spec
    (default :data:`MULTI_SLO_SPEC`; ``None`` disables), so the record
    carries a live per-tenant SLO evaluation — windowed p50/p95/p99, budget
    burn, and the slowest request's exemplar with its trace span id.  The
    isolation check doubles as the proof that SLO instrumentation does not
    change served outputs: the single-tenant references run *without*
    trackers, and the mixed run must still match them bitwise.
    """
    budget_bytes = (
        int(memory_budget_mb * 1024 * 1024) if memory_budget_mb is not None else None
    )
    tenants: dict[str, dict] = {}
    for tier in tiers:
        net, cfg, pool = _tier_workload(tier, requests * request_cols, seed)
        net.drop_views()  # a prior tier may share this network object warm
        tenants[tier] = {
            "net": net,
            "cfg": cfg,
            "stream": _split_requests(pool, request_cols),
        }

    # single-tenant references: same stream, same batcher geometry, no
    # neighbors — the bar the mixed run must match bitwise
    for name, tenant in tenants.items():
        _, _, tenant["reference"] = _warm_pass(
            tenant["net"], tenant["cfg"], tenant["stream"], max_batch
        )
        tenant["net"].drop_views()  # hand the views back cold to the router

    registry = ModelRegistry(memory_budget_bytes=budget_bytes)
    for name, tenant in tenants.items():
        registry.register(
            name, tenant["net"], config=tenant["cfg"], warm=True, slo=slo
        )
    router = Router(
        registry, max_batch=max_batch, max_wait_s=60.0,
        queue_limit=max(len(t["stream"]) for t in tenants.values()),
    )

    # round-robin in block-sized chunks so every tenant flushes full blocks
    # and budget enforcement happens per block, not per request
    chunk = max(1, max_batch // request_cols)
    mixed: list[tuple[str, np.ndarray]] = []
    offset = 0
    while any(offset < len(t["stream"]) for t in tenants.values()):
        for name, tenant in tenants.items():
            for y0 in tenant["stream"][offset : offset + chunk]:
                mixed.append((name, y0))
        offset += chunk

    report = router.serve(iter(mixed))

    per_tenant = {}
    for name, tenant in tenants.items():
        ref, mine = tenant["reference"], report.per_model[name]
        identical = len(ref.served) == len(mine.served) and all(
            np.array_equal(t.y, rt.y) for t, rt in zip(mine.served, ref.served)
        )
        lane = router.lane(name).stats()
        per_tenant[name] = {
            "requests": mine.requests,
            "served": len(mine.served),
            "rejected": len(mine.rejected),
            "columns": mine.columns,
            "columns_per_second": mine.columns_per_second,
            "latency_seconds": mine.latency_quantiles(),
            "status": mine.status,
            "isolation_identical": bool(identical),
            # same check, stated as the SLO-instrumentation invariant: the
            # references ran without trackers, so a bitwise match proves the
            # telemetry path never touched served outputs
            "outputs_identical": bool(identical),
            "single_tenant_seconds": ref.wall_seconds,
            "single_tenant_columns_per_second": ref.columns_per_second,
            "hol_stalls": lane["hol_stalls"],
            "hol_underfill_columns": lane["hol_underfill_columns"],
            "batcher": lane,
            # live SLO evaluation: windowed p50/p95/p99, burn rate, budget,
            # and the slowest request's exemplar with its trace span id
            "slo": (report.slo or {}).get(name),
        }

    budget_stats = registry.budget.stats()
    return {
        "tenants": list(tiers),
        "requests_per_tenant": requests,
        "request_cols": request_cols,
        "max_batch": max_batch,
        "memory_budget_mb": memory_budget_mb,
        "slo_spec": slo,
        "router": report.to_json(),
        "per_tenant": per_tenant,
        "isolation_identical": bool(
            all(t["isolation_identical"] for t in per_tenant.values())
        ),
        "demoted": list(report.demoted),
        "budget": budget_stats,
        "under_budget": (
            bool(budget_stats["highwater_bytes"] <= budget_stats["limit_bytes"])
            if budget_stats["limit_bytes"] is not None
            else None
        ),
        "metrics": registry.metrics.snapshot(),
    }


def _balanced_streams(count: int, workers: int) -> list[str]:
    """``count`` stream names sharding evenly over ``workers`` fleet slots.

    :func:`~repro.serve.fleet.stream_shard` is a hash, so a tiny stream
    population can land lopsided by luck; the bench picks names that fill
    every slot of the *largest* measured worker count evenly (divisor
    counts then inherit balance, since ``h % d == (h % w) % d`` when ``d``
    divides ``w``).  Real deployments get the same effect from stream
    population size; the curve should measure scaling, not hash variance.
    """
    from repro.serve.fleet import stream_shard

    per_slot = -(-count // workers)  # ceil
    filled = dict.fromkeys(range(workers), 0)
    names: list[str] = []
    n = 0
    while len(names) < count:
        name = f"s{n}"
        n += 1
        slot = stream_shard(name, workers)
        if filled[slot] < per_slot:
            filled[slot] += 1
            names.append(name)
    return names


def _single_process_reference(net, cfg, items, max_batch) -> dict:
    """Per-stream hstacked outputs from one in-process stream-lane router."""
    net.drop_views()
    registry = ModelRegistry()
    registry.register("m", net, config=cfg, warm=True)
    router = AsyncRouter(
        registry, max_batch=max_batch, max_wait_s=60.0,
        queue_limit=len(items) + 1,
    )
    tickets = [
        (stream, router.submit(model, y0, stream=stream))
        for model, stream, y0 in items
    ]
    router.close(drain=True)
    outputs: dict[str, list] = {}
    for stream, ticket in tickets:
        outputs.setdefault(stream, []).append(ticket.y)
    net.drop_views()  # hand the memoized network back cold
    return {s: np.hstack(parts) for s, parts in outputs.items()}


def _fleet_pass(spec, items, workers, max_batch, kill: int | None = None):
    """One fleet serve of ``items``; optionally SIGKILL a worker mid-stream."""
    from repro.serve.fleet import FleetDispatcher

    fleet = FleetDispatcher(
        [spec], workers=workers, max_batch=max_batch, max_wait_s=60.0,
        queue_limit=len(items) + 1,
    )
    try:
        for model, stream, y0 in items:
            fleet.submit(model, y0, stream=stream)
        if kill is not None:
            fleet.kill_worker(kill)
        return fleet.join()
    finally:
        fleet.close()


def _streams_identical(report, reference, streams) -> bool:
    return all(
        stream in reference
        and np.array_equal(report.stream_output(stream), reference[stream])
        for stream in streams
    )


def _run_warm_boot(
    tier: str,
    requests: int,
    request_cols: int,
    max_batch: int,
    seed: int,
    reuse_tolerance: float = 0.0,
    revise_ratio: float | None = 2.0,
) -> dict:
    """Persistent-warmup record: artifact boot vs cold warm+prime.

    The cold path to a fully warm session is two-phase: ``warmup()`` bakes
    the plan and pins views, then the first blocks of traffic *teach* it —
    centroid-cache fills with their staleness baselines, per-bucket kernel
    cost baselines.  The warmstore artifact replaces both phases with one
    ``load_warm_state`` call, so the honest comparison is::

        cold.ready_seconds  = warmup_seconds + prime_seconds   (bake + learn)
        artifact.load_seconds                                   (one load)

    The stream is ``repeat`` with ``reuse_tolerance=0.0`` — the regime where
    centroid reuse is bitwise lossless — so the record can also assert the
    identity triangle: loaded-warm == freshly-warmed == cold-boot outputs,
    all bitwise.  ``revise_ratio`` keeps the measure-and-revise loop armed
    on every session, proving a loaded plan revises like a baked one.
    """
    total_cols = requests * request_cols
    net, cfg, pool = _tier_workload(tier, total_cols, seed)
    pool = _shape_stream(pool, "repeat", max_batch)
    stream = _split_requests(pool, request_cols)

    def fresh_session():
        return EngineSession(
            net, cfg, warm=False,
            centroid_reuse=True, reuse_tolerance=reuse_tolerance,
            revise_ratio=revise_ratio,
        )

    def serve(session):
        _, report = _serve_solo(session, stream, max_batch)
        return np.hstack([t.y for t in report.served])

    # ---- cold boot: bake the plan, then learn from the priming pass
    net.drop_views()
    cold = fresh_session()
    t0 = time.perf_counter()
    cold.warmup()
    warmup_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    cold_y = serve(cold)
    prime_seconds = time.perf_counter() - t0

    art_dir = tempfile.mkdtemp(prefix="repro-warmstore-")
    art_path = os.path.join(art_dir, f"{tier}.warmstate")
    try:
        t0 = time.perf_counter()
        save_manifest = cold.save_warm_state(art_path)
        save_seconds = time.perf_counter() - t0

        # freshly-warmed reference: bakes its own plan, learns its own cache
        net.drop_views()
        fresh = fresh_session()
        fresh.warmup()
        fresh_y = serve(fresh)

        # artifact boot: one load call replaces warmup *and* priming
        net.drop_views()
        loaded = fresh_session()
        t0 = time.perf_counter()
        load_manifest = loaded.load_warm_state(art_path)
        load_seconds = time.perf_counter() - t0
        loaded_y = serve(loaded)
    finally:
        shutil.rmtree(art_dir, ignore_errors=True)
    net.drop_views()

    ready_seconds = warmup_seconds + prime_seconds
    return {
        "tier": tier,
        "benchmark": net.name,
        "requests": len(stream),
        "request_cols": request_cols,
        "max_batch": max_batch,
        "stream": "repeat",
        "reuse_tolerance": reuse_tolerance,
        "revise_ratio": revise_ratio,
        "cold": {
            "warmup_seconds": warmup_seconds,
            "prime_seconds": prime_seconds,
            "ready_seconds": ready_seconds,
        },
        "artifact": {
            "save_seconds": save_seconds,
            "load_seconds": load_seconds,
            "size_bytes": save_manifest["size_bytes"],
            "dense_views": save_manifest["dense_views"],
            "ell_views": save_manifest["ell_views"],
            "plan_layers": save_manifest["plan_layers"],
            "memo_choices": save_manifest["memo_choices"],
            "memo_costs": save_manifest["memo_costs"],
            "cache_entries_saved": save_manifest["cache_entries"],
            "cache_entries_adopted": load_manifest["cache_entries"],
        },
        "speedup": ready_seconds / load_seconds if load_seconds > 0 else float("inf"),
        "loaded_warm_source": loaded.warm_source,
        "loaded_cache": loaded.reuse.stats() if loaded.reuse is not None else None,
        "outputs_identical": bool(
            np.array_equal(loaded_y, fresh_y) and np.array_equal(fresh_y, cold_y)
        ),
    }


def _run_scale_out(
    worker_counts,
    tier: str,
    requests: int,
    request_cols: int,
    seed: int,
    streams: int = 8,
    max_batch: int = 16,
) -> dict:
    """Scale-out curve: one tier through the fleet at rising N.

    The same ``requests`` (round-robined over a fixed stream population)
    are served by a :class:`~repro.serve.fleet.FleetDispatcher` at every
    worker count, and every run's per-stream outputs are compared bitwise
    against a single-process stream-lane reference — scale-out must be
    numerically free.  Each entry records *wall* throughput (this host,
    possibly core-limited) and *capacity* throughput (total columns over
    the critical-path worker's CPU seconds — what the shard layout sustains
    with a core per worker); ``speedup_vs_single`` under ``capacity`` is
    the headline the CI gate checks.  A final crash run at the largest
    count SIGKILLs one worker mid-stream and must recover: victim restarted
    (restart counters surfaced), streams replayed, every output still
    bitwise identical, no request failed anywhere.  The crash run's
    workers boot from a saved warmstore artifact, so the
    victim's replacement incarnation demonstrates the artifact-boot
    restart path (``crash["artifact_boot"]``).
    """
    from repro.serve.fleet import TenantSpec, stream_shard

    counts = sorted({int(n) for n in worker_counts})
    if not counts or counts[0] < 1:
        raise ConfigError(f"worker counts must be >= 1, got {list(worker_counts)}")
    source = _TIER_SOURCES.get(tier, tier)
    net, cfg, pool = _tier_workload(tier, requests * request_cols, seed)
    slices = _split_requests(pool, request_cols)
    names = _balanced_streams(streams, counts[-1])
    items = [
        ("m", names[j % len(names)], y0) for j, y0 in enumerate(slices)
    ]
    total_columns = sum(y0.shape[1] for _, _, y0 in items)
    reference = _single_process_reference(net, cfg, items, max_batch)
    spec = TenantSpec("m", source)

    entries = []
    baseline = None  # the single-worker (smallest-count) entry
    merged_metrics = None
    for n in counts:
        report = _fleet_pass(spec, items, n, max_batch)
        per_worker = []
        for i, rep in enumerate(report.worker_reports):
            per_worker.append({
                "worker": i,
                "requests": (rep or {}).get("requests"),
                "columns": (rep or {}).get("columns"),
                "streams": len((rep or {}).get("streams") or []),
                "cpu_seconds": (rep or {}).get("cpu_seconds"),
                "busy_seconds": (rep or {}).get("busy_seconds"),
            })
        entry = {
            "workers": n,
            "served": len(report.served),
            "rejected": len(report.rejected),
            "failed": len(report.failed),
            "restarts": report.restart_total,
            "outputs_identical": _streams_identical(report, reference, names),
            "wall_seconds": report.wall_seconds,
            "wall_columns_per_second": report.columns_per_second,
            "latency_seconds": report.latency_quantiles(),
            "capacity": {
                "critical_path_cpu_seconds": report.critical_path_cpu_seconds,
                "columns_per_second": report.capacity_columns_per_second,
            },
            "per_worker": per_worker,
        }
        if baseline is None:
            baseline = entry
        base_wall = baseline["wall_columns_per_second"]
        base_cap = baseline["capacity"]["columns_per_second"]
        entry["wall_speedup_vs_single"] = (
            entry["wall_columns_per_second"] / base_wall if base_wall else None
        )
        entry["capacity"]["speedup_vs_single"] = (
            entry["capacity"]["columns_per_second"] / base_cap
            if base_cap
            else None
        )
        entries.append(entry)
        if n == counts[-1]:
            merged_metrics = report.merged_metrics()

    crash = None
    if counts[-1] >= 2:
        n = counts[-1]
        victim = stream_shard(items[0][1], n)
        # the crash run boots its workers from a warm-state artifact: warmup
        # is paid once here at save time, and — the point of the exercise —
        # the SIGKILLed worker's replacement incarnation loads the same file
        # instead of re-baking before it replays the victim streams
        art_dir = tempfile.mkdtemp(prefix="repro-warmstore-")
        art_path = os.path.join(art_dir, "fleet.warmstate")
        net.drop_views()
        save_manifest = EngineSession(net, cfg).save_warm_state(art_path)
        net.drop_views()
        try:
            report = _fleet_pass(
                dataclasses.replace(spec, warm_state=art_path),
                items, n, max_batch, kill=victim,
            )
        finally:
            shutil.rmtree(art_dir, ignore_errors=True)
        other_streams = [s for s in names if stream_shard(s, n) != victim]
        victim_streams = [s for s in names if stream_shard(s, n) == victim]
        victim_rep = report.worker_reports[victim] or {}
        sources = [
            ((rep or {}).get("warm_sources") or {}).get("m")
            for rep in report.worker_reports
        ]
        crash = {
            "workers": n,
            "victim": victim,
            "restarts": list(report.restarts),
            "restart_total": report.restart_total,
            "replayed": list(report.replayed),
            "served": len(report.served),
            "failed": len(report.failed),
            "rejected": len(report.rejected),
            "outputs_identical": _streams_identical(report, reference, names),
            "other_workers_identical": _streams_identical(
                report, reference, other_streams
            ),
            "victim_streams_identical": _streams_identical(
                report, reference, victim_streams
            ),
            "recovered": bool(
                report.restart_total >= 1
                and not report.failed
                and len(report.served) == len(items)
                and _streams_identical(report, reference, names)
            ),
            "artifact_boot": {
                "size_bytes": save_manifest["size_bytes"],
                "plan_layers": save_manifest["plan_layers"],
                "warm_sources": sources,
                "all_workers_artifact": all(s == "artifact" for s in sources),
                "victim_warm_source": sources[victim],
                "victim_incarnation": victim_rep.get("incarnation"),
                "victim_build_seconds": victim_rep.get("build_seconds"),
                "victim_warmup_seconds": victim_rep.get("warmup_seconds"),
            },
        }

    return {
        "tier": tier,
        "benchmark": net.name,
        "source": source,
        "streams": len(names),
        "stream_names": names,
        "requests": len(items),
        "request_cols": request_cols,
        "total_columns": total_columns,
        "max_batch": max_batch,
        "cpu_count": os.cpu_count(),
        "workers": entries,
        "crash": crash,
        "metrics": merged_metrics,
    }


def _qos_latency_quantiles(tickets, qs=(0.5, 0.95, 0.99)) -> dict | None:
    lat = [
        t.latency_seconds
        for t in tickets
        if t.ready and t.latency_seconds is not None
    ]
    if not lat:
        return None
    arr = np.array(lat)
    return {f"p{int(q * 100)}": float(np.quantile(arr, q)) for q in qs}


def _qos_tickets_identical(mine, reference) -> bool:
    """Bitwise compare two served-ticket sequences, submit order."""
    a = [t for t in mine if t.ready]
    b = [t for t in reference if t.ready]
    return len(a) == len(b) and all(
        np.array_equal(x.y, y.y) for x, y in zip(a, b)
    )


def _qos_pass(tenants, submissions, max_batch, policy):
    """One async serve of ``submissions`` under the given scheduler policy.

    Returns per-tenant ticket lists (submit order), per-tenant shed counts
    by admission reason, the router's final stats, and the wall seconds
    from first submit to drained.
    """
    from repro.errors import ServeShedError

    registry = ModelRegistry()
    for name, tenant in tenants.items():
        tenant["net"].drop_views()
        registry.register(
            name, tenant["net"], config=tenant["cfg"], warm=True,
            slo=tenant.get("slo"), qos=tenant.get("qos"),
        )
    router = AsyncRouter(
        registry, max_batch=max_batch, max_wait_s=60.0,
        queue_limit=len(submissions) + 1, on_full="reject", policy=policy,
    )
    tickets: dict[str, list] = {name: [] for name in tenants}
    shed: dict[str, dict[str, int]] = {name: {} for name in tenants}
    t0 = time.perf_counter()
    for name, y0 in submissions:
        try:
            tickets[name].append(router.submit(name, y0))
        except ServeShedError as exc:
            shed[name][exc.reason] = shed[name].get(exc.reason, 0) + 1
    router.close(drain=True)
    wall = time.perf_counter() - t0
    stats = router.stats()
    for tenant in tenants.values():
        tenant["net"].drop_views()  # hand the memoized network back cold
    return tickets, shed, stats, wall


def _run_qos(
    requests: int = 24,
    bulk_requests: int = 40,
    request_cols: int = 16,
    seed: int = 1,
    interactive_tier: str = "sdgc-shallow",
    bulk_tier: str = "sdgc-deep",
    bulk_admit: int | None = None,
    slo: str | None = MULTI_SLO_SPEC,
) -> dict:
    """QoS A/B: interactive p99 under bulk saturation, two arms.

    Two tenants share one :class:`~repro.serve.router.AsyncRouter`: an
    ``interactive``-class tenant and a ``batch``-class bulk tenant whose
    policy carries a hard quota (``rate=0`` token bucket) sized to admit
    ``bulk_admit`` of its ``bulk_requests`` requests.  The bulk tenant
    submits its whole burst first, then the interactive tenant submits —
    the worst arrival order for the interactive side, since the worker is
    already deep in the bulk backlog.

    Every request is exactly one ``request_cols``-column block
    (``max_batch == request_cols``), so scheduling order — not packing — is
    the only variable between arms; packing invariance under QoS is proved
    separately by the scheduler property tests.

    Four passes: each tenant solo (its latency baseline and, for the bulk
    tenant, the admitted-prefix reference the quota must reproduce), the
    mixed stream under ``policy="qos"``, and the same mixed stream under
    ``policy="fifo"`` (registration-order service, no admission).  The
    record carries both arms' interactive p99 inflation over solo — the
    QoS arm must hold near 1.0 while the FIFO arm queues interactive
    behind the whole bulk backlog — plus bitwise output identity against
    the solo runs and the shed accounting identity.
    """
    max_batch = request_cols
    tenants: dict[str, dict] = {}
    for name, tier, count in (
        ("interactive", interactive_tier, requests),
        ("bulk", bulk_tier, bulk_requests),
    ):
        net, cfg, pool = _tier_workload(tier, count * request_cols, seed)
        net.drop_views()
        tenants[name] = {
            "net": net, "cfg": cfg, "tier": tier, "slo": slo,
            "stream": _split_requests(pool, request_cols),
        }
    if bulk_admit is None:
        bulk_admit = max(1, (bulk_requests * 3) // 5)
    if not 0 < bulk_admit <= bulk_requests:
        raise ConfigError(
            f"bulk_admit must be in 1..{bulk_requests}, got {bulk_admit}"
        )
    tenants["interactive"]["qos"] = "interactive"
    # hard quota: a zero-rate bucket admits exactly the first `bulk_admit`
    # requests, so the shed count — and the served subsequence the solo
    # reference must match bitwise — is deterministic, not timing-dependent
    tenants["bulk"]["qos"] = f"batch:rate=0,burst={bulk_admit * request_cols}"

    def submissions(names):
        return [
            (name, y0) for name in names for y0 in tenants[name]["stream"]
        ]

    solo: dict[str, dict] = {}
    solo_tickets: dict[str, list] = {}
    for name in tenants:
        tks, shed, _, wall = _qos_pass(
            {name: tenants[name]}, submissions([name]), max_batch, "qos"
        )
        solo_tickets[name] = tks[name]
        solo[name] = {
            "served": sum(1 for t in tks[name] if t.ready),
            "shed": sum(shed[name].values()),
            "latency_seconds": _qos_latency_quantiles(tks[name]),
            "wall_seconds": wall,
        }

    def run_arm(policy):
        # bulk first: its lane is created first (so FIFO services it
        # first) and its backlog is already queued when interactive arrives
        tks, shed, stats, wall = _qos_pass(
            tenants, submissions(["bulk", "interactive"]), max_batch, policy
        )
        per_tenant = {}
        for name in tenants:
            served = sum(1 for t in tks[name] if t.ready)
            failed = sum(1 for t in tks[name] if t.failed)
            shed_n = sum(shed[name].values())
            submitted = len(tenants[name]["stream"])
            lat = _qos_latency_quantiles(tks[name])
            solo_p99 = (solo[name]["latency_seconds"] or {}).get("p99")
            per_tenant[name] = {
                "tier": tenants[name]["tier"],
                "qos": tenants[name]["qos"],
                "submitted": submitted,
                "served": served,
                "shed": shed_n,
                "shed_reasons": dict(shed[name]),
                "failed": failed,
                "shed_accounting_ok": bool(
                    served + shed_n + failed == submitted
                ),
                "latency_seconds": lat,
                "p99_over_solo": (
                    lat["p99"] / solo_p99
                    if lat and solo_p99 and solo_p99 > 0
                    else None
                ),
                "outputs_identical": _qos_tickets_identical(
                    tks[name], solo_tickets[name]
                ),
            }
        return {
            "policy": policy,
            "wall_seconds": wall,
            "per_tenant": per_tenant,
            "interactive_p99_ratio": per_tenant["interactive"]["p99_over_solo"],
            "qos": stats.get("qos"),
        }

    with_qos = run_arm("qos")
    no_qos = run_arm("fifo")
    return {
        "interactive_tier": interactive_tier,
        "bulk_tier": bulk_tier,
        "requests": requests,
        "bulk_requests": bulk_requests,
        "bulk_admit": bulk_admit,
        "request_cols": request_cols,
        "max_batch": max_batch,
        "slo_spec": slo,
        "solo": solo,
        "with_qos": with_qos,
        "no_qos": no_qos,
        "outputs_identical": bool(
            all(
                t["outputs_identical"]
                for t in with_qos["per_tenant"].values()
            )
        ),
        "shed_accounting_ok": bool(
            all(
                t["shed_accounting_ok"]
                for t in with_qos["per_tenant"].values()
            )
        ),
    }


def load_bench_records(data) -> list[dict]:
    """Per-tier records from a loaded ``BENCH_serve.json`` object.

    A record-only capture (``tiers`` absent, e.g. ``--tiers none`` CI
    runs with only ``scale_out`` or ``qos``) yields an empty list, *not* an
    error, so perf tooling pointed at such a file skips tier gating instead
    of crashing.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"expected a BENCH_serve dict, got {type(data).__name__}")
    if "tiers" in data:
        return list(data["tiers"])
    if "scale_out" in data or "qos" in data:
        return []  # record-only capture (e.g. a CI smoke run); no tiers
    raise ConfigError(
        "unrecognized BENCH_serve layout (no 'tiers', 'scale_out', or 'qos' key)"
    )


def bench_serve(
    benchmark: str | None = None,
    requests: int = 48,
    request_cols: int = 4,
    max_batch: int = 64,
    threshold: int | None = None,
    seed: int = 1,
    out: str | Path | None = DEFAULT_BENCH_PATH,
    trace: str | Path | None = None,
    tiers: tuple[str, ...] | None = None,
    stream: str = "mix",
    centroid_reuse: bool = False,
    reuse_tolerance: float = 0.5,
    async_ab: bool = True,
    arrival_rate: float | None = None,
    multi: bool = False,
    multi_tiers: tuple[str, ...] | None = None,
    memory_budget_mb: float | None = None,
    slo: str | None = MULTI_SLO_SPEC,
    scale_out: tuple[int, ...] | None = None,
    scale_out_tier: str = "sdgc-shallow",
    scale_out_streams: int = 8,
    scale_out_max_batch: int = 16,
    scale_out_requests: int | None = None,
    warm_boot: bool | None = None,
    warm_boot_tier: str = "sdgc-shallow",
    qos: bool = False,
    qos_requests: int = 24,
    qos_bulk_requests: int = 40,
    qos_request_cols: int = 16,
) -> dict:
    """Measure request throughput: cold per-request engines vs warm serving.

    Runs every tier in ``tiers`` (default :data:`DEFAULT_TIERS`); passing
    ``benchmark`` instead runs that single SDGC benchmark as an ad-hoc tier.
    Returns the result dict and, unless ``out`` is None, writes it as JSON.

    ``stream`` picks the request-stream shape (see :func:`_shape_stream`);
    ``centroid_reuse`` adds the A/B pass — the same stream served again with
    the centroid cache on — whose record lands under each tier's ``"reuse"``
    key.  ``async_ab`` (on by default) additionally replays each tier's
    stream open-loop — seeded Poisson arrivals at ``arrival_rate`` req/s, or
    auto-paced to the tier's warm service rate — through both the sync
    and the async router, recorded under ``"async"``.
    ``trace`` writes a Chrome trace of the first tier's warm serving run
    (note: span recording adds overhead to that tier's warm numbers; leave
    it off when comparing throughput across PRs).

    ``multi`` adds the mixed-traffic multi-tenant record (see
    :func:`_run_multi`) under the result's ``"multi"`` key: the
    ``multi_tiers`` (default :data:`MULTI_TIERS`) served together through
    one :class:`~repro.serve.router.Router`, with per-tenant throughput, a
    bitwise isolation check against single-tenant runs, and — when
    ``memory_budget_mb`` bounds the combined footprint — LRU warm-to-cold
    demotions plus the post-enforcement high-water mark.  ``slo`` is the
    per-tenant policy spec the multi record evaluates live (default
    :data:`MULTI_SLO_SPEC`; ``None`` turns SLO tracking off).

    ``scale_out`` — a tuple of worker counts like ``(1, 2, 4)`` — adds the
    fleet curve under the result's ``"scale_out"`` key (see
    :func:`_run_scale_out`): ``scale_out_tier``'s stream population served
    through a multi-process :class:`~repro.serve.fleet.FleetDispatcher` at
    every count, with wall + capacity throughput, bitwise output checks
    against a single-process reference, and a crash-recovery run at the
    largest count.  ``scale_out_requests`` defaults to ``max(requests,
    192)``: the scale-out record needs enough traffic per worker that fixed
    per-process costs (poll wakeups, queue plumbing) amortize, or the curve
    measures overhead instead of sharding.  An empty ``tiers`` tuple (CLI:
    ``--tiers none``) skips the per-tier records entirely for
    scale-out-only captures.

    ``warm_boot`` adds the persistent-warmup record under the
    result's ``"warm_boot"`` key (see :func:`_run_warm_boot`):
    ``warm_boot_tier`` booted cold (bake + priming traffic), snapshotted
    via :mod:`repro.core.warmstore`, and re-booted from the artifact, with
    time-to-warm for both modes and the bitwise identity triangle.  The
    default (``None``) runs it whenever per-tier records run.

    ``qos`` adds the QoS A/B record under the result's ``"qos"``
    key (see :func:`_run_qos`): an interactive tenant's p99 measured while
    a quota-limited bulk tenant saturates the same router, under the QoS
    scheduler and under plain FIFO, against each tenant's solo baseline.
    """
    if tiers is None:
        tiers = (benchmark,) if benchmark is not None else DEFAULT_TIERS
    elif benchmark is not None:
        raise ConfigError("pass either benchmark or tiers, not both")
    tracer = Tracer() if trace is not None else None
    records = []
    for index, tier in enumerate(tiers):
        records.append(
            _run_tier(
                tier=tier,
                benchmark_source=tier,
                requests=requests,
                request_cols=request_cols,
                max_batch=max_batch,
                threshold=threshold,
                seed=seed,
                stream_mode=stream,
                centroid_reuse=centroid_reuse,
                reuse_tolerance=reuse_tolerance,
                tracer=tracer if index == 0 else None,
                async_ab=async_ab,
                arrival_rate=arrival_rate,
            )
        )
    result = {
        "schema": BENCH_SCHEMA,
        "stream": stream,
        "centroid_reuse": centroid_reuse,
        "async_ab": async_ab,
        "tiers": records,
    }
    if warm_boot is None:
        warm_boot = bool(tiers)
    if warm_boot:
        result["warm_boot"] = _run_warm_boot(
            tier=warm_boot_tier,
            requests=requests,
            request_cols=request_cols,
            max_batch=max_batch,
            seed=seed,
        )
    if multi:
        result["multi"] = _run_multi(
            tiers=multi_tiers if multi_tiers is not None else MULTI_TIERS,
            requests=requests,
            request_cols=request_cols,
            max_batch=max_batch,
            seed=seed,
            memory_budget_mb=memory_budget_mb,
            slo=slo,
        )
    if qos:
        result["qos"] = _run_qos(
            requests=qos_requests,
            bulk_requests=qos_bulk_requests,
            request_cols=qos_request_cols,
            seed=seed,
            slo=slo,
        )
    if scale_out:
        result["scale_out"] = _run_scale_out(
            scale_out,
            tier=scale_out_tier,
            requests=(
                scale_out_requests
                if scale_out_requests is not None
                else max(requests, 192)
            ),
            request_cols=request_cols,
            seed=seed,
            streams=scale_out_streams,
            max_batch=scale_out_max_batch,
        )
    if trace is not None and tracer is not None:
        tracer.write_chrome(trace)
        result["trace"] = str(trace)
    if out is not None:
        Path(out).write_text(json.dumps(result, indent=2) + "\n")
    return result
