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

Every serve in every in-process section — tier warm and reuse passes, the
async A/B, warm-boot serves, multi references and the mixed run, the
scale-out reference, QoS solo runs and both arms — goes through one
harness, :func:`_pass`: a fresh :class:`~repro.serve.router.ModelRegistry`
holding the pass's tenants, one router over it with ``max_wait_s`` high
enough that blocks pack identically on either transport, and one
:meth:`~repro.serve.router.Router.serve` of the request list.  Sections
read what they record from the returned router and
:class:`~repro.serve.router.RouterReport`.  The fleet passes of
``scale_out`` go through :func:`_fleet_pass` instead.
"""

from __future__ import annotations

import contextlib
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
from repro.serve.router import AsyncRouter, ModelRegistry, Router, RouterReport, ServeReport
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


def _tier_stream(
    tier: str, requests: int, request_cols: int, seed: int,
    shape: str = "mix", max_batch: int = 0,
):
    """``(net, cfg, stream)``: ``requests`` requests of ``request_cols``
    columns each, drawn from ``tier`` and shaped by ``shape`` (see
    :func:`_shape_stream`; ``repeat`` tiles ``max_batch`` columns)."""
    total_cols = requests * request_cols
    source = _TIER_SOURCES.get(tier, tier)
    if source.startswith("medium:"):
        from repro.harness.experiments.table4 import medium_config
        from repro.harness.medium import get_trained

        tm = get_trained(source.split(":", 1)[1])
        images = tm.test.images
        reps = -(-total_cols // images.shape[0])
        if reps > 1:
            images = np.concatenate([images] * reps)
        net, cfg = tm.stack.network, medium_config(tm.spec.sparse_layers)
        pool = tm.stack.head(images[:total_cols])
    else:
        net = get_benchmark(source)
        cfg = sdgc_config(net.num_layers)
        pool = np.asarray(get_input(source, total_cols, seed))
    return net, cfg, _split_requests(_shape_stream(pool, shape, max_batch), request_cols)


def _round_robin(streams: dict[str, list], chunk: int) -> list[tuple[str, np.ndarray]]:
    """Interleave per-tenant request lists in runs of ``chunk`` requests.

    Block-sized runs let every tenant flush full blocks, so budget
    enforcement and lane scheduling act per block, not per request.
    """
    longest = max((len(s) for s in streams.values()), default=0)
    return [
        (name, y0)
        for offset in range(0, longest, chunk)
        for name, stream in streams.items()
        for y0 in stream[offset : offset + chunk]
    ]


def _budget_bytes(memory_budget_mb: float | None) -> int | None:
    """A megabyte memory budget in bytes; ``None`` stays unlimited."""
    return None if memory_budget_mb is None else int(memory_budget_mb * 1024 * 1024)


#: tenant name of the bench's one-tenant routers
SOLO = "solo"


def _pass(
    tenants: dict, items: list, max_batch: int, transport=Router,
    interarrivals=None, memory_budget_bytes: int | None = None, **router_kw,
) -> tuple[Router | AsyncRouter, RouterReport]:
    """Serve ``items`` once through a fresh registry and router.

    ``tenants`` maps a name to a prebuilt :class:`EngineSession` or to a
    spec ``{"net", "cfg"[, "slo", "qos"]}``.  Spec tenants register warm,
    after their networks' memoized views are dropped, so every pass builds
    its warm state itself.  ``max_wait_s`` stays high, so blocks pack
    identically on either transport, and the queue holds the whole stream.
    Returns the router (lanes and stats stay readable) and its report.
    """
    specs = {name: t for name, t in tenants.items() if isinstance(t, dict)}
    for spec in specs.values():
        spec["net"].drop_views()
    registry = ModelRegistry(memory_budget_bytes=memory_budget_bytes)
    for name, tenant in tenants.items():
        if name in specs:
            registry.register(
                name, tenant["net"], config=tenant["cfg"], warm=True,
                slo=tenant.get("slo"), qos=tenant.get("qos"),
            )
        else:
            registry.register(name, session=tenant)
    router = transport(
        registry, max_batch=max_batch, max_wait_s=60.0,
        queue_limit=len(items) + 1, **router_kw,
    )
    return router, router.serve(items, interarrivals=interarrivals)


def _serve_solo(
    tenant, stream, max_batch: int, **pass_kw
) -> tuple[Router | AsyncRouter, ServeReport]:
    """:func:`_pass` with ``tenant`` as the router's only tenant; returns
    the router and the tenant's :class:`ServeReport`."""
    router, report = _pass(
        {SOLO: tenant}, [(SOLO, y0) for y0 in stream], max_batch, **pass_kw
    )
    return router, report.per_model[SOLO]


def _outputs(served, field: str = "y") -> np.ndarray:
    """``field`` of every served result side by side, in submit order."""
    return np.hstack([getattr(t, field) for t in served]) if served else np.empty(0)


def _same(first: np.ndarray, *others: np.ndarray) -> bool:
    """Bitwise equality of every output block with the first."""
    return all(np.array_equal(first, other) for other in others)


def _timing(report: ServeReport) -> dict:
    """Wall time, throughput, latency quantiles and status of one serve."""
    return {
        "seconds": report.wall_seconds,
        "requests_per_second": report.requests_per_second,
        "columns_per_second": report.columns_per_second,
        "latency_seconds": report.latency_quantiles(),
        "status": report.status,
    }


@contextlib.contextmanager
def _artifact(session: EngineSession, name: str):
    """Save ``session``'s warm state to a temporary file, removed on exit.

    Yields ``(path, save manifest, save seconds)``.
    """
    art_dir = tempfile.mkdtemp(prefix="repro-warmstore-")
    try:
        path = os.path.join(art_dir, f"{name}.warmstate")
        t0 = time.perf_counter()
        manifest = session.save_warm_state(path)
        yield path, manifest, time.perf_counter() - t0
    finally:
        shutil.rmtree(art_dir, ignore_errors=True)


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
    return {
        "arrival_rate_rps": rate,
        "arrival_seconds": float(gaps.sum()),
        "sync": _timing(s_report),
        "async": {
            **_timing(a_report),
            "overlap_fraction": a_report.overlap_fraction,
            "exec_seconds": a_report.exec_seconds,
            "failed": len(a_report.failed),
        },
        "outputs_identical": _same(_outputs(a_report.served), _outputs(s_report.served)),
        "categories_match": _same(
            _outputs(a_report.served, "categories"),
            _outputs(s_report.served, "categories"),
            _outputs(reference_served, "categories"),
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
    net, cfg, stream = _tier_stream(
        tier, requests, request_cols, seed, stream_mode, max_batch
    )
    if threshold is not None:
        cfg = dataclasses.replace(cfg, threshold_layer=threshold)

    # the warm session's warmup also pre-builds the shared weight views the
    # cold path will then hit through the network cache, so the comparison
    # isolates steady-state serving cost (engine construction + packing)
    session = EngineSession(net, cfg, tracer=tracer)
    router, report = _serve_solo(session, stream, max_batch)

    t0 = time.perf_counter()
    cold_runs = [
        run_engine("snicit", net, y0, snicit_config=cfg).result for y0 in stream
    ]
    cold_seconds = time.perf_counter() - t0
    cold_busy = sum(sum(r.stage_seconds.values()) for r in cold_runs)
    warm_cats = _outputs(report.served, "categories")

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

    total_columns = sum(y0.shape[1] for y0 in stream)
    record = {
        "tier": tier,
        "benchmark": net.name,
        "paper_name": net.meta.get("paper_name"),
        "requests": len(stream),
        "request_cols": request_cols,
        "total_columns": total_columns,
        "max_batch": max_batch,
        "threshold_layer": cfg.for_network(net.num_layers).threshold_layer,
        "stream": stream_mode,
        "cold": {
            "seconds": cold_seconds,
            "busy_seconds": cold_busy,
            "requests_per_second": len(stream) / cold_seconds if cold_seconds else 0.0,
            "columns_per_second": total_columns / cold_seconds if cold_seconds else 0.0,
        },
        "warm": {
            **_timing(report),
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
            steady_state["columns_per_second"] / (total_columns / cold_seconds)
            if cold_seconds > 0 and steady_state["columns_per_second"] > 0
            else 0.0
        ),
        "categories_match": _same(_outputs(cold_runs, "categories"), warm_cats),
        "outputs_identical": _same(_outputs(report.served), _outputs(cold_runs)),
    }

    if async_ab:
        record["async"] = _async_ab(
            net, cfg, stream, max_batch, seed, arrival_rate,
            warm_wall=report.wall_seconds, reference_served=report.served,
        )

    if centroid_reuse:
        r_session = EngineSession(
            net, cfg, centroid_reuse=True, reuse_tolerance=reuse_tolerance
        )
        r_router, r_report = _serve_solo(r_session, stream, max_batch)
        record["reuse"] = {
            "tolerance": reuse_tolerance,
            "warm": _timing(r_report),
            "cache": r_session.reuse.stats(),
            "reuse_blocks": dict(r_router.lane(SOLO).reuse_outcomes),
            "outputs_identical": _same(
                _outputs(r_report.served), _outputs(report.served)
            ),
            "categories_match": _same(_outputs(r_report.served, "categories"), warm_cats),
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
    tenants: dict[str, dict] = {}
    streams: dict[str, list] = {}
    references: dict[str, ServeReport] = {}
    for tier in tiers:
        net, cfg, streams[tier] = _tier_stream(tier, requests, request_cols, seed)
        # single-tenant reference: same stream, same batcher geometry, no
        # neighbors — the bar the mixed run must match bitwise
        _, references[tier] = _serve_solo(
            {"net": net, "cfg": cfg}, streams[tier], max_batch
        )
        tenants[tier] = {"net": net, "cfg": cfg, "slo": slo}

    router, report = _pass(
        tenants, _round_robin(streams, max(1, max_batch // request_cols)), max_batch,
        memory_budget_bytes=_budget_bytes(memory_budget_mb),
    )

    per_tenant = {}
    for name, ref in references.items():
        mine = report.per_model[name]
        identical = _same(_outputs(mine.served), _outputs(ref.served))
        lane = router.lane(name).stats()
        per_tenant[name] = {
            "requests": mine.requests,
            "served": len(mine.served),
            "rejected": len(mine.rejected),
            "columns": mine.columns,
            "columns_per_second": mine.columns_per_second,
            "latency_seconds": mine.latency_quantiles(),
            "status": mine.status,
            "isolation_identical": identical,
            # same check, stated as the SLO-instrumentation invariant: the
            # references ran without trackers, so a bitwise match proves the
            # telemetry path never touched served outputs
            "outputs_identical": identical,
            "single_tenant_seconds": ref.wall_seconds,
            "single_tenant_columns_per_second": ref.columns_per_second,
            "hol_stalls": lane["hol_stalls"],
            "hol_underfill_columns": lane["hol_underfill_columns"],
            "batcher": lane,
            # live SLO evaluation: windowed p50/p95/p99, burn rate, budget,
            # and the slowest request's exemplar with its trace span id
            "slo": (report.slo or {}).get(name),
        }

    budget_stats = router.registry.budget.stats()
    return {
        "tenants": list(tiers),
        "requests_per_tenant": requests,
        "request_cols": request_cols,
        "max_batch": max_batch,
        "memory_budget_mb": memory_budget_mb,
        "slo_spec": slo,
        "router": report.to_json(),
        "per_tenant": per_tenant,
        "isolation_identical": all(t["isolation_identical"] for t in per_tenant.values()),
        "demoted": list(report.demoted),
        "budget": budget_stats,
        "under_budget": (
            bool(budget_stats["highwater_bytes"] <= budget_stats["limit_bytes"])
            if budget_stats["limit_bytes"] is not None
            else None
        ),
        "metrics": router.registry.metrics.snapshot(),
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


#: tier of the warm-boot record, and the settings its sessions run with
_WARM_BOOT_TIER = "sdgc-shallow"
_WARM_BOOT_TOLERANCE = 0.0
_WARM_BOOT_REVISE_RATIO = 2.0


def _run_warm_boot(requests: int, request_cols: int, max_batch: int, seed: int) -> dict:
    """Persistent-warmup record: artifact boot vs cold warm+prime.

    The cold path to a fully warm session is two-phase: ``warmup()`` bakes
    the plan and pins views, then the first blocks of traffic *teach* it —
    centroid-cache fills with their staleness baselines, per-bucket kernel
    cost baselines.  The warmstore artifact replaces both phases with one
    ``load_warm_state`` call, so the honest comparison is::

        cold.ready_seconds  = warmup_seconds + prime_seconds   (bake + learn)
        artifact.load_seconds                                   (one load)

    The stream is ``repeat`` with reuse tolerance 0 — the regime where
    centroid reuse is bitwise lossless — so the record can also assert the
    identity triangle: loaded-warm == freshly-warmed == cold-boot outputs,
    all bitwise.  Every session keeps the measure-and-revise loop armed
    (revise ratio 2), proving a loaded plan revises like a baked one.
    """
    tier = _WARM_BOOT_TIER
    net, cfg, stream = _tier_stream(
        tier, requests, request_cols, seed, "repeat", max_batch
    )

    def boot():
        net.drop_views()
        return EngineSession(
            net, cfg, warm=False,
            centroid_reuse=True, reuse_tolerance=_WARM_BOOT_TOLERANCE,
            revise_ratio=_WARM_BOOT_REVISE_RATIO,
        )

    def serve(session):
        return _outputs(_serve_solo(session, stream, max_batch)[1].served)

    # ---- cold boot: bake the plan, then learn from the priming pass
    cold = boot()
    t0 = time.perf_counter()
    cold.warmup()
    warmup_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    cold_y = serve(cold)
    prime_seconds = time.perf_counter() - t0

    with _artifact(cold, tier) as (path, save_manifest, save_seconds):
        # freshly-warmed reference: bakes its own plan, learns its own cache
        fresh = boot()
        fresh.warmup()
        fresh_y = serve(fresh)

        # artifact boot: one load call replaces warmup *and* priming
        loaded = boot()
        t0 = time.perf_counter()
        load_manifest = loaded.load_warm_state(path)
        load_seconds = time.perf_counter() - t0
        loaded_y = serve(loaded)
    net.drop_views()

    ready_seconds = warmup_seconds + prime_seconds
    return {
        "tier": tier,
        "benchmark": net.name,
        "requests": len(stream),
        "request_cols": request_cols,
        "max_batch": max_batch,
        "stream": "repeat",
        "reuse_tolerance": _WARM_BOOT_TOLERANCE,
        "revise_ratio": _WARM_BOOT_REVISE_RATIO,
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
        "outputs_identical": _same(loaded_y, fresh_y, cold_y),
    }


#: tier, stream population and block size of the scale-out record
_SCALE_OUT_TIER = "sdgc-shallow"
_SCALE_OUT_STREAMS = 8
_SCALE_OUT_MAX_BATCH = 16


def _run_scale_out(worker_counts, requests: int, request_cols: int, seed: int) -> dict:
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
    tier, max_batch = _SCALE_OUT_TIER, _SCALE_OUT_MAX_BATCH
    source = _TIER_SOURCES.get(tier, tier)
    net, cfg, stream = _tier_stream(tier, requests, request_cols, seed)
    names = _balanced_streams(_SCALE_OUT_STREAMS, counts[-1])
    items = [("m", names[j % len(names)], y0) for j, y0 in enumerate(stream)]
    total_columns = sum(y0.shape[1] for _, _, y0 in items)

    # single-process reference: one in-process router, one lane per stream
    _, ref_report = _pass(
        {"m": {"net": net, "cfg": cfg}}, items, max_batch, transport=AsyncRouter
    )
    parts: dict[str, list] = {}
    for (_, name, _), ticket in zip(items, ref_report.per_model["m"].served, strict=True):
        parts.setdefault(name, []).append(ticket.y)
    reference = {name: np.hstack(ys) for name, ys in parts.items()}
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
        net.drop_views()
        with _artifact(EngineSession(net, cfg), "fleet") as (path, save_manifest, _):
            report = _fleet_pass(
                dataclasses.replace(spec, warm_state=path),
                items, n, max_batch, kill=victim,
            )
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


#: QoS record tenants: name -> (tier, requests)
_QOS_TENANTS = {"interactive": ("sdgc-shallow", 24), "bulk": ("sdgc-deep", 40)}
#: columns per QoS request, which is also the QoS routers' block size
_QOS_REQUEST_COLS = 16
#: requests the bulk tenant's hard quota admits (3/5 of its burst)
_QOS_BULK_ADMIT = 24
#: latency quantiles of the QoS record
_QOS_QUANTILES = (0.5, 0.95, 0.99)


def _run_qos(seed: int = 1, slo: str | None = MULTI_SLO_SPEC) -> dict:
    """QoS A/B: interactive p99 under bulk saturation, two arms.

    Two tenants share one :class:`~repro.serve.router.AsyncRouter`: an
    ``interactive``-class tenant and a ``batch``-class bulk tenant whose
    policy carries a hard quota (``rate=0`` token bucket) sized to admit
    :data:`_QOS_BULK_ADMIT` of its requests.  The bulk tenant submits its
    whole burst first, then the interactive tenant submits — the worst
    arrival order for the interactive side, since the worker is already
    deep in the bulk backlog.

    Every request is exactly one block (``max_batch`` equals the request
    width), so scheduling order — not packing — is the only variable
    between arms; packing invariance under QoS is proved separately by the
    scheduler property tests.

    Four passes: each tenant solo (its latency baseline and, for the bulk
    tenant, the admitted-prefix reference the quota must reproduce), the
    mixed stream under ``policy="qos"``, and the same mixed stream under
    ``policy="fifo"`` (registration-order service, no admission).  The
    record carries both arms' interactive p99 inflation over solo — the
    QoS arm must hold near 1.0 while the FIFO arm queues interactive
    behind the whole bulk backlog — plus bitwise output identity against
    the solo runs and the shed accounting identity.
    """
    cols = _QOS_REQUEST_COLS
    tenants: dict[str, dict] = {}
    streams: dict[str, list] = {}
    for name, (tier, count) in _QOS_TENANTS.items():
        net, cfg, streams[name] = _tier_stream(tier, count, cols, seed)
        tenants[name] = {"net": net, "cfg": cfg, "tier": tier, "slo": slo}
    tenants["interactive"]["qos"] = "interactive"
    # hard quota: a zero-rate bucket admits exactly the first
    # _QOS_BULK_ADMIT requests, so the shed count — and the served
    # subsequence the solo reference must match bitwise — is
    # deterministic, not timing-dependent
    tenants["bulk"]["qos"] = f"batch:rate=0,burst={_QOS_BULK_ADMIT * cols}"

    def serve(names, policy="qos"):
        """Per-tenant reports, shed reasons and QoS stats of one pass."""
        router, report = _pass(
            {name: tenants[name] for name in names},
            [(name, y0) for name in names for y0 in streams[name]],
            cols, transport=AsyncRouter, policy=policy,
        )
        qos_stats = router.stats()["qos"]
        shed = (qos_stats["admission"] or {}).get("shed", {})
        return report, {name: shed.get(name, {}) for name in names}, qos_stats

    solo: dict[str, dict] = {}
    solo_outputs: dict[str, np.ndarray] = {}
    for name in tenants:
        report, shed, _ = serve([name])
        mine = report.per_model[name]
        solo_outputs[name] = _outputs(mine.served)
        solo[name] = {
            "served": len(mine.served),
            "shed": sum(shed[name].values()),
            "latency_seconds": mine.latency_quantiles(_QOS_QUANTILES),
            "wall_seconds": report.wall_seconds,
        }

    def run_arm(policy):
        # bulk first: its lane is created first (so FIFO services it
        # first) and its backlog is already queued when interactive arrives
        report, shed, qos_stats = serve(["bulk", "interactive"], policy)
        per_tenant = {}
        for name, tenant in tenants.items():
            mine = report.per_model[name]
            served, failed = len(mine.served), len(mine.failed)
            shed_n = sum(shed[name].values())
            submitted = len(streams[name])
            lat = mine.latency_quantiles(_QOS_QUANTILES)
            solo_p99 = (solo[name]["latency_seconds"] or {}).get("p99")
            per_tenant[name] = {
                "tier": tenant["tier"],
                "qos": tenant["qos"],
                "submitted": submitted,
                "served": served,
                "shed": shed_n,
                "shed_reasons": dict(shed[name]),
                "failed": failed,
                "shed_accounting_ok": served + shed_n + failed == submitted,
                "latency_seconds": lat,
                "p99_over_solo": lat["p99"] / solo_p99 if lat and solo_p99 else None,
                "outputs_identical": _same(_outputs(mine.served), solo_outputs[name]),
            }
        return {
            "policy": policy,
            "wall_seconds": report.wall_seconds,
            "per_tenant": per_tenant,
            "interactive_p99_ratio": per_tenant["interactive"]["p99_over_solo"],
            "qos": qos_stats,
        }

    with_qos = run_arm("qos")
    no_qos = run_arm("fifo")
    return {
        "interactive_tier": tenants["interactive"]["tier"],
        "bulk_tier": tenants["bulk"]["tier"],
        "requests": len(streams["interactive"]),
        "bulk_requests": len(streams["bulk"]),
        "bulk_admit": _QOS_BULK_ADMIT,
        "request_cols": cols,
        "max_batch": cols,
        "slo_spec": slo,
        "solo": solo,
        "with_qos": with_qos,
        "no_qos": no_qos,
        "outputs_identical": all(
            t["outputs_identical"] for t in with_qos["per_tenant"].values()
        ),
        "shed_accounting_ok": all(
            t["shed_accounting_ok"] for t in with_qos["per_tenant"].values()
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
    scale_out_requests: int | None = None,
    warm_boot: bool | None = None,
    qos: bool = False,
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
    ``trace`` writes a Chrome trace of the first tier's warm serving run, so
    it needs at least one tier (note: span recording adds overhead to that
    tier's warm numbers; leave it off when comparing throughput across PRs).

    ``multi`` adds the mixed-traffic multi-tenant record (see
    :func:`_run_multi`) under the result's ``"multi"`` key: the
    ``multi_tiers`` (default :data:`MULTI_TIERS`) served together through
    one :class:`~repro.serve.router.Router`, with per-tenant throughput, a
    bitwise isolation check against single-tenant runs, and — when
    ``memory_budget_mb`` bounds the combined footprint — LRU warm-to-cold
    demotions plus the post-enforcement high-water mark.  ``slo`` is the
    per-tenant policy spec the multi and QoS records evaluate live
    (default :data:`MULTI_SLO_SPEC`; ``None`` turns SLO tracking off).

    ``scale_out`` — a tuple of worker counts like ``(1, 2, 4)`` — adds the
    fleet curve under the result's ``"scale_out"`` key (see
    :func:`_run_scale_out`): the sdgc-shallow stream population served
    through a multi-process :class:`~repro.serve.fleet.FleetDispatcher` at
    every count, with wall + capacity throughput, bitwise output checks
    against a single-process reference, and a crash-recovery run at the
    largest count.  ``scale_out_requests`` defaults to ``max(requests,
    192)``: the scale-out record needs enough traffic per worker that fixed
    per-process costs (poll wakeups, queue plumbing) amortize, or the curve
    measures overhead instead of sharding.  An empty ``tiers`` tuple (CLI:
    ``--tiers none``) skips the per-tier records entirely for
    record-only captures.

    ``warm_boot`` adds the persistent-warmup record under the
    result's ``"warm_boot"`` key (see :func:`_run_warm_boot`): sdgc-shallow
    booted cold (bake + priming traffic), snapshotted via
    :mod:`repro.core.warmstore`, and re-booted from the artifact, with
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
    if trace is not None and not tiers:
        raise ConfigError("trace records the first tier's warm serve; no tier runs")
    tracer = Tracer() if trace is not None else None
    records = [
        _run_tier(
            tier=tier,
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
        for index, tier in enumerate(tiers)
    ]
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
        result["warm_boot"] = _run_warm_boot(requests, request_cols, max_batch, seed)
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
        result["qos"] = _run_qos(seed=seed, slo=slo)
    if scale_out:
        result["scale_out"] = _run_scale_out(
            scale_out,
            requests=(
                scale_out_requests
                if scale_out_requests is not None
                else max(requests, 192)
            ),
            request_cols=request_cols,
            seed=seed,
        )
    if tracer is not None:
        tracer.write_chrome(trace)
        result["trace"] = str(trace)
    if out is not None:
        Path(out).write_text(json.dumps(result, indent=2) + "\n")
    return result
