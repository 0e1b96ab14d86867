"""Warm-session serving layer (toward the production north star).

Per-request engine construction wastes everything SNICIT amortizes: weight
views, strategy decisions, output buffers, and — above all — batch packing.
This package keeps one engine warm and feeds it well-packed blocks:

* :class:`~repro.serve.session.EngineSession` — a persistent engine wrapper
  pinning weight views, memoizing champion strategies, and recycling output
  buffers;
* :class:`~repro.serve.batcher.MicroBatcher` — bounded request packing with
  max-batch / max-wait flushing and per-request result splitting;
* :class:`~repro.serve.router.ModelRegistry` /
  :class:`~repro.serve.router.Router` / :class:`~repro.serve.router.
  AsyncRouter` — the serving front ends, for one tenant or many: named
  sessions behind one metrics registry (per-tenant ``{model=...}``
  labels), per-tenant batcher lanes so blocks never mix tenants, graceful
  overflow rejection, and a process-wide
  :class:`~repro.gpu.memory.MemoryBudget` that demotes least-recently-served
  sessions warm-to-cold when the combined retained footprint exceeds it.
  :class:`~repro.serve.router.Router` flushes blocks on the caller's
  thread; :class:`~repro.serve.router.AsyncRouter` is the threaded
  transport — thread-safe ``submit`` returning a future-like
  :class:`~repro.serve.router.AsyncTicket`, one consumer worker that packs
  and executes blocks while new arrivals accumulate, reject/block
  backpressure per lane, and drain/abort shutdown.  Both report a stream as
  a :class:`~repro.serve.router.RouterReport` of per-tenant
  :class:`~repro.serve.router.ServeReport`\\ s;
* :class:`~repro.serve.fleet.FleetDispatcher` — multi-process scale-out:
  N supervised worker processes (stdlib ``multiprocessing``, spawn-safe),
  each owning its own warm :class:`~repro.serve.router.ModelRegistry` behind
  an :class:`~repro.serve.router.AsyncRouter` loop; requests shard by
  *stream* (stable :func:`~repro.serve.fleet.stream_shard` hash) so every
  stream's packing order — and therefore its outputs, bitwise — matches a
  single process; crashed workers are restarted and their streams replayed,
  and per-worker reports/metrics/SLO merge into one
  :class:`~repro.serve.fleet.FleetReport` and one ``/metrics`` + ``/slo``
  scrape (``worker=`` label kept separable);
* :mod:`repro.serve.qos` — SLO-driven quality of service: per-tenant
  :class:`~repro.serve.qos.QosPolicy` (priority class + DWRR weight + token
  -bucket rate limit), the :class:`~repro.serve.qos.DeficitScheduler` both
  routers use to pick the next lane to flush (strict priority between
  classes, deficit-weighted round robin within one; FIFO *within* a lane is
  untouched, so per-stream outputs stay bitwise identical), and the
  :class:`~repro.serve.qos.AdmissionController` that sheds batch-class load
  (``ServeShedError``) under rate limits, queue pressure, SLO burn, or
  memory-budget pressure — before it can queue behind interactive traffic;
* :func:`~repro.serve.bench.bench_serve` — the tiered cold-vs-warm
  throughput benchmark behind ``python -m repro bench-serve``, including the
  centroid-reuse A/B pass, the open-loop sync-vs-async A/B, and the
  ``--scale-out`` fleet curve (wall + capacity speedups, crash-injection
  recovery record).

A session constructed with ``centroid_reuse=True`` additionally carries a
:class:`~repro.core.reuse.CentroidCache`, so consecutive same-mix blocks
skip sample pruning and the centroid feed-forward entirely (assign-only
conversion) until the staleness policy detects drift.

The whole stack is instrumented through :mod:`repro.obs`: the session owns a
:class:`~repro.obs.MetricsRegistry` (queue/batch/pool/memo/strategy series)
and an optional :class:`~repro.obs.Tracer` whose spans cover request
lifecycles, batch pack/execute/resolve, and every engine stage and kernel
underneath.
"""

from repro.serve.batcher import MicroBatcher, Ticket
from repro.serve.bench import (
    DEFAULT_SCALE_OUT,
    DEFAULT_TIERS,
    MULTI_TIERS,
    STREAM_MODES,
    bench_serve,
    load_bench_records,
    poisson_interarrivals,
)
from repro.serve.fleet import (
    FleetDispatcher,
    FleetReport,
    FleetTicket,
    TenantSpec,
    WorkerCrashError,
    stream_shard,
)
from repro.serve.qos import (
    PRIORITY_CLASSES,
    AdmissionController,
    DeficitScheduler,
    QosPolicy,
    TokenBucket,
)
from repro.serve.router import (
    BACKPRESSURE_POLICIES,
    AsyncRouter,
    AsyncTicket,
    ModelRegistry,
    Router,
    RouterReport,
    ServeReport,
)
from repro.serve.session import EngineSession

__all__ = [
    "EngineSession",
    "ModelRegistry",
    "Router",
    "AsyncRouter",
    "RouterReport",
    "MicroBatcher",
    "Ticket",
    "ServeReport",
    "AsyncTicket",
    "BACKPRESSURE_POLICIES",
    "FleetDispatcher",
    "FleetReport",
    "FleetTicket",
    "TenantSpec",
    "WorkerCrashError",
    "stream_shard",
    "bench_serve",
    "load_bench_records",
    "poisson_interarrivals",
    "DEFAULT_SCALE_OUT",
    "DEFAULT_TIERS",
    "MULTI_TIERS",
    "STREAM_MODES",
    "QosPolicy",
    "TokenBucket",
    "DeficitScheduler",
    "AdmissionController",
    "PRIORITY_CLASSES",
]
