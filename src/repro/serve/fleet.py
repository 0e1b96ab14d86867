"""Multi-process serving: shard tenant streams across supervised workers.

Everything below :mod:`repro.serve.router` lives in one interpreter, so
aggregate throughput is GIL-capped no matter how many tenants register.
This module adds the scale-out tier:

* :class:`TenantSpec` — a picklable recipe for one tenant (benchmark
  source, threshold, SLO, reuse flags).  Workers rebuild the network from
  the spec deterministically (:func:`~repro.harness.workloads.get_benchmark`
  is seeded), so a replacement process after a crash warms up to exactly
  the state the original had — no state needs to survive the crash.
* :func:`_worker_main` — the spawn-safe worker entry point: builds its own
  :class:`~repro.serve.router.ModelRegistry` (every tenant, warm), runs the
  existing :class:`~repro.serve.router.AsyncRouter` loop with per-stream
  lanes, heartbeats through a shared double, optionally exposes its own
  :class:`~repro.obs.http.ObsServer` on an ephemeral port, and ships
  results + a final report back over its result queue.
* :class:`FleetDispatcher` — the front end: ``submit(model, y0, stream=s)``
  routes whole *streams* (never individual requests) to workers via the
  stable :func:`stream_shard` hash, resolves each request's
  :class:`~repro.serve.batcher.Ticket` from its worker's result (errors
  keep their :mod:`repro.errors` class across the process boundary),
  supervises worker health (restart-on-crash with stream replay), drains
  gracefully, and reports through the one
  :class:`~repro.serve.report.ServeReport` with per-worker telemetry merged
  (:mod:`repro.obs.merge`) into one ``/metrics`` + ``/slo`` scrape.

Why sharding by stream keeps outputs bitwise identical
------------------------------------------------------
SNICIT packs requests into blocks, and block composition is numerically
load-bearing: centroids are computed over the whole block, so a request's
output depends on its blockmates.  The router's lanes are therefore keyed
``(model, stream)`` — a stream's packing depends only on its own request
order.  Hashing *streams* to workers preserves exactly that order (one
stream, one worker, one FIFO task queue), so every stream's block sequence
— and hence its outputs — is bitwise identical to a single-process serve
of the same submission order, for any worker count.  Sharding by *request*
would scatter one stream's requests across processes and change packing.

Crash recovery rides on the same property plus one more (gated in CI):
with centroid reuse off, a warm session's outputs are bitwise identical
to a cold engine's, i.e. outputs are independent of
accumulated warm state.  A replacement worker therefore *replays every
affected stream from its first request* — not just the unresolved tail —
so the replayed packing prefix matches the original run; duplicate results
for already-resolved tickets are dropped under the dispatcher lock (first
resolution wins), and the previously unresolved ones complete with the
same bytes an uncrashed run would have produced.  Streams hashed to other
workers never notice.

Determinism requires a deterministic flush schedule: blocks must flush on
size (``max_batch``) or drain, not on wall-clock ``max_wait_s`` racing
arrival jitter.  The bench and tests run with a large ``max_wait_s`` for
exactly this reason; with a tight deadline the fleet still serves
correctly, but replayed packing may legitimately differ.

Throughput accounting on core-limited hosts
-------------------------------------------
The fleet report carries two throughput views, mirroring the repo's
wall-vs-modeled convention: *measured* wall-clock columns/second, and
*capacity* columns/second — total columns divided by the critical-path
worker CPU seconds (``time.process_time`` per worker, steady-state, i.e.
what the shard layout sustains with at least one core per worker).  On a
multi-core host the two agree; on a single-core container the measured
curve is flat while capacity still certifies the sharding (balance and
overhead), which is what the CI gate checks.
"""

from __future__ import annotations

import hashlib
import os
import queue as queue_mod
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import errors
from repro.errors import ConfigError, ReproError, ServeClosedError
from repro.obs.export import json_safe
from repro.obs.merge import merge_prometheus
from repro.serve.batcher import Ticket
from repro.serve.report import ServeReport

__all__ = [
    "TenantSpec",
    "FleetDispatcher",
    "WorkerCrashError",
    "stream_shard",
]


#: worker processes always start fresh: :func:`_worker_main` rebuilds every
#: tenant from its spec, so no half-initialized fork state is inherited
_START_METHOD = "spawn"


class WorkerCrashError(ReproError, RuntimeError):
    """A fleet worker died past its restart budget, or the fleet aborted
    before the request resolved."""


def _rebuild_error(type_name: str, message: str) -> ReproError:
    """The worker's exception by class name: a :mod:`repro.errors` class
    comes back as itself (a bad shape raises the :class:`~repro.errors.
    ShapeError` an in-process submit raises), any other as a ReproError
    naming it.  :class:`WorkerCrashError` is only the dispatcher's verdict.
    """
    cls = getattr(errors, type_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        return cls(message)
    return ReproError(f"{type_name}: {message}")


def stream_shard(stream: str, workers: int) -> int:
    """Stable stream -> worker-slot index.

    SHA-1 over the stream id, independent of ``PYTHONHASHSEED`` and of the
    process, so the same stream always lands on the same slot — across
    dispatcher restarts, across worker restarts, and in every test that
    needs to predict placement.
    """
    if workers < 1:
        raise ConfigError(f"need at least one worker, got {workers}")
    digest = hashlib.sha1(str(stream).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % workers


@dataclass(frozen=True)
class TenantSpec:
    """Picklable recipe for one tenant, rebuilt identically in any worker.

    ``source`` is an SDGC benchmark name (``"144-24"``) or the sentinel
    ``"medium:<id>"`` for a trained medium-scale model.  Workers call
    :meth:`build` after spawn; the underlying generators are seeded, so
    every (re)build yields bitwise-identical weights.
    """

    name: str
    source: str
    threshold: int | None = None
    slo: str | None = None
    centroid_reuse: bool = False
    reuse_tolerance: float = 0.5
    #: path to a :mod:`repro.core.warmstore` artifact; workers then boot
    #: warm by loading it (fingerprint-checked) instead of baking, and a
    #: crash-restarted incarnation loads the same file — warmup is paid
    #: once, at save time, not once per incarnation
    warm_state: str | None = None
    #: QoS policy spec (``"interactive"``, ``"batch:w=2"``, ...); parsed by
    #: :meth:`repro.serve.qos.QosPolicy.parse` in every worker, so the whole
    #: fleet enforces one policy per tenant — scheduling class, DWRR weight,
    #: and rate limit are identical on every shard
    qos: str | None = None

    def build(self):
        """``(network, config)`` for this tenant, deterministic per spec."""
        if self.source.startswith("medium:"):
            from repro.harness.experiments.table4 import medium_config
            from repro.harness.medium import get_trained

            tm = get_trained(self.source.split(":", 1)[1])
            net, cfg = tm.stack.network, medium_config(tm.spec.sparse_layers)
        else:
            from repro.harness.experiments.common import sdgc_config
            from repro.harness.workloads import get_benchmark

            net = get_benchmark(self.source)
            cfg = sdgc_config(net.num_layers)
        if self.threshold is not None:
            import dataclasses

            cfg = dataclasses.replace(cfg, threshold_layer=self.threshold)
        return net, cfg


# --------------------------------------------------------------------------
# worker process
# --------------------------------------------------------------------------

def _worker_main(worker_id, incarnation, specs, options, task_q, result_q,
                 heartbeat) -> None:
    """Spawn-safe worker entry point (module-level for picklability)."""
    try:
        _worker_run(
            worker_id, incarnation, specs, options, task_q, result_q, heartbeat
        )
    except BaseException as exc:  # surface the reason before dying
        try:
            result_q.put(("fatal", incarnation, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise


def _worker_run(worker_id, incarnation, specs, options, task_q, result_q,
                heartbeat) -> None:
    from repro.serve.router import AsyncRouter, ModelRegistry

    t_build = time.perf_counter()
    registry = ModelRegistry(
        memory_budget_bytes=options.get("memory_budget_bytes")
    )
    built = []
    for spec in specs:
        net, cfg = spec.build()
        net.drop_views()  # hand the session freshly-cold views to pin
        built.append((spec, net, cfg))
    build_seconds = time.perf_counter() - t_build
    # registry warmup is timed apart from the (unavoidable) network build:
    # it is the part a warm-state artifact eliminates, and the number the
    # warm-boot tests and bench compare across boot modes
    t_warm = time.perf_counter()
    warm_sources: dict[str, str] = {}
    for spec, net, cfg in built:
        session = registry.register(
            spec.name, net, config=cfg, warm=True, slo=spec.slo,
            warm_state=spec.warm_state,
            centroid_reuse=spec.centroid_reuse,
            reuse_tolerance=spec.reuse_tolerance,
            qos=spec.qos,
        )
        warm_sources[spec.name] = session.warm_source
    warmup_seconds = time.perf_counter() - t_warm
    router = AsyncRouter(
        registry,
        max_batch=options.get("max_batch", 256),
        max_wait_s=options.get("max_wait_s", 60.0),
        queue_limit=options.get("queue_limit", 4096),
        on_full="reject",
        policy=options.get("policy", "qos"),
        queue_pressure_requests=options.get("queue_pressure_requests"),
        burn_threshold=options.get("burn_threshold"),
    )
    obs = None
    if options.get("worker_obs"):
        from repro.obs.http import ObsServer

        obs = ObsServer(
            registry.metrics, slo_provider=registry.slo_report_json, port=0
        )
    heartbeat.value = time.time()
    result_q.put(("ready", incarnation, obs.port if obs is not None else None))

    inflight: deque = deque()  # (req_id, Ticket), arrival order
    counts = {"requests": 0, "columns": 0, "rejected": 0, "failed": 0}
    streams: set[str] = set()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()

    def ship_resolved() -> None:
        # lanes complete independently, so completion across the deque is
        # not FIFO — scan it, keep the unresolved
        still: deque = deque()
        for req_id, ticket in inflight:
            if not ticket.done:
                still.append((req_id, ticket))
                continue
            if ticket.failed:
                counts["failed"] += 1
                exc = ticket.error
                result_q.put(("failed", incarnation, req_id, type(exc).__name__, str(exc)))
            else:
                counts["columns"] += ticket.columns
                # the block fields the batcher filled, for the dispatcher's ticket
                fields = {name: getattr(ticket, name) for name in (
                    "batch_columns", "block_id", "packed_at", "execute_seconds",
                    "stage_seconds")}
                fields["_y"] = np.ascontiguousarray(ticket.y)
                result_q.put(("result", incarnation, req_id, fields))
        inflight.clear()
        inflight.extend(still)

    while True:
        heartbeat.value = time.time()
        try:
            msg = task_q.get(timeout=0.05)
        except queue_mod.Empty:
            ship_resolved()
            continue
        kind = msg[0]
        if kind == "req":
            _, req_id, model, stream, y0 = msg
            counts["requests"] += 1
            streams.add(stream)
            try:
                ticket = router.submit(model, y0, stream=stream)
            except Exception as exc:
                counts["rejected"] += 1
                result_q.put(("reject", incarnation, req_id, type(exc).__name__, str(exc)))
            else:
                inflight.append((req_id, ticket))
            ship_resolved()
        elif kind in ("drain", "abort"):
            router.close(drain=(kind == "drain"))
            ship_resolved()
            result_q.put(("report", incarnation, {
                "worker": worker_id,
                "incarnation": incarnation,
                "pid": os.getpid(),
                "build_seconds": build_seconds,
                "warmup_seconds": warmup_seconds,
                "warm_sources": warm_sources,
                **counts,
                "streams": sorted(streams),
                "cpu_seconds": time.process_time() - cpu0,
                "busy_seconds": router.exec_seconds,
                "wall_seconds": time.perf_counter() - wall0,
                "slo": registry.slo_report_json() or None,
                "metrics": json_safe(registry.metrics.snapshot()),
                "prometheus": registry.metrics.to_prometheus(),
            }))
            break
    if obs is not None:
        obs.close()


# --------------------------------------------------------------------------
# dispatcher
# --------------------------------------------------------------------------

def _discard_queue(q) -> None:
    """Abandon an mp.Queue whose peer is gone, without blocking exit.

    A SIGKILLed worker leaves its task queue with buffered data and no
    reader; the queue's feeder thread then blocks forever in ``send_bytes``
    on the full pipe, and multiprocessing's atexit handler joins that
    thread — hanging the whole interpreter at shutdown.
    ``cancel_join_thread`` drops that join (losing the buffered data, which
    is exactly what we want: replay re-sends it on a fresh queue).
    """
    if q is None:
        return
    try:
        q.cancel_join_thread()
        q.close()
    except Exception:
        pass


class _WorkerSlot:
    """Dispatcher-side state for one worker position in the fleet."""

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.task_q = None
        self.result_q = None
        self.heartbeat = None
        self.incarnation = 0
        self.restarts = 0
        self.replayed = 0
        self.ready = threading.Event()
        self.report: dict | None = None
        self.report_event = threading.Event()
        self.obs_port: int | None = None
        self.fatal: str | None = None
        #: buffered submits during a restart window — the replay scan covers
        #: them in stream order, so nothing is pushed directly while paused
        self.paused = False
        #: restart budget exhausted; streams hashed here fail fast
        self.dead = False

    @property
    def last_heartbeat_age(self) -> float | None:
        if self.heartbeat is None or self.heartbeat.value == 0.0:
            return None
        return time.time() - self.heartbeat.value


class FleetDispatcher:
    """Front end of the worker fleet: shard, collect, supervise, merge.

    Lifecycle is one-shot, like the routers: construct (spawns and warms
    every worker, blocking until all are ready), ``submit`` any number of
    requests, then ``join()`` to drain and get the fleet's
    :class:`~repro.serve.report.ServeReport` —
    or ``close()`` to abort.  ``submit`` routes by *stream*: all requests
    of one stream go to :func:`stream_shard`'s slot in submission order,
    which is what keeps per-stream outputs bitwise identical to a
    single-process serve (see the module docstring).

    Supervision: a daemon thread watches worker processes.  A dead process
    whose final report has not arrived is a crash — the slot respawns (same
    specs, fresh warmup), *replays every stream of its shard that still has
    unresolved requests from the first request on*, and bumps the slot's
    restart counter (surfaced in the report).  After ``max_restarts``
    failed incarnations the slot is marked dead and its streams' pending
    tickets fail with :class:`WorkerCrashError` instead of hanging.
    ``heartbeat_timeout`` optionally also restarts live-but-wedged workers
    whose heartbeat went stale; it defaults to off because a busy drain on
    an oversubscribed host is indistinguishable from a hang.

    Telemetry: per-worker metric snapshots and Prometheus expositions are
    merged under a ``worker="i"`` label (:mod:`repro.obs.merge`);
    :meth:`obs_endpoint` exposes the merged ``/metrics`` + ``/slo`` on one
    port, scraping live worker endpoints when ``worker_obs=True`` and
    falling back to the final drain reports otherwise.
    """

    def __init__(
        self,
        specs,
        workers: int = 2,
        *,
        max_batch: int = 256,
        max_wait_s: float = 60.0,
        queue_limit: int = 4096,
        memory_budget_bytes: int | None = None,
        worker_obs: bool = False,
        start_timeout: float = 120.0,
        heartbeat_timeout: float | None = None,
        max_restarts: int = 2,
        policy: str = "qos",
        queue_pressure_requests: int | None = None,
        burn_threshold: float | None = None,
    ):
        import multiprocessing as mp

        from repro.serve.qos import QosPolicy
        from repro.serve.router import _check_name

        self.specs = tuple(specs)
        if not self.specs:
            raise ConfigError("a fleet needs at least one TenantSpec")
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {names}")
        for spec in self.specs:
            _check_name("model", spec.name)
            QosPolicy.parse(spec.qos)  # fail fast here, not in every worker
        self.workers = int(workers)
        if self.workers < 1:
            raise ConfigError(f"need at least one worker, got {workers}")
        self.start_timeout = float(start_timeout)
        self.heartbeat_timeout = heartbeat_timeout
        self.max_restarts = int(max_restarts)
        self._names = set(names)
        self._ctx = mp.get_context(_START_METHOD)
        self._options = {
            "max_batch": int(max_batch),
            "max_wait_s": float(max_wait_s),
            "queue_limit": int(queue_limit),
            "memory_budget_bytes": memory_budget_bytes,
            "worker_obs": bool(worker_obs),
            "policy": str(policy),
            "queue_pressure_requests": queue_pressure_requests,
            "burn_threshold": burn_threshold,
        }
        self._lock = threading.RLock()
        #: req_id -> ticket; the ticket's ``aid`` is its req_id
        self._tickets: dict[int, Ticket] = {}
        #: (model, stream) -> tickets in submit order, as the worker's lanes
        #: key them; replay re-sends a lane's tickets from their ``y0``
        self._lanes: dict[tuple[str, str], list[Ticket]] = {}
        #: req_ids a worker's router turned away (vs failed after accepting)
        self._rejected: set[int] = set()
        self._next_req = 0
        self._outstanding = 0
        self._all_done = threading.Event()
        self._all_done.set()
        self._first_submit: float | None = None
        self._last_resolve: float | None = None
        self._closed = False
        self._draining = False
        self._report: ServeReport | None = None
        self._stop = threading.Event()

        self._slots = [_WorkerSlot(i) for i in range(self.workers)]
        for slot in self._slots:
            self._spawn(slot)
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-fleet-collector", daemon=True
        )
        self._collector.start()
        deadline = time.monotonic() + self.start_timeout
        for slot in self._slots:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not slot.ready.wait(remaining):
                self._teardown_processes()
                raise ConfigError(
                    f"fleet worker {slot.index} not ready within "
                    f"{self.start_timeout:g}s"
                    + (f" ({slot.fatal})" if slot.fatal else "")
                )
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="repro-fleet-supervisor", daemon=True
        )
        self._supervisor.start()

    # ---------------------------------------------------------------- spawn
    def _spawn(self, slot: _WorkerSlot) -> None:
        """(Re)start one slot: fresh incarnation, fresh queues, fresh state."""
        _discard_queue(slot.task_q)   # a crashed reader strands its queues;
        _discard_queue(slot.result_q)  # stale messages are incarnation-gated
        slot.incarnation += 1
        slot.task_q = self._ctx.Queue()
        slot.result_q = self._ctx.Queue()
        slot.heartbeat = self._ctx.Value("d", 0.0, lock=False)
        slot.ready = threading.Event()
        slot.report = None
        slot.report_event = threading.Event()
        slot.obs_port = None
        slot.fatal = None
        slot.process = self._ctx.Process(
            target=_worker_main,
            args=(slot.index, slot.incarnation, self.specs, self._options,
                  slot.task_q, slot.result_q, slot.heartbeat),
            name=f"repro-fleet-w{slot.index}",
            daemon=True,
        )
        slot.process.start()

    # -------------------------------------------------------------- producer
    def worker_for(self, stream: str) -> int:
        """Slot index the stream is (and will always be) sharded to."""
        return stream_shard(stream, self.workers)

    def submit(self, model: str, y0, stream: str | None = None) -> Ticket:
        """Route one request to its stream's worker; returns its ticket.

        ``stream`` defaults to the model name — single-stream tenants shard
        whole.  Input validation happens worker-side (the dispatcher holds
        no network), so a malformed request resolves as *rejected*, its
        ticket carrying the worker's :class:`~repro.errors.ShapeError`,
        rather than raising here.
        """
        if model not in self._names:
            raise ConfigError(
                f"unknown model {model!r}; fleet serves {sorted(self._names)}"
            )
        if stream is not None:
            from repro.serve.router import _check_name

            _check_name("stream", str(stream))
        stream = model if stream is None else str(stream)
        y0 = np.asarray(y0)
        with self._lock:
            if self._closed or self._draining:
                raise ServeClosedError("fleet is draining; request not accepted")
            req_id = self._next_req
            self._next_req += 1
            lane = self._lanes.setdefault((model, stream), [])
            # the workers' batchers stamp time.monotonic too: the clock is
            # system-wide, so a shipped packed_at lines up with submitted_at
            ticket = Ticket(y0, time.monotonic(), aid=req_id)
            ticket.stream, ticket.index = stream, len(lane)
            if self._first_submit is None:
                self._first_submit = ticket.submitted_at
            self._tickets[req_id] = ticket
            lane.append(ticket)
            self._outstanding += 1
            self._all_done.clear()
            slot = self._slots[self.worker_for(stream)]
            if slot.dead:
                self._resolve(
                    ticket, slot.index,
                    error=WorkerCrashError(
                        f"worker {slot.index} exceeded its restart budget"
                    ),
                )
            elif not slot.paused:
                slot.task_q.put(("req", req_id, model, stream, y0))
            # paused slots get this request through the restart replay scan
        return ticket

    def serve(self, requests) -> ServeReport:
        """Submit ``(model, y0)`` / ``(model, stream, y0)`` items and join."""
        from repro.serve.router import _unpack_request

        for item in requests:
            model, stream, y0 = _unpack_request(item)
            self.submit(model, y0, stream=stream)
        return self.join()

    # ------------------------------------------------------------- collector
    def _collect_loop(self) -> None:
        while not self._stop.is_set():
            got = False
            for slot in self._slots:
                q = slot.result_q
                if q is None:
                    continue
                try:
                    msg = q.get_nowait()
                except queue_mod.Empty:
                    continue
                except Exception:
                    # a SIGKILLed producer can leave a corrupt pipe; the
                    # supervisor replaces the queue with the worker
                    continue
                got = True
                try:
                    self._handle_message(slot, msg)
                except Exception:  # pragma: no cover - collector must survive
                    pass
            if not got:
                time.sleep(0.002)

    def _handle_message(self, slot: _WorkerSlot, msg: tuple) -> None:
        kind, incarnation = msg[0], msg[1]
        if incarnation != slot.incarnation:
            return  # stale message from a dead incarnation
        if kind == "ready":
            slot.obs_port = msg[2]
            slot.ready.set()
        elif kind == "result":
            self._resolve(self._tickets[msg[2]], slot.index, **msg[3])
        elif kind in ("reject", "failed"):
            self._resolve(
                self._tickets[msg[2]], slot.index,
                error=_rebuild_error(msg[3], msg[4]), rejected=kind == "reject",
            )
        elif kind == "report":
            slot.report = msg[2]
            slot.report_event.set()
        elif kind == "fatal":
            slot.fatal = msg[2]

    def _resolve(self, ticket: Ticket, worker: int, error: BaseException | None = None,
                 rejected: bool = False, **block_fields) -> None:
        """Resolve ``ticket`` with a result message's block fields or an
        error.  A replayed duplicate is dropped here, under the (re-entrant)
        lock, so the ticket's exactly-once guard holds as in-process."""
        with self._lock:
            if ticket.done:
                return
            ticket.worker = worker
            for name, value in block_fields.items():
                setattr(ticket, name, value)
            if rejected:
                self._rejected.add(ticket.aid)
            ticket._resolve(time.monotonic(), error=error)
            ticket._done.set()
            self._last_resolve = ticket.completed_at
            self._outstanding -= 1
            if self._outstanding == 0:
                self._all_done.set()

    # ------------------------------------------------------------ supervisor
    def _supervise_loop(self) -> None:
        while not self._stop.is_set():
            time.sleep(0.05)
            for slot in self._slots:
                if self._stop.is_set():
                    return
                process = slot.process
                if process is None or slot.dead or slot.report is not None:
                    continue
                crashed = not process.is_alive()
                if not crashed and self.heartbeat_timeout is not None:
                    age = slot.last_heartbeat_age
                    if slot.ready.is_set() and age is not None \
                            and age > self.heartbeat_timeout:
                        process.kill()
                        process.join(timeout=5.0)
                        crashed = True
                if crashed:
                    self._handle_crash(slot)

    def _shard_lanes(self, slot: _WorkerSlot) -> list[tuple[tuple[str, str], list]]:
        """``((model, stream), tickets)`` lanes hashed to this slot, in
        first-submission order."""
        return [
            (key, tickets) for key, tickets in self._lanes.items()
            if self.worker_for(key[1]) == slot.index
        ]

    def _handle_crash(self, slot: _WorkerSlot) -> None:
        with self._lock:
            if slot.dead or slot.report is not None:
                return
            slot.restarts += 1
            if slot.restarts > self.max_restarts:
                slot.dead = True
                slot.paused = False
                error = WorkerCrashError(
                    f"worker {slot.index} crashed {slot.restarts} times; "
                    f"restart budget ({self.max_restarts}) exhausted"
                )
                for _, tickets in self._shard_lanes(slot):
                    for ticket in tickets:
                        self._resolve(ticket, slot.index, error=error)
                return
            slot.paused = True
            self._spawn(slot)
        # ready-wait outside the lock: submits to this slot buffer via the
        # paused flag and will be picked up by the replay scan below
        if not slot.ready.wait(self.start_timeout):
            # replacement never came up; kill it and let the supervisor
            # loop route us back here, burning another restart
            if slot.process is not None:
                slot.process.kill()
                slot.process.join(timeout=5.0)
            return
        with self._lock:
            replayed = 0
            for (model, stream), tickets in self._shard_lanes(slot):
                if all(t.done for t in tickets):
                    continue  # fully banked; nothing to recover
                # replay the WHOLE lane: packing of the unresolved tail
                # depends on the resolved prefix (block composition), and
                # warm outputs are state-independent, so re-serving the
                # prefix yields duplicate — dropped — identical results
                for ticket in tickets:
                    slot.task_q.put(("req", ticket.aid, model, stream, ticket.y0))
                    replayed += 1
            slot.replayed += replayed
            slot.paused = False
            if self._draining:
                slot.task_q.put(("drain",))

    # ------------------------------------------------------ crash injection
    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> int:
        """Send ``sig`` to a worker process (crash injection for tests).

        Returns the signalled pid.  The supervisor notices the death,
        respawns the slot, and replays its unfinished streams.
        """
        process = self._slots[index].process
        if process is None or process.pid is None:
            raise ConfigError(f"worker {index} has no live process")
        os.kill(process.pid, sig)
        return process.pid

    # ------------------------------------------------------------- shutdown
    def _command_workers(self, command: str) -> bool:
        """Send ``command`` ('drain' or 'abort') to every live worker and
        stop accepting submits; False once the fleet has already reported."""
        with self._lock:
            if self._report is not None:
                return False
            self._draining = True
            for slot in self._slots:
                if not slot.dead and not slot.paused:
                    try:
                        slot.task_q.put((command,))
                    except Exception:
                        pass
        return True

    def join(self, timeout: float | None = 300.0) -> ServeReport:
        """Drain every worker, collect reports, stop the fleet, and report."""
        if not self._command_workers("drain"):
            return self._report
        deadline = None if timeout is None else time.monotonic() + timeout
        self._wait(self._all_done, deadline)
        for slot in self._slots:
            if slot.dead:
                continue
            remaining = (
                None if deadline is None else max(deadline - time.monotonic(), 0.1)
            )
            slot.report_event.wait(remaining)
        return self._shutdown()

    def close(self, drain: bool = False,
              timeout: float | None = 300.0) -> ServeReport:
        """Abort (default) or drain-and-stop; idempotent."""
        if drain:
            return self.join(timeout)
        if not self._command_workers("abort"):
            return self._report
        time.sleep(0.2)  # give workers a moment to ship abort reports
        return self._shutdown()

    def _wait(self, event: threading.Event, deadline: float | None) -> bool:
        if deadline is None:
            event.wait()
            return event.is_set()
        return event.wait(max(deadline - time.monotonic(), 0.0))

    def _teardown_processes(self) -> None:
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)

    def _shutdown(self) -> ServeReport:
        self._stop.set()
        self._teardown_processes()
        if self._collector.is_alive():
            self._collector.join(timeout=5.0)
        for slot in self._slots:
            _discard_queue(slot.task_q)
            _discard_queue(slot.result_q)
            slot.task_q = None
            slot.result_q = None
        with self._lock:
            self._closed = True
            error = WorkerCrashError("fleet aborted before this request resolved")
            for ticket in self._tickets.values():
                self._resolve(ticket, None, error=error)
            wall_seconds = 0.0
            if self._first_submit is not None and self._last_resolve is not None:
                wall_seconds = self._last_resolve - self._first_submit
            per_model: dict[str, ServeReport] = {}
            streams: dict[str, int] = {}
            for (model, stream), tickets in self._lanes.items():
                streams[stream] = streams.get(stream, 0) + len(tickets)
                per = per_model.setdefault(model, ServeReport(wall_seconds=wall_seconds))
                for ticket in tickets:
                    if ticket.ready:
                        per.served.append(ticket)
                    else:
                        outcome = per.rejected if ticket.aid in self._rejected else per.failed
                        outcome.append((ticket.aid, str(ticket.error)))
            self._report = ServeReport.of_tenants(
                per_model,
                wall_seconds=wall_seconds,
                workers=self.workers,
                restarts=[slot.restarts for slot in self._slots],
                replayed=[slot.replayed for slot in self._slots],
                worker_reports=[slot.report for slot in self._slots],
                streams=streams,
            )
            return self._report

    def __enter__(self) -> "FleetDispatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._report is None:
            if exc_type is None:
                self.join()
            else:
                self.close()

    # -------------------------------------------------------------- telemetry
    def _scrape_worker(self, slot: _WorkerSlot, path: str):
        if not slot.obs_port:
            return None
        import urllib.request

        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{slot.obs_port}{path}", timeout=2.0
            ) as resp:
                return resp.read().decode("utf-8")
        except Exception:
            return None

    def render_merged_metrics(self) -> str:
        """One Prometheus exposition across the fleet (``worker=`` labeled).

        Live per-worker scrapes when ``worker_obs=True``; a crashed or
        already-drained worker falls back to its last shipped report.
        """
        texts: dict[str, str] = {}
        for slot in self._slots:
            text = self._scrape_worker(slot, "/metrics")
            if text is None and slot.report is not None:
                text = slot.report.get("prometheus")
            if text:
                texts[str(slot.index)] = text
        return merge_prometheus(texts)

    def merged_slo(self) -> dict:
        """Per-tenant-per-worker SLO blocks, keyed ``model@worker``."""
        import json as json_mod

        merged: dict = {}
        for slot in self._slots:
            payload = None
            text = self._scrape_worker(slot, "/slo")
            if text is not None:
                try:
                    payload = json_mod.loads(text)
                except ValueError:
                    payload = None
            if payload is None and slot.report is not None:
                payload = slot.report.get("slo")
            for model, block in (payload or {}).items():
                merged[f"{model}@{slot.index}"] = block
        return merged

    def health(self) -> dict:
        """Fleet health for ``/healthz``: degraded once any slot is dead.

        A slot goes *dead* when it crashes past ``max_restarts`` — from then
        on every stream hashed to it fails fast, so the process being alive
        is no longer the truth about serving capacity.  The dict's
        ``healthy`` flag drives the endpoint's status code (503 when False);
        the rest is diagnostic payload.
        """
        with self._lock:
            dead = [slot.index for slot in self._slots if slot.dead]
            alive = sum(
                1 for slot in self._slots
                if slot.process is not None and slot.process.is_alive()
            )
        return {
            "healthy": not dead,
            "status": "degraded" if dead else "ok",
            "workers": self.workers,
            "alive": alive,
            "dead_workers": dead,
        }

    def obs_endpoint(self, port: int = 0, host: str = "127.0.0.1"):
        """Start one merged ``/metrics`` + ``/slo`` endpoint for the fleet.

        ``/healthz`` on this endpoint reports *fleet* health (see
        :meth:`health`): 200 while every worker slot is serviceable, 503
        once any slot has exhausted its restart budget.
        """
        from repro.obs.http import ObsServer

        return ObsServer(
            None,
            slo_provider=self.merged_slo,
            metrics_provider=self.render_merged_metrics,
            health_provider=self.health,
            host=host,
            port=port,
        )

    def stats(self) -> dict:
        """Live dispatcher-side view (health, placement, restart counters)."""
        with self._lock:
            return {
                "workers": self.workers,
                "draining": self._draining,
                "closed": self._closed,
                "outstanding": self._outstanding,
                "streams": {
                    stream: self.worker_for(stream) for _, stream in self._lanes
                },
                "slots": [
                    {
                        "index": slot.index,
                        "pid": (
                            slot.process.pid if slot.process is not None else None
                        ),
                        "alive": (
                            slot.process.is_alive()
                            if slot.process is not None else False
                        ),
                        "ready": slot.ready.is_set(),
                        "incarnation": slot.incarnation,
                        "restarts": slot.restarts,
                        "replayed": slot.replayed,
                        "dead": slot.dead,
                        "heartbeat_age_s": slot.last_heartbeat_age,
                        "obs_port": slot.obs_port,
                    }
                    for slot in self._slots
                ],
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetDispatcher(workers={self.workers}, "
            f"tenants={sorted(self._names)})"
        )
