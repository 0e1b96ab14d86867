"""Serving front ends: a model registry, two routers, and a memory budget.

One serving process, one or many warm networks.  Three pieces compose the
story:

* :class:`ModelRegistry` owns named :class:`~repro.serve.session.
  EngineSession`\\ s — ``register``/``evict`` by name, lazy or eager warmup —
  all publishing into **one** :class:`~repro.obs.MetricsRegistry` through
  per-tenant ``{model="..."}`` labeled views, so a single scrape separates
  tenants instead of conflating them;
* :class:`Router` / :class:`AsyncRouter` front the registry with one
  :class:`~repro.serve.batcher.MicroBatcher` per lane and route
  ``submit(model, y0, stream=...)`` by name.  A router with one tenant *is*
  the single-model server: ``repro serve``, ``warmup --prime`` and every
  ``bench-serve`` section run through one.  A lane is keyed by
  ``(model, stream)``: requests from different tenants — or from different
  *streams* of the same tenant — are never packed into one block, so
  isolation is structural, not statistical, and each stream's outputs are
  bitwise identical to a single-stream run of the same request sequence.
  Stream lanes are what lets the multi-process fleet
  (:mod:`repro.serve.fleet`) shard replicated tenants across workers
  without perturbing outputs: a stream's packing depends only on its own
  request order, never on which process serves it or what its neighbors
  do.  The two routers share lanes, scheduling, admission, stats and the
  stream report, and differ only in transport.  Either way a lane has one
  queue — its batcher's bounded pending queue — and a request has one
  :class:`~repro.serve.batcher.Ticket`, timed from submit.
  :class:`Router` flushes blocks on the caller's thread, so a request
  stream and block execution take turns.  :class:`AsyncRouter` splits them
  across threads — producers enqueue from any thread straight into the
  lane's batcher and get the ticket back at once, while **one worker
  drains all tenants**, so arrivals overlap block execution and one
  tenant's burst rejects (or blocks) only its own lane;
* a :class:`~repro.gpu.memory.MemoryBudget` meters retained bytes across
  every tenant's warm state (scratch pool, pinned weight views, cached
  centroids).  When the sum exceeds the budget the registry demotes the
  least-recently-served sessions warm-to-cold
  (:meth:`~repro.serve.session.EngineSession.demote`) until it fits.
  Demotion drops only rebuildable state — pool contents are unspecified by
  contract, weight views rebuild bitwise identically from CSR, and a cold
  centroid cache merely re-pays one conversion — so eviction is a
  performance event, never a correctness one, and a demoted session keeps
  serving (re-warming lazily).

Failure routing: a block that raises mid-execution resolves exactly the
tickets that rode in it with that exception, and the router stays
serviceable.  :meth:`AsyncRouter.close` either drains every accepted ticket
(``drain=True``) or aborts, resolving the not-yet-run remainder with
:class:`~repro.errors.ServeClosedError` — accepted requests always resolve,
one way or the other.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.errors import ConfigError, ServeClosedError, ServeOverflowError
from repro.gpu.memory import MemoryBudget
from repro.obs import MetricsRegistry
from repro.obs.slo import SloPolicy, SloTracker
from repro.serve.batcher import MicroBatcher, Ticket, validate_request
from repro.serve.qos import AdmissionController, DeficitScheduler, QosPolicy
from repro.serve.report import ServeReport
from repro.serve.session import EngineSession

__all__ = [
    "ModelRegistry",
    "Router",
    "AsyncRouter",
    "BACKPRESSURE_POLICIES",
]

#: Lane service policies: ``'qos'`` is class-priority + deficit-weighted
#: round robin with admission control; ``'fifo'`` is the legacy
#: registration-order service with no admission (the A/B control arm).
SCHEDULER_POLICIES = ("qos", "fifo")

#: what :meth:`AsyncRouter.submit` does on a full lane
BACKPRESSURE_POLICIES = ("reject", "block")


def _unpack_request(item):
    """``(model, y0)`` or ``(model, stream, y0)`` -> ``(model, stream, y0)``."""
    if len(item) == 3:
        return item[0], item[1], item[2]
    model, y0 = item
    return model, None, y0


def _check_name(kind: str, name: str) -> str:
    """Reject ``@`` in model/stream names.

    Lane labels are ``model@stream`` and merged fleet SLO keys are
    ``model@worker`` — plain concatenation, so a tenant literally named
    ``"a@b"`` would alias another lane's stats and SLO block.  Refusing the
    character at register/submit time makes the collision impossible
    instead of merely unlikely.
    """
    if "@" in name:
        raise ConfigError(
            f"{kind} name {name!r} must not contain '@': it is the separator "
            f"in lane labels (model@stream) and fleet SLO keys (model@worker)"
        )
    return name


def _lane_label(model: str, stream: str | None) -> str:
    """Stable display key for a lane in stats dicts."""
    return model if stream is None else f"{model}@{stream}"


class ModelRegistry:
    """Named warm sessions behind one metrics registry and one byte budget.

    Parameters
    ----------
    metrics:
        The shared :class:`~repro.obs.MetricsRegistry` every tenant
        publishes into (labeled per model); private one by default.
    memory_budget_bytes:
        Retained-bytes ceiling across *all* tenants' warm state; ``None``
        meters without ever evicting.  Enforcement is LRU: the router calls
        :meth:`enforce` after serving activity, and the registry demotes
        least-recently-served sessions until the ledger fits.
    clock:
        Recency source for the LRU order (monotonic by default).
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        memory_budget_bytes: int | None = None,
        clock=time.monotonic,
    ):
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.budget = MemoryBudget(memory_budget_bytes, metrics=self.metrics)
        self.clock = clock
        self._sessions: dict[str, EngineSession] = {}
        self._last_served: dict[str, float] = {}
        self._slo: dict[str, SloTracker] = {}
        self._qos: dict[str, QosPolicy] = {}
        #: model names demoted by budget enforcement, in eviction order
        self.demotions: list[str] = []

    # ------------------------------------------------------------ lifecycle
    def register(
        self,
        name: str,
        network=None,
        *,
        config=None,
        kind: str = "snicit",
        warm: bool = False,
        warm_state: str | None = None,
        session: EngineSession | None = None,
        slo: SloPolicy | str | None = None,
        qos: QosPolicy | str | None = None,
        **session_kwargs,
    ) -> EngineSession:
        """Add a named tenant; returns its session.

        Either pass a ``network`` (+ engine options) to build an
        :class:`~repro.serve.session.EngineSession` here — on the shared
        metrics registry, labeled ``model=name`` — or hand in a prebuilt
        ``session``.  ``warm=False`` registers cold (views build lazily on
        first use); ``warm=True`` pins them eagerly.  ``warm_state`` names a
        :mod:`repro.core.warmstore` artifact to boot from instead of warming:
        the session is built cold, then
        :meth:`~repro.serve.session.EngineSession.load_warm_state` restores
        views and cache fills (fingerprint-checked) — the path fleets use so
        every worker, including crash-restarted incarnations, skips warmup.
        Duplicate names are a :class:`~repro.errors.ConfigError` — a name
        means one tenant.

        ``slo`` attaches a per-tenant service-level objective — an
        :class:`~repro.obs.slo.SloPolicy` or a compact spec string like
        ``'p99<50ms@60s/99%'`` — whose tracker the routers feed with every
        resolved request (see :meth:`set_slo`).

        ``qos`` declares the tenant's service class, DWRR weight, and
        optional column-rate limit — a :class:`~repro.serve.qos.QosPolicy`
        or a compact spec like ``'batch:w=2,rate=256'``.  Unset tenants
        default to interactive weight 1, which reproduces pre-QoS service
        exactly when every tenant is unset.
        """
        _check_name("model", name)
        if name in self._sessions:
            raise ConfigError(f"model {name!r} is already registered")
        if session is None:
            if network is None:
                raise ConfigError(f"model {name!r} needs a network or a session")
            session = EngineSession(
                network,
                config,
                kind=kind,
                warm=warm and warm_state is None,
                metrics=self.metrics,
                name=name,
                **session_kwargs,
            )
            if warm_state is not None:
                session.load_warm_state(warm_state)
        elif warm_state is not None:
            session.load_warm_state(warm_state)
        self._sessions[name] = session
        self._last_served[name] = self.clock()
        policy = QosPolicy.parse(qos)
        self._qos[name] = policy
        scoped = self.metrics.labeled(model=name)
        scoped.gauge(
            "qos_priority_rank",
            help="tenant service class rank (0=interactive, 1=batch)",
        ).set(policy.rank)
        scoped.gauge(
            "qos_weight", help="tenant deficit-round-robin weight"
        ).set(policy.weight)
        if slo is not None:
            self.set_slo(name, slo)
        # an eagerly-warmed tenant can push the ledger over budget the
        # moment it registers; enforce right away (protecting the newcomer)
        # so the highwater gauge only ever records post-enforcement state
        self.enforce(protect=(name,))
        return session

    def evict(self, name: str) -> EngineSession:
        """Remove a tenant entirely (its account leaves the ledger too)."""
        session = self.get(name)
        del self._sessions[name]
        del self._last_served[name]
        self._slo.pop(name, None)
        self._qos.pop(name, None)
        self.budget.drop(name)
        self.budget.publish()
        return session

    def get(self, name: str) -> EngineSession:
        try:
            return self._sessions[name]
        except KeyError:
            raise ConfigError(
                f"unknown model {name!r}; registered: {sorted(self._sessions)}"
            ) from None

    def names(self) -> list[str]:
        return list(self._sessions)

    # ------------------------------------------------------------------ SLO
    def set_slo(self, name: str, policy: SloPolicy | str) -> SloTracker:
        """Attach (or replace) a tenant's SLO policy; returns its tracker.

        The tracker publishes through the shared registry's per-tenant view
        (``slo_latency_seconds{model=name, quantile=...}`` etc.), and the
        routers feed it every resolved request for that tenant.  A spec
        string like ``'p99<50ms@60s/99%'`` is parsed via
        :meth:`~repro.obs.slo.SloPolicy.parse`.
        """
        self.get(name)  # unknown tenants fail loudly
        if isinstance(policy, str):
            policy = SloPolicy.parse(policy)
        tracker = SloTracker(
            policy, metrics=self.metrics.labeled(model=name), name=name
        )
        self._slo[name] = tracker
        return tracker

    def slo_tracker(self, name: str) -> SloTracker | None:
        """The tenant's tracker, or ``None`` when it has no SLO policy."""
        return self._slo.get(name)

    def slo_report_json(self) -> dict:
        """JSON-safe ``/slo`` payload: one report block per policied tenant."""
        return {name: tracker.report().to_json() for name, tracker in self._slo.items()}

    # ------------------------------------------------------------------ QoS
    def qos_policy(self, name: str) -> QosPolicy:
        """The tenant's QoS policy (default interactive weight 1 if unset)."""
        return self._qos.get(name) or QosPolicy()

    def max_interactive_burn(self) -> float | None:
        """Worst live SLO burn across interactive tenants (admission signal).

        ``None`` when no interactive tenant carries an SLO policy.  Reads
        the trackers' last evaluated burn instead of re-reading windows, so
        polling it on every submit is cheap.
        """
        burns = [
            tracker.last_burn
            for name, tracker in self._slo.items()
            if self.qos_policy(name).rank == 0
        ]
        return max(burns) if burns else None

    def __contains__(self, name: str) -> bool:
        return name in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    # --------------------------------------------------------------- budget
    def touch(self, name: str) -> None:
        """Mark a tenant as just-served (moves it to the LRU tail)."""
        self._last_served[name] = self.clock()

    def refresh_accounts(self) -> int:
        """Re-read every session's retained footprint into the ledger."""
        for name, session in self._sessions.items():
            self.budget.update(name, session.retained_nbytes())
        return self.budget.retained_bytes

    def enforce(self, protect=()) -> list[str]:
        """Demote sessions until the ledger fits: batch class first, then LRU.

        ``protect`` names tenants exempt this round (typically the one that
        just served — demoting it would immediately re-warm).  Returns the
        names demoted in eviction order.  Candidates sort batch-class
        tenants ahead of interactive ones — shedding a bulk tenant's warm
        state is always preferred over evicting an interactive tenant's —
        and least-recently-served first within a class (pure LRU when every
        tenant shares a class).  The high-water gauge is published *after*
        enforcement, so a run that stays within budget certifies it via
        ``memory_budget_highwater_bytes <= memory_budget_limit_bytes``.
        """
        self.refresh_accounts()
        demoted: list[str] = []
        if self.budget.over_budget:
            candidates = sorted(
                (
                    name
                    for name, session in self._sessions.items()
                    if name not in protect and session.retained_nbytes() > 0
                ),
                key=lambda name: (
                    -self.qos_policy(name).rank,
                    self._last_served[name],
                ),
            )
            for name in candidates:
                if not self.budget.over_budget:
                    break
                session = self._sessions[name]
                session.demote()
                self.budget.update(name, session.retained_nbytes())
                self.budget.record_eviction()
                self.metrics.counter(
                    "memory_budget_demotions_total",
                    help="warm-to-cold demotions, per tenant",
                    model=name,
                ).inc()
                demoted.append(name)
                self.demotions.append(name)
        self.budget.publish()
        return demoted

    def stats(self) -> dict:
        out = {
            "models": {name: s.stats() for name, s in self._sessions.items()},
            "budget": self.budget.stats(),
            "demotions": list(self.demotions),
        }
        if self._qos:
            out["qos_policies"] = {
                name: policy.to_json() for name, policy in self._qos.items()
            }
        if self._slo:
            out["slo"] = self.slo_report_json()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelRegistry(models={sorted(self._sessions)}, "
            f"retained={self.budget.retained_bytes})"
        )


class _Lane:
    """One ``(model, stream)`` lane: its batcher and its busy seconds."""

    __slots__ = ("model", "stream", "batcher", "exec_seconds")

    def __init__(self, model: str, stream: str | None, batcher: MicroBatcher):
        self.model = model
        self.stream = stream
        self.batcher = batcher
        self.exec_seconds = 0.0


class _RouterCore:
    """Lanes, lane scheduling, admission, stats and the stream report.

    Both routers share all of it; they differ only in transport — how a
    request reaches its lane's batcher and which thread flushes blocks.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        queue_limit: int = 1024,
        clock=time.monotonic,
        policy: str = "qos",
        queue_pressure_requests: int | None = None,
        burn_threshold: float | None = None,
    ):
        if policy not in SCHEDULER_POLICIES:
            raise ConfigError(
                f"unknown scheduler policy {policy!r}; known: {SCHEDULER_POLICIES}"
            )
        self.registry = registry
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.queue_limit = int(queue_limit)
        self.clock = clock
        self.policy = policy
        self.scheduler = DeficitScheduler(quantum=float(max_batch))
        self.admission = (
            AdmissionController(
                metrics=registry.metrics,
                queue_pressure_requests=queue_pressure_requests,
                burn_threshold=burn_threshold,
                clock=clock,
            )
            if policy == "qos"
            else None
        )
        #: seconds spent packing and executing blocks, all lanes
        self.exec_seconds = 0.0
        self._lanes: dict[tuple[str, str | None], _Lane] = {}
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- lanes
    def lane(self, model: str, stream: str | None = None) -> MicroBatcher:
        """The ``(model, stream)`` batcher, created on first use.

        ``stream=None`` is the tenant's default lane (the pre-fleet
        behavior).  Distinct streams of one tenant get distinct batchers, so
        their blocks never mix — the structural invariant behind per-stream
        bitwise determinism.  Unknown model names raise, as do stream names
        containing ``@`` (they would alias lane labels).
        """
        with self._lock:
            return self._lane(model, stream).batcher

    def _lane(self, model: str, stream: str | None = None) -> _Lane:
        """Lane for ``(model, stream)`` (async callers hold the lock)."""
        if stream is not None:
            _check_name("stream", str(stream))
        key = (model, stream)
        lane = self._lanes.get(key)
        if lane is None:
            batcher = MicroBatcher(
                self.registry.get(model),
                max_batch=self.max_batch,
                max_wait_s=self.max_wait_s,
                max_pending=self.queue_limit,
                clock=self.clock,
                stream=stream,
            )

            # the tracker is looked up per resolution, not captured: a
            # policy set (or replaced) after the lane exists still applies.
            # The hook holds the registry, not the router, so the lane's
            # batcher and the router form no reference cycle and a dropped
            # router frees its tenants' warm state at once.
            def feed_slo(ticket, model=model, registry=self.registry):
                tracker = registry.slo_tracker(model)
                if tracker is not None:
                    tracker.record_ticket(ticket, model=model)

            batcher.on_resolve = feed_slo
            lane = self._lanes[key] = _Lane(model, stream, batcher)
            qos = self.registry.qos_policy(model)
            self.scheduler.register(
                key, qos.rank, qos.weight, label=_lane_label(model, stream)
            )
            if self.admission is not None:
                self.admission.register(model, qos)
        return lane

    def pending_requests(self) -> int:
        """Requests queued across every lane (admission pressure signal)."""
        return sum(lane.batcher.pending_requests for lane in list(self._lanes.values()))

    def _enqueue(self, lane: _Lane, y0: np.ndarray) -> Ticket:
        """Queue a validated, admitted request on ``lane``; a full lane raises."""
        try:
            return lane.batcher.enqueue(y0)
        except ServeOverflowError:
            raise ServeOverflowError(
                f"lane {_lane_label(lane.model, lane.stream)!r} full "
                f"({self.queue_limit} requests); request rejected"
            ) from None

    def _admit(self, model: str, columns: int) -> None:
        """Admission control under ``policy='qos'``; raises on a shed."""
        if self.admission is not None:
            self.admission.admit(
                model,
                columns,
                pending_requests=self.pending_requests(),
                interactive_burn=self.registry.max_interactive_burn(),
                over_budget=self.registry.budget.over_budget,
            )

    # ------------------------------------------------------------- flushing
    def _candidates(self, *, due: bool, drain: bool) -> tuple[dict, dict]:
        """Runnable lanes: ``{key: block_cost}`` plus each lane's flush reason.

        A lane is runnable when it holds a full block; with ``due`` also
        when its oldest request aged past ``max_wait_s``; with ``drain``
        whenever anything is pending.
        """
        with self._lock:
            lanes = list(self._lanes.items())
        candidates: dict[tuple[str, str | None], int] = {}
        reasons: dict[tuple[str, str | None], str] = {}
        for key, lane in lanes:
            batcher = lane.batcher
            if not batcher.pending_requests:
                self.scheduler.reset(key)
                continue
            if batcher.pending_columns >= batcher.max_batch:
                reasons[key] = "full"
            elif drain:
                reasons[key] = "drain"
            elif due:
                d = batcher.seconds_until_due()
                if d is not None and d <= 0:
                    reasons[key] = "wait"
            if key in reasons:
                candidates[key] = min(batcher.pending_columns, batcher.max_batch)
        return candidates, reasons

    def _pick(self, candidates: dict) -> tuple[str, str | None]:
        """Next lane to flush: DWRR under 'qos', registration order under 'fifo'."""
        if self.policy == "fifo":
            with self._lock:
                order = list(self._lanes)
            for key in order:
                if key in candidates:
                    return key
        return self.scheduler.pick(candidates)

    def _flush(self, lane: _Lane, reason: str) -> int:
        """Run one block of ``lane``, accounting its wall time as busy."""
        t0 = time.perf_counter()
        try:
            return lane.batcher.flush_one(reason=reason)
        finally:
            elapsed = time.perf_counter() - t0
            lane.exec_seconds += elapsed
            self.exec_seconds += elapsed

    # ------------------------------------------------------------ streaming
    def _tick(self) -> None:
        """Transport work between two submits of :meth:`serve`."""

    def _finish(self) -> None:
        """Resolve everything :meth:`serve` submitted."""
        raise NotImplementedError

    def serve(self, requests, interarrivals=None) -> ServeReport:
        """Run a stream of ``(model, y0)`` or ``(model, stream, y0)`` to the end.

        Rejected requests (overflow, shed, closed) are recorded with their
        error message; everything accepted has resolved — served or failed —
        by the time the report is returned.  ``interarrivals`` (optional,
        one float per request, e.g. Poisson gaps from
        :func:`repro.serve.bench.poisson_interarrivals`) makes the stream
        open-loop: the submitting thread sleeps that long *before* each
        submit.  The sync router cannot overlap those gaps with block
        execution; the async worker keeps executing through them.
        """
        per_model: dict[str, ServeReport] = {}
        demotions_before = len(self.registry.demotions)
        gaps = iter(interarrivals) if interarrivals is not None else None
        tickets: list[tuple[ServeReport, int, object]] = []
        t0 = time.perf_counter()
        for index, item in enumerate(requests):
            model, stream, y0 = _unpack_request(item)
            per = per_model.setdefault(model, ServeReport())
            if gaps is not None:
                gap = float(next(gaps, 0.0))
                if gap > 0:
                    time.sleep(gap)
                per.arrival_seconds += gap
            try:
                tickets.append((per, index, self.submit(model, y0, stream=stream)))
            except (ServeOverflowError, ServeClosedError) as exc:
                per.rejected.append((index, str(exc)))
            self._tick()
        self._finish()
        wall_seconds = time.perf_counter() - t0
        for per, index, ticket in tickets:
            if ticket.failed:
                per.failed.append((index, str(ticket.error)))
            else:
                per.served.append(ticket)
        with self._lock:
            lanes = list(self._lanes.values())
        for model, per in per_model.items():
            per.wall_seconds = wall_seconds
            per.exec_seconds = sum(ln.exec_seconds for ln in lanes if ln.model == model)
        return ServeReport.of_tenants(
            per_model,
            wall_seconds=wall_seconds,
            exec_seconds=self.exec_seconds,
            demoted=self.registry.demotions[demotions_before:],
            slo=self.registry.slo_report_json() or None,
        )

    def stats(self) -> dict:
        with self._lock:
            lanes = list(self._lanes.values())
        return {
            "registry": self.registry.stats(),
            "exec_seconds": self.exec_seconds,
            "qos": {
                "policy": self.policy,
                "scheduler": self.scheduler.stats(),
                "admission": (
                    self.admission.stats() if self.admission is not None else None
                ),
            },
            "lanes": {
                _lane_label(lane.model, lane.stream): lane.batcher.stats()
                for lane in lanes
            },
        }


class Router(_RouterCore):
    """Synchronous front end: blocks flush on the caller's thread.

    ``submit(model, y0)`` routes by name into the model's own
    :class:`~repro.serve.batcher.MicroBatcher` lane (created on first use),
    so blocks never mix tenants, and runs every block that became full
    before returning.  With one registered tenant this is the
    single-model serving loop.  After every flush opportunity the
    registry's memory budget is enforced, protecting the tenant that just
    served.

    Which lane flushes next is decided by a
    :class:`~repro.serve.qos.DeficitScheduler` under ``policy='qos'``
    (strict interactive-before-batch priority, deficit-weighted round
    robin within a class) or by registration order under ``policy='fifo'``
    (the legacy arm).  The scheduler only reorders *between* lanes; FIFO
    packing inside each lane is untouched, so per-stream outputs stay
    bitwise identical either way.  Under ``'qos'`` an
    :class:`~repro.serve.qos.AdmissionController` sheds load before it
    enters a lane: per-tenant token-bucket rate limits, and pressure
    triggers (queued requests >= ``queue_pressure_requests``, interactive
    SLO burn >= ``burn_threshold``, memory budget over limit) that shed
    only batch-class tenants.  A full lane (``queue_limit`` pending
    requests) rejects with :class:`~repro.errors.ServeOverflowError`.
    """

    # ------------------------------------------------------------- serving
    def submit(self, model: str, y0: np.ndarray, stream: str | None = None) -> Ticket:
        """Route one request to its ``(model, stream)`` lane; may flush a block.

        Under ``policy='qos'`` the request first passes admission control —
        a shed raises :class:`~repro.errors.ServeShedError` (a
        :class:`~repro.errors.ServeOverflowError`) before the lane sees it.
        """
        y0 = validate_request(self.registry.get(model), y0)
        lane = self._lane(model, stream)
        self._admit(model, y0.shape[1])
        ticket = self._enqueue(lane, y0)
        self._service()
        self.registry.touch(model)
        self.registry.enforce(protect={model})
        return ticket

    def step(self) -> int:
        """Flush due lanes scheduler-ordered; returns blocks flushed."""
        return self._service(due=True)

    def drain(self) -> int:
        """Flush everything pending in every lane, scheduler-ordered."""
        return self._service(due=True, drain=True)

    _tick = step
    _finish = drain

    def _service(self, *, due: bool = False, drain: bool = False) -> int:
        """Flush runnable blocks one at a time in scheduler order.

        One block flushes per pick, then candidates rebuild — so a
        higher-priority lane that became runnable preempts at block
        granularity.  Engine failures propagate after the batcher routes
        them to the failing block's tickets.
        """
        n = 0
        while True:
            candidates, reasons = self._candidates(due=due, drain=drain)
            if not candidates:
                return n
            key = self._pick(candidates)
            lane = self._lanes[key]
            if self._flush(lane, reasons[key]):
                n += 1
                self.registry.touch(lane.model)
                self.registry.enforce(protect={lane.model})
            if not lane.batcher.pending_requests:
                self.scheduler.reset(key)


class AsyncRouter(_RouterCore):
    """Threaded front end: producers enqueue, one worker drains all tenants.

    Producers ``submit(model, y0)`` from any thread straight into that
    lane's batcher and get its :class:`~repro.serve.batcher.Ticket` back
    immediately — backpressure is per lane, so one tenant's burst rejects
    (``on_full='reject'``) or blocks (``'block'``) only its own producers —
    while a single consumer worker services the lanes one block at a time
    on each tenant's warm session.  New arrivals queue *while* a block
    runs, so ``max_wait_s`` is load-bearing: a partial block flushes once
    its oldest request is ``max_wait_s`` old, counted from submit, even
    when no further arrival ever comes.  The overlap fraction — worker-busy
    seconds over wall seconds — is published as the
    ``async_overlap_fraction`` gauge.

    Which lane runs next is the :class:`~repro.serve.qos.DeficitScheduler`'s
    call under ``policy='qos'`` (interactive before batch, deficit-weighted
    within a class; candidates are rebuilt between blocks, so an
    interactive burst preempts a bulk backlog at block granularity) or
    registration order under ``'fifo'``.  Admission control (rate limits +
    batch-first pressure shedding) runs inside ``submit`` under ``'qos'``.
    Blocks never mix tenants; the memory budget is enforced between
    blocks, protecting the tenant that just ran.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        queue_limit: int = 1024,
        on_full: str = "reject",
        clock=time.monotonic,
        policy: str = "qos",
        queue_pressure_requests: int | None = None,
        burn_threshold: float | None = None,
    ):
        if on_full not in BACKPRESSURE_POLICIES:
            raise ConfigError(
                f"unknown backpressure policy {on_full!r}; known: {BACKPRESSURE_POLICIES}"
            )
        super().__init__(
            registry, max_batch, max_wait_s, queue_limit, clock, policy,
            queue_pressure_requests, burn_threshold,
        )
        self.on_full = on_full
        self._arrived = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._closed = False
        self._abort = False
        self._g_overlap = registry.metrics.gauge(
            "async_overlap_fraction",
            help="worker busy seconds / wall seconds since the router started",
        )
        self._started_at = time.perf_counter()
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-router-worker", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------- producer
    def submit(self, model: str, y0: np.ndarray, stream: str | None = None) -> Ticket:
        """Enqueue into the ``(model, stream)`` lane; returns its ticket at once.

        Thread-safe.  Shape errors surface synchronously, before the request
        occupies queue space.  A full *lane* (``queue_limit`` pending
        requests; not the whole router) raises
        :class:`~repro.errors.ServeOverflowError` under ``'reject'`` or
        parks this producer under ``'block'`` — per-tenant (and per-stream)
        backpressure by construction.  Raises
        :class:`~repro.errors.ServeClosedError` once the router is closed,
        including producers woken from a ``'block'`` wait by shutdown.
        """
        y0 = validate_request(self.registry.get(model), y0)
        with self._lock:
            if self._closed:
                raise ServeClosedError("router is closed; request not accepted")
            lane = self._lane(model, stream)
            self._admit(model, y0.shape[1])
            if self.on_full == "block":
                while lane.batcher.pending_requests >= self.queue_limit and not self._closed:
                    self._space.wait()
                if self._closed:
                    raise ServeClosedError("router closed while waiting for lane space")
            ticket = self._enqueue(lane, y0)
            self._arrived.notify()
        return ticket

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Shut the transport down; returns True once the worker exited.

        ``drain=True`` runs every accepted request before stopping (no
        accepted ticket is lost); ``drain=False`` aborts — requests that
        have not started executing resolve with
        :class:`~repro.errors.ServeClosedError`.  Blocked producers are
        woken and raise.  Idempotent; an abort may follow a drain request
        but not the other way around.
        """
        with self._lock:
            self._closed = True
            if not drain:
                self._abort = True
            self._arrived.notify_all()
            self._space.notify_all()
        self._worker.join(timeout)
        self._g_overlap.set(self.overlap_fraction)
        return not self._worker.is_alive()

    def __enter__(self) -> "AsyncRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def _finish(self) -> None:
        self.close(drain=True)

    # -------------------------------------------------------------- worker
    def _due(self) -> float | None:
        """Seconds until some lane is runnable; None when all are idle.

        Zero while a lane holds a full block, else the earliest max-wait
        deadline (lock held).
        """
        due = None
        for lane in self._lanes.values():
            batcher = lane.batcher
            if batcher.pending_columns >= batcher.max_batch:
                return 0.0
            d = batcher.seconds_until_due()
            if d is not None and (due is None or d < due):
                due = d
        return due

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._closed:
                    due = self._due()
                    if due is not None and due <= 0:
                        break
                    self._arrived.wait(timeout=due)
                closing, abort = self._closed, self._abort
            # service: one block per scheduler pick, candidates rebuilt
            # between blocks so an interactive burst preempts a bulk backlog
            # at block granularity instead of waiting out a whole sweep
            while not abort:
                candidates, reasons = self._candidates(due=True, drain=closing)
                if not candidates:
                    break
                key = self._pick(candidates)
                with self._lock:
                    lane = self._lanes[key]
                self._run_guarded(lane, reasons[key])
                if not lane.batcher.pending_requests:
                    self.scheduler.reset(key)
                with self._lock:
                    self._space.notify_all()
                    abort = self._abort
            if abort:
                self._abort_pending()
            if closing or abort:
                return

    def _run_guarded(self, lane: _Lane, reason: str) -> None:
        """Execute one block of ``lane``, then enforce the byte budget."""
        try:
            ran = bool(self._flush(lane, reason))
        except Exception:
            # the batcher resolved the failing block's tickets with the
            # exception before re-raising; the worker keeps serving
            ran = True
        if ran:
            self.registry.touch(lane.model)
            self.registry.enforce(protect={lane.model})
        self._g_overlap.set(self.overlap_fraction)

    def _abort_pending(self) -> None:
        """Fail everything still pending, on every lane."""
        error = ServeClosedError("router aborted before this request executed")
        with self._lock:
            lanes = list(self._lanes.values())
        for lane in lanes:
            lane.batcher.fail_pending(error)

    # ------------------------------------------------------------- metrics
    @property
    def overlap_fraction(self) -> float:
        """Worker busy fraction of the router's lifetime so far."""
        wall = time.perf_counter() - self._started_at
        return self.exec_seconds / wall if wall > 0 else 0.0

    def stats(self) -> dict:
        return {
            **super().stats(),
            "on_full": self.on_full,
            "closed": self._closed,
            "overlap_fraction": self.overlap_fraction,
        }
