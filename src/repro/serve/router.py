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
  stream report, and differ only in transport.  :class:`Router` flushes
  blocks on the caller's thread, so a request stream and block execution
  take turns.  :class:`AsyncRouter` splits them across threads —
  producers enqueue from any thread into bounded per-lane intake queues
  and get an :class:`AsyncTicket` back at once, while **one worker drains
  all tenants**, so arrivals overlap block execution and one tenant's burst
  rejects (or blocks) only its own lane;
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
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError, ServeClosedError, ServeOverflowError, ShapeError
from repro.gpu.memory import MemoryBudget
from repro.inference import sdgc_categories
from repro.obs import MetricsRegistry
from repro.obs.export import json_safe
from repro.obs.slo import SloPolicy, SloTracker
from repro.serve.batcher import MicroBatcher, Ticket
from repro.serve.qos import AdmissionController, DeficitScheduler, QosPolicy
from repro.serve.session import EngineSession

__all__ = [
    "ModelRegistry",
    "Router",
    "AsyncRouter",
    "RouterReport",
    "ServeReport",
    "AsyncTicket",
    "BACKPRESSURE_POLICIES",
]

#: Lane service policies: ``'qos'`` is class-priority + deficit-weighted
#: round robin with admission control; ``'fifo'`` is the legacy
#: registration-order service with no admission (the A/B control arm).
SCHEDULER_POLICIES = ("qos", "fifo")

#: what :meth:`AsyncRouter.submit` does on a full intake lane
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


def _request_columns(y0) -> int:
    """Column count of a raw request, before full validation."""
    arr = np.asarray(y0)
    return int(arr.shape[1]) if arr.ndim >= 2 else 1


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
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.budget = MemoryBudget(memory_budget_bytes).bind_metrics(self.metrics)
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
        :mod:`repro.core.warmstore` artifact to boot from instead of baking:
        the session is built cold, then
        :meth:`~repro.serve.session.EngineSession.load_warm_state` restores
        views, plan, memo baselines, and cache fills (fingerprint-checked) —
        the path fleets use so every worker, including crash-restarted
        incarnations, skips warmup.  Duplicate names are a
        :class:`~repro.errors.ConfigError` — a name means one tenant.

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

    def slo_report(self) -> dict:
        """Live :class:`~repro.obs.slo.SloReport` per policied tenant."""
        return {name: tracker.report() for name, tracker in self._slo.items()}

    def slo_report_json(self) -> dict:
        """JSON-safe ``/slo`` payload: one report block per policied tenant."""
        return {
            name: report.to_json() for name, report in self.slo_report().items()
        }

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


class AsyncTicket:
    """Future-like handle for one request accepted by the async router.

    Producers hold it; the worker thread resolves it exactly once — with the
    request's output slice, with the exception that killed its block, or
    with :class:`~repro.errors.ServeClosedError` on an aborted shutdown.
    """

    __slots__ = (
        "y0", "index", "submitted_at", "dequeued_at", "completed_at",
        "inner", "_error", "_done", "_resolutions",
    )

    def __init__(self, y0: np.ndarray, submitted_at: float, index: int = 0):
        self.y0 = y0
        #: arrival order within its lane (0-based)
        self.index = index
        self.submitted_at = submitted_at
        #: when the worker pulled it off the intake queue
        self.dequeued_at: float | None = None
        self.completed_at: float | None = None
        #: the batcher's inner ticket, once the worker enqueued the request
        self.inner: Ticket | None = None
        self._error: BaseException | None = None
        self._done = threading.Event()
        #: times the worker resolved this ticket (the invariant is == 1)
        self._resolutions = 0

    # ------------------------------------------------------------ producer
    @property
    def columns(self) -> int:
        return self.y0.shape[1]

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def ready(self) -> bool:
        return self.done and self._error is None

    @property
    def failed(self) -> bool:
        return self._error is not None

    @property
    def exception(self) -> BaseException | None:
        return self._error

    def wait(self, timeout: float | None = None) -> bool:
        """Block until resolved (or ``timeout`` seconds); True when done."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block for and return this request's output slice ``Y(l)``.

        Raises the block's exception if execution failed, TimeoutError if
        the ticket is still unresolved after ``timeout`` seconds.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"request {self.index} unresolved after {timeout}s")
        if self._error is not None:
            raise self._error
        return self.inner.y

    @property
    def y(self) -> np.ndarray:
        """Non-blocking output access (same contract as the sync Ticket)."""
        if self._error is not None:
            raise self._error
        if not self.done:
            raise ServeOverflowError(
                "ticket not resolved yet; wait() on it or close(drain=True) the router"
            )
        return self.inner.y

    @property
    def categories(self) -> np.ndarray:
        return sdgc_categories(self.y)

    @property
    def batch_columns(self) -> int | None:
        return self.inner.batch_columns if self.inner is not None else None

    @property
    def latency_seconds(self) -> float:
        """Submit-to-resolve wall time (includes the intake-queue wait)."""
        if self.completed_at is None:
            raise ServeOverflowError("ticket not resolved yet")
        return self.completed_at - self.submitted_at

    @property
    def queue_wait_seconds(self) -> float:
        """Time spent in the intake queue before the worker picked it up."""
        if self.dequeued_at is None:
            raise ServeOverflowError("ticket not dequeued yet")
        return self.dequeued_at - self.submitted_at

    @property
    def aid(self) -> int | None:
        """The inner ticket's async-trace span id (None before enqueue)."""
        return self.inner.aid if self.inner is not None else None

    def breakdown(self) -> dict:
        """Latency attribution, intake wait included.

        The inner :class:`~repro.serve.batcher.Ticket` knows batch wait,
        block execute time, and per-stage seconds; this transport adds the
        producer-side component it alone can see — ``queue_wait_seconds``,
        the time between :meth:`AsyncRouter.submit` and the worker pulling
        the request off the intake queue.
        """
        out = self.inner.breakdown() if self.inner is not None else {}
        out["queue_wait_seconds"] = (
            self.dequeued_at - self.submitted_at
            if self.dequeued_at is not None else None
        )
        return out

    # -------------------------------------------------------------- worker
    def _resolve(self, now: float, error: BaseException | None = None) -> None:
        """Worker-side completion; must fire exactly once per ticket."""
        self._resolutions += 1
        if self._resolutions > 1:  # pragma: no cover - guarded invariant
            raise ServeClosedError(
                f"ticket {self.index} resolved {self._resolutions} times"
            )
        self._error = error
        self.completed_at = now
        self._done.set()


@dataclass
class ServeReport:
    """Outcome of one tenant's request stream through a router.

    ``exec_seconds`` is the time spent packing and executing the tenant's
    blocks, ``arrival_seconds`` the injected interarrival sleep of an
    open-loop stream.  On the async transport ``overlap_fraction`` near 1.0
    means the engine stayed busy for the whole stream — arrivals were fully
    hidden behind execution — and near 0.0 that the worker mostly waited
    for traffic; on the sync transport, where the caller's thread executes,
    it is simply the busy share of the stream.
    """

    served: list = field(default_factory=list)
    #: (stream index, error message) per rejected request — never silent
    rejected: list[tuple[int, str]] = field(default_factory=list)
    #: (stream index, error message) per accepted-then-failed request
    failed: list[tuple[int, str]] = field(default_factory=list)
    wall_seconds: float = 0.0
    exec_seconds: float = 0.0
    arrival_seconds: float = 0.0

    @property
    def requests(self) -> int:
        return len(self.served) + len(self.rejected) + len(self.failed)

    @property
    def columns(self) -> int:
        return sum(t.columns for t in self.served)

    @property
    def requests_per_second(self) -> float:
        return len(self.served) / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def columns_per_second(self) -> float:
        return self.columns / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def overlap_fraction(self) -> float:
        return self.exec_seconds / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def status(self) -> str:
        """``'ok'``, ``'all_rejected'``, ``'all_failed'``, or ``'no_traffic'``.

        A zero ``requests_per_second`` is ambiguous on its own: an idle
        stream and a stream shed entirely by backpressure both report 0.0.
        The status names which one happened, so dashboards and tests can
        tell "nothing arrived" from "everything was turned away" (or
        accepted and then failed).
        """
        if self.requests == 0:
            return "no_traffic"
        if not self.served:
            return "all_rejected" if not self.failed else "all_failed"
        return "ok"

    def latency_quantiles(self, qs=(0.5, 0.95, 0.99, 1.0)) -> dict[str, float] | None:
        """Latency quantiles of served requests; ``None`` when none served
        (an all-rejected or idle stream has no latencies, not zero ones)."""
        if not self.served:
            return None
        lat = np.array([t.latency_seconds for t in self.served])
        return {f"p{int(q * 100)}": float(np.quantile(lat, q)) for q in qs}

    def summary(self) -> dict:
        return {
            "status": self.status,
            "requests": self.requests,
            "served": len(self.served),
            "rejected": len(self.rejected),
            "failed": len(self.failed),
            "columns": self.columns,
            "wall_seconds": self.wall_seconds,
            "requests_per_second": self.requests_per_second,
            "columns_per_second": self.columns_per_second,
            "latency_seconds": self.latency_quantiles(),
            "exec_seconds": self.exec_seconds,
            "arrival_seconds": self.arrival_seconds,
            "overlap_fraction": self.overlap_fraction,
        }

    def to_json(self) -> dict:
        """:meth:`summary` with every value coerced JSON-serializable.

        The quantiles come out of ``np.quantile`` as numpy scalars; this is
        the path report consumers (bench records, the ``/slo`` endpoint)
        must use before ``json.dumps``.
        """
        return json_safe(self.summary())


@dataclass
class RouterReport:
    """Outcome of one mixed-traffic stream, per tenant plus merged.

    The merged view honors each tenant's own
    :attr:`ServeReport.status` instead of judging
    globally: an idle tenant (``no_traffic``) does not drag a healthy run,
    and one fully-shed tenant does not hide behind another's successes —
    mixed outcomes merge to ``'degraded'``, not ``'ok'``.
    """

    per_model: dict[str, ServeReport] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: seconds spent packing and executing blocks, all tenants
    exec_seconds: float = 0.0
    #: tenants demoted warm-to-cold by budget enforcement during the stream
    demoted: list[str] = field(default_factory=list)
    #: per-tenant SLO evaluation (JSON blocks from the registry's trackers);
    #: ``None`` when no tenant carries a policy
    slo: dict[str, dict] | None = None

    # ----------------------------------------------------------- aggregates
    @property
    def requests(self) -> int:
        return sum(r.requests for r in self.per_model.values())

    @property
    def served(self) -> int:
        return sum(len(r.served) for r in self.per_model.values())

    @property
    def rejected(self) -> int:
        return sum(len(r.rejected) for r in self.per_model.values())

    @property
    def columns(self) -> int:
        return sum(r.columns for r in self.per_model.values())

    @property
    def columns_per_second(self) -> float:
        return self.columns / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def status(self) -> str:
        """Merged health: per-tenant statuses folded without masking.

        ``no_traffic`` tenants are excluded from the judgment (idle is not
        unhealthy); among the active ones, all-ok merges to ``'ok'``, all
        turned-away (rejected or failed) to ``'all_rejected'``, and any mix
        to ``'degraded'``.  No active tenant at all is ``'no_traffic'``.
        """
        active = [
            r.status for r in self.per_model.values() if r.status != "no_traffic"
        ]
        if not active:
            return "no_traffic"
        if all(s == "ok" for s in active):
            return "ok"
        if all(s in ("all_rejected", "all_failed") for s in active):
            return "all_rejected"
        return "degraded"

    def latency_quantiles(self, qs=(0.5, 0.95, 0.99, 1.0)) -> dict[str, float] | None:
        """Pooled quantiles over every tenant that actually served.

        Pooling is the *merged* view only — a quiet fast tenant and a
        saturated slow one average into a number that describes neither, so
        anything judging tenant health must read
        :meth:`per_model_quantiles` instead.

        Tenants with nothing served contribute no samples (their ``None``
        is not coerced to zero); with no served request anywhere the merged
        view is ``None`` too, mirroring the single-tenant contract.
        """
        lat = [
            t.latency_seconds
            for report in self.per_model.values()
            for t in report.served
        ]
        if not lat:
            return None
        arr = np.array(lat)
        return {f"p{int(q * 100)}": float(np.quantile(arr, q)) for q in qs}

    def per_model_quantiles(
        self, qs=(0.5, 0.95, 0.99, 1.0)
    ) -> dict[str, dict[str, float] | None]:
        """Each tenant's own latency quantiles — the unmasked per-tail view."""
        return {
            name: report.latency_quantiles(qs)
            for name, report in self.per_model.items()
        }

    def summary(self) -> dict:
        out = {
            "status": self.status,
            "requests": self.requests,
            "served": self.served,
            "rejected": self.rejected,
            "columns": self.columns,
            "wall_seconds": self.wall_seconds,
            "columns_per_second": self.columns_per_second,
            "latency_seconds": self.latency_quantiles(),
            "latency_seconds_per_model": self.per_model_quantiles(),
            "demoted": list(self.demoted),
            "models": {
                name: report.summary() for name, report in self.per_model.items()
            },
        }
        if self.slo is not None:
            out["slo"] = self.slo
        return out

    def to_json(self) -> dict:
        """:meth:`summary` coerced JSON-serializable (numpy scalars included)."""
        return json_safe(self.summary())


class _Lane:
    """One ``(model, stream)`` lane: its batcher and its busy seconds."""

    __slots__ = ("model", "stream", "batcher", "exec_seconds")

    def __init__(self, model: str, stream: str | None, batcher: MicroBatcher):
        self.model = model
        self.stream = stream
        self.batcher = batcher
        self.exec_seconds = 0.0

    def queued(self) -> int:
        """Requests waiting in this lane (admission pressure signal)."""
        return self.batcher.pending_requests


class _AsyncLane(_Lane):
    """A lane plus the async router's bounded intake queue.

    Intake outcomes count into the tenant's own batcher series, so
    ``serve_requests_total + serve_rejected_total`` covers a stream on
    either transport.
    """

    __slots__ = ("intake", "inflight", "accepted", "c_rejected", "c_failed", "g_intake")

    def __init__(self, model: str, stream: str | None, batcher: MicroBatcher):
        super().__init__(model, stream, batcher)
        self.intake: deque[AsyncTicket] = deque()
        self.inflight: deque[AsyncTicket] = deque()
        self.accepted = 0
        session = batcher.session
        metrics = getattr(session, "scoped", None) or session.metrics
        self.c_rejected = metrics.counter("serve_rejected_total")
        self.c_failed = metrics.counter("serve_failed_total")
        # shared by the tenant's stream lanes, so it moves by inc/dec
        self.g_intake = metrics.gauge(
            "async_intake_depth", help="requests waiting in the tenant's intake lanes"
        )

    def queued(self) -> int:
        return len(self.intake) + self.batcher.pending_requests


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
        #: per-lane batcher queue bound
        self._pending_cap = self.queue_limit
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
                max_pending=self._pending_cap,
                clock=self.clock,
            )
            lane = self._lanes[key] = self._new_lane(model, stream, batcher)
            qos = self.registry.qos_policy(model)
            self.scheduler.register(
                key, qos.rank, qos.weight, label=_lane_label(model, stream)
            )
            if self.admission is not None:
                self.admission.register(model, qos)
        return lane

    def _new_lane(self, model: str, stream: str | None, batcher: MicroBatcher) -> _Lane:
        raise NotImplementedError

    def pending_requests(self) -> int:
        """Requests queued across every lane (admission pressure signal)."""
        return sum(lane.queued() for lane in list(self._lanes.values()))

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

    def serve(self, requests, interarrivals=None) -> RouterReport:
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
        report = RouterReport()
        demotions_before = len(self.registry.demotions)
        gaps = iter(interarrivals) if interarrivals is not None else None
        tickets: list[tuple[ServeReport, int, object]] = []
        t0 = time.perf_counter()
        for index, item in enumerate(requests):
            model, stream, y0 = _unpack_request(item)
            per = report.per_model.setdefault(model, ServeReport())
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
        report.wall_seconds = time.perf_counter() - t0
        for per, index, ticket in tickets:
            if ticket.failed:
                per.failed.append((index, str(ticket.exception)))
            else:
                per.served.append(ticket)
        with self._lock:
            lanes = list(self._lanes.values())
        for model, per in report.per_model.items():
            per.wall_seconds = report.wall_seconds
            per.exec_seconds = sum(ln.exec_seconds for ln in lanes if ln.model == model)
        report.exec_seconds = self.exec_seconds
        report.demoted = self.registry.demotions[demotions_before:]
        report.slo = self.registry.slo_report_json() or None
        return report

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

    def _new_lane(self, model: str, stream: str | None, batcher: MicroBatcher) -> _Lane:
        # the tracker is looked up per resolution, not captured: a policy
        # set (or replaced) after the lane exists still applies
        def feed_slo(ticket, model=model):
            tracker = self.registry.slo_tracker(model)
            if tracker is not None:
                tracker.record_ticket(ticket, model=model)

        batcher.on_resolve = feed_slo
        return _Lane(model, stream, batcher)

    # ------------------------------------------------------------- serving
    def submit(self, model: str, y0: np.ndarray, stream: str | None = None) -> Ticket:
        """Route one request to its ``(model, stream)`` lane; may flush a block.

        Under ``policy='qos'`` the request first passes admission control —
        a shed raises :class:`~repro.errors.ServeShedError` (a
        :class:`~repro.errors.ServeOverflowError`) before the lane sees it.
        """
        lane = self._lane(model, stream)
        self._admit(model, _request_columns(y0))
        ticket = lane.batcher.enqueue(y0)
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

    Producers ``submit(model, y0)`` from any thread into that tenant's own
    bounded intake lane and get an :class:`AsyncTicket` back immediately —
    backpressure is per lane, so one tenant's burst rejects
    (``on_full='reject'``) or blocks (``'block'``) only its own producers —
    while a single consumer worker services the lanes one block at a time
    on each tenant's warm session.  New arrivals land in the intake *while*
    a block runs, so ``max_wait_s`` is load-bearing (a partial block
    flushes once its oldest request ages past it, even when no further
    arrival ever comes) and the overlap fraction — worker-busy seconds over
    wall seconds — is published as the ``async_overlap_fraction`` gauge.

    Which lane runs next is the :class:`~repro.serve.qos.DeficitScheduler`'s
    call under ``policy='qos'`` (interactive before batch, deficit-weighted
    within a class; new arrivals re-ingested between blocks, so an
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
        # the intake lane is the serving bound; the batcher's own cap only
        # backstops it (the worker transfers then flushes, so a batcher
        # holds around one block's worth of requests)
        self._pending_cap = self.queue_limit + self.max_batch + 1
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

    def _new_lane(self, model: str, stream: str | None, batcher: MicroBatcher) -> _Lane:
        return _AsyncLane(model, stream, batcher)

    # ------------------------------------------------------------- producer
    def submit(
        self, model: str, y0: np.ndarray, stream: str | None = None
    ) -> AsyncTicket:
        """Enqueue into the ``(model, stream)`` lane; returns a future ticket.

        Thread-safe.  Shape errors surface synchronously, before the request
        occupies queue space.  A full *lane* (not the whole router) raises
        :class:`~repro.errors.ServeOverflowError` under ``'reject'`` or
        parks this producer under ``'block'`` — per-tenant (and per-stream)
        backpressure by construction.  Raises
        :class:`~repro.errors.ServeClosedError` once the router is closed,
        including producers woken from a ``'block'`` wait by shutdown.
        """
        session = self.registry.get(model)  # unknown names fail synchronously
        y0 = session.network.validate_input(np.asarray(y0))
        if y0.shape[1] < 1:
            raise ShapeError("a request needs at least one column")
        with self._lock:
            if self._closed:
                raise ServeClosedError("router is closed; request not accepted")
            lane = self._lane(model, stream)
            self._admit(model, y0.shape[1])
            if len(lane.intake) >= self.queue_limit:
                if self.on_full == "reject":
                    lane.c_rejected.inc()
                    raise ServeOverflowError(
                        f"lane {_lane_label(model, stream)!r} full "
                        f"({self.queue_limit} requests); request rejected"
                    )
                while len(lane.intake) >= self.queue_limit and not self._closed:
                    self._space.wait()
                if self._closed:
                    raise ServeClosedError("router closed while waiting for lane space")
            ticket = AsyncTicket(y0, self.clock(), index=lane.accepted)
            lane.accepted += 1
            lane.intake.append(ticket)
            lane.g_intake.inc()
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
        """Earliest max-wait deadline across lanes (lock held)."""
        due = None
        for lane in self._lanes.values():
            d = lane.batcher.seconds_until_due()
            if d is not None and (due is None or d < due):
                due = d
        return due

    def _grab_locked(self) -> list[tuple[_AsyncLane, list[AsyncTicket]]]:
        """Take every lane's intake (lock held by the caller)."""
        grabbed: list[tuple[_AsyncLane, list[AsyncTicket]]] = []
        for lane in self._lanes.values():
            if lane.intake:
                items = list(lane.intake)
                lane.intake.clear()
                lane.g_intake.dec(len(items))
                grabbed.append((lane, items))
        if grabbed:
            self._space.notify_all()
        return grabbed

    def _ingest(self, grabbed) -> None:
        """Move grabbed tickets into their lanes' batchers (worker thread).

        Enqueue-only: which blocks form is decided afterwards by the
        scheduler, one flush at a time.  Moving every ticket before any
        flush does not change packing — a block is always the longest FIFO
        prefix of its own lane that fits ``max_batch``, regardless of how
        many enqueues happened since the last flush.
        """
        now = self.clock()
        for lane, items in grabbed:
            for ticket in items:
                ticket.dequeued_at = now
                try:
                    ticket.inner = lane.batcher.enqueue(ticket.y0)
                except Exception as exc:
                    # cannot happen for validated requests under the
                    # sized batcher cap, but an accepted ticket must
                    # still resolve
                    ticket._resolve(self.clock(), error=exc)
                    continue
                lane.inflight.append(ticket)

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while (
                    not any(lane.intake for lane in self._lanes.values())
                    and not self._closed
                ):
                    due = self._due()
                    if due is not None and due <= 0:
                        break
                    self._arrived.wait(timeout=due)
                grabbed = self._grab_locked()
                closing = self._closed and not grabbed
                abort = self._abort
            if abort:
                self._abort_pending(grabbed)
                return
            self._ingest(grabbed)
            # service: one block per scheduler pick, re-grabbing new
            # arrivals between blocks so an interactive burst preempts a
            # bulk backlog at block granularity instead of waiting out a
            # whole registration-order sweep
            while True:
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
                    grabbed = self._grab_locked()
                    abort = self._abort
                if abort:
                    self._abort_pending(grabbed)
                    return
                self._ingest(grabbed)
            if closing:
                with self._lock:
                    abort = self._abort
                if abort:
                    self._abort_pending([])
                return

    def _run_guarded(self, lane: _AsyncLane, reason: str) -> None:
        """Execute one block of ``lane``, then enforce the byte budget."""
        try:
            ran = bool(self._flush(lane, reason))
        except Exception:
            # the batcher routed the exception to the failing block's
            # tickets before re-raising; _sweep hands it to producers
            ran = True
        self._sweep(lane)
        if ran:
            self.registry.touch(lane.model)
            self.registry.enforce(protect={lane.model})

    def _sweep(self, lane: _AsyncLane) -> None:
        """Resolve the lane's inflight prefix whose inner tickets are done.

        Blocks always pack the FIFO prefix of the lane's pending queue, so
        done-ness is prefix-closed over ``inflight``.
        """
        now = self.clock()
        tracker = self.registry.slo_tracker(lane.model)
        while lane.inflight and lane.inflight[0].inner.done:
            ticket = lane.inflight.popleft()
            ticket._resolve(now, error=ticket.inner.error)
            # SLO accounting uses the outer ticket: its latency includes
            # the intake wait the inner (batcher) ticket cannot see
            if tracker is not None:
                try:
                    tracker.record_ticket(ticket, model=lane.model)
                except Exception:  # pragma: no cover - obs must not kill the worker
                    pass
        self._g_overlap.set(self.overlap_fraction)

    def _abort_pending(self, grabbed) -> None:
        """Fail everything unfinished across every lane."""
        now = self.clock()
        error = ServeClosedError("router aborted before this request executed")

        def fail(lane: _AsyncLane, tickets) -> None:
            for ticket in tickets:
                ticket._resolve(now, error=error)
                lane.c_failed.inc()

        for lane, items in grabbed:
            self._sweep(lane)
            fail(lane, items)
        with self._lock:
            leftovers = []
            for lane in self._lanes.values():
                self._sweep(lane)
                fail(lane, lane.inflight)
                lane.inflight.clear()
                lane.g_intake.dec(len(lane.intake))
                leftovers.append((lane, list(lane.intake)))
                lane.intake.clear()
            self._space.notify_all()
        for lane, items in leftovers:
            fail(lane, items)

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
