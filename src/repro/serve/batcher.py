"""Micro-batching: pack small requests into SNICIT-sized blocks.

SNICIT's compression stages amortize over the batch dimension — a lone
request of a few columns pays the full per-layer launch overhead that a
well-packed block shares across hundreds of columns.  :class:`MicroBatcher`
queues incoming requests, packs them into blocks of at most ``max_batch``
columns, runs each block through a warm :class:`~repro.serve.session.
EngineSession`, and splits the output back per request.

The batcher is explicitly clocked: ``submit`` flushes as soon as a full
block is pending, ``poll`` flushes when the oldest request has waited
``max_wait_s`` (callers drive it from their loop), and ``drain`` flushes
everything.  The pending queue is bounded: past ``max_pending`` requests,
``submit`` raises :class:`~repro.errors.ServeOverflowError` — rejected with
an error, never dropped silently.  The queue is the lane's only queue on
both router transports: producers may :meth:`~MicroBatcher.enqueue` from
any thread while one thread flushes, because the pending deque, its column
count and its gauges change only under the batcher's lock (the engine runs
outside it).  A :class:`Ticket` is the only request handle, in-process and
across the fleet's process boundary; it resolves exactly once and can be
waited on from another thread.

Packing is strictly FIFO: a block takes the longest *prefix* of the queue
that fits in ``max_batch`` columns, never skipping ahead to a narrower
request further back.  That is a deliberate head-of-line trade — reordering
would fill blocks better but break arrival-order latency fairness and make
per-request latency depend on *other* tenants' request widths.  The cost is
observable instead of hidden: when a block flushes under-filled while work
is still queued (the head did not fit), the batcher counts a ``hol_stall``
and the columns left empty, per tenant.
"""

from __future__ import annotations

import threading
import time
from collections import deque

import numpy as np

from repro.errors import ServeClosedError, ServeOverflowError, ShapeError
from repro.inference import InferenceResult, sdgc_categories
from repro.serve.session import EngineSession

__all__ = ["MicroBatcher", "Ticket", "validate_request"]

#: :attr:`MicroBatcher.counters` key -> help of its ``serve_<key>_total`` series
_COUNTS = {
    "requests": "requests accepted into the pending queue",
    "rejected": "requests rejected on queue overflow",
    "failed": "requests whose block raised during execution",
    "batches": "blocks flushed to the engine session",
    "batched_columns": "columns packed into flushed blocks",
    "wait_flushes": "latency-deadline flushes (one per poll or per lane-scheduler pick)",
    "hol_stalls": "under-filled blocks flushed because the FIFO head did not fit",
    "hol_underfill_columns": "block columns left empty by FIFO head-of-line packing",
    "timer_underfills": "under-filled blocks flushed on the latency deadline",
    "timer_underfill_columns": "block columns left empty on latency-deadline flushes "
                               "(the head arrived late; nothing was refused)",
}


def validate_request(session: EngineSession, y0) -> np.ndarray:
    """``y0`` as ``session`` takes it: ``(input_dim, k)`` with ``k >= 1``."""
    y0 = session.network.validate_input(np.asarray(y0))
    if y0.shape[1] < 1:
        raise ShapeError("a request needs at least one column")
    return y0


class Ticket:
    """Handle for one submitted request; resolves exactly once.

    It resolves with its slice of the block output, with the exception that
    killed its block, or with :class:`~repro.errors.ServeClosedError` when
    an async router aborts before the request ran.  :meth:`wait` blocks
    another thread until then.

    The fleet dispatcher resolves the same class from a worker's result
    message, which carries the block fields the batcher fills here — all
    but ``result``, the block's InferenceResult, which stays in the worker.
    Only ``worker``, ``stream`` and ``index`` are fleet-specific.
    """

    __slots__ = (
        "y0", "submitted_at", "completed_at", "batch_columns", "result", "_y", "aid",
        "error", "packed_at", "block_id", "execute_seconds", "stage_seconds",
        "worker", "stream", "index", "_done", "_resolutions",
    )

    def __init__(self, y0: np.ndarray, submitted_at: float, aid: int = 0):
        self.y0 = y0
        self.submitted_at = submitted_at
        self.completed_at: float | None = None
        #: total columns of the packed block this request rode in
        self.batch_columns: int | None = None
        #: the shared InferenceResult of that block
        self.result: InferenceResult | None = None
        self._y: np.ndarray | None = None
        #: async-trace id correlating this request's submit/resolve events
        self.aid = aid
        #: the exception that killed this request's block, if its run failed
        self.error: BaseException | None = None
        #: when this request was packed into a block (batch wait ends here)
        self.packed_at: float | None = None
        #: 1-based id of the block it rode in (matches the block's span args)
        self.block_id: int | None = None
        #: wall seconds the block spent inside ``session.run``
        self.execute_seconds: float | None = None
        #: the block's per-pipeline-stage seconds (shared across its tickets)
        self.stage_seconds: dict | None = None
        #: fleet only: the resolving worker slot, the stream, and the
        #: request's 0-based submit order within its lane
        self.worker: int | None = None
        self.stream: str | None = None
        self.index: int | None = None
        self._done = threading.Event()
        #: times this ticket was resolved (the invariant is exactly once)
        self._resolutions = 0

    @property
    def columns(self) -> int:
        return self.y0.shape[1]

    @property
    def done(self) -> bool:
        """Resolved either way: output available or the request failed."""
        return self._done.is_set()

    @property
    def ready(self) -> bool:
        return self.done and self.error is None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def wait(self, timeout: float | None = None) -> bool:
        """Block until resolved (or ``timeout`` seconds); True when done."""
        return self._done.wait(timeout)

    @property
    def y(self) -> np.ndarray:
        """This request's slice of the block output ``Y(l)``."""
        if self.error is not None:
            raise self.error
        if not self.done:
            raise ServeOverflowError(
                "ticket not resolved yet; flush or drain the batcher, or wait() on it"
            )
        return self._y

    @property
    def categories(self) -> np.ndarray:
        return sdgc_categories(self.y)

    @property
    def latency_seconds(self) -> float:
        if self.completed_at is None:
            raise ServeOverflowError("ticket not resolved yet; flush or drain the batcher")
        return self.completed_at - self.submitted_at

    def breakdown(self) -> dict:
        """Where this request's latency went (tail-latency attribution).

        ``batch_wait_seconds`` is the time from submit until a block packed
        the request — every queueing delay, on either transport.
        ``execute_seconds`` is the block's engine time, and ``stage_seconds``
        splits that by pipeline stage.
        """
        out: dict = {
            "batch_wait_seconds": (
                self.packed_at - self.submitted_at
                if self.packed_at is not None else None
            ),
            "execute_seconds": self.execute_seconds,
            "block_id": self.block_id,
            "batch_columns": self.batch_columns,
        }
        if self.stage_seconds is not None:
            out["stage_seconds"] = dict(self.stage_seconds)
        return out

    def _resolve(self, now: float, error: BaseException | None = None) -> None:
        """Record the outcome; must fire exactly once per ticket.

        Waiters wake later, once the batcher has published the block's
        telemetry (:meth:`MicroBatcher._settle`).
        """
        self._resolutions += 1
        if self._resolutions > 1:  # pragma: no cover - guarded invariant
            raise ServeClosedError(
                f"request {self.aid} resolved {self._resolutions} times"
            )
        self.error = error
        self.completed_at = now


class MicroBatcher:
    """Bounded request packer in front of an engine session.

    Its counts live only in the session's registry view (``serve_*_total``);
    :attr:`counters`, :attr:`reuse_outcomes` and :meth:`stats` read them
    back.  ``stream`` names a tenant's non-default lane, whose counters add
    ``stream=<id>`` so each lane reads only its own blocks.
    """

    def __init__(
        self,
        session: EngineSession,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        max_pending: int = 1024,
        clock=time.monotonic,
        stream: str | None = None,
    ):
        if max_batch < 1:
            raise ShapeError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ShapeError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if max_pending < 1:
            raise ShapeError(f"max_pending must be >= 1, got {max_pending}")
        self.session = session
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.max_pending = int(max_pending)
        self.clock = clock
        self._pending: deque[Ticket] = deque()
        self._pending_cols = 0
        #: guards the pending deque, its column count and the queue gauges
        self._lock = threading.Lock()
        self._next_aid = 0
        self._next_block = 0
        # serving telemetry rides on the session's registry/tracer so one
        # scrape (or one trace file) covers queue, blocks, and kernels; a
        # named session hands back its per-tenant labeled view, so two
        # batchers over one registry stay separable per model
        self.tracer = session.tracer
        tenant = getattr(session, "scoped", session.metrics)
        # the counters are this lane's own store (``counters`` reads them
        # back), so a tenant's non-default stream lanes add ``stream=<id>``
        lane = tenant if stream is None else tenant.labeled(stream=stream)
        self._lane_metrics = lane
        self._c = {
            key: lane.counter(f"serve_{key}_total", help=text) for key, text in _COUNTS.items()
        }
        # a tenant's stream lanes share these two series, so every lane
        # moves them by inc/dec and the sum stays right
        self._g_queue_depth = tenant.gauge(
            "serve_queue_depth", help="requests currently pending in the tenant's lanes"
        )
        self._g_queue_columns = tenant.gauge(
            "serve_queue_columns", help="columns currently pending in the tenant's lanes"
        )
        self._fill_buckets = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
        self._tenant_metrics = tenant
        # streaming tail view: per-request latency over the last minute, so
        # a scrape reads "p99 right now" instead of a lifetime histogram
        self._w_latency = tenant.window(
            "serve_latency_seconds",
            help="sliding-window submit-to-resolve latency per request",
        )
        self._h_fill: dict[str, object] = {}
        #: outcome ('hit' / 'cold' / 'stale') -> ``serve_reuse_blocks_total``
        #: counter, bound on the first block with that outcome
        self._c_reuse_blocks: dict[str, object] = {}
        #: optional per-ticket resolution hook (SLO trackers subscribe here);
        #: called with each resolved ticket, failures included.  Guarded —
        #: observability must never take the serving path down.
        self.on_resolve = None

    @property
    def counters(self) -> dict[str, int]:
        """Packing counts, read back from the lane's registry series."""
        return {key: int(c.value) for key, c in self._c.items()}

    @property
    def reuse_outcomes(self) -> dict[str, int]:
        """Blocks per centroid-reuse outcome ('hit' / 'cold' / 'stale');
        empty unless the session's engine carries a CentroidCache."""
        # list(): the worker may bind a new outcome while another thread reads
        return {o: int(c.value) for o, c in list(self._c_reuse_blocks.items())}

    # --------------------------------------------------------------- queue
    @property
    def pending_requests(self) -> int:
        return len(self._pending)

    @property
    def pending_columns(self) -> int:
        return self._pending_cols

    def submit(self, y0: np.ndarray) -> Ticket:
        """Queue one request of shape ``(input_dim, k)``; may flush a block.

        Raises :class:`~repro.errors.ServeOverflowError` when the pending
        queue is full — the caller decides whether to retry, shed load, or
        surface the error to the client.
        """
        ticket = self.enqueue(validate_request(self.session, y0))
        self.flush_full()
        return ticket

    def enqueue(self, y0: np.ndarray) -> Ticket:
        """:meth:`submit` minus validation and flush: queue, never run.

        ``y0`` must already have passed :func:`validate_request`.  Safe from
        any thread; the ticket's clock (``max_wait_s``, latency) starts here.
        """
        with self._lock:
            if len(self._pending) >= self.max_pending:
                self._c["rejected"].inc()
                raise ServeOverflowError(
                    f"pending queue full ({self.max_pending} requests); request rejected"
                )
            self._next_aid += 1
            ticket = Ticket(y0, self.clock(), aid=self._next_aid)
            self._pending.append(ticket)
            self._pending_cols += ticket.columns
            self._c["requests"].inc()
            self._g_queue_depth.inc()
            self._g_queue_columns.inc(ticket.columns)
        self.tracer.begin_async("request", ticket.aid, columns=ticket.columns)
        return ticket

    # ------------------------------------------------------------ flushing
    def flush_full(self) -> int:
        """Run blocks while a full ``max_batch`` of columns is pending."""
        n = 0
        while self._pending_cols >= self.max_batch:
            self._flush_batch(reason="full")
            n += 1
        return n

    def flush_one(self, reason: str = "full") -> int:
        """Run exactly one block; returns the columns it carried (0 if idle).

        The QoS lane scheduler flushes one block per pick so a
        higher-priority lane can preempt between blocks; ``reason`` labels
        the fill histogram exactly as :meth:`poll`/:meth:`drain` would.
        A ``'wait'`` flush counts toward ``wait_flushes`` per block.
        """
        if not self._pending:
            return 0
        if reason == "wait":
            self._c["wait_flushes"].inc()
        return self._flush_batch(reason=reason)

    def seconds_until_due(self) -> float | None:
        """Seconds until the oldest pending request ages past ``max_wait_s``.

        ``None`` with nothing pending; zero or negative once a :meth:`poll`
        would flush.  The async worker sleeps at most this long between
        arrivals so the max-wait deadline holds without busy-polling.
        """
        with self._lock:
            if not self._pending:
                return None
            head = self._pending[0].submitted_at
        return self.max_wait_s - (self.clock() - head)

    def poll(self) -> int:
        """Flush everything once the oldest request has waited long enough.

        Returns the number of blocks run.  Callers embed this in their
        serving loop; with a fake clock it is the max-wait unit test hook.
        """
        due = self.seconds_until_due()
        if due is None or due > 0:
            return 0
        self._c["wait_flushes"].inc()
        return self._drain(reason="wait")

    def drain(self) -> int:
        """Flush every pending request; returns the number of blocks run."""
        return self._drain(reason="drain")

    def _drain(self, reason: str) -> int:
        n = 0
        while self._pending:
            self._flush_batch(reason=reason)
            n += 1
        return n

    def _flush_batch(self, reason: str = "full") -> int:
        """Pack and run one block of at most ``max_batch`` columns.

        Returns the columns it carried.  Always takes at least one request,
        so a single request wider than ``max_batch`` still runs (alone, as
        its own block).  ``reason`` is why the block flushed ('full',
        'wait', or 'drain') and labels the occupancy histogram — a fleet of
        'wait' flushes at low fill means the batcher is starved, 'full' at
        fill 1.0 means it is saturated.

        Packing takes the FIFO *prefix* that fits and stops at the first
        request that does not — it never searches past the head for a
        narrower request that would.  The forgone fill is head-of-line
        blocking, accepted for arrival-order fairness; each occurrence is
        counted (``hol_stalls``, ``hol_underfill_columns``) so mixed-width
        traffic can see what FIFO costs it.
        """
        tracer = self.tracer
        # every block gets its own id, failed ones included (``batches``
        # counts only the blocks served)
        self._next_block += 1
        block_id = self._next_block
        with tracer.span(
            "batch.pack", cat="serve", reason=reason, block_id=block_id
        ) as pack_span:
            with self._lock:
                take: list[Ticket] = [self._pending.popleft()]
                cols = take[0].columns
                while self._pending and cols + self._pending[0].columns <= self.max_batch:
                    ticket = self._pending.popleft()
                    take.append(ticket)
                    cols += ticket.columns
                self._pending_cols -= cols
                self._g_queue_depth.dec(len(take))
                self._g_queue_columns.dec(cols)
                queued = bool(self._pending)
            packed_at = self.clock()
            for ticket in take:
                ticket.packed_at = packed_at
                ticket.block_id = block_id
            underfill = self.max_batch - cols
            if queued and underfill > 0:
                # under-filled with work still queued: the head refused to
                # fit, and that — and only that — is a head-of-line stall.
                # An under-filled deadline flush with an empty queue is the
                # head arriving late, not FIFO refusing anyone.
                self._c["hol_stalls"].inc()
                self._c["hol_underfill_columns"].inc(underfill)
                pack_span.set(hol_underfill=underfill)
            elif reason == "wait" and underfill > 0:
                # latency-flush underfill: the timer fired before traffic
                # filled the block — tracked separately so sparse traffic
                # does not inflate serve_hol_stalls_total
                self._c["timer_underfills"].inc()
                self._c["timer_underfill_columns"].inc(underfill)
                pack_span.set(timer_underfill=underfill)
            block = take[0].y0 if len(take) == 1 else np.hstack([t.y0 for t in take])
            pack_span.set(requests=len(take), columns=cols)
        with tracer.span(
            "batch.execute", cat="serve", reason=reason, requests=len(take),
            columns=cols, block_id=block_id,
        ) as exec_span:
            exec_t0 = time.perf_counter()
            try:
                result = self.session.run(block)
            except Exception as exc:
                # the block died: its requests are already off the queue, so
                # route the failure to exactly these tickets and leave the
                # batcher serviceable for the next block
                execute_seconds = time.perf_counter() - exec_t0
                for ticket in take:
                    ticket.execute_seconds = execute_seconds
                self._fail(take, exc, reason=reason)
                raise
            execute_seconds = time.perf_counter() - exec_t0
            reuse_info = result.stats.get("centroid_reuse") if result.stats else None
            if reuse_info is not None:
                outcome = "hit" if reuse_info.get("hit") else reuse_info.get("reason", "miss")
                counter = self._c_reuse_blocks.get(outcome)
                if counter is None:
                    counter = self._c_reuse_blocks[outcome] = self._lane_metrics.counter(
                        "serve_reuse_blocks_total",
                        help="blocks served by centroid-reuse outcome",
                        outcome=outcome,
                    )
                counter.inc()
                exec_span.set(centroid_reuse=outcome)
        with tracer.span("batch.resolve", cat="serve", requests=len(take)):
            now = self.clock()
            lo = 0
            for ticket in take:
                hi = lo + ticket.columns
                ticket._y = result.y[:, lo:hi]
                ticket.result = result
                ticket.batch_columns = cols
                ticket.execute_seconds = execute_seconds
                ticket.stage_seconds = result.stage_seconds
                ticket._resolve(now)
                tracer.end_async(
                    "request", ticket.aid, batch_columns=cols, reason=reason
                )
                lo = hi
        self._c["batches"].inc()
        self._c["batched_columns"].inc(cols)
        fill_hist = self._h_fill.get(reason)
        if fill_hist is None:
            fill_hist = self._h_fill[reason] = self._tenant_metrics.histogram(
                "serve_batch_fill",
                buckets=self._fill_buckets,
                help="block occupancy as a fraction of max_batch, per flush reason",
                reason=reason,
            )
        fill_hist.observe(cols / self.max_batch)
        for ticket in take:
            self._w_latency.observe(
                ticket.latency_seconds,
                columns=ticket.columns,
                exemplar={
                    "request_aid": ticket.aid,
                    "block_id": block_id,
                    "latency_seconds": ticket.latency_seconds,
                    "breakdown": ticket.breakdown(),
                },
            )
        self._settle(take)
        return cols

    def fail_pending(self, error: BaseException) -> int:
        """Resolve every pending request with ``error``; returns how many.

        The async router's abort: requests that never reached a block fail,
        counted in ``serve_failed_total`` like a failed block, instead of
        hanging.
        """
        with self._lock:
            take = list(self._pending)
            self._pending.clear()
            self._g_queue_depth.dec(len(take))
            self._g_queue_columns.dec(self._pending_cols)
            self._pending_cols = 0
        self._fail(take, error, reason="abort")
        return len(take)

    def _fail(self, tickets: list[Ticket], error: BaseException, reason: str) -> None:
        now = self.clock()
        for ticket in tickets:
            ticket._resolve(now, error=error)
            self.tracer.end_async(
                "request", ticket.aid, error=type(error).__name__, reason=reason
            )
        self._c["failed"].inc(len(tickets))
        self._settle(tickets)

    def _settle(self, tickets: list[Ticket]) -> None:
        """Hand resolved tickets to the SLO hook (guarded), then wake waiters.

        Waking last means a thread that saw ``wait()`` return also sees the
        block's counters, window sample and SLO record.
        """
        if self.on_resolve is not None:
            for ticket in tickets:
                try:
                    self.on_resolve(ticket)
                except Exception:  # pragma: no cover - observability must not break serving
                    pass
        for ticket in tickets:
            ticket._done.set()

    # ------------------------------------------------------------- metrics
    def stats(self) -> dict:
        """Packing counters plus the mean block fill against ``max_batch``."""
        counters = self.counters
        batches = counters["batches"]
        mean_fill = (
            counters["batched_columns"] / (batches * self.max_batch)
            if batches
            else 0.0
        )
        out = {
            **counters,
            "pending_requests": self.pending_requests,
            "pending_columns": self.pending_columns,
            "max_batch": self.max_batch,
            "mean_fill": mean_fill,
        }
        reuse_outcomes = self.reuse_outcomes
        if reuse_outcomes:
            out["reuse_blocks"] = reuse_outcomes
        return out
