"""Sliding-window quantile estimation for live tail-latency telemetry.

The pooled quantiles :meth:`~repro.serve.router.ServeReport.latency_quantiles`
computes are end-of-run numbers — useless to an SLO controller that needs
"what is p99 *right now*".  :class:`SlidingWindow` gives the streaming
answer: a ring of bucketed sub-windows, each covering ``window_s / slots``
seconds, rotated lazily on observe/scrape.  A scrape merges the live slots'
bucket counts and interpolates the requested quantiles, so the estimate
covers between ``(slots-1)/slots`` and the full window of history and
forgets old traffic in whole-slot steps (staleness <= one slot width).

Accuracy is bounded by bucket geometry, not sample count: with the default
geometric buckets (ratio :data:`WINDOW_BUCKET_RATIO`) an estimated quantile
lies in the same bucket as the exact sample quantile, i.e. within one bucket
ratio of it — ~19 % relative error worst case, far below the decade-scale
swings a tail-latency alarm cares about.  Exact per-window breach counting
against a fixed ``target`` (for SLO error budgets) rides on the same slots,
as does the window's *exemplar*: the slowest observation and the opaque tag
(trace span ids, latency breakdown) its caller attached, which is what makes
a p99 spike attributable instead of just visible.

Everything is thread-safe behind one lock per window, matching the rest of
:mod:`repro.obs.metrics`; registries hand windows out via
``registry.window(...)`` and expose them as Prometheus ``summary`` series.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Sequence

__all__ = [
    "SlidingWindow",
    "geometric_buckets",
    "WINDOW_BUCKETS",
    "WINDOW_BUCKET_RATIO",
    "DEFAULT_QUANTILES",
]

#: geometric growth factor of the default bucket edges; the worst-case
#: relative error of a quantile estimate is bounded by ``ratio - 1``
WINDOW_BUCKET_RATIO = 2 ** 0.25

#: quantiles every window reports by default (the SLO trio)
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def geometric_buckets(
    lo: float = 1e-5, hi: float = 60.0, ratio: float = WINDOW_BUCKET_RATIO
) -> tuple[float, ...]:
    """Geometric bucket upper bounds from ``lo`` to at least ``hi``.

    Geometric spacing bounds the *relative* quantile error by ``ratio - 1``
    uniformly across the range — microsecond kernels and multi-second stalls
    are estimated equally well, which linear buckets cannot do.
    """
    if lo <= 0 or hi <= lo or ratio <= 1:
        from repro.errors import ConfigError

        raise ConfigError(
            f"geometric buckets need 0 < lo < hi and ratio > 1, "
            f"got lo={lo}, hi={hi}, ratio={ratio}"
        )
    edges = [lo]
    while edges[-1] < hi:
        edges.append(edges[-1] * ratio)
    return tuple(edges)


#: default edges: 10 us .. ~60 s, ~19 % worst-case relative quantile error
WINDOW_BUCKETS = geometric_buckets()


class _Slot:
    """One sub-window of the ring: bucket counts plus slot-local extrema."""

    __slots__ = ("index", "counts", "count", "sum", "over_target",
                 "columns", "max_value", "min_value", "exemplar")

    def __init__(self, n_buckets: int):
        self.counts = [0] * (n_buckets + 1)  # +1 for +Inf
        self._reset(-1)

    def _reset(self, index: int) -> None:
        self.index = index
        for i in range(len(self.counts)):
            self.counts[i] = 0
        self.count = 0
        self.sum = 0.0
        self.over_target = 0
        self.columns = 0.0
        self.max_value = float("-inf")
        self.min_value = float("inf")
        self.exemplar: dict[str, Any] | None = None


class SlidingWindow:
    """Streaming quantiles over the last ``window_s`` seconds.

    Parameters
    ----------
    window_s:
        Span of history a scrape covers (the estimator forgets older
        observations in whole sub-window steps).
    slots:
        Number of sub-windows in the ring; staleness granularity is
        ``window_s / slots``.  More slots means smoother forgetting at the
        cost of ``slots * len(buckets)`` integers of state.
    buckets:
        Bucket upper bounds shared by every slot (an implicit ``+Inf``
        bucket catches the rest).  Geometric by default; see
        :func:`geometric_buckets` for the error bound.
    quantiles:
        The quantiles :meth:`expose` reports.
    target:
        Optional breach threshold: observations strictly above it are
        counted exactly per slot (``over_target``), which is what SLO error
        budgets burn against — no bucket approximation on the budget path.
    clock:
        Time source (monotonic by default); injectable for deterministic
        rotation tests.
    """

    __slots__ = ("window_s", "slots", "buckets", "quantiles", "target",
                 "clock", "_slot_width", "_ring", "_lock")
    kind = "summary"

    def __init__(
        self,
        window_s: float = 60.0,
        slots: int = 12,
        buckets: Sequence[float] = WINDOW_BUCKETS,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        target: float | None = None,
        clock=time.monotonic,
    ):
        if window_s <= 0 or slots < 1:
            from repro.errors import ConfigError

            raise ConfigError(
                f"a sliding window needs window_s > 0 and slots >= 1, "
                f"got window_s={window_s}, slots={slots}"
            )
        self.window_s = float(window_s)
        self.slots = int(slots)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            from repro.errors import ConfigError

            raise ConfigError("a sliding window needs at least one bucket bound")
        self.quantiles = tuple(float(q) for q in quantiles)
        self.target = None if target is None else float(target)
        self.clock = clock
        self._slot_width = self.window_s / self.slots
        self._ring = [_Slot(len(self.buckets)) for _ in range(self.slots)]
        self._lock = threading.Lock()

    # ------------------------------------------------------------- recording
    def _slot_at(self, now: float) -> _Slot:
        """The slot owning ``now``, reset if it still holds stale history."""
        index = int(now / self._slot_width)
        slot = self._ring[index % self.slots]
        if slot.index != index:
            slot._reset(index)
        return slot

    def observe(
        self,
        value: float,
        columns: float = 0.0,
        exemplar: dict[str, Any] | None = None,
    ) -> None:
        """Record one observation (thread-safe).

        ``columns`` accumulates a throughput-side weight (served columns)
        alongside the latency sample; ``exemplar`` is an opaque tag kept
        only while this observation is the slot's maximum — the window's
        exemplar at scrape time is the slowest live observation's tag.
        """
        value = float(value)
        with self._lock:
            slot = self._slot_at(self.clock())
            slot.count += 1
            slot.sum += value
            slot.columns += float(columns)
            if self.target is not None and value > self.target:
                slot.over_target += 1
            if value > slot.max_value:
                slot.max_value = value
                slot.exemplar = exemplar
            if value < slot.min_value:
                slot.min_value = value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    slot.counts[i] += 1
                    return
            slot.counts[-1] += 1

    # -------------------------------------------------------------- scraping
    def _live_slots(self, now: float) -> list[_Slot]:
        floor = int(now / self._slot_width) - self.slots + 1
        return [s for s in self._ring if s.index >= floor and s.count > 0]

    def _quantile_from_counts(
        self, counts: list[int], total: int, q: float,
        lo_clamp: float, hi_clamp: float,
    ) -> float:
        """Interpolated quantile from merged cumulative-able bucket counts.

        The rank is located in its bucket and linearly interpolated between
        the bucket's edges; the first bucket interpolates from the window
        minimum and the ``+Inf`` bucket from the last edge to the window
        maximum, so estimates never leave the observed value range.
        """
        rank = q * (total - 1)
        running = 0
        for i, n in enumerate(counts):
            if n == 0:
                continue
            if running + n > rank:
                frac = (rank - running + 1.0) / n
                lower = lo_clamp if i == 0 else self.buckets[i - 1]
                upper = hi_clamp if i == len(self.buckets) else self.buckets[i]
                upper = min(upper, hi_clamp)
                lower = max(min(lower, upper), lo_clamp)
                return lower + (upper - lower) * min(frac, 1.0)
            running += n
        return hi_clamp

    def snapshot(self) -> dict[str, Any]:
        """Merged live-slot view: quantiles, extrema, breaches, exemplar."""
        with self._lock:
            now = self.clock()
            live = self._live_slots(now)
            count = sum(s.count for s in live)
            if count == 0:
                return {
                    "window_seconds": self.window_s,
                    "count": 0,
                    "sum": 0.0,
                    "columns": 0.0,
                    "over_target": 0 if self.target is not None else None,
                    "quantiles": {},
                    "min": None,
                    "max": None,
                    "exemplar": None,
                }
            merged = [0] * (len(self.buckets) + 1)
            for slot in live:
                for i, n in enumerate(slot.counts):
                    merged[i] += n
            lo = min(s.min_value for s in live)
            hi = max(s.max_value for s in live)
            slowest = max(live, key=lambda s: s.max_value)
            return {
                "window_seconds": self.window_s,
                "count": count,
                "sum": sum(s.sum for s in live),
                "columns": sum(s.columns for s in live),
                "over_target": (
                    sum(s.over_target for s in live)
                    if self.target is not None
                    else None
                ),
                "quantiles": {
                    f"p{q * 100:g}": self._quantile_from_counts(
                        merged, count, q, lo, hi
                    )
                    for q in self.quantiles
                },
                "min": lo,
                "max": hi,
                "exemplar": slowest.exemplar,
            }

    def quantile(self, q: float) -> float | None:
        """One interpolated quantile of the live window (None when empty)."""
        with self._lock:
            now = self.clock()
            live = self._live_slots(now)
            count = sum(s.count for s in live)
            if count == 0:
                return None
            merged = [0] * (len(self.buckets) + 1)
            for slot in live:
                for i, n in enumerate(slot.counts):
                    merged[i] += n
            lo = min(s.min_value for s in live)
            hi = max(s.max_value for s in live)
            return self._quantile_from_counts(merged, count, float(q), lo, hi)

    @property
    def count(self) -> int:
        """Live observations in the window right now."""
        with self._lock:
            return sum(s.count for s in self._live_slots(self.clock()))

    def expose(self) -> dict[str, Any]:
        """The registry-facing export (:meth:`MetricsRegistry.snapshot`)."""
        return self.snapshot()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlidingWindow(window_s={self.window_s}, slots={self.slots}, "
            f"count={self.count})"
        )
