"""Counters, gauges, and histograms with Prometheus-style exposition.

A :class:`MetricsRegistry` is the process-local home for serving and engine
telemetry: queue depths, batch occupancy, strategy decisions, buffer-pool
hit rates.  Metric objects are cheap mutable cells — hot paths bind them
once (``registry.counter(...)`` is get-or-create) and increment without any
lookup afterwards.  Two exports:

* :meth:`MetricsRegistry.to_prometheus` — the text exposition format, so a
  scrape endpoint or a CI artifact is one ``write_text`` away;
* :meth:`MetricsRegistry.snapshot` — a JSON-safe dict, embedded verbatim in
  ``BENCH_serve.json`` by :func:`repro.serve.bench.bench_serve`.

The registry is the only store of every serving and engine count: each
owner binds its series at construction and reads them back for ``stats()``.
State an owner keeps anyway (``CentroidCache``'s entry count, the budget
ledger) is published at scrape time by collect callbacks
(:meth:`MetricsRegistry.on_collect`) instead of per-event updates.

Everything here is thread-safe: the async serving transport updates the
same registry from producer threads and the consumer worker, so every
metric mutation (``inc``/``set``/``observe``) holds a per-metric lock —
``value += amount`` is three bytecodes and *does* lose updates under
contention without one — and the registry serializes get-or-create and
exports behind an RLock (collect callbacks re-enter it).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable

from repro.obs.export import json_safe
from repro.obs.window import DEFAULT_QUANTILES, WINDOW_BUCKETS, SlidingWindow

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LabeledRegistry",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets: latencies/fills in serving land between 1e-4
#: and ~10 in whatever unit the caller observes (seconds or a ratio).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonically increasing value; safe to ``inc`` from any thread."""

    __slots__ = ("value", "_lock")
    kind = "counter"

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            from repro.errors import ConfigError

            raise ConfigError(f"counters only go up; got inc({amount})")
        with self._lock:
            self.value += amount

    def expose(self) -> float:
        return self.value


class Gauge:
    """Point-in-time value; ``set_max`` tracks a high-water mark."""

    __slots__ = ("value", "_lock")
    kind = "gauge"

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def set_max(self, value: float) -> None:
        with self._lock:
            if value > self.value:
                self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def expose(self) -> float:
        return self.value


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  ``observe`` is O(len(buckets)) — fine for per-batch events, do
    not put it on a per-element path.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "_lock")
    kind = "histogram"

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            from repro.errors import ConfigError

            raise ConfigError("a histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.sum += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    def cumulative(self) -> list[tuple[str, int]]:
        """(le, cumulative count) pairs, ending with ('+Inf', count)."""
        out, running = [], 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((format(bound, "g"), running))
        out.append(("+Inf", self.count))
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def expose(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "buckets": {le: n for le, n in self.cumulative()},
        }


def _label_key(labels: dict[str, str]) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, double-quote, newline.

    Tenant names come from user CLI input (``--model NAME=BENCH``), so a
    quote or newline in a name must not corrupt the exposition.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Prometheus HELP escaping: backslash and newline only."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_text(key: tuple) -> str:
    if not key:
        return ""
    return "{" + ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in key) + "}"


class MetricsRegistry:
    """Get-or-create registry of named metric series.

    A series is ``(name, labels)``; all series of one name share a kind and
    help string.  Asking for an existing name with a different kind is a
    :class:`~repro.errors.ConfigError` — a name means one thing.
    """

    def __init__(self):
        self._series: dict[
            tuple[str, tuple], Counter | Gauge | Histogram | SlidingWindow
        ] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._collectors: list[Callable[[MetricsRegistry], None]] = []
        # RLock: collect callbacks run under it and themselves call
        # counter()/gauge() to publish, re-entering the registry
        self._lock = threading.RLock()

    # ------------------------------------------------------------- creation
    def _get(self, cls, name: str, help: str, labels: dict[str, str], **kwargs):
        with self._lock:
            kind = self._kinds.get(name)
            if kind is not None and kind != cls.kind:
                from repro.errors import ConfigError

                raise ConfigError(f"metric {name!r} already registered as a {kind}")
            key = (name, _label_key(labels))
            metric = self._series.get(key)
            if metric is None:
                metric = cls(**kwargs)
                self._series[key] = metric
                self._kinds[name] = cls.kind
                if help:
                    self._help[name] = help
            return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "", **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, help, labels, buckets=buckets)

    def window(
        self, name: str, help: str = "", window_s: float = 60.0,
        slots: int = 12, buckets: Iterable[float] = WINDOW_BUCKETS,
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
        target: float | None = None, clock: Callable[[], float] = time.monotonic,
        **labels: str,
    ) -> SlidingWindow:
        """Get-or-create a :class:`~repro.obs.window.SlidingWindow` series.

        Windows expose as Prometheus ``summary`` series — one
        ``name{quantile="..."}`` line per configured quantile plus windowed
        ``_sum``/``_count`` — and as a quantile/exemplar dict in
        :meth:`snapshot`.  Like histogram buckets, the window geometry (and
        its ``clock``) is fixed by the first creation; later get-or-create
        calls with different parameters return the existing series unchanged.
        """
        return self._get(
            SlidingWindow, name, help, labels,
            window_s=window_s, slots=slots, buckets=buckets,
            quantiles=quantiles, target=target, clock=clock,
        )

    # -------------------------------------------------------------- lookup
    def series(self, name: str) -> list[tuple[dict[str, str], "Counter | Gauge | Histogram"]]:
        """All (labels, metric) series registered under ``name``."""
        with self._lock:
            return [
                (dict(key), metric)
                for (n, key), metric in self._series.items()
                if n == name
            ]

    # ------------------------------------------------------------ callbacks
    def on_collect(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a scrape-time publisher (runs before every export)."""
        with self._lock:
            self._collectors.append(fn)

    def _collect(self) -> None:
        for fn in self._collectors:
            fn(self)

    # -------------------------------------------------------------- export
    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dict keyed ``name{label="v"}`` -> exposed value."""
        with self._lock:
            self._collect()
            out: dict[str, Any] = {}
            for (name, key), metric in sorted(self._series.items()):
                out[name + _label_text(key)] = json_safe(metric.expose())
            return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition (one ``# TYPE`` block per name)."""
        with self._lock:
            self._collect()
            by_name: dict[str, list[tuple[tuple, Counter | Gauge | Histogram]]] = {}
            for (name, key), metric in sorted(self._series.items()):
                by_name.setdefault(name, []).append((key, metric))
        lines: list[str] = []
        for name, series in by_name.items():
            if name in self._help:
                lines.append(f"# HELP {name} {_escape_help(self._help[name])}")
            lines.append(f"# TYPE {name} {self._kinds[name]}")
            for key, metric in series:
                if isinstance(metric, Histogram):
                    for le, n in metric.cumulative():
                        bucket_key = key + (("le", le),)
                        lines.append(f"{name}_bucket{_label_text(bucket_key)} {n}")
                    lines.append(f"{name}_sum{_label_text(key)} {metric.sum}")
                    lines.append(f"{name}_count{_label_text(key)} {metric.count}")
                elif isinstance(metric, SlidingWindow):
                    snap = metric.snapshot()
                    for q in metric.quantiles:
                        value = snap["quantiles"].get(f"p{q * 100:g}")
                        if value is None:
                            continue
                        q_key = key + (("quantile", format(q, "g")),)
                        lines.append(f"{name}{_label_text(q_key)} {value}")
                    lines.append(f"{name}_sum{_label_text(key)} {snap['sum']}")
                    lines.append(f"{name}_count{_label_text(key)} {snap['count']}")
                else:
                    lines.append(f"{name}{_label_text(key)} {metric.expose()}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._kinds

    # ------------------------------------------------------------- labeling
    def labeled(self, **labels: str) -> "LabeledRegistry":
        """A view of this registry that stamps ``labels`` on every series.

        The canonical use is tenant isolation in multi-model serving: each
        :class:`~repro.serve.session.EngineSession` takes
        ``registry.labeled(model=name)`` so that two sessions sharing one
        registry publish ``pool_hit_total{model="a"}`` and
        ``pool_hit_total{model="b"}`` instead of double-counting a single
        unlabeled series (and clobbering each other's ``on_collect`` gauges).
        """
        return LabeledRegistry(self, labels)


class LabeledRegistry:
    """A :class:`MetricsRegistry` facade with fixed labels pre-applied.

    Everything an instrumented object needs from a registry — get-or-create
    metric constructors, ``on_collect``, ``series`` — is forwarded to the
    underlying registry with the view's labels merged in (call-site labels
    win on conflict, so a view cannot silently re-route an explicit label).
    Exports (``snapshot``/``to_prometheus``) expose the *whole* base
    registry: one scrape covers every tenant, each under its own labels.
    """

    def __init__(self, registry: MetricsRegistry, labels: dict[str, str]):
        self._registry = registry
        self._labels = {str(k): str(v) for k, v in labels.items()}

    @property
    def base(self) -> MetricsRegistry:
        """The unlabeled registry underneath (shared across all views)."""
        base = self._registry
        while isinstance(base, LabeledRegistry):
            base = base._registry
        return base

    @property
    def labels(self) -> dict[str, str]:
        return dict(self._labels)

    def _merge(self, labels: dict[str, str]) -> dict[str, str]:
        return {**self._labels, **labels}

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._registry.counter(name, help, **self._merge(labels))

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._registry.gauge(name, help, **self._merge(labels))

    def histogram(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS,
        help: str = "", **labels: str,
    ) -> Histogram:
        return self._registry.histogram(name, buckets, help, **self._merge(labels))

    def window(self, name: str, help: str = "", **kwargs) -> SlidingWindow:
        labels = {
            k: kwargs.pop(k) for k in list(kwargs)
            if k not in ("window_s", "slots", "buckets", "quantiles", "target", "clock")
        }
        return self._registry.window(name, help, **kwargs, **self._merge(labels))

    def on_collect(self, fn: Callable[[MetricsRegistry], None]) -> None:
        self._registry.on_collect(fn)

    def series(self, name: str):
        """Series under ``name`` whose labels include this view's labels."""
        return [
            (labels, metric)
            for labels, metric in self._registry.series(name)
            if all(labels.get(k) == v for k, v in self._labels.items())
        ]

    def labeled(self, **labels: str) -> "LabeledRegistry":
        return LabeledRegistry(self._registry, self._merge(labels))

    def snapshot(self) -> dict[str, Any]:
        return self._registry.snapshot()

    def to_prometheus(self) -> str:
        return self._registry.to_prometheus()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabeledRegistry({self._labels!r})"
