"""Per-tenant SLO policies, error budgets, and burn-rate accounting.

An :class:`SloPolicy` states the contract a tenant is served under — "p99
latency below 50 ms over a 60 s window, 99 % of requests within target" —
and an :class:`SloTracker` measures it live: every resolved request feeds a
:class:`~repro.obs.window.SlidingWindow` (streaming quantiles + exact
breach counts against the target), lifetime counters, and the derived
budget arithmetic:

* the **error budget** is the fraction of requests allowed to miss the
  latency target, ``1 - objective``;
* **burn rate** is how fast the window is spending it: windowed breach
  fraction over allowed fraction.  Burn 1.0 consumes the budget exactly at
  the sustainable rate; 2.0 exhausts it in half the window — the standard
  multi-window alerting signal;
* the **exemplar** is the slowest request in the window, carrying its async
  trace span id, block id, and the queue-wait / batch-wait / execute /
  per-stage latency breakdown the serving stack threads into every ticket —
  so a p99 spike points at head-of-line stalls vs kernel time instead of
  being a bare number.

Trackers publish through whatever registry view they are given — a
per-tenant ``metrics.labeled(model=name)`` in multi-model serving — so one
scrape carries ``slo_latency_seconds{model="a",quantile="0.99"}`` per
tenant, and :meth:`SloTracker.report` renders the JSON block embedded in
a router report's ``to_json()`` and the bench-serve record.

Recording stays cheap: a resolved request updates the window and counters
and refreshes :attr:`SloTracker.last_burn` from the window's exact breach
counts.  The quantile estimate and the three gauges (``slo_burn_rate``,
``slo_budget_remaining``, ``slo_compliant``) are evaluated at scrape time.
"""

from __future__ import annotations

import math
import re
import time
import weakref
from dataclasses import dataclass
from typing import Any

from repro.obs.export import json_safe
from repro.obs.metrics import MetricsRegistry

__all__ = ["SloPolicy", "SloTracker", "SloReport"]

_SPEC_RE = re.compile(
    r"^p(?P<q>\d+(?:\.\d+)?)\s*<\s*(?P<target>\d+(?:\.\d+)?)\s*(?P<unit>ms|s)"
    r"(?:\s*@\s*(?P<window>\d+(?:\.\d+)?)\s*s)?"
    r"(?:\s*/\s*(?P<objective>\d+(?:\.\d+)?)\s*%)?$"
)


@dataclass(frozen=True)
class SloPolicy:
    """One tenant's service-level objective.

    Parameters
    ----------
    latency_target_s:
        The per-request latency bound (submit-to-resolve wall seconds).
    quantile:
        The tail the objective is stated at (0.99 -> p99).
    window_s:
        Sliding-window span the live quantile/budget view covers.
    objective:
        Fraction of requests that must meet the target (0.99 -> 1 % error
        budget).  Burn rate is windowed breach fraction over ``1 -
        objective``.
    min_columns_per_second:
        Optional throughput floor over the window; ``None`` means the SLO
        is latency-only.
    """

    latency_target_s: float
    quantile: float = 0.99
    window_s: float = 60.0
    objective: float = 0.99
    min_columns_per_second: float | None = None

    def __post_init__(self):
        from repro.errors import ConfigError

        if self.latency_target_s <= 0:
            raise ConfigError(
                f"latency target must be positive, got {self.latency_target_s}"
            )
        if not 0 < self.quantile < 1:
            raise ConfigError(f"quantile must be in (0, 1), got {self.quantile}")
        if self.window_s <= 0:
            raise ConfigError(f"window must be positive, got {self.window_s}")
        if not 0 < self.objective < 1:
            raise ConfigError(f"objective must be in (0, 1), got {self.objective}")

    @property
    def error_budget(self) -> float:
        """Allowed breach fraction (1 - objective)."""
        return 1.0 - self.objective

    def describe(self) -> str:
        """Human rendering, e.g. ``p99 < 50ms over 60s (objective 99%)``."""
        text = (
            f"p{self.quantile * 100:g} < {self.latency_target_s * 1e3:g}ms "
            f"over {self.window_s:g}s (objective {self.objective * 100:g}%)"
        )
        if self.min_columns_per_second is not None:
            text += f", >= {self.min_columns_per_second:g} col/s"
        return text

    @classmethod
    def parse(cls, spec: str, **overrides) -> "SloPolicy":
        """Parse a compact CLI spec like ``p99<50ms@60s/99.9%``.

        Window (``@60s``) and objective (``/99.9%``) are optional and fall
        back to the dataclass defaults; ``overrides`` win over the spec.
        """
        match = _SPEC_RE.match(spec.strip())
        if match is None:
            from repro.errors import ConfigError

            raise ConfigError(
                f"cannot parse SLO spec {spec!r}; expected e.g. 'p99<50ms@60s/99.9%'"
            )
        target = float(match["target"])
        if match["unit"] == "ms":
            target /= 1e3
        kwargs: dict[str, Any] = {
            "latency_target_s": target,
            "quantile": float(match["q"]) / 100.0,
        }
        if match["window"] is not None:
            kwargs["window_s"] = float(match["window"])
        if match["objective"] is not None:
            kwargs["objective"] = float(match["objective"]) / 100.0
        kwargs.update(overrides)
        return cls(**kwargs)

    def to_json(self) -> dict[str, Any]:
        return {
            "latency_target_s": self.latency_target_s,
            "quantile": self.quantile,
            "window_s": self.window_s,
            "objective": self.objective,
            "min_columns_per_second": self.min_columns_per_second,
            "describe": self.describe(),
        }


@dataclass
class SloReport:
    """Point-in-time SLO evaluation for one tenant (JSON-safe via to_json)."""

    policy: SloPolicy
    #: live window view: count, quantiles, over_target, exemplar, ...
    window: dict[str, Any]
    #: lifetime totals since the tracker was created
    requests_total: int
    breaches_total: int
    columns_total: float
    #: windowed latency estimate at the policy quantile (None when idle)
    latency_estimate_s: float | None
    #: windowed breach fraction over the allowed fraction (0.0 when idle)
    burn_rate: float
    #: remaining window budget fraction (1.0 untouched, < 0 overspent)
    budget_remaining: float
    #: windowed served columns per second (None when idle)
    columns_per_second: float | None
    #: individual verdicts (None = not applicable / no traffic)
    quantile_ok: bool | None
    budget_ok: bool | None
    throughput_ok: bool | None

    @property
    def compliant(self) -> bool:
        """All applicable verdicts hold (an idle window is compliant)."""
        return all(v is not False for v in
                   (self.quantile_ok, self.budget_ok, self.throughput_ok))

    @property
    def exemplar(self) -> dict[str, Any] | None:
        """Slowest live request's tag: span ids + latency breakdown."""
        return self.window.get("exemplar")

    def to_json(self) -> dict[str, Any]:
        return json_safe({
            "policy": self.policy.to_json(),
            "window": self.window,
            "requests_total": self.requests_total,
            "breaches_total": self.breaches_total,
            "columns_total": self.columns_total,
            "latency_estimate_s": self.latency_estimate_s,
            "burn_rate": self.burn_rate,
            "budget_remaining": self.budget_remaining,
            "columns_per_second": self.columns_per_second,
            "quantile_ok": self.quantile_ok,
            "budget_ok": self.budget_ok,
            "throughput_ok": self.throughput_ok,
            "compliant": self.compliant,
            "exemplar": self.exemplar,
        })


class SloTracker:
    """Live SLO accounting for one tenant.

    Parameters
    ----------
    policy:
        The :class:`SloPolicy` to measure against.
    metrics:
        Registry (or per-tenant labeled view) the tracker keeps its window,
        counters and gauges in; a private registry when ``None``.
    clock:
        Time source for window rotation, whether or not the registry is
        shared; injectable in tests.
    name:
        Tenant name, echoed into reports for log readability.
    """

    def __init__(self, policy: SloPolicy, metrics=None, clock=time.monotonic,
                 name: str | None = None):
        self.policy = policy
        self.name = name
        self.clock = clock
        #: most recently evaluated burn rate — a cheap signal admission
        #: control can poll on every submit without re-reading the window
        self.last_burn = 0.0
        quantiles = tuple(sorted({0.5, 0.95, 0.99, policy.quantile}))
        metrics = MetricsRegistry() if metrics is None else metrics
        self.window = metrics.window(
            "slo_latency_seconds",
            help="sliding-window request latency under the tenant's SLO",
            window_s=policy.window_s,
            quantiles=quantiles,
            target=policy.latency_target_s,
            clock=clock,
        )
        self._c_requests = metrics.counter(
            "slo_requests_total", help="requests evaluated against the SLO"
        )
        self._c_breaches = metrics.counter(
            "slo_breaches_total",
            help="requests over the latency target (or failed)",
        )
        self._c_columns = metrics.counter(
            "slo_columns_total", help="columns served under the SLO"
        )
        self._g_burn = metrics.gauge(
            "slo_burn_rate",
            help="windowed breach fraction / allowed fraction (1.0 = "
                 "spending the error budget exactly at the sustainable rate)",
        )
        self._g_budget = metrics.gauge(
            "slo_budget_remaining",
            help="remaining window error budget fraction (negative = overspent)",
        )
        self._g_compliant = metrics.gauge(
            "slo_compliant", help="1 when every applicable SLO verdict holds"
        )
        self._g_compliant.set(1.0)
        # held weakly: the registry outlives a replaced or evicted tenant's tracker
        report = weakref.WeakMethod(self.report)
        metrics.on_collect(lambda _registry: (live := report()) and live())

    # ------------------------------------------------------------- recording
    def record(
        self,
        latency_s: float,
        columns: float = 0.0,
        exemplar: dict[str, Any] | None = None,
        failed: bool = False,
    ) -> None:
        """Account one resolved request.

        A failed request burns budget regardless of its latency: its
        observation is clamped above the target so the window's exact
        breach counter sees it.
        """
        latency_s = float(latency_s)
        breach = failed or latency_s > self.policy.latency_target_s
        if failed and latency_s <= self.policy.latency_target_s:
            # a fast failure still violates the objective; push it past the
            # target so the window's over_target count stays exact
            latency_s = self.policy.latency_target_s * (1.0 + 1e-9)
        self.window.observe(latency_s, columns=columns, exemplar=exemplar)
        self._c_requests.inc()
        self._c_columns.inc(columns)
        if breach:
            self._c_breaches.inc()
        self.last_burn = self._burn(*self.window.breaches())

    def record_ticket(self, ticket, model: str | None = None) -> None:
        """Account one resolved serving ticket, with its exemplar.

        The exemplar carries the ids that link back into the trace — the
        request's async span id (``aid``) and its block — plus the latency
        breakdown, so the slowest request in any window is attributable.
        """
        exemplar: dict[str, Any] = {
            "latency_seconds": ticket.latency_seconds,
            "breakdown": ticket.breakdown(),
            "request_aid": ticket.aid,
        }
        if model is not None:
            exemplar["model"] = model
        if ticket.failed:
            exemplar["error"] = type(ticket.error).__name__
        self.record(
            ticket.latency_seconds,
            columns=ticket.columns,
            exemplar=exemplar,
            failed=ticket.failed,
        )

    # -------------------------------------------------------------- reporting
    def _burn(self, count: int, over_target: int | None) -> float:
        """Windowed breach fraction over the allowed fraction; 0.0 when idle
        (a 0/0 would leak NaN into the /slo JSON and every merged scrape)."""
        if count <= 0:
            return 0.0
        burn = (over_target or 0) / count / self.policy.error_budget
        return burn if math.isfinite(burn) else 0.0

    def _evaluate(self) -> SloReport:
        snap = self.window.snapshot()
        count = snap["count"]
        policy = self.policy
        self.last_burn = burn = self._burn(count, snap["over_target"])
        if count <= 0:
            return SloReport(
                policy=policy, window=snap,
                requests_total=self.requests_total,
                breaches_total=self.breaches_total,
                columns_total=self.columns_total,
                latency_estimate_s=None, burn_rate=0.0, budget_remaining=1.0,
                columns_per_second=None,
                quantile_ok=None, budget_ok=None, throughput_ok=None,
            )
        # read the estimate from the same snapshot as the breach counts: a
        # second window read could rotate in between and disagree (or go
        # empty entirely, reintroducing the divide-by-zero this guards)
        estimate = snap["quantiles"].get(f"p{policy.quantile * 100:g}")
        budget_remaining = 1.0 - burn
        # windowed throughput: columns over the full window span (slightly
        # conservative while the window is still filling)
        cps = snap["columns"] / policy.window_s
        throughput_ok = (
            None if policy.min_columns_per_second is None
            else cps is not None and cps >= policy.min_columns_per_second
        )
        return SloReport(
            policy=policy, window=snap,
            requests_total=self.requests_total,
            breaches_total=self.breaches_total,
            columns_total=self.columns_total,
            latency_estimate_s=estimate,
            burn_rate=burn,
            budget_remaining=budget_remaining,
            columns_per_second=cps,
            quantile_ok=bool(estimate is not None
                             and estimate <= policy.latency_target_s),
            budget_ok=bool(burn <= 1.0),
            throughput_ok=throughput_ok,
        )

    @property
    def requests_total(self) -> int:
        return int(self._c_requests.value)

    @property
    def breaches_total(self) -> int:
        return int(self._c_breaches.value)

    @property
    def columns_total(self) -> float:
        return self._c_columns.value

    def report(self) -> SloReport:
        """Evaluate the SLO right now (also refreshes the gauges); every
        scrape of the tracker's registry calls it."""
        report = self._evaluate()
        self._g_burn.set(report.burn_rate)
        self._g_budget.set(report.budget_remaining)
        self._g_compliant.set(1.0 if report.compliant else 0.0)
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SloTracker({self.name!r}, {self.policy.describe()!r})"
