"""Per-tenant QoS: priority classes, deficit-weighted service, admission control.

PR 7 landed the *measurement* half of per-tenant SLOs; this module is the
*control* half.  Three pieces compose, all deterministic (no wall-clock
reads beyond an injectable ``clock``) so schedulers built on them can be
driven by tests step-by-step:

* :class:`QosPolicy` — a tenant's declared class (``interactive`` beats
  ``batch``), its deficit-round-robin weight within the class, and an
  optional token-bucket rate limit in columns/second.
* :class:`TokenBucket` — the rate limiter.  ``rate_cols_per_s=0`` is a
  *hard quota*: the bucket starts with ``burst`` tokens and never refills,
  which gives benches a bit-exact admitted subsequence.
* :class:`DeficitScheduler` — deficit-weighted round robin over lanes with
  strict priority between classes: when any interactive lane has runnable
  work, no batch lane is picked.  Within the winning class, lanes are
  served in a rotating ring; a lane pays the block's column cost from its
  deficit and earns ``quantum * weight`` per grant round.  The scheduler
  only chooses *which lane flushes next* — FIFO order inside each lane is
  untouched, so per-stream block packing (and therefore per-stream
  outputs, bitwise) is identical to a solo run.
* :class:`AdmissionController` — sheds load *before* it enters a lane.
  Rate-limit sheds apply to the configured tenant regardless of class;
  pressure sheds (queue pressure, interactive SLO burn, memory budget)
  apply only to batch-class tenants — interactive traffic is never
  pressure-shed, it can only hit its own lane's hard overflow bound.
  Every shed raises :class:`~repro.errors.ServeShedError` (a
  :class:`~repro.errors.ServeOverflowError`), so existing reject handling
  counts it, and increments ``qos_shed_total{model=,reason=}``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.errors import ConfigError, ServeShedError
from repro.obs.metrics import MetricsRegistry

#: Priority classes in rank order — lower index is served first.
PRIORITY_CLASSES = ("interactive", "batch")

__all__ = [
    "PRIORITY_CLASSES",
    "QosPolicy",
    "TokenBucket",
    "DeficitScheduler",
    "AdmissionController",
]


@dataclass(frozen=True)
class QosPolicy:
    """A tenant's service class, DWRR weight, and optional rate limit.

    ``rate_cols_per_s=None`` means unlimited; ``0`` means a hard quota of
    ``burst_cols`` columns that never refills.  ``burst_cols`` defaults to
    one second of rate when a positive rate is set.
    """

    priority: str = "interactive"
    weight: float = 1.0
    rate_cols_per_s: float | None = None
    burst_cols: float | None = None

    def __post_init__(self) -> None:
        if self.priority not in PRIORITY_CLASSES:
            raise ConfigError(
                f"qos priority must be one of {PRIORITY_CLASSES}, "
                f"got {self.priority!r}"
            )
        if not (self.weight > 0.0) or not math.isfinite(self.weight):
            raise ConfigError(f"qos weight must be finite and > 0, got {self.weight}")
        if self.rate_cols_per_s is not None and not (self.rate_cols_per_s >= 0.0):
            raise ConfigError(
                f"qos rate_cols_per_s must be >= 0, got {self.rate_cols_per_s}"
            )
        if self.burst_cols is not None:
            if self.rate_cols_per_s is None:
                raise ConfigError("qos burst_cols requires rate_cols_per_s")
            if not (self.burst_cols > 0.0):
                raise ConfigError(f"qos burst_cols must be > 0, got {self.burst_cols}")
        if self.rate_cols_per_s == 0.0 and self.burst_cols is None:
            raise ConfigError(
                "qos rate_cols_per_s=0 is a hard quota and needs burst_cols"
            )

    @property
    def rank(self) -> int:
        """Priority rank; lower is served first."""
        return PRIORITY_CLASSES.index(self.priority)

    @property
    def effective_burst(self) -> float | None:
        if self.rate_cols_per_s is None:
            return None
        if self.burst_cols is not None:
            return self.burst_cols
        return self.rate_cols_per_s  # one second of burst

    @classmethod
    def parse(cls, spec: "QosPolicy | str | None", **overrides) -> "QosPolicy":
        """Build a policy from ``"class[:w=..,rate=..,burst=..]"`` (or pass through).

        Examples: ``"interactive"``, ``"batch:w=4"``,
        ``"batch:rate=256,burst=64"``.  ``None`` parses to the default
        interactive policy so unconfigured tenants keep today's behaviour.
        """
        if isinstance(spec, cls):
            return spec
        if spec is None:
            return cls(**overrides)
        text = str(spec).strip()
        head, _, tail = text.partition(":")
        kwargs: dict = {"priority": head.strip() or "interactive"}
        if tail.strip():
            for part in tail.split(","):
                key, sep, value = part.partition("=")
                key = key.strip()
                if not sep or not value.strip():
                    raise ConfigError(f"bad qos spec field {part!r} in {text!r}")
                try:
                    number = float(value)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad qos spec value {value!r} in {text!r}"
                    ) from exc
                if key in ("w", "weight"):
                    kwargs["weight"] = number
                elif key == "rate":
                    kwargs["rate_cols_per_s"] = number
                elif key == "burst":
                    kwargs["burst_cols"] = number
                else:
                    raise ConfigError(f"unknown qos spec key {key!r} in {text!r}")
        kwargs.update(overrides)
        return cls(**kwargs)

    def describe(self) -> str:
        parts = [f"{self.priority} w={self.weight:g}"]
        if self.rate_cols_per_s is not None:
            parts.append(
                f"rate={self.rate_cols_per_s:g} cols/s burst={self.effective_burst:g}"
            )
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "priority": self.priority,
            "weight": self.weight,
            "rate_cols_per_s": self.rate_cols_per_s,
            "burst_cols": self.effective_burst,
        }


class TokenBucket:
    """Column-rate token bucket; ``rate=0`` never refills (hard quota)."""

    __slots__ = ("rate", "burst", "tokens", "clock", "_last")

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        if rate < 0:
            raise ConfigError(f"token bucket rate must be >= 0, got {rate}")
        if burst <= 0:
            raise ConfigError(f"token bucket burst must be > 0, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.clock = clock
        self._last = clock()

    def try_take(self, amount: float) -> bool:
        """Take ``amount`` tokens if available; False (no debt) otherwise."""
        now = self.clock()
        if self.rate > 0.0:
            elapsed = max(0.0, now - self._last)
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self._last = now
        if self.tokens + 1e-9 >= amount:
            self.tokens -= amount
            return True
        return False


@dataclass
class _LaneState:
    rank: int
    weight: float
    label: str | None = None
    deficit: float = 0.0
    served_blocks: int = 0
    served_columns: float = 0.0
    grants: int = 0


@dataclass
class DeficitScheduler:
    """Deficit-weighted round robin with strict priority between classes.

    ``pick`` considers only the highest-priority class present among the
    candidate lanes, walks the registration-order ring from a rotating
    cursor, and serves the first lane whose deficit covers the offered
    block cost.  When nobody can pay, every eligible lane earns the
    minimal whole number of ``quantum * weight`` grants that lets at least
    one pay, so ``pick`` is O(lanes) and always terminates.  ``reset``
    zeroes an idle lane's deficit: an empty lane must not bank credit and
    burst ahead of lanes that stayed busy.
    """

    quantum: float
    _lanes: dict = field(default_factory=dict)
    _cursor: int = 0

    def __post_init__(self) -> None:
        if self.quantum <= 0:
            raise ConfigError(f"scheduler quantum must be > 0, got {self.quantum}")

    def register(self, key, rank: int, weight: float, label: str | None = None) -> None:
        if key not in self._lanes:
            self._lanes[key] = _LaneState(rank=rank, weight=float(weight), label=label)

    def reset(self, key) -> None:
        lane = self._lanes.get(key)
        if lane is not None:
            lane.deficit = 0.0

    def pick(self, candidates: dict) -> object | None:
        """Pick the next lane to flush from ``{lane_key: block_cost_cols}``."""
        eligible_keys = [k for k in candidates if k in self._lanes]
        if not eligible_keys:
            return None
        best_rank = min(self._lanes[k].rank for k in eligible_keys)
        order = [
            k
            for k in self._lanes
            if k in candidates and self._lanes[k].rank == best_rank
        ]
        ring = list(self._lanes)
        start = self._cursor % max(1, len(ring))
        rotated = [k for k in ring[start:] + ring[:start] if k in order]
        for _ in range(2):  # at most one grant round is ever needed
            for key in rotated:
                lane = self._lanes[key]
                cost = max(0.0, float(candidates[key]))
                if lane.deficit + 1e-9 >= cost:
                    lane.deficit = max(0.0, lane.deficit - cost)
                    lane.served_blocks += 1
                    lane.served_columns += cost
                    self._cursor = (ring.index(key) + 1) % len(ring)
                    return key
            # nobody can pay: grant the minimal rounds that unlock a lane
            rounds = min(
                math.ceil(
                    max(
                        0.0,
                        float(candidates[k]) - self._lanes[k].deficit,
                    )
                    / (self.quantum * self._lanes[k].weight)
                )
                for k in rotated
            )
            rounds = max(1, int(rounds))
            for key in rotated:
                lane = self._lanes[key]
                lane.deficit += rounds * self.quantum * lane.weight
                lane.grants += rounds
        raise AssertionError("deficit grant failed to unlock any lane")

    def stats(self) -> dict:
        return {
            "quantum": self.quantum,
            "lanes": {
                (lane.label or str(key)): {
                    "rank": lane.rank,
                    "weight": lane.weight,
                    "deficit": lane.deficit,
                    "served_blocks": lane.served_blocks,
                    "served_columns": lane.served_columns,
                    "grants": lane.grants,
                }
                for key, lane in self._lanes.items()
            },
        }


class AdmissionController:
    """Pre-lane load shedding: rate limits for anyone, pressure for batch.

    ``admit`` raises :class:`ServeShedError` (never returns a partial
    admit) so the caller's existing overflow handling records the reject.
    Pressure triggers — total queued requests at/over
    ``queue_pressure_requests``, any interactive tenant's SLO burn at/over
    ``burn_threshold``, or the memory budget over its limit — shed only
    batch-class tenants: shedding bulk is always preferred over letting it
    damage an interactive tenant's tail or evict its warm state.

    Sheds are counted only in ``qos_shed_total{model=,reason=}`` on
    ``metrics`` (a private registry by default); :attr:`shed` reads them.
    """

    def __init__(
        self,
        *,
        metrics=None,
        queue_pressure_requests: int | None = None,
        burn_threshold: float | None = 1.0,
        clock=time.monotonic,
    ) -> None:
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.queue_pressure_requests = queue_pressure_requests
        self.burn_threshold = burn_threshold
        self.clock = clock
        self._policies: dict[str, QosPolicy] = {}
        self._buckets: dict[str, TokenBucket] = {}
        #: (model, reason) -> ``qos_shed_total`` counter, bound on first shed
        self._c_shed: dict[tuple[str, str], object] = {}

    @property
    def shed(self) -> dict[str, dict[str, int]]:
        """Sheds so far, ``{model: {reason: count}}``."""
        out: dict[str, dict[str, int]] = {}
        for (model, reason), counter in list(self._c_shed.items()):
            out.setdefault(model, {})[reason] = int(counter.value)
        return out

    def register(self, model: str, policy: QosPolicy) -> None:
        """Attach a tenant's policy; idempotent (first registration wins,
        so re-creating a lane cannot silently refill a hard-quota bucket)."""
        if model in self._policies:
            return
        self._policies[model] = policy
        burst = policy.effective_burst
        if policy.rate_cols_per_s is not None and burst is not None:
            self._buckets[model] = TokenBucket(
                policy.rate_cols_per_s, burst, clock=self.clock
            )

    def policy(self, model: str) -> QosPolicy:
        return self._policies.get(model) or QosPolicy()

    def _shed(self, model: str, reason: str, detail: str) -> None:
        counter = self._c_shed.get((model, reason))
        if counter is None:
            counter = self._c_shed[(model, reason)] = self.metrics.counter(
                "qos_shed_total",
                help="requests shed by admission control",
                model=model,
                reason=reason,
            )
        counter.inc()
        raise ServeShedError(
            f"request for {model!r} shed by admission control ({detail})",
            reason=reason,
        )

    def admit(
        self,
        model: str,
        columns: int,
        *,
        pending_requests: int = 0,
        interactive_burn: float | None = None,
        over_budget: bool = False,
    ) -> None:
        """Raise :class:`ServeShedError` if this request must not enter a lane."""
        policy = self.policy(model)
        bucket = self._buckets.get(model)
        if bucket is not None and not bucket.try_take(columns):
            self._shed(
                model,
                "rate_limit",
                f"token bucket empty for {columns} columns at "
                f"{policy.rate_cols_per_s:g} cols/s",
            )
        if policy.rank == 0:
            return  # interactive is never pressure-shed
        if over_budget:
            self._shed(model, "memory_pressure", "memory budget over limit")
        if (
            self.burn_threshold is not None
            and interactive_burn is not None
            and interactive_burn >= self.burn_threshold
        ):
            self._shed(
                model,
                "slo_burn",
                f"interactive SLO burn {interactive_burn:.2f} >= "
                f"{self.burn_threshold:.2f}",
            )
        if (
            self.queue_pressure_requests is not None
            and pending_requests >= self.queue_pressure_requests
        ):
            self._shed(
                model,
                "queue_pressure",
                f"{pending_requests} requests queued >= "
                f"{self.queue_pressure_requests}",
            )

    def shed_total(self, model: str | None = None) -> int:
        if model is not None:
            return sum(self.shed.get(model, {}).values())
        return sum(sum(reasons.values()) for reasons in self.shed.values())

    def stats(self) -> dict:
        return {
            "policies": {
                name: policy.to_json() for name, policy in self._policies.items()
            },
            "queue_pressure_requests": self.queue_pressure_requests,
            "burn_threshold": self.burn_threshold,
            "shed": self.shed,
            "shed_total": self.shed_total(),
            "buckets": {
                name: {"rate": b.rate, "burst": b.burst, "tokens": b.tokens}
                for name, b in self._buckets.items()
            },
        }
