"""Persistent engine sessions (warm serving, SparseDNN-style).

A cold inference call pays for everything every time: engine construction
(with its per-layer strategy plan), lazy ELL/dense weight-view builds, and
fresh ``(N, B)`` output allocations on every layer.  :class:`EngineSession`
keeps all of that warm across calls — it owns one :class:`~repro.network.
SparseNetwork` and one engine (whose plan lives as long as the session),
pins the weight views the plan runs from, and recycles output buffers
through a :class:`~repro.gpu.memory.BufferPool` — so the conversion
cost SNICIT pays at inference time is amortized over a long request stream,
the regime where compression at inference time actually wins (PAPER §3).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import SNICITConfig
from repro.core.reuse import CentroidCache
from repro.gpu.memory import BufferPool
from repro.harness.runner import make_engine
from repro.inference import InferenceResult
from repro.kernels import DENSE_WEIGHT_THRESHOLD
from repro.network import SparseNetwork
from repro.obs import MetricsRegistry, as_tracer

__all__ = ["EngineSession"]


class EngineSession:
    """A warm, reusable engine bound to one network.

    Parameters
    ----------
    network:
        The sparse DNN to serve.
    config:
        SNICIT parameters (required for ``kind='snicit'``).
    kind:
        Engine name as accepted by :func:`repro.harness.runner.make_engine`.
    warm:
        Pre-build the per-layer ELL/dense weight views at construction
        (``warmup_seconds`` records the cost).  With ``False`` the views are
        still built lazily on first use, as before.
    tracer:
        Optional :class:`~repro.obs.Tracer`; every request the session runs
        then emits a request -> stage -> layer -> kernel span tree.  Default
        is the shared no-op tracer.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` to share with other
        sessions or a server; a private registry is created by default.  The
        session's lifetime counters (calls, columns, busy/warmup seconds,
        per-stage seconds) live on the registry; ``self.calls`` etc. read
        through to it.
    name:
        Tenant identity for multi-model serving.  When set, every metric
        the session (and its pool/cache/engine) publishes goes through
        ``metrics.labeled(model=name)`` — two sessions sharing one registry
        then scrape as ``pool_hit_total{model="a"}`` vs ``{model="b"}``
        instead of conflating into one unlabeled series (and stacking
        ``on_collect`` gauges where the last writer wins).  Unnamed
        sessions keep the legacy unlabeled series.
    centroid_reuse:
        Carry layer-``t`` centroids across consecutive blocks through a
        :class:`~repro.core.reuse.CentroidCache` (SNICIT engines only):
        same-mix blocks then convert assign-only, skipping sample pruning
        and the centroid feed-forward.  Off by default — reuse changes
        numerics whenever residue pruning is on, so it is an explicit
        serving-policy decision.
    reuse_tolerance:
        Staleness budget forwarded to the cache: a reused block is admitted
        while its assignment distance / residue density stay within
        ``baseline * (1 + tolerance)``.
    """

    def __init__(
        self,
        network: SparseNetwork,
        config: SNICITConfig | None = None,
        kind: str = "snicit",
        warm: bool = True,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        centroid_reuse: bool = False,
        reuse_tolerance: float = 0.5,
        name: str | None = None,
    ):
        self.network = network
        self.kind = kind
        self.name = name
        self.tracer = as_tracer(tracer)
        self.metrics = MetricsRegistry() if metrics is None else metrics
        #: the session's metric surface: a per-tenant labeled view when
        #: named, the raw registry otherwise (legacy unlabeled series)
        self.scoped = self.metrics.labeled(model=name) if name is not None else self.metrics
        self.scratch = BufferPool(metrics=self.scoped)
        self.reuse = (
            CentroidCache(tolerance=reuse_tolerance, metrics=self.scoped)
            if centroid_reuse and kind == "snicit"
            else None
        )
        self.engine = make_engine(
            kind,
            network,
            snicit_config=config,
            scratch=self.scratch,
            tracer=self.tracer,
            metrics=self.scoped,
            reuse=self.reuse,
        )
        self._c_calls = self.scoped.counter(
            "session_calls_total", help="inference calls served by this session"
        )
        self._c_columns = self.scoped.counter(
            "session_columns_total", help="input columns pushed through the engine"
        )
        self._c_busy = self.scoped.counter(
            "session_busy_seconds_total", help="wall seconds inside engine.infer"
        )
        self._c_warmup = self.scoped.counter(
            "session_warmup_seconds_total", help="wall seconds building weight views"
        )
        # streaming view of per-block engine time: "how slow are blocks right
        # now" for the scrape endpoint, next to the lifetime busy counter
        self._w_block = self.scoped.window(
            "session_block_seconds",
            help="sliding-window wall seconds per engine.infer call",
        )
        #: per-stage counters, resolved once per stage name instead of a
        #: labelled registry lookup on every call
        self._stage_counters: dict[str, object] = {}
        #: the engine's per-layer strategy plan (SNICIT engines; baked at
        #: engine construction, kept for the session's whole life)
        self.plan = getattr(self.engine, "plan", None)
        #: True while the session holds warm state (views pinned / warmup run)
        self.warmed = False
        #: how the warm state was obtained: 'baked' (warmup ran here),
        #: 'artifact' (restored via load_warm_state), or None while cold
        self.warm_source: str | None = None
        if warm:
            self.warmup()

    # ----------------------------------------------------- registry-backed
    @property
    def calls(self) -> int:
        return int(self._c_calls.value)

    @property
    def columns(self) -> int:
        return int(self._c_columns.value)

    @property
    def busy_seconds(self) -> float:
        return self._c_busy.value

    @property
    def warmup_seconds(self) -> float:
        return self._c_warmup.value

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Cumulative engine seconds per stage, read from the registry."""
        return {
            labels["stage"]: metric.value
            for labels, metric in self.scoped.series("session_stage_seconds_total")
        }

    # ------------------------------------------------------------ lifecycle
    def warmup(self) -> float:
        """Pin the weight views the engine runs from.

        For SNICIT engines these are exactly the views the engine's
        :class:`~repro.core.plan.StrategyPlan` uses (dense for colwise
        layers, ELL for ELL-format dynamic layers); the plan itself was
        decided at engine construction and is untouched.  Other engine kinds
        build ELL/dense eagerly rather than charging the first request for
        the lazy conversion.
        """
        t0 = time.perf_counter()
        net = self.network
        with self.tracer.span("session.warmup", cat="serve", network=net.name):
            if self.plan is not None:
                self.plan.pin_views(net)
            else:
                for i, layer in enumerate(net.layers):
                    if layer.weight.density >= DENSE_WEIGHT_THRESHOLD:
                        net.dense(i)
                    else:
                        net.ell(i)
        self._c_warmup.inc(time.perf_counter() - t0)
        self.warmed = True
        self.warm_source = "baked"
        return self.warmup_seconds

    def save_warm_state(self, path: str) -> dict:
        """Persist this session's warm state as a fingerprint-keyed artifact.

        See :mod:`repro.core.warmstore` for the format and its invariants.
        Returns the save manifest (size, view/cache entry counts).
        """
        from repro.core.warmstore import save_warm_state

        return save_warm_state(self, path)

    def load_warm_state(self, path: str) -> dict:
        """Boot warm from a saved artifact instead of running :meth:`warmup`.

        Restores pinned views and centroid-cache fills — after verifying the
        artifact's network fingerprint, engine kind, and format version.  The
        strategy plan is not in the artifact: the engine baked it at
        construction, from the network alone.  The load time lands on the
        same ``session_warmup_seconds_total`` counter :meth:`warmup` uses, so
        ``warmup_seconds`` stays the honest "cost to get warm" number either
        way.  Returns the load manifest.
        """
        from repro.core.warmstore import load_warm_state

        t0 = time.perf_counter()
        with self.tracer.span(
            "session.load_warm_state", cat="serve", network=self.network.name
        ):
            manifest = load_warm_state(self, path)
        self._c_warmup.inc(time.perf_counter() - t0)
        self.warmed = True
        self.warm_source = "artifact"
        return manifest

    def retained_nbytes(self) -> int:
        """Warm-state footprint: scratch pool + pinned views + cached centroids.

        This is the number a :class:`~repro.gpu.memory.MemoryBudget` accounts
        for the session, and exactly what :meth:`demote` releases.
        """
        total = self.scratch.nbytes + self.network.view_nbytes()
        if self.reuse is not None:
            total += self.reuse.nbytes
        return total

    def demote(self) -> int:
        """Warm-to-cold demotion: release retained state, keep the session.

        Drops the scratch pool, the pinned weight views, and any cached
        conversions; returns the bytes freed.  Correctness is untouched —
        pool contents are unspecified by contract, views rebuild bitwise
        identically from the CSR source of truth, the strategy plan (which
        holds no arrays) stays, and a cold centroid cache just means the
        next block pays a full conversion again.  The session keeps serving
        through the same plan (lazily re-building views on demand); call
        :meth:`warmup` to re-pin eagerly.
        """
        freed = self.scratch.clear()
        freed += self.network.drop_views()
        if self.reuse is not None and len(self.reuse):
            freed += self.reuse.nbytes
            self.reuse.invalidate(reason="evicted")
        self.warmed = False
        self.warm_source = None
        return freed

    # ------------------------------------------------------------- serving
    def run(self, y0: np.ndarray) -> InferenceResult:
        """One inference call on the warm engine, with counter accounting."""
        t0 = time.perf_counter()
        result = self.engine.infer(y0)
        elapsed = time.perf_counter() - t0
        self._c_busy.inc(elapsed)
        self._w_block.observe(elapsed, columns=y0.shape[1])
        self._c_calls.inc()
        self._c_columns.inc(y0.shape[1])
        for stage, seconds in result.stage_seconds.items():
            counter = self._stage_counters.get(stage)
            if counter is None:
                counter = self._stage_counters[stage] = self.scoped.counter(
                    "session_stage_seconds_total",
                    help="cumulative engine seconds per pipeline stage",
                    stage=stage,
                )
            counter.inc(seconds)
        return result

    # ------------------------------------------------------------- metrics
    def stats(self) -> dict:
        """Lifetime counters: call/column throughput and per-stage seconds."""
        out = {
            "engine": self.kind,
            "network": self.network.name,
            "model": self.name,
            "warmed": self.warmed,
            "warm_source": self.warm_source,
            "retained_nbytes": self.retained_nbytes(),
            "calls": self.calls,
            "columns": self.columns,
            "warmup_seconds": self.warmup_seconds,
            "busy_seconds": self.busy_seconds,
            "columns_per_second": (
                self.columns / self.busy_seconds if self.busy_seconds > 0 else 0.0
            ),
            "stage_seconds": dict(self.stage_seconds),
            "plan": self.plan.stats() if self.plan is not None else None,
            "scratch": self.scratch.stats(),
        }
        if self.reuse is not None:
            out["centroid_cache"] = self.reuse.stats()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EngineSession({self.kind!r}, {self.network.name!r}, "
            f"calls={self.calls}, columns={self.columns})"
        )
