"""Per-layer spMM strategy plans, decided once per engine.

SparseDNN's code-generated engines show the shape: decide everything that
depends only on the *network* once, at build time, and leave only the
activation-dependent part of the decision in the hot path.  Every
:class:`~repro.core.SNICIT` engine bakes its :class:`StrategyPlan` at
construction and dispatches every spMM through it for its whole life.

:func:`bake_plan` walks the network once and freezes, per layer
(:func:`repro.kernels.plan_layer`):

* the **strategy class** — ``'colwise'`` for dense-ish layers (the decision
  depends only on weight density, so it is fully static), ``'dynamic'`` for
  sparse layers (masked-vs-batch-parallel still depends on the block's
  live-row fraction, so the plan keeps the threshold rule but nothing else);
* the **sparse format** backing the batch-parallel branch — ELL when the
  row fan-in is near-uniform, CSR when ELL padding would waste gather work
  (:func:`repro.sparse.convert.preferred_spmm_format`).

Baking is decision only and builds no weight view; :meth:`StrategyPlan.
pin_views` builds the views the plan uses (what a warm session's warmup
does), and dropping them never invalidates the plan.

What the plan guarantees about bits: the same plan and the same block always
run the same kernel, so a cold, a demoted, a warm and an artifact-booted
engine give bitwise-equal outputs.  It does not make all strategies agree:
``'masked'``, ``'ell'`` and ``'csr'`` sum each element in a different order,
so which of them a block runs can move the last bits.
"""

from __future__ import annotations

import time

from repro.kernels import LayerPlan, plan_layer, planned_spmm
from repro.network import SparseNetwork
from repro.obs.metrics import MetricsRegistry

__all__ = ["LayerPlan", "StrategyPlan", "bake_plan", "plan_layer"]


class StrategyPlan:
    """A baked per-layer plan plus pre-resolved strategy counters.

    The hot path calls :meth:`dispatch`, which is a tuple index into
    :attr:`layers` followed by the kernel call and one ``inc`` on the
    ``spmm_strategy_total{strategy=...}`` counter bound at construction (on
    ``metrics``, a private registry by default) — no density re-check, no
    counter-label resolution.  :attr:`calls` reads those counters back.  The
    plan holds no arrays, so it outlives any view drop.
    """

    __slots__ = ("layers", "baked_seconds", "_counters")

    def __init__(
        self, layers: tuple[LayerPlan, ...], baked_seconds: float = 0.0, metrics=None
    ):
        metrics = MetricsRegistry() if metrics is None else metrics
        self.layers = tuple(layers)
        self.baked_seconds = float(baked_seconds)
        self._counters = {
            strategy: metrics.counter("spmm_strategy_total", strategy=strategy)
            for strategy in ("colwise", "masked", "ell", "csr")
        }

    @property
    def calls(self) -> int:
        """spMM dispatches so far (every dispatch counts one strategy)."""
        return int(sum(c.value for c in self._counters.values()))

    def pin_views(self, net: SparseNetwork) -> None:
        """Build the weight views the plan runs from.

        ``net.dense(i)`` for colwise layers, ``net.ell(i)`` for ELL-format
        dynamic layers; CSR-format layers run straight off the weights.  The
        first warm block then pays no lazy conversion.
        """
        for lp in self.layers:
            if lp.format == "dense":
                net.dense(lp.index)
            elif lp.format == "ell":
                net.ell(lp.index)

    def dispatch(self, net: SparseNetwork, i: int, y, out=None):
        """``W(i) @ y`` via the baked decision; mirrors ``champion_spmm``."""
        z, work, strategy = planned_spmm(net, self.layers[i], y, out=out)
        self._counters[strategy].inc()
        return z, work, strategy

    def stats(self) -> dict:
        """JSON-safe summary for session stats / bench records."""
        strategies: dict[str, int] = {}
        for lp in self.layers:
            key = lp.strategy if lp.strategy == "colwise" else f"dynamic/{lp.format}"
            strategies[key] = strategies.get(key, 0) + 1
        return {
            "layers": len(self.layers),
            "calls": self.calls,
            "baked_seconds": self.baked_seconds,
            "strategies": strategies,
        }


def bake_plan(net: SparseNetwork, metrics=None) -> StrategyPlan:
    """Decide and freeze every layer's kernel strategy (no view is built).

    ``metrics`` (a :class:`~repro.obs.MetricsRegistry` or labeled view)
    holds the ``spmm_strategy_total{strategy=...}`` counters
    :meth:`StrategyPlan.dispatch` increments.
    """
    t0 = time.perf_counter()
    layers = tuple(plan_layer(net, i) for i in range(len(net.layers)))
    return StrategyPlan(layers, baked_seconds=time.perf_counter() - t0, metrics=metrics)
