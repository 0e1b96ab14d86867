"""The SNICIT inference engine (paper Fig. 2, §3).

Orchestrates the four stages — pre-convergence feed-forward, cluster-based
conversion, post-convergence update, final recovery — with per-stage and
per-layer wall-clock timing plus cost-model accounting on the virtual
device, so every experiment of §4 can be regenerated.  A fresh conversion
and a centroid-cache hit (assign-only conversion) run through the same
post-convergence loop and recovery stage; :class:`_StageLedger` records
every stage and builds the result.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import SNICITConfig
from repro.core.conversion import convert
from repro.core.pruning import prune_samples, select_centroids
from repro.core.recovery import recover_compact
from repro.core.reuse import CentroidCache, degenerate_fill_baselines
from repro.core.sampling import sample_columns, sum_downsample
from repro.core.postconv import update_compact, update_residues_external
from repro.gpu.costmodel import CostSnapshot, KernelCharge
from repro.gpu.device import VirtualDevice
from repro.gpu.memory import BufferPool
from repro.inference import InferenceResult
from repro.core.plan import bake_plan
from repro.kernels import assign_cached_centroids, assign_charge, charge_for
from repro.network import SparseNetwork
from repro.obs import as_tracer

__all__ = ["SNICIT"]


class _StageLedger:
    """Where one inference records its stages, and how it builds its result.

    ``with ledger.stage(name, **args) as span:`` opens the stage's tracer
    span and records the stage's wall seconds and the cost-model delta of its
    own window; :meth:`skip` records a stage that never ran (0.0 seconds, an
    empty window).  Stages never nest, so the ledger is its own context
    manager: a generator-based one cost ~50 µs more per 64-column medium-A
    block on a 2-vCPU VM.  Layer loops write ``layer_seconds`` themselves
    with an inline ``perf_counter`` pair, the cheapest per-layer timer.
    """

    def __init__(self, tracer, device: VirtualDevice, num_layers: int):
        self.tracer = tracer
        self.device = device
        self.stage_seconds: dict[str, float] = {}
        self.modeled: dict[str, CostSnapshot] = {}
        self.layer_seconds = np.zeros(num_layers)

    def stage(self, name: str, **args) -> "_StageLedger":
        self._name = name
        self._span = self.tracer.span(name, cat="stage", **args)
        return self

    def __enter__(self):
        # the snapshots stay outside the wall-clock window
        self._mark = self.device.snapshot()
        self._wall0 = time.perf_counter()
        return self._span.__enter__()

    def __exit__(self, *exc) -> None:
        self._span.__exit__(*exc)
        self.stage_seconds[self._name] = time.perf_counter() - self._wall0
        self.modeled[self._name] = self.device.snapshot() - self._mark

    def skip(self, name: str) -> None:
        with self.tracer.span(name, cat="stage", skipped=True):
            self.stage_seconds[name] = 0.0
            self.modeled[name] = CostSnapshot()

    def result(self, y: np.ndarray, stats: dict) -> InferenceResult:
        return InferenceResult(
            y=y,
            stage_seconds=self.stage_seconds,
            layer_seconds=self.layer_seconds,
            modeled=self.modeled,
            stats=stats,
        )


class SNICIT:
    """Compression-at-inference-time engine.

    Parameters
    ----------
    network:
        The sparse DNN to run.
    config:
        Pipeline parameters; ``config.threshold_layer`` is clamped to the
        network depth.
    device:
        Virtual device for cost accounting (a fresh one per engine by
        default).
    scratch:
        Optional :class:`~repro.gpu.memory.BufferPool`.  When given, the
        pre-convergence layers ping-pong between pooled output buffers via
        the kernels' ``out=`` parameters instead of allocating a fresh
        ``(N, B)`` block per layer — the allocation amortization a
        persistent :class:`~repro.serve.EngineSession` relies on.
    tracer:
        Optional :class:`~repro.obs.Tracer`.  When given, every run emits a
        request -> stage -> layer -> kernel span tree, with each kernel span
        carrying its :class:`~repro.gpu.costmodel.KernelCharge` (modeled
        flops/bytes next to wall time).  ``None`` means the shared no-op
        tracer — the hot path pays nothing.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry` for strategy-decision
        counters (``spmm_strategy_total``), pre-bound on the engine's plan.
    reuse:
        Optional :class:`~repro.core.reuse.CentroidCache`.  A warm session
        passes one so the layer-``t`` centroids (and their post-convergence
        evolution) carry across consecutive blocks: stage 2 then becomes
        *assign-only* on a cache hit — new columns are matched against the
        cached centroids and only their residues are computed, skipping
        sample pruning and the centroid feed-forward entirely.  The cache's
        staleness policy forces a full re-conversion (which refills the
        entry) when the block's assignment distance or residue density
        drifts past the configured budget.

    Every engine bakes its :class:`~repro.core.plan.StrategyPlan` (``plan``)
    at construction: each layer's kernel decision is made once from the
    network alone, no weight view is built, and every spMM of the engine's
    life dispatches through it.  So every engine serving a network runs the
    same kernel for the same block and gives the same bits, warm or cold.
    """

    name = "SNICIT"

    def __init__(
        self,
        network: SparseNetwork,
        config: SNICITConfig,
        device: VirtualDevice | None = None,
        scratch: BufferPool | None = None,
        tracer=None,
        metrics=None,
        reuse: CentroidCache | None = None,
    ):
        self.network = network
        self.config = config.for_network(network.num_layers)
        self.device = device or VirtualDevice()
        self.scratch = scratch
        self.tracer = as_tracer(tracer)
        self.reuse = reuse
        self.plan = bake_plan(network, metrics=metrics)
        # residue arithmetic (Eq. 4-6) needs a fixed activation width from the
        # threshold layer onward; reject shape-changing post-convergence
        # layers up front rather than failing mid-inference.  With
        # auto_threshold the detector may fire anywhere, so all layers must
        # be square.
        first_checked = 0 if self.config.auto_threshold else self.config.threshold_layer
        for i in range(first_checked, network.num_layers):
            layer = network.layers[i]
            if layer.n_out != layer.n_in:
                from repro.errors import ConfigError

                raise ConfigError(
                    f"post-convergence layer {i} is {layer.n_out}x{layer.n_in}; "
                    "SNICIT's residue representation requires square layers "
                    "after the threshold"
                )

    # ------------------------------------------------------------------ run
    def infer(self, y0: np.ndarray) -> InferenceResult:
        """Run the full pipeline on input block ``Y(0)`` of shape (N, B)."""
        y0 = self.network.validate_input(y0).astype(np.float32, copy=True)
        with self.tracer.span(
            "snicit.infer", cat="request", engine=self.name,
            benchmark=self.network.name, batch=y0.shape[1],
        ) as req_span:
            return self._infer_traced(y0, req_span)

    def _infer_traced(self, y0: np.ndarray, req_span) -> InferenceResult:
        """The four stages, each recorded by one :class:`_StageLedger`.

        Stage 2 ends in the same compacted form for both kinds of block:
        ``yhat`` (the block's centroids and residues), the mapper ``m`` and
        the non-empty columns ``ne_idx``.  A fresh conversion pins its
        centroids as columns of the block (``m == -1``); a centroid-cache hit
        has none — ``m`` is the cache assignment, every column is a residue
        against a cached centroid, and the active set may shrink to empty.
        One post-convergence loop and one recovery serve both, branching only
        at the update kernel and the recovery body.
        """
        net = self.network
        cfg = self.config
        tracer = self.tracer
        dev = self.device
        t = cfg.threshold_layer
        batch = y0.shape[1]
        ledger = _StageLedger(tracer, dev, net.num_layers)

        # ---- stage 1: pre-convergence sparse matrix multiplication -------
        y = y0
        detector = None
        with ledger.stage("pre_convergence") as stage_span:
            if cfg.auto_threshold:
                from repro.core.convergence import ConvergenceDetector

                detector = ConvergenceDetector(
                    tolerance=cfg.auto_tolerance,
                    patience=cfg.auto_patience,
                    probe_columns=cfg.sample_size,
                    probe_dim=cfg.downsample_dim or cfg.sample_size,
                )
                detector.observe(y)
            for i in range(t):
                lt0 = time.perf_counter()
                with tracer.span(f"layer {i}", cat="layer", layer=i):
                    y = self._feedforward_layer(i, y)
                ledger.layer_seconds[i] = time.perf_counter() - lt0
                if detector is not None and detector.observe(y):
                    t = i + 1  # converged early: convert here (paper §5 extension)
                    break
            stage_span.set(layers=t, threshold_layer=t)

        # Degenerate threshold: conversion never fires before the last layer
        # (explicit t == num_layers, or the auto detector staying quiet), so
        # there is nothing to compress.  Skip stages 2-4 entirely — sampling,
        # pruning, converting and then discarding the result would charge
        # conversion/recovery kernels to the cost model and pollute the stage
        # timings of what is really a pure feed-forward run.
        if t >= net.num_layers:
            for name in ("conversion", "post_convergence", "recovery"):
                ledger.skip(name)
            # pooled buffers are recycled by the next call; detach the result
            if self.scratch is not None and self.scratch.owns(y):
                y = y.copy()
            req_span.set(threshold_layer=t, n_centroids=0, degenerate_threshold=True)
            return ledger.result(y, self._stats(t, detector, 0, np.empty(0, np.int64), [], []))

        # ---- stage 2: cluster-based conversion ---------------------------
        # With a centroid cache, try the cross-block assign-only path first:
        # match the block against a previous conversion's centroids and keep
        # only the residues, skipping sampling/pruning/centroid feed-forward.
        reused = cached = None
        reuse_info: dict | None = None
        capture = False
        with ledger.stage("conversion") as stage_span:
            if self.reuse is not None:
                reused, reuse_info = self._try_reuse(y, t, stage_span)
            if reused is not None:
                cached, m, yhat, ne_rec = reused
                n_centroids = cached.n_centroids
                cent_cols = np.empty(0, np.int64)  # centroids live in the cache
            else:
                f0 = sample_columns(y, cfg.sample_size)
                if cfg.downsample_dim is not None:
                    f = sum_downsample(f0, cfg.downsample_dim)
                else:
                    f = f0
                col_idx = prune_samples(f, cfg.eta, cfg.eps)
                cent_cols = select_centroids(col_idx)
                if len(cent_cols) == 0:  # degenerate but possible with eta=inf-like configs
                    cent_cols = np.array([0], dtype=np.int64)
                n_centroids = int(len(cent_cols))
                with tracer.span("conversion_kernel", cat="kernel") as kernel_span:
                    yhat, m, ne_rec = convert(y, cent_cols, cfg.prune_threshold)
                    charge = KernelCharge(
                        name="conversion",
                        flops=float(f.size * f.shape[1] + y.size * len(cent_cols)),
                        bytes_read=float(y.nbytes * 2),
                        bytes_written=float(yhat.nbytes),
                    )
                    kernel_span.charge(charge, dev.charge(charge))
                capture = self.reuse is not None and self.reuse.accepts(n_centroids)
                if capture:
                    # fill-time staleness baseline: how far the block's own
                    # columns sit from their chosen centroids (pre-prune L0)
                    # and how dense their residues are post-prune
                    nc_mask = m != -1
                    if nc_mask.any():
                        baseline_distance = float(
                            (y[:, nc_mask] != y[:, m[nc_mask]]).mean()
                        )
                        baseline_density = float((yhat[:, nc_mask] != 0).mean())
                    else:
                        # degenerate conversion (every column its own
                        # centroid): no residue columns to baseline against,
                        # so fall back to the centroid set's own spacing —
                        # zero baselines would mark every later mix block
                        # stale and churn the cache
                        baseline_distance, baseline_density = (
                            degenerate_fill_baselines(
                                y[:, cent_cols], cfg.prune_threshold
                            )
                        )
            # centroids are always kept in ne_idx; a hit has none to keep
            ne_idx = np.flatnonzero(ne_rec | (m == -1)).astype(np.int64)
            if cached is None:
                stage_span.set(
                    n_centroids=n_centroids,
                    sampled_columns=int(f0.shape[1]),
                    active_columns=int(len(ne_idx)),
                )

        # ---- stage 3: post-convergence update -----------------------------
        # The representation is kept *compacted*: only the ne_idx columns of
        # Ŷ are materialized, exactly as the paper launches size(ne_idx)
        # blocks.  Emptiness of residue columns is monotone, so columns are
        # only ever dropped (at ne_idx refreshes), never re-added; centroids
        # are pinned.  ``owner`` is ``m`` over the compacted columns: -1 for a
        # pinned centroid, else the residue's centroid — a block column
        # (located in the compacted block by ``cent_pos``) for a fresh
        # conversion, a cache column for a hit, whose centroid side of Eq. 5
        # comes from the cached trajectory.
        if cached is None:
            hit_args, update_name, update_reads = {}, "update_centroids_residues", 2
        else:
            hit_args, update_name, update_reads = {"reuse": "hit"}, "update_residues_external", 3
        empties: list[int] = []
        active_trace: list[int] = []
        trajectory: list[np.ndarray] = []
        with ledger.stage("post_convergence", **hit_args) as stage_span:
            sub = yhat[:, ne_idx]
            owner = m[ne_idx]
            is_cent = owner == -1
            if cached is None:
                cent_pos = np.searchsorted(ne_idx, owner[~is_cent])
            for i in range(t, net.num_layers):
                lt0 = time.perf_counter()
                layer = net.layers[i]
                bias = layer.bias if isinstance(layer.bias, np.ndarray) else float(layer.bias)
                active = len(ne_idx)
                with tracer.span(
                    f"layer {i}", cat="layer", layer=i, active_columns=active
                ) as layer_span:
                    empty_now = batch  # only a hit's active set can run empty
                    if active:
                        with tracer.span("load_reduced_spmm", cat="kernel", layer=i) as ks:
                            z_sub, work, strategy = self._spmm(i, sub)
                            charge = charge_for(
                                strategy, work, layer.n_out, active, "load_reduced_spmm"
                            )
                            ks.set(strategy=strategy, work=int(work))
                            ks.charge(charge, dev.charge(charge))
                        if capture:
                            # centroid evolution for cross-block reuse: the
                            # spMM output of the centroid columns, in
                            # sorted-centroid order (the mask indexing copies)
                            trajectory.append(z_sub[:, is_cent])
                        with tracer.span(update_name, cat="kernel", layer=i) as ku:
                            if cached is None:
                                sub, ne_rec_sub = update_compact(
                                    z_sub, bias, is_cent, cent_pos, net.ymax,
                                    cfg.prune_threshold,
                                )
                            else:
                                sub, ne_rec_sub = update_residues_external(
                                    z_sub, cached.z_cent[i - t][:, owner], bias,
                                    net.ymax, cfg.prune_threshold,
                                )
                            charge = KernelCharge(
                                name=update_name,
                                flops=float(4 * layer.n_out * active),
                                bytes_read=float(update_reads * layer.n_out * active * 4),
                                bytes_written=float(layer.n_out * active * 4),
                            )
                            ku.charge(charge, dev.charge(charge))
                        empty_now = batch - int(ne_rec_sub.sum())
                        if (i - t) % cfg.ne_idx_interval == cfg.ne_idx_interval - 1:
                            keep = ne_rec_sub | is_cent
                            if not keep.all():
                                ne_idx = ne_idx[keep]
                                sub = sub[:, keep]
                                owner = owner[keep]
                                is_cent = is_cent[keep]
                                if cached is None:
                                    cent_pos = np.searchsorted(ne_idx, owner[~is_cent])
                    active_trace.append(active)
                    empties.append(empty_now)
                    layer_span.set(empty_columns=empty_now)
                ledger.layer_seconds[i] = time.perf_counter() - lt0
            stage_span.set(
                active_columns_start=active_trace[0],
                active_columns_end=int(len(ne_idx)),
                residues_pruned=empties[-1],
            )

        if capture:
            # the next same-mix block can now convert assign-only
            self.reuse.fill(
                t,
                cent_y=y[:, cent_cols],
                z_cent=trajectory,
                cent_final=sub[:, is_cent],
                baseline_distance=baseline_distance,
                baseline_density=baseline_density,
                network=net,
            )

        # ---- stage 4: final results recovery ------------------------------
        with ledger.stage("recovery", **hit_args):
            with tracer.span("recovery_kernel", cat="kernel") as kernel_span:
                if cached is None:
                    # scatter + centroid add-back in one pass: the full-width
                    # Ŷ(L) never materializes separately from the result
                    y_final = recover_compact(sub, ne_idx, m, net.output_dim)
                    reads = y_final.nbytes
                else:
                    y_final = cached.cent_final[:, m]  # gather copies
                    y_final[:, ne_idx] += sub
                    reads = 2 * y_final.nbytes
                charge = KernelCharge(
                    name="recovery",
                    flops=float(y_final.size),
                    bytes_read=float(reads),
                    bytes_written=float(y_final.nbytes),
                )
                kernel_span.charge(charge, dev.charge(charge))

        stats = self._stats(t, detector, n_centroids, cent_cols, active_trace, empties)
        if reuse_info is not None:
            stats["centroid_reuse"] = reuse_info
        req_span.set(
            threshold_layer=t,
            n_centroids=n_centroids,
            active_columns_end=int(len(ne_idx)),
            residues_pruned=empties[-1],
        )
        if cached is not None:
            req_span.set(centroid_reuse="hit")
        return ledger.result(y_final, stats)

    def _stats(self, t, detector, n_centroids, centroid_cols, active_trace, empties) -> dict:
        """``InferenceResult.stats`` of one run (``centroid_reuse`` aside)."""
        return {
            "threshold_layer": t,
            "auto_detected": detector is not None and t < self.config.threshold_layer,
            "convergence_trace": list(detector.trace) if detector is not None else [],
            "n_centroids": n_centroids,
            "centroid_cols": centroid_cols,
            "active_columns_trace": np.array(active_trace),
            "empty_columns_trace": np.array(empties),
        }

    # ------------------------------------------------- cross-block reuse
    def _try_reuse(self, y: np.ndarray, t: int, stage_span):
        """Attempt assign-only conversion against the centroid cache.

        Returns ``((entry, assign, residues, ne_rec), info)`` on a hit or
        ``(None, info)`` when the cache is cold or the staleness policy
        rejects the block; ``info`` is the JSON-safe record that lands in
        ``result.stats['centroid_reuse']`` either way.
        """
        cfg = self.config
        dev = self.device
        tracer = self.tracer
        cached = self.reuse.lookup(t, y.shape[0], network=self.network)
        if cached is None:
            stage_span.set(reuse="miss")
            return None, {"enabled": True, "hit": False, "reason": "cold"}
        with tracer.span(
            "assign_cached_kernel", cat="kernel", n_centroids=cached.n_centroids
        ) as ks:
            assign, dist = assign_cached_centroids(y, cached.cent_y)
            charge = assign_charge(y.shape[0], y.shape[1], cached.n_centroids)
            ks.charge(charge, dev.charge(charge))
        with tracer.span("reuse_residues_kernel", cat="kernel") as kr:
            residues = y - cached.cent_y[:, assign]
            if cfg.prune_threshold > 0:
                residues[np.abs(residues) < cfg.prune_threshold] = 0
            charge = KernelCharge(
                name="reuse_residues",
                flops=float(residues.size),
                bytes_read=float(y.nbytes) * 2,
                bytes_written=float(residues.nbytes),
            )
            kr.charge(charge, dev.charge(charge))
        nonzero = residues != 0
        mean_distance = float(dist.mean()) / y.shape[0] if dist.size else 0.0
        density = float(nonzero.mean()) if residues.size else 0.0
        info = {
            "enabled": True,
            "n_centroids": cached.n_centroids,
            "assignment_distance": mean_distance,
            "residue_density": density,
        }
        if not self.reuse.admit(cached, mean_distance, density):
            stage_span.set(reuse="invalidated")
            info.update(hit=False, reason="stale")
            return None, info
        info["hit"] = True
        stage_span.set(reuse="hit", n_centroids=cached.n_centroids)
        return (cached, assign, residues, nonzero.any(axis=0)), info

    # ------------------------------------------------------------- helpers
    def _spmm(self, i: int, y: np.ndarray, out: np.ndarray | None = None):
        """One spMM dispatch through the engine's baked plan."""
        return self.plan.dispatch(self.network, i, y, out=out)

    def _feedforward_layer(self, i: int, y: np.ndarray) -> np.ndarray:
        """One pre-convergence layer.

        Uses the shared champion kernel (§3.1: "The implementation of any
        previous SDGC champion can be easily incorporated here"), which is
        exactly what the XY-2021 baseline runs — so pre-convergence latency
        matches XY's per-layer latency, as the paper reports (§4.1).
        """
        net = self.network
        layer = net.layers[i]
        out = None
        if self.scratch is not None:
            # ping-pong: never hand the kernel its own input as the output
            out = self.scratch.take((layer.n_out, y.shape[1]), y.dtype, avoid=y)
        with self.tracer.span("pre_spmm", cat="kernel", layer=i) as ks:
            z, work, strategy = self._spmm(i, y, out=out)
            z += layer.bias_column()
            charge = charge_for(strategy, work, layer.n_out, y.shape[1], "pre_spmm")
            ks.set(strategy=strategy, work=int(work))
            ks.charge(charge, self.device.charge(charge))
        return net.activation(z)
