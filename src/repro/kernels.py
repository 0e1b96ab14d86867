"""The shared "champion" spMM kernel with strategy selection.

XY-2021's contribution is an spMM *optimization space* searched with a cost
model.  For the Radix-Net and medium workloads the space collapses to one
rule with a network-only half and a per-block half:

* a dense-ish layer (weight density at or above
  :data:`DENSE_WEIGHT_THRESHOLD`) always runs the activation-driven
  column-wise kernel;
* a sparse layer picks, per block, the column-masked kernel
  :func:`~repro.sparse.spmm.spmm_masked` when the activation block has many
  all-zero rows (dead neurons across the whole batch — the dominant regime
  deep in SDGC nets), whose work scales with the *live* rows;
* otherwise the batch-parallel kernel in the layer's storage format: ELL for
  near-uniform fan-in, CSR row-split when ELL padding would waste work.

:func:`plan_layer` is the network-only half and :func:`planned_spmm` the
per-block half; they are the rule's only copy.  SNICIT §3.1/§3.3.1 states it
adopts the champions' kernels for both its pre-convergence and load-reduced
spMM stages, so this module is used by the XY-2021 baseline *and* by SNICIT
— the comparison between them then isolates exactly what the paper isolates:
the value of compression at inference time, not kernel differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.gpu.costmodel import KernelCharge
from repro.network import SparseNetwork
from repro.sparse.convert import preferred_spmm_format
from repro.sparse.spmm import spmm_colwise, spmm_ell, spmm_masked, spmm_reduceat

__all__ = [
    "LayerPlan",
    "plan_layer",
    "planned_spmm",
    "champion_spmm",
    "baseline_spmm",
    "charge_for",
    "l0_nearest",
    "assign_cached_centroids",
    "assign_charge",
    "LIVE_ROW_THRESHOLD",
    "DENSE_WEIGHT_THRESHOLD",
]

#: Above this live-row fraction, masking overhead outweighs the skipped work.
LIVE_ROW_THRESHOLD = 0.6

#: Above this weight density the layer counts as "dense-ish" (medium-scale
#: 50-60 % layers) and the activation-driven column-wise kernel — BF-2019's
#: kernel shape, which the paper adopts for its medium experiments — wins.
DENSE_WEIGHT_THRESHOLD = 0.2


@dataclass(frozen=True)
class LayerPlan:
    """One layer's kernel decision, fixed by the network alone.

    ``strategy`` is ``'colwise'`` (static: the layer is dense-ish) or
    ``'dynamic'`` (each block picks ``'masked'`` below
    :data:`LIVE_ROW_THRESHOLD` live rows, the batch-parallel kernel above
    it).  ``format`` names the storage the layer runs from: ``'dense'`` for
    colwise, ``'ell'`` or ``'csr'`` for the batch-parallel branch of a
    dynamic layer.
    """

    index: int
    strategy: str
    format: str


def plan_layer(net: SparseNetwork, i: int) -> LayerPlan:
    """The network-only half of the champion rule for layer ``i``.

    Decision only: no weight view is built, so a cold engine stays lazy.
    """
    weight = net.layers[i].weight
    if weight.density >= DENSE_WEIGHT_THRESHOLD:
        return LayerPlan(i, "colwise", "dense")
    return LayerPlan(i, "dynamic", preferred_spmm_format(weight))


def planned_spmm(
    net: SparseNetwork,
    lp: LayerPlan,
    y: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int, str]:
    """Compute ``W(i) @ y`` by layer plan ``lp``; the block-dependent half.

    Returns ``(z, work, strategy)``: ``work`` is the kernel's cost-model
    unit count — multiplied weight nonzeros for the batch-parallel kernels
    ('masked'/'ell'/'csr', each unit costs a length-B FMA row), activation
    nonzeros for the column-wise kernel (each unit costs a length-N_out FMA
    column).  ``out`` is an optional preallocated ``(n_out, B)`` result
    buffer (must not alias ``y``).

    A dynamic layer scans the block's live rows and picks ``'masked'`` below
    :data:`LIVE_ROW_THRESHOLD`.  That choice is per block, and it can move
    the last bits: ``'masked'``, ``'ell'`` and ``'csr'`` do not sum each
    element in the same order.  The same plan and the same block always run
    the same kernel, so they always give the same bits.
    """
    if lp.strategy == "colwise":
        z, nnz = spmm_colwise(net.dense(lp.index), y, out=out)
        return z, nnz, "colwise"
    layer = net.layers[lp.index]
    live = (y != 0).any(axis=1)
    frac = float(live.mean()) if live.size else 0.0
    if frac < LIVE_ROW_THRESHOLD:
        z, active_nnz = spmm_masked(layer.weight, y, live, out=out)
        return z, active_nnz, "masked"
    if lp.format == "ell":
        z = spmm_ell(net.ell(lp.index), y, out=out)
        return z, layer.weight.nnz, "ell"
    z = spmm_reduceat(layer.weight, y, out=out)
    return z, layer.weight.nnz, "csr"


def champion_spmm(
    net: SparseNetwork, i: int, y: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, int, str]:
    """Compute ``W(i) @ y`` with the champion rule, deciding layer ``i`` now.

    The unplanned form of :func:`planned_spmm` for callers that hold no
    :class:`~repro.core.plan.StrategyPlan` (XY-2021, the figure and ablation
    harnesses); a SNICIT engine decides every layer once, at construction.
    """
    return planned_spmm(net, plan_layer(net, i), y, out)


def baseline_spmm(net: SparseNetwork, i: int, y: np.ndarray) -> tuple[np.ndarray, int, str]:
    """The BF-2019 / SNIG-2020 kernel: plain per-topology strategy.

    ELL for the fixed-fan-in Radix-Net layers, the activation-driven
    column-wise kernel for dense-ish (medium-scale) layers.  No live-row
    masking — that refinement belongs to XY's optimization space.
    """
    layer = net.layers[i]
    if layer.weight.density >= DENSE_WEIGHT_THRESHOLD:
        z, nnz = spmm_colwise(net.dense(i), y)
        return z, nnz, "colwise"
    z = spmm_ell(net.ell(i), y)
    return z, layer.weight.nnz, "ell"


#: Cap (elements) on the (N, chunk, C) inequality block built by l0_nearest;
#: keeps the distance scratch cache-resident while amortizing the Python
#: loop over usefully large column chunks.
_ASSIGN_ELEMENTS = 2_000_000


def l0_nearest(
    y: np.ndarray, cents: np.ndarray, chunk: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest column of ``cents`` for every column of ``y``, by L0 distance.

    The one distance primitive behind both in-block assignment (Algorithm 2,
    Eq. 3) and cross-block cached assignment: exact element inequality
    counts, ties to the lowest centroid index (argmin), chunked over batch
    columns so the ``(N, chunk, C)`` inequality scratch stays cache-sized.
    Chunking never changes the result — each column's distance row is
    computed independently.  Returns ``(idx, dist)`` arrays of length ``B``.
    """
    b = y.shape[1]
    n_cents = cents.shape[1]
    if chunk is None:
        chunk = max(1, _ASSIGN_ELEMENTS // max(1, y.shape[0] * n_cents))
    idx = np.empty(b, dtype=np.int64)
    dist = np.empty(b, dtype=np.int64)
    for lo in range(0, b, chunk):
        hi = min(b, lo + chunk)
        # (N, chunk, C) inequality count -> (chunk, C)
        d = (y[:, lo:hi, None] != cents[:, None, :]).sum(axis=0)
        best = d.argmin(axis=1)
        idx[lo:hi] = best
        dist[lo:hi] = d[np.arange(hi - lo), best]
    return idx, dist


def assign_cached_centroids(
    y: np.ndarray, cents: np.ndarray, chunk: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Batched closest-centroid assignment against *cached* centroids.

    The cross-block twin of Algorithm 2's distance loop: every column of
    ``y`` (``(N, B)``) is matched to its nearest column of ``cents``
    (``(N, C)``, a previous block's centroid activations) by exact L0
    distance (Eq. 3).  Ties resolve to the lowest centroid index, matching
    :func:`repro.core.conversion.assign_centroids`, so a block identical to
    the one that filled the cache reproduces its in-block assignment.

    Returns ``(assign, dist)``: per-column centroid positions into ``cents``
    and the L0 distances (element inequality counts) — the distances feed
    the :class:`~repro.core.reuse.CentroidCache` staleness policy.
    """
    if y.ndim != 2 or cents.ndim != 2:
        raise ShapeError("Y and centroids must be 2-D")
    if y.shape[0] != cents.shape[0]:
        raise ShapeError(
            f"Y has {y.shape[0]} rows but cached centroids have {cents.shape[0]}"
        )
    if cents.shape[1] == 0:
        raise ConfigError("need at least one cached centroid")
    return l0_nearest(y, cents, chunk=chunk)


def assign_charge(n: int, batch: int, n_centroids: int) -> KernelCharge:
    """Cost-model charge for one :func:`assign_cached_centroids` launch."""
    return KernelCharge(
        name="assign_cached_centroids",
        flops=float(n) * batch * n_centroids,
        bytes_read=float(n) * (batch + n_centroids) * 4,
        bytes_written=float(batch) * 16,
    )


def charge_for(strategy: str, work: int, n_out: int, batch: int, name: str) -> KernelCharge:
    """Cost-model charge for one champion/baseline kernel invocation."""
    if strategy == "colwise":
        return KernelCharge(
            name=name,
            flops=2.0 * work * n_out,
            bytes_read=float(work) * (n_out * 4 + 8),
            bytes_written=float(n_out) * batch * 4,
        )
    return KernelCharge(
        name=name,
        flops=2.0 * work * batch,
        bytes_read=float(work) * (batch * 4 + 12),
        bytes_written=float(n_out) * batch * 4,
    )
