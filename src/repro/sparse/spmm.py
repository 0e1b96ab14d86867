"""Sparse-times-dense matrix multiplication kernels.

Every engine in this repo ultimately computes ``W @ Y`` where ``W`` is a
sparse ``(N_out, N_in)`` weight matrix and ``Y`` is a dense ``(N_in, B)``
activation block.  Four strategies are provided, mirroring the kernel design
space that XY-2021 searches:

``spmm_reduceat``
    Row-split CSR: expand each nonzero's contribution row of ``Y`` and
    segment-sum per output row.  General-purpose workhorse.
``spmm_ell``
    ELLPACK: ``width`` fully-vectorized gather+FMA passes; fastest for the
    fixed-fan-in Radix-Net weights.
``spmm_scatter``
    Nonzero-parallel scatter with ``np.add.at`` (atomic-add analogue); poor
    on CPU exactly as atomics-heavy kernels are poor on GPU — it exists so
    the XY cost model has a genuinely losing strategy to reject.
``spmm_masked``
    Column-masked CSR: drop every W-nonzero whose input neuron is inactive
    before multiplying.  This is simultaneously BF-2019's active-row
    compaction and SNICIT's load-reduced spMM (§3.3.1): work scales with the
    *active* input rows, not with N.

All kernels accumulate in the dtype of ``Y``.  Each kernel is deterministic:
the same operands give the same bits every call, whatever the chunking.
Different kernels do *not* round alike: ``spmm_masked``, ``spmm_ell`` and
``spmm_reduceat`` sum each output element in different orders, and on real
SDGC activations they differ in the last bits on 9 of 24 layers of 256-24
and 14 of 24 of 1024-24 (max |Δ| 7.6e-6).  They agree to ``allclose``
(tested); a caller that needs equal bits must run the same kernel, which is
what a :class:`~repro.core.plan.StrategyPlan` guarantees per block.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.gpu.costmodel import KernelCharge
from repro.sparse.csr import CSRMatrix, _segment_sum
from repro.sparse.ell import ELLMatrix

__all__ = [
    "spmm",
    "spmm_reduceat",
    "spmm_ell",
    "spmm_scatter",
    "spmm_masked",
    "spmm_colwise",
    "spmm_tiled",
    "spmm_charge",
]

#: Cap (elements) on the nnz-by-B scratch block built by the chunked kernels.
#: Sized so the contrib block stays L2-resident (512 KiB at float32): letting
#: it grow to DRAM scale makes ``np.add.reduceat`` memory-bound and costs
#: 2-4x wall time at batch >= 64 for the same element work.  Chunk boundaries
#: always align with whole rows/columns, so the budget never changes the
#: per-element accumulation order — results stay bitwise identical.
_SCRATCH_ELEMENTS = 131_072


def _check_operands(w_shape: tuple[int, int], y: np.ndarray) -> None:
    if y.ndim != 2:
        raise ShapeError(f"Y must be 2-D, got {y.ndim}-D")
    if w_shape[1] != y.shape[0]:
        raise ShapeError(f"W {w_shape} incompatible with Y {y.shape}")


def spmm_reduceat(w: CSRMatrix, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-split CSR spMM: ``out = W @ Y``.

    Processes rows in chunks so the ``(chunk_nnz, B)`` scratch block stays
    within a fixed memory budget (cache friendliness, per the HPC guides).
    """
    _check_operands(w.shape, y)
    n_out = w.shape[0]
    b = y.shape[1]
    if out is None:
        out = np.zeros((n_out, b), dtype=y.dtype)
    else:
        out[...] = 0
    if w.nnz == 0 or b == 0:
        return out
    # Chunk boundaries walk indptr so the (chunk_nnz, B) scratch block is
    # bounded by the *actual* nonzero span, not the mean nnz/row — a skewed
    # row distribution must not blow past the budget.  A single row wider
    # than the budget is processed alone (its scratch is irreducible).
    nnz_budget = max(1, _SCRATCH_ELEMENTS // max(1, b))
    r0 = 0
    while r0 < n_out:
        r1 = int(np.searchsorted(w.indptr, w.indptr[r0] + nnz_budget, side="right")) - 1
        r1 = min(n_out, max(r1, r0 + 1))
        lo, hi = w.indptr[r0], w.indptr[r1]
        if lo == hi:
            r0 = r1
            continue
        contrib = w.data[lo:hi, None] * y[w.indices[lo:hi], :]
        local_indptr = w.indptr[r0 : r1 + 1] - lo
        out[r0:r1] = _segment_sum(contrib, local_indptr, r1 - r0)
        r0 = r1
    return out


def spmm_ell(w: ELLMatrix, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ELLPACK spMM: ``width`` gather+FMA passes over the full batch."""
    _check_operands(w.shape, y)
    n_out = w.shape[0]
    if out is None:
        out = np.zeros((n_out, y.shape[1]), dtype=y.dtype)
    else:
        out[...] = 0
    for k in range(w.width):
        out += w.val[:, k, None] * y[w.idx[:, k], :]
    return out


def spmm_scatter(w: CSRMatrix, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Nonzero-parallel scatter spMM (atomic-add analogue; deliberately slow)."""
    _check_operands(w.shape, y)
    if out is None:
        out = np.zeros((w.shape[0], y.shape[1]), dtype=y.dtype)
    else:
        out[...] = 0
    if w.nnz == 0:
        return out
    rows = np.repeat(np.arange(w.shape[0], dtype=np.int64), w.row_nnz)
    contrib = w.data[:, None] * y[w.indices, :]
    np.add.at(out, rows, contrib)
    return out


def spmm_masked(
    w: CSRMatrix,
    y: np.ndarray,
    col_mask: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Column-masked spMM: only W-nonzeros whose input row is active contribute.

    ``col_mask`` is a boolean vector over input neurons (rows of ``Y``).
    Returns ``(out, active_nnz)`` where ``active_nnz`` is the number of
    W-nonzeros actually multiplied — the work metric charged to the cost
    model by load-reduced engines.
    """
    _check_operands(w.shape, y)
    col_mask = np.asarray(col_mask, dtype=bool)
    if col_mask.shape != (w.shape[1],):
        raise ShapeError("col_mask must have one entry per W column")
    n_out = w.shape[0]
    if out is None:
        out = np.empty((n_out, y.shape[1]), dtype=y.dtype)
    sel = col_mask[w.indices]
    active_nnz = int(sel.sum())
    if active_nnz == 0:
        out[...] = 0
        return out, 0
    # per-row surviving counts -> new segment boundaries
    counts = _segment_sum(sel.astype(np.int64), w.indptr, n_out)
    indptr = np.zeros(n_out + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    contrib = w.data[sel, None] * y[w.indices[sel], :]
    out[...] = _segment_sum(contrib, indptr, n_out)
    return out, active_nnz


def spmm_colwise(
    w_dense: np.ndarray, y: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Activation-driven spMM: work scales with ``nnz(Y)``, not with N x B.

    This is BF-2019's kernel shape for dense-ish weights (the paper adopts
    BF's kernels for its medium-scale experiments, §4.2.1): each nonzero
    activation entry ``Y[i, j]`` scatters ``W[:, i] * Y[i, j]`` into output
    column ``j``.  Column-major pair ordering keeps per-column contributions
    contiguous so a segment sum finishes each column.

    Returns ``(out, nnz)`` where ``nnz`` is the number of activation
    nonzeros processed (the cost-model work unit: each costs one W-column
    FMA pass).
    """
    w_dense = np.asarray(w_dense)
    if w_dense.ndim != 2:
        raise ShapeError("W must be a dense 2-D array")
    _check_operands(w_dense.shape, y)
    n_out = w_dense.shape[0]
    b = y.shape[1]
    if out is None:
        out = np.empty((n_out, b), dtype=y.dtype)
    cols, rows = np.nonzero(y.T)  # sorted by column, then row
    nnz = len(cols)
    if nnz == 0:
        out[...] = 0
        return out, 0
    vals = y[rows, cols]
    counts = np.bincount(cols, minlength=b)
    indptr = np.zeros(b + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    w_t = w_dense.T  # (N_in, N_out); row gather keeps memory access contiguous
    pairs_per_chunk = max(1, _SCRATCH_ELEMENTS // max(1, n_out))
    acc = np.empty((b, n_out), dtype=y.dtype)
    # chunk along whole columns so each segment stays within one chunk
    col_lo = 0
    while col_lo < b:
        col_hi = col_lo + 1
        while col_hi < b and indptr[col_hi + 1] - indptr[col_lo] <= pairs_per_chunk:
            col_hi += 1
        lo, hi = indptr[col_lo], indptr[col_hi]
        contrib = w_t[rows[lo:hi]] * vals[lo:hi, None]
        local_indptr = indptr[col_lo : col_hi + 1] - lo
        acc[col_lo:col_hi] = _segment_sum(contrib, local_indptr, col_hi - col_lo)
        col_lo = col_hi
    out[...] = acc.T
    return out, nnz


def spmm_tiled(
    w: CSRMatrix, y: np.ndarray, tile_cols: int = 256, out: np.ndarray | None = None
) -> np.ndarray:
    """Column-tiled spMM: process the batch in ``tile_cols``-wide slabs.

    The tiling point of the optimization space (Guo et al. / Sputnik-style):
    bounding the active slab of ``Y`` keeps it cache-resident while the
    weight nonzeros stream.  Results are identical to
    :func:`spmm_reduceat` (same per-element accumulation order).
    """
    _check_operands(w.shape, y)
    if tile_cols < 1:
        raise ShapeError("tile_cols must be >= 1")
    n_out, b = w.shape[0], y.shape[1]
    if out is None:
        out = np.zeros((n_out, b), dtype=y.dtype)
    else:
        out[...] = 0
    for lo in range(0, b, tile_cols):
        hi = min(b, lo + tile_cols)
        out[:, lo:hi] = spmm_reduceat(w, np.ascontiguousarray(y[:, lo:hi]))
    return out


def spmm(w, y: np.ndarray, method: str = "auto") -> np.ndarray:
    """Dispatching spMM.  ``method`` in {'auto', 'reduceat', 'ell', 'scatter'}."""
    if method == "auto":
        method = "ell" if isinstance(w, ELLMatrix) else "reduceat"
    if method == "ell":
        if not isinstance(w, ELLMatrix):
            w = ELLMatrix.from_csr(w)
        return spmm_ell(w, y)
    if isinstance(w, ELLMatrix):
        w = w.to_csr()
    if method == "reduceat":
        return spmm_reduceat(w, y)
    if method == "scatter":
        return spmm_scatter(w, y)
    raise ValueError(f"unknown spMM method {method!r}")


def spmm_charge(
    nnz: int, batch: int, n_out: int, dtype_bytes: int = 4, name: str = "spmm"
) -> KernelCharge:
    """Cost-model charge for one spMM: 2 flops and one Y-row-element load per
    nonzero-column pair, plus streaming the output once."""
    return KernelCharge(
        name=name,
        flops=2.0 * nnz * batch,
        bytes_read=float(nnz) * (batch * dtype_bytes + 12),  # Y row + (index, value)
        bytes_written=float(n_out) * batch * dtype_bytes,
    )
