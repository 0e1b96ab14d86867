"""Shared inference-network representation.

Every engine in this repo (SNICIT and the three champion baselines) consumes
a :class:`SparseNetwork`: an ordered stack of sparse linear layers with a
shared bounded-ReLU activation

    sigma(x) = min(max(x + bias, 0), ymax)

which is the SDGC contest activation (ymax = 32) and, with ymax = 1, the
activation used for the paper's medium-scale DNNs (§4.2).

Layer weights are stored as CSR; ELL and CSC views are derived lazily and
cached because different engines prefer different layouts (ELL for the
fixed-fan-in Radix-Net kernels, CSC for active-column gathering).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ell import ELLMatrix
from repro.sparse.convert import csr_to_csc

__all__ = ["LayerSpec", "SparseNetwork", "clamped_relu"]


def clamped_relu(x: np.ndarray, ymax: float) -> np.ndarray:
    """The SDGC activation: ReLU with an upper bound, applied in place."""
    np.clip(x, 0.0, ymax, out=x)
    return x


@dataclass
class LayerSpec:
    """One sparse linear layer: ``y = sigma(W @ x + bias)``.

    ``bias`` may be a scalar (SDGC uses one constant per benchmark) or a
    per-output-neuron vector (trained medium-scale DNNs).
    """

    weight: CSRMatrix
    bias: float | np.ndarray = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.bias, np.ndarray) and self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(
                f"bias vector {self.bias.shape} does not match {self.weight.shape[0]} outputs"
            )

    @property
    def n_out(self) -> int:
        return self.weight.shape[0]

    @property
    def n_in(self) -> int:
        return self.weight.shape[1]

    def bias_column(self) -> np.ndarray:
        """Bias as an ``(n_out, 1)`` column for broadcasting over a batch."""
        if isinstance(self.bias, np.ndarray):
            return self.bias[:, None]
        return np.full((self.n_out, 1), self.bias, dtype=np.float32)


class SparseNetwork:
    """An immutable stack of sparse layers with a bounded-ReLU activation."""

    def __init__(
        self,
        layers: list[LayerSpec],
        ymax: float = 32.0,
        name: str = "network",
        meta: dict[str, Any] | None = None,
    ):
        if not layers:
            raise ConfigError("a network needs at least one layer")
        if ymax <= 0:
            raise ConfigError(f"ymax must be positive, got {ymax}")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.n_out != nxt.n_in:
                raise ShapeError(
                    f"layer {prev.name or '?'} outputs {prev.n_out} but "
                    f"{nxt.name or '?'} expects {nxt.n_in}"
                )
        self.layers = list(layers)
        self.ymax = float(ymax)
        self.name = name
        self.meta: dict[str, Any] = dict(meta or {})
        self._ell_cache: dict[int, ELLMatrix] = {}
        self._csc_cache: dict[int, CSCMatrix] = {}
        self._dense_cache: dict[int, np.ndarray] = {}
        self._fingerprint: str | None = None

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].n_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].n_out

    @property
    def total_nnz(self) -> int:
        return sum(layer.weight.nnz for layer in self.layers)

    def activation(self, x: np.ndarray) -> np.ndarray:
        """Apply the network's clamped ReLU in place and return ``x``."""
        return clamped_relu(x, self.ymax)

    def ell(self, i: int) -> ELLMatrix:
        """Layer ``i``'s weight in ELL format (cached)."""
        if i not in self._ell_cache:
            self._ell_cache[i] = ELLMatrix.from_csr(self.layers[i].weight)
        return self._ell_cache[i]

    def csc(self, i: int) -> CSCMatrix:
        """Layer ``i``'s weight in CSC format (cached)."""
        if i not in self._csc_cache:
            self._csc_cache[i] = csr_to_csc(self.layers[i].weight)
        return self._csc_cache[i]

    def dense(self, i: int) -> np.ndarray:
        """Layer ``i``'s weight as a dense array (cached).

        Only sensible for the medium-scale networks whose layers are 50-60 %
        dense; SDGC layers (density < 1 %) should stay in ELL/CSR.
        """
        if i not in self._dense_cache:
            self._dense_cache[i] = self.layers[i].weight.to_dense().astype(np.float32)
        return self._dense_cache[i]

    @property
    def fingerprint(self) -> str:
        """Stable identity of this network: name, topology, and weight digest.

        State that outlives a single network — a
        :class:`~repro.core.reuse.CentroidCache` shared in a multi-model
        server, a :mod:`repro.core.warmstore` artifact — keys itself by
        this, so two networks that happen to share a layer index can never
        replay each other's state.  Shape and nnz
        alone do not separate same-topology networks built from different
        seeds, so the per-layer weight sums are folded in too.  Computed
        once (O(total nnz)) and cached; layers are immutable after
        construction.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=8)
            digest.update(self.name.encode())
            digest.update(np.float64(self.ymax).tobytes())
            for layer in self.layers:
                digest.update(
                    np.array(
                        [layer.n_in, layer.n_out, layer.weight.nnz], dtype=np.int64
                    ).tobytes()
                )
                digest.update(np.float64(layer.weight.data.sum()).tobytes())
                bias = layer.bias
                bias_sum = bias.sum() if isinstance(bias, np.ndarray) else bias
                digest.update(np.float64(bias_sum).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    # ------------------------------------------------- view-cache accounting
    def view_nbytes(self) -> int:
        """Bytes retained by the cached ELL/CSC/dense weight views.

        This is the "pinned weight views" share of a warm serving session's
        footprint — what a :class:`~repro.gpu.memory.MemoryBudget` meters
        and :meth:`drop_views` releases on warm-to-cold demotion.
        """
        total = 0
        for ell in self._ell_cache.values():
            total += ell.idx.nbytes + ell.val.nbytes
        for csc in self._csc_cache.values():
            total += csc.indptr.nbytes + csc.indices.nbytes + csc.data.nbytes
        for dense in self._dense_cache.values():
            total += dense.nbytes
        return total

    def drop_views(self) -> int:
        """Release every cached weight view; returns the bytes freed.

        The CSR source of truth is untouched, so views rebuild lazily (and
        identically) on next use — demotion is a perf event, never a
        correctness one.  Note the caches live on the network object: if two
        sessions share one network instance, dropping views cools both.
        """
        freed = self.view_nbytes()
        self._ell_cache.clear()
        self._csc_cache.clear()
        self._dense_cache.clear()
        return freed

    def validate_input(self, y0: np.ndarray) -> np.ndarray:
        y0 = np.asarray(y0)
        if y0.ndim != 2 or y0.shape[0] != self.input_dim:
            raise ShapeError(
                f"input must be ({self.input_dim}, B), got {y0.shape}"
            )
        return y0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseNetwork({self.name!r}, layers={self.num_layers}, "
            f"neurons={self.input_dim}, nnz={self.total_nnz})"
        )
