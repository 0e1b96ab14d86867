"""Cross-block centroid reuse (the warm conversion cache).

Under micro-batched serving every block pays the full SNICIT conversion —
sampling, sum downsampling, sample pruning (Algorithm 1), closest-centroid
residues (Algorithm 2) — even when consecutive blocks come from the same
traffic mix and would produce near-identical centroids.  Caching structure
across requests is the trick SNICIT itself plays *within* one inference;
:class:`CentroidCache` extends it *across* inferences, the way cache-based
early exit (:mod:`repro.related.cache_exit`) reuses historical activations
and SparseDNN-style engines specialize to the observed sparsity pattern.

One :class:`CachedConversion` entry stores, for a threshold layer ``t``:

* the centroid activations ``Y*(t)`` fixed at conversion time,
* their whole post-convergence evolution — the per-layer spMM outputs
  ``z* = W(i) @ Y*(i)`` that residue columns need for Eq. 5, and the final
  centroid activations ``Y*(l)`` that recovery (Eq. 6) adds back,
* the fill-time quality baseline (mean assignment L0 distance and mean
  post-prune residue density).

A warm hit turns stage 2 into *assign-only*: new columns are matched
against the cached centroids (the downsample-F / L0-distance machinery of
Algorithms 1-2, batched in :func:`repro.kernels.assign_cached_centroids`)
and only their residues are computed — sample pruning and the centroid
feed-forward are skipped entirely.  Because the residue algebra of Eq. 4-6
telescopes exactly for *any* centroid (``W(y* + r) = Wy* + Wr``), the
assign-only path is lossless whenever residue pruning is off, and matches
the paper's approximation quality otherwise.

Quality is guarded by an explicit staleness policy: each reused block's
mean assignment distance and residue density are compared against the
fill-time baseline scaled by ``1 + tolerance``; drifting past either budget
invalidates the entry and forces a full re-conversion (which refills the
cache with the new mix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry

__all__ = ["CachedConversion", "CentroidCache", "degenerate_fill_baselines"]

#: Cap (elements) on the pairwise scratch in degenerate_fill_baselines.
_PAIRWISE_ELEMENTS = 2_000_000


def degenerate_fill_baselines(
    cent_y: np.ndarray, prune_threshold: float = 0.0
) -> tuple[float, float]:
    """Staleness baselines for a *degenerate* fill (every column a centroid).

    The natural fill-time baseline — how far the block's residue columns sit
    from their centroids — does not exist when sample pruning kept every
    column: there are no residue columns, so the naive baselines are 0.0 and
    the ``baseline * (1 + tolerance)`` budget admits nothing.  Every
    same-mix block then invalidates the entry as "stale" and refills it,
    block after block, which is exactly the medium-tier mix-stream churn
    this helper fixes.

    The self-consistent scale for such an entry is the centroid set's own
    spacing: each centroid's L0 distance to its nearest *other* centroid
    (and the post-prune density of that nearest-neighbour residue) is what a
    same-mix column's assignment cost looks like.  Returns
    ``(baseline_distance, baseline_density)`` — distance as a fraction of N,
    matching :meth:`CentroidCache.admit`'s units.
    """
    n, c = cent_y.shape
    if n == 0 or c < 2:
        return 0.0, 0.0
    nn = np.empty(c, dtype=np.int64)
    nn_dist = np.empty(c, dtype=np.int64)
    chunk = max(1, _PAIRWISE_ELEMENTS // max(1, n * c))
    for lo in range(0, c, chunk):
        hi = min(c, lo + chunk)
        # (N, chunk, C) inequality count -> (chunk, C); mask self-distances
        d = (cent_y[:, lo:hi, None] != cent_y[:, None, :]).sum(axis=0)
        d[np.arange(hi - lo), np.arange(lo, hi)] = n + 1
        best = d.argmin(axis=1)
        nn[lo:hi] = best
        nn_dist[lo:hi] = d[np.arange(hi - lo), best]
    residues = cent_y - cent_y[:, nn]
    if prune_threshold > 0:
        residues[np.abs(residues) < prune_threshold] = 0
    return (
        float(nn_dist.mean()) / n,
        float((residues != 0).mean()),
    )


@dataclass
class CachedConversion:
    """One cached conversion: centroids, their evolution, and the baseline."""

    #: threshold layer the entry was filled at
    threshold_layer: int
    #: centroid activations at the threshold layer, shape ``(N, C)``
    cent_y: np.ndarray
    #: per post-convergence layer: spMM output of the centroid columns
    #: (``W(i) @ Y*(i)``, *without* bias), each shape ``(n_out, C)``
    z_cent: list[np.ndarray] = field(default_factory=list)
    #: centroid activations after the last layer, shape ``(N, C)``
    cent_final: np.ndarray | None = None
    #: fill-time mean L0 assignment distance (fraction of N) of the
    #: non-centroid columns to their centroids
    baseline_distance: float = 0.0
    #: fill-time mean post-prune residue density of the non-centroid columns
    baseline_density: float = 0.0
    #: how many blocks this entry has served assign-only
    served_blocks: int = 0
    #: scope of the filling network (its fingerprint); ``None`` for the
    #: legacy unscoped cache — see :meth:`CentroidCache.lookup`
    network_key: str | None = None

    @property
    def n_centroids(self) -> int:
        return self.cent_y.shape[1]

    @property
    def nbytes(self) -> int:
        """Retained bytes: centroids, their trajectory, and the final state."""
        total = self.cent_y.nbytes
        total += sum(z.nbytes for z in self.z_cent)
        if self.cent_final is not None:
            total += self.cent_final.nbytes
        return total


class CentroidCache:
    """Warm conversion state shared across consecutive blocks of a session.

    Parameters
    ----------
    tolerance:
        Staleness budget.  A reused block is admitted while its mean
        assignment distance and residue density stay within
        ``baseline * (1 + tolerance)``; ``0`` admits only blocks that are at
        least as close to the cached centroids as the fill block was to its
        own (so an identical repeated stream still hits, but any drift
        forces re-conversion).
    max_centroids:
        Entries with more centroids than this are not cached — assignment
        against a huge centroid set costs more than it saves, and a
        conversion that barely clustered has no structure worth reusing.
    metrics:
        Registry (or labeled view) holding ``centroid_cache_*`` series, which
        ``hits``/``misses``/``fills``/``invalidations`` read back; a private
        one by default.
    """

    def __init__(self, tolerance: float = 0.5, max_centroids: int = 512, metrics=None):
        if tolerance < 0:
            raise ConfigError(f"reuse tolerance must be >= 0, got {tolerance}")
        if max_centroids < 1:
            raise ConfigError(f"max_centroids must be >= 1, got {max_centroids}")
        self.tolerance = float(tolerance)
        self.max_centroids = int(max_centroids)
        #: (network scope, threshold layer) -> entry.  The network scope is
        #: part of the key on purpose: a cache visible to two tenants with
        #: the same threshold layer must never serve one network's centroids
        #: to the other (the residue algebra would silently be computed
        #: against foreign centroids).
        self._entries: dict[tuple[str | None, int], CachedConversion] = {}
        self.skipped_fills = 0
        #: last observed per-block quality (None until the first reuse attempt)
        self.last_distance: float | None = None
        self.last_density: float | None = None
        self._metrics = MetricsRegistry() if metrics is None else metrics
        self._c_hits = self._metrics.counter(
            "centroid_cache_hits_total", help="blocks converted assign-only"
        )
        self._c_misses = self._metrics.counter(
            "centroid_cache_misses_total", help="blocks with no cached conversion"
        )
        self._c_fills = self._metrics.counter(
            "centroid_cache_fills_total", help="full conversions captured into the cache"
        )
        #: reason -> ``centroid_cache_invalidations_total{reason=}``, bound on
        #: the first drop for that reason
        self._c_invalidations: dict[str, object] = {}
        self._g_entries = self._metrics.gauge(
            "centroid_cache_entries", help="cached conversions held"
        )
        self._metrics.on_collect(self._publish)

    # ----------------------------------------------------------- metrics
    @property
    def hits(self) -> int:
        return int(self._c_hits.value)

    @property
    def misses(self) -> int:
        return int(self._c_misses.value)

    @property
    def fills(self) -> int:
        return int(self._c_fills.value)

    @property
    def invalidations(self) -> dict[str, int]:
        """Entries dropped so far, per staleness reason."""
        return {r: int(c.value) for r, c in list(self._c_invalidations.items())}

    def _publish(self, _registry) -> None:
        """Scrape-time gauges: entry count and the last staleness signals."""
        self._g_entries.set(len(self._entries))
        if self.last_distance is not None:
            metrics = self._metrics
            metrics.gauge(
                "centroid_reuse_assignment_distance",
                help="mean L0 assignment distance (fraction of N) of the last reused block",
            ).set(self.last_distance)
            metrics.gauge(
                "centroid_reuse_residue_density",
                help="mean residue density of the last reused block",
            ).set(self.last_density)

    # ------------------------------------------------------------ lookups
    @staticmethod
    def _scope(network) -> str | None:
        """Cache scope for a network: its fingerprint (or a raw string key)."""
        if network is None:
            return None
        return getattr(network, "fingerprint", network)

    def lookup(
        self, threshold_layer: int, n_rows: int, network=None
    ) -> CachedConversion | None:
        """Entry for ``(network, threshold_layer)``, or ``None`` (a miss).

        ``network`` scopes the entry to one network identity (pass the
        :class:`~repro.network.SparseNetwork`, or its fingerprint string);
        ``None`` is the legacy single-network scope.  An entry filled under
        one scope is invisible to every other — cross-tenant isolation is a
        property of the key, not of caller discipline.
        """
        entry = self._entries.get((self._scope(network), threshold_layer))
        if entry is not None and entry.cent_y.shape[0] != n_rows:
            # network width changed under us (defensive; scopes are keyed by
            # network identity so this should not happen in practice)
            self._invalidate_entry(entry, reason="shape")
            entry = None
        if entry is None:
            self._c_misses.inc()
        return entry

    def admit(
        self, entry: CachedConversion, distance: float, density: float
    ) -> bool:
        """Staleness policy: admit the block or invalidate the entry.

        ``distance`` is the block's mean L0 assignment distance as a
        fraction of N; ``density`` its mean post-prune residue density.
        Both are compared against the entry's fill-time baseline scaled by
        ``1 + tolerance``.  Returns True on a hit; on a drift the entry is
        dropped (counted under the drifting signal's reason) and the caller
        falls back to a full conversion, which refills the cache.
        """
        # density first: a concurrent scrape publishes both once distance is set
        self.last_density = float(density)
        self.last_distance = float(distance)
        slack = 1.0 + self.tolerance
        if distance > entry.baseline_distance * slack + 1e-12:
            self._invalidate_entry(entry, reason="distance")
            return False
        if density > entry.baseline_density * slack + 1e-12:
            self._invalidate_entry(entry, reason="density")
            return False
        entry.served_blocks += 1
        self._c_hits.inc()
        return True

    # ----------------------------------------------------------- mutation
    def accepts(self, n_centroids: int) -> bool:
        """Whether a conversion with ``n_centroids`` centroids is cacheable;
        a refusal counts as a skipped fill."""
        if n_centroids > self.max_centroids:
            self.skipped_fills += 1
            return False
        return True

    def fill(
        self,
        threshold_layer: int,
        cent_y: np.ndarray,
        z_cent: list[np.ndarray],
        cent_final: np.ndarray,
        baseline_distance: float,
        baseline_density: float,
        network=None,
    ) -> bool:
        """Capture a full conversion; returns False when it is not cacheable.

        ``network`` scopes the entry exactly as in :meth:`lookup`.
        """
        if not self.accepts(cent_y.shape[1]):
            return False
        scope = self._scope(network)
        self._entries[(scope, threshold_layer)] = CachedConversion(
            threshold_layer=threshold_layer,
            network_key=scope,
            cent_y=cent_y,
            z_cent=z_cent,
            cent_final=cent_final,
            baseline_distance=float(baseline_distance),
            baseline_density=float(baseline_density),
        )
        self._c_fills.inc()
        return True

    def export_entries(self) -> list[CachedConversion]:
        """Every cached conversion, in deterministic key order (for warmstore)."""
        return [
            self._entries[key]
            for key in sorted(self._entries, key=lambda k: (k[0] or "", k[1]))
        ]

    def adopt(self, entry: CachedConversion) -> None:
        """Insert a restored entry under its own scope without counting a fill.

        The warmstore load path uses this so a resumed session's ``fills``
        counter reflects conversions *it* performed, not history replay; the
        entry keeps its fill-time baselines and ``served_blocks`` tally.
        """
        self._entries[(entry.network_key, entry.threshold_layer)] = entry

    def _count_invalidations(self, dropped: int, reason: str) -> None:
        counter = self._c_invalidations.get(reason)
        if counter is None:
            counter = self._c_invalidations[reason] = self._metrics.counter(
                "centroid_cache_invalidations_total",
                help="cache entries dropped, by staleness reason",
                reason=reason,
            )
        counter.inc(dropped)

    def _invalidate_entry(self, entry: CachedConversion, reason: str) -> None:
        """Drop exactly one entry by its own key (scope-safe)."""
        if self._entries.pop((entry.network_key, entry.threshold_layer), None) is not None:
            self._count_invalidations(1, reason)

    def invalidate(self, threshold_layer: int | None = None, reason: str = "manual") -> int:
        """Drop entries (all, or every scope's entry at one threshold layer),
        counting the reason.  Returns the number of drops."""
        if threshold_layer is None:
            dropped = len(self._entries)
            self._entries.clear()
        else:
            keys = [key for key in self._entries if key[1] == threshold_layer]
            for key in keys:
                del self._entries[key]
            dropped = len(keys)
        if dropped:
            self._count_invalidations(dropped, reason)
        return dropped

    # ------------------------------------------------------------ metrics
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes retained across every cached conversion (all scopes)."""
        return sum(entry.nbytes for entry in self._entries.values())

    def stats(self) -> dict:
        """Lifetime counters plus the last observed staleness signals."""
        return {
            "entries": len(self._entries),
            "nbytes": self.nbytes,
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "skipped_fills": self.skipped_fills,
            "invalidations": self.invalidations,
            "tolerance": self.tolerance,
            "last_distance": self.last_distance,
            "last_density": self.last_density,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CentroidCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, tolerance={self.tolerance})"
        )
