"""Cross-block centroid reuse: cache policy, assign kernel, pipeline paths."""

import numpy as np
import pytest

from repro.core import CentroidCache, SNICIT
from repro.core.postconv import update_residues_external
from repro.core.reuse import CachedConversion
from repro.errors import ConfigError, ShapeError
from repro.harness.experiments.common import sdgc_config
from repro.harness.workloads import get_benchmark, get_input
from repro.kernels import assign_cached_centroids
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def workload():
    net = get_benchmark("144-24")
    cfg = sdgc_config(net.num_layers)
    y0 = np.asarray(get_input("144-24", 64, seed=1))
    return net, cfg, y0


def fresh_block(width=64, seed=2):
    return np.asarray(get_input("144-24", width, seed=seed))


# ----------------------------------------------------------- CentroidCache
def test_cache_validates_config():
    with pytest.raises(ConfigError):
        CentroidCache(tolerance=-0.1)
    with pytest.raises(ConfigError):
        CentroidCache(max_centroids=0)


def entry_kwargs(n=4, c=2):
    """fill() keyword arguments for a toy (n, c) conversion."""
    return dict(
        cent_y=np.ones((n, c), dtype=np.float32),
        z_cent=[np.ones((n, c), dtype=np.float32)],
        cent_final=np.ones((n, c), dtype=np.float32),
        baseline_distance=0.1,
        baseline_density=0.1,
    )


def test_cache_fill_lookup_roundtrip():
    cache = CentroidCache()
    assert cache.lookup(3, 4) is None  # cold: counts a miss
    assert cache.fill(3, **entry_kwargs())
    entry = cache.lookup(3, 4)
    assert isinstance(entry, CachedConversion)
    assert entry.n_centroids == 2
    stats = cache.stats()
    assert stats == {
        "entries": 1, "nbytes": entry.nbytes, "hits": 0, "misses": 1,
        "fills": 1, "skipped_fills": 0,
        "invalidations": {}, "tolerance": 0.5,
        "last_distance": None, "last_density": None,
    }
    # 3 float32 (4, 2) arrays: centroids, one trajectory layer, final state
    assert entry.nbytes == 3 * 4 * 2 * 4


def test_cache_rejects_oversized_conversions():
    cache = CentroidCache(max_centroids=1)
    assert not cache.fill(3, **entry_kwargs(c=2))
    assert cache.stats()["skipped_fills"] == 1
    assert len(cache) == 0


def test_cache_shape_mismatch_invalidates():
    cache = CentroidCache()
    cache.fill(3, **entry_kwargs(n=4))
    assert cache.lookup(3, n_rows=5) is None  # width changed underneath
    assert cache.stats()["invalidations"] == {"shape": 1}


def test_admit_policy_tolerance_budget():
    cache = CentroidCache(tolerance=0.5)
    kw = entry_kwargs()
    cache.fill(3, **kw)
    entry = cache.lookup(3, 4)
    assert cache.admit(entry, distance=0.14, density=0.1)  # within 0.1 * 1.5
    assert entry.served_blocks == 1
    assert not cache.admit(entry, distance=0.16, density=0.1)  # distance drift
    assert cache.stats()["invalidations"] == {"distance": 1}
    cache.fill(3, **kw)
    entry = cache.lookup(3, 4)
    assert not cache.admit(entry, distance=0.1, density=0.2)  # density drift
    assert cache.stats()["invalidations"] == {"distance": 1, "density": 1}
    assert cache.stats()["last_density"] == 0.2


def test_admit_zero_tolerance_accepts_baseline_exactly():
    cache = CentroidCache(tolerance=0.0)
    cache.fill(3, **entry_kwargs())
    entry = cache.lookup(3, 4)
    assert cache.admit(entry, distance=0.1, density=0.1)  # == baseline: admitted


def test_cache_scopes_entries_by_network_identity():
    """Two tenants sharing a cache and a threshold layer must not collide.

    Before network scoping, ``_entries`` was keyed by ``threshold_layer``
    alone: tenant B's fill at layer 3 silently replaced tenant A's entry,
    and A's next lookup happily served B's centroids — foreign structure
    that the Eq. 4-6 residue algebra would then be computed against.
    """
    cache = CentroidCache()
    cache.fill(3, **entry_kwargs(c=2), network="net-a")
    cache.fill(3, **entry_kwargs(c=1), network="net-b")  # same layer, other net
    assert len(cache) == 2  # no clobber
    a = cache.lookup(3, 4, network="net-a")
    b = cache.lookup(3, 4, network="net-b")
    assert a.n_centroids == 2 and a.network_key == "net-a"
    assert b.n_centroids == 1 and b.network_key == "net-b"
    # a scope never sees another scope's entry, even at the same layer
    assert cache.lookup(3, 4, network="net-c") is None
    assert cache.lookup(3, 4) is None  # legacy unscoped key is its own scope
    # per-entry invalidation drops only the owning scope's entry
    assert not cache.admit(a, distance=9.0, density=0.1)
    assert cache.lookup(3, 4, network="net-a") is None
    assert cache.lookup(3, 4, network="net-b") is not None
    # layer-wide invalidation sweeps the layer across every scope
    cache.fill(3, **entry_kwargs(), network="net-a")
    assert cache.invalidate(3, reason="manual") == 2
    assert len(cache) == 0


def test_cache_scope_uses_network_fingerprint(workload):
    net, _, _ = workload
    cache = CentroidCache()
    cache.fill(3, **entry_kwargs(), network=net)
    assert cache.lookup(3, 4, network=net).network_key == net.fingerprint
    assert cache.lookup(3, 4, network="somewhere-else") is None


def test_cache_metrics_binding():
    registry = MetricsRegistry()
    cache = CentroidCache(metrics=registry)
    cache.lookup(3, 4)
    cache.fill(3, **entry_kwargs())
    cache.admit(cache.lookup(3, 4), 0.1, 0.1)
    cache.invalidate(3, reason="manual")
    snap = registry.snapshot()
    assert snap["centroid_cache_hits_total"] == 1
    assert snap["centroid_cache_misses_total"] == 1
    assert snap["centroid_cache_fills_total"] == 1
    assert snap['centroid_cache_invalidations_total{reason="manual"}'] == 1
    assert snap["centroid_cache_entries"] == 0  # scraped after the invalidation
    assert snap["centroid_reuse_assignment_distance"] == 0.1
    assert snap["centroid_reuse_residue_density"] == 0.1


# -------------------------------------------------- assign_cached_centroids
def test_assign_matches_bruteforce(rng):
    y = np.round(rng.random((20, 17)) * 2, 1).astype(np.float32)
    cents = np.round(rng.random((20, 5)) * 2, 1).astype(np.float32)
    assign, dist = assign_cached_centroids(y, cents, chunk=4)
    for j in range(y.shape[1]):
        d = (y[:, j, None] != cents).sum(axis=0)
        assert dist[j] == d.min()
        assert assign[j] == d.argmin()  # argmin ties -> lowest index


def test_assign_ties_resolve_to_lowest_index():
    y = np.zeros((4, 3), dtype=np.float32)
    cents = np.zeros((4, 2), dtype=np.float32)  # both centroids equidistant
    assign, dist = assign_cached_centroids(y, cents)
    assert list(assign) == [0, 0, 0]
    assert list(dist) == [0, 0, 0]


def test_assign_validates_shapes():
    with pytest.raises(ShapeError):
        assign_cached_centroids(np.zeros(4), np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        assign_cached_centroids(np.zeros((4, 2)), np.zeros((5, 1)))
    with pytest.raises(ConfigError):
        assign_cached_centroids(np.zeros((4, 2)), np.zeros((4, 0)))


# ------------------------------------------------ update_residues_external
def test_update_residues_external_matches_algebra(rng):
    n, b = 6, 5
    z_sub = rng.standard_normal((n, b)).astype(np.float32)
    z_cent = rng.standard_normal((n, b)).astype(np.float32)
    bias = rng.standard_normal(n).astype(np.float32)
    ymax = 0.9
    out, ne = update_residues_external(z_sub, z_cent, bias, ymax)
    zc = z_cent + bias[:, None]
    expected = np.clip(zc + z_sub, 0, ymax) - np.clip(zc, 0, ymax)
    assert np.allclose(out, expected)
    assert np.array_equal(ne, (out != 0).any(axis=0))


def test_update_residues_external_does_not_mutate_cached_trajectory(rng):
    z_sub = rng.standard_normal((4, 3)).astype(np.float32)
    z_cent = rng.standard_normal((4, 3)).astype(np.float32)
    before = z_cent.copy()
    update_residues_external(z_sub, z_cent, 0.5, 1.0, prune_threshold=0.1)
    assert np.array_equal(z_cent, before)


def test_update_residues_external_validates_shapes():
    with pytest.raises(ShapeError):
        update_residues_external(np.zeros((3, 2)), np.zeros((4, 2)), 0.0, 1.0)


# ------------------------------------------------------- pipeline-level reuse
def test_repeated_block_hits_and_is_bitwise_identical(workload):
    net, cfg, y0 = workload
    cache = CentroidCache(tolerance=0.0)
    engine = SNICIT(net, cfg, reuse=cache)
    reference = SNICIT(net, cfg).infer(y0)
    first = engine.infer(y0)   # fill
    second = engine.infer(y0)  # assign-only hit
    assert first.stats["centroid_reuse"] == {"enabled": True, "hit": False, "reason": "cold"}
    assert second.stats["centroid_reuse"]["hit"] is True
    assert np.array_equal(first.y, reference.y)
    assert np.array_equal(second.y, reference.y)
    assert cache.stats()["hits"] == 1 and cache.stats()["fills"] == 1
    # hit blocks carry no in-block centroids: they all live in the cache
    assert second.stats["n_centroids"] == cache.lookup(
        cfg.for_network(net.num_layers).threshold_layer, net.input_dim, network=net
    ).n_centroids
    assert second.stats["centroid_cols"].size == 0


def test_same_mix_block_hits_with_matching_categories(workload):
    from repro.inference import sdgc_categories

    net, cfg, y0 = workload
    other = fresh_block(seed=2)
    engine = SNICIT(net, cfg, reuse=CentroidCache(tolerance=0.5))
    engine.infer(y0)
    hit = engine.infer(other)
    assert hit.stats["centroid_reuse"]["hit"] is True
    reference = SNICIT(net, cfg).infer(other)
    assert np.array_equal(sdgc_categories(hit.y), sdgc_categories(reference.y))


def test_reuse_is_lossless_without_pruning(workload):
    net, _, y0 = workload
    cfg = sdgc_config(net.num_layers, prune_threshold=0.0)
    other = fresh_block(seed=3)
    engine = SNICIT(net, cfg, reuse=CentroidCache(tolerance=1e9))
    engine.infer(y0)
    hit = engine.infer(other)
    assert hit.stats["centroid_reuse"]["hit"] is True
    reference = SNICIT(net, cfg).infer(other)
    np.testing.assert_allclose(hit.y, reference.y, rtol=0, atol=1e-4)


def test_drift_invalidates_and_falls_back(workload):
    net, cfg, y0 = workload
    drifted = (y0 * 2.0).astype(np.float32)  # amplitude shift
    cache = CentroidCache(tolerance=0.5)
    engine = SNICIT(net, cfg, reuse=cache)
    engine.infer(y0)
    result = engine.infer(drifted)
    info = result.stats["centroid_reuse"]
    assert info["hit"] is False and info["reason"] == "stale"
    assert cache.stats()["invalidations"] == {"distance": 1}
    # the fall-back full conversion is exactly the reuse-off path
    reference = SNICIT(net, cfg).infer(drifted)
    assert np.array_equal(result.y, reference.y)
    # and it refilled the cache with the drifted mix
    assert cache.stats()["fills"] == 2
    assert engine.infer(drifted).stats["centroid_reuse"]["hit"] is True


def test_oversized_conversion_not_captured(workload):
    net, cfg, y0 = workload
    cache = CentroidCache(max_centroids=1)
    engine = SNICIT(net, cfg, reuse=cache)
    engine.infer(y0)
    assert len(cache) == 0  # conversion had more centroids than the cap
    assert cache.stats()["skipped_fills"] == 1
    assert engine.infer(y0).stats["centroid_reuse"] == {
        "enabled": True, "hit": False, "reason": "cold"
    }


# ------------------------------------------- assign-only reference (bitwise)
def _assign_only_reference(net, cfg, entry, y0):
    """A cache hit rebuilt from the full-width reference kernels.

    The block's layer-``t`` activations are assigned to the cached
    centroids, then ``[cached centroids | pruned residues]`` with mapper
    ``[-1]*C ++ assign`` runs through load_reduced_spmm and
    update_centroids_residues for every post-convergence layer and is
    recovered; the block's columns of the result are returned.
    """
    from repro.core.postconv import load_reduced_spmm, update_centroids_residues
    from repro.core.recovery import recover
    from repro.kernels import champion_spmm

    t = cfg.threshold_layer
    y = net.validate_input(y0).astype(np.float32, copy=True)
    for i in range(t):
        z, _, _ = champion_spmm(net, i, y)
        z += net.layers[i].bias_column()
        y = net.activation(z)
    assign, _ = assign_cached_centroids(y, entry.cent_y)
    residues = y - entry.cent_y[:, assign]
    if cfg.prune_threshold > 0:
        residues[np.abs(residues) < cfg.prune_threshold] = 0
    n_cent = entry.n_centroids
    yhat = np.hstack([entry.cent_y, residues])
    m = np.concatenate([np.full(n_cent, -1, dtype=np.int64), assign.astype(np.int64)])
    ne_rec = (yhat != 0).any(axis=0)
    for i in range(t, net.num_layers):
        layer = net.layers[i]
        ne_idx = np.flatnonzero(ne_rec | (m == -1))
        z = load_reduced_spmm(net.ell(i), yhat, ne_idx, net=net, layer_index=i)
        bias = layer.bias if isinstance(layer.bias, np.ndarray) else float(layer.bias)
        yhat, ne_rec = update_centroids_residues(
            z, bias, m, ne_idx, net.ymax, cfg.prune_threshold
        )
    return recover(yhat, m)[:, n_cent:]


def _assert_hits_match_reference(net, cfg, fill_block, blocks):
    engine = SNICIT(net, cfg, reuse=CentroidCache(tolerance=1e9))
    engine.infer(fill_block)
    entry = engine.reuse.lookup(cfg.threshold_layer, net.input_dim, network=net)
    for block in blocks:
        hit = engine.infer(block)
        assert hit.stats["centroid_reuse"]["hit"] is True
        assert np.array_equal(hit.y, _assign_only_reference(net, cfg, entry, block))


@pytest.mark.parametrize("bench", ["144-24", "144-120"])
def test_assign_only_hit_matches_full_width_reference(bench):
    net = get_benchmark(bench)
    cfg = sdgc_config(net.num_layers).for_network(net.num_layers)
    fill = np.asarray(get_input(bench, 64, seed=1))
    blocks = []
    for seed in range(2, 6):
        block = np.asarray(get_input(bench, 64, seed=seed))
        blocks += [block, (2.0 * block).astype(np.float32)]
    _assert_hits_match_reference(net, cfg, fill, blocks)


def test_assign_only_hit_matches_full_width_reference_on_medium():
    from repro.harness.experiments.table4 import medium_config
    from repro.harness.medium import get_trained

    tm = get_trained("A")
    net = tm.stack.network
    cfg = medium_config(tm.spec.sparse_layers).for_network(net.num_layers)
    base = tm.stack.head(tm.test.images[:128]).astype(np.float32)
    _assert_hits_match_reference(
        net, cfg, base[:, :64], [base[:, 64:], (2.0 * base[:, 64:]).astype(np.float32)]
    )
