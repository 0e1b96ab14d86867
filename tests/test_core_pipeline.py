"""End-to-end SNICIT pipeline behavior."""

import numpy as np
import pytest

from repro.baselines import DenseReference
from repro.core import SNICIT, SNICITConfig
from repro.errors import ConfigError
from repro.obs import Tracer
from repro.radixnet import build_benchmark, benchmark_input


@pytest.fixture(scope="module")
def bench():
    net = build_benchmark("144-24", seed=0)
    y0 = benchmark_input(net, 200, seed=1)
    ref = DenseReference(net).infer(y0)
    return net, y0, ref


def test_lossless_without_pruning(bench):
    net, y0, ref = bench
    cfg = SNICITConfig(threshold_layer=8, prune_threshold=0.0)
    res = SNICIT(net, cfg).infer(y0)
    # float accumulation order differs between kernels; tolerance is tight
    assert np.allclose(res.y, ref.y, atol=1e-2)
    assert (res.categories == ref.categories).all()


def test_categories_match_with_default_pruning(bench):
    net, y0, ref = bench
    res = SNICIT(net, SNICITConfig(threshold_layer=8)).infer(y0)
    assert (res.categories == ref.categories).all()


def test_stage_names_and_timing(bench):
    net, y0, _ = bench
    res = SNICIT(net, SNICITConfig(threshold_layer=8)).infer(y0)
    assert set(res.stage_seconds) == {
        "pre_convergence", "conversion", "post_convergence", "recovery",
    }
    assert res.total_seconds > 0
    assert len(res.layer_seconds) == net.num_layers
    assert set(res.modeled) == set(res.stage_seconds)
    assert res.modeled_seconds > 0


def test_threshold_zero_converts_input(bench):
    net, y0, ref = bench
    res = SNICIT(net, SNICITConfig(threshold_layer=0, prune_threshold=0.0)).infer(y0)
    assert (res.categories == ref.categories).all()
    assert res.stage_seconds["pre_convergence"] < res.stage_seconds["post_convergence"]


def test_threshold_at_depth_is_plain_feedforward(bench):
    net, y0, ref = bench
    res = SNICIT(net, SNICITConfig(threshold_layer=net.num_layers)).infer(y0)
    assert np.allclose(res.y, ref.y, atol=1e-3)
    assert res.stats["n_centroids"] == 0


def test_degenerate_threshold_skips_stages_2_to_4(bench):
    """Regression: with threshold_layer == num_layers the engine used to
    sample, prune, convert, and charge conversion kernels, then discard the
    result.  Stages 2-4 must be skipped entirely: output bitwise equal to the
    shared-kernel feed-forward, only pre-convergence kernels charged."""
    from repro.baselines import XY2021
    from repro.gpu.device import VirtualDevice

    net, y0, _ = bench
    dev = VirtualDevice()
    tracer = Tracer()
    res = SNICIT(
        net, SNICITConfig(threshold_layer=net.num_layers), device=dev, tracer=tracer
    ).infer(y0)
    ff = XY2021(net).infer(y0)
    assert np.array_equal(res.y, ff.y)  # bitwise: same kernels, same order

    assert res.stats["n_centroids"] == 0
    assert len(res.stats["centroid_cols"]) == 0
    assert len(res.stats["active_columns_trace"]) == 0

    # cost model saw nothing but pre-convergence spMM kernels
    kernels = [s.args["kernel"] for s in tracer.spans if "kernel" in s.args]
    assert set(kernels) == {"pre_spmm"}
    assert dev.snapshot().launches == len(kernels)
    for stage in ("conversion", "post_convergence", "recovery"):
        assert res.stage_seconds[stage] == 0.0
        snap = res.modeled[stage]
        assert snap.launches == 0 and snap.flops == 0 and snap.bytes_total == 0
    # the stage-key contract is unchanged
    assert set(res.stage_seconds) == {
        "pre_convergence", "conversion", "post_convergence", "recovery",
    }


def test_threshold_clamped_to_depth(bench):
    net, y0, ref = bench
    cfg = SNICITConfig(threshold_layer=10_000)
    engine = SNICIT(net, cfg)
    assert engine.config.threshold_layer == net.num_layers
    res = engine.infer(y0)
    assert (res.categories == ref.categories).all()


def test_active_columns_never_increase(bench):
    net, y0, _ = bench
    res = SNICIT(net, SNICITConfig(threshold_layer=8)).infer(y0)
    trace = res.stats["active_columns_trace"]
    assert len(trace) == net.num_layers - 8
    assert (np.diff(trace) <= 0).all()


def test_stats_fields(bench):
    net, y0, _ = bench
    res = SNICIT(net, SNICITConfig(threshold_layer=8, sample_size=16)).infer(y0)
    assert 1 <= res.stats["n_centroids"] <= 16
    assert len(res.stats["centroid_cols"]) == res.stats["n_centroids"]
    assert res.stats["threshold_layer"] == 8


def test_downsampling_disabled_matches_categories(bench):
    net, y0, ref = bench
    cfg = SNICITConfig(threshold_layer=8, downsample_dim=None)
    res = SNICIT(net, cfg).infer(y0)
    assert (res.categories == ref.categories).all()


def test_ne_idx_interval_slows_refresh_but_keeps_output(bench):
    net, y0, ref = bench
    lazy = SNICIT(net, SNICITConfig(threshold_layer=8, ne_idx_interval=50)).infer(y0)
    eager = SNICIT(net, SNICITConfig(threshold_layer=8, ne_idx_interval=1)).infer(y0)
    assert np.allclose(lazy.y, eager.y, atol=1e-4)
    # the lazy engine processes at least as many columns per layer
    assert (lazy.stats["active_columns_trace"] >= eager.stats["active_columns_trace"]).all()


def test_config_validation():
    with pytest.raises(ConfigError):
        SNICITConfig(threshold_layer=-1)
    with pytest.raises(ConfigError):
        SNICITConfig(threshold_layer=1, sample_size=0)
    with pytest.raises(ConfigError):
        SNICITConfig(threshold_layer=1, downsample_dim=0)
    with pytest.raises(ConfigError):
        SNICITConfig(threshold_layer=1, eta=-0.1)
    with pytest.raises(ConfigError):
        SNICITConfig(threshold_layer=1, prune_threshold=-1)
    with pytest.raises(ConfigError):
        SNICITConfig(threshold_layer=1, ne_idx_interval=0)


def test_for_network_returns_same_object_when_valid():
    cfg = SNICITConfig(threshold_layer=5)
    assert cfg.for_network(10) is cfg
    clamped = cfg.for_network(3)
    assert clamped.threshold_layer == 3
    assert clamped.sample_size == cfg.sample_size


def test_nonsquare_post_convergence_layer_rejected(rng):
    """Residue arithmetic needs a fixed width after t; the engine must say so
    up front instead of crashing mid-inference."""
    from repro.network import LayerSpec, SparseNetwork
    from repro.sparse import CSRMatrix

    layers = [
        LayerSpec(CSRMatrix.from_dense(rng.random((8, 8)))),
        LayerSpec(CSRMatrix.from_dense(rng.random((6, 8)))),  # shape change
        LayerSpec(CSRMatrix.from_dense(rng.random((6, 6)))),
    ]
    net = SparseNetwork(layers, ymax=1.0)
    with pytest.raises(ConfigError, match="square"):
        SNICIT(net, SNICITConfig(threshold_layer=1))
    # a threshold after the shape change is fine
    SNICIT(net, SNICITConfig(threshold_layer=2))
    # auto mode could fire anywhere, so it must also be rejected
    with pytest.raises(ConfigError, match="square"):
        SNICIT(net, SNICITConfig(threshold_layer=3, auto_threshold=True))


def test_stage_functions_are_called_through_pipeline_globals(bench, monkeypatch):
    """The traced benchmark wraps these module globals of repro.core.pipeline;
    the engine must keep calling them there, with ``is_cent`` third."""
    import repro.core.pipeline as pipeline
    from repro.core import CentroidCache

    calls = {}

    def counting(name):
        fn = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return fn(*args, **kwargs)

        return wrapper

    names = ("update_compact", "update_residues_external", "recover_compact")
    for name in names:
        monkeypatch.setattr(pipeline, name, counting(name))
    net, y0, _ = bench
    engine = SNICIT(net, SNICITConfig(threshold_layer=8), reuse=CentroidCache(tolerance=1e9))
    fresh = engine.infer(y0[:, :64])
    assert fresh.stats["centroid_reuse"]["hit"] is False
    assert calls["update_compact"] and calls["recover_compact"]
    for z_sub, _, is_cent, *_ in calls["update_compact"]:
        assert is_cent.dtype == bool and is_cent.shape == (z_sub.shape[1],)
    assert "update_residues_external" not in calls
    before = {name: len(calls[name]) for name in ("update_compact", "recover_compact")}
    hit = engine.infer(y0[:, 64:128])
    assert hit.stats["centroid_reuse"]["hit"] is True
    assert calls["update_residues_external"]
    # a hit runs neither the in-block update nor the compacted recovery
    assert {name: len(calls[name]) for name in before} == before
