"""Baked per-layer strategy plans and the hot-path vectorizations.

Two invariants anchor this file:

* a planned engine is a *performance* specialization — every planned spMM,
  conversion, and recovery result must be bitwise identical to the
  unplanned/loop reference it replaced;
* the plan actually preempts per-block work — warm serving of a medium-like
  dense-ish network must not lose to constructing a cold engine per block
  (the regression that motivated it).
"""

import time

import numpy as np
import pytest

from repro.core.conversion import assign_centroids
from repro.core.plan import LayerPlan, StrategyPlan, bake_plan
from repro.core.pruning import _prune_samples_loop, prune_samples
from repro.core.recovery import recover, recover_compact
from repro.core.reuse import CachedConversion, CentroidCache, degenerate_fill_baselines
from repro.harness.experiments.table4 import medium_config
from repro.kernels import champion_spmm, l0_nearest, planned_spmm
from repro.network import LayerSpec, SparseNetwork
from repro.obs import MetricsRegistry
from repro.sparse import CSRMatrix
from repro.sparse.convert import preferred_spmm_format


def make_net(rng, densities, n=24, ymax=32.0):
    layers = []
    for density in densities:
        d = rng.random((n, n))
        d[d > density] = 0.0
        layers.append(LayerSpec(CSRMatrix.from_dense(d)))
    return SparseNetwork(layers, ymax=ymax)


# ------------------------------------------------------- format preference
def test_preferred_format_ell_for_uniform_fanin(rng):
    d = np.zeros((16, 16))
    d[:, :4] = rng.random((16, 4)) + 0.1  # every row exactly 4 nnz
    assert preferred_spmm_format(CSRMatrix.from_dense(d)) == "ell"


def test_preferred_format_csr_for_skewed_fanin(rng):
    d = np.zeros((16, 16))
    d[0, :] = rng.random(16) + 0.1  # one full row ...
    d[1:, 0] = 0.5  # ... the rest fan-in 1 -> ELL pads 16x
    assert preferred_spmm_format(CSRMatrix.from_dense(d)) == "csr"


def test_preferred_format_csr_for_empty_weight():
    assert preferred_spmm_format(CSRMatrix.from_dense(np.zeros((4, 4)))) == "csr"


# ------------------------------------------------------------- plan baking
def test_bake_plan_freezes_strategy_and_pins_views(rng):
    net = make_net(rng, [0.5, 0.05])  # dense-ish layer + sparse layer
    assert net.view_nbytes() == 0  # nothing built yet
    plan = bake_plan(net)
    assert [lp.strategy for lp in plan.layers] == ["colwise", "dynamic"]
    assert plan.layers[0].format == "dense"
    assert plan.layers[1].format in ("ell", "csr")
    assert all(lp.index == i for i, lp in enumerate(plan.layers))
    assert net.view_nbytes() == 0  # deciding builds no view
    plan.pin_views(net)
    assert net.view_nbytes() > 0  # pinning builds the chosen views
    assert plan.baked_seconds >= 0
    assert plan.stats()["layers"] == 2


def test_plan_dispatch_counts_calls_and_strategies(rng):
    net = make_net(rng, [0.5, 0.05])
    metrics = MetricsRegistry()
    plan = bake_plan(net, metrics=metrics)
    y = (rng.random((24, 6)).astype(np.float32) + 0.1)  # all rows live
    for i in range(net.num_layers):
        plan.dispatch(net, i, y)
    assert plan.calls == 2
    counted = {
        labels["strategy"]: metric.value
        for labels, metric in metrics.series("spmm_strategy_total")
        if metric.value
    }
    assert counted.get("colwise") == 1  # the dense-ish layer
    assert sum(counted.values()) == 2


@pytest.mark.parametrize("density", [0.5, 0.1, 0.02])
@pytest.mark.parametrize("dead_fraction", [0.0, 0.5, 0.9])
def test_planned_spmm_bitwise_matches_champion(rng, density, dead_fraction):
    """The tentpole invariant: planning never changes a single bit."""
    net = make_net(rng, [density])
    plan = bake_plan(net)
    y = rng.random((24, 8)).astype(np.float32)
    dead = int(24 * dead_fraction)
    if dead:
        y[:dead, :] = 0.0
    z_plan, work_plan, strat_plan = planned_spmm(net, plan.layers[0], y)
    z_champ, work_champ, strat_champ = champion_spmm(net, 0, y)
    assert np.array_equal(z_plan, z_champ)
    assert work_plan == work_champ
    # one rule: the unplanned champion decides the layer exactly as baking did
    assert strat_plan == strat_champ


def test_plan_stats_strategy_histogram(rng):
    plan = StrategyPlan((
        LayerPlan(0, "colwise", "dense"),
        LayerPlan(1, "dynamic", "ell"),
        LayerPlan(2, "dynamic", "csr"),
    ))
    assert plan.stats()["strategies"] == {
        "colwise": 1, "dynamic/ell": 1, "dynamic/csr": 1,
    }


# ------------------------------------------- vectorized kernels == old loops
@pytest.mark.parametrize("seed", [0, 7, 99])
def test_prune_samples_bitwise_matches_loop(seed):
    rng = np.random.default_rng(seed)
    f = (rng.random((16, 32)) * 2).astype(np.float32)
    for eta, eps in [(0.03, 0.03), (0.5, 0.2), (0.0, 0.0)]:
        assert np.array_equal(
            prune_samples(f, eta, eps), _prune_samples_loop(f, eta, eps)
        )


def test_l0_nearest_chunk_invariant_and_exact(rng):
    y = (rng.random((20, 13)) * 3).astype(np.float32)
    cents = (rng.random((20, 5)) * 3).astype(np.float32)
    idx, dist = l0_nearest(y, cents)
    for chunk in (1, 3, 13, 64):
        ci, cd = l0_nearest(y, cents, chunk=chunk)
        assert np.array_equal(ci, idx) and np.array_equal(cd, dist)
    # naive per-column reference
    for j in range(y.shape[1]):
        d = [(y[:, j] != cents[:, k]).sum() for k in range(cents.shape[1])]
        assert idx[j] == int(np.argmin(d))
        assert dist[j] == d[idx[j]]


def test_assign_centroids_matches_reference_loop(rng):
    y = (rng.random((18, 12)) * 2).astype(np.float32)
    cent_cols = np.array([2, 5, 9])
    m = assign_centroids(y, cent_cols)
    assert np.all(m[cent_cols] == -1)
    for j in range(y.shape[1]):
        if j in cent_cols:
            continue
        d = [(y[:, j] != y[:, c]).sum() for c in cent_cols]
        assert m[j] == cent_cols[int(np.argmin(d))]


def test_recover_compact_matches_scatter_then_recover(rng):
    n_rows, b = 10, 8
    m = np.array([-1, 0, 0, -1, 3, 3, -1, 6])
    ne_idx = np.array([0, 2, 3, 5, 6])  # some residues emptied out
    sub = rng.random((n_rows, len(ne_idx))).astype(np.float32)
    yhat = np.zeros((n_rows, b), dtype=np.float32)
    yhat[:, ne_idx] = sub
    assert np.array_equal(
        recover_compact(sub, ne_idx, m, n_rows), recover(yhat, m)
    )


# ------------------------------------------------ degenerate-fill baselines
def test_degenerate_baselines_trivial_cases():
    assert degenerate_fill_baselines(np.zeros((0, 3))) == (0.0, 0.0)
    assert degenerate_fill_baselines(np.zeros((4, 1))) == (0.0, 0.0)


def test_degenerate_baselines_admit_same_mix_spacing(rng):
    """The satellite fix: a degenerate fill (every column its own centroid)
    must self-calibrate so a same-mix column — one sitting about as far from
    the centroids as they sit from each other — is admitted, not churned."""
    cent_y = (rng.random((32, 8)) * 4).astype(np.float32)
    bd, bdens = degenerate_fill_baselines(cent_y)
    assert bd > 0 and bdens > 0
    entry = CachedConversion(
        threshold_layer=3, cent_y=cent_y,
        baseline_distance=bd, baseline_density=bdens,
    )
    cache = CentroidCache(tolerance=0.5)
    assert cache.admit(entry, distance=bd, density=bdens)
    # genuine drift well past the spacing budget must still be rejected
    assert not cache.admit(entry, distance=bd * 2.0, density=bdens)


def test_degenerate_baselines_respect_prune_threshold(rng):
    cent_y = (rng.random((32, 8)) * 4).astype(np.float32)
    _, dense_all = degenerate_fill_baselines(cent_y, prune_threshold=0.0)
    _, dense_pruned = degenerate_fill_baselines(cent_y, prune_threshold=3.0)
    assert dense_pruned < dense_all  # pruning can only zero residue entries


# ------------------------------------------------- warm-vs-cold perf budget
def test_warm_session_not_slower_than_cold_on_medium_like_net(rng):
    """Regression for the medium-tier warm loss: on a dense-ish network the
    warm per-block path (baked plan, pinned views, pooled buffers) must beat
    re-paying engine construction and lazy view builds every block."""
    from repro.harness.runner import make_engine
    from repro.serve import EngineSession

    net = make_net(rng, [0.55] * 8, n=96, ymax=1.0)
    cfg = medium_config(8, sample_size=32)
    blocks = [
        np.clip(rng.random((96, 48)), 0, 1).astype(np.float32) for _ in range(4)
    ]

    def cold_pass():
        outs, t0 = [], time.perf_counter()
        for y0 in blocks:
            engine = make_engine("snicit", net, snicit_config=cfg)
            outs.append(engine.infer(y0).y)
        return time.perf_counter() - t0, outs

    def warm_pass():
        session = EngineSession(net, cfg)  # warmup excluded from the clock
        outs, t0 = [], time.perf_counter()
        for y0 in blocks:
            outs.append(session.run(y0).y)
        return time.perf_counter() - t0, outs

    # min-of-3 on both sides to shrug off scheduler noise
    cold_times, warm_times = [], []
    for _ in range(3):
        ct, cold_out = cold_pass()
        wt, warm_out = warm_pass()
        cold_times.append(ct)
        warm_times.append(wt)
        net.drop_views()  # next cold pass pays lazy builds again
    for c, w in zip(cold_out, warm_out):
        assert np.array_equal(c, w)  # the plan never changes outputs
    assert min(warm_times) <= min(cold_times) * 1.2, (
        f"warm {min(warm_times):.4f}s vs cold {min(cold_times):.4f}s"
    )
