"""Champion/baseline kernel dispatch and cost charges."""

import numpy as np
import pytest

from repro.kernels import (
    DENSE_WEIGHT_THRESHOLD,
    LIVE_ROW_THRESHOLD,
    baseline_spmm,
    champion_spmm,
    charge_for,
)
from repro.network import LayerSpec, SparseNetwork
from repro.sparse import CSRMatrix


def make_net(rng, density, n=20):
    d = rng.random((n, n))
    d[d > density] = 0
    return SparseNetwork([LayerSpec(CSRMatrix.from_dense(d))], ymax=32.0), d


def test_champion_picks_colwise_for_dense_weights(rng):
    net, d = make_net(rng, density=0.5)
    y = rng.random((20, 6)).astype(np.float32)
    z, work, strategy = champion_spmm(net, 0, y)
    assert strategy == "colwise"
    assert np.allclose(z, d @ y, atol=1e-4)
    assert work == int((y != 0).sum())


def test_champion_picks_masked_for_sparse_activations(rng):
    net, d = make_net(rng, density=0.05)
    y = rng.random((20, 6)).astype(np.float32)
    y[5:, :] = 0  # 75% dead rows
    z, work, strategy = champion_spmm(net, 0, y)
    assert strategy == "masked"
    assert np.allclose(z, d @ y, atol=1e-4)


def test_champion_picks_ell_for_dense_activations(rng):
    # uniform fan-in (Radix-Net shape): ELL pads nothing, so the
    # batch-parallel branch resolves to the ELL kernel
    d = np.zeros((20, 20))
    d[:, :3] = rng.random((20, 3)) + 0.1
    net = SparseNetwork([LayerSpec(CSRMatrix.from_dense(d))], ymax=32.0)
    y = rng.random((20, 6)).astype(np.float32) + 0.1  # all rows live
    z, work, strategy = champion_spmm(net, 0, y)
    assert strategy == "ell"
    assert work == net.layers[0].weight.nnz
    assert np.allclose(z, d @ y, atol=1e-4)


def test_champion_picks_csr_for_skewed_fanin(rng):
    # one full row among fan-in-1 rows: ELL would pad ~20x, so the
    # batch-parallel branch falls back to the CSR row-split kernel
    d = np.zeros((20, 20))
    d[0, :] = rng.random(20) + 0.1
    d[1:, 0] = 0.5
    net = SparseNetwork([LayerSpec(CSRMatrix.from_dense(d))], ymax=32.0)
    y = rng.random((20, 6)).astype(np.float32) + 0.1  # all rows live
    z, work, strategy = champion_spmm(net, 0, y)
    assert strategy == "csr"
    assert work == net.layers[0].weight.nnz
    assert np.allclose(z, d @ y, atol=1e-4)


def test_baseline_never_masks(rng):
    net, d = make_net(rng, density=0.05)
    y = rng.random((20, 6)).astype(np.float32)
    y[5:, :] = 0
    z, work, strategy = baseline_spmm(net, 0, y)
    assert strategy == "ell"
    assert np.allclose(z, d @ y, atol=1e-4)


def test_baseline_colwise_for_dense_weights(rng):
    net, d = make_net(rng, density=0.6)
    y = rng.random((20, 4)).astype(np.float32)
    z, work, strategy = baseline_spmm(net, 0, y)
    assert strategy == "colwise"
    assert np.allclose(z, d @ y, atol=1e-4)


def test_charge_for_batch_parallel_vs_colwise():
    ell = charge_for("ell", work=100, n_out=10, batch=50, name="k")
    assert ell.flops == 2 * 100 * 50
    col = charge_for("colwise", work=100, n_out=10, batch=50, name="k")
    assert col.flops == 2 * 100 * 10
    assert ell.bytes_written == col.bytes_written


def test_thresholds_are_sane():
    assert 0 < LIVE_ROW_THRESHOLD <= 1
    assert 0 < DENSE_WEIGHT_THRESHOLD < 0.5


def test_champion_out_buffer_reused(rng):
    net, d = make_net(rng, density=0.1)
    y = rng.random((20, 6)).astype(np.float32)
    out = np.full((20, 6), np.nan, dtype=np.float32)
    z, _, _ = champion_spmm(net, 0, y, out=out)
    assert z is out
    assert np.allclose(z, d @ y, atol=1e-4)
