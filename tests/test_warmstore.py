"""Warm-state artifact lifecycle (repro.core.warmstore).

Three layers of coverage:

* round-trip — a served-warm session saved and restored into a fresh
  session must come back with the same views and cache fills, and replay
  the exact saved outputs;
* rejection semantics — truncated files, random bytes, a missing header
  member, a foreign magic, and any other format version (a future one, or
  the version-1 shape with memo and plan sections) all raise
  :class:`~repro.errors.FormatError`; an artifact saved for a *different*
  network (or engine kind) raises :class:`~repro.errors.ConfigError`; a
  missing path propagates ``FileNotFoundError`` untouched;
* bitwise identity — the loaded / freshly-warmed / cold-engine output
  triangle is bitwise equal on both the scaled-SDGC and medium tiers,
  including a repeated block that exercises the adopted centroid cache.
"""

import json

import numpy as np
import pytest

from repro.core import SNICIT
from repro.core.warmstore import WARMSTORE_VERSION, peek_header
from repro.errors import ConfigError, FormatError
from repro.harness.experiments.common import sdgc_config
from repro.harness.experiments.table4 import medium_config
from repro.harness.medium import get_trained
from repro.harness.workloads import get_benchmark, get_input
from repro.radixnet import build_benchmark
from repro.serve import EngineSession

BENCH = "144-24"


# ------------------------------------------------------------------ helpers
def _blocks(n=2, cols=4):
    return [np.asarray(get_input(BENCH, cols, seed=10 + i)) for i in range(n)]


def _session(net, cfg, **kw):
    """A reuse-enabled session at the bitwise-lossless setting."""
    kw.setdefault("warm", False)
    kw.setdefault("centroid_reuse", True)
    kw.setdefault("reuse_tolerance", 0.0)
    return EngineSession(net, cfg, **kw)


def _rewrite_header(src, dst, mutate):
    """Copy an artifact, applying ``mutate`` to its JSON header in place."""
    with np.load(src, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    header = json.loads(bytes(arrays["header"]).decode("utf-8"))
    mutate(header)
    arrays["header"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.fixture(scope="module")
def sdgc_state(tmp_path_factory):
    """One served-warm SDGC session saved to an artifact, plus its outputs."""
    net = get_benchmark(BENCH)
    cfg = sdgc_config(net.num_layers)
    net.drop_views()
    session = _session(net, cfg, warm=True)
    blocks = _blocks()
    outputs = [session.run(y0).y.copy() for y0 in blocks]
    path = str(tmp_path_factory.mktemp("warmstore") / "sdgc.npz")
    manifest = session.save_warm_state(path)
    net.drop_views()
    return {
        "net": net,
        "cfg": cfg,
        "path": path,
        "manifest": manifest,
        "blocks": blocks,
        "outputs": outputs,
    }


# --------------------------------------------------------------- round trip
def test_unwarmed_session_refuses_to_save(tmp_path):
    net = get_benchmark(BENCH)
    session = _session(net, sdgc_config(net.num_layers))
    with pytest.raises(ConfigError, match="warm"):
        session.save_warm_state(str(tmp_path / "cold.npz"))


def test_save_load_round_trip_restores_state(sdgc_state):
    net = sdgc_state["net"]
    net.drop_views()
    session = _session(net, sdgc_state["cfg"])
    assert not session.warmed
    manifest = session.load_warm_state(sdgc_state["path"])
    assert session.warmed
    assert session.warm_source == "artifact"
    saved = sdgc_state["manifest"]
    for key in ("fingerprint", "dense_views", "ell_views"):
        assert manifest[key] == saved[key]
    assert manifest["cache_entries"] == saved["cache_entries"]
    assert manifest["cache_skipped"] == 0
    # the engine baked its own plan; the artifact carries no decision
    assert len(session.plan.layers) == net.num_layers
    # ...and the restored session replays the exact saved outputs
    for y0, want in zip(sdgc_state["blocks"], sdgc_state["outputs"]):
        assert np.array_equal(session.run(y0).y, want)
    net.drop_views()


def test_peek_header_reports_identity(sdgc_state):
    header = peek_header(sdgc_state["path"])
    assert header["format_version"] == WARMSTORE_VERSION
    assert header["engine_kind"] == "snicit"
    assert header["network"]["fingerprint"] == sdgc_state["net"].fingerprint
    assert header["network"]["layers"] == len(sdgc_state["net"].layers)


# ---------------------------------------------------------------- rejection
def test_fingerprint_mismatch_rejected(sdgc_state):
    other = build_benchmark(BENCH, seed=1)  # same shape, different weights
    assert other.fingerprint != sdgc_state["net"].fingerprint
    session = _session(other, sdgc_state["cfg"])
    with pytest.raises(ConfigError, match="fingerprint"):
        session.load_warm_state(sdgc_state["path"])
    assert not session.warmed  # the refused load left no half-restored state


def test_engine_kind_mismatch_rejected(sdgc_state):
    net = sdgc_state["net"]
    session = EngineSession(net, kind="dense", warm=False)
    with pytest.raises(ConfigError, match="dense"):
        session.load_warm_state(sdgc_state["path"])
    net.drop_views()


def test_truncated_artifact_rejected(sdgc_state, tmp_path):
    raw = open(sdgc_state["path"], "rb").read()
    for frac, name in ((0.5, "half.npz"), (0.95, "tail.npz")):
        stump = tmp_path / name
        stump.write_bytes(raw[: int(len(raw) * frac)])
        with pytest.raises(FormatError):
            peek_header(str(stump))


def test_random_bytes_rejected(tmp_path):
    junk = tmp_path / "junk.npz"
    junk.write_bytes(b"\x00\x01not-an-archive\xff" * 128)
    with pytest.raises(FormatError):
        peek_header(str(junk))


def test_npz_without_header_member_rejected(tmp_path):
    bare = tmp_path / "bare.npz"
    with open(bare, "wb") as fh:
        np.savez(fh, weights=np.zeros(4, dtype=np.float32))
    with pytest.raises(FormatError, match="header"):
        peek_header(str(bare))


def test_foreign_magic_rejected(sdgc_state, tmp_path):
    alien = tmp_path / "alien.npz"
    _rewrite_header(
        sdgc_state["path"], alien, lambda h: h.update(format="other-tool")
    )
    with pytest.raises(FormatError):
        peek_header(str(alien))


def _version_1_shape(header):
    """The header shape version 1 wrote: strategy memo and plan sections."""
    layers = header["network"]["layers"]
    header.update(
        format_version=1,
        memo={"n_buckets": 16, "choices": [], "costs": []},
        plan={
            "network_fingerprint": header["network"]["fingerprint"],
            "baked_seconds": 0.0,
            "layers": [[i, "colwise", "dense", 0.6] for i in range(layers)],
        },
    )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda h: h.update(format_version=WARMSTORE_VERSION + 1),
        _version_1_shape,
    ],
    ids=["future", "version-1"],
)
def test_version_skew_refused(sdgc_state, tmp_path, mutate):
    skewed = tmp_path / "skewed.npz"
    _rewrite_header(sdgc_state["path"], skewed, mutate)
    with pytest.raises(FormatError, match="version"):
        peek_header(str(skewed))
    net = sdgc_state["net"]
    session = _session(net, sdgc_state["cfg"])
    with pytest.raises(FormatError, match="version"):
        session.load_warm_state(str(skewed))
    assert not session.warmed  # boot cold
    net.drop_views()


def test_missing_file_propagates_file_not_found(sdgc_state, tmp_path):
    session = _session(sdgc_state["net"], sdgc_state["cfg"])
    with pytest.raises(FileNotFoundError):
        session.load_warm_state(str(tmp_path / "nope.npz"))


# --------------------------------------------------------- bitwise identity
def _assert_triangle(net, cfg, history, continuation, tmp_path):
    """Cold boot, warm boot, and snapshot-resume serve bitwise identically.

    Two invariants at once:

    * boot-path invariance — a lazily-warming session (no view pinned) and
      a freshly-warmed session (views pinned) serve the whole
      ``history + continuation`` sequence bitwise identically;
    * snapshot-resume invariance — saving the warm session after
      ``history`` and loading the artifact into a new session must continue
      ``continuation`` exactly as the never-stopped session would have: the
      artifact carries the cache state forward, it never invents a
      different one.
    """
    net.drop_views()
    lazy = _session(net, cfg)  # warm=False: warms on demand
    lazy_out = [lazy.run(y0).y.copy() for y0 in history + continuation]
    net.drop_views()
    fresh = _session(net, cfg, warm=True)
    fresh_out = [fresh.run(y0).y.copy() for y0 in history]
    path = str(tmp_path / "triangle.npz")
    fresh.save_warm_state(path)
    fresh_out += [fresh.run(y0).y.copy() for y0 in continuation]
    net.drop_views()
    loaded = _session(net, cfg)
    loaded.load_warm_state(path)
    assert loaded.warm_source == "artifact"
    loaded_out = [loaded.run(y0).y.copy() for y0 in continuation]
    net.drop_views()
    for lazy_y, fresh_y in zip(lazy_out, fresh_out):
        assert np.array_equal(fresh_y, lazy_y)
    for fresh_y, loaded_y in zip(fresh_out[len(history):], loaded_out):
        assert np.array_equal(loaded_y, fresh_y)


def test_loaded_outputs_bitwise_identical_sdgc(tmp_path):
    net = get_benchmark(BENCH)
    a, b = _blocks(2)
    # the repeated block makes the resumed session serve from the artifact's
    # adopted centroid cache, not just recompute — that path must be bitwise
    _assert_triangle(net, sdgc_config(net.num_layers), [a, b], [a, b], tmp_path)


def test_loaded_outputs_bitwise_identical_medium(tmp_path):
    tm = get_trained("A")
    net = tm.stack.network
    cfg = medium_config(tm.spec.sparse_layers)
    y0 = np.ascontiguousarray(tm.stack.head(tm.test.images[:12]))
    a = np.ascontiguousarray(y0[:, :6])
    b = np.ascontiguousarray(y0[:, 6:])
    _assert_triangle(net, cfg, [a, b], [a, b], tmp_path)


def test_loaded_cache_hits_match_pure_engine_on_repeat_stream(tmp_path):
    """Artifact-adopted cache hits reproduce the stateless engine bitwise.

    On an identical repeated block the assign-only path is exact (every
    column's residue telescopes against the very centroids it was filled
    from), so even a raw per-request :class:`~repro.core.SNICIT` engine —
    no session, no cache — must agree with every reused serve.
    """
    net = get_benchmark(BENCH)
    cfg = sdgc_config(net.num_layers)
    (a,) = _blocks(1)
    net.drop_views()
    want = SNICIT(net, cfg).infer(a).y.copy()
    net.drop_views()
    fresh = _session(net, cfg, warm=True)
    for _ in range(2):  # fill, then an in-session hit
        assert np.array_equal(fresh.run(a).y, want)
    path = str(tmp_path / "repeat.npz")
    fresh.save_warm_state(path)
    net.drop_views()
    loaded = _session(net, cfg)
    loaded.load_warm_state(path)
    assert np.array_equal(loaded.run(a).y, want)
    stats = loaded.reuse.stats()
    assert stats["hits"] >= 1  # served from the adopted entry...
    assert stats["fills"] == 0  # ...not from a fresh conversion
    net.drop_views()
