"""Persistent warm-state artifacts (fingerprint-keyed warmup snapshots).

A warm :class:`~repro.serve.EngineSession` holds state that costs time to
build — pinned weight views, and :class:`~repro.core.reuse.CentroidCache`
fills with their staleness baselines learned from traffic — and all of it
dies with the process.  At fleet scale that is the dominant cold-start
cost: every worker re-pays registry warmup on boot and on every
crash-restart, then re-learns the same cache fills from its first blocks of
traffic.  SparseDNN's ahead-of-time specialization points at the fix:
serialize the warm state once, key it by network fingerprint, and let every
worker load it.  The artifact holds exactly two things:

* the **pinned views** — dense views of colwise layers and ELL views of
  ELL-format layers, the set :meth:`~repro.serve.EngineSession.warmup`
  pins;
* the **centroid-cache entries**, each with its fill-time staleness
  baselines.

It holds no strategy decision: every engine bakes its
:class:`~repro.core.plan.StrategyPlan` at construction, from the network
alone, in about a millisecond.

The artifact mirrors :mod:`repro.serialize`: a NumPy ``.npz`` container
whose ``header`` member is a JSON document (encoded as a ``uint8`` array)
describing the payload — format version, network fingerprint, engine kind,
and offset tables into the flat array members.  Dense views are
concatenated into one flat ``float32`` member (three zip members load
measurably faster than one per layer); ELL and cache arrays keep their own
members because their dtypes vary.  The
container is deliberately **uncompressed**: load time is the entire point,
and warm state is a few MB.

Safety invariants (see DESIGN.md "Warm-state artifacts"):

* **Fingerprint scoping.**  The artifact binds to one
  :attr:`~repro.network.SparseNetwork.fingerprint`.  Loading against any
  other network raises :class:`~repro.errors.ConfigError` — stale or
  foreign warm state must fail loudly, never silently corrupt outputs.
* **Version refusal.**  A header with a different ``format_version`` (or a
  corrupt/truncated container) raises :class:`~repro.errors.FormatError`:
  boot cold.  Version 1 artifacts also carried a strategy memo and a plan
  table; this build reads version 2 only.
* **Bitwise identity.**  The views are verbatim copies of derived state
  (they rebuild bitwise-identically from CSR anyway), and the loading
  engine dispatches through the same plan a fresh one would bake, so it
  runs the same kernel per block.  The cache entries carry the warm
  session's centroids forward exactly.  So a loaded session's outputs are
  bitwise identical to the session that saved it, continuing the same
  stream, and to a freshly warmed or a cold session serving that stream.
"""

from __future__ import annotations

import json
import os
import time
import zipfile

import numpy as np

from repro.core.reuse import CachedConversion
from repro.errors import ConfigError, FormatError
from repro.sparse.ell import ELLMatrix

__all__ = ["WARMSTORE_VERSION", "save_warm_state", "load_warm_state", "peek_header"]

WARMSTORE_VERSION = 2
_MAGIC = "repro-warmstore"


def _network_fingerprint(network) -> str:
    return getattr(network, "fingerprint", network.name)


def save_warm_state(session, path: str) -> dict:
    """Snapshot a session's warm state to ``path``; returns a manifest.

    Captures whatever the session actually holds: pinned dense/ELL views
    and — when centroid reuse is on — every cached conversion with its
    fill-time staleness baselines.  A session that has not been warmed has
    nothing worth persisting, so this raises
    :class:`~repro.errors.ConfigError` instead of writing an artifact that
    would silently boot peers cold.
    """
    if not getattr(session, "warmed", False):
        raise ConfigError(
            "session holds no warm state to save — call warmup() first"
        )
    net = session.network
    fingerprint = _network_fingerprint(net)
    arrays: dict[str, np.ndarray] = {}

    # ---- pinned views: dense concatenated flat, ELL per layer (dtype varies)
    dense_meta: list[dict] = []
    dense_parts: list[np.ndarray] = []
    offset = 0
    for i in sorted(net._dense_cache):
        view = net._dense_cache[i]
        dense_meta.append(
            {"index": i, "rows": view.shape[0], "cols": view.shape[1], "offset": offset}
        )
        dense_parts.append(np.ascontiguousarray(view, dtype=np.float32).ravel())
        offset += view.size
    arrays["dense_data"] = (
        np.concatenate(dense_parts) if dense_parts else np.empty(0, dtype=np.float32)
    )
    ell_meta: list[dict] = []
    for i in sorted(net._ell_cache):
        view = net._ell_cache[i]
        ell_meta.append(
            {
                "index": i,
                "rows": view.shape[0],
                "cols": view.shape[1],
                "width": view.width,
            }
        )
        arrays[f"ell_idx_{i}"] = view.idx
        arrays[f"ell_val_{i}"] = view.val

    # ---- centroid cache fills (entries carry their own scope key)
    cache_meta: list[dict] = []
    reuse = getattr(session, "reuse", None)
    if reuse is not None:
        for j, entry in enumerate(reuse.export_entries()):
            cache_meta.append(
                {
                    "threshold_layer": entry.threshold_layer,
                    "network_key": entry.network_key,
                    "n_z": len(entry.z_cent),
                    "has_final": entry.cent_final is not None,
                    "baseline_distance": entry.baseline_distance,
                    "baseline_density": entry.baseline_density,
                    "served_blocks": entry.served_blocks,
                }
            )
            arrays[f"cache{j}_cent_y"] = entry.cent_y
            for k, z in enumerate(entry.z_cent):
                arrays[f"cache{j}_z{k}"] = z
            if entry.cent_final is not None:
                arrays[f"cache{j}_final"] = entry.cent_final

    header = {
        "format": _MAGIC,
        "format_version": WARMSTORE_VERSION,
        "saved_unix": time.time(),
        "network": {
            "fingerprint": fingerprint,
            "name": net.name,
            "layers": len(net.layers),
        },
        "engine_kind": session.kind,
        "views": {"dense": dense_meta, "ell": ell_meta},
        "cache": cache_meta,
    }
    arrays["header"] = np.frombuffer(
        json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    # exact-path write (np.savez appends '.npz' to suffixless paths otherwise);
    # uncompressed on purpose — load latency is the artifact's reason to exist
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return {
        "path": str(path),
        "size_bytes": os.path.getsize(path),
        "fingerprint": fingerprint,
        "dense_views": len(dense_meta),
        "ell_views": len(ell_meta),
        "cache_entries": len(cache_meta),
    }


def _read_artifact(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse header + materialize every member, with FormatError semantics."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if "header" not in data.files:
                raise FormatError(
                    f"{path}: not a repro warmstore artifact (missing header)"
                )
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            arrays = {name: data[name] for name in data.files if name != "header"}
    except FileNotFoundError:
        raise
    except FormatError:
        raise
    except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError) as exc:
        raise FormatError(
            f"{path}: corrupt or truncated warmstore artifact ({exc})"
        ) from exc
    if header.get("format") != _MAGIC:
        raise FormatError(f"{path}: not a repro warmstore artifact")
    version = header.get("format_version")
    if version != WARMSTORE_VERSION:
        raise FormatError(
            f"{path}: warmstore format version {version} is not supported "
            f"(this build reads version {WARMSTORE_VERSION})"
        )
    return header, arrays


def peek_header(path: str) -> dict:
    """The artifact's JSON header alone (validated), without restoring state."""
    header, _ = _read_artifact(path)
    return header


def load_warm_state(session, path: str) -> dict:
    """Restore a saved warm state into ``session``; returns a manifest.

    The artifact must match the session's network fingerprint and engine
    kind (:class:`~repro.errors.ConfigError` otherwise — a wrong artifact is
    a deployment mistake, not a file-format problem).  Restores pinned
    views and cache fills.  Cache entries are skipped — and counted in the
    manifest — when the session has centroid reuse disabled or the entry
    belongs to a different scope.
    """
    header, arrays = _read_artifact(path)
    net = session.network
    fingerprint = _network_fingerprint(net)
    saved = header.get("network", {})
    if saved.get("fingerprint") != fingerprint:
        raise ConfigError(
            f"{path}: artifact was saved for network "
            f"{saved.get('name')!r} (fingerprint {saved.get('fingerprint')}) "
            f"but this session serves {net.name!r} (fingerprint {fingerprint})"
        )
    if header.get("engine_kind") != session.kind:
        raise ConfigError(
            f"{path}: artifact was saved from a {header.get('engine_kind')!r} "
            f"engine but this session runs {session.kind!r}"
        )
    if saved.get("layers") != len(net.layers):
        raise ConfigError(
            f"{path}: artifact expects {saved.get('layers')} layers, "
            f"network has {len(net.layers)}"
        )

    # ---- views (verbatim copies of what bake would derive from CSR)
    views = header.get("views", {})
    dense_flat = arrays.get("dense_data")
    for meta in views.get("dense", []):
        rows, cols, off = meta["rows"], meta["cols"], meta["offset"]
        net._dense_cache[meta["index"]] = dense_flat[off:off + rows * cols].reshape(
            rows, cols
        )
    for meta in views.get("ell", []):
        i = meta["index"]
        net._ell_cache[i] = ELLMatrix(
            arrays[f"ell_idx_{i}"],
            arrays[f"ell_val_{i}"],
            (meta["rows"], meta["cols"]),
        )

    # ---- centroid cache fills
    adopted = skipped = 0
    reuse = getattr(session, "reuse", None)
    for j, meta in enumerate(header.get("cache", [])):
        if reuse is None or meta["network_key"] not in (None, fingerprint):
            skipped += 1
            continue
        reuse.adopt(
            CachedConversion(
                threshold_layer=int(meta["threshold_layer"]),
                network_key=meta["network_key"],
                cent_y=arrays[f"cache{j}_cent_y"],
                z_cent=[arrays[f"cache{j}_z{k}"] for k in range(meta["n_z"])],
                cent_final=(
                    arrays[f"cache{j}_final"] if meta["has_final"] else None
                ),
                baseline_distance=float(meta["baseline_distance"]),
                baseline_density=float(meta["baseline_density"]),
                served_blocks=int(meta["served_blocks"]),
            )
        )
        adopted += 1
    return {
        "path": str(path),
        "size_bytes": os.path.getsize(path),
        "fingerprint": fingerprint,
        "dense_views": len(views.get("dense", [])),
        "ell_views": len(views.get("ell", [])),
        "cache_entries": adopted,
        "cache_skipped": skipped,
    }
