"""Span recorder for the traced benchmark run.

Inside ``with SpanRecorder().tracing():`` public callables of the serving
stack are wrapped at runtime -- router submits, the batcher's block flush,
the session and engine entry points, the baked spMM dispatch, the centroid
cache, and the stage functions ``repro.core.pipeline`` imports by name; the
originals are back afterwards.  Nothing under ``src/`` knows it is being
traced.

Each span records its name, start, end, parent and block id.  Spans nest on
a per-thread stack and are held in memory until the run writes them out.  A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from functools import partial

import numpy as np

from workloads import patched

#: (module, attribute) of every wrapped callable; the attribute is the span name
TARGETS = (
    ("repro.serve.router", "Router.submit"),
    ("repro.serve.router", "AsyncRouter.submit"),
    ("repro.serve.batcher", "MicroBatcher.flush_one"),
    ("repro.serve.session", "EngineSession.run"),
    ("repro.core.pipeline", "SNICIT.infer"),
    ("repro.core.plan", "StrategyPlan.dispatch"),
    ("repro.core.reuse", "CentroidCache.lookup"),
    ("repro.core.reuse", "CentroidCache.admit"),
    ("repro.core.reuse", "CentroidCache.fill"),
    ("repro.core.pipeline", "sample_columns"),
    ("repro.core.pipeline", "sum_downsample"),
    ("repro.core.pipeline", "prune_samples"),
    ("repro.core.pipeline", "convert"),
    ("repro.core.pipeline", "update_compact"),
    ("repro.core.pipeline", "update_residues_external"),
    ("repro.core.pipeline", "recover_compact"),
    ("repro.core.pipeline", "assign_cached_centroids"),
)

#: per-layer self-time metric (ms per 1000 served columns) -> its spans
SELF_TIME_METRICS = {
    "router.submit_self_ms_per_kcol": ("Router.submit", "AsyncRouter.submit"),
    "batcher.flush_self_ms_per_kcol": ("MicroBatcher.flush_one",),
    "session.run_self_ms_per_kcol": ("EngineSession.run",),
    "pipeline.infer_self_ms_per_kcol": ("SNICIT.infer",),
    "kernels.spmm_self_ms_per_kcol": ("StrategyPlan.dispatch",),
    "sampling.self_ms_per_kcol": ("sample_columns", "sum_downsample"),
    "conversion.prune_self_ms_per_kcol": ("prune_samples",),
    "conversion.convert_self_ms_per_kcol": ("convert",),
    "postconv.update_self_ms_per_kcol": ("update_compact", "update_residues_external"),
    "recovery.recover_self_ms_per_kcol": ("recover_compact",),
    "reuse.assign_self_ms_per_kcol": ("assign_cached_centroids",),
    "reuse.cache_self_ms_per_kcol": (
        "CentroidCache.lookup", "CentroidCache.admit", "CentroidCache.fill",
    ),
}


def _flush_block(args) -> str:
    """The id ``MicroBatcher._flush_batch`` is about to give its block."""
    batcher = args[0]
    return f"{batcher.session.name}#{batcher.counters['batches'] + 1}"


def _residues_compact(result, args) -> tuple[int, int]:
    sub, is_cent = result[0], args[2]
    return np.count_nonzero(sub) - np.count_nonzero(sub[:, is_cent]), int((~is_cent).sum())


def _residues_external(result, args) -> tuple[int, int]:
    return np.count_nonzero(result[0]), result[0].shape[1]


#: spans that also count residue nonzeros where the work happens
_RESIDUE_COUNTERS = {
    "update_compact": _residues_compact,
    "update_residues_external": _residues_external,
}


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        #: spans as ``[name, start, end, parent span or None, block, thread]``
        self.spans: list[list] = []
        self.residue_nnz = 0
        self.residue_cols = 0
        self._local = threading.local()

    # -------------------------------------------------------------- wrapping
    def _wrap(self, name: str, fn):
        spans, local, clock = self.spans, self._local, time.perf_counter
        block_of = _flush_block if name == "MicroBatcher.flush_one" else None
        residues = _RESIDUE_COUNTERS.get(name)

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            if block_of is not None:
                block = block_of(args)
            else:
                block = parent[4] if parent is not None else None
            span = [name, clock(), 0.0, parent, block, threading.get_ident()]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if residues is not None:
                nnz, cols = residues(result, args)
                self.residue_nnz += int(nnz)
                self.residue_cols += cols
            return result

        return traced

    @contextmanager
    def tracing(self):
        """Every target wrapped inside the block, the originals back after."""
        with ExitStack() as stack:
            for module_name, path in TARGETS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                stack.enter_context(patched(owner, attr, partial(self._wrap, path)))
            yield

    # ------------------------------------------------------------- reporting
    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        children: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[id(parent)] += end - start
        out: dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span[2] - span[1]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - children.get(id(span), 0.0)
        return out

    def metrics(self, columns: int, slowdown: float = 1.0) -> dict[str, float]:
        """Self time per layer (ms per 1000 served columns), residue density.

        Self times are divided by ``slowdown``, the host's slowdown over the
        traced phase, to report them at quiet-host speed.
        """
        rows = self.self_times()
        kcols = max(columns, 1) / 1e3 * slowdown
        out = {
            metric: sum(rows.get(name, {}).get("self_s", 0.0) for name in names) * 1e3 / kcols
            for metric, names in SELF_TIME_METRICS.items()
        }
        out["postconv.residue_nnz_per_col"] = self.residue_nnz / max(self.residue_cols, 1)
        return out

    def table(self, columns: int) -> str:
        """The per-layer self-time table, slowest self time first."""
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1]["self_s"])
        total_self = sum(row["self_s"] for _, row in rows) or 1.0
        kcols = max(columns, 1) / 1e3
        lines = [
            f"{'span':<28} {'calls':>8} {'total ms':>10} {'self ms':>10} "
            f"{'self ms/kcol':>13} {'self %':>7}"
        ]
        for name, row in rows:
            lines.append(
                f"{name:<28} {row['calls']:>8} {row['total_s'] * 1e3:>10.1f} "
                f"{row['self_s'] * 1e3:>10.1f} {row['self_s'] * 1e3 / kcols:>13.3f} "
                f"{100 * row['self_s'] / total_self:>6.1f}%"
            )
        return "\n".join(lines)

    def write_jsonl(self, path) -> None:
        """One JSON object per span; ``parent`` is the parent's line index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        threads: dict[int, int] = {}
        with open(path, "w") as fh:
            for name, start, end, parent, block, tid in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": index[id(parent)] if parent is not None else None,
                    "block": block,
                    "thread": threads.setdefault(tid, len(threads)),
                }) + "\n")
