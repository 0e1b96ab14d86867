"""Engine execution and comparison utilities."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.config import SNICITConfig
from repro.core.pipeline import SNICIT
from repro.baselines import BF2019, DenseReference, SNIG2020, XY2021
from repro.errors import ConfigError
from repro.inference import InferenceResult
from repro.network import SparseNetwork

__all__ = ["EngineRun", "run_engine", "run_comparison", "bench_scale", "make_engine"]

_ENGINES = {
    "dense": DenseReference,
    "bf2019": BF2019,
    "snig2020": SNIG2020,
    "xy2021": XY2021,
}


def bench_scale(default: float = 1.0) -> float:
    """Batch-size multiplier from the ``REPRO_BENCH_SCALE`` env variable."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "")
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"REPRO_BENCH_SCALE={raw!r} is not a number") from exc
    if value <= 0:
        raise ConfigError("REPRO_BENCH_SCALE must be positive")
    return value


@dataclass
class EngineRun:
    """One engine's result on one workload."""

    engine: str
    result: InferenceResult

    @property
    def wall_ms(self) -> float:
        return self.result.total_seconds * 1e3

    @property
    def modeled_ms(self) -> float:
        return self.result.modeled_seconds * 1e3


def make_engine(
    kind: str,
    net: SparseNetwork,
    snicit_config: SNICITConfig | None = None,
    scratch=None,
    tracer=None,
    metrics=None,
    reuse=None,
):
    """Instantiate an engine by name ('snicit', 'dense', 'bf2019', ...).

    ``scratch``/``reuse`` are forwarded to SNICIT so warm sessions
    (:class:`repro.serve.EngineSession`) can share output buffers and cached
    conversions across calls; ``tracer``/``metrics`` hook the engine into
    :mod:`repro.obs`.  The stateless baselines ignore all four.
    """
    if kind == "snicit":
        if snicit_config is None:
            raise ConfigError("snicit engine needs a SNICITConfig")
        return SNICIT(
            net, snicit_config, scratch=scratch,
            tracer=tracer, metrics=metrics, reuse=reuse,
        )
    try:
        return _ENGINES[kind](net)
    except KeyError:
        raise ConfigError(f"unknown engine {kind!r}; known: snicit, {sorted(_ENGINES)}") from None


def run_engine(
    kind: str,
    net: SparseNetwork,
    y0: np.ndarray,
    snicit_config: SNICITConfig | None = None,
    engine=None,
    tracer=None,
    metrics=None,
) -> EngineRun:
    """Run one engine on one input block.

    Pass ``engine`` to reuse a prebuilt (warm) engine instead of
    constructing a fresh one per call — the cold-vs-warm distinction
    ``bench-serve`` measures.  ``tracer``/``metrics`` apply to freshly
    constructed engines only; a prebuilt engine keeps its own hooks.
    """
    if engine is None:
        engine = make_engine(kind, net, snicit_config, tracer=tracer, metrics=metrics)
    return EngineRun(engine=kind, result=engine.infer(y0))


def run_comparison(
    net: SparseNetwork,
    y0: np.ndarray,
    snicit_config: SNICITConfig,
    engines: tuple[str, ...] = ("snicit", "xy2021", "snig2020", "bf2019"),
    check_categories: bool = True,
) -> dict[str, EngineRun]:
    """Run several engines on the same workload; verify category agreement.

    Category agreement is the SDGC correctness criterion ("all the results
    match the golden reference", Table 3 caption).
    """
    runs = {
        kind: run_engine(kind, net, y0, snicit_config=snicit_config) for kind in engines
    }
    if check_categories and len(runs) > 1:
        kinds = list(runs)
        base = runs[kinds[0]].result.categories
        for other in kinds[1:]:
            cats = runs[other].result.categories
            if not (cats == base).all():
                raise AssertionError(
                    f"engines {kinds[0]} and {other} disagree on "
                    f"{int((cats != base).sum())} categories"
                )
    return runs
