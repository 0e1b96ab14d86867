"""Smoke tests for the benchmark itself: ``python -m pytest bench``.

Every workload runs for one second, untraced and traced, and must pass its
checks and emit every metric ``BENCHMARK.json`` names.  These tests sit
outside the tier-1 ``testpaths`` and take about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in CATALOG["workloads"]])
def test_workload_passes_checks_and_emits_every_metric(workload, trace, section):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in CATALOG[section])
    units = {m["name"]: m["unit"] for m in CATALOG[section]}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == units[name]


@pytest.mark.parametrize("workload", ["open-shallow", "multi-qos"])
def test_same_seed_gives_byte_identical_schedule(workload, tmp_path):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import workloads
    finally:
        del sys.path[:2]
    wl = workloads.WORKLOADS[workload]

    def render(seed, name):
        workdir = tmp_path / name
        workdir.mkdir()
        prep = workloads.prepare(wl, seed, 2.0, workdir)
        parts = [*prep.warm_schedule, *prep.schedule]
        for inputs in prep.tenants.values():
            parts += [y0 for _, y0 in inputs.requests]
        return b"".join(p.tobytes() for p in parts)

    assert render(5, "a") == render(5, "b")
    assert render(5, "a2") != render(6, "c")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = _run("--workload", "offline-deep", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
