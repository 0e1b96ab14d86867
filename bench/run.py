"""Serving benchmark: four workloads through the real SNICIT serving path.

Run every workload, one child process each, and print every metric::

    python3 bench/run.py --seed 1
    python3 bench/run.py --seed 1 --trace 1   # adds a traced run of each

Run one workload in this process; the last line of standard output is a JSON
object with the metrics ``BENCHMARK.json`` names::

    python3 bench/run.py --workload offline-deep --seed 3 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
serving stack's public callables, reports the per-layer metrics, prints the
self-time table and writes the spans as JSONL to ``traces/`` under ``--out``
(default ``bench/out``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def _catalog() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _units(catalog: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in catalog["end_to_end"] + catalog["per_layer"]}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _print_metrics(result, units: dict, title: str) -> None:
    print(f"== {title} ==")
    for name, value in result["metrics"].items():
        n = result["samples"].get(name)
        tail = f"  (n={n})" if n is not None else ""
        print(f"  {name:<40} {_fmt(value):>14} {units.get(name, '')}{tail}")
    for name, check in result["checks"].items():
        verdict = "ok" if check["ok"] else "FAILED"
        print(f"  check {name:<34} {verdict}  (value {_fmt(check['value'])}, "
              f"limit {_fmt(check['limit'])})")


def run_one(args, catalog: dict) -> int:
    """Run one workload here; print its metrics and the result line."""
    import workloads
    from trace import SpanRecorder

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    recorder = SpanRecorder() if args.trace == "1" else None
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        res = workloads.run(args.workload, args.seed, args.seconds, Path(work), recorder)
    section = "per_layer" if recorder is not None else "end_to_end"
    wanted = [m["name"] for m in catalog[section]]
    selected = {name: res.metrics.get(name) for name in wanted}
    emitted = all(
        isinstance(v, (int, float)) and math.isfinite(v) for v in selected.values()
    )
    res.checks["metrics_emitted"] = {
        "ok": emitted, "value": sum(v is not None for v in selected.values()),
        "limit": len(wanted),
    }
    units = _units(catalog)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": recorder is not None,
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": res.metrics,
        "samples": res.samples,
        "checks": res.checks,
    }
    mode = "traced" if recorder is not None else "untraced"
    _print_metrics(record, units, f"{args.workload}  seed {args.seed}  "
                   f"{args.seconds:g} s  {mode}")
    if recorder is not None:
        trace_dir = Path(args.out or OUT) / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        recorder.write_jsonl(path)
        print(f"-- self time per layer, as measured ({res.columns} columns, host slowdown "
              f"{res.metrics['host.slowdown']:.2f}; spans in {path}) --")
        print(recorder.table(res.columns))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        suffix = "-traced" if recorder is not None else ""
        with open(out / f"{args.workload}-seed{args.seed}{suffix}.json", "w") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in selected.items()
        },
    }))
    return 0 if res.correct else 1


def _overhead(plain: dict, traced: dict) -> str:
    parts = []
    for name in ("throughput_cols_per_s", "latency_p50_ms", "loadgen.cpu_ms_per_kcol"):
        a, b = plain["metrics"][name], traced["metrics"][name]
        parts.append(f"{name} {100 * (b - a) / a:+.1f}%" if a else f"{name} n/a")
    return ", ".join(parts)


def run_all(args, catalog: dict) -> int:
    """Every workload in its own child process, one after another."""
    out = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    passes = [("0", "")] + ([("1", "-traced")] if args.trace == "1" else [])
    status = 0
    results: dict[tuple[str, str], dict] = {}
    for wl in (w["name"] for w in catalog["workloads"]):
        for trace, suffix in passes:
            cmd = [sys.executable, str(Path(__file__)), "--workload", wl,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", trace, "--out", str(out)]
            code = subprocess.run(cmd, timeout=600).returncode
            status = status or code
            path = out / f"{wl}-seed{args.seed}{suffix}.json"
            if path.exists():
                with open(path) as fh:
                    results[wl, suffix] = json.load(fh)
    units = _units(catalog)
    names = [m["name"] for m in catalog["end_to_end"]]
    print(f"== summary, seed {args.seed}, {args.seconds:g} s per workload ==")
    print(f"{'workload':<14}" + "".join(f"{n:>24}" for n in names) + f"{'correct':>9}")
    print(f"{'':<14}" + "".join(f"{units[n]:>24}" for n in names))
    for wl in (w["name"] for w in catalog["workloads"]):
        res = results.get((wl, ""))
        if res is None:
            print(f"{wl:<14} (no result)")
            continue
        cells = "".join(f"{_fmt(res['metrics'][n]):>24}" for n in names)
        print(f"{wl:<14}{cells}{str(res['correct']):>9}")
    if len(passes) > 1:
        print("== tracing overhead (traced vs untraced) ==")
        for wl in (w["name"] for w in catalog["workloads"]):
            if (wl, "") in results and (wl, "-traced") in results:
                print(f"{wl:<14} {_overhead(results[wl, ''], results[wl, '-traced'])}")
    print(f"results in {out}")
    return status


def main(argv=None) -> int:
    catalog = _catalog()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog["run_seconds"]),
                        help="length of the measured phase")
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="1: traced run, reporting the per-layer metrics")
    parser.add_argument("--out", help="directory for one JSON result file per run")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # one thread per role: the load generator and the router's worker;
    # a BLAS pool would add its own threads to a 2-core machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # the load generator stands in for independent clients: hand it the
    # interpreter lock within 0.5 ms of waking, not after the default 5 ms
    sys.setswitchinterval(0.0005)
    OUT.mkdir(exist_ok=True)
    if args.workload is None:
        return run_all(args, catalog)
    return run_one(args, catalog)


if __name__ == "__main__":
    sys.exit(main())
