#!/usr/bin/env python3
"""Hard serving-perf budget gate for CI: per-tier floors + scale-out curve.

Replaces the old warning-only ">25% below baseline" check: every tier named
in the budget file must be present in the fresh bench output, meet its
warm-over-cold floor, satisfy its bitwise-output requirement, and stay above
the committed-baseline throughput ratio.  A ``scale_out`` budget section
additionally gates the fleet record: per-worker-count *capacity*
speedup floors (capacity — total columns over the critical-path worker's
CPU seconds — is used instead of wall-clock so the gate is stable across
runners with different core counts), bitwise ``outputs_identical`` at every
count, and a successful crash-recovery run.  A ``warm_boot`` budget section
gates the persistent-warmup record: the artifact boot must be at
least ``min_speedup`` times faster than the cold warmup + priming path and
its outputs bitwise identical across the loaded/fresh/cold triangle.  A
``qos`` budget section gates the QoS A/B record: the interactive
tenant's mixed-load p99 must stay within ``max_interactive_p99_ratio`` of
its solo-run p99 under the QoS scheduler, the no-QoS FIFO arm must
demonstrably breach that same ceiling (otherwise the A/B proves nothing),
per-stream outputs must be bitwise identical to the solo runs, and shed
accounting must balance (served + shed + failed == submitted).  Any
breach prints a GitHub ``::error`` annotation and exits non-zero, failing
the job (the workflow uploads the trace artifact regardless of outcome).

Usage:
    python tools/check_perf_budget.py \
        --bench BENCH_new.json --baseline BENCH_serve.json \
        --budget CI_perf_budget.json \
        [--only tiers|scale_out|warm_boot|qos|all]

``--only`` lets split CI jobs gate their own section: the tier smoke passes
``--only tiers``, the scale-out smoke ``--only scale_out`` (whose bench
file, produced with ``--tiers none``, has no tier records at all), the
warm-artifact smoke ``--only warm_boot``, and the qos smoke ``--only qos``.

The tool is stdlib-only and standalone (no repo imports), so it runs before
PYTHONPATH is set up and can be unit-tested in isolation.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_records(data: dict) -> dict[str, dict]:
    """Tier-name -> record from a BENCH_serve-shaped object.

    Mirrors :func:`repro.serve.bench.load_bench_records` without importing
    the repo: the ``tiers`` list, or a record-only capture (``tiers`` absent
    entirely — an empty mapping, not an error, so ``--only scale_out`` runs
    can gate a bench file produced with ``--tiers none``).
    """
    if "tiers" in data:
        return {rec["tier"]: rec for rec in data["tiers"]}
    if "scale_out" in data or "qos" in data:
        return {}
    raise ValueError(
        "unrecognized BENCH_serve layout (no 'tiers', 'scale_out', or 'qos' key)"
    )


def steady_cps(rec: dict) -> float | None:
    """Steady-state warm columns/second of a tier record."""
    steady = (rec.get("warm") or {}).get("steady_state") or {}
    cps = steady.get("columns_per_second")
    return float(cps) if cps else None


def check_tiers(bench: dict, baseline: dict | None, budget: dict) -> list[str]:
    """Per-tier budget breaches; empty means the tier gate passes."""
    failures: list[str] = []
    records = load_records(bench)
    base_records = load_records(baseline) if baseline else {}
    floor = float(budget.get("baseline_ratio_floor", 0.75))
    for tier, rules in budget.get("tiers", {}).items():
        rec = records.get(tier)
        if rec is None:
            failures.append(f"{tier}: missing from the bench output")
            continue
        woc = rec.get("warm_over_cold")
        min_woc = rules.get("min_warm_over_cold")
        if min_woc is not None:
            if woc is None:
                failures.append(f"{tier}: record has no warm_over_cold metric")
            elif woc < min_woc:
                failures.append(
                    f"{tier}: warm_over_cold {woc:.2f} below the budget floor "
                    f"{min_woc:.2f} — the warm session loses to cold engines"
                )
        if rules.get("require_outputs_identical") and not rec.get("outputs_identical"):
            failures.append(
                f"{tier}: warm outputs are not bitwise identical to cold"
            )
        if rules.get("require_categories_match", True) and not rec.get(
            "categories_match"
        ):
            failures.append(f"{tier}: warm serving changed output categories")
        base_rec = base_records.get(tier)
        if base_rec is not None:
            new_cps = steady_cps(rec)
            base_cps = steady_cps(base_rec)
            if new_cps and base_cps:
                ratio = new_cps / base_cps
                if ratio < floor:
                    failures.append(
                        f"{tier}: steady-state columns/s {new_cps:.1f} is "
                        f"{(1 - ratio) * 100:.0f}% below the committed baseline "
                        f"{base_cps:.1f} (floor ratio {floor})"
                    )
    return failures


def check_scale_out(bench: dict, budget: dict) -> list[str]:
    """Scale-out budget breaches; empty means the fleet gate passes."""
    rules = budget.get("scale_out")
    if not rules:
        return []
    failures: list[str] = []
    record = bench.get("scale_out")
    if not record:
        return ["scale_out: missing from the bench output"]
    entries = {int(e["workers"]): e for e in record.get("workers", [])}
    for count, min_speedup in (rules.get("min_capacity_speedup") or {}).items():
        entry = entries.get(int(count))
        if entry is None:
            # budgets list every count any job might run; a job that only
            # measured 1,2 must not fail the 4-worker floor
            continue
        speedup = (entry.get("capacity") or {}).get("speedup_vs_single")
        if speedup is None:
            failures.append(
                f"scale_out: {count}-worker entry has no capacity speedup"
            )
        elif speedup < float(min_speedup):
            failures.append(
                f"scale_out: {count}-worker capacity speedup {speedup:.2f} "
                f"below the budget floor {float(min_speedup):.2f}"
            )
    if rules.get("require_outputs_identical"):
        for count, entry in sorted(entries.items()):
            if not entry.get("outputs_identical"):
                failures.append(
                    f"scale_out: {count}-worker outputs are not bitwise "
                    f"identical to the single-process reference"
                )
        for count, entry in sorted(entries.items()):
            if entry.get("failed"):
                failures.append(
                    f"scale_out: {count}-worker run failed "
                    f"{entry['failed']} requests"
                )
    if rules.get("require_crash_recovery"):
        crash = record.get("crash")
        if not crash:
            failures.append("scale_out: no crash-recovery run in the record")
        elif not crash.get("recovered"):
            failures.append(
                f"scale_out: crash run did not recover (restarts="
                f"{crash.get('restarts')}, failed={crash.get('failed')}, "
                f"identical={crash.get('outputs_identical')})"
            )
    return failures


def check_warm_boot(bench: dict, budget: dict) -> list[str]:
    """Warm-boot budget breaches; empty means the artifact gate passes."""
    rules = budget.get("warm_boot")
    if not rules:
        return []
    record = bench.get("warm_boot")
    if not record:
        return ["warm_boot: missing from the bench output"]
    failures: list[str] = []
    min_speedup = rules.get("min_speedup")
    speedup = record.get("speedup")
    if min_speedup is not None:
        if speedup is None:
            failures.append("warm_boot: record has no speedup metric")
        elif speedup < float(min_speedup):
            failures.append(
                f"warm_boot: artifact boot is only {speedup:.2f}x faster than "
                f"cold warmup+priming, below the budget floor "
                f"{float(min_speedup):.2f}x"
            )
    if rules.get("require_outputs_identical") and not record.get(
        "outputs_identical"
    ):
        failures.append(
            "warm_boot: loaded/fresh/cold outputs are not bitwise identical"
        )
    if rules.get("require_artifact_source", True):
        if record.get("loaded_warm_source") != "artifact":
            failures.append(
                f"warm_boot: loaded session reports warm_source="
                f"{record.get('loaded_warm_source')!r}, expected 'artifact'"
            )
    return failures


def check_qos(bench: dict, budget: dict) -> list[str]:
    """QoS budget breaches; empty means the priority-scheduling gate passes."""
    rules = budget.get("qos")
    if not rules:
        return []
    record = bench.get("qos")
    if not record:
        return ["qos: missing from the bench output"]
    failures: list[str] = []
    ceiling = rules.get("max_interactive_p99_ratio")
    with_qos = record.get("with_qos") or {}
    no_qos = record.get("no_qos") or {}
    ratio = with_qos.get("interactive_p99_ratio")
    if ceiling is not None:
        if ratio is None:
            failures.append("qos: QoS arm has no interactive p99 ratio")
        elif ratio > float(ceiling):
            failures.append(
                f"qos: interactive p99 under bulk load is {ratio:.2f}x its "
                f"solo p99, above the budget ceiling {float(ceiling):.2f}x — "
                f"priority scheduling is not isolating the interactive tenant"
            )
    if rules.get("require_no_qos_breach") and ceiling is not None:
        # the control arm must actually hurt, or the A/B shows nothing:
        # a FIFO run that also holds the ceiling means the bulk load never
        # contended and the QoS-arm pass is vacuous
        no_ratio = no_qos.get("interactive_p99_ratio")
        if no_ratio is None:
            failures.append("qos: FIFO control arm has no interactive p99 ratio")
        elif no_ratio <= float(ceiling):
            failures.append(
                f"qos: FIFO control arm held interactive p99 at "
                f"{no_ratio:.2f}x solo (ceiling {float(ceiling):.2f}x) — the "
                f"bulk tenant never contended, so the QoS pass proves nothing"
            )
    if rules.get("require_outputs_identical") and not record.get(
        "outputs_identical"
    ):
        failures.append(
            "qos: QoS-arm outputs are not bitwise identical to the solo runs"
        )
    if rules.get("require_shed_accounting", True):
        if not record.get("shed_accounting_ok"):
            failures.append(
                "qos: shed accounting does not balance "
                "(served + shed + failed != submitted)"
            )
        for name, tenant in (with_qos.get("per_tenant") or {}).items():
            if tenant.get("failed"):
                failures.append(
                    f"qos: tenant {name} failed {tenant['failed']} requests "
                    f"in the QoS arm"
                )
    return failures


def check_budget(
    bench: dict, baseline: dict | None, budget: dict, only: str = "all"
) -> list[str]:
    """Every budget breach as a message; empty means the gate passes."""
    failures: list[str] = []
    if only in ("all", "tiers"):
        failures.extend(check_tiers(bench, baseline, budget))
    if only in ("all", "scale_out"):
        failures.extend(check_scale_out(bench, budget))
    if only in ("all", "warm_boot"):
        failures.extend(check_warm_boot(bench, budget))
    if only in ("all", "qos"):
        failures.extend(check_qos(bench, budget))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", required=True, help="fresh bench JSON to gate")
    parser.add_argument("--baseline", help="committed baseline bench JSON")
    parser.add_argument("--budget", required=True, help="per-tier budget JSON")
    parser.add_argument(
        "--only", choices=("all", "tiers", "scale_out", "warm_boot", "qos"),
        default="all",
        help="gate only one budget section (default: all)",
    )
    args = parser.parse_args(argv)

    with open(args.bench) as fh:
        bench = json.load(fh)
    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    with open(args.budget) as fh:
        budget = json.load(fh)

    if args.only in ("all", "tiers"):
        for tier, rec in load_records(bench).items():
            woc = rec.get("warm_over_cold")
            cps = steady_cps(rec)
            print(
                f"[{tier}]",
                f"warm_over_cold={woc:.2f}" if woc is not None else "warm_over_cold=n/a",
                f"steady_columns/s={cps:.1f}" if cps else "steady_columns/s=n/a",
                f"outputs_identical={rec.get('outputs_identical')}",
            )
    if args.only in ("all", "scale_out"):
        for entry in (bench.get("scale_out") or {}).get("workers", []):
            cap = entry.get("capacity") or {}
            speedup = cap.get("speedup_vs_single")
            print(
                f"[scale-out {entry.get('workers')}w]",
                f"capacity_speedup={speedup:.2f}" if speedup else "capacity_speedup=n/a",
                f"outputs_identical={entry.get('outputs_identical')}",
                f"restarts={entry.get('restarts')}",
            )
    if args.only in ("all", "warm_boot"):
        record = bench.get("warm_boot")
        if record:
            speedup = record.get("speedup")
            print(
                "[warm-boot]",
                f"speedup={speedup:.2f}" if speedup is not None else "speedup=n/a",
                f"cold_ready_s={(record.get('cold') or {}).get('ready_seconds')}",
                f"artifact_load_s={(record.get('artifact') or {}).get('load_seconds')}",
                f"outputs_identical={record.get('outputs_identical')}",
            )
    if args.only in ("all", "qos"):
        record = bench.get("qos")
        if record:
            for arm_key, label in (("with_qos", "qos"), ("no_qos", "fifo")):
                arm = record.get(arm_key) or {}
                ratio = arm.get("interactive_p99_ratio")
                bulk = (arm.get("per_tenant") or {}).get("bulk") or {}
                print(
                    f"[qos {label}]",
                    f"interactive_p99_ratio={ratio:.2f}"
                    if ratio is not None
                    else "interactive_p99_ratio=n/a",
                    f"bulk_served={bulk.get('served')}/{bulk.get('submitted')}",
                    f"shed={bulk.get('shed')}",
                )
            print(
                "[qos]",
                f"outputs_identical={record.get('outputs_identical')}",
                f"shed_accounting_ok={record.get('shed_accounting_ok')}",
            )

    failures = check_budget(bench, baseline, budget, only=args.only)
    for message in failures:
        print(f"::error title=Serving perf budget breach::{message}")
    if failures:
        return 1
    sections = []
    if args.only in ("all", "tiers"):
        sections.append(f"{len(budget.get('tiers', {}))} tiers")
    if args.only in ("all", "scale_out") and budget.get("scale_out"):
        sections.append("scale_out")
    if args.only in ("all", "warm_boot") and budget.get("warm_boot"):
        sections.append("warm_boot")
    if args.only in ("all", "qos") and budget.get("qos"):
        sections.append("qos")
    print(f"perf budget OK ({', '.join(sections) or 'nothing'} checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
