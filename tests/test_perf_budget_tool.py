"""tools/check_perf_budget.py — the hard CI perf gate."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_perf_budget.py"
_spec = importlib.util.spec_from_file_location("check_perf_budget", _TOOL)
cpb = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_perf_budget", cpb)
_spec.loader.exec_module(cpb)


def record(tier, woc=1.5, cps=100.0, identical=True, cats=True):
    return {
        "tier": tier,
        "warm_over_cold": woc,
        "outputs_identical": identical,
        "categories_match": cats,
        "warm": {"steady_state": {"columns_per_second": cps}},
    }


def bench(*records):
    return {"tiers": list(records)}


BUDGET = {
    "baseline_ratio_floor": 0.75,
    "tiers": {
        "medium-A": {"min_warm_over_cold": 1.0, "require_outputs_identical": True},
        "sdgc-shallow": {"min_warm_over_cold": 1.5},
    },
}


def test_gate_passes_within_budget():
    b = bench(record("medium-A"), record("sdgc-shallow", woc=3.0))
    assert cpb.check_budget(b, b, BUDGET) == []


def test_gate_fails_on_warm_over_cold_floor():
    b = bench(record("medium-A", woc=0.88), record("sdgc-shallow", woc=3.0))
    failures = cpb.check_budget(b, None, BUDGET)
    assert len(failures) == 1
    assert "medium-A" in failures[0] and "0.88" in failures[0]


def test_gate_fails_on_missing_tier():
    failures = cpb.check_budget(bench(record("medium-A")), None, BUDGET)
    assert any("sdgc-shallow" in f and "missing" in f for f in failures)


def test_gate_fails_on_bitwise_divergence():
    b = bench(record("medium-A", identical=False), record("sdgc-shallow"))
    failures = cpb.check_budget(b, None, BUDGET)
    assert any("bitwise" in f for f in failures)
    # sdgc has no bitwise requirement -> divergence there is not a breach
    b2 = bench(record("medium-A"), record("sdgc-shallow", identical=False))
    assert cpb.check_budget(b2, None, BUDGET) == []


def test_gate_fails_on_category_mismatch():
    b = bench(record("medium-A", cats=False), record("sdgc-shallow"))
    assert any("categories" in f for f in cpb.check_budget(b, None, BUDGET))


def test_gate_fails_on_baseline_throughput_ratio():
    new = bench(record("medium-A", cps=50.0), record("sdgc-shallow"))
    base = bench(record("medium-A", cps=100.0), record("sdgc-shallow"))
    failures = cpb.check_budget(new, base, BUDGET)
    assert any("below the committed baseline" in f for f in failures)
    # exactly at the floor passes
    at_floor = bench(record("medium-A", cps=75.0), record("sdgc-shallow"))
    assert cpb.check_budget(at_floor, base, BUDGET) == []
    # a record without a steady-state rate skips the ratio instead of failing
    assert cpb.steady_cps({"tier": "x", "warm": {}}) is None


def test_main_exit_codes(tmp_path):
    ok = bench(record("medium-A"), record("sdgc-shallow", woc=3.0))
    bad = bench(record("medium-A", woc=0.5), record("sdgc-shallow", woc=3.0))
    budget_p = tmp_path / "budget.json"
    budget_p.write_text(json.dumps(BUDGET))
    for payload, code in ((ok, 0), (bad, 1)):
        bench_p = tmp_path / "bench.json"
        bench_p.write_text(json.dumps(payload))
        argv = ["--bench", str(bench_p), "--budget", str(budget_p)]
        assert cpb.main(argv) == code


# ---------------------------------------------------------------------------
# schema-4 scale-out gating


def scale_entry(workers, speedup=2.0, identical=True, failed=0):
    return {
        "workers": workers,
        "served": 192,
        "failed": failed,
        "restarts": [0] * workers,
        "outputs_identical": identical,
        "capacity": {"speedup_vs_single": speedup},
    }


def scale_record(*entries, crash="recovered"):
    rec = {"workers": list(entries)}
    if crash is not None:
        rec["crash"] = {
            "workers": 2,
            "recovered": crash == "recovered",
            "restarts": [1, 0],
            "failed": 0,
            "outputs_identical": True,
        }
    return rec


SCALE_BUDGET = {
    "scale_out": {
        "min_capacity_speedup": {"2": 1.2, "4": 1.5},
        "require_outputs_identical": True,
        "require_crash_recovery": True,
    }
}


def test_scale_out_gate_passes_within_budget():
    b = {"scale_out": scale_record(scale_entry(1, 1.0), scale_entry(2, 1.8))}
    assert cpb.check_budget(b, None, SCALE_BUDGET) == []


def test_scale_out_gate_fails_below_capacity_floor():
    b = {"scale_out": scale_record(scale_entry(1, 1.0), scale_entry(2, 1.1))}
    failures = cpb.check_budget(b, None, SCALE_BUDGET)
    assert any("2-worker capacity speedup" in f for f in failures)


def test_scale_out_gate_skips_unmeasured_counts():
    # budget lists a 4-worker floor; a job measuring only 1,2 must pass
    b = {"scale_out": scale_record(scale_entry(1, 1.0), scale_entry(2, 1.8))}
    assert cpb.check_budget(b, None, SCALE_BUDGET) == []


def test_scale_out_gate_fails_on_divergence_or_failures():
    diverged = {
        "scale_out": scale_record(scale_entry(1, 1.0), scale_entry(2, 1.8, identical=False))
    }
    assert any(
        "bitwise" in f for f in cpb.check_budget(diverged, None, SCALE_BUDGET)
    )
    dropped = {
        "scale_out": scale_record(scale_entry(1, 1.0), scale_entry(2, 1.8, failed=3))
    }
    assert any(
        "failed" in f for f in cpb.check_budget(dropped, None, SCALE_BUDGET)
    )


def test_scale_out_gate_requires_crash_recovery():
    missing = {"scale_out": scale_record(scale_entry(1, 1.0), crash=None)}
    assert any(
        "crash" in f for f in cpb.check_budget(missing, None, SCALE_BUDGET)
    )
    failed = {"scale_out": scale_record(scale_entry(1, 1.0), crash="failed")}
    assert any(
        "did not recover" in f for f in cpb.check_budget(failed, None, SCALE_BUDGET)
    )


def test_scale_out_gate_absent_sections_are_not_breaches():
    # tier-only bench under a tier-only budget: no scale_out rules, no breach
    b = bench(record("medium-A"), record("sdgc-shallow", woc=3.0))
    assert cpb.check_budget(b, b, BUDGET, only="all") == []
    # scale_out rules but --only tiers: the scale-out half is not consulted
    b2 = bench(record("medium-A"), record("sdgc-shallow", woc=3.0))
    assert cpb.check_budget(b2, None, {**BUDGET, **SCALE_BUDGET}, only="tiers") == []


def test_load_records_tolerates_scale_out_only_capture():
    # a --tiers none bench file has no tier records; the tool must return
    # an empty mapping (so --only scale_out jobs run) rather than crash
    assert cpb.load_records({"schema": 4, "scale_out": scale_record()}) == {}


def test_main_only_scale_out_on_tiers_none_capture(tmp_path):
    ok = {"schema": 4, "scale_out": scale_record(scale_entry(1, 1.0), scale_entry(2, 1.8))}
    bad = {"schema": 4, "scale_out": scale_record(scale_entry(1, 1.0), scale_entry(2, 1.05))}
    budget_p = tmp_path / "budget.json"
    budget_p.write_text(json.dumps(SCALE_BUDGET))
    for payload, code in ((ok, 0), (bad, 1)):
        bench_p = tmp_path / "bench.json"
        bench_p.write_text(json.dumps(payload))
        argv = [
            "--bench", str(bench_p), "--budget", str(budget_p),
            "--only", "scale_out",
        ]
        assert cpb.main(argv) == code


# ---------------------------------------------------------------------------
# schema-6 QoS A/B gating


def qos_arm(ratio, served=24, shed=16, failed=0):
    return {
        "interactive_p99_ratio": ratio,
        "per_tenant": {
            "interactive": {"submitted": 24, "served": 24, "shed": 0, "failed": 0},
            "bulk": {"submitted": 40, "served": served, "shed": shed,
                     "failed": failed},
        },
    }


def qos_record(with_ratio=0.9, no_ratio=3.5, identical=True, accounting=True,
               failed=0):
    return {
        "with_qos": qos_arm(with_ratio, failed=failed),
        "no_qos": qos_arm(no_ratio, served=40, shed=0),
        "outputs_identical": identical,
        "shed_accounting_ok": accounting,
    }


QOS_BUDGET = {
    "qos": {
        "max_interactive_p99_ratio": 1.5,
        "require_no_qos_breach": True,
        "require_outputs_identical": True,
        "require_shed_accounting": True,
    }
}


def test_qos_gate_passes_within_budget():
    b = {"qos": qos_record()}
    assert cpb.check_budget(b, None, QOS_BUDGET) == []


def test_qos_gate_fails_above_p99_ceiling():
    b = {"qos": qos_record(with_ratio=2.1)}
    failures = cpb.check_budget(b, None, QOS_BUDGET)
    assert any("2.10x" in f and "ceiling 1.50x" in f for f in failures)


def test_qos_gate_requires_the_control_arm_to_breach():
    # a FIFO arm that also holds the ceiling means the bulk tenant never
    # contended — the QoS pass would be vacuous, so the gate fails it
    b = {"qos": qos_record(no_ratio=1.2)}
    failures = cpb.check_budget(b, None, QOS_BUDGET)
    assert any("proves nothing" in f for f in failures)


def test_qos_gate_fails_on_divergence_and_accounting():
    diverged = {"qos": qos_record(identical=False)}
    assert any(
        "bitwise" in f for f in cpb.check_budget(diverged, None, QOS_BUDGET)
    )
    unbalanced = {"qos": qos_record(accounting=False)}
    assert any(
        "shed accounting" in f
        for f in cpb.check_budget(unbalanced, None, QOS_BUDGET)
    )
    dropped = {"qos": qos_record(failed=2)}
    assert any(
        "failed 2 requests" in f
        for f in cpb.check_budget(dropped, None, QOS_BUDGET)
    )


def test_qos_gate_fails_on_missing_record_or_ratios():
    assert cpb.check_budget({}, None, QOS_BUDGET, only="qos") == [
        "qos: missing from the bench output"
    ]
    armless = {"qos": {"outputs_identical": True, "shed_accounting_ok": True}}
    failures = cpb.check_budget(armless, None, QOS_BUDGET)
    assert any("QoS arm has no interactive p99 ratio" in f for f in failures)
    assert any("control arm has no interactive p99 ratio" in f for f in failures)


def test_qos_gate_only_isolation():
    # qos rules present but --only tiers: the qos half is not consulted
    b = bench(record("medium-A"), record("sdgc-shallow", woc=3.0))
    assert cpb.check_budget(b, None, {**BUDGET, **QOS_BUDGET}, only="tiers") == []
    # --only qos against a qos-only capture ignores the missing tiers
    b2 = {"schema": 6, "qos": qos_record()}
    assert cpb.check_budget(b2, None, {**BUDGET, **QOS_BUDGET}, only="qos") == []


def test_load_records_tolerates_qos_only_capture():
    assert cpb.load_records({"schema": 6, "qos": qos_record()}) == {}
    with pytest.raises(ValueError):
        cpb.load_records({"nope": 1})


def test_main_only_qos_exit_codes(tmp_path):
    ok = {"schema": 6, "qos": qos_record()}
    bad = {"schema": 6, "qos": qos_record(with_ratio=3.0)}
    budget_p = tmp_path / "budget.json"
    budget_p.write_text(json.dumps(QOS_BUDGET))
    for payload, code in ((ok, 0), (bad, 1)):
        bench_p = tmp_path / "bench.json"
        bench_p.write_text(json.dumps(payload))
        argv = ["--bench", str(bench_p), "--budget", str(budget_p),
                "--only", "qos"]
        assert cpb.main(argv) == code


# ---------------------------------------------------------------------------
# the in-repo loader must accept the same generations (satellite: schema
# round-trip so the gate never silently drops tiers)


def test_repro_load_bench_records_round_trips_all_schemas():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.errors import ConfigError
    from repro.serve.bench import load_bench_records

    tier_rec = record("sdgc-shallow")
    # the "tiers" list, beside any of its sibling records
    for payload in (
        {"schema": 6, "tiers": [tier_rec]},
        {"schema": 6, "tiers": [tier_rec], "multi": {}},
        {"schema": 6, "tiers": [tier_rec], "scale_out": scale_record()},
        {"schema": 6, "tiers": [tier_rec], "qos": qos_record()},
    ):
        recs = load_bench_records(payload)
        assert [r["tier"] for r in recs] == ["sdgc-shallow"]
    # record-only captures (--tiers none): empty, not an error
    assert load_bench_records({"schema": 6, "scale_out": scale_record()}) == []
    assert load_bench_records({"schema": 6, "qos": qos_record()}) == []
    with pytest.raises(ConfigError):
        load_bench_records({"nope": 1})
    with pytest.raises(ConfigError):
        load_bench_records([tier_rec])

    # both loaders agree on every shape (the tool mirrors the repo loader)
    for payload in (
        {"schema": 6, "tiers": [tier_rec], "scale_out": scale_record()},
        {"schema": 6, "scale_out": scale_record()},
    ):
        tool_view = cpb.load_records(payload)
        repo_view = {r["tier"]: r for r in load_bench_records(payload)}
        assert set(tool_view) == set(repo_view)
