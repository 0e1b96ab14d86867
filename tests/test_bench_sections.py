"""bench-serve's non-tier sections: multi, warm_boot, qos and scale_out.

One small all-sections record, built once per module, checked for the
invariants the CI gates read from the full-size record: bitwise isolation,
the warm-boot identity triangle, QoS identity and shed accounting, fleet
identity and crash recovery.  No timing is asserted.
"""

import pytest

from repro.serve import bench_serve


@pytest.fixture(scope="module")
def record():
    return bench_serve(
        tiers=(), multi=True, memory_budget_mb=4, warm_boot=True, qos=True,
        scale_out=(1, 2), scale_out_requests=16, requests=8, request_cols=2,
        max_batch=8, out=None,
    )


def test_multi_tenants_match_their_solo_serves(record):
    multi = record["multi"]
    assert multi["isolation_identical"]
    assert multi["under_budget"]
    for name, per in multi["per_tenant"].items():
        assert per["status"] == "ok", name
        assert per["isolation_identical"] and per["outputs_identical"], name
        quantiles = per["slo"]["window"]["quantiles"]
        assert all(quantiles.get(q) is not None for q in ("p50", "p95", "p99")), name


def test_warm_boot_identity_triangle(record):
    boot = record["warm_boot"]
    assert boot["outputs_identical"]
    assert boot["loaded_warm_source"] == "artifact"


def test_qos_identity_and_shed_accounting(record):
    qos = record["qos"]
    assert qos["outputs_identical"]
    assert qos["shed_accounting_ok"]
    arm = qos["with_qos"]
    expected = qos["bulk_requests"] - qos["bulk_admit"]
    assert expected > 0
    bulk, inter = arm["per_tenant"]["bulk"], arm["per_tenant"]["interactive"]
    assert bulk["shed"] == expected
    assert bulk["shed_reasons"] == {"rate_limit": expected}
    assert inter["shed"] == 0
    assert arm["qos"]["admission"]["shed"]["bulk"] == {"rate_limit": expected}


def test_scale_out_identity_and_crash_recovery(record):
    scale = record["scale_out"]
    assert [e["workers"] for e in scale["workers"]] == [1, 2]
    for entry in scale["workers"]:
        assert entry["outputs_identical"], entry["workers"]
        assert entry["failed"] == 0, entry["workers"]
    crash = scale["crash"]
    assert crash["recovered"]
    assert crash["other_workers_identical"]
