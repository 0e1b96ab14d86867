"""The one stream report: key sets, the status rule, and fleet facts.

:class:`~repro.serve.report.ServeReport` is what every transport reports
through — a tenant's stream, a router's map of tenants, a fleet's map plus
its supervision facts.  The CLI, the bench-serve records and CI read its
``summary()`` keys, so those key sets are pinned here per shape.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.serve import ServeReport

#: summary()/to_json() keys per report shape, as the CLI and records read them
TENANT_KEYS = {
    "status", "requests", "served", "rejected", "failed", "columns",
    "wall_seconds", "requests_per_second", "columns_per_second",
    "latency_seconds", "exec_seconds", "arrival_seconds", "overlap_fraction",
}
ROUTER_KEYS = {
    "status", "requests", "served", "rejected", "columns", "wall_seconds",
    "columns_per_second", "latency_seconds", "latency_seconds_per_model",
    "demoted", "models",
}
FLEET_KEYS = {
    "status", "workers", "requests", "served", "rejected", "failed", "columns",
    "wall_seconds", "columns_per_second", "requests_per_second",
    "capacity_columns_per_second", "critical_path_cpu_seconds",
    "latency_seconds", "restarts", "restart_total", "streams", "per_worker",
}


def _ticket(latency=0.1, columns=1, stream=None, aid=0, y=None):
    return SimpleNamespace(
        latency_seconds=latency, columns=columns, stream=stream, aid=aid, y=y
    )


def _fleet(per_model, worker_reports=(None,), **facts):
    worker_reports = list(worker_reports)
    return ServeReport.of_tenants(
        per_model,
        workers=len(worker_reports),
        restarts=[0] * len(worker_reports),
        replayed=[0] * len(worker_reports),
        worker_reports=worker_reports,
        **facts,
    )


def _drained(**facts):
    base = {
        "worker": 0, "incarnation": 1, "pid": 1, "requests": 1, "columns": 1,
        "rejected": 0, "failed": 0, "streams": ["s"], "cpu_seconds": 0.5,
        "busy_seconds": 0.2, "wall_seconds": 1.0, "build_seconds": 0.1,
        "warmup_seconds": 0.1, "warm_sources": {"m": "warmup"},
        "slo": None, "metrics": {"up": 1.0}, "prometheus": "up 1\n",
    }
    return {**base, **facts}


def test_summary_key_sets_per_shape():
    tenant = ServeReport(served=[_ticket()], wall_seconds=1.0)
    router = ServeReport.of_tenants({"a": tenant}, wall_seconds=1.0)
    fleet = _fleet({"m": ServeReport(served=[_ticket()])}, [_drained()])
    for report, keys in ((tenant, TENANT_KEYS), (router, ROUTER_KEYS),
                         (fleet, FLEET_KEYS)):
        assert set(report.summary()) == keys
        assert set(report.to_json()) == keys
        json.dumps(report.to_json())
    # a policied tenant adds exactly the router's slo block
    router.slo = {"a": {"burn_rate": 0.0}}
    assert set(router.summary()) == ROUTER_KEYS | {"slo"}
    assert set(router.summary()["models"]["a"]) == TENANT_KEYS
    # per-worker entries carry the drain facts, never the metric payloads
    (worker,) = fleet.summary()["per_worker"]
    assert set(worker) == {"worker", "restarts", "replayed", "report"}
    assert set(worker["report"]) == {
        "incarnation", "pid", "requests", "columns", "rejected", "failed",
        "streams", "cpu_seconds", "busy_seconds", "wall_seconds",
        "build_seconds", "warmup_seconds", "warm_sources",
    }


@pytest.mark.parametrize("shape", ["tenant", "router", "fleet"])
def test_one_status_rule_for_every_shape(shape):
    """Every request failed reads ``all_failed`` on every transport; the
    fleet used to call the same outcome ``all_rejected``."""
    failed = ServeReport(failed=[(0, "boom")])
    shed = ServeReport(rejected=[(0, "full")])
    ok = ServeReport(served=[_ticket()])

    def shaped(tenant):
        if shape == "tenant":
            return tenant
        if shape == "router":
            return ServeReport.of_tenants({"m": tenant})
        return _fleet({"m": tenant}, [_drained()])

    assert shaped(failed).status == "all_failed"
    assert shaped(shed).status == "all_rejected"
    assert shaped(ok).status == "ok"
    assert shaped(ServeReport()).status == "no_traffic"


def test_fleet_status_degrades_on_a_lost_worker_or_a_shed_tenant():
    ok = ServeReport(served=[_ticket()])
    shed = ServeReport(rejected=[(0, "full")])
    assert _fleet({"m": ok}, [_drained(), None]).status == "degraded"
    assert _fleet({"m": ok, "n": shed}, [_drained()]).status == "degraded"
    assert _fleet({"m": ok, "idle": ServeReport()}, [_drained()]).status == "ok"


def test_fleet_facts_come_from_the_drained_workers():
    y = np.arange(6.0).reshape(3, 2)
    served = [
        _ticket(columns=1, stream="b", aid=3, y=y[:, 1:]),
        _ticket(columns=1, stream="a", aid=0, y=y[:, :1]),
        _ticket(columns=1, stream="a", aid=2, y=y[:, 1:]),
    ]
    report = _fleet(
        {"m": ServeReport(served=served)},
        [_drained(cpu_seconds=0.5), _drained(worker=1, cpu_seconds=1.5)],
        streams={"a": 2, "b": 1},
    )
    report.restarts = [0, 2]
    assert report.restart_total == 2
    assert report.critical_path_cpu_seconds == 1.5
    assert report.capacity_columns_per_second == pytest.approx(3 / 1.5)
    assert [w["restarts"] for w in report.per_worker()] == [0, 2]
    assert report.merged_metrics() == {'up{worker="0"}': 1.0, 'up{worker="1"}': 1.0}
    # a stream's output is its served columns in submit (aid) order
    assert np.array_equal(report.stream_output("a"), np.hstack([y[:, :1], y[:, 1:]]))
    with pytest.raises(ConfigError):
        report.stream_output("nope")
    assert report.summary()["streams"] == {"a": 2, "b": 1}
