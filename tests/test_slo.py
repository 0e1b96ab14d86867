"""Unit tests for SLO policies, budgets, and burn accounting (repro.obs.slo)."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry, SloPolicy, SloTracker


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class FakeTicket:
    """The duck-typed slice of a serving Ticket record_ticket consumes."""

    def __init__(self, latency=0.01, columns=4, failed=False, aid=7, error=None):
        self.latency_seconds = latency
        self.columns = columns
        self.failed = failed
        self.aid = aid
        self.error = error

    def breakdown(self):
        return {
            "batch_wait_seconds": 0.001,
            "execute_seconds": self.latency_seconds - 0.001,
            "block_id": 3,
            "batch_columns": self.columns,
        }


# -------------------------------------------------------------------- policy
def test_policy_parse_full_spec():
    policy = SloPolicy.parse("p99<50ms@60s/99.9%")
    assert policy.latency_target_s == pytest.approx(0.05)
    assert policy.quantile == pytest.approx(0.99)
    assert policy.window_s == pytest.approx(60.0)
    assert policy.objective == pytest.approx(0.999)
    assert policy.error_budget == pytest.approx(0.001)


def test_policy_parse_defaults_and_units():
    policy = SloPolicy.parse("p95<2s")
    assert policy.latency_target_s == pytest.approx(2.0)
    assert policy.quantile == pytest.approx(0.95)
    # window and objective fall back to the dataclass defaults
    assert policy.window_s == 60.0 and policy.objective == 0.99


def test_policy_parse_overrides_win():
    policy = SloPolicy.parse("p99<50ms@60s", window_s=10.0,
                             min_columns_per_second=100.0)
    assert policy.window_s == 10.0
    assert policy.min_columns_per_second == 100.0


@pytest.mark.parametrize("spec", ["", "p99", "50ms", "p99<50", "p99<50ms@", "q99<50ms"])
def test_policy_parse_rejects_garbage(spec):
    with pytest.raises(ConfigError):
        SloPolicy.parse(spec)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"latency_target_s": 0.0},
        {"latency_target_s": -0.1},
        {"latency_target_s": 0.1, "quantile": 1.0},
        {"latency_target_s": 0.1, "quantile": 0.0},
        {"latency_target_s": 0.1, "window_s": 0.0},
        {"latency_target_s": 0.1, "objective": 1.0},
    ],
)
def test_policy_validation(kwargs):
    with pytest.raises(ConfigError):
        SloPolicy(**kwargs)


def test_policy_describe_and_json_round_trip():
    policy = SloPolicy.parse("p99<50ms@30s/99.5%", min_columns_per_second=10.0)
    text = policy.describe()
    assert "p99 < 50ms" in text and "30s" in text and "99.5%" in text
    assert ">= 10 col/s" in text
    blob = json.dumps(policy.to_json())  # must not raise
    assert json.loads(blob)["objective"] == pytest.approx(0.995)


# ---------------------------------------------------------------- burn math
def test_idle_tracker_is_compliant_with_full_budget():
    tracker = SloTracker(SloPolicy.parse("p99<50ms"), clock=FakeClock())
    report = tracker.report()
    assert report.burn_rate == 0.0
    assert report.budget_remaining == 1.0
    assert report.latency_estimate_s is None
    assert report.quantile_ok is None and report.budget_ok is None
    assert report.compliant


def test_burn_rate_is_breach_fraction_over_budget():
    # objective 99% -> 1% error budget; 2/100 breaches -> burn 2.0
    policy = SloPolicy.parse("p99<100ms@60s/99%")
    tracker = SloTracker(policy, clock=FakeClock(50.0))
    for _ in range(98):
        tracker.record(0.01, columns=1)
    tracker.record(0.2, columns=1)
    tracker.record(0.3, columns=1)
    report = tracker.report()
    assert report.burn_rate == pytest.approx(2.0)
    assert report.budget_remaining == pytest.approx(-1.0)
    assert report.budget_ok is False
    assert not report.compliant


def test_sustainable_burn_keeps_budget_ok():
    policy = SloPolicy.parse("p99<100ms@60s/99%")
    tracker = SloTracker(policy, clock=FakeClock(50.0))
    for _ in range(199):
        tracker.record(0.01)
    tracker.record(0.5)  # 1/200 = 0.5% of a 1% budget -> burn 0.5
    report = tracker.report()
    assert report.burn_rate == pytest.approx(0.5)
    assert report.budget_ok is True


def test_fast_failure_still_burns_budget():
    policy = SloPolicy.parse("p99<100ms@60s/99%")
    tracker = SloTracker(policy, clock=FakeClock(50.0))
    for _ in range(99):
        tracker.record(0.01)
    # the failure resolved *under* the latency target, but a failed request
    # violates the objective: the window's exact breach counter must see it
    tracker.record(0.001, failed=True)
    report = tracker.report()
    assert report.window["over_target"] == 1
    assert report.burn_rate == pytest.approx(1.0)


def test_throughput_floor_verdict():
    policy = SloPolicy.parse("p99<1s@10s", min_columns_per_second=100.0)
    tracker = SloTracker(policy, clock=FakeClock(50.0))
    tracker.record(0.01, columns=50)
    report = tracker.report()
    # 50 columns over a 10 s window = 5 col/s, far under the floor
    assert report.columns_per_second == pytest.approx(5.0)
    assert report.throughput_ok is False
    assert not report.compliant
    for _ in range(40):
        tracker.record(0.01, columns=50)
    assert tracker.report().throughput_ok is True


def test_idle_window_burn_is_finite_zero_and_caches_last_burn():
    """Satellite regression: an idle window after rotation must read as
    burn 0 / budget 1 (not 0/0 -> NaN), and ``last_burn`` — the cheap
    signal admission control polls on every submit — must track it."""
    import math

    clock = FakeClock(50.0)
    tracker = SloTracker(SloPolicy.parse("p99<10ms@10s/99%"), clock=clock)
    assert tracker.last_burn == 0.0  # idle from birth, no traffic yet
    tracker.record(1.0)  # a breach: the window burns hard
    assert tracker.report().burn_rate == pytest.approx(100.0)
    assert tracker.last_burn == pytest.approx(100.0)
    clock.advance(11.0)  # everything rotates out: the window is empty again
    report = tracker.report()
    assert report.burn_rate == 0.0 and math.isfinite(report.burn_rate)
    assert report.budget_remaining == 1.0
    assert tracker.last_burn == 0.0
    # the JSON path must carry no non-finite tokens (json.dumps would
    # happily serialize NaN; a strict re-parse is the actual check)
    blob = json.dumps(report.to_json())
    json.loads(blob, parse_constant=lambda s: pytest.fail(f"leaked {s!r}"))


def test_window_expiry_restores_budget():
    clock = FakeClock(50.0)
    tracker = SloTracker(SloPolicy.parse("p99<10ms@10s/99%"), clock=clock)
    for _ in range(10):
        tracker.record(1.0)  # every request breaches
    assert tracker.report().burn_rate == pytest.approx(100.0)
    clock.advance(11.0)
    report = tracker.report()
    assert report.burn_rate == 0.0 and report.budget_remaining == 1.0
    assert report.compliant


# ----------------------------------------------------------------- tickets
def test_record_ticket_builds_trace_linked_exemplar():
    tracker = SloTracker(SloPolicy.parse("p99<100ms"), clock=FakeClock(50.0))
    tracker.record_ticket(FakeTicket(latency=0.01, aid=11), model="a")
    tracker.record_ticket(FakeTicket(latency=0.09, aid=42), model="a")
    report = tracker.report()
    exemplar = report.exemplar
    assert exemplar["request_aid"] == 42  # the slowest request's span id
    assert exemplar["model"] == "a"
    assert exemplar["latency_seconds"] == pytest.approx(0.09)
    assert exemplar["breakdown"]["block_id"] == 3
    assert "error" not in exemplar


def test_record_ticket_failed_carries_error_type():
    tracker = SloTracker(SloPolicy.parse("p99<100ms"), clock=FakeClock(50.0))
    tracker.record_ticket(
        FakeTicket(latency=0.01, failed=True, error=ValueError("boom"))
    )
    report = tracker.report()
    assert report.exemplar["error"] == "ValueError"
    assert report.breaches_total == 1  # a fast failure still breaches
    assert report.window["over_target"] == 1


# ----------------------------------------------------- registry integration
def test_tracker_publishes_per_tenant_series():
    registry = MetricsRegistry()
    clock = FakeClock(50.0)
    tracker = SloTracker(
        SloPolicy.parse("p99<100ms@60s/99%"),
        metrics=registry.labeled(model="a"), clock=clock, name="a",
    )
    # the registry-created window must share the tracker's clock for tests;
    # production uses the default monotonic clock everywhere
    tracker.window.clock = clock
    for _ in range(9):
        tracker.record(0.01, columns=2)
    tracker.record(0.5, columns=2)
    assert tracker.requests_total == 10
    assert tracker.breaches_total == 1
    assert tracker.columns_total == pytest.approx(20.0)
    snap = registry.snapshot()
    assert snap['slo_requests_total{model="a"}'] == 10
    assert snap['slo_breaches_total{model="a"}'] == 1
    # burn 10x the sustainable rate -> gauges published on every record
    assert snap['slo_burn_rate{model="a"}'] == pytest.approx(10.0)
    assert snap['slo_compliant{model="a"}'] == 0.0
    text = registry.to_prometheus()
    assert 'slo_latency_seconds{model="a",quantile="0.99"}' in text
    assert 'slo_latency_seconds_count{model="a"} 10' in text


def test_report_to_json_is_json_dumpable():
    tracker = SloTracker(SloPolicy.parse("p99<100ms"), clock=FakeClock(50.0))
    tracker.record_ticket(FakeTicket(latency=0.2, aid=3))
    blob = json.dumps(tracker.report().to_json())  # must not raise
    parsed = json.loads(blob)
    assert parsed["compliant"] is False  # windowed p99 over the target
    assert parsed["exemplar"]["request_aid"] == 3
    assert parsed["window"]["quantiles"]["p99"] > 0.1
    assert parsed["policy"]["latency_target_s"] == pytest.approx(0.1)
