"""Fleet serving suite: sharding, determinism, supervision, merged telemetry.

Three layers of coverage:

* unit — :func:`~repro.serve.fleet.stream_shard` stability and spread,
  :class:`~repro.serve.fleet.TenantSpec` pickling + deterministic rebuild,
  and the :mod:`repro.obs.merge` relabeling functions on synthetic payloads
  (no processes involved);
* differential — a real 2-worker fleet on the ``144-24`` benchmark must
  produce per-stream outputs bitwise identical to an in-process
  :class:`~repro.serve.router.AsyncRouter` serving the same submission
  order, and its merged ``/metrics`` + ``/slo`` scrape must keep workers
  separable by label;
* supervision — SIGKILL one worker mid-stream and assert the other
  worker's streams are untouched (still bitwise-identical), the restarted
  worker re-serves its shard correctly after re-warmup, and the restart /
  replay counters surface in the fleet report.

Spawned workers rebuild their tenants from :class:`TenantSpec` recipes, so
everything here runs on the small scaled-SDGC benchmark to keep per-worker
warmup cheap.  ``max_wait_s`` is large everywhere: blocks must flush on
size or drain (deterministic schedule), never on a wall-clock deadline
racing arrival jitter — see the fleet module docstring.
"""

import json
import pickle
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    ReproError,
    ServeClosedError,
    ServeShedError,
    ShapeError,
)
from repro.harness.experiments.common import sdgc_config
from repro.obs.merge import inject_label, merge_prometheus, merge_snapshots
from repro.radixnet import benchmark_input, build_benchmark
from repro.serve import AsyncRouter, EngineSession, ModelRegistry
from repro.serve.fleet import (
    FleetDispatcher,
    TenantSpec,
    WorkerCrashError,
    _rebuild_error,
    stream_shard,
)

BENCH = "144-24"
WAIT = 60.0


# ------------------------------------------------------------------ helpers
def _workload(streams, per_stream, cols=2):
    """``(model, stream, y0)`` items, round-robin over streams per round."""
    net = build_benchmark(BENCH, seed=0)
    items = []
    for j in range(per_stream):
        for i, stream in enumerate(streams):
            y0 = benchmark_input(net, cols, seed=1 + 7 * i + j)
            items.append(("m", stream, y0))
    return items


def _reference_outputs(items, max_batch):
    """Per-stream hstacked outputs from a single-process AsyncRouter."""
    net = build_benchmark(BENCH, seed=0)
    registry = ModelRegistry()
    registry.register("m", net, config=sdgc_config(net.num_layers), warm=True)
    router = AsyncRouter(registry, max_batch=max_batch, max_wait_s=WAIT)
    tickets = [
        (stream, router.submit(model, y0, stream=stream))
        for model, stream, y0 in items
    ]
    router.close(drain=True)
    outputs = {}
    for stream, ticket in tickets:
        outputs.setdefault(stream, []).append(ticket.y)
    return {s: np.hstack(parts) for s, parts in outputs.items()}


def _streams_for_slots(workers, per_slot):
    """Stream names guaranteed to cover every worker slot ``per_slot`` times."""
    picked = {i: [] for i in range(workers)}
    n = 0
    while any(len(v) < per_slot for v in picked.values()):
        name = f"s{n}"
        slot = stream_shard(name, workers)
        if len(picked[slot]) < per_slot:
            picked[slot].append(name)
        n += 1
    return picked


# --------------------------------------------------------------------- unit
def test_stream_shard_stable_and_spread():
    for stream in ("a", "tenant-7", "s0", ""):
        slot = stream_shard(stream, 4)
        assert 0 <= slot < 4
        assert stream_shard(stream, 4) == slot  # stable across calls
    # enough streams cover every slot (balanced-ish hash, not a constant)
    slots = {stream_shard(f"s{i}", 4) for i in range(64)}
    assert slots == {0, 1, 2, 3}
    # non-string ids shard via their str form
    assert stream_shard(7, 4) == stream_shard("7", 4)
    with pytest.raises(ConfigError):
        stream_shard("x", 0)


def test_tenant_spec_picklable_and_deterministic():
    spec = TenantSpec("m", BENCH, threshold=5, slo="p99<250ms@30s/95%")
    clone = pickle.loads(pickle.dumps(spec))
    assert clone == spec
    net_a, cfg_a = spec.build()
    net_b, cfg_b = spec.build()
    assert cfg_a.threshold_layer == 5 == cfg_b.threshold_layer
    w_a, w_b = net_a.layers[0].weight, net_b.layers[0].weight
    assert w_a.nnz == w_b.nnz
    assert np.array_equal(w_a.data, w_b.data)


def test_worker_errors_rebuild_as_their_own_class():
    assert type(_rebuild_error("ShapeError", "bad")) is ShapeError
    assert type(_rebuild_error("ServeShedError", "bad")) is ServeShedError
    unknown = _rebuild_error("ValueError", "bad")
    assert type(unknown) is ReproError and str(unknown) == "ValueError: bad"


def test_inject_label_forms():
    assert inject_label("up", "worker", "0") == 'up{worker="0"}'
    assert (
        inject_label('lat{model="a",q="p99"}', "worker", "1")
        == 'lat{worker="1",model="a",q="p99"}'
    )


def test_merge_snapshots_unions_under_worker_label():
    merged = merge_snapshots(
        {"0": {"up": 1.0, 'c{model="a"}': 2.0}, "1": {"up": 3.0}}
    )
    assert merged == {
        'c{worker="0",model="a"}': 2.0,
        'up{worker="0"}': 1.0,
        'up{worker="1"}': 3.0,
    }


def test_merge_prometheus_groups_and_relabels():
    exp0 = (
        "# HELP req_total requests\n# TYPE req_total counter\n"
        'req_total{model="a"} 4\n'
        "# TYPE lat histogram\nlat_bucket{le=\"0.1\"} 2\nlat_sum 0.3\nlat_count 2\n"
    )
    exp1 = (
        "# HELP req_total requests\n# TYPE req_total counter\nreq_total 9\n"
    )
    merged = merge_prometheus({"0": exp0, "1": exp1})
    lines = merged.splitlines()
    # headers survive exactly once, before their series
    assert lines.count("# TYPE req_total counter") == 1
    assert 'req_total{worker="0",model="a"} 4' in lines
    assert 'req_total{worker="1"} 9' in lines
    # histogram suffix series stay grouped under the base-name header
    assert lines.index("# TYPE lat histogram") < lines.index(
        'lat_bucket{worker="0",le="0.1"} 2'
    )
    assert 'lat_count{worker="0"} 2' in lines
    # one worker's series never bleed past another metric's header block
    assert lines.index('req_total{worker="1"} 9') < lines.index(
        "# TYPE lat histogram"
    )


# ------------------------------------------------------------- differential
@pytest.fixture(scope="module")
def fleet_run():
    """One 2-worker fleet serve shared by the differential assertions."""
    streams = [s for v in _streams_for_slots(2, 2).values() for s in v]
    items = _workload(streams, per_stream=3)
    specs = [TenantSpec("m", BENCH, slo="p99<250ms@30s/95%")]
    fleet = FleetDispatcher(
        specs, workers=2, max_batch=4, max_wait_s=WAIT, start_timeout=180.0
    )
    try:
        placement = {s: fleet.worker_for(s) for s in streams}
        live = fleet.stats()
        report = fleet.serve(items)
        endpoint = fleet.obs_endpoint()
        try:
            with urllib.request.urlopen(endpoint.url + "/metrics", timeout=5.0) as r:
                metrics_text = r.read().decode()
            with urllib.request.urlopen(endpoint.url + "/slo", timeout=5.0) as r:
                slo_payload = json.loads(r.read().decode())
        finally:
            endpoint.close()
    finally:
        fleet.close()
    return {
        "fleet": fleet,
        "items": items,
        "streams": streams,
        "placement": placement,
        "live": live,
        "report": report,
        "metrics_text": metrics_text,
        "slo": slo_payload,
        "reference": _reference_outputs(items, max_batch=4),
    }


def test_fleet_outputs_bitwise_match_single_process(fleet_run):
    report = fleet_run["report"]
    assert report.status == "ok"
    assert not report.rejected and not report.failed
    assert len(report.served) == len(fleet_run["items"])
    for stream in fleet_run["streams"]:
        got = report.stream_output(stream)
        want = fleet_run["reference"][stream]
        assert got.shape == want.shape
        assert np.array_equal(got, want), f"stream {stream} diverged"
    # both slots actually took traffic (the shard covers both by design)
    assert set(fleet_run["placement"].values()) == {0, 1}


def test_fleet_report_merges_worker_views(fleet_run):
    report = fleet_run["report"]
    assert report.workers == 2
    assert report.restarts == [0, 0]
    assert all(rep is not None for rep in report.worker_reports)
    assert sum(rep["requests"] for rep in report.worker_reports) == len(
        fleet_run["items"]
    )
    # per-worker streams agree with the dispatcher's placement map
    for i, rep in enumerate(report.worker_reports):
        expected = sorted(
            s for s, slot in fleet_run["placement"].items() if slot == i
        )
        assert rep["streams"] == expected
        assert rep["cpu_seconds"] > 0
    assert report.columns == sum(y0.shape[1] for _, _, y0 in fleet_run["items"])
    assert report.capacity_columns_per_second > 0
    summary = report.summary()
    assert summary["served"] == len(fleet_run["items"])
    json.dumps(report.to_json())  # JSON-safe end to end
    # tickets carry the worker's block fields across the process boundary
    ticket = report.served[0]
    assert ticket.worker in (0, 1)
    assert ticket.batch_columns <= 4 * 2  # max_batch blocks only
    breakdown = ticket.breakdown()
    assert breakdown["block_id"] >= 1 and breakdown["execute_seconds"] > 0
    assert 0 <= breakdown["batch_wait_seconds"] <= ticket.latency_seconds
    assert set(breakdown["stage_seconds"]) >= {"pre_convergence", "recovery"}


def test_fleet_merged_scrape_keeps_workers_separable(fleet_run):
    text = fleet_run["metrics_text"]
    assert 'worker="0"' in text and 'worker="1"' in text
    # the dispatcher endpoint serves the merged exposition, not one worker's
    snapshot = fleet_run["report"].merged_metrics()
    assert any('worker="0"' in k for k in snapshot)
    assert any('worker="1"' in k for k in snapshot)
    # per-tenant-per-worker SLO blocks under model@worker keys
    assert set(fleet_run["slo"]) == {"m@0", "m@1"}
    live = fleet_run["live"]
    assert [s["alive"] for s in live["slots"]] == [True, True]
    assert [s["incarnation"] for s in live["slots"]] == [1, 1]


def test_fleet_rejects_bad_submits(fleet_run):
    fleet = fleet_run["fleet"]
    with pytest.raises(ConfigError):
        fleet.submit("nope", np.zeros((4, 1)))
    with pytest.raises(ServeClosedError):
        fleet.submit("m", np.zeros((4, 1)))  # fleet already drained
    # join after the fact returns the same report object, idempotently
    assert fleet.join() is fleet_run["report"]


def test_fleet_rejection_keeps_the_worker_error_type():
    """A bad-shape request raises the worker's ShapeError from ``.y`` — the
    error an in-process submit raises — and counts as rejected, not as a
    worker crash; its stream-mate still serves."""
    net = build_benchmark(BENCH, seed=0)
    registry = ModelRegistry()
    registry.register("m", net, config=sdgc_config(net.num_layers))
    with pytest.raises(ShapeError):
        AsyncRouter(registry).submit("m", np.zeros((7, 2)))

    fleet = FleetDispatcher(
        [TenantSpec("m", BENCH)], workers=1, max_batch=4, max_wait_s=WAIT,
        start_timeout=180.0,
    )
    try:
        bad = fleet.submit("m", np.zeros((7, 2)), stream="s")
        good = fleet.submit("m", benchmark_input(net, 2, seed=1), stream="s")
        report = fleet.join()
    finally:
        fleet.close()
    assert bad.wait(WAIT) and bad.failed and not bad.ready
    assert isinstance(bad.error, ShapeError)
    assert not isinstance(bad.error, WorkerCrashError)
    with pytest.raises(ShapeError):
        bad.y
    with pytest.raises(ShapeError):
        bad.categories
    assert bad.result is None  # the block's InferenceResult stays in the worker
    assert good.ready and good.y.shape == (net.output_dim, 2)
    assert (bad.stream, bad.index, good.index) == ("s", 0, 1)
    assert len(report.rejected) == 1 and len(report.served) == 1
    assert not report.failed and report.status == "ok"
    assert "ShapeError" not in report.rejected[0][1]  # the type is the class now


# -------------------------------------------------------------- supervision
def test_fleet_crash_recovery_isolates_streams():
    by_slot = _streams_for_slots(2, 2)
    streams = [s for v in by_slot.values() for s in v]
    items = _workload(streams, per_stream=4)
    victim = 0
    specs = [TenantSpec("m", BENCH)]
    fleet = FleetDispatcher(
        specs, workers=2, max_batch=4, max_wait_s=WAIT, start_timeout=180.0
    )
    try:
        for model, stream, y0 in items:
            fleet.submit(model, y0, stream=stream)
        fleet.kill_worker(victim)  # SIGKILL mid-stream, queues non-empty
        report = fleet.join()
    finally:
        fleet.close()

    # supervision surfaced: exactly the victim restarted, with replay
    assert report.restarts[victim] == 1
    assert report.restarts[1 - victim] == 0
    assert report.restart_total == 1
    assert report.replayed[victim] > 0
    assert report.replayed[1 - victim] == 0

    # nothing was lost or failed anywhere in the fleet
    assert not report.failed and not report.rejected
    assert len(report.served) == len(items)
    assert report.status == "ok"

    reference = _reference_outputs(items, max_batch=4)
    # (a) the surviving worker's streams are bitwise-undisturbed
    for stream in by_slot[1 - victim]:
        assert np.array_equal(report.stream_output(stream), reference[stream])
    # (b) the restarted worker re-warmed and re-served its shard identically
    for stream in by_slot[victim]:
        assert np.array_equal(report.stream_output(stream), reference[stream])
    # the replacement incarnation filed the victim slot's final report
    assert report.worker_reports[victim] is not None
    assert report.worker_reports[victim]["incarnation"] == 2


def test_fleet_crash_restart_boots_from_artifact(tmp_path):
    """A SIGKILLed worker's replacement boots from the shared warm artifact.

    With ``TenantSpec.warm_state`` set, every incarnation — the crash
    victim's replacement included — must report booting from the artifact
    (nobody silently re-bakes), pay less for registry warmup than for the
    unavoidable network build, and replay its shard bitwise identically.
    """
    net = build_benchmark(BENCH, seed=0)
    net.drop_views()
    artifact = str(tmp_path / "warm.npz")
    EngineSession(net, sdgc_config(net.num_layers)).save_warm_state(artifact)
    net.drop_views()

    by_slot = _streams_for_slots(2, 2)
    streams = [s for v in by_slot.values() for s in v]
    items = _workload(streams, per_stream=4)
    victim = 0
    specs = [TenantSpec("m", BENCH, warm_state=artifact)]
    fleet = FleetDispatcher(
        specs, workers=2, max_batch=4, max_wait_s=WAIT, start_timeout=180.0
    )
    try:
        for model, stream, y0 in items:
            fleet.submit(model, y0, stream=stream)
        fleet.kill_worker(victim)  # SIGKILL mid-stream, queues non-empty
        report = fleet.join()
    finally:
        fleet.close()

    assert report.restarts[victim] == 1
    assert report.restart_total == 1
    assert not report.failed and not report.rejected
    assert report.status == "ok"
    reference = _reference_outputs(items, max_batch=4)
    for stream in streams:
        assert np.array_equal(report.stream_output(stream), reference[stream])
    # every incarnation booted from the artifact, the replacement included
    for rep in report.worker_reports:
        assert rep is not None
        assert rep["warm_sources"] == {"m": "artifact"}
    victim_rep = report.worker_reports[victim]
    assert victim_rep["incarnation"] == 2
    # artifact boot skips warmup work: loading the file is structurally
    # cheaper than the network build the replacement also had to pay,
    # where a cold boot pays build *plus* a full bake on top
    assert victim_rep["warmup_seconds"] < victim_rep["build_seconds"]


def test_fleet_healthz_degrades_past_restart_budget():
    """A slot dead past ``max_restarts`` flips the fleet ``/healthz`` to 503.

    Process liveness alone must not report a fleet that fails every stream
    hashed to a dead slot as healthy — the endpoint is a readiness probe
    wired to :meth:`FleetDispatcher.health`.
    """
    specs = [TenantSpec("m", BENCH)]
    fleet = FleetDispatcher(
        specs, workers=2, max_batch=4, max_wait_s=WAIT,
        start_timeout=180.0, max_restarts=0,
    )
    endpoint = None
    try:
        assert fleet.health()["healthy"] is True
        endpoint = fleet.obs_endpoint()
        with urllib.request.urlopen(endpoint.url + "/healthz", timeout=5.0) as r:
            assert r.status == 200
            assert json.loads(r.read().decode())["healthy"] is True
        fleet.kill_worker(0)  # restart budget is 0: the slot goes dead
        deadline = time.monotonic() + 60.0
        while fleet.health()["healthy"] and time.monotonic() < deadline:
            time.sleep(0.05)
        health = fleet.health()
        assert health["healthy"] is False
        assert health["dead_workers"] == [0]
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(endpoint.url + "/healthz", timeout=5.0)
        assert exc_info.value.code == 503
        payload = json.loads(exc_info.value.read().decode())
        assert payload["healthy"] is False and payload["dead_workers"] == [0]
    finally:
        if endpoint is not None:
            endpoint.close()
        fleet.close()
