"""Observability invariants across the pipeline, serving stack, and CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.harness.experiments.common import sdgc_config
from repro.core import CentroidCache
from repro.core.pipeline import SNICIT
from repro.obs import NULL_TRACER, Tracer
from repro.radixnet import benchmark_input, build_benchmark
from repro.serve import EngineSession, ModelRegistry, Router, bench_serve


@pytest.fixture(scope="module")
def bench():
    net = build_benchmark("144-24", seed=0)
    cfg = sdgc_config(net.num_layers)
    y0 = benchmark_input(net, 64, seed=1)
    return net, cfg, y0


def serve_solo(session, requests, **kwargs):
    """Serve ``requests`` through a router whose only tenant is ``session``."""
    registry = ModelRegistry()
    registry.register("m", session=session)
    router = Router(registry, **kwargs)
    return router.serve(("m", y0) for y0 in requests).per_model["m"]


# ------------------------------------------------------- disabled == no-op
def test_disabled_tracer_is_a_noop(bench):
    """Tracing off must change nothing: same output, zero recorded spans."""
    net, cfg, y0 = bench
    plain = SNICIT(net, cfg).infer(y0)
    traced = SNICIT(net, cfg, tracer=Tracer()).infer(y0)
    assert np.array_equal(plain.y, traced.y)
    assert plain.stats["n_centroids"] == traced.stats["n_centroids"]
    # the default tracer is the shared null tracer and records nothing
    engine = SNICIT(net, cfg)
    assert engine.tracer is NULL_TRACER
    engine.infer(y0)
    assert len(NULL_TRACER.spans) == 0


# ------------------------------------------------------------ span nesting
def test_trace_tree_nests_request_stage_layer_kernel(bench):
    net, cfg, y0 = bench
    tracer = Tracer()
    SNICIT(net, cfg, tracer=tracer).infer(y0)
    roots = tracer.roots()
    assert len(roots) == 1
    req = roots[0]
    assert req.cat == "request" and req.name == "snicit.infer"
    stages = req.children
    assert [s.name for s in stages] == [
        "pre_convergence", "conversion", "post_convergence", "recovery",
    ]
    assert all(s.cat == "stage" for s in stages)
    pre, conv, post, rec = stages
    pre_layers = pre.children
    assert len(pre_layers) == cfg.threshold_layer
    assert all(s.cat == "layer" for s in pre_layers)
    # each pre-convergence layer wraps exactly one champion kernel span
    for layer_span in pre_layers:
        kernels = layer_span.children
        assert [k.cat for k in kernels] == ["kernel"]
        assert kernels[0].args["flops"] > 0
        assert kernels[0].args["bytes_read"] > 0
        assert "modeled_seconds" in kernels[0].args
    # post-convergence layers carry SNICIT telemetry and two kernel spans
    post_layers = post.children
    assert len(post_layers) == net.num_layers - cfg.threshold_layer
    for layer_span in post_layers:
        assert layer_span.args["active_columns"] > 0
        assert "empty_columns" in layer_span.args
        assert [k.name for k in layer_span.children] == [
            "load_reduced_spmm", "update_centroids_residues",
        ]
    assert conv.args["n_centroids"] >= 1
    assert rec.children[0].args["kernel"] == "recovery"


def test_trace_tree_of_a_centroid_cache_hit(bench):
    """A hit runs the residue-only update; a layer whose active set has run
    empty launches no kernel at all."""
    net, cfg, y0 = bench
    tracer = Tracer()
    engine = SNICIT(net, cfg, tracer=tracer, reuse=CentroidCache(tolerance=1e9))
    engine.infer(y0)  # fills the cache
    # one column whose residue empties before the last post-convergence layers
    result = engine.infer(benchmark_input(net, 64, seed=2)[:, 7:8])
    assert result.stats["centroid_reuse"]["hit"] is True
    req = tracer.roots()[-1]
    assert req.args["centroid_reuse"] == "hit"
    stages = req.children
    assert [s.name for s in stages] == [
        "pre_convergence", "conversion", "post_convergence", "recovery",
    ]
    _, conv, post, rec = stages
    assert conv.args["reuse"] == "hit"
    assert post.args["reuse"] == "hit" and rec.args["reuse"] == "hit"
    post_layers = post.children
    post_depth = net.num_layers - result.stats["threshold_layer"]
    assert len(post_layers) == post_depth
    assert len(result.stats["active_columns_trace"]) == post_depth
    active = [layer_span.args["active_columns"] for layer_span in post_layers]
    assert max(active) > 0 and min(active) == 0  # both kinds of layer occur
    for layer_span in post_layers:
        kernels = [k.name for k in layer_span.children]
        if layer_span.args["active_columns"] > 0:
            assert kernels == ["load_reduced_spmm", "update_residues_external"]
        else:
            assert kernels == []


def test_trace_spans_stay_inside_their_parents(bench):
    net, cfg, y0 = bench
    tracer = Tracer()
    SNICIT(net, cfg, tracer=tracer).infer(y0)
    for span in tracer.spans:
        if span.parent is not None:
            assert span.t0 >= span.parent.t0
            assert span.t1 <= span.parent.t1


# ------------------------------------------------- durations vs busy time
def test_request_span_durations_sum_to_session_busy_seconds(bench):
    net, cfg, y0 = bench
    tracer = Tracer()
    session = EngineSession(net, cfg, tracer=tracer)
    for _ in range(3):
        session.run(y0)
    req_spans = tracer.find(cat="request")
    assert len(req_spans) == 3
    total = sum(s.duration for s in req_spans)
    busy = session.busy_seconds
    # request spans live just inside session.run's busy window; they must
    # account for (nearly) all of it
    assert total <= busy
    assert total == pytest.approx(busy, rel=0.5)
    # and each request's stage spans tile the request span
    for req in req_spans:
        stage_sum = sum(s.duration for s in req.children if s.cat == "stage")
        assert stage_sum <= req.duration
        assert stage_sum == pytest.approx(req.duration, rel=0.5)


# -------------------------------------------------------- serving metrics
def test_serving_metrics_survive_overflow_rejections(bench):
    net, cfg, y0 = bench
    requests = [y0[:, lo : lo + 1] for lo in range(12)]
    session = EngineSession(net, cfg)
    report = serve_solo(session, requests, max_batch=64, max_wait_s=60.0, queue_limit=2)
    assert len(report.rejected) == 10
    snap = session.metrics.snapshot()
    assert snap["serve_rejected_total"] == 10.0
    assert snap["serve_requests_total"] == 2.0
    assert snap["session_calls_total"] == 1.0  # the drained block ran once
    assert snap["serve_queue_depth"] == 0.0  # drained clean
    # accepted + rejected covers the whole stream — nothing silent
    assert snap["serve_requests_total"] + snap["serve_rejected_total"] == len(requests)


def test_batcher_flush_reasons_and_fill_histogram(bench):
    net, cfg, y0 = bench
    session = EngineSession(net, cfg)
    requests = [y0[:, lo : lo + 4] for lo in range(0, 20, 4)]  # 5 requests x 4 cols
    serve_solo(session, requests, max_batch=8, max_wait_s=60.0)
    fills = {
        labels["reason"]: h for labels, h in session.metrics.series("serve_batch_fill")
    }
    # 8-column blocks flush on 'full'; the odd request drains at end of stream
    assert fills["full"].count == 2
    assert fills["drain"].count == 1
    assert fills["full"].mean == pytest.approx(1.0)
    latency = dict(
        (tuple(labels.items()), w)
        for labels, w in session.metrics.series("serve_latency_seconds")
    )[()]
    assert latency.count == 5  # one submit-to-resolve sample per request


def test_pool_and_strategy_metrics_published(bench):
    net, cfg, y0 = bench
    session = EngineSession(net, cfg)
    session.run(y0)
    session.run(y0)
    snap = session.metrics.snapshot()
    assert snap["pool_take_total"] > 0
    assert snap["pool_hit_total"] > 0
    assert snap["pool_take_total"] == snap["pool_hit_total"] + snap["pool_alloc_total"]
    assert snap["pool_bytes_highwater"] == session.scratch.nbytes
    # 144-24 layers are dense-ish -> colwise strategy, counted per layer call
    strategies = session.metrics.series("spmm_strategy_total")
    assert sum(m.value for _, m in strategies) == 2 * net.num_layers


def test_request_lifecycle_async_events(bench):
    net, cfg, y0 = bench
    tracer = Tracer()
    session = EngineSession(net, cfg, tracer=tracer)
    requests = [y0[:, lo : lo + 2] for lo in range(0, 16, 2)]
    serve_solo(session, requests, max_batch=8, max_wait_s=60.0)
    begins = [e for e in tracer.events if e["ph"] == "b" and e["name"] == "request"]
    ends = [e for e in tracer.events if e["ph"] == "e" and e["name"] == "request"]
    assert len(begins) == len(requests)
    assert len(ends) == len(requests)
    assert {e["id"] for e in begins} == {e["id"] for e in ends}
    # pack -> execute -> resolve spans exist per flushed block
    packs = tracer.find(cat="serve", name="batch.pack")
    executes = tracer.find(cat="serve", name="batch.execute")
    resolves = tracer.find(cat="serve", name="batch.resolve")
    assert len(packs) == len(executes) == len(resolves) >= 2


# -------------------------------------------------- degenerate threshold
def test_degenerate_threshold_stage_windows_are_empty_and_disjoint(bench):
    net, cfg, y0 = bench
    engine = SNICIT(net, sdgc_config(net.num_layers, threshold_layer=net.num_layers))
    result = engine.infer(y0)
    for name in ("conversion", "post_convergence", "recovery"):
        snap = result.modeled[name]
        assert snap.launches == 0
        assert snap.flops == 0.0
        assert snap.modeled_seconds == 0.0
    tracer = Tracer()
    engine = SNICIT(
        net, sdgc_config(net.num_layers, threshold_layer=net.num_layers), tracer=tracer
    )
    engine.infer(y0)
    req = tracer.roots()[0]
    assert req.args["degenerate_threshold"] is True
    stage_names = [s.name for s in req.children]
    assert stage_names == ["pre_convergence", "conversion", "post_convergence", "recovery"]
    assert all(s.args.get("skipped") for s in req.children[1:])


# -------------------------------------------------------------- JSON-safety
def test_inference_result_to_json_is_dumpable(bench):
    net, cfg, y0 = bench
    result = SNICIT(net, cfg).infer(y0)
    report = result.to_json()
    text = json.dumps(report)  # numpy arrays in stats must not crash this
    parsed = json.loads(text)
    assert parsed["stats"]["n_centroids"] == result.stats["n_centroids"]
    assert isinstance(parsed["stats"]["active_columns_trace"], list)
    assert isinstance(parsed["stats"]["centroid_cols"], list)
    assert parsed["modeled"]["pre_convergence"]["launches"] > 0
    assert "y" not in parsed
    assert "y" in result.to_json(include_output=True)


# --------------------------------------------------------------------- CLI
def test_cli_run_writes_chrome_trace_with_full_stage_tree(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    assert main([
        "run", "144-24", "--batch", "64", "--trace", str(trace_path), "--metrics",
    ]) == 0
    out = capsys.readouterr().out
    assert "wrote Chrome trace" in out
    assert "spmm_strategy_total" in out  # prometheus exposition printed
    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    stage_names = {e["name"] for e in events if e.get("cat") == "stage"}
    assert stage_names == {"pre_convergence", "conversion", "post_convergence", "recovery"}
    layers = [e for e in events if e.get("cat") == "layer"]
    assert len(layers) == 24
    kernels = [e for e in events if e.get("cat") == "kernel"]
    assert kernels and all("flops" in e["args"] for e in kernels)


def test_cli_run_json_report(capsys):
    assert main(["run", "144-24", "--batch", "32", "--json"]) == 0
    out = capsys.readouterr().out
    payload = out[out.index("{"):]
    parsed = json.loads(payload[: payload.rindex("}") + 1])
    assert "stage_seconds" in parsed and "stats" in parsed


def test_cli_quiet_suppresses_info_output(capsys):
    assert main(["--quiet", "run", "144-24", "--batch", "32"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_serve_with_trace_and_metrics(tmp_path, capsys):
    trace_path = tmp_path / "serve_trace.json"
    assert main([
        "serve", "144-24", "--requests", "8", "--request-cols", "2",
        "--max-batch", "8", "--trace", str(trace_path), "--metrics",
    ]) == 0
    out = capsys.readouterr().out
    assert "served 8/8 requests" in out
    assert "session_calls_total" in out
    events = json.loads(trace_path.read_text())["traceEvents"]
    assert any(e.get("cat") == "serve" for e in events)
    assert any(e.get("cat") == "kernel" for e in events)


def test_bench_serve_embeds_metrics_snapshot(tmp_path):
    out = tmp_path / "BENCH_serve.json"
    trace = tmp_path / "bench_trace.json"
    result = bench_serve(
        benchmark="144-24", requests=6, request_cols=2, max_batch=12,
        out=out, trace=trace,
    )
    on_disk = json.loads(out.read_text())
    rec = on_disk["tiers"][0]
    assert rec["metrics"]["serve_requests_total"] == 6.0
    assert rec["metrics"]["session_calls_total"] > 0
    assert rec["warm"]["last_block"]["stats"]["n_centroids"] >= 1
    assert on_disk["trace"] == str(trace)
    assert trace.exists()
    assert result["tiers"][0]["speedup"] > 0
