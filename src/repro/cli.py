"""Command-line interface.

Usage::

    python -m repro list                         # registry benchmarks
    python -m repro run 256-48 --engine snicit --batch 1000
    python -m repro run 144-24 --trace trace.json --metrics
    python -m repro compare 256-48 --batch 1000  # SNICIT vs the champions
    python -m repro experiment table3 --scale 0.5
    python -m repro generate 256-24 out_dir/     # write SDGC .tsv layers
    python -m repro serve 144-24 --requests 128  # micro-batched serving demo
    python -m repro serve 144-24 --async-transport --arrival-rate 500
    python -m repro serve --model a=144-24 --model b=144-48 --memory-budget-mb 8
    python -m repro serve --model a=144-24 --slo 'p99<50ms@60s/99%' --obs-port 9095
    python -m repro serve --model a=144-24 --model b=144-48 \\
        --qos a=interactive --qos b=batch:rate=256,burst=512
    python -m repro bench-serve --tiers none --no-warm-boot --qos
    python -m repro bench-serve                  # tiered cold vs warm throughput
    python -m repro bench-serve 144-24 --centroid-reuse --stream repeat
    python -m repro bench-serve --multi --memory-budget-mb 8
    python -m repro warmup 144-24 --centroid-reuse --save warm.npz
    python -m repro warmup 144-24 --centroid-reuse --load warm.npz  # verify
    python -m repro serve 144-24 --workers 2 --warm-state warm.npz

All human-facing output goes through the ``"repro"`` logger: ``--verbose``
adds instrumentation chatter, ``--quiet`` keeps only warnings.  ``--trace``
writes a Chrome trace-event file (open it in Perfetto or chrome://tracing);
``--metrics`` prints the Prometheus text exposition after the command.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro._version import __version__
from repro.obs import get_logger, setup_logging

log = get_logger()

EXPERIMENTS = (
    "table1", "table3", "table4", "fig1", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "ablations", "related",
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _make_obs(args):
    """(tracer, registry) from the --trace/--metrics flags (None when off)."""
    from repro.obs import MetricsRegistry, Tracer

    tracer = Tracer() if getattr(args, "trace", None) else None
    registry = MetricsRegistry() if getattr(args, "metrics", False) else None
    return tracer, registry


def _finish_obs(args, tracer, registry) -> None:
    """Write the trace file / print the metrics exposition, if requested."""
    if tracer is not None:
        path = tracer.write_chrome(args.trace)
        log.info(f"wrote Chrome trace to {path} ({len(tracer)} spans)")
    if registry is not None:
        log.info(registry.to_prometheus().rstrip("\n"))


def _start_obs_endpoint(args, metrics, slo_provider=None):
    """Scrape endpoint from ``--obs-port`` (None when the flag is off)."""
    if getattr(args, "obs_port", None) is None:
        return None
    from repro.obs import ObsServer

    server = ObsServer(metrics, slo_provider=slo_provider, port=args.obs_port)
    log.info(f"obs endpoint at {server.url} (/metrics /slo /healthz)")
    return server


def _finish_obs_endpoint(args, server) -> None:
    """Hold the endpoint open ``--obs-hold-s`` seconds, then shut it down."""
    if server is None:
        return
    hold = getattr(args, "obs_hold_s", 0.0) or 0.0
    if hold > 0:
        log.info(f"holding obs endpoint open for {hold:g}s (ctrl-c to stop)")
        try:
            time.sleep(hold)
        except KeyboardInterrupt:
            pass
    server.close()


def _parse_qos_flags(args, names) -> dict[str, str] | None:
    """``--qos NAME=SPEC`` flags as a name -> policy-spec dict.

    Returns None when no flag was given; raises SystemExit-style (logged,
    value ``None`` with ``args._qos_error`` set) handling is left to the
    callers, so this just validates shape and tenant names.
    """
    if not getattr(args, "qos", None):
        return None
    policies: dict[str, str] = {}
    for spec in args.qos:
        name, sep, policy = spec.partition("=")
        if not sep or not name or not policy:
            raise ValueError(f"--qos wants NAME=SPEC, got {spec!r}")
        if name not in names:
            raise ValueError(
                f"--qos names unknown tenant {name!r}; tenants: {sorted(names)}"
            )
        policies[name] = policy
    return policies


def _cmd_list(args) -> int:
    from repro.harness.report import TextTable
    from repro.radixnet.registry import list_benchmarks

    table = TextTable(["name", "paper", "neurons", "layers", "bias", "connections"])
    for spec in list_benchmarks():
        table.add(spec.name, spec.paper_name, spec.neurons, spec.layers,
                  spec.bias, spec.connections)
    log.info(table.render())
    return 0


def _cmd_run(args) -> int:
    from repro.harness.experiments.common import sdgc_config
    from repro.harness.runner import run_engine
    from repro.harness.workloads import get_benchmark, get_input

    net = get_benchmark(args.benchmark)
    y0 = get_input(args.benchmark, args.batch)
    cfg = sdgc_config(net.num_layers, threshold_layer=args.threshold)\
        if args.threshold is not None else sdgc_config(net.num_layers)
    tracer, registry = _make_obs(args)
    run = run_engine(
        args.engine, net, y0, snicit_config=cfg, tracer=tracer, metrics=registry
    )
    log.info(f"{args.engine} on {args.benchmark} (B={args.batch}): "
             f"{run.wall_ms:.1f} ms wall, {run.modeled_ms:.4f} ms modeled")
    for stage, seconds in run.result.stage_seconds.items():
        log.info(f"  {stage:18s} {seconds * 1e3:9.1f} ms")
    if args.json:
        # machine-facing report: always on stdout, regardless of log level
        print(json.dumps(run.result.to_json(), indent=2))
    _finish_obs(args, tracer, registry)
    return 0


def _cmd_compare(args) -> int:
    from repro.harness.experiments.common import sdgc_config
    from repro.harness.runner import run_comparison
    from repro.harness.workloads import get_benchmark, get_input

    net = get_benchmark(args.benchmark)
    y0 = get_input(args.benchmark, args.batch)
    runs = run_comparison(net, y0, sdgc_config(net.num_layers))
    sn = runs["snicit"]
    log.info(f"{args.benchmark} (B={args.batch}) — categories agree across engines")
    for kind, run in runs.items():
        log.info(f"  {kind:10s} {run.wall_ms:10.1f} ms   "
                 f"({run.wall_ms / sn.wall_ms:5.2f}x SNICIT)")
    return 0


def _cmd_experiment(args) -> int:
    import importlib

    module = importlib.import_module(f"repro.harness.experiments.{args.name}")
    report = module.run(scale=args.scale)
    log.info(report.render())
    if args.out:
        Path(args.out).write_text(report.render() + "\n")
    return 0


def _cmd_generate(args) -> int:
    from repro.radixnet.io import save_layer_tsv
    from repro.radixnet.registry import build_benchmark

    net = build_benchmark(args.benchmark, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, layer in enumerate(net.layers):
        save_layer_tsv(out / f"{args.benchmark}-l{i:04d}.tsv", layer.weight)
    log.info(f"wrote {net.num_layers} layers to {out}/")
    return 0


def _serve_tenants(args) -> list[tuple[str, str]] | None:
    """``(name, benchmark)`` per tenant: each ``--model NAME=BENCHMARK``, or
    the positional benchmark as the only tenant.  ``None`` after logging a
    malformed flag."""
    if not args.model:
        return [(args.benchmark, args.benchmark)]
    tenants = []
    for spec in args.model:
        name, sep, benchmark = spec.partition("=")
        if not sep or not name or not benchmark:
            log.error(f"--model wants NAME=BENCHMARK, got {spec!r}")
            return None
        tenants.append((name, benchmark))
    return tenants


def _serve_router(args, models) -> int:
    """In-process serving: route a stream through a Router or AsyncRouter."""
    import numpy as np

    from repro.harness.experiments.common import sdgc_config
    from repro.harness.workloads import get_benchmark, get_input
    from repro.serve import AsyncRouter, ModelRegistry, Router
    from repro.serve.bench import (
        _budget_bytes,
        _round_robin,
        _split_requests,
        poisson_interarrivals,
    )

    try:
        qos_map = _parse_qos_flags(args, {name for name, _ in models}) or {}
    except ValueError as exc:
        log.error(str(exc))
        return 2
    tracer, _ = _make_obs(args)
    registry = ModelRegistry(memory_budget_bytes=_budget_bytes(args.memory_budget_mb))
    streams: dict[str, list] = {}
    for name, benchmark in models:
        net = get_benchmark(benchmark)
        overrides = {} if args.threshold is None else {"threshold_layer": args.threshold}
        cfg = sdgc_config(net.num_layers, **overrides)
        session = registry.register(
            name, net, config=cfg, warm=True, tracer=tracer,
            warm_state=args.warm_state,
            centroid_reuse=args.centroid_reuse, reuse_tolerance=args.reuse_tolerance,
            revise_ratio=args.revise_ratio,
            slo=args.slo,
            qos=qos_map.get(name),
        )
        if args.warm_state is not None:
            log.info(f"  [{name}] booted warm from {args.warm_state} in "
                     f"{session.warmup_seconds * 1e3:.1f} ms")
        streams[name] = _split_requests(
            np.asarray(get_input(benchmark, args.requests * args.request_cols, args.seed)),
            args.request_cols,
        )
    obs_server = _start_obs_endpoint(
        args, registry.metrics, slo_provider=registry.slo_report_json
    )
    mixed = _round_robin(streams, max(1, args.max_batch // args.request_cols))
    interarrivals = None
    if args.arrival_rate is not None:
        interarrivals = poisson_interarrivals(len(mixed), args.arrival_rate, args.seed)
    if args.async_transport:
        router = AsyncRouter(
            registry, max_batch=args.max_batch, max_wait_s=args.max_wait_ms / 1e3,
            queue_limit=args.queue_limit, on_full=args.on_full,
        )
    else:
        router = Router(
            registry, max_batch=args.max_batch, max_wait_s=args.max_wait_ms / 1e3,
            queue_limit=args.queue_limit,
        )
    report = router.serve(iter(mixed), interarrivals=interarrivals)
    summary = report.summary()
    transport = "async" if args.async_transport else "sync"
    log.info(f"served {summary['served']}/{summary['requests']} requests "
             f"({summary['rejected']} rejected, status={summary['status']}) "
             f"on {', '.join(name for name, _ in models)} [{transport}] "
             f"in {summary['wall_seconds'] * 1e3:.1f} ms")
    for name, tenant in report.per_model.items():
        per = tenant.summary()
        session = registry.get(name)
        log.info(f"  [{name}] {per['served']}/{per['requests']} served "
                 f"({per['failed']} failed, status={per['status']})")
        log.info(f"  [{name}] throughput {per['requests_per_second']:9.1f} req/s   "
                 f"{per['columns_per_second']:9.1f} col/s   "
                 f"busy {per['overlap_fraction']:.0%} of wall "
                 f"({per['exec_seconds'] * 1e3:.1f} ms executing, "
                 f"{per['arrival_seconds'] * 1e3:.1f} ms arrival gaps)")
        lat = per["latency_seconds"]
        if lat is not None:
            log.info(f"  [{name}] latency    p50 {lat['p50'] * 1e3:7.2f} ms   "
                     f"p95 {lat['p95'] * 1e3:7.2f} ms   max {lat['p100'] * 1e3:7.2f} ms")
        batcher = router.lane(name).stats()
        log.info(f"  [{name}] batching   {batcher['batches']} blocks, "
                 f"mean fill {batcher['mean_fill']:.0%} of {batcher['max_batch']}")
        if session.reuse is not None:
            cache = session.reuse.stats()
            outcomes = batcher.get("reuse_blocks", {})
            log.info(f"  [{name}] reuse      {cache['hits']} hits / {cache['misses']} "
                     f"misses / {sum(cache['invalidations'].values())} invalidations "
                     f"(blocks: {outcomes or 'none'})")
        stages = session.stats()["stage_seconds"]
        log.info(f"  [{name}] stages     " + "   ".join(
            f"{stage} {seconds * 1e3:.1f} ms" for stage, seconds in stages.items()
        ))
    if report.slo:
        for name, slo in report.slo.items():
            est = slo["latency_estimate_s"]
            est_text = f"{est * 1e3:.2f} ms" if est is not None else "n/a"
            log.info(f"  [{name}] SLO {slo['policy']['describe']}: "
                     f"p{slo['policy']['quantile'] * 100:g}≈{est_text}, "
                     f"burn {slo['burn_rate']:.2f}, "
                     f"compliant={slo['compliant']}")
    budget = registry.budget.stats()
    if budget["limit_bytes"] is not None:
        log.info(f"  budget       {budget['retained_bytes']} / {budget['limit_bytes']} "
                 f"bytes retained (highwater {budget['highwater_bytes']}, "
                 f"{budget['evictions']} warm-to-cold demotions: "
                 f"{summary['demoted'] or 'none'})")
    if qos_map:
        admission = (router.stats().get("qos") or {}).get("admission") or {}
        for name in sorted(qos_map):
            reasons = (admission.get("shed") or {}).get(name) or {}
            log.info(f"  [{name}] qos {registry.qos_policy(name).describe()}: "
                     f"shed {sum(reasons.values())}"
                     + (f" ({reasons})" if reasons else ""))
    if args.metrics:
        log.info(registry.metrics.to_prometheus().rstrip("\n"))
    if tracer is not None:
        path = tracer.write_chrome(args.trace)
        log.info(f"wrote Chrome trace to {path} ({len(tracer)} spans)")
    _finish_obs_endpoint(args, obs_server)
    return 0


def _serve_fleet(args, tenants) -> int:
    """Multi-process serving: shard tenant streams across N workers."""
    import numpy as np

    from repro.harness.workloads import get_input
    from repro.serve.bench import _budget_bytes, _split_requests
    from repro.serve.fleet import FleetDispatcher, TenantSpec

    if args.arrival_rate is not None:
        log.warning("--arrival-rate is not supported with --workers; ignored")
    try:
        qos_map = _parse_qos_flags(args, {name for name, _ in tenants}) or {}
    except ValueError as exc:
        log.error(str(exc))
        return 2
    specs = [
        TenantSpec(
            name, benchmark, threshold=args.threshold, slo=args.slo,
            centroid_reuse=args.centroid_reuse,
            reuse_tolerance=args.reuse_tolerance,
            revise_ratio=args.revise_ratio,
            warm_state=args.warm_state,
            qos=qos_map.get(name),
        )
        for name, benchmark in tenants
    ]
    fleet = FleetDispatcher(
        specs,
        workers=args.workers,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        queue_limit=args.queue_limit,
        memory_budget_bytes=_budget_bytes(args.memory_budget_mb),
        worker_obs=args.obs_port is not None,
    )
    obs_server = None
    if args.obs_port is not None:
        obs_server = fleet.obs_endpoint(port=args.obs_port)
        log.info(f"obs endpoint at {obs_server.url} "
                 f"(/metrics /slo /healthz, merged across workers)")
    for name, benchmark in tenants:
        pool = np.asarray(
            get_input(benchmark, args.requests * args.request_cols, args.seed)
        )
        for j, y0 in enumerate(_split_requests(pool, args.request_cols)):
            fleet.submit(name, y0, stream=f"{name}/{j % args.streams}")
    report = fleet.join()
    summary = report.summary()
    log.info(f"served {summary['served']}/{summary['requests']} requests "
             f"({summary['rejected']} rejected, {summary['failed']} failed, "
             f"status={summary['status']}) across {args.workers} workers "
             f"in {summary['wall_seconds'] * 1e3:.1f} ms")
    cap = summary["capacity_columns_per_second"]
    log.info(f"  throughput   {summary['columns_per_second']:9.1f} col/s wall   "
             f"{cap:9.1f} col/s capacity" if cap else
             f"  throughput   {summary['columns_per_second']:9.1f} col/s wall")
    for per in summary["per_worker"]:
        rep = per["report"] or {}
        log.info(f"  [worker {per['worker']}] "
                 f"{rep.get('requests', '?')} requests, "
                 f"{len(rep.get('streams') or [])} streams, "
                 f"cpu {1e3 * (rep.get('cpu_seconds') or 0):.1f} ms, "
                 f"restarts={per['restarts']}")
        shed = (((rep.get("qos") or {}).get("admission") or {}).get("shed")
                or {})
        if shed:
            log.info(f"  [worker {per['worker']}] qos shed: " + ", ".join(
                f"{m}={sum(r.values())}" for m, r in sorted(shed.items())
            ))
    if args.slo:
        for key, slo in sorted(fleet.merged_slo().items()):
            est = slo["latency_estimate_s"]
            est_text = f"{est * 1e3:.2f} ms" if est is not None else "n/a"
            log.info(f"  [{key}] SLO {slo['policy']['describe']}: "
                     f"p{slo['policy']['quantile'] * 100:g}≈{est_text}, "
                     f"burn {slo['burn_rate']:.2f}, "
                     f"compliant={slo['compliant']}")
    if args.metrics:
        log.info(fleet.render_merged_metrics().rstrip("\n"))
    _finish_obs_endpoint(args, obs_server)
    fleet.close()
    return 0


def _cmd_serve(args) -> int:
    if args.benchmark is None and not args.model:
        log.error("serve needs a benchmark, or at least one --model NAME=BENCHMARK")
        return 2
    tenants = _serve_tenants(args)
    if tenants is None:
        return 2
    if args.workers:
        return _serve_fleet(args, tenants)
    return _serve_router(args, tenants)


def _cmd_warmup(args) -> int:
    """Save a warm-state artifact, or verify one loads (``--load``)."""
    import dataclasses

    from repro.serve import EngineSession
    from repro.serve.bench import _serve_solo, _tier_stream

    if (args.save is None) == (args.load is None):
        log.error("warmup wants exactly one of --save PATH or --load PATH")
        return 2
    prime = max(args.prime, 0) if args.save is not None else 0
    net, cfg, stream = _tier_stream(
        args.benchmark, max(prime, 1), args.request_cols, args.seed,
        "repeat", args.max_batch,
    )
    if args.threshold is not None:
        cfg = dataclasses.replace(cfg, threshold_layer=args.threshold)
    net.drop_views()
    session = EngineSession(
        net, cfg, warm=args.save is not None,
        centroid_reuse=args.centroid_reuse,
        reuse_tolerance=args.reuse_tolerance,
        revise_ratio=args.revise_ratio,
    )

    if args.load is not None:
        t0 = time.perf_counter()
        manifest = session.load_warm_state(args.load)
        log.info(f"loaded {args.load} ({manifest['size_bytes']} bytes) in "
                 f"{(time.perf_counter() - t0) * 1e3:.1f} ms: "
                 f"{manifest['dense_views']} dense / {manifest['ell_views']} ELL "
                 f"views, {manifest['plan_layers']} plan layers, "
                 f"{manifest['memo_choices']} memo choices, "
                 f"{manifest['memo_costs']} cost baselines, "
                 f"{manifest['cache_entries']} cache fills adopted "
                 f"({manifest['cache_skipped']} skipped)")
        return 0

    if prime > 0:
        # priming traffic teaches the session what warmup alone cannot:
        # centroid-cache fills with staleness baselines, per-bucket costs
        _serve_solo(session, stream, args.max_batch)
    manifest = session.save_warm_state(args.save)
    log.info(f"saved {args.save} ({manifest['size_bytes']} bytes) for "
             f"{net.name} [{manifest['fingerprint']}]: "
             f"{manifest['dense_views']} dense / {manifest['ell_views']} ELL "
             f"views, {manifest['plan_layers']} plan layers, "
             f"{manifest['memo_costs']} cost baselines, "
             f"{manifest['cache_entries']} cache fills "
             f"({prime} priming requests)")
    return 0


def _cmd_bench_serve(args) -> int:
    from repro.serve.bench import bench_serve

    if args.tiers == "none":
        tiers = ()  # scale-out-only capture: skip the per-tier records
    elif args.tiers:
        tiers = tuple(t.strip() for t in args.tiers.split(","))
    else:
        tiers = None
    scale_out = (
        tuple(int(n) for n in args.scale_out.split(","))
        if args.scale_out
        else None
    )
    multi_tiers = (
        tuple(t.strip() for t in args.multi_tiers.split(","))
        if args.multi_tiers
        else None
    )
    extra = {}
    if args.slo is not None:
        extra["slo"] = args.slo
    result = bench_serve(
        benchmark=args.benchmark,
        requests=args.requests,
        request_cols=args.request_cols,
        max_batch=args.max_batch,
        threshold=args.threshold,
        seed=args.seed,
        out=args.out,
        trace=args.trace,
        tiers=tiers,
        stream=args.stream,
        centroid_reuse=args.centroid_reuse,
        reuse_tolerance=args.reuse_tolerance,
        async_ab=not args.no_async_ab,
        arrival_rate=args.arrival_rate,
        multi=args.multi or multi_tiers is not None,
        multi_tiers=multi_tiers,
        memory_budget_mb=args.memory_budget_mb,
        scale_out=scale_out,
        scale_out_requests=args.scale_out_requests,
        warm_boot=args.warm_boot,
        qos=args.qos,
        **extra,
    )
    for record in result["tiers"]:
        cold, warm = record["cold"], record["warm"]
        log.info(f"bench-serve [{record['tier']}] on {record['benchmark']} "
                 f"({args.stream}): {record['requests']} requests "
                 f"x {record['request_cols']} columns")
        log.info(f"  cold (engine per request) {cold['requests_per_second']:9.1f} req/s")
        log.info(f"  warm (session + batching) {warm['requests_per_second']:9.1f} req/s")
        log.info(f"  speedup {record['speedup']:.2f}x   "
                 f"categories_match={record['categories_match']}")
        ab = record.get("async")
        if ab is not None:
            log.info(f"  open loop @ {ab['arrival_rate_rps']:.0f} req/s: "
                     f"sync {ab['sync']['requests_per_second']:9.1f} req/s   "
                     f"async {ab['async']['requests_per_second']:9.1f} req/s   "
                     f"({ab['speedup_vs_sync']:.2f}x, overlap "
                     f"{ab['async']['overlap_fraction']:.0%}, "
                     f"identical={ab['outputs_identical']})")
        reuse = record.get("reuse")
        if reuse is not None:
            cache = reuse["cache"]
            log.info(f"  reuse on ({cache['hits']} hits, "
                     f"{sum(cache['invalidations'].values())} invalidations) "
                     f"{reuse['warm']['requests_per_second']:9.1f} req/s   "
                     f"{reuse['speedup_vs_warm']:.2f}x warm   "
                     f"identical={reuse['outputs_identical']}")
        if args.metrics:
            log.info(json.dumps(record["metrics"], indent=2))
    mrec = result.get("multi")
    if mrec is not None:
        log.info(f"bench-serve [multi] {', '.join(mrec['tenants'])}: "
                 f"{mrec['router']['served']}/{mrec['router']['requests']} served, "
                 f"status={mrec['router']['status']}, "
                 f"isolation_identical={mrec['isolation_identical']}")
        for name, per in mrec["per_tenant"].items():
            log.info(f"  [{name}] {per['columns_per_second']:9.1f} col/s mixed "
                     f"vs {per['single_tenant_columns_per_second']:9.1f} col/s alone   "
                     f"hol_stalls={per['hol_stalls']}   "
                     f"identical={per['isolation_identical']}")
            slo = per.get("slo")
            if slo is not None:
                est = slo["latency_estimate_s"]
                est_text = f"{est * 1e3:.2f} ms" if est is not None else "n/a"
                log.info(f"  [{name}] SLO {slo['policy']['describe']}: "
                         f"p{slo['policy']['quantile'] * 100:g}≈{est_text}, "
                         f"burn {slo['burn_rate']:.2f}, "
                         f"compliant={slo['compliant']}")
        budget = mrec["budget"]
        if budget["limit_bytes"] is not None:
            log.info(f"  budget {budget['retained_bytes']} / {budget['limit_bytes']} "
                     f"bytes (highwater {budget['highwater_bytes']}, "
                     f"under_budget={mrec['under_budget']}, "
                     f"{budget['evictions']} demotions)")
    wrec = result.get("warm_boot")
    if wrec is not None:
        log.info(f"bench-serve [warm-boot] {wrec['benchmark']}: cold ready "
                 f"{wrec['cold']['ready_seconds'] * 1e3:.1f} ms "
                 f"(warmup {wrec['cold']['warmup_seconds'] * 1e3:.1f} + prime "
                 f"{wrec['cold']['prime_seconds'] * 1e3:.1f}) vs artifact load "
                 f"{wrec['artifact']['load_seconds'] * 1e3:.1f} ms "
                 f"({wrec['artifact']['size_bytes']} bytes) — "
                 f"{wrec['speedup']:.1f}x, "
                 f"identical={wrec['outputs_identical']}")
    qrec = result.get("qos")
    if qrec is not None:
        log.info(f"bench-serve [qos] interactive={qrec['interactive_tier']} "
                 f"vs bulk={qrec['bulk_tier']} "
                 f"({qrec['bulk_requests']} bulk requests, quota admits "
                 f"{qrec['bulk_admit']}):")
        for arm_key, label in (("with_qos", "qos"), ("no_qos", "fifo")):
            arm = qrec[arm_key]
            inter = arm["per_tenant"]["interactive"]
            bulk = arm["per_tenant"]["bulk"]
            p99 = (inter["latency_seconds"] or {}).get("p99")
            ratio = arm["interactive_p99_ratio"]
            p99_text = f"{p99 * 1e3:7.2f} ms" if p99 is not None else "n/a"
            ratio_text = f"{ratio:.2f}x solo" if ratio is not None else "n/a"
            log.info(f"  [{label:4s}] interactive p99 {p99_text} "
                     f"({ratio_text})   bulk served {bulk['served']}/"
                     f"{bulk['submitted']} (shed {bulk['shed']})")
        log.info(f"  identical={qrec['outputs_identical']}   "
                 f"shed_accounting_ok={qrec['shed_accounting_ok']}")
    srec = result.get("scale_out")
    if srec is not None:
        log.info(f"bench-serve [scale-out] {srec['benchmark']}: "
                 f"{srec['requests']} requests over {srec['streams']} streams "
                 f"(host cpu_count={srec['cpu_count']})")
        for entry in srec["workers"]:
            cap = entry["capacity"]
            log.info(f"  {entry['workers']}w  "
                     f"wall {entry['wall_columns_per_second']:9.1f} col/s "
                     f"({entry['wall_speedup_vs_single']:.2f}x)   "
                     f"capacity {cap['columns_per_second']:9.1f} col/s "
                     f"({cap['speedup_vs_single']:.2f}x)   "
                     f"identical={entry['outputs_identical']}   "
                     f"restarts={entry['restarts']}")
        crash = srec.get("crash")
        if crash is not None:
            log.info(f"  crash@{crash['workers']}w (worker {crash['victim']} "
                     f"SIGKILLed mid-stream): recovered={crash['recovered']}, "
                     f"restarts={crash['restarts']}, "
                     f"replayed={sum(crash['replayed'])}, "
                     f"failed={crash['failed']}, "
                     f"identical={crash['outputs_identical']}")
    if args.trace:
        log.info(f"wrote Chrome trace to {args.trace}")
    log.info(f"wrote {args.out}")
    return 0


def _add_reuse_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--centroid-reuse", action="store_true",
        help="carry layer-t centroids across blocks (assign-only conversion "
             "on warm hits); bench-serve then records an A/B reuse pass",
    )
    parser.add_argument(
        "--reuse-tolerance", type=float, default=0.5, metavar="T",
        help="staleness budget: reused blocks must stay within "
             "baseline*(1+T) assignment distance / residue density "
             "(default 0.5; 0 admits only blocks as tight as the fill block)",
    )


def _add_revise_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--revise-ratio", type=float, default=None, metavar="R",
        help="arm the strategy memo's measure-and-revise loop: when a "
             "bucket's observed cost EWMA drifts past baseline*R (R > 1), "
             "its memoized kernel choice is re-derived (default: replay "
             "the first decision forever)",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace-event file (Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the metrics exposition after the command",
    )


def _add_endpoint_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs-port", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus), /slo (JSON), and /healthz on "
             "localhost:PORT while the command runs (0 picks a free port)",
    )
    parser.add_argument(
        "--obs-hold-s", type=float, default=0.0, metavar="S",
        help="keep the obs endpoint up S seconds after serving finishes, "
             "so external scrapers (CI smoke jobs) can read the final state",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SNICIT reproduction command-line interface"
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level logging")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="warnings only (wins over --verbose)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registry benchmarks").set_defaults(fn=_cmd_list)

    run_p = sub.add_parser("run", help="run one engine on one benchmark")
    run_p.add_argument("benchmark")
    run_p.add_argument("--engine", default="snicit",
                       choices=("snicit", "dense", "bf2019", "snig2020", "xy2021"))
    run_p.add_argument("--batch", type=int, default=1000)
    run_p.add_argument("--threshold", type=int, default=None)
    run_p.add_argument("--json", action="store_true",
                       help="print the full JSON-safe result report on stdout")
    _add_obs_flags(run_p)
    run_p.set_defaults(fn=_cmd_run)

    cmp_p = sub.add_parser("compare", help="SNICIT vs the champion baselines")
    cmp_p.add_argument("benchmark")
    cmp_p.add_argument("--batch", type=int, default=1000)
    cmp_p.set_defaults(fn=_cmd_compare)

    exp_p = sub.add_parser("experiment", help="regenerate one table/figure")
    exp_p.add_argument("name", choices=EXPERIMENTS)
    exp_p.add_argument("--scale", type=float, default=None)
    exp_p.add_argument("--out", default=None, help="also write the report here")
    exp_p.set_defaults(fn=_cmd_experiment)

    gen_p = sub.add_parser("generate", help="write a benchmark as SDGC .tsv files")
    gen_p.add_argument("benchmark")
    gen_p.add_argument("out_dir")
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.set_defaults(fn=_cmd_generate)

    serve_p = sub.add_parser(
        "serve", help="micro-batched serving loop over a synthetic request stream"
    )
    serve_p.add_argument(
        "benchmark", nargs="?", default=None,
        help="single benchmark to serve; omit when routing with --model",
    )
    serve_p.add_argument(
        "--model", action="append", default=None, metavar="NAME=BENCHMARK",
        help="register a named tenant (repeatable); without it the positional "
             "benchmark is the router's only tenant",
    )
    serve_p.add_argument(
        "--memory-budget-mb", type=float, default=None, metavar="MB",
        help="shared retained-bytes budget across all tenants; the router "
             "demotes least-recently-served sessions warm-to-cold to stay "
             "under it (default: unlimited)",
    )
    serve_p.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="serve through a multi-process fleet of N supervised workers "
             "(spawn-safe): streams shard stably to workers, crashed workers "
             "restart with stream replay, and telemetry is merged into one "
             "scrape (see repro.serve.fleet)",
    )
    serve_p.add_argument(
        "--streams", type=_positive_int, default=8, metavar="S",
        help="synthetic stream count per tenant for --workers serving; "
             "requests round-robin over streams and each stream pins to one "
             "worker, keeping per-stream outputs bitwise deterministic",
    )
    serve_p.add_argument("--requests", type=_positive_int, default=128)
    serve_p.add_argument("--request-cols", type=_positive_int, default=2)
    serve_p.add_argument("--max-batch", type=_positive_int, default=64)
    serve_p.add_argument("--max-wait-ms", type=float, default=2.0)
    serve_p.add_argument("--queue-limit", type=_positive_int, default=1024)
    serve_p.add_argument("--threshold", type=int, default=None)
    serve_p.add_argument("--seed", type=int, default=1)
    serve_p.add_argument(
        "--async-transport", action="store_true",
        help="serve through the threaded AsyncRouter: arrivals overlap "
             "block execution and max-wait flushes partial blocks",
    )
    serve_p.add_argument(
        "--arrival-rate", type=float, default=None, metavar="RPS",
        help="open-loop Poisson arrival rate in requests/second (seeded); "
             "default submits back-to-back (closed loop)",
    )
    serve_p.add_argument(
        "--on-full", default="reject", choices=("reject", "block"),
        help="async backpressure on a full intake queue: reject with "
             "ServeOverflowError or block the producer (default reject)",
    )
    serve_p.add_argument(
        "--slo", default=None, metavar="SPEC",
        help="latency SLO to track live per tenant, e.g. 'p99<50ms@60s/99%%'",
    )
    serve_p.add_argument(
        "--warm-state", default=None, metavar="PATH",
        help="boot warm from a repro-warmstore artifact (see 'repro warmup "
             "--save') instead of baking at startup; fingerprint-checked, "
             "and under --workers every worker — including crash-restarted "
             "ones — loads the same file",
    )
    serve_p.add_argument(
        "--qos", action="append", default=None, metavar="NAME=SPEC",
        help="per-tenant QoS policy (repeatable), e.g. a=interactive or "
             "b='batch:w=2,rate=512,burst=1024' — priority class "
             "(interactive beats batch), deficit-round-robin weight, and a "
             "token-bucket rate limit in columns/second; tenants default to "
             "interactive with weight 1 and no limit",
    )
    _add_reuse_flags(serve_p)
    _add_revise_flag(serve_p)
    _add_obs_flags(serve_p)
    _add_endpoint_flags(serve_p)
    serve_p.set_defaults(fn=_cmd_serve)

    bserve_p = sub.add_parser(
        "bench-serve",
        help="tiered cold vs warm serving throughput (writes BENCH_serve.json)",
    )
    bserve_p.add_argument(
        "benchmark", nargs="?", default=None,
        help="single SDGC benchmark to run as an ad-hoc tier "
             "(default: the built-in tier list)",
    )
    bserve_p.add_argument(
        "--tiers", default=None,
        help="comma-separated tier list (e.g. sdgc-shallow,medium-A); "
             "'none' skips the per-tier records (scale-out-only capture); "
             "mutually exclusive with the positional benchmark",
    )
    bserve_p.add_argument(
        "--scale-out", default=None, metavar="COUNTS",
        help="comma-separated worker counts (e.g. 1,2,4): append the "
             "multi-process fleet curve — per-count wall and "
             "capacity throughput, bitwise output checks against a "
             "single-process reference, and a crash-recovery run at the "
             "largest count",
    )
    bserve_p.add_argument(
        "--scale-out-requests", type=_positive_int, default=None, metavar="R",
        help="request count for the scale-out record (default: "
             "max(--requests, 192), so per-worker fixed costs amortize)",
    )
    bserve_p.add_argument("--requests", type=_positive_int, default=48)
    bserve_p.add_argument("--request-cols", type=_positive_int, default=4)
    bserve_p.add_argument("--max-batch", type=_positive_int, default=64)
    bserve_p.add_argument("--threshold", type=int, default=None)
    bserve_p.add_argument("--seed", type=int, default=1)
    bserve_p.add_argument(
        "--stream", default="mix", choices=("mix", "repeat", "drift"),
        help="request-stream shape: distinct columns, identical blocks, "
             "or a mid-stream amplitude shift",
    )
    bserve_p.add_argument("--out", default="BENCH_serve.json")
    bserve_p.add_argument(
        "--no-async-ab", action="store_true",
        help="skip the per-tier open-loop sync-vs-async transport A/B",
    )
    bserve_p.add_argument(
        "--arrival-rate", type=float, default=None, metavar="RPS",
        help="Poisson arrival rate for the sync-vs-async A/B "
             "(default: auto-paced to each tier's warm service rate)",
    )
    bserve_p.add_argument(
        "--multi", action="store_true",
        help="append the mixed-traffic multi-tenant record: round-robin "
             "stream over several tenants with a per-tenant bitwise "
             "isolation check against single-tenant references",
    )
    bserve_p.add_argument(
        "--multi-tiers", default=None, metavar="TIERS",
        help="comma-separated tenant tiers for --multi "
             "(default: the built-in multi-tier pair); implies --multi",
    )
    bserve_p.add_argument(
        "--memory-budget-mb", type=float, default=None, metavar="MB",
        help="shared memory budget for the --multi record; the router "
             "demotes LRU tenants to stay under it (default: unlimited)",
    )
    bserve_p.add_argument(
        "--slo", default=None, metavar="SPEC",
        help="per-tenant SLO for the --multi and --qos records "
             "(default: the built-in p99<250ms@30s/95%% policy)",
    )
    bserve_p.add_argument(
        "--warm-boot", dest="warm_boot", action="store_true", default=None,
        help="force the persistent-warmup record (artifact boot vs "
             "cold warmup + priming; default: on whenever tiers run)",
    )
    bserve_p.add_argument(
        "--no-warm-boot", dest="warm_boot", action="store_false",
        help="skip the persistent-warmup record",
    )
    bserve_p.add_argument(
        "--qos", action="store_true",
        help="append the QoS A/B record: an interactive tenant's "
             "p99 while a quota-limited bulk tenant saturates the same "
             "router, under the priority scheduler and under plain FIFO, "
             "with bitwise output checks and shed accounting",
    )
    _add_reuse_flags(bserve_p)
    _add_obs_flags(bserve_p)
    bserve_p.set_defaults(fn=_cmd_bench_serve)

    warm_p = sub.add_parser(
        "warmup",
        help="save (or verify) a persistent warm-state artifact for a benchmark",
    )
    warm_p.add_argument(
        "benchmark",
        help="SDGC benchmark name (e.g. 144-24), a bench tier name, or "
             "'medium:<id>' for a trained medium-scale model",
    )
    warm_p.add_argument(
        "--save", default=None, metavar="PATH",
        help="warm a session (bake + optional priming traffic) and snapshot "
             "its state to PATH as a repro-warmstore artifact",
    )
    warm_p.add_argument(
        "--load", default=None, metavar="PATH",
        help="boot a cold session from the artifact at PATH and report what "
             "it restored (fingerprint/version checked) — a deploy preflight",
    )
    warm_p.add_argument(
        "--prime", type=int, default=16, metavar="N",
        help="requests of seeded priming traffic to serve before saving, so "
             "the artifact carries centroid-cache fills and measured cost "
             "baselines, not just baked views (0 saves bake-only state)",
    )
    warm_p.add_argument("--request-cols", type=_positive_int, default=4)
    warm_p.add_argument("--max-batch", type=_positive_int, default=64)
    warm_p.add_argument("--threshold", type=int, default=None)
    warm_p.add_argument("--seed", type=int, default=1)
    _add_reuse_flags(warm_p)
    _add_revise_flag(warm_p)
    warm_p.set_defaults(fn=_cmd_warmup)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(verbose=args.verbose, quiet=args.quiet)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
