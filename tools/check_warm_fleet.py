#!/usr/bin/env python3
"""CI smoke: boot a fleet from a warm-state artifact and crash-replay it.

Runs the same stream population through a 2-worker (configurable)
:class:`~repro.serve.fleet.FleetDispatcher` twice — once clean, once with a
worker SIGKILLed mid-stream — with every worker booting from the
``repro warmup --save`` artifact passed in.  Asserts:

* every worker incarnation (the crash victim's replacement included)
  reports ``warm_sources == "artifact"`` — nobody silently re-warmed;
* the crash run restarted the victim and failed no request;
* every stream's outputs are bitwise identical between the two runs —
  artifact boot plus crash replay changes nothing.

A real file (not a heredoc) because the fleet uses the ``spawn`` start
method, which must be able to re-import ``__main__``.  Needs PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", required=True,
                        help="warm-state artifact path (repro warmup --save)")
    parser.add_argument("--benchmark", default="144-24")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--requests", type=int, default=32)
    parser.add_argument("--request-cols", type=int, default=4)
    parser.add_argument("--streams", type=int, default=8)
    args = parser.parse_args(argv)

    import numpy as np

    from repro.serve.bench import _fleet_pass, _tier_stream
    from repro.serve.fleet import TenantSpec

    spec = TenantSpec(
        "m", args.benchmark, centroid_reuse=True, reuse_tolerance=0.0,
        warm_state=args.artifact,
    )
    _, _, stream = _tier_stream(args.benchmark, args.requests, args.request_cols, 1)
    items = [("m", f"s{j % args.streams}", y0) for j, y0 in enumerate(stream)]

    ref = _fleet_pass(spec, items, args.workers, max_batch=16)
    crash = _fleet_pass(spec, items, args.workers, max_batch=16, kill=0)
    for rep in (*ref.worker_reports, *crash.worker_reports):
        rep = rep or {}
        print(f"worker {rep.get('worker')} incarnation "
              f"{rep.get('incarnation')}: warm_sources={rep.get('warm_sources')}, "
              f"build {(rep.get('build_seconds') or 0) * 1e3:.1f} ms, "
              f"warmup {(rep.get('warmup_seconds') or 0) * 1e3:.1f} ms")
        # every incarnation — the SIGKILLed worker's replacement included —
        # must boot from the artifact, never re-bake
        assert (rep.get("warm_sources") or {}).get("m") == "artifact", \
            f"worker {rep.get('worker')} did not boot from the artifact"
    assert crash.restart_total >= 1, "victim was not restarted"
    assert not crash.failed, f"{len(crash.failed)} requests failed"
    streams = sorted({s for _, s, _ in items})
    for s in streams:
        assert np.array_equal(crash.stream_output(s), ref.stream_output(s)), \
            f"stream {s}: crash-replayed outputs diverged"
    print(f"warm fleet OK: restarts={crash.restart_total}, "
          f"{len(streams)} streams bitwise identical after artifact-boot replay")
    return 0


if __name__ == "__main__":
    sys.exit(main())
