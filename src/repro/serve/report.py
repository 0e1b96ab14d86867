"""One report for a request stream, computed from its resolved tickets.

Every transport hands out the same :class:`~repro.serve.batcher.Ticket`
(the routers return the lane batcher's; the fleet dispatcher resolves one
from each worker result), so :class:`ServeReport` computes requests,
columns, rates, status and latency quantiles once, for all of them.  A
*tenant* report holds one tenant's tickets; a *router* report
(:meth:`ServeReport.of_tenants`) maps tenant reports and pools their
tickets; a *fleet* report is a router report plus the supervision facts —
worker slots, restarts and replays per slot, and each slot's drain facts
(identity, CPU, timing and a metrics snapshot merged through
:mod:`repro.obs.merge`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.obs.export import json_safe
from repro.obs.merge import merge_snapshots

__all__ = ["ServeReport"]

#: latency quantiles every summary reports
QUANTILES = (0.5, 0.95, 0.99, 1.0)

#: drain-message keys a fleet summary leaves out of its per-worker facts
PAYLOAD_KEYS = ("worker", "slo", "metrics", "prometheus")


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


@dataclass
class ServeReport:
    """Outcome of a request stream: a tenant's, a router's or a fleet's.

    ``exec_seconds`` is the time spent packing and executing blocks,
    ``arrival_seconds`` the injected interarrival sleep of an open-loop
    stream.  On the async transport ``overlap_fraction`` near 1.0 means the
    engine stayed busy for the whole stream, arrivals fully hidden behind
    execution; on the sync transport it is simply the busy share.
    """

    served: list = field(default_factory=list)
    #: (stream index, error message) per rejected request — never silent
    rejected: list[tuple[int, str]] = field(default_factory=list)
    #: (stream index, error message) per accepted-then-failed request
    failed: list[tuple[int, str]] = field(default_factory=list)
    wall_seconds: float = 0.0
    exec_seconds: float = 0.0
    arrival_seconds: float = 0.0
    #: tenant name -> that tenant's report; ``None`` on a tenant report
    per_model: dict[str, ServeReport] | None = None
    #: tenants demoted warm-to-cold by budget enforcement during the stream
    demoted: list[str] = field(default_factory=list)
    #: per-tenant SLO JSON blocks; ``None`` when no tenant carries a policy
    slo: dict[str, dict] | None = None
    #: fleet worker slots; ``None`` off the fleet
    workers: int | None = None
    #: restart count per worker slot
    restarts: list[int] = field(default_factory=list)
    #: requests re-sent to replacement workers, per slot
    replayed: list[int] = field(default_factory=list)
    #: final drain facts of each slot's last incarnation (``None`` if lost)
    worker_reports: list[dict | None] = field(default_factory=list)
    #: stream id -> requests submitted on it (fleet)
    streams: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of_tenants(cls, per_model: dict[str, ServeReport], **facts) -> ServeReport:
        """Pool tenant reports into a router (or, with fleet facts, fleet) report."""
        reports = per_model.values()
        return cls(
            served=[t for r in reports for t in r.served],
            rejected=[x for r in reports for x in r.rejected],
            failed=[x for r in reports for x in r.failed],
            per_model=per_model,
            **facts,
        )

    # ----------------------------------------------------------- aggregates
    @property
    def requests(self) -> int:
        return len(self.served) + len(self.rejected) + len(self.failed)

    @property
    def columns(self) -> int:
        return sum(t.columns for t in self.served)

    @property
    def requests_per_second(self) -> float:
        return _rate(len(self.served), self.wall_seconds)

    @property
    def columns_per_second(self) -> float:
        return _rate(self.columns, self.wall_seconds)

    @property
    def overlap_fraction(self) -> float:
        return _rate(self.exec_seconds, self.wall_seconds)

    @property
    def status(self) -> str:
        """One rule for every report; it names why ``requests_per_second``
        may read 0.0 (an idle stream vs one turned away entirely).

        Nothing served is ``'all_failed'`` when any accepted request failed,
        else ``'all_rejected'``.  Something served is ``'degraded'`` when a
        tenant got nothing served (an idle one does not count) or a fleet
        worker's final report was lost, and ``'ok'`` otherwise.
        """
        if not self.requests:
            return "no_traffic"
        if not self.served:
            return "all_failed" if self.failed else "all_rejected"
        tenants = (self.per_model or {}).values()
        if None in self.worker_reports or any(
            r.status not in ("ok", "no_traffic") for r in tenants
        ):
            return "degraded"
        return "ok"

    def latency_quantiles(self, qs=QUANTILES) -> dict[str, float] | None:
        """Quantiles over every served request, pooled across tenants;
        ``None`` when nothing was served (no latencies, not zero ones).

        Pooling hides a quiet slow tenant behind a busy fast one, so
        anything judging tenant health reads :meth:`per_model_quantiles`.
        """
        if not self.served:
            return None
        lat = np.array([t.latency_seconds for t in self.served])
        return {f"p{int(q * 100)}": float(np.quantile(lat, q)) for q in qs}

    def per_model_quantiles(self, qs=QUANTILES) -> dict[str, dict[str, float] | None]:
        """Each tenant's own latency quantiles — the unmasked per-tail view."""
        return {
            name: report.latency_quantiles(qs)
            for name, report in (self.per_model or {}).items()
        }

    # ------------------------------------------------------------------ fleet
    @property
    def restart_total(self) -> int:
        return sum(self.restarts)

    @property
    def critical_path_cpu_seconds(self) -> float | None:
        """Slowest worker's CPU seconds — the fleet's capacity bottleneck."""
        known = [
            rep["cpu_seconds"] for rep in self.worker_reports
            if rep is not None and rep.get("cpu_seconds") is not None
        ]
        return max(known) if known else None

    @property
    def capacity_columns_per_second(self) -> float | None:
        """Aggregate throughput with >= 1 core per worker (the fleet module
        docstring explains the wall-vs-capacity split)."""
        critical = self.critical_path_cpu_seconds
        if critical is None or critical <= 0:
            return None
        return self.columns / critical

    def per_worker(self) -> list[dict]:
        """Supervision and drain facts per worker slot."""
        slots = zip(self.restarts, self.replayed, self.worker_reports, strict=True)
        return [
            {
                "worker": i,
                "restarts": restarts,
                "replayed": replayed,
                "report": rep and {k: v for k, v in rep.items() if k not in PAYLOAD_KEYS},
            }
            for i, (restarts, replayed, rep) in enumerate(slots)
        ]

    def merged_metrics(self) -> dict:
        """The workers' metric snapshots as one dict, ``worker=`` labeled."""
        return merge_snapshots({
            str(i): (rep or {}).get("metrics") or {}
            for i, rep in enumerate(self.worker_reports)
        })

    def stream_output(self, stream: str) -> np.ndarray:
        """The stream's served columns, hstacked in submit order."""
        parts = sorted((t for t in self.served if t.stream == stream), key=lambda t: t.aid)
        if not parts:
            raise ConfigError(f"stream {stream!r} has no served output")
        return np.hstack([t.y for t in parts])

    # ---------------------------------------------------------------- output
    def summary(self) -> dict:
        """The report as a dict; its keys depend on the shape (tenant,
        router or fleet) and are what the CLI and bench records read."""
        out = {
            "status": self.status,
            "requests": self.requests,
            "served": len(self.served),
            "rejected": len(self.rejected),
            "columns": self.columns,
            "wall_seconds": self.wall_seconds,
            "columns_per_second": self.columns_per_second,
            "latency_seconds": self.latency_quantiles(),
        }
        if self.per_model is not None and self.workers is None:
            out.update(
                latency_seconds_per_model=self.per_model_quantiles(),
                demoted=list(self.demoted),
                models={name: r.summary() for name, r in self.per_model.items()},
            )
            if self.slo is not None:
                out["slo"] = self.slo
            return out
        out.update(failed=len(self.failed), requests_per_second=self.requests_per_second)
        if self.workers is None:
            out.update(
                exec_seconds=self.exec_seconds,
                arrival_seconds=self.arrival_seconds,
                overlap_fraction=self.overlap_fraction,
            )
            return out
        out.update(
            workers=self.workers,
            capacity_columns_per_second=self.capacity_columns_per_second,
            critical_path_cpu_seconds=self.critical_path_cpu_seconds,
            restarts=list(self.restarts),
            restart_total=self.restart_total,
            streams=dict(sorted(self.streams.items())),
            per_worker=self.per_worker(),
        )
        return out

    def to_json(self) -> dict:
        """:meth:`summary` coerced JSON-serializable (numpy scalars included);
        the path bench records and the CLI take before ``json.dumps``."""
        return json_safe(self.summary())
