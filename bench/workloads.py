"""The benchmark's four serving workloads: inputs, set-up, traffic and checks.

Every workload drives the real serving path -- ``ModelRegistry`` ->
``Router``/``AsyncRouter`` -> ``MicroBatcher`` -> ``EngineSession`` ->
``SNICIT`` -- and measures it from outside: it times calls into public
functions and reads the counts they already return (ticket timestamps,
``InferenceResult.stage_seconds``/``.stats``/``.modeled``, ``router.stats()``).

A run has four parts:

1. ``prepare`` renders every input block and request schedule from the seed
   and writes the files set-up loads (network ``.npz`` files and, for
   ``reuse-medium``, a warm-state artifact).  Untimed.
2. ``setup`` loads the networks and registers the tenants; ``setup_s`` is the
   median of ``SETUP_REPS`` repetitions, spread over the run.
3. A warm pass fills caches: ``WARM_S`` seconds of traffic, or a sync closed
   loop's ``warm_blocks`` requests.  Untimed.
4. The measured phase: ``seconds`` of traffic.  Afterwards the checked
   outputs are compared with the exact ``xy2021`` feed-forward.
"""

from __future__ import annotations

import gc
import resource
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.baselines.xy2021 import XY2021
from repro.core.config import SNICITConfig
from repro.errors import ServeClosedError, ServeOverflowError, ServeShedError
from repro.harness.experiments.common import sdgc_config
from repro.harness.experiments.table4 import medium_config
from repro.harness.medium import get_trained
from repro.inference import sdgc_categories
from repro.network import SparseNetwork
from repro.radixnet.registry import benchmark_input, build_benchmark
from repro.serialize import load_network, save_network
from repro.serve.batcher import MicroBatcher
from repro.serve.router import AsyncRouter, ModelRegistry, Router
from repro.serve.session import EngineSession

#: set-up repetitions whose median is ``setup_s``
SETUP_REPS = 15
#: seconds of traffic before the measured phase of an async workload (a
#: sync closed loop warms with ``Workload.warm_blocks`` requests instead)
WARM_S = 1.0
#: equal-count windows whose median rate is ``throughput_cols_per_s``
WINDOWS = 5
#: latency limit behind ``loadgen.slo_attainment``
SLO_MS = 50.0
#: a closed loop's first requests of the measured phase, CHECK_COLS columns
#: of them, are checked against the exact path: the same blocks in every run
#: of a seed (8 on ``offline-deep``; 32 on ``reuse-medium``, both amplitudes)
CHECK_COLS = 2048
#: median generator lateness above which an open-loop run is invalid (the
#: 99th percentile follows the host's scheduling hiccups and is only reported)
LAG_LIMIT_MS = 2.0
#: category disagreement with the exact path above which a closed loop's
#: fixed check set is wrong (an open-loop tenant's limit is
#: ``Workload.open_limit``).  SNICIT is lossy: a healthy engine misses 5-9% of
#: the columns of a few deep SDGC blocks and none of the rest (README.md
#: records the measurements); a broken engine misses tens of percent
CLOSED_DISAGREEMENT_LIMIT = 0.02
#: the medium stream switches between the test mix and its 2x amplitude
#: every MIX_PERIOD blocks, over MIX_BLOCKS distinct blocks
MIX_PERIOD = 16
MIX_BLOCKS = 96
#: columns rendered per call when building an SDGC input pool
POOL_CHUNK = 4096
#: how long to wait for in-flight requests after the last send
DRAIN_TIMEOUT_S = 60.0
#: host-speed probe (see HostProbe): loop length, how often the serving
#: thread runs it, the span of samples behind one reading, the step a span's
#: quiet-host duration is integrated in, and the loop's duration on a quiet
#: host, the speed every timing is reported at
PROBE_LOOPS = 1000
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 1.0
PROBE_STEP_S = 0.25
PROBE_QUIET_S = 1.0e-4

clock = time.perf_counter


class HostProbe:
    """How fast the host runs Python right now, sampled through a run.

    Other tenants of the machine slow this one by tens of percent, for
    seconds to minutes at a time, and every timing of the program moves with
    them.  The probe is a fixed pure-Python loop in the benchmark's own code,
    so no change to the program can move it; ``slowdown`` is its duration
    around a moment over its duration on a quiet host, and timings divided
    by it are reported at quiet-host speed.
    """

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []

    @staticmethod
    def _loop() -> None:
        acc, table = 0, {}
        for i in range(PROBE_LOOPS):
            acc += (i * i) % 7
            table[i & 63] = acc
        sorted(table.values())

    def sample(self) -> None:
        # the first pass refills the caches a block's arrays evicted, so the
        # timed second pass does not depend on the program's memory footprint
        at = clock()
        self._loop()
        # CPU time of this thread: a wait for the interpreter lock, which the
        # load generator can hold, is not the host's speed
        t0 = time.thread_time()
        self._loop()
        self.seconds.append(time.thread_time() - t0)
        self.times.append(at)

    def due(self) -> bool:
        return not self.times or clock() - self.times[-1] >= PROBE_EVERY_S

    def slowdown(self, lo, hi=None) -> np.ndarray:
        """Median probe duration over quiet, per span ``[lo, hi]``.

        Without ``hi`` the span is PROBE_WINDOW_S centred on each ``lo``; a
        span holding no sample reads the run's median.
        """
        times, seconds = np.asarray(self.times), np.asarray(self.seconds)
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        if hi is None:
            lo, hi = lo - PROBE_WINDOW_S / 2, lo + PROBE_WINDOW_S / 2
        first = np.searchsorted(times, lo)
        last = np.searchsorted(times, np.atleast_1d(hi), side="right")
        overall = np.median(seconds)
        return np.array([
            np.median(seconds[a:b]) if b > a else overall for a, b in zip(first, last)
        ]) / PROBE_QUIET_S

    def quiet_seconds(self, lo: float, hi: float) -> float:
        """How long ``[lo, hi]`` would have lasted on a quiet host: the span
        in PROBE_STEP_S steps, each divided by the slowdown around its
        middle.  (Read from only the few samples inside each step, the
        throughput of five runs on a steady host ranged over 4%, not 1%.)"""
        edges = np.linspace(lo, hi, max(2, round((hi - lo) / PROBE_STEP_S) + 1))
        return float(np.sum(np.diff(edges) / self.slowdown((edges[:-1] + edges[1:]) / 2)))


@dataclass(frozen=True)
class Tenant:
    name: str
    #: scaled SDGC benchmark name, or ``medium:<id>`` for a trained network
    source: str
    qos: str = "interactive"
    centroid_reuse: bool = False


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Why each was chosen is in ``BENCHMARK.json``."""

    name: str
    tenants: tuple[Tenant, ...]
    asynchronous: bool
    max_batch: int
    max_wait_s: float = 0.002
    #: latency percentile reported as ``latency_tail_ms``: the highest with
    #: at least ten of a default-length run's requests beyond it
    tail_pct: float = 99.0
    #: tenant driven as a closed loop, with this many requests outstanding
    closed: str | None = None
    outstanding: int = 1
    closed_cols: int = 0
    closed_pool: int = 0
    #: requests of a sync closed loop's warm pass
    warm_blocks: int = 0
    #: tenant driven open-loop by a Poisson schedule
    open: str | None = None
    rate_rps: float = 0.0
    open_pool: int = 4096
    max_width: int = 8
    #: category disagreement above which the open-loop tenant is wrong
    open_limit: float = 0.001

    @property
    def latency_tenant(self) -> str:
        return self.open or self.closed

    @property
    def throughput_tenant(self) -> str:
        return self.closed or self.open


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "offline-deep",
            (Tenant("deep", "144-120"),),
            asynchronous=False,
            max_batch=256,
            # 5-11 requests/s as the host slows 2x to quiet: 100-220 in a
            # run, at least 10 beyond the 90th percentile
            tail_pct=90.0,
            closed="deep",
            closed_cols=256,
            closed_pool=256 * 256,
            warm_blocks=8,
        ),
        Workload(
            "open-shallow",
            (Tenant("shallow", "144-24"),),
            asynchronous=True,
            max_batch=64,
            max_wait_s=0.005,
            open="shallow",
            # the server must stay lightly loaded on a host slowed 2x: at
            # 200 req/s it was 60-74% busy there, p99 spread by 64% between
            # runs and packing pushed disagreement to 0.0018
            rate_rps=100.0,
        ),
        Workload(
            "reuse-medium",
            (Tenant("medium", "medium:A", centroid_reuse=True),),
            asynchronous=False,
            max_batch=64,
            # 30-62 requests/s: at least 28 beyond the 95th percentile
            tail_pct=95.0,
            closed="medium",
            closed_cols=64,
            # one pass over the stream, both amplitudes
            warm_blocks=MIX_BLOCKS,
        ),
        Workload(
            "multi-qos",
            (Tenant("interactive", "144-24"), Tenant("bulk", "144-48", qos="batch")),
            asynchronous=True,
            max_batch=64,
            max_wait_s=0.005,
            open="interactive",
            # at 150 req/s on a host slowed 2x, p50 spread by 22% between runs
            rate_rps=75.0,
            # interactive requests queue behind bulk blocks and pack into
            # wider blocks, which SNICIT compresses more: up to 0.104% in 40
            # runs at this rate
            open_limit=0.003,
            closed="bulk",
            outstanding=2,
            closed_cols=64,
            closed_pool=4096,
        ),
    )
}


# --------------------------------------------------------------------- inputs
@dataclass
class TenantInputs:
    """Everything one tenant's traffic needs, rendered before timing."""

    network: SparseNetwork
    config: SNICITConfig
    #: input columns ``(N, P)``; every request is a set of pool columns
    pool: np.ndarray
    #: per request: its pool column indices and its input block
    requests: list[tuple[np.ndarray, np.ndarray]]
    #: output block -> per-column category (SDGC: alive; medium: argmax)
    categorize: Callable[[np.ndarray], np.ndarray]
    #: the network file set-up loads
    path: Path | None = None


@dataclass
class Prepared:
    tenants: dict[str, TenantInputs]
    #: open-loop schedule: due offsets (s) and request indices, warm pass
    #: first, then the measured phase, each starting at offset 0
    warm_schedule: tuple[np.ndarray, np.ndarray] | None = None
    schedule: tuple[np.ndarray, np.ndarray] | None = None
    warm_state: Path | None = None


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**32, *salt])


def _sdgc_pool(net, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Fresh seeded input columns, rendered in chunks to bound memory."""
    pool = np.empty((net.input_dim, cols), dtype=np.float32)
    for lo in range(0, cols, POOL_CHUNK):
        width = min(POOL_CHUNK, cols - lo)
        pool[:, lo : lo + width] = benchmark_input(net, width, seed=int(rng.integers(2**31)))
    return pool


def _span(pool: np.ndarray, lo: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Request of ``cols`` adjacent pool columns: their indices and a view."""
    return np.arange(lo, lo + cols), pool[:, lo : lo + cols]


def open_phase(wl: Workload, seconds: float, rng: np.random.Generator, pool_cols: int):
    """One phase of the open-loop stream: due offsets, pool starts, widths.

    Every seed offers the same load: exactly ``rate_rps * seconds`` requests
    due at sorted uniform offsets (a Poisson stream given its count), each
    width from 1 to ``max_width`` equally often, in shuffled order.  With a
    free count and free widths, the columns offered in 20 s differed by up
    to 7% between seeds.
    """
    n = round(wl.rate_rps * seconds)
    offsets = np.sort(rng.uniform(0.0, seconds, size=n))
    widths = rng.permutation(np.resize(np.arange(1, wl.max_width + 1), n))
    starts = rng.integers(0, pool_cols - wl.max_width + 1, size=n)
    return offsets, starts, widths


def prepare(wl: Workload, seed: int, seconds: float, workdir: Path) -> Prepared:
    """Render inputs and write the files set-up loads (untimed)."""
    prep = Prepared(tenants={})
    for k, tenant in enumerate(wl.tenants):
        rng = _rng(seed, 10 + k)
        if tenant.source.startswith("medium:"):
            inputs = _prepare_medium(tenant, rng, wl.closed_cols)
        else:
            inputs = _prepare_sdgc(wl, tenant, rng)
        inputs.path = workdir / f"{tenant.name}.npz"
        save_network(inputs.path, inputs.network)
        prep.tenants[tenant.name] = inputs
        if tenant.centroid_reuse:
            # the artifact the tenant boots from: a warm session whose
            # centroid cache was filled by the stream's first block
            session = EngineSession(inputs.network, inputs.config, centroid_reuse=True)
            session.run(inputs.requests[0][1])
            prep.warm_state = workdir / f"{tenant.name}.warm.npz"
            session.save_warm_state(str(prep.warm_state))
    if wl.open is not None:
        pool = prep.tenants[wl.open].pool
        requests, schedules = [], []
        for k, length in enumerate((WARM_S, seconds)):
            offsets, starts, widths = open_phase(wl, length, _rng(seed, 1, k), pool.shape[1])
            schedules.append((offsets, np.arange(len(requests), len(requests) + offsets.size)))
            requests += [_span(pool, s, w) for s, w in zip(starts, widths)]
        prep.tenants[wl.open].requests = requests
        prep.warm_schedule, prep.schedule = schedules
    return prep


def _prepare_sdgc(wl: Workload, tenant: Tenant, rng) -> TenantInputs:
    net = build_benchmark(tenant.source)
    closed = tenant.name == wl.closed
    pool = _sdgc_pool(net, wl.closed_pool if closed else wl.open_pool, rng)
    requests = (
        [_span(pool, lo, wl.closed_cols) for lo in range(0, pool.shape[1], wl.closed_cols)]
        if closed else []
    )
    return TenantInputs(
        network=net,
        config=sdgc_config(net.num_layers),
        pool=pool,
        requests=requests,
        categorize=sdgc_categories,
    )


def _prepare_medium(tenant: Tenant, rng, cols: int) -> TenantInputs:
    """Test images, then the same images at 2x amplitude, alternating."""
    tm = get_trained(tenant.source.split(":", 1)[1])
    base = tm.stack.head(tm.test.images).astype(np.float32)
    n = base.shape[1]
    pool = np.ascontiguousarray(np.hstack([base, 2.0 * base]))
    order = np.concatenate(
        [rng.permutation(n) for _ in range(-(-MIX_BLOCKS * cols // n))]
    )
    requests = []
    for b in range(MIX_BLOCKS):
        idx = order[b * cols : (b + 1) * cols] + (n if (b // MIX_PERIOD) % 2 else 0)
        requests.append((idx, pool[:, idx]))
    return TenantInputs(
        network=tm.stack.network,
        config=medium_config(tm.spec.sparse_layers),
        pool=pool,
        requests=requests,
        categorize=lambda y: tm.stack.tail(y).argmax(axis=1),
    )


# --------------------------------------------------------------------- set-up
def setup(wl: Workload, prep: Prepared) -> tuple[ModelRegistry, dict]:
    """Load every tenant's network and register it warm; returns timings."""
    t0 = clock()
    networks = {name: load_network(t.path) for name, t in prep.tenants.items()}
    t1 = clock()
    registry = ModelRegistry()
    for tenant in wl.tenants:
        boot = (
            {"warm_state": str(prep.warm_state), "centroid_reuse": True}
            if tenant.centroid_reuse else {"warm": True}
        )
        registry.register(
            tenant.name, networks[tenant.name], config=prep.tenants[tenant.name].config,
            qos=tenant.qos, **boot,
        )
    t2 = clock()
    warmup = sum(registry.get(t.name).warmup_seconds for t in wl.tenants)
    return registry, {
        "at": t0, "setup_s": t2 - t0, "load_network_s": t1 - t0, "warmup_s": warmup,
    }


@contextmanager
def patched(owner, attr: str, wrap: Callable):
    """Replace ``owner.attr`` with ``wrap(original)`` inside the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def probing(probe: HostProbe):
    """Sample the probe on the serving thread, right after a block runs.

    That thread's speed sets every timing: the sync router serves on the
    load generator's thread, the async router on its worker, and the other
    core can be slowed differently by the machine's other tenants.  A sample
    costs about 0.2 ms once per PROBE_EVERY_S, inside the serving loop.
    """

    def wrap(flush_one):
        def probed(self, *args, **kwargs):
            try:
                return flush_one(self, *args, **kwargs)
            finally:
                if probe.due():
                    probe.sample()

        return probed

    return patched(MicroBatcher, "flush_one", wrap)


def make_router(wl: Workload, registry: ModelRegistry):
    cls = AsyncRouter if wl.asynchronous else Router
    return cls(registry, max_batch=wl.max_batch, max_wait_s=wl.max_wait_s, clock=clock)


# -------------------------------------------------------------------- traffic
class Record:
    """One request as the load generator saw it.

    ``settle`` copies what the metrics need off the request's ticket and
    lets the ticket go, keeping the output only when the request is checked
    -- so the benchmark's own memory does not grow with throughput.
    """

    __slots__ = (
        "tenant", "index", "cols", "due", "sent", "submit_s", "ticket", "outcome",
        "checked", "completed", "intake_s", "batch_wait_s", "y",
    )

    def __init__(self, tenant, index, cols, due, sent, submit_s, ticket, refused):
        self.tenant = tenant
        self.index = index
        self.cols = cols
        self.due = due
        self.sent = sent
        self.submit_s = submit_s
        self.ticket = ticket
        #: 'shed' or 'rejected' when submit refused it, else set by settle
        self.outcome = refused
        #: whether the output is kept and compared with the exact path
        self.checked = False
        self.completed = self.intake_s = self.batch_wait_s = self.y = None

    def settle(self, blocks: dict) -> None:
        ticket, self.ticket = self.ticket, None
        if ticket is None:
            return
        if not ticket.done:
            self.outcome = "unresolved"
            return
        if ticket.failed:
            self.outcome = "failed"
            return
        self.outcome = "completed"
        self.completed = ticket.completed_at
        # the async router wraps the batcher's ticket; the sync one returns it
        inner = getattr(ticket, "inner", ticket)
        if inner is not ticket:
            self.intake_s = ticket.dequeued_at - ticket.submitted_at
        self.batch_wait_s = inner.packed_at - inner.submitted_at
        if self.checked:
            # a copy: the request's columns are a view of the whole block
            self.y = np.array(ticket.y)
        key = (self.tenant, inner.block_id)
        if key not in blocks:
            blocks[key] = _block_facts(inner)


def _block_facts(ticket) -> dict:
    """Pipeline and cost-model figures of the block a ticket rode in."""
    res, width = ticket.result, ticket.batch_columns
    act = res.stats.get("active_columns_trace")
    emp = res.stats.get("empty_columns_trace")
    return {
        "execute_s": ticket.execute_seconds,
        "cols": width,
        "n_centroids": res.stats.get("n_centroids", 0),
        "active": float(np.mean(act)) / width if act is not None and len(act) else 0.0,
        "empty": float(emp[-1]) / width if emp is not None and len(emp) else 0.0,
        "flops": sum(s.flops for s in res.modeled.values()),
        "bytes": sum(s.bytes_total for s in res.modeled.values()),
    }


@dataclass
class Phase:
    """One phase of traffic: every request, every block, and its clock span."""

    records: list[Record]
    blocks: dict
    start: float
    end: float


def _submit(router, tenant: str, index: int, y0, due: float, records: list) -> Record:
    sent = clock()
    ticket, refused = None, None
    try:
        ticket = router.submit(tenant, y0)
    except ServeShedError:
        refused = "shed"
    except (ServeOverflowError, ServeClosedError):
        refused = "rejected"
    record = Record(tenant, index, y0.shape[1], due, sent, clock() - sent, ticket, refused)
    records.append(record)
    return record


def drive(wl: Workload, router, prep: Prepared, schedule, seconds: float,
          blocks: int | None = None) -> Phase:
    """Send one phase of traffic and wait for every request to resolve.

    Open-loop requests are due at ``start + offset`` and timed from that due
    time; closed-loop requests are due when sent, and cycle through the
    tenant's requests from the first, so which blocks a phase sends depends
    on the seed alone.  The sync router runs a full block inside ``submit``,
    so its closed loop needs no second thread; given ``blocks``, it sends
    that many requests instead of running for ``seconds``.  Every open-loop
    request is checked; of the closed loop, the first CHECK_COLS columns.
    """
    phase = Phase(records=[], blocks={}, start=clock(), end=0.0)
    end = phase.start + seconds
    closed = prep.tenants[wl.closed].requests if wl.closed else None
    sent_closed = 0

    def send_closed() -> Record:
        nonlocal sent_closed
        k = sent_closed % len(closed)
        record = _submit(router, wl.closed, k, closed[k][1], clock(), phase.records)
        record.checked = sent_closed * wl.closed_cols < CHECK_COLS
        sent_closed += 1
        return record

    if not wl.asynchronous:
        while (sent_closed < blocks) if blocks is not None else (clock() < end):
            record = send_closed()
            if record.ticket is not None and not record.ticket.done:
                router.drain()
            record.settle(phase.blocks)
        phase.end = clock()
        return phase

    # requests in flight, settled as they complete so their tickets go
    outstanding: deque[Record] = deque()
    opened: deque[Record] = deque()

    def refill():
        for _ in range(wl.outstanding - len(outstanding)):
            if clock() >= end:
                return
            record = send_closed()
            if record.ticket is not None:
                outstanding.append(record)
            else:
                record.settle(phase.blocks)

    def wait_until(deadline: float) -> None:
        """Sleep until ``deadline``, keeping the closed loop topped up."""
        while True:
            for queue in (opened, outstanding):
                while queue and queue[0].ticket.done:
                    queue.popleft().settle(phase.blocks)
            if closed is not None:
                refill()
            wait = deadline - clock()
            if wait <= 0:
                return
            if outstanding:
                outstanding[0].ticket.wait(wait)
            else:
                time.sleep(wait if closed is None else min(wait, 0.001))

    if wl.open is not None:
        requests = prep.tenants[wl.open].requests
        for offset, k in zip(*schedule):
            due = phase.start + offset
            wait_until(due)
            record = _submit(router, wl.open, int(k), requests[k][1], due, phase.records)
            record.checked = True
            if record.ticket is not None:
                opened.append(record)
    if closed is not None:
        wait_until(end)
    deadline = clock() + DRAIN_TIMEOUT_S
    for record in [*opened, *outstanding]:
        if record.ticket is not None:
            record.ticket.wait(max(0.0, deadline - clock()))
    for record in [*opened, *outstanding]:
        record.settle(phase.blocks)
    phase.end = clock()
    return phase


# ------------------------------------------------------------------- counters
def snapshot(router, registry: ModelRegistry) -> dict:
    """Cumulative counters the serving stack already keeps, summed."""
    stats = router.stats()
    out = {
        "batches": 0, "batched_columns": 0, "hol_stalls": 0,
        "timer_underfill_columns": 0, "reuse_hit": 0, "reuse_blocks": 0,
        "busy_s": 0.0, "plan_calls": 0, "invalidations": 0,
    }
    for lane in stats["lanes"].values():
        for key in ("batches", "batched_columns", "hol_stalls", "timer_underfill_columns"):
            out[key] += lane[key]
        outcomes = lane.get("reuse_blocks", {})
        out["reuse_hit"] += outcomes.get("hit", 0)
        out["reuse_blocks"] += sum(outcomes.values())
    for model in stats["registry"]["models"].values():
        out["busy_s"] += model["busy_seconds"]
        out["plan_calls"] += model["plan"]["calls"] if model["plan"] else 0
        for stage, seconds in model["stage_seconds"].items():
            out[f"stage.{stage}"] = out.get(f"stage.{stage}", 0.0) + seconds
        cache = model.get("centroid_cache")
        if cache is not None:
            out["invalidations"] += sum(cache["invalidations"].values())
    for labels, counter in registry.metrics.series("spmm_strategy_total"):
        key = f"strategy.{labels['strategy']}"
        out[key] = out.get(key, 0) + counter.value
    admission = stats["qos"]["admission"]
    out["shed_total"] = admission["shed_total"] if admission else 0
    return out


def delta(before: dict, after: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


# --------------------------------------------------------------------- checks
def check_outputs(prep: Prepared, records: list[Record]) -> dict[str, tuple[float, int]]:
    """Per tenant: category disagreement of its checked requests with the
    exact path, and the number of checked columns.

    The exact ``xy2021`` feed-forward is column-independent, so a pool
    column's reference category is the same in any block; each needed
    column is computed once.
    """
    out = {}
    for name, inputs in prep.tenants.items():
        mine = [r for r in records if r.tenant == name and r.y is not None]
        if not mine:
            out[name] = (0.0, 0)
            continue
        needed = np.unique(np.concatenate([inputs.requests[r.index][0] for r in mine]))
        reference = np.empty(inputs.pool.shape[1], dtype=np.int64)
        exact = XY2021(inputs.network)
        for lo in range(0, needed.size, POOL_CHUNK):
            cols = needed[lo : lo + POOL_CHUNK]
            reference[cols] = inputs.categorize(exact.infer(inputs.pool[:, cols]).y)
        disagree = checked = 0
        for r in mine:
            got = inputs.categorize(r.y)
            disagree += int((got != reference[inputs.requests[r.index][0]]).sum())
            checked += got.size
        out[name] = (disagree / checked, checked)
    return out


def rerun_identical(router, prep: Prepared, records: list[Record]) -> bool:
    """Re-run the first measured block; its output must be bitwise equal."""
    first = next(r for r in records if r.y is not None)
    again = router.submit(first.tenant, prep.tenants[first.tenant].requests[first.index][1])
    if not again.done:
        router.drain()
    return again.y.dtype == first.y.dtype and again.y.tobytes() == first.y.tobytes()


# -------------------------------------------------------------------- metrics
def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def windows(records: list[Record], start: float) -> list[tuple[int, float, float]]:
    """Equal-count windows of completions: columns, start and end of each.

    Windows are cut by completion count, not by clock, so a window never
    gains or loses a whole block at its edge.
    """
    done = sorted((r.completed, r.cols) for r in records if r.outcome == "completed")
    out, t_prev = [], start
    for part in np.array_split(np.arange(len(done)), min(WINDOWS, len(done))):
        t_last = done[part[-1]][0]
        out.append((sum(done[i][1] for i in part), t_prev, t_last))
        t_prev = t_last
    return out


def measure(wl: Workload, prep: Prepared, phase: Phase, counts: dict, setups: list[dict],
            cpu_s: float, probe: HostProbe, recorder=None) -> tuple[dict, dict]:
    """Every metric the run gives, and the sample count behind each timing.

    Timings the program causes are reported at quiet-host speed (see
    ``HostProbe``): each request's latency and each set-up is divided by the
    probe's slowdown around it, each closed-loop throughput window's columns
    by the window's quiet-host duration, and the per-layer timings by the
    phase's median slowdown.  A request's wait
    for the batcher's timer, up to ``max_wait_s``, is wall-clock time a
    faster host would not shorten, so it stays unscaled, as does the load
    generator's own lateness.  ``raw.*`` are the end-to-end timings unscaled
    and ``host.slowdown`` the phase's factor.
    """
    records = phase.records
    done = [r for r in records if r.outcome == "completed"]
    slow = float(np.median(probe.slowdown(phase.start, phase.end)))
    sent = [r for r in records if r.tenant == wl.latency_tenant]
    lat = [r for r in sent if r.outcome == "completed"]
    raw_ms = np.array([(r.completed - r.due) * 1e3 for r in lat])
    timer_ms = np.array([min(r.batch_wait_s, wl.max_wait_s) * 1e3 for r in lat])
    latency_ms = (
        timer_ms + (raw_ms - timer_ms) / probe.slowdown([r.due for r in lat]) if lat else raw_ms
    )
    spans = windows([r for r in records if r.tenant == wl.throughput_tenant], phase.start)
    raw_rates = [cols / max(hi - lo, 1e-9) for cols, lo, hi in spans]
    # an open loop delivers its schedule's load at any host speed; only a
    # closed loop's rate is the server's capacity
    rates = (
        [cols / max(probe.quiet_seconds(lo, hi), 1e-9) for cols, lo, hi in spans]
        if wl.throughput_tenant == wl.closed else raw_rates
    )
    setup_slow = [probe.slowdown(t["at"])[0] for t in setups]
    lag_ms = [(r.sent - r.due) * 1e3 for r in records if r.tenant == wl.open]
    blocks = list(phase.blocks.values())
    execute_ms = [b["execute_s"] * 1e3 / slow for b in blocks]
    # the sync router has no intake queue, so nothing waits there
    intake_ms = [r.intake_s * 1e3 / slow for r in done if r.intake_s is not None]
    wait_ms = [r.batch_wait_s * 1e3 / slow for r in done]
    block_cols = max(sum(b["cols"] for b in blocks), 1)
    cols = max(counts["batched_columns"], 1)
    nblocks = max(counts["batches"], 1)
    reuse = any(t.centroid_reuse for t in wl.tenants)

    def setup_median(key: str, scaled: bool = True) -> float:
        return float(np.median([
            t[key] / (f if scaled else 1.0) for t, f in zip(setups, setup_slow)
        ]))

    metrics = {
        "setup_s": setup_median("setup_s"),
        "throughput_cols_per_s": float(np.median(rates)) if rates else 0.0,
        "latency_p50_ms": _pct(latency_ms, 50),
        "latency_tail_ms": _pct(latency_ms, wl.tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "raw.setup_s": setup_median("setup_s", scaled=False),
        "raw.throughput_cols_per_s": float(np.median(raw_rates)) if raw_rates else 0.0,
        "raw.latency_p50_ms": _pct(raw_ms, 50),
        "raw.latency_tail_ms": _pct(raw_ms, wl.tail_pct),
        "host.slowdown": slow,
        "loadgen.lag_ms.p50": _pct(lag_ms, 50),
        "loadgen.lag_ms.p99": _pct(lag_ms, 99),
        "loadgen.sent": len(records),
        "loadgen.completed": len(done),
        "loadgen.slo_attainment": int((latency_ms <= SLO_MS).sum()) / max(len(sent), 1),
        "loadgen.cpu_ms_per_kcol": cpu_s * 1e6 / cols / slow,
        "router.intake_wait_ms.p50": _pct(intake_ms, 50),
        "router.intake_wait_ms.p99": _pct(intake_ms, 99),
        "router.submit_us.p50": _pct([r.submit_s * 1e6 / slow for r in records], 50),
        "qos.shed_total": counts["shed_total"],
        "batcher.batch_wait_ms.p50": _pct(wait_ms, 50),
        "batcher.batch_wait_ms.p99": _pct(wait_ms, 99),
        "batcher.blocks": counts["batches"],
        "batcher.mean_fill": counts["batched_columns"] / (nblocks * wl.max_batch),
        "batcher.hol_stalls": counts["hol_stalls"],
        "batcher.timer_underfill_columns": counts["timer_underfill_columns"],
        "session.run_ms.p50": _pct(execute_ms, 50),
        "session.run_ms.p99": _pct(execute_ms, 99),
        "session.busy_share": counts["busy_s"] / (phase.end - phase.start),
        "setup.load_network_s": setup_median("load_network_s"),
        "setup.warmup_s": setup_median("warmup_s"),
        "pipeline.n_centroids.mean": _mean(b["n_centroids"] for b in blocks),
        "pipeline.active_fraction.mean": _mean(b["active"] for b in blocks),
        "pipeline.empty_fraction_final": _mean(b["empty"] for b in blocks),
        "kernels.spmm_calls": counts["plan_calls"] / nblocks,
        "gpu.modeled_flops_per_col": sum(b["flops"] for b in blocks) / block_cols,
        "gpu.modeled_bytes_per_col": sum(b["bytes"] for b in blocks) / block_cols,
        "reuse.hit_ratio": counts["reuse_hit"] / max(counts["reuse_blocks"], 1),
        "reuse.stale_invalidations": counts["invalidations"] / nblocks,
        "warmstore.load_s": setup_median("warmup_s") if reuse else 0.0,
        "warmstore.artifact_mb": prep.warm_state.stat().st_size / 1e6 if reuse else 0.0,
    }
    for stage in ("pre_convergence", "conversion", "post_convergence", "recovery"):
        seconds = counts.get(f"stage.{stage}", 0.0)
        metrics[f"pipeline.{stage}_ms_per_kcol"] = seconds * 1e6 / cols / slow
    for strategy in ("colwise", "masked", "ell", "csr"):
        metrics[f"kernels.strategy.{strategy}"] = counts.get(f"strategy.{strategy}", 0) / nblocks
    if recorder is not None:
        metrics.update(recorder.metrics(counts["batched_columns"], slow))
    samples = {
        "setup_s": len(setups),
        "throughput_cols_per_s": len(rates),
        "latency_p50_ms": len(latency_ms),
        "latency_tail_ms": len(latency_ms),
        "session.run_ms.p50": len(execute_ms),
        "session.run_ms.p99": len(execute_ms),
    }
    return metrics, samples


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


# ------------------------------------------------------------------------ run
@dataclass
class RunResult:
    metrics: dict
    samples: dict
    checks: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    columns: int = 0

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks.values())


def run(name: str, seed: int, seconds: float, workdir: Path, recorder=None) -> RunResult:
    """Prepare, set up, warm, measure and check one workload.

    A third of the set-up repetitions run before the warm pass (the last one
    builds the registry that serves), the rest after the measured phase, so
    their median spans the run rather than one moment of it.
    """
    wl = WORKLOADS[name]
    prep = prepare(wl, seed, seconds, workdir)
    probe = HostProbe()

    def probed_setup():
        for _ in range(5):
            probe.sample()
        return setup(wl, prep)

    setups = []
    for _ in range(SETUP_REPS // 3):
        registry, timing = probed_setup()
        setups.append(timing)
    router = make_router(wl, registry)
    try:
        drive(wl, router, prep, prep.warm_schedule, WARM_S, blocks=wl.warm_blocks or None)
        # a full collection must not stop the server to scan the benchmark's
        # own inputs: collect now and move everything alive out of its reach
        gc.collect()
        gc.freeze()
        before = snapshot(router, registry)
        cpu0 = time.process_time()
        tracing = recorder.tracing() if recorder is not None else nullcontext()
        # the probe wraps outside the spans, so its samples are in none
        with tracing, probing(probe):
            phase = drive(wl, router, prep, prep.schedule, seconds)
        cpu_s = time.process_time() - cpu0
        counts = delta(before, snapshot(router, registry))
        identical = rerun_identical(router, prep, phase.records) if name == "offline-deep" else None
    finally:
        if wl.asynchronous:
            router.close(drain=True, timeout=DRAIN_TIMEOUT_S)
    del router, registry
    setups += [probed_setup()[1] for _ in range(SETUP_REPS - len(setups))]
    metrics, samples = measure(wl, prep, phase, counts, setups, cpu_s, probe, recorder)
    outputs = check_outputs(prep, phase.records)
    # the closed loop's check set is fixed, so its share repeats exactly
    metrics["quality.category_disagreement"], samples["quality.category_disagreement"] = (
        outputs[wl.closed or wl.open]
    )
    outcomes = [r.outcome for r in phase.records]
    failed = len(outcomes) - outcomes.count("completed")
    checks = {
        "accounting": {
            "ok": "unresolved" not in outcomes, "value": outcomes.count("unresolved"), "limit": 0,
        },
        "no_failures": {"ok": failed == 0, "value": failed, "limit": 0},
    }
    for tenant, (share, checked) in outputs.items():
        limit = CLOSED_DISAGREEMENT_LIMIT if tenant == wl.closed else wl.open_limit
        checks[f"disagreement.{tenant}"] = {
            "ok": checked > 0 and share <= limit, "value": share, "limit": limit,
        }
    if wl.open is not None:
        lag = metrics["loadgen.lag_ms.p50"]
        checks["generator_lag"] = {"ok": lag <= LAG_LIMIT_MS, "value": lag, "limit": LAG_LIMIT_MS}
    if identical is not None:
        checks["bitwise_rerun"] = {"ok": identical, "value": identical, "limit": True}
    return RunResult(
        metrics=metrics,
        samples=samples,
        checks=checks,
        attempted=len(outcomes),
        failed=failed,
        columns=counts["batched_columns"],
    )
