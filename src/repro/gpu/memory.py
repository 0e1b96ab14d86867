"""Device memory buffers with allocation tracking and transfer accounting.

A :class:`DeviceBuffer` wraps a NumPy array that "lives on" a
:class:`~repro.gpu.device.VirtualDevice`.  Allocation is bounded by the device
memory size (the paper sizes batches so the A6000's 48 GB is not exceeded —
Section 4.1.1 — and we reproduce that constraint), and host-device transfers
are charged against the cost model's PCIe bandwidth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import DeviceError
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpu.device import VirtualDevice

__all__ = ["DeviceBuffer", "BufferPool", "MemoryBudget", "MAX_POOL_KEYS"]


#: Most ``(shape, dtype)`` keys a :class:`BufferPool` retains.  A warm
#: engine asks for one shape per distinct ``(layer width, block width)`` pair,
#: so a fixed-width stream on any benchmark network (every layer N x N) uses
#: one key; mixed-width traffic would otherwise grow the pool by one key per
#: block width ever seen.
MAX_POOL_KEYS = 16


class BufferPool:
    """Reusable host-side scratch arrays keyed by ``(shape, dtype)``.

    Warm engine sessions run the same network shape call after call; the pool
    keeps a small number of arrays per shape alive so per-layer outputs stop
    churning the allocator.  ``take`` hands back an existing buffer of the
    requested shape — skipping any array in ``avoid`` so an spMM never writes
    into its own input — or allocates a new one (retained up to
    ``slots_per_key``).  At most :data:`MAX_POOL_KEYS` shapes are retained: a
    miss on a new shape past the cap drops the oldest shape first.  Contents
    are unspecified; every kernel's ``out=`` path zero-fills before
    accumulating.

    ``pool_take_total``/``pool_hit_total``/``pool_alloc_total`` on
    ``metrics`` (a private registry by default) count requests, recycled
    hands-back and fresh allocations, which ``hits``/``misses`` read back;
    ``pool_bytes_highwater`` tracks the largest retained footprint.
    """

    def __init__(self, slots_per_key: int = 2, metrics=None):
        if slots_per_key < 1:
            raise DeviceError(f"slots_per_key must be >= 1, got {slots_per_key}")
        metrics = MetricsRegistry() if metrics is None else metrics
        self.slots_per_key = int(slots_per_key)
        self._bufs: dict[tuple, list[np.ndarray]] = {}
        self._c_take = metrics.counter(
            "pool_take_total", help="buffer requests served by the pool"
        )
        self._c_hit = metrics.counter(
            "pool_hit_total", help="buffer requests satisfied by a recycled array"
        )
        self._c_alloc = metrics.counter(
            "pool_alloc_total", help="buffer requests that allocated a fresh array"
        )
        self._g_highwater = metrics.gauge(
            "pool_bytes_highwater", help="largest retained pool footprint in bytes"
        )

    @property
    def hits(self) -> int:
        return int(self._c_hit.value)

    @property
    def misses(self) -> int:
        return int(self._c_alloc.value)

    def take(
        self,
        shape: tuple[int, ...],
        dtype=np.float32,
        avoid: tuple[np.ndarray, ...] | np.ndarray | None = None,
    ) -> np.ndarray:
        if isinstance(avoid, np.ndarray):
            avoid = (avoid,)
        key = (tuple(int(s) for s in shape), np.dtype(dtype).str)
        self._c_take.inc()
        bufs = self._bufs.get(key)
        if bufs is None:
            if len(self._bufs) >= MAX_POOL_KEYS:
                del self._bufs[next(iter(self._bufs))]  # oldest shape first
            bufs = self._bufs[key] = []
        for buf in bufs:
            if not any(buf is a for a in avoid or ()):
                self._c_hit.inc()
                return buf
        self._c_alloc.inc()
        buf = np.empty(key[0], dtype=dtype)
        if len(bufs) < self.slots_per_key:
            bufs.append(buf)
        self._g_highwater.set_max(self.nbytes)
        return buf

    def owns(self, array: np.ndarray) -> bool:
        """True if ``array`` is one of the pool's retained buffers."""
        return any(array is buf for bufs in self._bufs.values() for buf in bufs)

    def clear(self) -> int:
        """Drop every retained buffer; returns the bytes released.

        Safe at any point between blocks: pool contents are unspecified by
        contract (kernels zero-fill their ``out=``), so clearing can never
        change results — only the next block's allocation count.  This is
        the warm-to-cold demotion hook a :class:`MemoryBudget` eviction
        pulls.
        """
        freed = self.nbytes
        self._bufs.clear()
        return freed

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for bufs in self._bufs.values() for buf in bufs)

    def stats(self) -> dict[str, int]:
        return {
            "shapes": len(self._bufs),
            "buffers": sum(len(b) for b in self._bufs.values()),
            "nbytes": self.nbytes,
            "hits": self.hits,
            "misses": self.misses,
        }


class MemoryBudget:
    """Process-wide accounting of retained bytes across named accounts.

    A multi-model server runs many warm :class:`~repro.serve.EngineSession`\\ s,
    each retaining scratch (its :class:`BufferPool`), pinned weight views
    (:meth:`~repro.network.SparseNetwork.view_nbytes`), and cached
    conversions (:attr:`~repro.core.reuse.CentroidCache.nbytes`).  The
    budget meters the sum and tells the router *when* to demote; the router
    decides *whom* (LRU) and performs the demotion, then reports the new
    footprints back via :meth:`update`.  ``limit_bytes=None`` means
    metering only — never over budget.

    The budget itself holds no arrays, so it cannot leak: it is a ledger of
    what the accounts said they retain, refreshed by the owner after every
    request and after every eviction.

    It publishes on ``metrics`` (a private registry by default):
    ``memory_budget_limit_bytes``, ``memory_budget_retained_bytes`` (the
    ledger, read at scrape time) and ``memory_budget_highwater_bytes``
    gauges, and a ``memory_budget_evictions_total`` counter.  The highwater
    gauge is advanced by :meth:`publish` — the owner calls it *after*
    enforcement so the published peak reflects steady state under the
    budget, not the transient between a fill and the eviction it triggered.
    ``evictions`` and ``highwater_bytes`` read those series back.
    """

    def __init__(self, limit_bytes: int | None = None, metrics=None):
        if limit_bytes is not None and limit_bytes < 0:
            raise DeviceError(f"limit_bytes must be >= 0, got {limit_bytes}")
        metrics = MetricsRegistry() if metrics is None else metrics
        self.limit_bytes = int(limit_bytes) if limit_bytes is not None else None
        self._accounts: dict[str, int] = {}
        metrics.gauge(
            "memory_budget_limit_bytes", help="configured retained-bytes budget (0 = unlimited)"
        ).set(self.limit_bytes or 0)
        retained = metrics.gauge(
            "memory_budget_retained_bytes", help="retained bytes across all accounts"
        )
        metrics.on_collect(lambda _reg: retained.set(self.retained_bytes))
        self._g_highwater = metrics.gauge(
            "memory_budget_highwater_bytes",
            help="largest retained footprint observed after budget enforcement",
        )
        self._c_evictions = metrics.counter(
            "memory_budget_evictions_total", help="sessions demoted warm-to-cold by the budget"
        )

    @property
    def evictions(self) -> int:
        return int(self._c_evictions.value)

    @property
    def highwater_bytes(self) -> int:
        return int(self._g_highwater.value)

    def update(self, name: str, nbytes: int) -> None:
        """Set account ``name``'s retained footprint (absolute, not a delta)."""
        self._accounts[name] = int(nbytes)

    def drop(self, name: str) -> None:
        """Forget an account entirely (the session was evicted/closed)."""
        self._accounts.pop(name, None)

    @property
    def retained_bytes(self) -> int:
        return sum(self._accounts.values())

    @property
    def over_budget(self) -> bool:
        return self.limit_bytes is not None and self.retained_bytes > self.limit_bytes

    def account_bytes(self) -> dict[str, int]:
        """The ledger, account by account (a copy)."""
        return dict(self._accounts)

    def record_eviction(self, n: int = 1) -> None:
        self._c_evictions.inc(n)

    def publish(self) -> int:
        """Advance the high-water mark; returns retained bytes.

        Call after enforcement has settled so the high-water mark certifies
        "stayed under budget" rather than recording the pre-eviction spike.
        """
        retained = self.retained_bytes
        self._g_highwater.set_max(retained)
        return retained

    def stats(self) -> dict:
        return {
            "limit_bytes": self.limit_bytes,
            "retained_bytes": self.retained_bytes,
            "highwater_bytes": self.highwater_bytes,
            "evictions": self.evictions,
            "accounts": self.account_bytes(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limit = "unlimited" if self.limit_bytes is None else self.limit_bytes
        return (
            f"MemoryBudget(retained={self.retained_bytes}, limit={limit}, "
            f"accounts={len(self._accounts)})"
        )


class DeviceBuffer:
    """An array allocated in a virtual device's memory space.

    Do not construct directly; use :meth:`VirtualDevice.alloc`,
    :meth:`VirtualDevice.to_device`, or :meth:`VirtualDevice.zeros`.
    """

    __slots__ = ("_device", "_array", "_freed")

    def __init__(self, device: "VirtualDevice", array: np.ndarray):
        self._device = device
        self._array = array
        self._freed = False

    @property
    def device(self) -> "VirtualDevice":
        return self._device

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def dtype(self) -> np.dtype:
        return self.array.dtype

    @property
    def nbytes(self) -> int:
        return self.array.nbytes

    @property
    def array(self) -> np.ndarray:
        """The backing array.  Kernels operate on this in place."""
        if self._freed:
            raise DeviceError("use of freed device buffer")
        return self._array

    def to_host(self) -> np.ndarray:
        """Copy device data back to the host (charged as a D2H transfer)."""
        arr = self.array
        self._device.cost.charge_d2h(arr.nbytes)
        return arr.copy()

    def copy_from_host(self, host: np.ndarray) -> None:
        """Overwrite device contents with host data (charged as H2D)."""
        arr = self.array
        if host.shape != arr.shape:
            raise DeviceError(f"H2D shape mismatch: {host.shape} -> {arr.shape}")
        arr[...] = host
        self._device.cost.charge_h2d(arr.nbytes)

    def free(self) -> None:
        """Release the allocation.  Further access raises :class:`DeviceError`."""
        if not self._freed:
            self._device._release(self._array.nbytes)
            self._freed = True

    @property
    def freed(self) -> bool:
        return self._freed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "freed" if self._freed else f"{self._array.shape} {self._array.dtype}"
        return f"DeviceBuffer({state})"
