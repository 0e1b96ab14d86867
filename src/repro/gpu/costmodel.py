"""Roofline cost model for the virtual GPU.

Kernels charge the work they perform (FLOPs, bytes read/written, atomic
operations, barriers); the model converts a ledger of charges into a modeled
latency.  The conversion uses the classic roofline: a kernel's time is the
maximum of its compute time (flops / peak_flops) and its memory time
(bytes / bandwidth), plus a fixed launch overhead.  Host-device transfers are
charged separately against PCIe bandwidth.

The model is deliberately simple — it is not a cycle-accurate simulator — but
it preserves the property that matters for reproducing SNICIT's evaluation:
stage latency is proportional to the work actually performed, so skipping
empty columns and multiplying sparse residues shows up as reduced modeled
latency exactly as it reduces GPU time in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["KernelCharge", "CostSnapshot", "CostModel"]


@dataclass(frozen=True)
class KernelCharge:
    """Work performed by one kernel launch."""

    name: str
    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    atomics: int = 0
    barriers: int = 0

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written


@dataclass(frozen=True)
class CostSnapshot:
    """Immutable aggregate of a ledger section (for per-stage accounting)."""

    launches: int = 0
    flops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    atomics: int = 0
    barriers: int = 0
    h2d_bytes: float = 0.0
    d2h_bytes: float = 0.0
    modeled_seconds: float = 0.0

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            launches=self.launches - other.launches,
            flops=self.flops - other.flops,
            bytes_read=self.bytes_read - other.bytes_read,
            bytes_written=self.bytes_written - other.bytes_written,
            atomics=self.atomics - other.atomics,
            barriers=self.barriers - other.barriers,
            h2d_bytes=self.h2d_bytes - other.h2d_bytes,
            d2h_bytes=self.d2h_bytes - other.d2h_bytes,
            modeled_seconds=self.modeled_seconds - other.modeled_seconds,
        )

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written


@dataclass
class CostModel:
    """Accumulates kernel charges and converts them to modeled time.

    The ledger keeps running totals only, so a long-lived engine's ledger
    stays the same size however many blocks it serves.  Per-launch detail
    rides on the tracer's kernel spans (:meth:`repro.obs.trace.Span.charge`).

    Parameters
    ----------
    peak_flops:
        Peak arithmetic throughput in FLOP/s.
    mem_bandwidth:
        Device memory bandwidth in bytes/s.
    pcie_bandwidth:
        Host-device transfer bandwidth in bytes/s.
    launch_overhead:
        Fixed per-kernel-launch latency in seconds.
    atomic_cost:
        Extra seconds charged per atomic operation (serialization penalty).
    """

    peak_flops: float = 1.0e12
    mem_bandwidth: float = 2.0e11
    pcie_bandwidth: float = 2.5e10
    launch_overhead: float = 4.0e-6
    atomic_cost: float = 2.0e-9

    _launches: int = field(default=0, init=False)
    _flops: float = field(default=0.0, init=False)
    _bytes_read: float = field(default=0.0, init=False)
    _bytes_written: float = field(default=0.0, init=False)
    _atomics: int = field(default=0, init=False)
    _barriers: int = field(default=0, init=False)
    _h2d: float = field(default=0.0, init=False)
    _d2h: float = field(default=0.0, init=False)
    _modeled_seconds: float = field(default=0.0, init=False)

    def kernel_time(self, charge: KernelCharge) -> float:
        """Modeled latency of a single kernel launch (roofline + overhead)."""
        compute = charge.flops / self.peak_flops
        memory = charge.bytes_total / self.mem_bandwidth
        return self.launch_overhead + max(compute, memory) + charge.atomics * self.atomic_cost

    def charge_kernel(self, charge: KernelCharge) -> float:
        """Record one launch; returns its modeled latency in seconds."""
        seconds = self.kernel_time(charge)
        self._launches += 1
        self._flops += charge.flops
        self._bytes_read += charge.bytes_read
        self._bytes_written += charge.bytes_written
        self._atomics += charge.atomics
        self._barriers += charge.barriers
        self._modeled_seconds += seconds
        return seconds

    def charge_h2d(self, nbytes: float) -> float:
        seconds = nbytes / self.pcie_bandwidth
        self._h2d += nbytes
        self._modeled_seconds += seconds
        return seconds

    def charge_d2h(self, nbytes: float) -> float:
        seconds = nbytes / self.pcie_bandwidth
        self._d2h += nbytes
        self._modeled_seconds += seconds
        return seconds

    def snapshot(self) -> CostSnapshot:
        """Current ledger totals; diff two snapshots for per-stage costs."""
        return CostSnapshot(
            launches=self._launches,
            flops=self._flops,
            bytes_read=self._bytes_read,
            bytes_written=self._bytes_written,
            atomics=self._atomics,
            barriers=self._barriers,
            h2d_bytes=self._h2d,
            d2h_bytes=self._d2h,
            modeled_seconds=self._modeled_seconds,
        )

    def reset(self) -> None:
        self._launches = 0
        self._flops = 0.0
        self._bytes_read = 0.0
        self._bytes_written = 0.0
        self._atomics = 0
        self._barriers = 0
        self._h2d = 0.0
        self._d2h = 0.0
        self._modeled_seconds = 0.0

    @property
    def modeled_seconds(self) -> float:
        return self._modeled_seconds
