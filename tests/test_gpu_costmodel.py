"""Cost-model accounting and roofline math."""

import pytest

from repro.gpu.costmodel import CostModel, CostSnapshot, KernelCharge
from repro.obs import Tracer


def test_kernel_time_compute_bound():
    cm = CostModel(peak_flops=1e9, mem_bandwidth=1e12, launch_overhead=0.0, atomic_cost=0.0)
    charge = KernelCharge(name="k", flops=2e9, bytes_read=8, bytes_written=8)
    assert cm.kernel_time(charge) == pytest.approx(2.0)


def test_kernel_time_memory_bound():
    cm = CostModel(peak_flops=1e15, mem_bandwidth=1e9, launch_overhead=0.0, atomic_cost=0.0)
    charge = KernelCharge(name="k", flops=10, bytes_read=5e8, bytes_written=5e8)
    assert cm.kernel_time(charge) == pytest.approx(1.0)


def test_launch_overhead_and_atomics_add_up():
    cm = CostModel(peak_flops=1e12, mem_bandwidth=1e12, launch_overhead=1e-6, atomic_cost=1e-9)
    charge = KernelCharge(name="k", atomics=1000)
    assert cm.kernel_time(charge) == pytest.approx(1e-6 + 1000 * 1e-9)


def test_charge_accumulates_and_snapshot_diffs():
    cm = CostModel()
    cm.charge_kernel(KernelCharge(name="a", flops=100, bytes_read=10))
    snap1 = cm.snapshot()
    cm.charge_kernel(KernelCharge(name="b", flops=50, bytes_written=20, atomics=3))
    snap2 = cm.snapshot()
    delta = snap2 - snap1
    assert delta.launches == 1
    assert delta.flops == 50
    assert delta.bytes_written == 20
    assert delta.atomics == 3
    assert delta.modeled_seconds > 0


def test_h2d_d2h_charged_against_pcie():
    cm = CostModel(pcie_bandwidth=1e9)
    assert cm.charge_h2d(1e9) == pytest.approx(1.0)
    assert cm.charge_d2h(5e8) == pytest.approx(0.5)
    snap = cm.snapshot()
    assert snap.h2d_bytes == 1e9
    assert snap.d2h_bytes == 5e8


def test_reset_clears_everything():
    cm = CostModel()
    cm.charge_kernel(KernelCharge(name="a", flops=100))
    cm.charge_h2d(100)
    cm.reset()
    snap = cm.snapshot()
    assert snap.launches == 0
    assert snap.flops == 0
    assert snap.modeled_seconds == 0
    assert snap == CostSnapshot()


def test_ledger_keeps_totals_and_spans_keep_charges():
    """The ledger sums charges and keeps none of them: per-launch detail
    lives on the tracer's kernel spans, in launch order."""
    tracer = Tracer()
    cm = CostModel()
    for name, flops in (("first", 1.0), ("second", 2.0)):
        charge = KernelCharge(name=name, flops=flops)
        with tracer.span(name, cat="kernel") as span:
            span.charge(charge, cm.charge_kernel(charge))
    snap = cm.snapshot()
    assert snap.launches == 2 and snap.flops == 3.0
    assert [s.args["kernel"] for s in tracer.find(cat="kernel")] == ["first", "second"]
    assert not hasattr(cm, "history")


def test_snapshot_bytes_total():
    snap = CostSnapshot(bytes_read=3, bytes_written=4)
    assert snap.bytes_total == 7


def test_charge_bytes_total_property():
    c = KernelCharge(name="k", bytes_read=1, bytes_written=2)
    assert c.bytes_total == 3
