"""The virtual time base for the performance model (DESIGN.md §4).

The paper measures Cascade by its *virtual clock*: "the average rate at
which it can dispatch iterations of its scheduling loop" (§4.1), across
physical domains that range from a GHz-class ARM core to a 50 MHz FPGA
fabric.  We have neither device, so the runtime advances a discrete
virtual clock whose per-operation costs are calibrated to the paper's
platform:

* a software engine charges ``SW_EVENT_NS`` per event it processes
  (calibrated so a small design simulates at roughly the 1 kHz range
  the paper reports for interpreted simulation);
* every data/control-plane message to a hardware-located engine charges
  one MMIO round trip (``MMIO_NS``) — the §4.4 observation that even one
  message per iteration caps the virtual clock far below fabric rate;
* a hardware engine processes any ABI request in a single fabric clock
  tick (§5.2), and open-loop batches charge one tick per iteration plus
  a single round trip.

Compile latency is also charged in virtual time, by
:mod:`repro.backend.compiler`, so whole JIT timelines (Figures 11/12)
replay deterministically in milliseconds of host time.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["TimeModel"]

NS_PER_SEC = 1_000_000_000


#: Calibration constants of the virtual clock.  Module globals are
#: the cheapest read on the per-event charging path.
SW_EVENT_NS = 120_000
MMIO_NS = 1_800
RUNTIME_OVERHEAD_NS = 4_000


class TimeModel:
    """Accumulates virtual nanoseconds for runtime operations.

    Every per-operation cost is a calibration constant; only the
    fabric clock is a deployment setting.  Events on the software fast
    path (the compiled-Python middle JIT tier) are charged at the
    interpreter's ``SW_EVENT_NS`` — the documented deviation in
    DESIGN.md §4.4 — so paper timelines (Figures 11/12) are
    bit-identical whether or not the fast path engaged; only host
    wall-clock changes.
    """

    def __init__(self, fabric_mhz: float = 50.0):
        self.fabric_mhz = fabric_mhz
        self.fabric_tick_ns = 1_000.0 / fabric_mhz
        self.now_ns: float = 0.0
        #: Events charged per execution tier, for :stats / :time.
        self.tier_events: Dict[str, int] = {
            "interpreted": 0, "sw-fast": 0, "hardware": 0}

    # -- charging --------------------------------------------------------
    def charge_sw_events(self, count: int, fast: bool = False) -> None:
        self.now_ns += count * SW_EVENT_NS
        self.tier_events["sw-fast" if fast else "interpreted"] += count

    def charge_mmio(self, messages: int = 1) -> None:
        self.now_ns += messages * MMIO_NS

    def charge_hw_ticks(self, ticks: int) -> None:
        self.now_ns += ticks * self.fabric_tick_ns
        self.tier_events["hardware"] += ticks

    def charge_runtime(self) -> None:
        self.now_ns += RUNTIME_OVERHEAD_NS

    def charge_ns(self, ns: float) -> None:
        self.now_ns += ns

    @property
    def batch_costs(self):
        """What a closed-loop batch kernel adds to ``now_ns``, one
        charge at a time in the stepped loop's order, and the unit of
        ``now_seconds``: (software event, MMIO, fabric tick, runtime
        overhead, ns per second)."""
        return (SW_EVENT_NS, MMIO_NS, self.fabric_tick_ns,
                RUNTIME_OVERHEAD_NS, NS_PER_SEC)

    # -- reading -----------------------------------------------------------
    @property
    def now_seconds(self) -> float:
        return self.now_ns / NS_PER_SEC

    def __repr__(self) -> str:
        return f"TimeModel(now={self.now_seconds:.6f}s)"

