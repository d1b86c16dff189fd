"""The island-style FPGA fabric model.

Stands in for the paper's Intel Cyclone V (§6: 110K logic elements,
50 MHz fabric clock).  The device is a W x H grid of logic elements —
each one 4-input LUT plus an optional flip-flop — surrounded by IO pads,
with horizontal and vertical routing channels of fixed capacity between
adjacent grid cells.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

__all__ = ["Device", "CYCLONE_V", "SMALL_DEVICE", "device_for"]


class Device:
    """One FPGA device: geometry, capacity, and timing parameters."""

    def __init__(self, name: str, width: int, height: int,
                 clock_mhz: float = 50.0,
                 channel_capacity: int = 40,
                 lut_delay_ns: float = 0.7,
                 wire_delay_ns_per_hop: float = 0.2,
                 setup_ns: float = 0.4,
                 io_pads: int = 256):
        self.name = name
        self.width = width
        self.height = height
        self.clock_mhz = clock_mhz
        self.channel_capacity = channel_capacity
        self.lut_delay_ns = lut_delay_ns
        self.wire_delay_ns_per_hop = wire_delay_ns_per_hop
        self.setup_ns = setup_ns
        self.io_pads = io_pads

    def to_payload(self) -> tuple:
        """A compact, picklable form for the process-pool flow lane
        (mirrors :meth:`repro.backend.netlist.Netlist.to_payload`)."""
        return (self.name, self.width, self.height, self.clock_mhz,
                self.channel_capacity, self.lut_delay_ns,
                self.wire_delay_ns_per_hop, self.setup_ns, self.io_pads)

    @classmethod
    def from_payload(cls, payload: tuple) -> "Device":
        return cls(*payload)

    @property
    def logic_elements(self) -> int:
        return self.width * self.height

    def __repr__(self) -> str:
        return (f"Device({self.name}, {self.width}x{self.height}, "
                f"{self.clock_mhz}MHz)")


#: The paper's experimental platform (§6).
CYCLONE_V = Device("CycloneV-SoC", 332, 332, clock_mhz=50.0)

#: A small device for tests and the real place & route flow.
SMALL_DEVICE = Device("small", 24, 24, clock_mhz=50.0)


def device_for(num_cells: int, clock_mhz: float = 50.0,
               utilization: float = 0.45) -> Device:
    """A device just big enough for ``num_cells`` at the given target
    utilization (keeps simulated annealing tractable in tests)."""
    side = max(4, math.ceil(math.sqrt(num_cells / utilization)))
    return Device(f"auto{side}", side, side, clock_mhz=clock_mhz)
